"""Record the output digests that every benchmark run is checked against.

    python3 perfbench/record_digests.py

Certifies and round-trips every instance of every workload and writes
perfbench/digests.json.  Run it only on a commit whose outputs are known to
be right; a later run compares its outputs with these.
"""
from __future__ import annotations

import json
import tempfile

from run import HERE, ROOT, import_program


def main() -> None:
    import_program()
    import jobs

    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as work:
        for wl in jobs.WORKLOADS.values():
            for inst in wl.instances:
                name = jobs.instance_name(inst)
                path = f"{work}/{name}.json"
                c = jobs.certify(inst)
                jobs.roundtrip(c.scheme, jobs.provenance(inst), path, seed=0)
                with open(path, "rb") as fh:
                    out[name] = jobs.digests(c, fh.read())
                print(name, flush=True)
    with open(HERE / "digests.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
