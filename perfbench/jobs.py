"""Certification jobs, output digests and negative controls.

A job certifies one parameter set the way a user of gwschemes does, in two
parts:

* certify, all in memory: build and verify the scheme, its exact
  eigensystem, P, Q, the character table and their duality, then the
  symmetrizing fusion, its fused eigensystem and a fusion certificate;
* roundtrip: save the scheme to a file and re-verify that file through the
  command line (`verify --spectral`), which loads it, re-checks the axioms,
  rebuilds the exact eigensystem and compares it with the spectrum oracle.

Every job's outputs are compared with digests recorded in digests.json.  Each
instance also gets two seeded negative controls, a saved file with one
run-length run relabelled and an eigensystem with one matrix unit scaled by
2, and the bgw-exact workload adds a parameter set that admits no
construction.  A control counts as failed when the mutation is accepted.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import sys
import traceback
from time import perf_counter

import gwschemes as gw
from gwschemes import cli


@dataclasses.dataclass(frozen=True)
class Workload:
    instances: list[tuple]  # ("bgw", q, m) or ("gh", q)
    obstruction_control: bool
    dominant: list[str]  # layers predicted to take most of the traced pass


# gh q=11 and q=13 stay out: one gh-11 job takes about 2 min and 1.3 GB of
# memory, and gh-13 is out of reach.  oracle_closure stays out because
# only the tests call it.
WORKLOADS = {
    # v <= 312 with 14-24 classes: the exact CycScalar layer is most of it
    "bgw-exact": Workload(
        [("bgw", 8, 7), ("bgw", 17, 8), ("bgw", 25, 12)], True, ["spectra"]
    ),
    # v up to 810 with 11-19 classes: dense closure checks are about half
    "gh-dense": Workload([("gh", 5), ("gh", 7), ("gh", 9)], False, ["schemes"]),
    # v = 580-1060 with 4-6 classes: field tables, builder loops and RLE files
    "bgw-wide": Workload(
        [("bgw", 289, 2), ("bgw", 256, 3), ("bgw", 529, 2)],
        False,
        ["algebra", "designs", "builders", "serialize"],
    ),
    # the smallest case of each family, for the benchmark's own tests
    "tiny": Workload([("bgw", 5, 2), ("gh", 3)], True, ["spectra"]),
}

OBSTRUCTED_BUILD = ["build", "bgw-scheme", "--q", "13", "--m", "4"]
UNIT_SCALE = 2


class CheckFailed(Exception):
    """An output differs from the recorded one, or a control was accepted."""


def instance_name(inst: tuple) -> str:
    return "-".join(str(x) for x in inst)


def provenance(inst: tuple) -> dict:
    if inst[0] == "bgw":
        return {"family": "bgw", "q": inst[1], "m": inst[2]}
    return {"family": "gh", "q": inst[1]}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in this process, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@dataclasses.dataclass
class Certified:
    scheme: gw.AssociationScheme
    es: gw.Eigensystem
    P: list
    Q: list
    T: list
    fused: gw.AssociationScheme
    fes: gw.FusedEigensystem


def certify(inst: tuple) -> Certified:
    if inst[0] == "bgw":
        _, q, m = inst
        scheme = gw.bgw_build(q, m)
        es = gw.bgw_eigensystem(scheme, q, m)
        partition = gw.bgw_symmetric_fusion(m)
    else:
        _, q = inst
        scheme = gw.gh_build(q)
        es = gw.gh_eigensystem(scheme, q)
        partition = gw.gh_symmetric_fusion(q)
    P = es.eigenmatrix_p()
    Q = es.eigenmatrix_q()
    T = es.character_table()
    es.check_pq_duality()
    fused = scheme.fuse(partition)
    fes = gw.FusedEigensystem(es, partition)
    cert = gw.bm_search(es, partition)
    if cert is None or cert.cell_count != len(partition):
        raise CheckFailed("no fusion certificate")
    return Certified(scheme, es, P, Q, T, fused, fes)


def roundtrip(scheme, prov: dict, path: str, seed: int) -> None:
    gw.save_scheme(path, scheme, prov)
    rc, out = run_cli(["verify", "--in", path, "--spectral", "--seed", str(seed)])
    if rc != 0 or "numeric oracle agrees" not in out:
        raise CheckFailed(f"verify --spectral exited {rc}: {out.strip()}")


def _sha(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digests(c: Certified, file_bytes: bytes) -> dict[str, str]:
    s, es = c.scheme, c.es
    field = es.algebra.field
    labels = list(s.labels)
    units = [f"{name}({i},{j})" for name, i, j in es.row_index()]
    blocks = [blk.name for blk in es.blocks]
    return {
        "tensor": _sha(s.p.astype("<i8").tobytes()),
        "tpose": _sha(s.tpose),
        "valencies": _sha(s.valencies),
        "multiplicities": _sha(es.multiplicities),
        "P": _sha(gw.table_to_json("P", field, units, labels, c.P)),
        "Q": _sha(gw.table_to_json("Q", field, labels, units, c.Q)),
        "T": _sha(gw.table_to_json("T", field, blocks, labels, c.T)),
        "qhat": _sha(
            gw.table_to_json("Q", field, c.fused.labels, c.fes.names, c.fes.qhat)
        ),
        "file": _sha(file_bytes),
    }


def relabel_run(data: dict, rng: random.Random) -> None:
    """Give one run of one row of a scheme file another class label."""
    nm = len(data["labels"])
    row = data["rows"][rng.randrange(data["v"])]
    t = 2 * rng.randrange(len(row) // 2)
    row[t] = (row[t] + rng.randrange(1, nm)) % nm


def control_rle(path: str, rng: random.Random) -> None:
    """Relabel one run of the saved file; `verify` must exit 2."""
    with open(path) as fh:
        data = json.load(fh)
    relabel_run(data, rng)
    bad = path + ".relabelled"
    with open(bad, "w") as fh:
        json.dump(data, fh)
    rc, out = run_cli(["verify", "--in", bad])
    if rc != 2:
        raise CheckFailed(f"relabelled file: verify exited {rc}, not 2: {out.strip()}")


def control_unit(es: gw.Eigensystem, rng: random.Random) -> None:
    """Scale one matrix unit; Eigensystem must name a failing unit pair.

    The unit is one of the first four of the largest blocks, so that the
    verifier reaches it after about the same work whatever the seed.
    """
    units = [
        (bi, ij)
        for bi, blk in enumerate(es.blocks)
        if blk.dim == max(b.dim for b in es.blocks)
        for ij in sorted(blk.units)
    ]
    bi, ij = rng.choice(units[:4])
    blocks = [dataclasses.replace(b, units=dict(b.units)) for b in es.blocks]
    blocks[bi].units[ij] = es.algebra.rmul(UNIT_SCALE, blocks[bi].units[ij])
    name = re.escape(blocks[bi].name)
    # a scaled unit still annihilates the other blocks, so the first relation
    # that fails lies inside its own block
    want = rf"unit relation failed: block {name} \(\d+,\d+\) times block {name} \(\d+,\d+\)"
    try:
        gw.Eigensystem(es.algebra, blocks)
    except gw.VerificationError as e:
        if not re.fullmatch(want, str(e)):
            raise CheckFailed(f"scaled unit: unexpected message {e}") from e
        return
    raise CheckFailed(f"scaled unit {ij} of block {blocks[bi].name} accepted")


def control_obstruction() -> None:
    rc, out = run_cli(OBSTRUCTED_BUILD)
    if rc != 3:
        raise CheckFailed(f"build --q 13 --m 4 exited {rc}, not 3: {out.strip()}")


class _NoTracer:
    def phase(self, label):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


@dataclasses.dataclass
class PassResult:
    pass_s: float = 0.0
    certify_s: float = 0.0
    roundtrip_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    file_bytes: int = 0


def _op(res: PassResult, label: str, fn) -> None:
    """Run one op; a failure is counted and reported, and the pass goes on."""
    res.attempted += 1
    try:
        fn()
    except Exception:  # any failure of one op is that op's result
        res.failed += 1
        print(f"FAILED {label}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def pass_steps(workload: str) -> list:
    """The steps of one pass: each instance (its job, then its controls), and
    the obstruction control where the workload has it."""
    wl = WORKLOADS[workload]
    return list(wl.instances) + (["obstruction"] if wl.obstruction_control else [])


def run_step(
    step, seed: int, workdir: str, expected: dict, res: PassResult, tracer=None, clock=perf_counter
):
    """Run one step of a pass and add its ops and times, read from clock, to res."""
    tracer = tracer or _NoTracer()
    t_step = clock()
    if step == "obstruction":
        with tracer.phase("obstruction:controls"):
            _op(res, "q=13 m=4", control_obstruction)
        res.pass_s += clock() - t_step
        return
    name = instance_name(step)
    path = os.path.join(workdir, name + ".json")
    # the same mutations for an instance whatever else the pass holds
    rng = random.Random(f"{seed}:{name}")
    es = None

    def job():
        nonlocal es
        t0 = clock()
        with tracer.phase(name + ":certify"):
            c = certify(step)
        t1 = clock()
        es = c.es
        with tracer.phase(name + ":roundtrip"):
            roundtrip(c.scheme, provenance(step), path, seed)
        t2 = clock()
        res.certify_s += t1 - t0
        res.roundtrip_s += t2 - t1
        with open(path, "rb") as fh:
            file_bytes = fh.read()
        res.file_bytes += len(file_bytes)
        with tracer.paused():
            got = digests(c, file_bytes)
        want = expected.get(name, {})
        bad = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        if bad:
            raise CheckFailed(f"{name}: outputs differ from digests.json: {bad}")

    def scaled_unit():
        if es is None:
            raise CheckFailed("the job failed, so there is no eigensystem")
        control_unit(es, rng)

    _op(res, name, job)
    with tracer.phase(name + ":controls"):
        _op(res, name + " relabelled run", lambda: control_rle(path, rng))
        _op(res, name + " scaled unit", scaled_unit)
    res.pass_s += clock() - t_step


def run_pass(workload: str, seed: int, workdir: str, expected: dict, tracer=None) -> PassResult:
    """One closed-loop pass over the workload."""
    res = PassResult()
    for step in pass_steps(workload):
        run_step(step, seed, workdir, expected, res, tracer)
    return res
