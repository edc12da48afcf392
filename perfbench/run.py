"""Certification benchmark for gwschemes.

    python3 perfbench/run.py --workload bgw-exact --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Whole passes over the workload's certification jobs (see jobs.py) run one job
at a time in this process, a closed loop, until --seconds have been spent, at
least one pass.  Every output is checked against digests.json and every
negative control must be rejected; a failure counts against the pass but
does not stop it.

--trace 0 prints the end-to-end metrics: medians over the passes, the peak
RSS of this process and the median start-up time of fresh interpreters.  The
times are scaled to a fixed host speed by a reference kernel that runs
interleaved with the passes and beside each interpreter start (see
calibrate.py); the times as measured are printed above the result.
--trace 1 instead runs one untraced and one traced pass, step by step in
turn, with spans around every gwschemes entry point in the traced one, and
prints the per-layer metrics and a per-instance stage table; the spans
themselves go to standard error.  The last line of standard output is the
JSON result.
"""
from __future__ import annotations

import os
import sys

# BLAS reads its thread count when numpy is first imported
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
# the program's tree must stay as checked out
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # before each step of an untraced pass
KERNELS_PER_SETUP = 2  # before, and again after, each set-up sample

END_TO_END_UNITS = {
    "pass_s": "s",
    "certify_s": "s",
    "roundtrip_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "frac",
}


def import_program():
    """Import gwschemes from this checkout's src/, or explain why not."""
    sys.path.insert(0, str(SRC))
    try:
        import gwschemes
    except ImportError as e:
        raise SystemExit(f"cannot import gwschemes from {SRC}: {e}")
    if not Path(gwschemes.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gwschemes was imported from {gwschemes.__file__}, not {SRC}")


def setup_sample() -> tuple[float, float]:
    """Wall time of one fresh interpreter importing gwschemes and its CLI, as
    timed and scaled to the reference speed by kernel runs just before and after."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    kernel_s = [calibrate.kernel() for _ in range(KERNELS_PER_SETUP)]
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import gwschemes, gwschemes.cli"],
        cwd=ROOT,
        env=env,
        check=True,
    )
    setup_s = perf_counter() - t0
    kernel_s += [calibrate.kernel() for _ in range(KERNELS_PER_SETUP)]
    return setup_s, setup_s * calibrate.REFERENCE_S / statistics.fmean(kernel_s)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import jobs
    import spans

    if args.workload not in jobs.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wl = jobs.WORKLOADS[args.workload]
    with open(HERE / "digests.json") as fh:
        expected = json.load(fh)

    setup_s = []
    passes = []
    tracer = traced = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as work:
        if args.trace:
            # one untraced and one traced pass, interleaved step by step so
            # that both see the same drift in machine speed
            tracer = spans.Tracer()
            untraced, traced = jobs.PassResult(), jobs.PassResult()
            passes.append(untraced)
            for step in jobs.pass_steps(args.workload):
                jobs.run_step(step, args.seed, work, expected, untraced)
                with tracer.installed():
                    jobs.run_step(step, args.seed, work, expected, traced, tracer)
        else:
            sampler = calibrate.Sampler()
            t_start = sampler.clock()
            while not passes or sampler.clock() - t_start < args.seconds:
                res = jobs.PassResult()
                for step in jobs.pass_steps(args.workload):
                    setup_s.extend(setup_sample() for _ in range(SETUP_SAMPLES))
                    with sampler.running():
                        jobs.run_step(
                            step, args.seed, work, expected, res, sampler, sampler.clock
                        )
                passes.append(res)

    runs = passes + ([traced] if traced else [])
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    names = [jobs.instance_name(i) for i in wl.instances]
    print(
        f"workload {args.workload}: {' '.join(names)}; seed {args.seed}; "
        f"{len(passes)} untraced pass(es); nproc {NPROC}; BLAS threads {NPROC}"
    )

    def med(attr):
        return statistics.median(getattr(r, attr) for r in passes)

    if tracer is None:
        print("as timed (less the kernel's time), before scaling to the reference speed:")
        for attr in ("pass_s", "certify_s", "roundtrip_s"):
            print(f"  {attr:<28}{med(attr):>14.6g} s")
        print(f"  {'setup_s':<28}{statistics.median(s for s, _ in setup_s):>14.6g} s")
        n = sum(len(ts) for ts in sampler.samples.values())
        print(f"reference kernel: {n} samples; speed factors (REFERENCE_S / mean time):")
        for part in ("certify", "roundtrip", None):
            print(f"  {part or 'whole pass':<28}{sampler.scale(part):>14.6g}")
        values = {
            "pass_s": med("pass_s") * sampler.scale(),
            "certify_s": med("certify_s") * sampler.scale("certify"),
            "roundtrip_s": med("roundtrip_s") * sampler.scale("roundtrip"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(scaled for _, scaled in setup_s),
            "ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
        print(f"  {'failed_frac':<28}{failed / attempted:>14.6g} frac ({failed} of {attempted} ops)")
    else:
        values = tracer.metrics(traced.pass_s)
        values["serialize.file_mb"] = traced.file_bytes / 1e6
        values["trace.overhead_frac"] = traced.pass_s / med("pass_s") - 1
        units = {k: spans.unit(k) for k in values}
        print("stage times of the traced pass, ms (inclusive):")
        print(tracer.stage_table(names))
        layers = tracer.layer_self_times()
        predicted = sum(layers[layer] for layer in wl.dominant)
        others = {k: s for k, s in layers.items() if k not in wl.dominant}
        top = max(others, key=others.get)
        verdict = "confirmed" if predicted > others[top] else "NOT confirmed"
        print(
            f"dominant layer {'+'.join(wl.dominant)}: {predicted:.3f} s of "
            f"{traced.pass_s:.3f} s; next layer {top}: {others[top]:.3f} s; {verdict}"
        )
        tracer.dump()
    for name, value in values.items():
        print(f"  {name:<28}{value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
