"""Tests of the benchmark itself, on the tiny workload (BGW (5,2) and GH 3).

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

TINY_OPS = 2 + 2 * 2 + 1  # jobs, two controls each, the obstruction control


@pytest.fixture
def expected():
    return json.loads((HERE / "digests.json").read_text())


def tiny_pass(tmp_path, expected, tracer=None):
    return jobs.run_pass("tiny", 3, str(tmp_path), expected, tracer)


def test_tiny_pass_is_correct(tmp_path, expected):
    r = tiny_pass(tmp_path, expected)
    assert (r.attempted, r.failed) == (TINY_OPS, 0)
    assert r.certify_s > 0 and r.roundtrip_s > 0 and r.pass_s > r.certify_s


def test_tampered_digest_fails(tmp_path, expected):
    expected["gh-3"]["qhat"] = "0" * 64
    assert tiny_pass(tmp_path, expected).failed == 1


def test_missing_digest_fails(tmp_path, expected):
    del expected["bgw-5-2"]
    assert tiny_pass(tmp_path, expected).failed == 1


def test_accepted_relabelling_fails(tmp_path, expected, monkeypatch):
    monkeypatch.setattr(jobs, "relabel_run", lambda data, rng: None)
    assert tiny_pass(tmp_path, expected).failed == 2


def test_accepted_unit_fails(tmp_path, expected, monkeypatch):
    monkeypatch.setattr(jobs, "UNIT_SCALE", 1)
    assert tiny_pass(tmp_path, expected).failed == 2


def test_accepted_obstruction_fails(tmp_path, expected, monkeypatch):
    monkeypatch.setattr(jobs, "OBSTRUCTED_BUILD", ["build", "bgw-scheme", "--q", "5", "--m", "2"])
    assert tiny_pass(tmp_path, expected).failed == 1


def test_sampler_keeps_the_kernel_off_the_clock(monkeypatch):
    monkeypatch.setattr(calibrate, "INTERVAL_S", 0.01)
    sampler = calibrate.Sampler()
    t0, c0 = perf_counter(), sampler.clock()
    with sampler.running(), sampler.phase("gh-3:certify"):
        while sampler.clock() - c0 < 0.2:
            pass
    wall, program = perf_counter() - t0, sampler.clock() - c0
    assert len(sampler.samples["other"]) == 1  # the one on entry
    assert len(sampler.samples["certify"]) >= 2
    kernel_s = sum(sum(ts) for ts in sampler.samples.values())
    assert wall - program >= kernel_s
    everything = sampler.samples["other"] + sampler.samples["certify"]
    mean = sum(everything) / len(everything)
    # a part without samples falls back to the whole pass
    assert sampler.scale("roundtrip") == sampler.scale() == pytest.approx(calibrate.REFERENCE_S / mean)


def test_tracer_restores_the_program(tmp_path, expected):
    import gwschemes
    from gwschemes import builders, designs

    before = (gwschemes.bgw_build, builders.bgw_matrix, designs.FiniteField.mul)
    tracer = spans.Tracer()
    with tracer.installed():
        assert builders.bgw_matrix is not before[1]
        r = tiny_pass(tmp_path, expected, tracer)
    assert (gwschemes.bgw_build, builders.bgw_matrix, designs.FiniteField.mul) == before
    assert r.failed == 0
    m = tracer.metrics(r.pass_s)
    # build, fuse, load in verify, and the relabelled file, per instance
    assert m["schemes.verify_calls"] == 8
    assert m["spectra.alg_mul_calls"] > 0 and m["algebra.cyc_mul_calls"] > 0
    # designs.bgw_matrix is traced at the name builders looks it up by
    names = {rec[0] for rec in tracer.spans}
    assert {"builders.bgw_build", "designs.bgw_matrix", "cli.main"} <= names


def _tree(root: Path) -> dict:
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        for f in filenames:
            st = os.stat(os.path.join(dirpath, f))
            out[os.path.join(dirpath, f)] = (st.st_size, st.st_mtime_ns)
        out[dirpath] = None
    return out


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "5", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_every_metric_and_writes_nothing(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    before = _tree(ROOT)
    proc = _run(ROOT, "--seconds", "0", "--trace", trace)
    assert _tree(ROOT) == before
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(v["value"] != 0 for v in result["metrics"].values())


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
