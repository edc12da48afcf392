"""Command line interface, run in process through main(argv)."""
import json
import time

import pytest

from gwschemes import designs, save_scheme, scheme_to_dict
from gwschemes.cli import main
import cases


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_stdout_json(self, capsys):
        code, out, err = run(capsys, "build", "bgw-scheme", "--q", "5", "--m", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["v"] == 12
        assert doc["labels"] == ["(0,0)", "(1,0)", "(0,1)", "(1,1)"]
        assert doc["provenance"] == {"family": "bgw", "q": 5, "m": 2}

    def test_out_file_and_verify(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        code, out, _ = run(
            capsys, "build", "gh-scheme", "--q", "3", "--out", str(path)
        )
        assert code == 0
        assert "wrote" in out and path.exists()
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0
        assert "verified" in out and "provenance" in out

    def test_outdir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GWSCHEMES_OUTDIR", str(tmp_path))
        code, _, _ = run(
            capsys, "build", "bgw-scheme", "--q", "5", "--m", "2", "--out", "s.json"
        )
        assert code == 0
        assert (tmp_path / "s.json").exists()
        # absolute paths ignore the environment variable
        other = tmp_path / "sub"
        other.mkdir()
        code, _, _ = run(
            capsys,
            "build",
            "bgw-scheme",
            "--q",
            "5",
            "--m",
            "2",
            "--out",
            str(other / "abs.json"),
        )
        assert code == 0
        assert (other / "abs.json").exists()

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "build", "bgw-scheme", "--q", "5")
        assert code == 1
        assert "needs" in err

    def test_obstructed_parameters(self, capsys):
        code, _, err = run(capsys, "build", "bgw-scheme", "--q", "5", "--m", "4")
        assert code == 3
        assert "precondition" in err

    @pytest.mark.parametrize(
        "argv,says",
        [
            (["bgw-scheme", "--q", "1000003", "--m", "2"], "2000008 points exceed the limit"),
            (["bgw-scheme", "--q", "1000003", "--m", "4"], "m=4 must divide q-1=1000002"),
            (["gh-scheme", "--q", "1000003"], "points exceed the limit"),
        ],
        ids=["bgw-too-many-points", "bgw-m-not-dividing", "gh-too-many-points"],
    )
    def test_absurd_sizes_fail_fast(self, capsys, argv, says):
        # checked before any field table or v x v matrix is allocated
        t0 = time.perf_counter()
        code, _, err = run(capsys, "build", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert err.startswith("precondition failure: ") and says in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_point_limit_admits_gh_13(self):
        assert designs.MAX_POINTS >= (13 + 1) * 13 * 13

    def test_help_and_bad_subcommand(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "frobnicate")[0] == 1


class TestVerify:
    def test_spectral(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scheme(path, cases.bgw(7, 3), {"family": "bgw", "q": 7, "m": 3})
        code, out, _ = run(capsys, "verify", "--in", str(path), "--spectral")
        assert code == 0
        assert "numeric oracle agrees" in out

    def test_spectral_needs_provenance(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scheme(path, cases.bgw(5, 2))
        code, _, err = run(capsys, "verify", "--in", str(path), "--spectral")
        assert code == 2
        assert "provenance" in err

    def test_tampered_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scheme(path, cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})
        data = json.loads(path.read_text())
        data["rows"][0][0] = 1
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--in", str(path))
        assert code == 2
        assert "verification failure" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "--in", "/nonexistent/scheme.json")
        assert code == 1


def _saved(tmp_path, edit):
    """A saved bgw (5,2) scheme file, its JSON record changed by edit."""
    data = scheme_to_dict(cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})
    edit(data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    return str(path)


def _pop(key):
    return lambda data: data.pop(key)


def _set(key, value):
    return lambda data: data.__setitem__(key, value)


def _set_row(x, row):
    return lambda data: data["rows"].__setitem__(x, row)


class TestMalformedFiles:
    """A malformed scheme file is an input error: exit 1, one line on stderr."""

    @pytest.mark.parametrize(
        "edit,says",
        [
            (_pop("labels"), "no labels"),
            (_pop("rows"), "no rows"),
            (_set("v", 10**6), "v is 1000000"),
            (_set("v", "12"), "positive integer"),
            (_set("labels", ["a", "a", "b", "c"]), "distinct"),
            (_set_row(3, [0, 5, 1, 6]), "row 3 does not cover"),
            (_set_row(0, [0, 1, 4, 11]), "row 0 has a label outside 0..3"),
            (_set_row(0, [0, 13, 1, -1]), "run length outside 1..12"),
            (_set_row(0, [0, 12, 1]), "pairs"),
            (_set("provenance", [1]), "JSON object"),
        ],
        ids=[
            "no-labels", "no-rows", "huge-v", "string-v", "repeated-labels",
            "short-row", "label-range", "negative-run", "odd-row", "list-provenance",
        ],
    )
    def test_rejected_before_allocation(self, tmp_path, capsys, edit, says):
        path = _saved(tmp_path, edit)
        code, _, err = run(capsys, "verify", "--in", path, "--spectral")
        assert code == 1
        assert err.startswith("input error: ") and says in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "provenance,says",
        [
            ({"family": "bgw"}, "provenance q must be a positive integer, not None"),
            ({"family": "bgw", "q": 5}, "provenance m must be a positive integer, not None"),
            ({"family": "bgw", "q": "5", "m": 2}, "provenance q must be a positive integer, not '5'"),
            ({"family": "bgw", "q": 5, "m": True}, "provenance m must be a positive integer, not True"),
            ({"family": "gh", "q": 0}, "provenance q must be a positive integer, not 0"),
        ],
        ids=["bgw-no-q", "bgw-no-m", "string-q", "bool-m", "gh-zero-q"],
    )
    def test_bad_provenance_parameters(self, tmp_path, capsys, provenance, says):
        path = _saved(tmp_path, _set("provenance", provenance))
        code, _, err = run(capsys, "verify", "--in", path, "--spectral")
        assert code == 1
        assert err == f"input error: {says}\n"

    @pytest.mark.parametrize("text", ["{\"version\": 1, ", "[1, 2]", "\xff\xfe"], ids=["truncated", "list", "binary"])
    def test_not_a_scheme_record(self, tmp_path, capsys, text):
        path = tmp_path / "s.json"
        path.write_bytes(text.encode("latin-1"))
        code, _, err = run(capsys, "table", "--in", str(path))
        assert code == 1
        assert err.startswith("input error: ") and len(err.splitlines()) == 1


class TestTable:
    def test_t_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "bgw",
            "--q",
            "5",
            "--m",
            "2",
            "--which",
            "T",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",(0,0),(1,0),(0,1),(1,1)"
        assert lines[1] == "0,1,1,5,5"

    def test_q_json(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "gh", "--q", "3", "--which", "Q"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "Q"
        assert doc["entries"][0] == ["1", "8", "3", "12", "0", "0", "12"]

    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scheme(path, cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})
        code, out, _ = run(capsys, "table", "--in", str(path), "--which", "P")
        assert code == 0
        assert json.loads(out)["entries"][0] == ["1", "1", "5", "5"]

    def test_file_without_provenance(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scheme(path, cases.bgw(5, 2))
        code, _, err = run(capsys, "table", "--in", str(path))
        assert code == 1
        assert "usage error" in err

    def test_family_flag_required(self, capsys):
        code, _, err = run(capsys, "table", "--q", "5")
        assert code == 1


class TestFusion:
    def test_bgw_with_certificate(self, capsys):
        code, out, _ = run(
            capsys, "fusion", "--family", "bgw", "--q", "7", "--m", "3", "--check-bm"
        )
        assert code == 0
        assert "product-form certificate: none" in out
        assert "general cells" in out
        assert "block a1: {(1,1),(2,2)}; {(1,2),(2,1)}" in out
        doc = json.loads(out.splitlines()[-1])
        assert doc["entries"][0] == ["1", "7", "8", "8"]

    def test_discrete_partition_is_product_form(self, capsys):
        code, out, _ = run(
            capsys, "fusion", "--family", "bgw", "--q", "5", "--m", "2", "--check-bm"
        )
        assert code == 0
        assert "product-form" in out and "4 cells" in out

    def test_gh_csv(self, capsys):
        code, out, _ = run(
            capsys, "fusion", "--family", "gh", "--q", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert "fused multiplicities: [1, 8, 3, 12, 12]" in lines
        assert lines[-6] == ",0,1,2,a1+,a1-"
        assert lines[-5] == "(0,0),1,8,3,12,12"


class TestDesigns:
    def test_bgw(self, capsys):
        code, out, _ = run(capsys, "designs", "bgw", "--q", "4", "--m", "3")
        assert code == 0
        assert "BGW(5,4,3)" in out
        assert "2-design: 2-(15,7,3)" in out

    def test_gh(self, capsys):
        code, out, _ = run(capsys, "designs", "gh", "--q", "3")
        assert code == 0
        assert "verified" in out

    def test_latin(self, capsys):
        code, out, _ = run(capsys, "designs", "latin", "--q", "5")
        assert code == 0
        lines = out.splitlines()
        assert "verified" in lines[0]
        assert len(lines) == 6

    def test_latin_even_order(self, capsys):
        code, _, err = run(capsys, "designs", "latin", "--q", "4")
        assert code == 3

    def test_missing_q(self, capsys):
        code, _, err = run(capsys, "designs", "bgw", "--q", "4")
        assert code == 1
