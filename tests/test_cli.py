"""Command line interface, run in process through main(argv)."""
import contextlib
import io
import json
import os
import re
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gwschemes import (
    InputError,
    NotAScheme,
    algebra,
    designs,
    load_scheme,
    save_scheme,
    scheme_from_dict,
)
from gwschemes import cli, serialize
from gwschemes.cli import main
import cases
import file_reference


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

    @pytest.mark.parametrize(
        "argv",
        [["bgw-scheme", "--q", str(q), "--m", str(m)] for q, m in cases.BGW_BUILDABLE]
        + [["gh-scheme", "--q", str(q)] for q in cases.GH_GRID]
        # v = 580: rows span several blocks
        + [["bgw-scheme", "--q", "289", "--m", "2"]],
        ids=lambda argv: argv[0].split("-")[0] + "-".join(argv[2::2]),
    )
    def test_stdout_is_the_file(self, tmp_path, capsys, block, argv):
        # one writer: stdout carries the bytes of the --out file, and both
        # equal the plain run-length encoding of tests/file_reference.py
        code, out, _ = run(capsys, "build", *argv)
        assert code == 0
        path = tmp_path / "s.json"
        assert run(capsys, "build", *argv, "--out", str(path))[0] == 0
        q = int(argv[2])
        if argv[0] == "bgw-scheme":
            m = int(argv[4])
            scheme, prov = cases.bgw(q, m), {"family": "bgw", "q": q, "m": m}
        else:
            scheme, prov = cases.gh(q), {"family": "gh", "q": q}
        assert out.encode("ascii") == path.read_bytes() == file_reference.file_bytes(scheme, prov)

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
            (["build", "bgw-scheme", "--q", "1000003", "--m", "2"], "2000008 points exceed the limit"),
            (["build", "bgw-scheme", "--q", "1000003", "--m", "4"], "m=4 must divide q-1=1000002"),
            (["build", "gh-scheme", "--q", "1000003"], "points exceed the limit"),
            (["designs", "gh", "--q", "1000003"], "field order 1000003 exceeds the limit of 2048"),
            (["designs", "latin", "--q", "1000003"], "field order 1000003 exceeds the limit of 2048"),
        ],
        ids=[
            "bgw-too-many-points", "bgw-m-not-dividing", "gh-too-many-points",
            "designs-gh-field-order", "designs-latin-field-order",
        ],
    )
    def test_absurd_sizes_fail_fast(self, capsys, argv, says):
        # checked before any field table or v x v matrix is allocated
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert err.startswith("precondition failure: ") and says in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_point_limit_admits_gh_13(self):
        assert designs.MAX_POINTS >= (13 + 1) * 13 * 13

    def test_field_limit_admits_every_buildable_order(self):
        # the smallest scheme over a larger field, bgw with m = 2, has too many points
        q = algebra.MAX_ORDER + 1
        assert min((q + 1) * 2, (q + 1) * q * q) > designs.MAX_POINTS

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

    def test_spectral_mismatch(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.json"
        save_scheme(path, cases.bgw(7, 3), {"family": "bgw", "q": 7, "m": 3})
        monkeypatch.setattr(cli, "oracle_spectrum", lambda mats, seed: [(1, 66)])
        code, _, err = run(capsys, "verify", "--in", str(path), "--spectral")
        assert code == 2
        assert err == "spectral mismatch: [(1, 1), (1, 7), (2, 8)] vs [(1, 66)]\n"

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


def _saved(tmp_path, edit, scheme=None):
    """A saved scheme file (bgw (5,2) by default), its JSON record changed by edit."""
    data = file_reference.record(scheme or cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})
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

    def test_oversized_v_rejected_before_allocation(self, tmp_path, capsys):
        # every row is well formed, so only the point limit keeps the reader
        # from allocating the v x v label matrix
        v = designs.MAX_POINTS + 1
        path = _saved(tmp_path, lambda data: data.update(v=v, rows=[[0, v]] * v))
        t0 = time.perf_counter()
        code, _, err = run(capsys, "verify", "--in", path)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert err == f"input error: {v} points exceed the limit of {designs.MAX_POINTS}\n"

    @pytest.mark.parametrize(
        "gh_q,provenance,says",
        [
            (None, {"family": "bgw"}, "provenance q must be a positive integer, not None"),
            (None, {"family": "bgw", "q": 5}, "provenance m must be a positive integer, not None"),
            (None, {"family": "bgw", "q": "5", "m": 2}, "provenance q must be a positive integer, not '5'"),
            (None, {"family": "bgw", "q": 5, "m": True}, "provenance m must be a positive integer, not True"),
            (None, {"family": "gh", "q": 0}, "provenance q must be a positive integer, not 0"),
            (
                None,
                {"family": "bgw", "q": 1000003, "m": 1000002},
                "provenance bgw parameters give 1000006000008 points and 2000004 classes, "
                "but the scheme has 12 points and 4 classes",
            ),
            (
                3,
                {"family": "gh", "q": 1000003},
                "provenance gh parameters give 1000010000033000036 points and 2000007 classes, "
                "but the scheme has 36 points and 7 classes",
            ),
            (
                3,
                {"family": "gh", "q": 5},
                "provenance gh parameters give 150 points and 11 classes, "
                "but the scheme has 36 points and 7 classes",
            ),
            (None, {"family": "xyz", "q": 5, "m": 2}, "provenance family must be 'bgw' or 'gh', not 'xyz'"),
            (None, {"q": 5, "m": 2}, "provenance family must be 'bgw' or 'gh', not None"),
            (None, {"family": 3, "q": 5, "m": 2}, "provenance family must be 'bgw' or 'gh', not 3"),
            (None, {}, "provenance family must be 'bgw' or 'gh', not None"),
        ],
        ids=[
            "bgw-no-q", "bgw-no-m", "string-q", "bool-m", "gh-zero-q",
            "bgw-absurd-q-m", "gh-absurd-q", "gh-5-on-gh-3",
            "unknown-family", "no-family", "int-family", "empty",
        ],
    )
    def test_bad_provenance_parameters(self, tmp_path, capsys, gh_q, provenance, says):
        scheme = cases.gh(gh_q) if gh_q else None
        path = _saved(tmp_path, _set("provenance", provenance), scheme)
        t0 = time.perf_counter()
        code, _, err = run(capsys, "verify", "--in", path, "--spectral")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert err == f"input error: {says}\n"

    @pytest.mark.parametrize("command", ["table", "fusion"])
    def test_unknown_family_in_table_and_fusion(self, tmp_path, capsys, command):
        path = _saved(tmp_path, _set("provenance", {"family": "xyz", "q": 5, "m": 2}))
        code, out, err = run(capsys, command, "--in", path)
        assert code == 1
        assert out == ""
        assert err == "input error: provenance family must be 'bgw' or 'gh', not 'xyz'\n"

    @pytest.mark.parametrize("text", ["{\"version\": 1, ", "[1, 2]", "\xff\xfe"], ids=["truncated", "list", "binary"])
    def test_not_a_scheme_record(self, tmp_path, capsys, text):
        path = tmp_path / "s.json"
        path.write_bytes(text.encode("latin-1"))
        code, _, err = run(capsys, "table", "--in", str(path))
        assert code == 1
        assert err.startswith("input error: ") and len(err.splitlines()) == 1


# JSON values small enough to stay fast, of every JSON type
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 13) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _is_int(x, *values):
    return type(x) is int and (not values or x in values)


def _row_error(row, v=12, nlabels=4):
    """The rule a row breaks, worded as the file reader words it and taken in
    the order it checks them, or None if the row is label, count pairs with
    labels in range, counts in 1..v and counts summing to v."""
    if not isinstance(row, list) or not row or len(row) % 2 or not all(_is_int(x) for x in row):
        return "is not a list of label, count pairs"
    lbl, count = row[0::2], row[1::2]
    if any(not 0 <= a < nlabels for a in lbl):
        return f"has a label outside 0..{nlabels - 1}"
    if any(not 1 <= c <= v for c in count):
        return f"has a run length outside 1..{v}"
    if sum(count) != v:
        return "does not cover all columns"
    return None


SMALL_BLOCK = 24  # two rows of the bgw (5,2) record per block of the file reader


def _readers():
    """Each block size and each reader in turn: the canonical reader as it is,
    and declining every file, which leaves each file to the json reader."""
    for block in (serialize.BLOCK, SMALL_BLOCK):
        for canonical in (serialize._read_canonical, lambda raw: None):
            with mock.patch.object(serialize, "BLOCK", block), \
                    mock.patch.object(serialize, "_read_canonical", canonical):
                yield


def _bgw52():
    return file_reference.record(cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})


def _edited(path, value):
    """A bgw (5,2) record with the item at path (keys and indices) set to value."""
    data = _bgw52()
    *head, last = path
    item = data
    for key in head:
        item = item[key]
    item[last] = value
    return data


def _rows_edited(rows: dict):
    """A bgw (5,2) record with the rows at the given indices replaced."""
    data = _bgw52()
    for x, row in rows.items():
        data["rows"][x] = row
    return data


@st.composite
def malformed_records(draw):
    """A bgw (5,2) record with one part replaced so that it breaks a rule of
    the file format."""
    data = _bgw52()
    part = draw(st.sampled_from(
        ["drop", "version", "v", "labels", "rows", "row", "provenance", "record"]
    ))
    if part == "drop":
        del data[draw(st.sampled_from(["version", "v", "labels", "rows"]))]
    elif part == "version":
        data["version"] = draw(JSON.filter(lambda x: not _is_int(x, 1)))
    elif part == "v":
        data["v"] = draw(JSON.filter(lambda x: not _is_int(x, 12)))
    elif part == "labels":
        # four or more distinct strings are well formed (more leave a relation empty)
        data["labels"] = draw(JSON.filter(lambda x: not (
            isinstance(x, list) and len(x) >= 4
            and all(isinstance(s, str) for s in x) and len(set(x)) == len(x)
        )))
    elif part == "rows":
        data["rows"] = draw(JSON.filter(lambda x: not (isinstance(x, list) and len(x) == 12)))
    elif part == "row":
        row = st.lists(st.integers(-3, 13) | JSON, max_size=8) | JSON
        data["rows"][draw(st.integers(0, 11))] = draw(row.filter(_row_error))
    elif part == "provenance":
        data["provenance"] = draw(JSON.filter(lambda x: not isinstance(x, dict)))
    else:
        data = draw(JSON)  # a dict of keys up to 3 long has no "version"
    return data


def _axioms_hold(L, nlabels):
    """The scheme axioms checked product by product on a small label matrix."""
    A = [(L == i).astype(np.int64) for i in range(nlabels)]
    if not np.array_equal(A[0], np.eye(len(L), dtype=np.int64)) or not all(M.any() for M in A):
        return False
    if not all(any(np.array_equal(M.T, N) for N in A) for M in A):
        return False
    products = [M @ N for M in A for N in A]
    return all(len(set(P[K == 1].tolist())) == 1 for P in products for K in A)


def _verify_in(record) -> tuple[int, str]:
    """Exit code and standard error of `verify --in` on a file holding record
    (as JSON, or bytes as they are), the file named s.json in the error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "wb") as fh:
            fh.write(record if isinstance(record, bytes) else json.dumps(record).encode())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", "--in", path])
    return code, err.getvalue().replace(path, "s.json")


def _bgw52_file() -> bytes:
    return file_reference.file_bytes(cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})


def _dumped(edit, **dumps) -> bytes:
    """The bgw (5,2) record changed by edit, as json.dumps(..., **dumps) writes it."""
    data = _bgw52()
    data = edit(data) or data
    return json.dumps(data, **dumps).encode()


def _split_run(data):
    # the run [2, 2] of row 2 as two runs of one label
    assert data["rows"][2][10:12] == [2, 2]
    data["rows"][2][10:12] = [2, 1, 2, 1]


def _utf8_label(data):
    data["labels"][1] = "\u00e9"


# each file as another writer or a hand edit could leave it; the canonical
# reader takes those marked True
MUTATED_FILES = {
    "pretty": (lambda: _dumped(lambda d: None, indent=2), False),
    "reordered-keys": (lambda: _dumped(lambda d: dict(reversed(d.items()))), False),
    "duplicate-key": (lambda: _bgw52_file().replace(b'"v": 12', b'"v": 12, "v": 12'), False),
    "no-final-newline": (lambda: _bgw52_file()[:-1], True),
    "split-run": (lambda: _dumped(_split_run), False),
    "leading-zero": (lambda: _bgw52_file().replace(b"[[0, 1, ", b"[[0, 01, "), False),
    "plus-sign": (lambda: _bgw52_file().replace(b"[[0, 1, ", b"[[0, +1, "), False),
    "no-spaces": (lambda: _bgw52_file().replace(b", ", b","), False),
    "space-before-comma": (lambda: _bgw52_file().replace(b"[[0, 1, ", b"[[0 , 1, "), False),
    "huge-count": (lambda: _dumped(lambda d: d["rows"][0].__setitem__(1, 10**30)), False),
    "true-count": (lambda: _dumped(lambda d: d["rows"][0].__setitem__(1, True)), False),
    "float-count": (lambda: _dumped(lambda d: d["rows"][0].__setitem__(1, 1.0)), False),
    "negative-label": (lambda: _dumped(lambda d: d["rows"][1].__setitem__(0, -1)), False),
    "trailing-comma": (lambda: _bgw52_file().replace(b"], [", b", ], [", 1), False),
    "truncated": (lambda: _bgw52_file()[:-100], False),
    "utf8-label": (lambda: _dumped(_utf8_label, ensure_ascii=False), False),
    "bom": (lambda: b"\xef\xbb\xbf" + _bgw52_file(), False),
    "null-provenance": (lambda: _dumped(lambda d: d.__setitem__("provenance", None)), False),
    "relabelled-run": (lambda: _dumped(lambda d: d["rows"][0].__setitem__(2, 2)), True),
    # more labels than points: the writer's digit table has v + 1 entries
    "three-labels-one-point": (
        lambda: json.dumps({"version": 1, "v": 1, "labels": ["a", "b", "c"], "rows": [[2, 1]]}).encode(),
        True,
    ),
}


def _outcome(raw: bytes):
    """The exit code and standard error of `verify --in` on a file of raw,
    and the label matrix, labels and provenance load_scheme reads from it."""
    code, err = _verify_in(raw)
    read = None
    if code == 0:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.json")
            with open(path, "wb") as fh:
                fh.write(raw)
            scheme, prov = load_scheme(path)
        read = scheme.L.tobytes(), tuple(scheme.labels), json.dumps(prov)
    return code, err, read


class TestFileFuzz:
    """Random records: a malformed one is an input error (exit 1, one line);
    a well-formed one is a scheme (exit 0) exactly when the axioms hold, and
    otherwise a verification failure (exit 2).  Each file is read by both
    readers, the canonical one and the json one, with the same result."""

    @settings(max_examples=100)
    @given(malformed_records())
    # JSON true and 1.0 compare equal to 1 in Python
    @example(_edited(["version"], True))
    @example(_edited(["version"], 1.0))
    @example(_edited(["rows", 0, 1], True))
    # integers beyond int64, an empty row, rows that are no list
    @example(_edited(["rows", 0, 0], 10**30))
    @example(_edited(["rows", 3, 1], -10**30))
    @example(_edited(["rows", 2], []))
    @example(_edited(["rows", 4], {"0": 12}))
    @example(_edited(["rows", 11], "0, 12"))
    # past the first block when the block holds two rows
    @example(_edited(["rows", 5, 2], True))
    @example(_edited(["rows", 7, 1], 1.0))
    @example(_edited(["rows", 9, 0], 7))
    @example(_edited(["rows", 6, 3], 0))
    @example(_edited(["rows", 10], [1, 11]))
    # two malformed rows in one block: the first is named
    @example(_rows_edited({4: [9, 12], 5: "0, 12"}))
    @example(_rows_edited({6: [0, 11], 7: [0, True]}))
    def test_malformed_record_is_an_input_error(self, record):
        errors = set()
        for _ in _readers():
            with pytest.raises(InputError):
                scheme_from_dict(record)
            code, err = _verify_in(record)
            assert code == 1
            assert err.startswith("input error: ") and len(err.splitlines()) == 1
            errors.add(err)
        # the first malformed row is named, whatever the block size and reader
        assert len(errors) == 1
        if re.match(r"input error: row \d+ ", err):
            x = next(x for x, row in enumerate(record["rows"]) if _row_error(row))
            assert err == f"input error: row {x} {_row_error(record['rows'][x])}\n"

    @given(st.data())
    def test_text_that_is_no_record_is_an_input_error(self, data):
        # a strict prefix of a record's text, or bytes that are no record
        text = json.dumps(_bgw52()).encode()
        cut = st.integers(0, len(text) - 1).map(lambda n: text[:n])
        record = data.draw(cut | st.binary(max_size=24))
        results = set()
        for _ in _readers():
            results.add(_verify_in(record))
        (code, err), = results
        assert code == 1
        assert err.startswith("input error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("mutation", MUTATED_FILES)
    def test_mutated_file_reads_alike(self, mutation):
        make, canonical = MUTATED_FILES[mutation]
        raw = make()
        assert raw != _bgw52_file()
        assert (serialize._read_canonical(raw) is not None) == canonical
        outcomes = set()
        for _ in _readers():
            outcomes.add(_outcome(raw))
        (code, err, _), = outcomes
        assert err == "" if code == 0 else len(err.splitlines()) == 1

    @given(st.data())
    def test_well_formed_record_is_verified(self, data):
        v = data.draw(st.integers(1, 6))
        nlabels = data.draw(st.integers(1, 4))
        L = np.array(data.draw(st.lists(
            st.lists(st.integers(0, nlabels - 1), min_size=v, max_size=v), min_size=v, max_size=v
        )))
        if nlabels > 1 and data.draw(st.booleans()):
            # 0 exactly on the diagonal, as in every scheme
            L = np.where(np.eye(v, dtype=bool), 0, L % (nlabels - 1) + 1)
        labels = [f"c{i}" for i in range(nlabels)]
        rows = [file_reference.runs(row) for row in L.tolist()]
        record = {"version": 1, "v": v, "labels": labels, "rows": rows}
        scheme = _axioms_hold(L, nlabels)
        if scheme:
            assert np.array_equal(scheme_from_dict(record)[0].L, L)
        else:
            with pytest.raises(NotAScheme):
                scheme_from_dict(record)
        # the file is canonical, so the canonical reader takes it
        read = serialize._read_canonical(json.dumps(record).encode())
        assert np.array_equal(read[0], L) and read[1:] == (labels, None)
        results = set()
        for _ in _readers():
            results.add(_verify_in(record))
        (code, err), = results
        assert code == (0 if scheme else 2)
        if not scheme:
            assert err.startswith("verification failure: ") and len(err.splitlines()) == 1


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


# the full stdout of `fusion --check-bm`; "product-form certificate: none"
# comes before a certificate of general cells
CHECK_BM_STDOUT = {
    ("bgw", "5", "2"): (
        'fused scheme: AssociationScheme(v=12, classes=4, symmetric)\n'
        'fused multiplicities: [1, 5, 3, 3]\n'
        'certificate (product-form): 4 cells = fused class count\n'
        '  block 0: {(1,1)}\n'
        '  block 1: {(1,1)}\n'
        '  block 2: {(1,1)}\n'
        '  block 3: {(1,1)}\n'
        '{"kind": "Q", "conductor": 2, "radicand": 5, "row_labels": ["(0,0)", "(1,0)", "(0,1)", "(1,1)"], "col_labels": ["0", "1", "2", "3"], "entries": [["1", "5", "3", "3"], ["1", "5", "-3", "-3"], ["1", "-1", "r*(3/5)", "r*(-3/5)"], ["1", "-1", "r*(-3/5)", "r*(3/5)"]]}\n'
    ),
    ("bgw", "7", "3"): (
        'fused scheme: AssociationScheme(v=24, classes=4, symmetric)\n'
        'fused multiplicities: [1, 7, 8, 8]\n'
        'product-form certificate: none\n'
        'certificate (general cells): 4 cells = fused class count\n'
        '  block 0: {(1,1)}\n'
        '  block 1: {(1,1)}\n'
        '  block a1: {(1,1),(2,2)}; {(1,2),(2,1)}\n'
        '{"kind": "Q", "conductor": 3, "radicand": 7, "row_labels": ["(0,0)", "(1,0)+(2,0)", "(0,1)", "(1,1)+(2,1)"], "col_labels": ["0", "1", "a1+", "a1-"], "entries": [["1", "7", "8", "8"], ["1", "7", "-4", "-4"], ["1", "-1", "r*(8/7)", "r*(-8/7)"], ["1", "-1", "r*(-4/7)", "r*(4/7)"]]}\n'
    ),
    ("gh", "3"): (
        'fused scheme: AssociationScheme(v=36, classes=5, symmetric)\n'
        'fused multiplicities: [1, 8, 3, 12, 12]\n'
        'product-form certificate: none\n'
        'certificate (general cells): 5 cells = fused class count\n'
        '  block 0: {(1,1)}\n'
        '  block 1: {(1,1)}\n'
        '  block 2: {(1,1)}\n'
        '  block a1: {(1,1),(2,2)}; {(1,2),(2,1)}\n'
        '{"kind": "Q", "conductor": 3, "radicand": 1, "row_labels": ["(0,0)", "(1,0)+(2,0)", "(0,1)", "(1,1)+(2,1)", "2"], "col_labels": ["0", "1", "2", "a1+", "a1-"], "entries": [["1", "8", "3", "12", "12"], ["1", "8", "3", "-6", "-6"], ["1", "0", "-1", "4", "-4"], ["1", "0", "-1", "-2", "2"], ["1", "-4", "3", "0", "0"]]}\n'
    ),
}


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

    @pytest.mark.parametrize("family", CHECK_BM_STDOUT, ids="-".join)
    def test_check_bm_stdout_is_pinned(self, capsys, family):
        args = ["--family", family[0], "--q", family[1]]
        if family[0] == "bgw":
            args += ["--m", family[2]]
        code, out, err = run(capsys, "fusion", *args, "--check-bm")
        assert (code, err) == (0, "")
        assert out == CHECK_BM_STDOUT[family]

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
