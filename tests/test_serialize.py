"""Scheme files and the scalar text form."""
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwschemes import (
    AssociationScheme,
    CycField,
    CycScalar,
    InputError,
    NotAScheme,
    load_scheme,
    save_scheme,
    scalar_to_str,
    table_to_csv,
    table_to_json,
)
from gwschemes import designs, schemes, serialize
import cases
import file_reference

F37 = CycField(3, 7)
F5 = CycField(5)
SMALL = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)}))


class TestSchemeFiles:
    @pytest.mark.parametrize(
        "maker,args",
        [("bgw", (5, 2)), ("bgw", (7, 3)), ("bgw", (4, 3)), ("gh", (3,))],
        ids=["bgw52", "bgw73", "bgw43", "gh3"],
    )
    def test_roundtrip(self, tmp_path, maker, args):
        s = getattr(cases, maker)(*args)
        path = tmp_path / "scheme.json"
        prov = {"family": maker, "q": args[0]}
        save_scheme(path, s, prov)
        s2, prov2 = load_scheme(path)
        assert prov2 == prov
        assert s2.labels == s.labels
        assert np.array_equal(s2.L, s.L)
        assert np.array_equal(s2.p, s.p)
        assert s2.tpose == s.tpose

    def test_provenance_optional(self, tmp_path):
        # an indented record is no canonical file, so the json reader takes it
        s = cases.bgw(5, 2)
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(file_reference.record(s), indent=1))
        s2, prov = load_scheme(path)
        assert prov is None
        assert np.array_equal(s2.L, s.L)

    def test_both_readers_give_compact_read_only_labels(self, tmp_path):
        s = cases.gh(3)
        path = tmp_path / "scheme.json"
        save_scheme(path, s)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(file_reference.record(s), indent=1))
        # the first file is canonical, the second goes to the json reader
        assert serialize._read_canonical(path.read_bytes())[0].dtype == np.uint8
        assert serialize._read_canonical(pretty.read_bytes()) is None
        assert serialize._read_json(pretty.read_bytes(), pretty)[0].dtype == np.uint8
        for p in (path, pretty):
            s2 = load_scheme(p)[0]
            assert s2.L.dtype == np.uint8 and not s2.L.flags.writeable
            assert np.array_equal(s2.L, s.L)

    def test_readers_decode_257_labels_to_uint16(self):
        # the readers do not verify the scheme, so two points carry label 256
        L = np.array([[0, 256], [256, 0]])
        fake = SimpleNamespace(v=2, labels=[str(i) for i in range(257)], L=L)
        for read in (
            serialize._read_canonical(file_reference.file_bytes(fake))[0],
            serialize._read_json(file_reference.file_bytes(fake), "fake")[0],
        ):
            assert read.dtype == np.uint16 and np.array_equal(read, L)

    def test_unsupported_version(self):
        data = file_reference.record(cases.bgw(5, 2))
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            serialize._read_json(json.dumps(data).encode(), "data")

    def test_short_row_rejected(self):
        data = file_reference.record(cases.bgw(5, 2))
        data["rows"][0] = data["rows"][0][:-2]
        with pytest.raises(ValueError, match="cover"):
            serialize._read_json(json.dumps(data).encode(), "data")

    def test_point_limit_is_read_when_loading(self, tmp_path, monkeypatch):
        # the loader reads designs.MAX_POINTS on each call, so lowering it
        # below the 12 points of bgw 5,2 refuses a file that fits by default
        path = tmp_path / "scheme.json"
        save_scheme(path, cases.bgw(5, 2))
        monkeypatch.setattr(designs, "MAX_POINTS", 11)
        with pytest.raises(InputError, match="^12 points exceed the limit of 11$"):
            load_scheme(path)

    def test_tampered_file_reverified(self, tmp_path):
        path = tmp_path / "scheme.json"
        save_scheme(path, cases.bgw(5, 2))
        data = json.loads(path.read_text())
        # relabel the first cell of the first row; the identity class breaks
        data["rows"][0][0] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(NotAScheme):
            load_scheme(path)

    def test_unencodable_provenance_writes_nothing(self, tmp_path):
        # json.dumps cannot encode an np.int64, and the tail that holds the
        # provenance is rendered before the first chunk is yielded and before
        # the file is opened: a good file stays as it was, and none is made
        s = cases.bgw(5, 2)
        bad = {"family": "bgw", "q": np.int64(5), "m": 2}
        path, absent = tmp_path / "scheme.json", tmp_path / "absent.json"
        save_scheme(path, s, {"family": "bgw", "q": 5, "m": 2})
        before = path.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            next(serialize.file_chunks(s, bad))
        for target in (path, absent):
            with pytest.raises(TypeError, match="not JSON serializable"):
                save_scheme(target, s, bad)
        assert path.read_bytes() == before
        assert not absent.exists()


def complete(v: int) -> AssociationScheme:
    """The trivial scheme on v points, whose rows have runs up to v - 1 long."""
    return AssociationScheme.from_matrices(1 - np.eye(v, dtype=np.int64), ["0", "1"][: min(v, 2)])


def _row(data, v: int, nlabels: int, longest: int | None = None) -> list[int]:
    """A row of v labels below nlabels, drawn as runs of at most longest
    cells (v when None); equal neighbouring runs merge into a longer one."""
    row: list[int] = []
    while len(row) < v:
        label = data.draw(st.integers(0, nlabels - 1))
        row += [label] * data.draw(st.integers(1, min(longest or v, v - len(row))))
    return row


FILE_CASES = {
    **{f"bgw{q}-{m}": (cases.bgw, (q, m)) for q, m in cases.BGW_BUILDABLE},
    **{f"gh{q}": (cases.gh, (q,)) for q in cases.GH_GRID},
    # v = 580: rows span several blocks
    "bgw289-2": (cases.bgw, (289, 2)),
    # one point; 3-digit run lengths and a 4-digit v
    "complete1": (complete, (1,)),
    "complete1000": (complete, (1000,)),
}


class TestOfferedAutomorphisms:
    """load_scheme offers the automorphisms of a bgw or gh provenance record
    to from_matrices, which uses them only where they preserve the labels
    read."""

    def test_bgw_file_offers_its_automorphisms(self, tmp_path):
        s = cases.bgw(9, 4)
        for provenance, used in [
            ({"family": "bgw", "q": 9, "m": 4}, 3),
            (None, 0),
            ({"family": "gh", "q": 9}, 0),
        ]:
            save_scheme(tmp_path / "s.json", s, provenance)
            loaded = load_scheme(tmp_path / "s.json")[0]
            assert len(loaded.automorphisms) == used
            assert np.array_equal(loaded.p, s.p)

    def test_gh_file_offers_its_automorphisms(self, tmp_path):
        s = cases.gh(5)
        save_scheme(tmp_path / "s.json", s, {"family": "gh", "q": 5})
        loaded = load_scheme(tmp_path / "s.json")[0]
        assert len(loaded.automorphisms) == 3
        assert all(map(np.array_equal, loaded.automorphisms, s.automorphisms))
        assert np.array_equal(loaded.p, s.p)

    def test_point_permuted_file_keeps_its_tensor(self, tmp_path):
        # the record still names the build, but the points are shuffled, so
        # the offered permutations no longer preserve L and are not used
        for s, provenance in [
            (cases.bgw(9, 4), {"family": "bgw", "q": 9, "m": 4}),
            (cases.gh(5), {"family": "gh", "q": 5}),
        ]:
            tau = np.random.default_rng(5).permutation(s.v)
            moved = AssociationScheme.from_matrices(s.L[tau][:, tau], s.labels)
            save_scheme(tmp_path / "s.json", moved, provenance)
            loaded = load_scheme(tmp_path / "s.json")[0]
            assert loaded.automorphisms == ()
            assert np.array_equal(loaded.p, s.p) and np.array_equal(loaded.L, moved.L)

    @pytest.mark.parametrize(
        "provenance,v,nclasses",
        [
            (None, 40, 8),
            ({}, 40, 8),
            # the gh 3 record on a file whose class count is not that of gh 3
            ({"family": "gh", "q": 3}, 36, 8),
            ({"family": "gh", "q": 4}, 80, 9),
            ({"family": "gh", "q": 15}, 3600, 31),
            ({"family": "gh", "q": 5}, 150, 9),
            ({"family": "bgw", "q": 9, "m": 4}, 40, 9),
            ({"family": "bgw", "q": 9, "m": True}, 40, 8),
            ({"family": "bgw", "q": "9", "m": 4}, 40, 8),
            ({"family": "bgw", "q": 7, "m": 4}, 32, 8),
            ({"family": "bgw", "q": 6, "m": 5}, 35, 10),
            ({"family": "bgw", "q": 1, "m": 3}, 6, 6),
            ({"family": "bgw", "q": 2401, "m": 1}, 2402, 2),
            ({"family": "bgw", "q": 4095, "m": 1}, 4096, 2),
            # the obstructed set, and m = 1, whose maps exist but bgw_build refuses
            ({"family": "bgw", "q": 13, "m": 4}, 56, 8),
            ({"family": "bgw", "q": 5, "m": 1}, 6, 2),
        ],
        ids=[
            "none", "empty", "gh", "gh-even-q", "gh-q-15", "gh-wrong-size", "wrong-size", "bool-m",
            "string-q", "m-no-divisor", "q-6", "q-1", "q-above-field-limit", "q-4095",
            "obstructed-13-4", "m-1",
        ],
    )
    def test_other_records_offer_nothing(self, provenance, v, nclasses):
        assert serialize._offered_automorphisms(provenance, v, nclasses) == ()

    def test_accepted_record(self):
        for provenance, v, nclasses in [
            ({"family": "bgw", "q": 9, "m": 4}, 40, 8),
            ({"family": "gh", "q": 3}, 36, 7),
        ]:
            assert len(serialize._offered_automorphisms(provenance, v, nclasses)) == 3


class TestFileBytes:
    """save_scheme writes the text json.dumps gives for the file record, as
    tests/file_reference.py writes it, and load_scheme reads back the label
    matrix of the record."""

    @pytest.mark.parametrize("with_prov", [False, True], ids=["bare", "prov"])
    @pytest.mark.parametrize("case", FILE_CASES)
    def test_bytes_are_json_dumps(self, tmp_path, block, case, with_prov):
        make, args = FILE_CASES[case]
        s = make(*args)
        prov = {"case": case, "args": list(args), "note": "\u00e9"} if with_prov else None
        path = tmp_path / "scheme.json"
        save_scheme(path, s, prov)
        assert path.read_bytes() == file_reference.file_bytes(s, prov)

    @pytest.mark.parametrize("case", FILE_CASES)
    def test_load_gives_the_record_matrix(self, tmp_path, monkeypatch, block, case):
        make, args = FILE_CASES[case]
        s = make(*args)
        rec = file_reference.record(s)
        read = serialize._read_json(json.dumps(rec).encode(), "rec")
        L = AssociationScheme.from_matrices(*read[:2]).L
        assert np.array_equal(L, s.L)
        path = tmp_path / "scheme.json"
        canonical = serialize._read_canonical
        for prov in (None, {"case": case, "note": "\u00e9"}):
            save_scheme(path, s, prov)
            raw = path.read_bytes()
            # the canonical reader takes the file, with or without its final newline
            for text in (raw, raw[:-1]):
                read = canonical(text)
                assert np.array_equal(read[0], L) and read[1:] == (s.labels, prov)
            # and the json reader, which reads every file the other declines, agrees
            for reader in (canonical, lambda raw: None):
                monkeypatch.setattr(serialize, "_read_canonical", reader)
                s2, prov2 = load_scheme(path)
                assert np.array_equal(s2.L, L) and s2.labels == s.labels and prov2 == prov

    def test_load_does_not_depend_on_the_locale(self, tmp_path):
        # a valid file with a raw UTF-8 label, read under an ASCII locale
        data = file_reference.record(cases.bgw(5, 2))
        data["labels"][1] = "\u00e9"
        path = tmp_path / "scheme.json"
        path.write_bytes(json.dumps(data, ensure_ascii=False).encode())
        src = os.path.dirname(os.path.dirname(serialize.__file__))
        env = dict(
            os.environ, PYTHONPATH=src, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="POSIX"
        )
        code = "import sys, gwschemes; print(ascii(gwschemes.load_scheme(sys.argv[1])[0].labels))"
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == f"{ascii(data['labels'])}\n"

    def test_canonical_reader_peak(self):
        # the gh 9 file (3.9 MB, 810 rows) is read block by block from its
        # bytes: 4.3 MiB at the peak, against 5.2 MiB with int64 number
        # positions and 7.8 MiB when each block was decoded with np.fromstring
        # and re-encoded for the comparison.  bgw 25,12 has more runs per row
        # block: 3.3 MiB, against 4.3 MiB with int64 positions
        for s, provenance, bound in [
            (cases.gh(9), {"family": "gh", "q": 9}, 4.5),
            (cases.bgw(25, 12), {"family": "bgw", "q": 25, "m": 12}, 3.6),
        ]:
            raw = file_reference.file_bytes(s, provenance)
            tracemalloc.start()
            try:
                serialize._read_canonical(raw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, provenance

    def test_writer_peak(self):
        # the gh 9 file (3.9 MB, 11 row blocks) is written block by block:
        # 2.4 MiB at the peak, against 3.5 MiB when each number was copied
        # from an 8-byte string slot and the padding dropped by a mask
        s = cases.gh(9)
        tracemalloc.start()
        try:
            for _ in serialize.file_chunks(s, {"family": "gh", "q": 9}):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 2**20

    @given(data=st.data())
    def test_blocks_of_one_digit_and_wider_numbers(self, tmp_path_factory, data):
        # rows of one-digit labels and run lengths, whose blocks take 4-byte
        # slots, beside rows with labels of up to 4 digits and runs up to
        # v, one to three rows per block, v = 1 included; the label matrix
        # is no scheme, which neither the writer nor the readers check
        v = data.draw(st.integers(1, 24), label="v")
        nlabels = data.draw(st.sampled_from([1, 2, 10, 11, 100, 1000, 10000]), label="nlabels")
        L = np.array([
            _row(data, v, nlabels) if data.draw(st.booleans(), label="wide")
            else _row(data, v, min(nlabels, 10), 9)
            for _ in range(v)
        ])
        fake = SimpleNamespace(v=v, labels=[str(i) for i in range(nlabels)], L=L)
        prov = data.draw(st.sampled_from([None, {"note": "\u00e9"}]))
        path = tmp_path_factory.getbasetemp() / "mixed.json"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "BLOCK", v * data.draw(st.integers(1, 3), label="rows per block"))
            save_scheme(path, fake, prov)
            raw = path.read_bytes()
            assert raw == file_reference.file_bytes(fake, prov)
            L1, labels, prov1 = serialize._read_canonical(raw)
            assert np.array_equal(L1, L) and labels == fake.labels and prov1 == prov
            assert np.array_equal(serialize._read_json(raw, path)[0], L)

    @pytest.mark.parametrize(
        "label,nlabels", [(0, 1), (9, 10), (10, 11), (99999, 100000), (100000, 100001)]
    )
    def test_one_point(self, label, nlabels):
        # the 4-, 8- and 16-byte slots at their bounds
        fake = SimpleNamespace(v=1, labels=[str(i) for i in range(nlabels)], L=np.array([[label]]))
        raw = b"".join(serialize.file_chunks(fake))
        assert raw == file_reference.file_bytes(fake)
        assert serialize._read_canonical(raw)[0].tolist() == [[label]]

    def test_a_block_past_int32_offsets_is_refused(self):
        # the row block's offsets are int32, so a block of 2**31 bytes or
        # more is refused before any of its bytes is read
        a = np.frombuffer(b"[[0, 1]]", np.uint8)
        assert serialize._block_runs(a, 0, 2**31, np.array([], np.int64), 1) is None

    @given(text=st.lists(st.sampled_from([b",", b" ", b"x"]), max_size=40).map(b"".join))
    def test_pairs_are_counted_at_both_offsets(self, text):
        # the ", " pairs are counted as 2-byte words, at even and odd
        # offsets, of the bytes as given and of bytes one past an even address
        for a in (np.frombuffer(text, np.uint8), np.frombuffer(b"_" + text, np.uint8)[1:]):
            assert serialize._pairs(a) == text.count(b", ")

    def test_cases_cross_blocks_and_digit_widths(self):
        s = cases.bgw(289, 2)
        assert schemes.BLOCK // s.v < s.v
        rows = file_reference.record(complete(1000))["rows"]
        assert max(max(rle[1::2]) for rle in rows) == 999


class TestScalarText:
    def test_printing(self):
        f = F37
        z = f.zeta(1)
        r = f.sqrt_radicand()
        assert scalar_to_str(f.rat(0)) == "0"
        assert scalar_to_str(f.rat(Fraction(-3, 2))) == "-3/2"
        assert scalar_to_str(f.rat(Fraction(1, 2))) == "1/2"
        assert scalar_to_str(z) == "z"
        assert scalar_to_str(f.rat(-1) - z) == "-1 - z"
        assert scalar_to_str(r.scale(Fraction(8, 7))) == "r*(8/7)"
        assert scalar_to_str(r * z) == "r*(z)"
        assert scalar_to_str(f.rat(1) + r.scale(Fraction(-2))) == "1 + r*(-2)"

    @pytest.mark.parametrize("f", [F37, F5], ids=["radical", "no_radical"])
    @given(data=st.data())
    def test_printing_is_lossless(self, f, data):
        # the coefficients share numerators, denominators and absolute values,
        # so that a printer dropping any of them, a sign or a power of z
        # prints two of the unequal scalars below alike
        c = data.draw(st.lists(SMALL, min_size=f.dim, max_size=f.dim))
        x = CycScalar(f, [int(6 * t) for t in c], 6)  # 6 = lcm of the denominators
        text = scalar_to_str(x)
        r, s = data.draw(st.lists(st.integers(0, f.dim - 1), min_size=2, max_size=2, unique=True))
        # x + delta e_r changes the one basis coordinate r
        delta = data.draw(SMALL.filter(lambda t: t != c[r])) - c[r]
        e_r = CycScalar(f, [int(t == r) for t in range(f.dim)])
        assert scalar_to_str(x + e_r.scale(delta)) != text
        # swapping coordinates r and s, and negating, change x unless they fix it
        c[r], c[s] = c[s], c[r]
        swapped = CycScalar(f, [int(6 * t) for t in c], 6)
        assert (scalar_to_str(swapped) == text) == (swapped == x)
        assert (scalar_to_str(-x) == text) == (not x)
        # x again, built as a sum of basis elements
        c[r], c[s] = c[s], c[r]
        built = sum((f.rat(a) * f.zeta(k) for k, a in enumerate(c[: f.deg])), f.zero())
        if f.d != 1:
            built += f.sqrt_radicand() * sum(
                (f.rat(b) * f.zeta(k) for k, b in enumerate(c[f.deg :])), f.zero()
            )
        assert scalar_to_str(built) == text


class TestTables:
    def test_json_form(self):
        es = cases.bgw_es(5, 2)
        doc = table_to_json(
            "P",
            es.algebra.field,
            [str(t) for t in es.row_index()],
            es.algebra.scheme.labels,
            es.eigenmatrix_p(),
        )
        assert doc["kind"] == "P"
        assert doc["radicand"] == 5
        assert len(doc["entries"]) == 4 and len(doc["entries"][0]) == 4
        assert doc["entries"][0] == ["1", "1", "5", "5"]
        json.dumps(doc)

    def test_csv_form(self):
        es = cases.bgw_es(5, 2)
        text = table_to_csv(
            ["r1", "r2", "r3", "r4"],
            es.algebra.scheme.labels,
            es.eigenmatrix_p(),
        )
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith(",")
        assert lines[1] == "r1,1,1,5,5"
