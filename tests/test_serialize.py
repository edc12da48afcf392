"""Scheme files and the scalar text form."""
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwschemes import (
    AssociationScheme,
    CycField,
    NotAScheme,
    load_scheme,
    save_scheme,
    scalar_from_str,
    scalar_to_str,
    scheme_from_dict,
    table_to_csv,
    table_to_json,
)
from gwschemes import serialize
import cases
import file_reference

F37 = CycField(3, 7)


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

    def test_provenance_optional(self):
        s = cases.bgw(5, 2)
        s2, prov = scheme_from_dict(file_reference.record(s))
        assert prov is None
        assert np.array_equal(s2.L, s.L)

    def test_unsupported_version(self):
        data = file_reference.record(cases.bgw(5, 2))
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            scheme_from_dict(data)

    def test_short_row_rejected(self):
        data = file_reference.record(cases.bgw(5, 2))
        data["rows"][0] = data["rows"][0][:-2]
        with pytest.raises(ValueError, match="cover"):
            scheme_from_dict(data)

    def test_tampered_file_reverified(self, tmp_path):
        path = tmp_path / "scheme.json"
        save_scheme(path, cases.bgw(5, 2))
        data = json.loads(path.read_text())
        # relabel the first cell of the first row; the identity class breaks
        data["rows"][0][0] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(NotAScheme):
            load_scheme(path)


def complete(v: int) -> AssociationScheme:
    """The trivial scheme on v points, whose rows have runs up to v - 1 long."""
    return AssociationScheme.from_matrices(1 - np.eye(v, dtype=np.int64), ["0", "1"][: min(v, 2)])


FILE_CASES = {
    **{f"bgw{q}-{m}": (cases.bgw, (q, m)) for q, m in cases.BGW_BUILDABLE},
    **{f"gh{q}": (cases.gh, (q,)) for q in cases.GH_GRID},
    # v = 580: rows span several blocks
    "bgw289-2": (cases.bgw, (289, 2)),
    # one point; 3-digit run lengths and a 4-digit v
    "complete1": (complete, (1,)),
    "complete1000": (complete, (1000,)),
}


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
        L = scheme_from_dict(file_reference.record(s))[0].L
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

    def test_cases_cross_blocks_and_digit_widths(self):
        s = cases.bgw(289, 2)
        assert serialize.BLOCK // s.v < s.v
        rows = file_reference.record(complete(1000))["rows"]
        assert max(max(rle[1::2]) for rle in rows) == 999


class TestScalarText:
    def test_printing(self):
        f = F37
        z = f.zeta(1)
        r = f.sqrt_radicand()
        assert scalar_to_str(f.rat(0)) == "0"
        assert scalar_to_str(f.rat(Fraction(-3, 2))) == "-3/2"
        assert scalar_to_str(z) == "z"
        assert scalar_to_str(f.rat(-1) - z) == "-1 - z"
        assert scalar_to_str(r.scale(Fraction(8, 7))) == "r*(8/7)"
        assert scalar_to_str(r * z) == "r*(z)"
        assert scalar_to_str(f.rat(1) + r.scale(Fraction(-2))) == "1 + r*(-2)"

    def test_parsing(self):
        f = F37
        assert scalar_from_str(f, "z") == f.zeta(1)
        assert scalar_from_str(f, "-1 - z") == f.rat(-1) - f.zeta(1)
        assert scalar_from_str(f, "r*(8/7*z)") == f.sqrt_radicand().scale(
            Fraction(8, 7)
        ) * f.zeta(1)
        assert scalar_from_str(f, "5") == f.rat(5)

    @pytest.mark.parametrize("bad", ["q", "z^2", "2**z", "1 - r*(z)", "r*(1) + 1", "1/0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            scalar_from_str(F37, bad)

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=9),
            min_size=F37.deg,
            max_size=F37.deg,
        ),
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=9),
            min_size=F37.deg,
            max_size=F37.deg,
        ),
    )
    def test_roundtrip_random(self, a, b):
        x = F37.from_vectors(a, b)
        assert scalar_from_str(F37, scalar_to_str(x)) == x


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
