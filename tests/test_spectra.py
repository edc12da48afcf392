"""Wedderburn systems, eigenmatrices, character tables, duality, fusion."""
import copy
import dataclasses
import hashlib
import json
import re
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwschemes import (
    AssociationScheme,
    CycField,
    CycScalar,
    FiniteField,
    NotAScheme,
    SymmetryObstruction,
    VerificationError,
    bgw_eigensystem,
    bgw_symmetric_fusion,
    bm_search,
    eigensystem_for,
    gh_eigensystem,
    gh_symmetric_fusion,
    gh_transversal,
    oracle_spectrum,
    scalar_to_str,
)
from gwschemes import kernel
from gwschemes.kernel import Batch
from gwschemes.spectra import (
    Block,
    Eigensystem,
    FusedEigensystem,
    SchemeAlgebra,
    _bgw_exponents,
    _closure_ok,
    _fused_sums,
    _gh_exponents,
)
import cases
import closedforms as cf
import groupschemes
from field_reference import ReferenceField


def exact_rank(rows) -> int:
    """Rank of a matrix of CycScalars by Gaussian elimination over its field."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        # fraction-free: scaling row r by the nonzero pivot keeps the rank
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [p * x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def materialize(scheme, elem, field):
    """An algebra element as an explicit v x v matrix of scalars (small v only)."""
    zero = field.zero()
    return [[elem.get(int(c), zero) for c in row] for row in scheme.L]


def printed(table):
    return [[scalar_to_str(x) for x in row] for row in table]


# Reference tables, frozen from the closed-form displays.  Entries are exact
# scalar strings over Q(zeta_m)[sqrt(q)] (z = zeta, r = sqrt(q)), compared with
# the printed tables; scalar_to_str is lossless over a given field
# (tests/test_serialize.py), so equal strings over equal fields are equal tables.

BGW73_P = [
    ["1", "1", "1", "7", "7", "7"],
    ["1", "1", "1", "-1", "-1", "-1"],
    ["1", "-1 - z", "z", "0", "0", "0"],
    ["0", "0", "0", "r*(1)", "r*(-1 - z)", "r*(z)"],
    ["0", "0", "0", "r*(1)", "r*(z)", "r*(-1 - z)"],
    ["1", "z", "-1 - z", "0", "0", "0"],
]
BGW73_Q = [
    ["1", "7", "8", "0", "0", "8"],
    ["1", "7", "8*z", "0", "0", "-8 - 8*z"],
    ["1", "7", "-8 - 8*z", "0", "0", "8*z"],
    ["1", "-1", "0", "r*(8/7)", "r*(8/7)", "0"],
    ["1", "-1", "0", "r*(8/7*z)", "r*(-8/7 - 8/7*z)", "0"],
    ["1", "-1", "0", "r*(-8/7 - 8/7*z)", "r*(8/7*z)", "0"],
]
BGW73_T = [
    ["1", "1", "1", "7", "7", "7"],
    ["1", "1", "1", "-1", "-1", "-1"],
    ["2", "-1", "-1", "0", "0", "0"],
]
BGW73_QHAT = [
    ["1", "7", "8", "8"],
    ["1", "7", "-4", "-4"],
    ["1", "-1", "r*(8/7)", "r*(-8/7)"],
    ["1", "-1", "r*(-4/7)", "r*(4/7)"],
]
BGW73_PHAT = [
    ["1", "2", "7", "14"],
    ["1", "2", "-1", "-2"],
    ["1", "-1", "r*(1)", "r*(-1)"],
    ["1", "-1", "r*(-1)", "r*(1)"],
]

BGW52_P = [
    ["1", "1", "5", "5"],
    ["1", "1", "-1", "-1"],
    ["1", "-1", "r*(1)", "r*(-1)"],
    ["1", "-1", "r*(-1)", "r*(1)"],
]
BGW52_Q = [
    ["1", "5", "3", "3"],
    ["1", "5", "-3", "-3"],
    ["1", "-1", "r*(3/5)", "r*(-3/5)"],
    ["1", "-1", "r*(-3/5)", "r*(3/5)"],
]

GH3_P = [
    ["1", "1", "1", "9", "9", "9", "6"],
    ["1", "1", "1", "0", "0", "0", "-3"],
    ["1", "1", "1", "-3", "-3", "-3", "6"],
    ["1", "-1 - z", "z", "0", "0", "0", "0"],
    ["0", "0", "0", "3", "-3 - 3*z", "3*z", "0"],
    ["0", "0", "0", "3", "3*z", "-3 - 3*z", "0"],
    ["1", "z", "-1 - z", "0", "0", "0", "0"],
]
GH3_Q = [
    ["1", "8", "3", "12", "0", "0", "12"],
    ["1", "8", "3", "12*z", "0", "0", "-12 - 12*z"],
    ["1", "8", "3", "-12 - 12*z", "0", "0", "12*z"],
    ["1", "0", "-1", "0", "4", "4", "0"],
    ["1", "0", "-1", "0", "4*z", "-4 - 4*z", "0"],
    ["1", "0", "-1", "0", "-4 - 4*z", "4*z", "0"],
    ["1", "-4", "3", "0", "0", "0", "0"],
]
GH3_T = [
    ["1", "1", "1", "9", "9", "9", "6"],
    ["1", "1", "1", "0", "0", "0", "-3"],
    ["1", "1", "1", "-3", "-3", "-3", "6"],
    ["2", "-1", "-1", "0", "0", "0", "0"],
]
GH3_QHAT = [
    ["1", "8", "3", "12", "12"],
    ["1", "8", "3", "-6", "-6"],
    ["1", "0", "-1", "4", "-4"],
    ["1", "0", "-1", "-2", "2"],
    ["1", "-4", "3", "0", "0"],
]
GH3_PHAT = [
    ["1", "2", "9", "18", "6"],
    ["1", "2", "0", "0", "-3"],
    ["1", "2", "-3", "-6", "6"],
    ["1", "-1", "3", "-3", "0"],
    ["1", "-1", "-3", "3", "0"],
]


class TestReferenceBGW73:
    def test_block_structure(self):
        es = cases.bgw_es(7, 3)
        assert [(b.name, b.dim) for b in es.blocks] == [("0", 1), ("1", 1), ("a1", 2)]
        assert es.multiplicities == [1, 7, 8]
        assert es.row_index() == [
            ("0", 1, 1),
            ("1", 1, 1),
            ("a1", 1, 1),
            ("a1", 1, 2),
            ("a1", 2, 1),
            ("a1", 2, 2),
        ]

    def test_tables(self):
        es = cases.bgw_es(7, 3)
        assert es.algebra.field == CycField(3, 7)
        assert printed(es.eigenmatrix_p()) == BGW73_P
        assert printed(es.eigenmatrix_q()) == BGW73_Q
        assert printed(es.character_table()) == BGW73_T
        assert es.check_pq_duality()

    def test_fusion(self):
        assert bgw_symmetric_fusion(3) == [[0], [1, 2], [3], [4, 5]]
        fe = cases.bgw_fused(7, 3)
        assert fe.algebra.field == CycField(3, 7)
        assert fe.names == ["0", "1", "a1+", "a1-"]
        assert fe.multiplicities == [1, 7, 8, 8]
        assert printed(fe.qhat) == BGW73_QHAT
        assert printed(fe.phat) == BGW73_PHAT
        fused = cases.bgw(7, 3).fuse(bgw_symmetric_fusion(3))
        assert fused.classify() == "symmetric"


class TestReferenceBGW52:
    def test_block_structure(self):
        es = cases.bgw_es(5, 2)
        assert [(b.name, b.dim) for b in es.blocks] == [
            ("0", 1),
            ("1", 1),
            ("2", 1),
            ("3", 1),
        ]
        assert es.multiplicities == [1, 5, 3, 3]

    def test_tables(self):
        es = cases.bgw_es(5, 2)
        assert es.algebra.field == CycField(2, 5)
        assert printed(es.eigenmatrix_p()) == BGW52_P
        assert printed(es.eigenmatrix_q()) == BGW52_Q
        # all blocks are one-dimensional, so T = P
        assert es.character_table() == es.eigenmatrix_p()
        assert es.check_pq_duality()

    def test_trivial_fusion_reproduces_q(self):
        # m = 2 is already symmetric; the fusion partition is discrete and
        # the fused second eigenmatrix is Q itself
        assert bgw_symmetric_fusion(2) == [[0], [1], [2], [3]]
        fe = cases.bgw_fused(5, 2)
        assert fe.names == ["0", "1", "2", "3"]
        assert fe.qhat == cases.bgw_es(5, 2).eigenmatrix_q()


class TestReferenceGH3:
    def test_block_structure(self):
        es = cases.gh_es(3)
        assert [(b.name, b.dim) for b in es.blocks] == [
            ("0", 1),
            ("1", 1),
            ("2", 1),
            ("a1", 2),
        ]
        assert es.multiplicities == [1, 8, 3, 12]

    def test_tables(self):
        es = cases.gh_es(3)
        assert es.algebra.field == CycField(3)
        assert printed(es.eigenmatrix_p()) == GH3_P
        assert printed(es.eigenmatrix_q()) == GH3_Q
        assert printed(es.character_table()) == GH3_T
        assert es.check_pq_duality()

    def test_fusion(self):
        assert gh_symmetric_fusion(3) == [[0], [1, 2], [3], [4, 5], [6]]
        fe = cases.gh_fused(3)
        assert fe.algebra.field == CycField(3)
        assert fe.names == ["0", "1", "2", "a1+", "a1-"]
        assert fe.multiplicities == [1, 8, 3, 12, 12]
        assert printed(fe.qhat) == GH3_QHAT
        assert printed(fe.phat) == GH3_PHAT
        fused = cases.gh(3).fuse(gh_symmetric_fusion(3))
        assert fused.classify() == "symmetric"


def negation_orbits_reference(neg: list[int]) -> list[list[int]]:
    """The cells {(g, t), (-g, t)}, type 0 then type 1, each listed when the
    loop over g reaches its least class."""
    n, out = len(neg), []
    for t in (0, 1):
        for g in range(n):
            if g < neg[g]:
                out.append([t * n + g, t * n + neg[g]])
            elif g == neg[g]:
                out.append([t * n + g])
    return out


ODD_PRIME_POWERS = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]


class TestRefusedParameters:
    """Each eigensystem asks its family's parameter rule first, so a scheme of
    the right size gets the error that the builder raises for the same
    parameters, not a failed unit relation."""

    @pytest.mark.parametrize(
        "name,error,says",
        [
            ("bgw-13-4", SymmetryObstruction, "no symmetric construction for q=13, m=4"),
            ("bgw-6-5", ValueError, "6 is not a prime power"),
            ("gh-2", ValueError, "q must be odd"),
        ],
        ids=["bgw-13-4", "bgw-6-5", "gh-2"],
    )
    def test_raises_the_builders_error(self, name, error, says):
        provenance = cases.REFUSED[name][0]
        params = [provenance[key] for key in ("q", "m") if key in provenance]
        make = bgw_eigensystem if provenance["family"] == "bgw" else gh_eigensystem
        with pytest.raises(error, match=f"^{re.escape(says)}"):
            make(cases.refused(name), *params)
        with pytest.raises(error, match=f"^{re.escape(says)}"):
            eigensystem_for(cases.refused(name), cases.REFUSED[name][0])


class TestSymmetricFusions:
    @pytest.mark.parametrize("m", range(2, 65))
    def test_bgw(self, m):
        want = negation_orbits_reference([-g % m for g in range(m)])
        assert bgw_symmetric_fusion(m) == want

    @pytest.mark.parametrize("q", ODD_PRIME_POWERS)
    def test_gh(self, q):
        want = negation_orbits_reference(ReferenceField(q).neg_t) + [[2 * q]]
        assert gh_symmetric_fusion(q) == want

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_bgw_refuses_m_below_2(self, m):
        # bgw_matrix refuses these m, so no scheme has such a fusion
        with pytest.raises(ValueError, match="must be at least 2"):
            bgw_symmetric_fusion(m)

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_gh_refuses_even_q(self, q):
        with pytest.raises(ValueError, match="^q must be odd$"):
            gh_symmetric_fusion(q)


class TestClosedFormsAcrossGrid:
    @pytest.mark.parametrize("q,m", cases.BGW_BUILDABLE, ids=lambda c: str(c))
    def test_bgw_dims_mults_t(self, q, m):
        es = cases.bgw_es(q, m)
        assert [b.dim for b in es.blocks] == cf.bgw_dims(m)
        assert es.multiplicities == cf.bgw_multiplicities(q, m)
        assert es.character_table() == cf.bgw_character_table(q, m)

    @pytest.mark.parametrize("q", cases.GH_GRID, ids=lambda q: f"q{q}")
    def test_gh_dims_mults_t(self, q):
        es = cases.gh_es(q)
        assert [b.dim for b in es.blocks] == cf.gh_dims(q)
        assert es.multiplicities == cf.gh_multiplicities(q)
        assert es.character_table() == cf.gh_character_table(q)

    @pytest.mark.parametrize("q,m", cases.BGW_BUILDABLE, ids=lambda c: str(c))
    def test_bgw_fused_q(self, q, m):
        fe = cases.bgw_fused(q, m)
        assert fe.multiplicities == cf.bgw_fused_multiplicities(q, m)
        assert fe.qhat == cf.bgw_fused_q(q, m)

    @pytest.mark.parametrize("q", cases.GH_GRID, ids=lambda q: f"q{q}")
    def test_gh_fused_q(self, q):
        fe = cases.gh_fused(q)
        assert fe.multiplicities == cf.gh_fused_multiplicities(q)
        assert fe.qhat == cf.gh_fused_q(q)


def unpack(alg, batch):
    """The elements of a batch, flattened in C order, as Elem dicts."""
    nm = alg.scheme.nclasses
    flat = kernel.scalars(alg.field, batch)
    return [
        {k: c for k, c in enumerate(flat[n : n + nm]) if c} for n in range(0, len(flat), nm)
    ]


def elem_mul(alg, x, y):
    """The product of two Elems through the batched kernel."""
    return unpack(alg, alg.mul(alg.pack([x]), alg.pack([y])))[0]


def f_elements(field, M, exponents):
    """The elements F = sum_k zeta_M^e A_k of the exponent tables {k: e}."""
    return [{k: field.zeta(e) for k, e in F.items()} for F in exponents]


def bgw_f(field, m, typ):
    """F_{alpha,typ} = sum_gamma zeta_m^{alpha gamma} A_{(gamma,typ)}."""
    return f_elements(field, m, _bgw_exponents(m, typ))


def gh_f(field, F, typ):
    """F_{alpha,typ} = sum_beta zeta_p^{<alpha,beta>} A_{(beta,typ)}."""
    return f_elements(field, F.p, _gh_exponents(F, typ))


class TestFElementRules:
    # the terms added up below lie on disjoint classes (type 0, type 1 and
    # the class 2q of gh), so a union of dicts adds them

    def test_bgw_f_products(self):
        q, m = 7, 3
        es = cases.bgw_es(q, m)
        alg = es.algebra
        F0 = bgw_f(alg.field, m, 0)
        F1 = bgw_f(alg.field, m, 1)
        for a in range(m):
            for b in range(m):
                d_ab = m if a == b else 0
                d_anb = m if (a + b) % m == 0 else 0
                assert elem_mul(alg, F0[a], F0[b]) == alg.rmul(d_ab, F0[a])
                assert elem_mul(alg, F0[a], F1[b]) == alg.rmul(d_ab, F1[b])
                assert elem_mul(alg, F1[a], F0[b]) == alg.rmul(d_anb, F1[a])
                want = alg.rmul(q * d_anb, F0[a])
                if a == 0 and b == 0:
                    want = {**want, **alg.rmul((q - 1) * m, F1[0])}
                assert elem_mul(alg, F1[a], F1[b]) == want

    def test_gh_f_products(self):
        q = 3
        es = cases.gh_es(q)
        alg = es.algebra
        F = FiniteField(q)
        F0 = gh_f(alg.field, F, 0)
        F1 = gh_f(alg.field, F, 1)
        a2 = {2 * q: alg.field.one()}
        for a in range(q):
            for b in range(q):
                d_ab = q if a == b else 0
                d_anb = q if F.add(a, b) == 0 else 0
                assert elem_mul(alg, F0[a], F0[b]) == alg.rmul(d_ab, F0[a])
                assert elem_mul(alg, F0[a], F1[b]) == alg.rmul(d_ab, F1[b])
                assert elem_mul(alg, F1[a], F0[b]) == alg.rmul(d_anb, F1[a])
                want = alg.rmul(q * q * d_anb, F0[a])
                if a == 0 and b == 0:
                    want = {**want, **alg.rmul(q * q * q, a2)}
                    want = {**want, **alg.rmul((q - 1) * q * q, F1[0])}
                assert elem_mul(alg, F1[a], F1[b]) == want
        # in particular F_(1,1) F_(1,1) vanishes: 1 is not self-negative
        assert elem_mul(alg, F1[1], F1[1]) == {}

    def test_gh_transversal(self):
        assert gh_transversal(FiniteField(3)) == [1]
        assert gh_transversal(FiniteField(5)) == [1, 2]
        assert gh_transversal(FiniteField(7)) == [1, 2, 3]
        # GF(9): -1 = 2, -3 = 6, -4 = 8, -5 = 7 in canonical indexing
        assert gh_transversal(FiniteField(9)) == [1, 3, 4, 5]


def per_entry_unit(*terms):
    """sum c F over the terms (c, F), one scalar product per entry."""
    return {k: c * x for c, F in terms for k, x in F.items()}


def reference_blocks(es, family, q, m=None) -> list[tuple[str, int, dict]]:
    """The blocks of the family eigensystem, each unit entry formed as its
    own product c zeta^e from the F elements."""
    field, v = es.algebra.field, es.algebra.scheme.v
    e = field.rat(Fraction(1, v))
    if family == "bgw":
        F0, F1 = bgw_f(field, m, 0), bgw_f(field, m, 1)
        inv_sqrt = field.sqrt_radicand().scale(Fraction(1, q))
        blocks = [
            ("0", 1, {(1, 1): per_entry_unit((e, F0[0]), (e, F1[0]))}),
            ("1", 1, {(1, 1): per_entry_unit((e.scale(q), F0[0]), (-e, F1[0]))}),
        ]
        if m % 2 == 0:
            h, c, half = m // 2, inv_sqrt.scale(Fraction(1, 2 * m)), field.rat(Fraction(1, 2 * m))
            blocks.append(("2", 1, {(1, 1): per_entry_unit((half, F0[h]), (c, F1[h]))}))
            blocks.append(("3", 1, {(1, 1): per_entry_unit((half, F0[h]), (-c, F1[h]))}))
        c11, c12 = field.rat(Fraction(1, m)), inv_sqrt.scale(Fraction(1, m))
        pairs = [(a, m - a) for a in range(1, (m - 1) // 2 + 1)]
    else:
        F = FiniteField(q)
        F0, F1, a2 = gh_f(field, F, 0), gh_f(field, F, 1), {2 * q: field.one()}
        blocks = [
            ("0", 1, {(1, 1): per_entry_unit((e, F0[0]), (e, F1[0]), (e, a2))}),
            ("1", 1, {(1, 1): per_entry_unit((e.scale(q * q - 1), F0[0]), (e.scale(-q - 1), a2))}),
            ("2", 1, {(1, 1): per_entry_unit((e.scale(q), F0[0]), (-e, F1[0]), (e.scale(q), a2))}),
        ]
        c11, c12 = field.rat(Fraction(1, q)), field.rat(Fraction(1, q * q))
        pairs = [(a, F.neg(a)) for a in gh_transversal(F)]
    for a, na in pairs:
        terms = [(c11, F0[a]), (c11, F0[na]), (c12, F1[a]), (c12, F1[na])]
        units = {ij: per_entry_unit(t) for ij, t in zip([(1, 1), (2, 2), (1, 2), (2, 1)], terms)}
        blocks.append((f"a{a}", 2, units))
    return blocks


def count_products(monkeypatch) -> list:
    """A list that gains one entry per CycScalar product from here on."""
    calls, product = [], CycScalar.__mul__

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(CycScalar, "__mul__", counted)
    return calls


class TestUnitProducts:
    @pytest.mark.parametrize("q,m", cases.BGW_BUILDABLE, ids=lambda c: str(c))
    def test_bgw_units_match_the_per_entry_formula(self, q, m):
        es = cases.bgw_es(q, m)
        got = [(b.name, b.dim, b.units) for b in es.blocks]
        assert got == reference_blocks(es, "bgw", q, m)

    @pytest.mark.parametrize("q", cases.GH_GRID, ids=lambda q: f"q{q}")
    def test_gh_units_match_the_per_entry_formula(self, q):
        es = cases.gh_es(q)
        assert [(b.name, b.dim, b.units) for b in es.blocks] == reference_blocks(es, "gh", q)

    def test_each_distinct_product_is_formed_once(self, monkeypatch):
        # 24 classes: the per-entry formula forms one product per unit entry
        scheme = cases.bgw(25, 12)
        calls = count_products(monkeypatch)
        es = bgw_eigensystem(scheme, 25, 12)
        entries = sum(len(u) for b in es.blocks for u in b.units.values())
        assert len(calls) <= 4 * 12 < entries


def dict_mul(alg, x, y):
    """Reference product: one scalar product per pair of classes."""
    out = {}
    for i, cx in x.items():
        for j, cy in y.items():
            c = cx * cy
            for k in np.flatnonzero(alg.scheme.p[i, j]):
                k = int(k)
                s = out.get(k, alg.field.zero()) + c.scale(int(alg.scheme.p[i, j, k]))
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def first_failing_pair(alg, blocks, blockwise=False):
    """The first unit pair, in row-major order of all pairs, whose product
    differs from the unit relation; with blockwise, the first of the pairs
    within one block, blocks in order and each row-major, which is the pair
    the verifier names."""
    flat = [
        (blk, i, j)
        for blk in blocks
        for i in range(1, blk.dim + 1)
        for j in range(1, blk.dim + 1)
    ]
    for b, i, j in flat:
        for b2, i2, j2 in flat:
            if blockwise and b is not b2:
                continue
            want = b.units[(i, j2)] if b is b2 and j == i2 else {}
            if dict_mul(alg, b.units[(i, j)], b2.units[(i2, j2)]) != want:
                return f"block {b.name} ({i},{j}) times block {b2.name} ({i2},{j2})"
    return None


def mutated(es, bi, ij, f):
    """Copies of the blocks of es, with unit ij of block bi replaced by f(unit)."""
    blocks = [dataclasses.replace(b, units=dict(b.units)) for b in es.blocks]
    blocks[bi].units[ij] = f(blocks[bi].units[ij])
    return blocks


def doubled(U, n):
    """The packed units U with the numerators of unit n doubled."""
    num = U.num.copy()
    num[n] *= 2
    return Batch(num, U.den)


def nonzero(e):
    return {k: x for k, x in e.items() if x}


def reference_rejects(alg, blocks) -> bool:
    """Whether the all-pairs unit relations (first_failing_pair), the
    adjoint pairs E_ij* = E_ji or m_k >= 1 fail, by dict arithmetic.  For
    units that pass the relations, m_k = tr E_11 = 0 exactly when E_11 = 0."""
    if sum(blk.dim**2 for blk in blocks) != alg.scheme.nclasses:
        return True
    if first_failing_pair(alg, blocks) is not None:
        return True
    tpose = alg.scheme.tpose
    for blk in blocks:
        if not nonzero(blk.units[(1, 1)]):
            return True
        for (i, j), e in blk.units.items():
            if {tpose[k]: x.conj() for k, x in nonzero(e).items()} != nonzero(blk.units[(j, i)]):
                return True
    return False


SPOT_CASES = [("bgw", (7, 3)), ("bgw", (5, 2)), ("gh", (5,))]
SPOT_IDS = ["bgw73", "bgw52", "gh5"]


def spot_es(maker, args):
    return getattr(cases, maker + "_es")(*args)


def summed(es, b, b2):
    """The blocks of es with the 1-dim unit of block b replaced by the sum
    of the idempotents of the 1-dim blocks b and b2."""
    zero = es.algebra.field.zero()
    blocks = es.blocks
    E, F = (blocks[n].units[(1, 1)] for n in (b, b2))
    blocks[b].units[(1, 1)] = nonzero({k: E.get(k, zero) + F.get(k, zero) for k in {*E, *F}})
    return blocks


def merged_zero(es):
    """Blocks 0 and 1 (1-dim) merged into block 0, block 1 left zero."""
    blocks = summed(es, 0, 1)
    blocks[1].units[(1, 1)] = {}
    return blocks


def swapped(blocks, a, b):
    blocks[a], blocks[b] = blocks[b], blocks[a]
    return blocks


def last_pair(es):
    return max(n for n, blk in enumerate(es.blocks) if blk.dim == 2)


def perturbed(es, bi, ij):
    """Unit ij of block bi with 1/97 of sqrt(radicand) added on its last class."""
    r = es.algebra.field.sqrt_radicand().scale(Fraction(1, 97))
    return mutated(es, bi, ij, lambda e: {**e, max(e): e[max(e)] + r})


def rescaled_pair(es, bi, c12, c21):
    """E_12 -> c12 E_12 and E_21 -> c21 E_21 in block bi: with c12 c21 = 1
    every unit relation and the identity sum still hold."""
    alg = es.algebra
    blocks = mutated(es, bi, (1, 2), lambda e: alg.rmul(c12, e))
    blocks[bi].units[(2, 1)] = alg.rmul(c21, blocks[bi].units[(2, 1)])
    return blocks


def exchanged_units(es, bi):
    blocks = es.blocks
    u = blocks[bi].units
    u[(1, 2)], u[(2, 1)] = u[(2, 1)], u[(1, 2)]
    return blocks


# edits of the blocks of an eigensystem, each with whether it needs a pair
# block (dim 2), which bgw 5,2 lacks
UNIT_MUTATIONS = {
    "none": (False, lambda es: es.blocks),
    "scaled-1-dim": (False, lambda es: mutated(es, 1, (1, 1), lambda e: es.algebra.rmul(2, e))),
    "perturbed-1-dim": (False, lambda es: perturbed(es, 1, (1, 1))),
    "two-idempotents": (False, lambda es: summed(es, 0, 1)),
    "zero-block": (False, merged_zero),
    "swapped-blocks": (False, lambda es: swapped(es.blocks, 1, 2)),
    "dropped-block": (False, lambda es: es.blocks[:-1]),
    "scaled-pair": (True, lambda es: rescaled_pair(es, last_pair(es), 2, 1)),
    "perturbed-pair": (True, lambda es: perturbed(es, last_pair(es), (1, 2))),
    "broken-adjoint": (True, lambda es: rescaled_pair(es, last_pair(es), 2, Fraction(1, 2))),
    "negated-pair": (True, lambda es: rescaled_pair(es, last_pair(es), -1, -1)),
    "exchanged-units": (True, lambda es: exchanged_units(es, last_pair(es))),
}
MUTATION_CASES = [
    pytest.param(maker, args, edit, id=f"{name}-{edit}")
    for (maker, args), name in zip(SPOT_CASES, SPOT_IDS)
    for edit, (pair, _) in sorted(UNIT_MUTATIONS.items())
    if not pair or (maker, args) != ("bgw", (5, 2))
]


class TestVerificationTeeth:
    @pytest.mark.parametrize("maker,args", SPOT_CASES, ids=SPOT_IDS)
    def test_scaled_unit_rejected(self, maker, args):
        es = spot_es(maker, args)
        alg = es.algebra
        bad = [Block(b.name, b.dim, dict(b.units)) for b in es.blocks]
        bad[1].units[(1, 1)] = alg.rmul(2, bad[1].units[(1, 1)])
        # (2 E)(2 E) = 4 E: the block's relation fails before the identity sum
        with pytest.raises(
            VerificationError, match=r"^unit relation failed: block 1 \(1,1\) times block 1 \(1,1\)$"
        ):
            Eigensystem(alg, bad)

    @pytest.mark.parametrize("maker,args", SPOT_CASES, ids=SPOT_IDS)
    def test_two_idempotents_fail_the_identity_sum(self, maker, args):
        # E_0 -> E_0 + E_1 keeps every relation inside each block and the
        # adjoints; the all-pairs reference names a pair across blocks 0, 1
        es = spot_es(maker, args)
        bad = summed(es, 0, 1)
        assert first_failing_pair(es.algebra, bad, blockwise=True) is None
        assert first_failing_pair(es.algebra, bad).startswith("block 0 (1,1) times block 1")
        with pytest.raises(VerificationError, match="^diagonal units do not sum to the identity$"):
            Eigensystem(es.algebra, bad)

    @pytest.mark.parametrize("q,m", [(8, 7), (13, 6), (16, 5)], ids=str)
    def test_repeated_pair_block_fails_the_identity_sum(self, q, m):
        # a copy of one pair block in place of another of the same
        # multiplicity keeps each block's relations, the adjoints, the
        # multiplicities and the A_0 coefficient of the identity sum; only its
        # other coefficients tell the two blocks apart
        es = cases.bgw_es(q, m)
        blocks = es.blocks
        a, b = [n for n, blk in enumerate(blocks) if blk.dim == 2][:2]
        assert es.multiplicities[a] == es.multiplicities[b]
        blocks[b] = Block(blocks[b].name, 2, blocks[a].units)
        with pytest.raises(VerificationError, match="^diagonal units do not sum to the identity$"):
            Eigensystem(es.algebra, blocks)

    @pytest.mark.parametrize("maker,args,edit", MUTATION_CASES)
    def test_rejects_exactly_when_the_reference_does(self, maker, args, edit):
        es = spot_es(maker, args)
        blocks = UNIT_MUTATIONS[edit][1](es)
        try:
            Eigensystem(es.algebra, blocks)
        except VerificationError:
            rejected = True
        else:
            rejected = False
        assert rejected == reference_rejects(es.algebra, blocks)

    def test_swapped_pair_blocks_accepted(self):
        # gh 5 has the pair blocks a1 and a2; either order is a Wedderburn
        # decomposition, and P's rows move with the blocks
        es = cases.gh_es(5)
        assert [blk.name for blk in es.blocks[3:]] == ["a1", "a2"]
        es2 = Eigensystem(es.algebra, swapped(es.blocks, 3, 4))
        rows = dict(zip(es.row_index(), es.eigenmatrix_p()))
        assert es2.row_index() == es.row_index()[:3] + es.row_index()[7:] + es.row_index()[3:7]
        assert es2.eigenmatrix_p() == [rows[key] for key in es2.row_index()]
        assert es2.multiplicities == [es.multiplicities[n] for n in (0, 1, 2, 4, 3)]

    @pytest.mark.parametrize(
        "edit,says",
        [
            (lambda bs: bs[2].units.pop((2, 1)), r"block a1 of dim 2 lacks unit \(2, 1\)"),
            (lambda bs: setattr(bs[2], "dim", 3), r"block a1 of dim 3 lacks unit \(1, 3\)"),
            (lambda bs: setattr(bs[2], "dim", 1), r"block a1 of dim 1 has extra unit \(1, 2\)"),
            (
                lambda bs: bs[2].units.update({(3, 3): bs[2].units[(1, 1)]}),
                r"block a1 of dim 2 has extra unit \(3, 3\)",
            ),
            # bgw (7,3) has classes 0..5; pack would drop the stray ones
            (
                lambda bs: bs[2].units[(1, 2)].update({6: bs[2].units[(1, 1)][0]}),
                r"block a1 unit \(1, 2\) has class 6 outside 0\.\.5",
            ),
            (
                lambda bs: bs[2].units[(2, 1)].update({-1: bs[2].units[(1, 1)][0]}),
                r"block a1 unit \(2, 1\) has class -1 outside 0\.\.5",
            ),
            # an empty block would shift every multiplicity after it
            (lambda bs: bs.insert(1, Block("z", 0, {})), r"block z has dim 0, not a positive int"),
            (lambda bs: bs.insert(3, Block("z", -1, {})), r"block z has dim -1, not a positive int"),
            (lambda bs: setattr(bs[2], "dim", 1.5), r"block a1 has dim 1\.5, not a positive int"),
            (
                lambda bs: bs[2].units[(1, 2)].update({4: 1}),
                r"block a1 unit \(1, 2\) has class 4 entry of type int, "
                r"not of CycField\(conductor=3, radicand=7\)$",
            ),
            (
                lambda bs: bs[2].units[(2, 1)].update({3: Fraction(1, 2)}),
                r"block a1 unit \(2, 1\) has class 3 entry of type Fraction, not of ",
            ),
            # a scalar of a smaller field would not pack
            (
                lambda bs: bs[0].units[(1, 1)].update({5: CycField(3).zeta(1)}),
                r"block 0 unit \(1, 1\) has class 5 entry of CycField\(conductor=3\), not of ",
            ),
            # one of another field of the same dimension 4 would be read over
            # the wrong basis
            (
                lambda bs: bs[2].units[(2, 2)].update({0: CycField(5).zeta(1)}),
                r"block a1 unit \(2, 2\) has class 0 entry of CycField\(conductor=5\), not of ",
            ),
            # the same unit keyed by a float or a bool class, which a range
            # test would pass and pack would read as an int
            (
                lambda bs: bs[2].units[(1, 2)].update({3.0: bs[2].units[(1, 2)].pop(3)}),
                r"block a1 unit \(1, 2\) has class 3\.0, not an int$",
            ),
            (
                lambda bs: bs[2].units[(1, 1)].update({True: bs[2].units[(1, 1)].pop(1)}),
                r"block a1 unit \(1, 1\) has class True, not an int$",
            ),
            # the same unit keyed by a float or a bool index, equal to (1, 2)
            # as a dict key: the int unit (1, 2) is the one left out
            (
                lambda bs: bs[2].units.update({(1.0, 2): bs[2].units.pop((1, 2))}),
                r"block a1 of dim 2 lacks unit \(1, 2\)$",
            ),
            (
                lambda bs: bs[2].units.update({(True, 2): bs[2].units.pop((1, 2))}),
                r"block a1 of dim 2 lacks unit \(1, 2\)$",
            ),
            # row_index and the P/Q/T labels would repeat the name
            (lambda bs: setattr(bs[1], "name", "0"), r"block 0 is named twice$"),
            # FusedEigensystem names idempotents by the block name and a sign
            (lambda bs: setattr(bs[1], "name", 5), r"blocks\[1\] has name 5, not a str$"),
            (
                lambda bs: bs.__setitem__(1, (bs[1].name, bs[1].dim, bs[1].units)),
                r"blocks\[1\] is a tuple, not a Block$",
            ),
            (
                lambda bs: setattr(bs[2], "units", list(bs[2].units.items())),
                r"block a1 units are a list, not a dict$",
            ),
            (
                lambda bs: bs[2].units.update({(1, 2): list(bs[2].units[(1, 2)].items())}),
                r"block a1 unit \(1, 2\) is a list, not a dict$",
            ),
        ],
        ids=[
            "deleted-unit", "dim-too-large", "dim-too-small", "unit-outside",
            "class-too-large", "negative-class", "dim-zero-block", "dim-negative-block",
            "fractional-dim", "int-entry", "fraction-entry", "smaller-field-entry",
            "same-size-field-entry", "float-class", "bool-class", "float-unit-key",
            "bool-unit-key", "repeated-name", "name-not-a-str", "not-a-block",
            "units-not-a-dict", "unit-not-a-dict",
        ],
    )
    def test_unit_keys_must_fill_the_block(self, monkeypatch, edit, says):
        # a block of dim >= 1 holds exactly the units (i, j), 1 <= i, j <= dim,
        # whose entries are scalars of the algebra's field
        es = cases.bgw_es(7, 3)
        blocks = es.blocks  # fresh copies, down to the element dicts
        assert blocks[2].name == "a1" and blocks[2].dim == 2
        edit(blocks)
        # each is refused before the units are packed
        monkeypatch.setattr(SchemeAlgebra, "pack", None)
        with pytest.raises(VerificationError, match="^" + says):
            Eigensystem(es.algebra, blocks)

    def test_a_large_dim_costs_only_the_units_given(self):
        # listing the 1500**2 unit keys of this block before the count took
        # 2.9 s and peaked at 214 MiB
        es = cases.bgw_es(7, 3)
        blocks = es.blocks + [Block("x", 1500, {})]
        tracemalloc.start()
        try:
            with pytest.raises(VerificationError, match=r"^block x of dim 1500 lacks unit \(1, 1\)$"):
                Eigensystem(es.algebra, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "maker,args,bi,ij",
        [
            pytest.param(maker, args, bi, ij, id=prefix + f"ij{n}")
            for maker, args, bi, dim, prefix in [
                ("bgw", (7, 3), 2, 2, ""),
                ("bgw", (5, 2), 2, 1, "bgw52-2-"),
                ("bgw", (5, 2), 3, 1, "bgw52-3-"),
                ("gh", (5,), 4, 2, "gh5-"),
            ]
            for n, ij in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)][: dim * dim])
        ],
    )
    def test_scaled_unit_names_the_first_failing_pair(self, maker, args, bi, ij):
        # a scaled unit still annihilates the other blocks, so the first
        # failing pair of all lies inside its own block
        es = spot_es(maker, args)
        alg = es.algebra
        bad = mutated(es, bi, ij, lambda e: alg.rmul(2, e))
        want = first_failing_pair(alg, bad)
        name = es.blocks[bi].name
        assert want is not None and re.fullmatch(rf"block {name} \S+ times block {name} \S+", want)
        assert first_failing_pair(alg, bad, blockwise=True) == want
        with pytest.raises(VerificationError, match=re.escape(f"unit relation failed: {want}")):
            Eigensystem(alg, bad)

    def test_perturbed_radical_part_rejected(self):
        es = cases.bgw_es(7, 3)
        alg = es.algebra
        r = alg.field.sqrt_radicand().scale(Fraction(1, 97))
        bad = mutated(es, 2, (1, 2), lambda e: {**e, 4: e[4] + r})
        # the all-pairs reference fails first at block 0 times block a1
        assert first_failing_pair(alg, bad) is not None
        want = first_failing_pair(alg, bad, blockwise=True)
        with pytest.raises(VerificationError, match=re.escape(f"unit relation failed: {want}")):
            Eigensystem(alg, bad)

    def test_broken_adjoint_pair_rejected(self):
        # E_12 -> 2 E_12 and E_21 -> E_21 / 2 keeps every unit relation and
        # the identity, but E_12* = E_21 fails
        es = cases.bgw_es(7, 3)
        alg = es.algebra
        bad = rescaled_pair(es, 2, 2, Fraction(1, 2))
        assert first_failing_pair(alg, bad) is None
        with pytest.raises(VerificationError, match=r"^adjoint failed in block a1 at \(1,2\)$"):
            Eigensystem(alg, bad)

    def test_swapped_units_rejected(self):
        es = bgw_eigensystem(cases.bgw(7, 3), 7, 3)
        alg = es.algebra
        bad = [Block(b.name, b.dim, dict(b.units)) for b in es.blocks]
        u = bad[2].units
        u[(1, 2)], u[(2, 1)] = u[(2, 1)], u[(1, 2)]
        with pytest.raises(VerificationError):
            Eigensystem(alg, bad)

    def test_wrong_fusion_partition_rejected(self):
        es = cases.bgw_es(7, 3)
        with pytest.raises(
            VerificationError, match=r"^fused class 3 does not act as a scalar on idempotent a1\+$"
        ):
            FusedEigensystem(es, [[0], [1, 2], [3], [4], [5]])

    def test_fused_coefficients_not_constant_rejected(self):
        # the cell {3, 4, 5} is all of type 1, where a1+ and a1- are not constant
        es = cases.bgw_es(7, 3)
        with pytest.raises(
            VerificationError, match=r"^idempotent coefficients not constant on a fused class$"
        ):
            FusedEigensystem(es, [[0], [1, 2], [3, 4, 5]])

    def test_left_out_block_rejected(self):
        es = cases.bgw_es(7, 3)
        with pytest.raises(
            VerificationError,
            match=r"^sum of squared block dimensions must equal the class count$",
        ):
            Eigensystem(es.algebra, es.blocks[:-1])

    def test_zero_block_rejected(self):
        # block 2 of bgw 5,2 takes E_2 + E_3 and block 3 the zero unit: every
        # unit relation, the identity sum and the adjoints hold, and only the
        # multiplicity m_3 = 0 is wrong
        es = cases.bgw_es(5, 2)
        zero = es.algebra.field.zero()
        E2, E3 = (es.blocks[b].units[(1, 1)] for b in (2, 3))
        merged = {k: E2.get(k, zero) + E3.get(k, zero) for k in {*E2, *E3}}
        bad = es.blocks[:2] + [Block("2", 1, {(1, 1): merged}), Block("3", 1, {(1, 1): {}})]
        with pytest.raises(VerificationError, match=r"^block 3 has multiplicity 0$"):
            Eigensystem(es.algebra, bad)

    def test_unit_batch_cannot_be_replaced(self):
        # the edit that once made the P/Q duality fail at row 3, class 3:
        # doubling E_12 of block a1 in the packed units after phi was cached
        es = bgw_eigensystem(cases.bgw(7, 3), 7, 3)
        P = es.eigenmatrix_p()
        units = list(es._units)
        units[2] = doubled(units[2], 1)
        with pytest.raises(AttributeError, match="^cannot set _units: a verified Eigensystem"):
            es._units = tuple(units)
        assert es.eigenmatrix_p() == P
        assert es.eigenmatrix_q() == cases.bgw_es(7, 3).eigenmatrix_q()

    def test_valencies_cannot_be_edited(self):
        # the edit that once made both dualities fail: valency 3 raised on a
        # copy of the scheme.  Setting the list raises, and a returned list
        # is a fresh copy, so raising its entry changes nothing
        scheme = copy.copy(cases.bgw(7, 3))
        with pytest.raises(AttributeError):
            scheme.valencies = [1, 1, 1, 8, 7, 7]
        ks = scheme.valencies
        ks[3] += 1
        assert scheme.valencies == cases.bgw(7, 3).valencies == [1, 1, 1, 7, 7, 7]
        fe = FusedEigensystem(bgw_eigensystem(scheme, 7, 3), bgw_symmetric_fusion(3))
        assert fused_record(fe) == FUSED_RECORDS[("bgw", 7, 3)]

    @pytest.mark.parametrize("name", ["_units", "_mult", "_phi", "algebra", "blocks"])
    def test_eigensystem_attributes_cannot_be_set(self, name):
        es = cases.bgw_es(7, 3)
        with pytest.raises(AttributeError, match=f"^cannot set {name}: "):
            setattr(es, name, getattr(es, name))

    @pytest.mark.parametrize(
        "name",
        [
            "algebra",
            "idempotents",
            "names",
            "multiplicities",
            "fused_valencies",
            "partition",
            "qhat",
            "phat",
            "_phat",
        ],
    )
    def test_fused_attributes_cannot_be_set(self, name):
        fe = cases.bgw_fused(7, 3)
        with pytest.raises(AttributeError, match=f"^cannot set {name}: a verified FusedEigensystem"):
            setattr(fe, name, getattr(fe, name))

    def test_fused_lists_are_fresh(self):
        # every list a fused system returns is a copy, and its idempotents
        # are read-only, so no edit reaches a later read
        fe = cases.bgw_fused(7, 3)
        for name in ("qhat", "phat", "partition"):
            rows = getattr(fe, name)
            rows[0].clear()
            assert getattr(fe, name)[0], name
            assert getattr(fe, name) is not getattr(fe, name)
        for name in ("names", "multiplicities", "fused_valencies"):
            getattr(fe, name).clear()
        with pytest.raises(ValueError, match="read-only"):
            fe.idempotents.num[0] = 0
        assert fused_record(fe) == FUSED_RECORDS[("bgw", 7, 3)]
        assert fe.partition == [sorted(cell) for cell in bgw_symmetric_fusion(3)]

    def test_certificate_cannot_be_edited(self):
        cert = bm_search(cases.bgw_es(7, 3), bgw_symmetric_fusion(3))
        with pytest.raises(AttributeError):
            cert.cells = []
        with pytest.raises(AttributeError):
            cert.cell_count += 1

    def test_certificate_tuples_cannot_be_edited(self):
        es = cases.bgw_es(7, 3)
        cert = bm_search(es, bgw_symmetric_fusion(3))
        with pytest.raises(AttributeError):
            cert.cells[0].append(((9, 9),))
        with pytest.raises(AttributeError):
            cert.block_names.append("x")
        with pytest.raises(TypeError):
            cert.cells[2][0] = ()
        assert cert == bm_search(es, bgw_symmetric_fusion(3))

    def test_fused_idempotents_are_fresh(self):
        # a returned Batch is a new wrapper of the read-only numerators, so
        # rescaling or replacing it leaves the fused system as recorded
        fe = FusedEigensystem(cases.bgw_es(7, 3), bgw_symmetric_fusion(3))
        E = fe.idempotents
        E.den = 1
        E.num = E.num[:1]
        assert fe.idempotents is not fe.idempotents
        assert fused_record(fe) == FUSED_RECORDS[("bgw", 7, 3)]

    def test_eigensystem_for_dispatch(self):
        es = eigensystem_for(cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})
        assert es.multiplicities == [1, 5, 3, 3]
        with pytest.raises(ValueError):
            eigensystem_for(cases.bgw(5, 2), {"family": "unknown"})


def fused_record(fe) -> str:
    """sha256 of the names, multiplicities, fused valencies, P^, Q^ and
    idempotents (numerators and denominator) of a fused eigensystem."""
    table = lambda T: [[[list(x.num), x.den] for x in row] for row in T]
    E = fe.idempotents
    rec = [fe.names, fe.multiplicities, fe.fused_valencies, table(fe.phat), table(fe.qhat)]
    return hashlib.sha256(json.dumps(rec + [E.num.tolist(), E.den]).encode()).hexdigest()


# recorded while FusedEigensystem still re-proved its idempotents with
# algebra products, before it read them off the eigensystem's certificate
FUSED_RECORDS = {
    ("bgw", 7, 3): "6855abfbed6c65f8d6589f9a0369a6f2f0d8eedd5905a76bff6f8a71da499043",
    ("bgw", 8, 7): "6939d753e2a0f4896c436237136668f17dbffb55d8a63b693e769054d731d567",
    ("bgw", 25, 12): "f4401ad3166bd531b102b7b7ff82f850f98d35e871d1feb03676b5539d7f1d9c",
    ("gh", 3): "76b25b1fda88ba129bbf5346a8f20b38af4c943eb5e4d9c482d18e6b82e09618",
    ("gh", 5): "24eeb64cf4da035cc7f1b05398a8f87bae7f829c8003db875e61b89f6b6200b6",
}


# edits of a list of blocks, each of which changes the block layout
BLOCK_EDITS = {
    "reorder": lambda blocks: blocks.reverse(),
    "rename": lambda blocks: setattr(blocks[0], "name", "x"),
    "drop": lambda blocks: blocks.pop(),
    "resize": lambda blocks: setattr(blocks[-1], "dim", 1),
}


def layout_outputs(es, fusion):
    """Everything an eigensystem reports in its block layout: the row index,
    P, Q, T, the fused names and tables, and the fusion certificate."""
    fe = FusedEigensystem(es, fusion)
    tables = (es.eigenmatrix_p(), es.eigenmatrix_q(), es.character_table())
    return es.row_index(), tables, fe.names, fe.phat, fe.qhat, bm_search(es, fusion)


class TestPackedOnce:
    @pytest.mark.parametrize("case", sorted(FUSED_RECORDS), ids=str)
    def test_fused_system_matches_the_record(self, case):
        fe = getattr(cases, case[0] + "_fused")(*case[1:])
        assert fused_record(fe) == FUSED_RECORDS[case]

    @pytest.mark.parametrize("maker,args", [("bgw", (7, 3)), ("gh", (3,))], ids=["bgw73", "gh3"])
    def test_editing_the_blocks_changes_no_output(self, maker, args):
        build = bgw_eigensystem if maker == "bgw" else gh_eigensystem
        fusion = bgw_symmetric_fusion(args[1]) if maker == "bgw" else gh_symmetric_fusion(3)
        ref = getattr(cases, maker + "_es")(*args)
        es = build(getattr(cases, maker)(*args), *args)
        units = es.blocks[-1].units
        units[(1, 2)] = es.algebra.rmul(2, units[(1, 2)])
        for name in ("eigenmatrix_p", "eigenmatrix_q", "character_table"):
            assert getattr(es, name)() == getattr(ref, name)(), name
        assert es.check_pq_duality()
        fe, fe_ref = FusedEigensystem(es, fusion), FusedEigensystem(ref, fusion)
        assert (fe.phat, fe.qhat) == (fe_ref.phat, fe_ref.qhat)
        assert bm_search(es, fusion) == bm_search(ref, fusion)

    @pytest.mark.parametrize("edit", sorted(BLOCK_EDITS))
    @pytest.mark.parametrize("whose", ["returned", "callers"])
    @pytest.mark.parametrize("maker,args", [("bgw", (7, 3)), ("gh", (3,))], ids=["bgw73", "gh3"])
    def test_editing_a_block_list_changes_no_output(self, maker, args, whose, edit):
        # the eigensystem keeps its own copy of the blocks it was given, and
        # es.blocks is a fresh copy, so an edit of either list reaches no read
        fusion = bgw_symmetric_fusion(args[1]) if maker == "bgw" else gh_symmetric_fusion(3)
        ref = getattr(cases, maker + "_es")(*args)
        blocks = [dataclasses.replace(b, units=dict(b.units)) for b in ref.blocks]
        es = Eigensystem(ref.algebra, blocks)
        BLOCK_EDITS[edit](es.blocks if whose == "returned" else blocks)
        assert layout_outputs(es, fusion) == layout_outputs(ref, fusion)

    def test_blocks_are_fresh_copies(self):
        es = cases.bgw_es(7, 3)
        a, b = es.blocks, es.blocks
        assert a == b and a is not b
        for x, y in zip(a, b):
            assert x is not y and x.units is not y.units
            assert all(x.units[ij] is not y.units[ij] for ij in x.units)

    def test_one_pack_and_no_product_past_the_unit_relations(self, monkeypatch):
        # each block is packed once, and the unit relations of
        # Eigensystem.verify, one batch per block, are the only products:
        # phi, P, Q, T, the dualities and the fused system are read off the
        # units by the trace form and the fused-class sums
        calls = {"pack": 0, "mul": 0}

        def counted(name):
            method = getattr(SchemeAlgebra, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)

            return wrapper

        monkeypatch.setattr(SchemeAlgebra, "pack", counted("pack"))
        monkeypatch.setattr(SchemeAlgebra, "mul", counted("mul"))
        es = bgw_eigensystem(cases.bgw(7, 3), 7, 3)
        assert calls == {"pack": len(es.blocks), "mul": len(es.blocks)}
        es.phi_matrices(), es.eigenmatrix_p(), es.eigenmatrix_q(), es.character_table()
        es.check_pq_duality()
        FusedEigensystem(es, bgw_symmetric_fusion(3))
        bm_search(es, bgw_symmetric_fusion(3))
        assert calls == {"pack": len(es.blocks), "mul": len(es.blocks)}

    def test_packed_units_are_read_only(self):
        es = cases.bgw_es(7, 3)
        for Ub in es._units:
            with pytest.raises(ValueError, match="read-only"):
                Ub.num[0] = 0


def shared_pack_blocks(es) -> list[Batch]:
    """The block batches made the other way: every unit in one pack over one
    denominator, then each block divided through by the gcd of its
    numerators and that denominator."""
    U = es.algebra.pack([blk.units[ij] for blk in es.blocks for ij in sorted(blk.units)])
    sizes = [blk.dim**2 for blk in es.blocks]
    out = []
    for num in np.split(U.num, np.cumsum(sizes)[:-1]):
        g = gcd(U.den, int(np.gcd.reduce(num, axis=None)))
        out.append(Batch(num // g, U.den // g))
    return out


GRID_CASES = [("bgw", c) for c in cases.BGW_BUILDABLE] + [("gh", (q,)) for q in cases.GH_GRID]


class TestBlockBatches:
    @pytest.mark.parametrize("maker,args", GRID_CASES, ids=str)
    def test_each_block_in_lowest_terms_as_one_shared_pack_gives(self, maker, args):
        es = getattr(cases, maker + "_es")(*args)
        assert len(es._units) == len(es.blocks)
        for Ub, ref in zip(es._units, shared_pack_blocks(es)):
            assert gcd(Ub.den, int(np.gcd.reduce(Ub.num, axis=None))) == 1
            assert (Ub.den, Ub.num.dtype) == (ref.den, ref.num.dtype)
            assert np.array_equal(Ub.num, ref.num)


def fused_sum(alg, cell):
    """The fused class sum of the classes of cell, as a batch of one element."""
    return alg.pack([{l: alg.field.one() for l in cell}])


def fused_idempotents(es):
    """Names and Elem dicts of the idempotents of the symmetrizing fusion:
    E_11 for a 1-dimensional block, (E_11 + E_22 +- (E_12 + E_21)) / 2 for
    a 2-dimensional one."""
    half = es.algebra.field.rat(Fraction(1, 2))
    out = []
    for blk in es.blocks:
        u = blk.units
        if blk.dim == 1:
            out.append((blk.name, u[(1, 1)]))
            continue
        for suffix, sign in (("+", half), ("-", -half)):
            e = {}
            for c, key in ((half, (1, 1)), (half, (2, 2)), (sign, (1, 2)), (sign, (2, 1))):
                for l, x in u[key].items():
                    e[l] = e.get(l, es.algebra.field.zero()) + c * x
            out.append((blk.name + suffix, {l: x for l, x in e.items() if x}))
    return out


def fused_reference(es, partition):
    """P^ of the symmetrizing fusion by the definition, with algebra products:
    e A^_t = A^_t e = c e with c = tr(e A^_t) / m_k = v (e A^_t)[A_0] / m_k,
    since tr X = v X[A_0] and tr e = m_k, the idempotent coefficients are
    constant on each fused class, and m_k c = v_t conj(Q^[t][k]).  Raises
    VerificationError with the message of the first check that fails, in
    that order."""
    alg = es.algebra
    nm, v = alg.scheme.nclasses, alg.scheme.v
    idems = fused_idempotents(es)
    cells = [sorted(cell) for cell in partition]
    zero = alg.field.zero()
    E = alg.pack([e for _, e in idems])
    H = Batch(np.concatenate([fused_sum(alg, cell).num for cell in cells]), 1)
    left = unpack(alg, alg.mul(E, H))  # e_k A^_t at k * len(cells) + t
    right = unpack(alg, alg.mul(H, E))  # A^_t e_k at t * len(idems) + k
    mult = [mk for blk, mk in zip(es.blocks, es.multiplicities) for _ in range(blk.dim)]
    phat = []
    for k, (name, e) in enumerate(idems):
        phat.append([])
        for t in range(len(cells)):
            lt = left[k * len(cells) + t]
            c = lt.get(0, zero).scale(Fraction(v, mult[k]))
            ce = {l: c * x for l, x in e.items() if c * x}
            if ce != lt or right[t * len(idems) + k] != lt:
                raise VerificationError(
                    f"fused class {t} does not act as a scalar on idempotent {name}"
                )
            phat[-1].append(c)
    for cell in cells:
        for _, e in idems:
            if len({e.get(l, zero) for l in cell}) != 1:
                raise VerificationError("idempotent coefficients not constant on a fused class")
    for k, (name, e) in enumerate(idems):
        for t, cell in enumerate(cells):
            vt = sum(alg.scheme.valencies[l] for l in cell)
            if phat[k][t].scale(mult[k]) != e.get(cell[0], zero).scale(v * vt).conj():
                raise VerificationError(f"fused duality failed at idempotent {name}, class {t}")
    return phat


def fused_outcome(make):
    """P^ of a fused system, or the message it raises."""
    try:
        return make()
    except VerificationError as e:
        return str(e)


def adjacency_basis(alg):
    """The adjacency basis A_0, ..., A_{nm-1} as a batch; A_0 is the identity."""
    nm, D = alg.scheme.nclasses, alg.field.dim
    return Batch(np.eye(nm, dtype=np.int64)[:, :, None] * np.eye(1, D, dtype=np.int64), 1)


def paired(alg, X, Y):
    """Z[n, l] = X[n, l] Y[n] for a batch X of shape (n, k) and a batch Y of
    n elements, read off the product table of X, flattened, and Y."""
    n, k, nm, D = X.num.shape
    T = alg.mul(Batch(X.num.reshape(n * k, nm, D), X.den), Y)
    r = np.arange(n)
    return Batch(T.num.reshape(n, k, n, nm, D)[r, :, r], T.den)


def on_identity(alg, X):
    """A batch of scalars X as the elements X A_0 of the algebra."""
    num = np.zeros(X.num.shape[:-2] + (alg.scheme.nclasses, X.num.shape[-1]), X.num.dtype)
    num[..., 0, :] = X.num[..., 0, :]
    return Batch(num, X.den)


REFERENCE_CASES = (
    [("bgw", c) for c in cases.BGW_BUILDABLE + [(17, 8), (25, 12)]]
    + [("gh", (q,)) for q in cases.GH_GRID]
)


class TestProductReferences:
    """phi and P^ against the algebra products that define them."""

    @pytest.mark.parametrize("maker,args", REFERENCE_CASES, ids=str)
    def test_units_and_idempotents_satisfy_the_product_definitions(self, maker, args):
        es = getattr(cases, maker + "_es")(*args)
        # the units and phi of every block, over the lcm of the block denominators
        alg, U, phi = es.algebra, kernel.joined(es._units), kernel.joined(es._phi)
        keys = [(b, i, j) for b, blk in enumerate(es.blocks) for i, j in sorted(blk.units)]
        pos = {key: n for n, key in enumerate(keys)}
        A = adjacency_basis(alg)
        phiE = paired(alg, on_identity(alg, phi), U)
        # the identity sum and completeness, theorems of Eigensystem.verify and _phi
        diag = [n for n, (_, i, j) in enumerate(keys) if i == j]
        assert Batch(U.num[diag].sum(axis=0), U.den).equal(A[0])
        assert Batch(phiE.num.sum(axis=0), phiE.den).equal(A).all()
        # E_ii A_l E_jj = phi[(k,i,j), l] E_ij
        Y = paired(
            alg,
            alg.mul(U[[pos[(b, i, i)] for b, i, _ in keys]], A),
            U[[pos[(b, j, j)] for b, _, j in keys]],
        )
        assert phiE.equal(Y).all()
        # e A^_t = A^_t e = P^[e, t] e
        fe = getattr(cases, maker + "_fused")(*args)
        E = fe.idempotents
        H = Batch(np.concatenate([fused_sum(alg, cell).num for cell in fe.partition]), 1)
        Pb = kernel.pack(alg.field, fe.phat)
        PE = paired(alg, on_identity(alg, Batch(Pb.num[:, :, None, :], Pb.den)), E)
        assert PE.equal(alg.mul(E, H)).all()
        HE = alg.mul(H, E)
        assert PE.equal(Batch(HE.num.swapaxes(0, 1), HE.den)).all()
        assert fe.phat == fused_reference(es, fe.partition)

    def test_gh_eigenvalue_equations_fail_past_the_constancy_check(self):
        # the type-1 classes 4 and 5 of gh 3 split: every idempotent is
        # constant on each cell, but class 4 alone is not symmetric on a1
        es = cases.gh_es(3)
        partition = [[0], [1, 2], [3], [4], [5], [6]]
        want = "fused class 3 does not act as a scalar on idempotent a1+"
        assert fused_outcome(lambda: fused_reference(es, partition)) == want
        with pytest.raises(VerificationError, match="^" + re.escape(want) + "$"):
            FusedEigensystem(es, partition)


KERNEL_CASES = {"bgw52": ("bgw_es", (5, 2)), "bgw73": ("bgw_es", (7, 3)), "gh3": ("gh_es", (3,))}
# the kernel limit that forces each tier: float64 is the default for small bounds
TIERS = {"float64": {}, "object": {"FLOAT_LIMIT": 0}}


def tiers_seen(monkeypatch) -> set:
    """The dtypes kernel.exact picks from here on, collected as it runs."""
    seen, exact = set(), kernel.exact

    def spy(bound, *arrays):
        out = exact(bound, *arrays)
        seen.update(a.dtype for a in out)
        return out

    monkeypatch.setattr(kernel, "exact", spy)
    return seen


@st.composite
def elements(draw, alg, count):
    field, nm = alg.field, alg.scheme.nclasses
    coeffs = st.lists(st.integers(-108, 108), min_size=field.dim, max_size=field.dim)
    out = []
    for _ in range(count):
        e = {}
        for k in draw(st.sets(st.integers(0, nm - 1), max_size=nm)):
            c = CycScalar(field, draw(coeffs), draw(st.integers(1, 12)))
            if c:
                e[k] = c
        out.append(e)
    return out


class TestKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    @given(data=st.data())
    def test_batched_products_match_dict_products(self, case, data):
        maker, args = KERNEL_CASES[case]
        alg = getattr(cases, maker)(*args).algebra
        X = data.draw(elements(alg, data.draw(st.integers(1, 3))))
        Y = data.draw(elements(alg, data.draw(st.integers(1, 3))))
        got = unpack(alg, alg.mul(alg.pack(X), alg.pack(Y)))
        assert got == [dict_mul(alg, x, y) for x in X for y in Y]

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    @given(data=st.data())
    def test_pack_is_in_lowest_terms(self, case, data):
        maker, args = KERNEL_CASES[case]
        alg = getattr(cases, maker)(*args).algebra
        X = data.draw(elements(alg, data.draw(st.integers(1, 3))))
        U = alg.pack(X)
        assert gcd(U.den, int(np.gcd.reduce(U.num, axis=None))) == 1
        assert unpack(alg, U) == X

    def test_object_path_past_the_int64_bound(self):
        es = cases.bgw_es(7, 3)
        alg = es.algebra
        U = [b.units[ij] for b in es.blocks for ij in sorted(b.units)]
        small = alg.mul(alg.pack(U), alg.pack(U))
        assert small.num.dtype == np.int64
        # one tiny element puts every other numerator near 2**61
        tiny = Fraction(1, 2**61)
        big = alg.pack([alg.rmul(tiny, U[0])] + U[1:])
        assert kernel.absmax(big.num) >= 2**61
        prod = alg.mul(big, big)
        assert prod.num.dtype == object
        scale = [tiny] + [1] * (len(U) - 1)
        want = [
            alg.rmul(scale[a] * scale[b], e)
            for (a, b), e in zip(np.ndindex(len(U), len(U)), unpack(alg, small))
        ]
        assert unpack(alg, prod) == want

    def test_product_bound_counts_the_intersection_numbers(self):
        # bgw 4,3 has v = 15 and D = 2; x = c J with c = 2**25 + 1 has
        # c**2 < 2**51, so only the row sums v of p carry the bound past
        # 2**53, and J J = 15 J puts 15 c**2 > 2**53 in every class
        alg = cases.bgw_es(4, 3).algebra
        nm, D = alg.scheme.nclasses, alg.field.structure.shape[0]
        assert (alg.scheme.v, D) == (15, 2)
        c = 2**25 + 1
        x = Batch(np.zeros((1, nm, D), dtype=np.int64), 1)
        x.num[..., 0] = c
        got = alg.mul(x, x)
        assert got.num.dtype == object and got.den == 1
        assert got.num.tolist() == [[[[15 * c * c, 0]] * nm]]

    def test_combination_past_the_int64_bound(self):
        # two scalars near 2**61 of bgw (7,3), whose basis has 4 entries
        x = kernel.Batch(np.array([[[2**61, 0, 0, 1]], [[2**61, 0, 0, -1]]]), 1)
        w = np.array([[1, 1], [1, -1], [3, 0]])
        got = kernel.combine(w, x)
        assert got.num.dtype == object
        assert got.num[:, 0].tolist() == [[2**62, 0, 0, 0], [0, 0, 0, 2], [3 * 2**61, 0, 0, 3]]
        small = kernel.combine(w, kernel.Batch(x.num // 2**58, 1))
        assert small.num.dtype == np.int64
        # along a later axis: the two rows of a batch of shape (1, 2)
        along = kernel.combine(w, kernel.Batch(x.num[None], 1), axis=1)
        assert along.num[0].tolist() == got.num.tolist()

    @pytest.mark.parametrize("tier", sorted(TIERS))
    @pytest.mark.parametrize("maker,args", [("bgw", (7, 3)), ("gh", (3,))], ids=["bgw73", "gh3"])
    def test_each_tier_certifies_the_same_tables(self, monkeypatch, maker, args, tier):
        scheme = getattr(cases, maker)(*args)
        es = getattr(cases, maker + "_es")(*args)
        fe = getattr(cases, maker + "_fused")(*args)
        build = bgw_eigensystem if maker == "bgw" else gh_eigensystem
        fusion = bgw_symmetric_fusion(args[1]) if maker == "bgw" else gh_symmetric_fusion(3)
        # with the limits below the tier set to 0, every kernel operation runs on it
        for name, value in TIERS[tier].items():
            monkeypatch.setattr(kernel, name, value)
        seen = tiers_seen(monkeypatch)
        es2 = build(scheme, *args)
        assert es2.eigenmatrix_p() == es.eigenmatrix_p()
        fe2 = FusedEigensystem(es2, fusion)
        assert (fe2.phat, fe2.qhat) == (fe.phat, fe.qhat)
        bad = mutated(es2, len(es2.blocks) - 1, (1, 2), lambda e: es2.algebra.rmul(2, e))
        with pytest.raises(VerificationError, match="unit relation failed"):
            Eigensystem(es2.algebra, bad)
        # E_12 -> (1 + 1/65521) E_12 puts the prime 65521 into the denominator
        # of the last block alone, and breaks E_12 E_21 = E_11
        name = es2.blocks[-1].name
        scaled = lambda e: es2.algebra.rmul(Fraction(65522, 65521), e)
        prime = mutated(es2, len(es2.blocks) - 1, (1, 2), scaled)
        pair = f"block {name} (1,2) times block {name} (2,1)"
        with pytest.raises(VerificationError, match=f"^unit relation failed: {re.escape(pair)}$"):
            Eigensystem(es2.algebra, prime)
        assert seen == {np.dtype(tier)}

    def test_tier_boundaries(self):
        a = np.array([3])
        got = [kernel.exact(b, a)[0].dtype for b in (2**53 - 1, 2**53, 2**62)]
        assert got == [np.float64, object, object]

    @pytest.mark.parametrize(
        "maker,args", REFERENCE_CASES + [("bgw", (199, 11)), ("bgw", (751, 5))], ids=str
    )
    def test_certify_selects_only_float64(self, monkeypatch, maker, args):
        # one certify: Eigensystem, P, Q, T, the fused system and bm_search;
        # bgw 199,11 and 751,5 would cross 2**53 with one denominator for all
        # blocks, but each block in its own lowest terms stays below it
        scheme = getattr(cases, maker)(*args)
        build = bgw_eigensystem if maker == "bgw" else gh_eigensystem
        fusion = bgw_symmetric_fusion(args[1]) if maker == "bgw" else gh_symmetric_fusion(*args)
        seen = tiers_seen(monkeypatch)
        es = build(scheme, *args)
        es.eigenmatrix_p(), es.eigenmatrix_q(), es.character_table()
        FusedEigensystem(es, fusion)
        bm_search(es, fusion)
        assert seen == {np.dtype(np.float64)}

    def test_combination_past_the_float64_bound(self, monkeypatch):
        # 2**53 + 1 is the first integer float64 cannot hold
        x = kernel.Batch(np.array([[[2**53]], [[1]]]), 1)
        w = np.array([[1, 1]])
        got = kernel.combine(w, x)
        assert got.num.dtype == object
        assert got.num.tolist() == [[[2**53 + 1]]]
        # the control has teeth: run on float64 past its bound, it rounds
        monkeypatch.setattr(kernel, "FLOAT_LIMIT", 2**62)
        assert kernel.combine(w, x).num.tolist() == [[[2**53]]]

    def test_batches_stay_integer(self, monkeypatch):
        es = cases.bgw_es(7, 3)
        alg, field = es.algebra, es.algebra.field
        seen = tiers_seen(monkeypatch)
        U = alg.pack([b.units[ij] for b in es.blocks for ij in sorted(b.units)])
        out = [
            U,
            U[1:3],
            alg.mul(U, U),
            kernel.combine(np.array([[1, -2], [3, 0]]), U[:2]),
            kernel.combine(np.array([[2, 1]]), Batch(U.num[:, :2], U.den), axis=1),
            kernel.adjoint(U, alg.scheme.tpose, field),
        ]
        assert np.dtype(np.float64) in seen
        assert [b.num.dtype for b in out] == [np.dtype(np.int64)] * len(out)
        assert out[0].equal(Batch(2 * U.num, 2 * U.den)).all()
        assert kernel._scaled(U.num, 3).dtype == np.int64

    def test_product_past_the_float64_bound(self, monkeypatch):
        # the two-point scheme over Q: A_0 = I, A_1 = J - I and A_1 A_1 = A_0,
        # so (2**53 A_0 + A_1)(A_0 + A_1) = (2**53 + 1) (A_0 + A_1)
        scheme = AssociationScheme.from_matrices(np.array([[0, 1], [1, 0]]), ["0", "1"])
        alg = SchemeAlgebra(scheme, CycField(1))
        x = Batch(np.array([[[2**53], [1]]]), 1)
        y = Batch(np.array([[[1], [1]]]), 1)
        got = alg.mul(x, y)
        assert got.num.dtype == object
        assert got.num.tolist() == [[[[2**53 + 1], [2**53 + 1]]]]
        # the control has teeth: run on float64 past its bound, it rounds
        monkeypatch.setattr(kernel, "FLOAT_LIMIT", 2**62)
        assert alg.mul(x, y).num[0, 0, 0].tolist() == [2**53]

    @pytest.mark.parametrize("tier", sorted(TIERS))
    @pytest.mark.parametrize(
        "maker,args", [("bgw", (7, 3)), ("gh", (5,)), ("bgw", (8, 7))], ids=["bgw73", "gh5", "bgw87"]
    )
    def test_table_entries_match_single_products(self, monkeypatch, maker, args, tier):
        # fields with a radical part (radicand 7), none (gh 5) and a radicand
        # 8 = 2**2 * 2 with a square factor (bgw 8,7)
        alg = getattr(cases, maker + "_es")(*args).algebra
        nm, D = alg.scheme.nclasses, alg.field.dim
        for name, value in TIERS[tier].items():
            monkeypatch.setattr(kernel, name, value)
        rng = np.random.default_rng(7)
        x = Batch(rng.integers(-9, 10, (4, nm, D)), 2)
        y = Batch(rng.integers(-9, 10, (5, nm, D)), 3)
        got = alg.mul(x, y)
        assert got.num.shape == (4, 5, nm, D)
        assert got.num.dtype == np.dtype(np.int64 if tier == "float64" else object)
        X, Y = unpack(alg, x), unpack(alg, y)
        for a, b in np.ndindex(4, 5):
            single = alg.mul(x[[a]], y[[b]])
            assert got[a, b].equal(single[0, 0]), (a, b)
            assert unpack(alg, single) == [dict_mul(alg, X[a], Y[b])], (a, b)

    @pytest.mark.parametrize(
        "q,m", [(8, 7), (27, 13), (47, 23)], ids=["bgw87", "bgw27_13", "bgw47_23"]
    )
    def test_table_peak_is_a_few_tables(self, q, m):
        # the unit table U U holds nm**3 * D entries, the factor Y as many
        # and X nm**2 * D**2, under one table since D < nm for bgw; with the
        # GEMM output the peak is near three tables, at any nm
        es = cases.bgw_es(q, m)
        U = kernel.joined(es._units)  # every unit, as packed
        tracemalloc.start()
        try:
            z = es.algebra.mul(U, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * z.num.nbytes

    def test_eigensystem_peak_is_a_few_block_tables(self):
        # verify multiplies one block's d**2 units at a time, so at bgw 47,23
        # (nm 46, D 44) it stays under the 32.7 MiB that the table of all
        # nm**2 unit products alone would take
        scheme = cases.bgw(47, 23)
        tracemalloc.start()
        try:
            bgw_eigensystem(scheme, 47, 23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_structure_tensor(self):
        # against the numeric embedding: e_r e_s = sum_t mult[r, s, t] e_t
        # and conj(e_r) = sum_t conj[r, t] e_t, for the field of every case
        fields = {CycField(m, q) for q, m in cases.BGW_BUILDABLE}
        fields |= {CycField(FiniteField(q).p) for q in cases.GH_GRID}
        for f in fields:
            mult, conj = f.structure, f.conjugation
            basis = np.eye(f.dim, dtype=int).tolist()
            e = np.array([CycScalar(f, row).to_complex() for row in basis])
            scale = np.abs(mult).sum(axis=2).max()
            assert np.abs(e[:, None] * e[None, :] - mult @ e).max() < 1e-9 * scale, f
            assert np.abs(e.conj() - conj @ e).max() < 1e-9 * np.abs(conj).sum(axis=1).max(), f


def constructed(field, num, den) -> list[CycScalar]:
    """Each row of num over den through the normalizing constructor."""
    return [CycScalar(field, row, den) for row in np.asarray(num).reshape(-1, field.dim).tolist()]


def assert_same_scalars(got, want):
    assert got == want
    for x, y in zip(got, want):
        assert hash(x) == hash(y) and x.field is y.field
        assert type(x.num) is tuple and all(type(c) is int for c in x.num) and type(x.den) is int


SCALAR_FIELD = CycField(3, 2)  # D = 4: zeta_3^0, zeta_3^1, and sqrt(2) times each


class TestScalars:
    """kernel.scalars normalizes a batch at once; each entry equals, with the
    same hash, the scalar that the constructor normalizes on its own."""

    @pytest.mark.parametrize(
        "num,den",
        [
            ([[-6, 4, 0, -2], [3, -9, 0, 0]], 8),  # negative entries
            ([[0, 0, 0, 0], [0, 5, 0, 0]], 6),  # zero entries
            ([[6, 12, -18, 0], [30, 0, 0, -60]], 30),  # den shares 6 with every coefficient
            ([[6, 12, -18, 0], [0, 0, 0, 0]], 1),
            ([[2**64, -2**70, 0, 3 * 2**63]], 2**65),  # past 2**63, object tier
            ([[2**64 * 3, 0, 0, 0], [1, 0, 0, 0]], 9),
        ],
        ids=["negative", "zero", "shared", "den1", "big-den", "big"],
    )
    def test_listed_entries(self, num, den):
        big = max(abs(x) for row in num for x in row) >= 2**63
        b = Batch(np.array(num, dtype=object if big else np.int64)[:, None, :], den)
        assert b.num.dtype == (object if big else np.int64)
        assert_same_scalars(kernel.scalars(SCALAR_FIELD, b), constructed(SCALAR_FIELD, num, den))

    def test_int64_entries_over_a_denominator_past_2_63(self):
        num = [[2**40, -2**41, 0, 6]]
        b = Batch(np.array(num), 2**66)
        assert b.num.dtype == np.int64
        assert_same_scalars(kernel.scalars(SCALAR_FIELD, b), constructed(SCALAR_FIELD, num, 2**66))

    @given(data=st.data())
    def test_random_batches(self, data):
        big = data.draw(st.booleans())
        limit = 2**70 if big else 2**40
        n = data.draw(st.integers(0, 5))
        num = data.draw(
            st.lists(st.lists(st.integers(-limit, limit), min_size=4, max_size=4), min_size=n, max_size=n)
        )
        # a common factor of every coefficient and the denominator
        g, den = data.draw(st.integers(1, 2**10)), data.draw(st.one_of(st.just(1), st.integers(1, 2**20)))
        num = [[g * x for x in row] for row in num]
        arr = np.array(num, dtype=object if big else np.int64).reshape(n, 1, 4)
        got = kernel.scalars(SCALAR_FIELD, Batch(arr, g * den))
        assert_same_scalars(got, constructed(SCALAR_FIELD, arr, g * den))


class TestRankAndMaterialize:
    @pytest.mark.parametrize(
        "maker,args",
        [("bgw_es", (5, 2)), ("bgw_es", (4, 3)), ("gh_es", (3,))],
        ids=["bgw52", "bgw43", "gh3"],
    )
    def test_exact_rank_of_diagonal_units(self, maker, args):
        es = getattr(cases, maker)(*args)
        scheme = es.algebra.scheme
        field = es.algebra.field
        for blk, mk in zip(es.blocks, es.multiplicities):
            for i in range(1, blk.dim + 1):
                M = materialize(scheme, blk.units[(i, i)], field)
                assert exact_rank(M) == mk

    def test_materialize_trivial_idempotent(self):
        es = cases.bgw_es(5, 2)
        scheme = es.algebra.scheme
        field = es.algebra.field
        M = materialize(scheme, es.blocks[0].units[(1, 1)], field)
        want = field.rat(Fraction(1, scheme.v))
        assert all(x == want for row in M for x in row)


def signatures(es, partition):
    """For each block, map (i, j) -> the fused-class sums of phi
    (_fused_sums), as one integer vector over the denominator that the
    block's sums share: the keys that bm_search groups the unit pairs by."""
    sigs = []
    for blk, S in zip(es.blocks, _fused_sums(es, partition)):
        units = sorted(blk.units)  # row-major, the order of the block's rows
        sigs.append({ij: tuple(S.num[n].ravel().tolist()) for n, ij in enumerate(units)})
    return sigs


class TestSignatures:
    @pytest.mark.parametrize(
        "maker,args", [("bgw", (7, 3)), ("bgw", (13, 6)), ("gh", (3,))], ids=str
    )
    def test_integer_signatures_group_as_scalar_sums(self, maker, args):
        # reference: the fused-class sums of phi, added scalar by scalar
        es = getattr(cases, maker + "_es")(*args)
        nm = es.algebra.scheme.nclasses
        fusion = bgw_symmetric_fusion(args[1]) if maker == "bgw" else gh_symmetric_fusion(3)
        phis, zero = es.phi_matrices(), es.algebra.field.zero()
        for partition in (fusion, [[0], list(range(1, nm))], [[l] for l in range(nm)]):
            for b, table in enumerate(signatures(es, partition)):
                ref = {
                    (i, j): tuple(
                        sum((phis[b][l][i - 1][j - 1] for l in cell), zero) for cell in partition
                    )
                    for i, j in table
                }
                for x in table:
                    assert [table[x] == table[y] for y in table] == [ref[x] == ref[y] for y in table]


class TestFusionCertificates:
    def test_product_form_for_discrete_partition(self):
        es = cases.bgw_es(5, 2)
        cert = bm_search(es, bgw_symmetric_fusion(2))
        assert cert is not None
        assert cert.product_form
        assert cert.cell_count == 4

    def test_no_product_form_for_noncommutative_fusion(self):
        es = cases.bgw_es(7, 3)
        cert = bm_search(es, bgw_symmetric_fusion(3))
        assert cert is not None and not cert.product_form

    def test_general_cells_for_bgw73(self):
        es = cases.bgw_es(7, 3)
        cert = bm_search(es, bgw_symmetric_fusion(3))
        assert cert is not None
        assert not cert.product_form
        assert cert.cell_count == 4
        assert cert.block_names == ("0", "1", "a1")
        assert cert.cells[2] == (((1, 1), (2, 2)), ((1, 2), (2, 1)))

    def test_general_cells_for_gh3(self):
        es = cases.gh_es(3)
        cert = bm_search(es, gh_symmetric_fusion(3))
        assert cert is not None
        assert not cert.product_form
        assert cert.cell_count == 5
        assert cert.cells[3] == (((1, 1), (2, 2)), ((1, 2), (2, 1)))

    def test_unfusable_partition_has_no_certificate(self):
        # pairing a nonzero class with zero-type partner of the wrong sign
        es = cases.bgw_es(13, 3)
        bad = [[0], [1, 2], [3, 4], [5]]
        assert bm_search(es, bad) is None


def closure_reference(cells) -> bool:
    """_closure_ok by counting: #{j : (a,j) in C, (j,b) in C'} must be
    constant on every cell, for every pair of cells C, C'."""
    for C in cells:
        for C2 in cells:
            counts = {}
            for a, j in C:
                for j2, b in C2:
                    if j == j2:
                        counts[(a, b)] = counts.get((a, b), 0) + 1
            if any(len({counts.get(ij, 0) for ij in cell}) != 1 for cell in cells):
                return False
    return True


def labelled_cells(d: int, labeling) -> list[tuple[tuple[int, int], ...]]:
    """The cells of the unit index pairs of a d x d block, in row-major
    order, that give the pairs the same label."""
    cells: dict[int, list] = {}
    for n, c in enumerate(labeling):
        cells.setdefault(int(c), []).append((n // d + 1, n % d + 1))
    return [tuple(cell) for cell in cells.values()]


class TestClosureCheck:
    def test_every_partition_of_a_2x2_block(self):
        # every labeling of the 4 pairs by 4 labels gives each of the 15 partitions
        outcomes = [
            (_closure_ok(cells), closure_reference(cells))
            for cells in (labelled_cells(2, g) for g in np.ndindex(4, 4, 4, 4))
        ]
        assert all(ours == ref for ours, ref in outcomes)
        assert {ours for ours, _ in outcomes} == {True, False}

    def test_random_partitions_of_a_3x3_block(self):
        rng = np.random.default_rng(0)
        outcomes = []
        for _ in range(400):
            cells = labelled_cells(3, rng.integers(0, rng.integers(1, 10), 9))
            outcomes.append((_closure_ok(cells), closure_reference(cells)))
        assert all(ours == ref for ours, ref in outcomes)
        assert {ours for ours, _ in outcomes} == {True, False}


def class_partitions(nm: int):
    """Every partition of the classes 0..nm-1 with {0} a cell, from the
    restricted growth strings of 1..nm-1 (nm >= 2)."""
    growth = [0] * (nm - 1)
    while True:
        cells: list[list[int]] = [[] for _ in range(max(growth) + 1)]
        for c, t in enumerate(growth, start=1):
            cells[t].append(c)
        yield [[0]] + cells
        # the next restricted growth string: bump the last entry that may grow
        i = nm - 2
        while i > 0 and growth[i] > max(growth[:i]):
            i -= 1
        if i == 0:
            return
        growth[i] += 1
        growth[i + 1 :] = [0] * (nm - 2 - i)


# instance -> (partitions, fusions, certified by bm_search), with {0} a cell
FUSION_COUNTS = {
    ("bgw", 5, 2): (5, 3, 1),
    ("bgw", 7, 3): (52, 7, 2),
    ("bgw", 4, 3): (52, 10, 2),
    ("gh", 3): (203, 13, 2),
    ("bgw", 9, 4): (877, 20, 2),
}


class TestEveryPartition:
    @pytest.mark.parametrize("case", sorted(FUSION_COUNTS), ids=str)
    def test_certified_partitions_are_fusions(self, case):
        scheme = getattr(cases, case[0])(*case[1:])
        es = getattr(cases, case[0] + "_es")(*case[1:])
        discrete = [[c] for c in range(scheme.nclasses)]
        partitions = fusions = certified = 0
        for partition in class_partitions(scheme.nclasses):
            partitions += 1
            try:
                scheme.fuse(partition)
                fusions += 1
                fusion = True
            except NotAScheme:
                fusion = False
            cert = bm_search(es, partition)
            if cert is None:
                continue
            certified += 1
            assert fusion, partition
            assert cert.cell_count == len(partition)
            assert cert.product_form == (partition == discrete), partition
        assert (partitions, fusions, certified) == FUSION_COUNTS[case]

    @pytest.mark.parametrize("case", sorted(FUSION_COUNTS), ids=str)
    def test_fused_system_agrees_with_the_product_reference(self, case):
        es = getattr(cases, case[0] + "_es")(*case[1:])
        accepted = 0
        for partition in class_partitions(es.algebra.scheme.nclasses):
            got = fused_outcome(lambda: FusedEigensystem(es, partition).phat)
            assert got == fused_outcome(lambda: fused_reference(es, partition)), partition
            accepted += not isinstance(got, str)
        assert accepted == 1  # the symmetrizing fusion alone


MALFORMED = {
    "uncovered": ([[0]], "cover every class exactly once"),
    "class-twice": ([[0], [1], [1], [2], [3]], "cover every class exactly once"),
    "identity-merged": ([[0, 1], [2], [3]], "identity class must stay alone"),
    "empty-cell": ([[0], [1], [], [2], [3]], "cells must be nonempty"),
    "float-class": ([[0], [1.0], [2], [3]], "classes must be integers"),
    "bool-class": ([[0], [True], [2], [3]], "classes must be integers"),
    "int-cell": ([[0], 1, [2], [3]], "a partition is a list of lists"),
    "no-partition": (None, "a partition is a list of lists"),
    "dict-cell": ([[0], {1: 1}, [2], [3]], "a partition is a list of lists"),
}
ENTRY_POINTS = {
    "fuse": lambda es, partition: es.algebra.scheme.fuse(partition),
    "FusedEigensystem": FusedEigensystem,
    "bm_search": bm_search,
}


class TestMalformedPartitions:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_raises_value_error(self, entry, shape):
        partition, message = MALFORMED[shape]
        with pytest.raises(ValueError, match=message):
            ENTRY_POINTS[entry](cases.bgw_es(5, 2), partition)


class TestA4GroupScheme:
    """The thin scheme of A4 (groupschemes.py), whose 3-dimensional block no
    family instance has."""

    @pytest.fixture(scope="class")
    def es(self):
        return groupschemes.a4_eigensystem()

    def test_units_verify_with_the_character_degrees(self, es):
        assert (es.algebra.scheme.v, es.algebra.scheme.nclasses) == (12, 12)
        assert [blk.dim for blk in es.blocks] == [1, 1, 1, 3]
        assert es.multiplicities == [1, 1, 1, 3]

    @pytest.mark.parametrize("seed", cases.SEEDS)
    def test_oracle_reads_the_exact_blocks(self, es, seed):
        # the two conjugate characters through A4 / V4 are separate blocks
        exact = sorted((blk.dim, m) for blk, m in zip(es.blocks, es.multiplicities))
        assert exact == [(1, 1), (1, 1), (1, 1), (3, 3)]
        assert oracle_spectrum(es.algebra.scheme.L, seed=seed) == exact

    def test_fused_eigensystem_refuses_the_3_dimensional_block(self, es):
        with pytest.raises(VerificationError, match="^blocks of dimension > 2 not supported$"):
            FusedEigensystem(es, [[k] for k in range(12)])

    def test_discrete_partition_is_certified_in_product_form(self, es):
        cert = bm_search(es, [[k] for k in range(12)])
        assert cert is not None and cert.cell_count == 12 and cert.product_form
        # each of the 9 units of the 3-dimensional block is a cell of its own
        assert cert.cells[3] == tuple(((i, j),) for i in range(1, 4) for j in range(1, 4))

    def test_inverse_pairs_are_no_fusion(self, es):
        # A4 is neither abelian nor a Hamiltonian 2-group, so the symmetric
        # elements do not commute and their span is not closed
        pairs = groupschemes.a4_inverse_pairs()
        assert len(pairs) == 8
        assert bm_search(es, pairs) is None
        with pytest.raises(NotAScheme):
            es.algebra.scheme.fuse(pairs)

    @pytest.mark.parametrize("ij", [(1, 1), (1, 2), (3, 1)], ids=str)
    def test_scaled_unit_of_the_3_dimensional_block_rejected(self, es, ij):
        bad = mutated(es, 3, ij, lambda e: es.algebra.rmul(2, e))
        with pytest.raises(VerificationError, match="^unit relation failed: block rho "):
            Eigensystem(es.algebra, bad)
