"""Wedderburn systems, eigenmatrices, character tables, duality, fusion."""
import copy
import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwschemes import (
    CycField,
    CycScalar,
    FiniteField,
    NotAScheme,
    VerificationError,
    bgw_eigensystem,
    bgw_symmetric_fusion,
    bm_search,
    eigensystem_for,
    gh_eigensystem,
    gh_symmetric_fusion,
    gh_transversal,
    scalar_from_str,
)
from gwschemes import kernel
from gwschemes.kernel import Batch
from gwschemes.spectra import (
    Block,
    Eigensystem,
    FusedEigensystem,
    SchemeAlgebra,
    _signatures,
    bgw_f_elements,
    gh_f_elements,
)
import cases
import closedforms as cf


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
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def materialize(scheme, elem, field):
    """An algebra element as an explicit v x v matrix of scalars (small v only)."""
    zero = field.zero()
    return [[elem.get(int(c), zero) for c in row] for row in scheme.L]


def parse_table(field, rows):
    return [[scalar_from_str(field, s) for s in row] for row in rows]


# Reference tables, frozen from the closed-form displays.  Entries are exact
# scalar strings over Q(zeta_m)[sqrt(q)] (z = zeta, r = sqrt(q)).

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
        f = es.algebra.field
        assert es.eigenmatrix_p() == parse_table(f, BGW73_P)
        assert es.eigenmatrix_q() == parse_table(f, BGW73_Q)
        assert es.character_table() == parse_table(f, BGW73_T)
        assert es.check_pq_duality()

    def test_fusion(self):
        assert bgw_symmetric_fusion(3) == [[0], [1, 2], [3], [4, 5]]
        fe = cases.bgw_fused(7, 3)
        f = fe.algebra.field
        assert fe.names == ["0", "1", "a1+", "a1-"]
        assert fe.multiplicities == [1, 7, 8, 8]
        assert fe.qhat == parse_table(f, BGW73_QHAT)
        assert fe.phat == parse_table(f, BGW73_PHAT)
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
        f = es.algebra.field
        assert es.eigenmatrix_p() == parse_table(f, BGW52_P)
        assert es.eigenmatrix_q() == parse_table(f, BGW52_Q)
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
        f = es.algebra.field
        assert es.eigenmatrix_p() == parse_table(f, GH3_P)
        assert es.eigenmatrix_q() == parse_table(f, GH3_Q)
        assert es.character_table() == parse_table(f, GH3_T)
        assert es.check_pq_duality()

    def test_fusion(self):
        assert gh_symmetric_fusion(3) == [[0], [1, 2], [3], [4, 5], [6]]
        fe = cases.gh_fused(3)
        f = fe.algebra.field
        assert fe.names == ["0", "1", "2", "a1+", "a1-"]
        assert fe.multiplicities == [1, 8, 3, 12, 12]
        assert fe.qhat == parse_table(f, GH3_QHAT)
        assert fe.phat == parse_table(f, GH3_PHAT)
        fused = cases.gh(3).fuse(gh_symmetric_fusion(3))
        assert fused.classify() == "symmetric"


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


class TestFElementRules:
    # the terms added up below lie on disjoint classes (type 0, type 1 and
    # the class 2q of gh), so a union of dicts adds them

    def test_bgw_f_products(self):
        q, m = 7, 3
        es = cases.bgw_es(q, m)
        alg = es.algebra
        F0 = bgw_f_elements(alg, m, 0)
        F1 = bgw_f_elements(alg, m, 1)
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
        F0 = gh_f_elements(alg, F, 0)
        F1 = gh_f_elements(alg, F, 1)
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


def first_failing_pair(alg, blocks):
    """The unit pair the verifier must name: the first, in row-major order,
    whose product differs from the unit relation."""
    flat = [
        (blk, i, j)
        for blk in blocks
        for i in range(1, blk.dim + 1)
        for j in range(1, blk.dim + 1)
    ]
    for b, i, j in flat:
        for b2, i2, j2 in flat:
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


class TestVerificationTeeth:
    def test_scaled_unit_rejected(self):
        es = bgw_eigensystem(cases.bgw(5, 2), 5, 2)
        alg = es.algebra
        bad = [Block(b.name, b.dim, dict(b.units)) for b in es.blocks]
        bad[1].units[(1, 1)] = alg.rmul(2, bad[1].units[(1, 1)])
        with pytest.raises(VerificationError):
            Eigensystem(alg, bad)

    @pytest.mark.parametrize(
        "edit,says",
        [
            (lambda b: b.units.pop((2, 1)), r"block a1 of dim 2 lacks unit \(2, 1\)"),
            (lambda b: setattr(b, "dim", 3), r"block a1 of dim 3 lacks unit \(1, 3\)"),
            (lambda b: setattr(b, "dim", 1), r"block a1 of dim 1 has extra unit \(1, 2\)"),
            (
                lambda b: b.units.update({(3, 3): b.units[(1, 1)]}),
                r"block a1 of dim 2 has extra unit \(3, 3\)",
            ),
        ],
        ids=["deleted-unit", "dim-too-large", "dim-too-small", "unit-outside"],
    )
    def test_unit_keys_must_fill_the_block(self, edit, says):
        # a block holds exactly the units (i, j), 1 <= i, j <= dim
        es = cases.bgw_es(7, 3)
        blocks = [dataclasses.replace(b, units=dict(b.units)) for b in es.blocks]
        assert blocks[2].name == "a1" and blocks[2].dim == 2
        edit(blocks[2])
        with pytest.raises(VerificationError, match=says):
            Eigensystem(es.algebra, blocks)

    @pytest.mark.parametrize("ij", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_scaled_unit_names_the_first_failing_pair(self, ij):
        es = cases.bgw_es(7, 3)
        alg = es.algebra
        bad = mutated(es, 2, ij, lambda e: alg.rmul(2, e))
        want = first_failing_pair(alg, bad)
        assert want is not None and want.startswith("block a1")
        with pytest.raises(VerificationError, match=re.escape(f"unit relation failed: {want}")):
            Eigensystem(alg, bad)

    def test_perturbed_radical_part_rejected(self):
        es = cases.bgw_es(7, 3)
        alg = es.algebra
        r = alg.field.sqrt_radicand().scale(Fraction(1, 97))
        bad = mutated(es, 2, (1, 2), lambda e: {**e, 4: e[4] + r})
        want = first_failing_pair(alg, bad)
        with pytest.raises(VerificationError, match=re.escape(f"unit relation failed: {want}")):
            Eigensystem(alg, bad)

    def test_broken_adjoint_pair_rejected(self):
        # E_12 -> 2 E_12 and E_21 -> E_21 / 2 keeps every unit relation and
        # the identity, but E_12* = E_21 fails
        es = cases.bgw_es(7, 3)
        alg = es.algebra
        bad = mutated(es, 2, (1, 2), lambda e: alg.rmul(2, e))
        bad[2].units[(2, 1)] = alg.rmul(Fraction(1, 2), bad[2].units[(2, 1)])
        assert first_failing_pair(alg, bad) is None
        with pytest.raises(VerificationError, match=r"^adjoint failed in block a1 at \(1,2\)$"):
            Eigensystem(alg, bad)

    def test_phi_incompleteness_rejected(self):
        # after verification, 2 E_0 still passes E A_l E = phi E with phi
        # doubled, but the units then span 4 phi E_0 where A_l needs phi E_0
        es = bgw_eigensystem(cases.bgw(7, 3), 7, 3)
        es._U = doubled(es._U, 0)
        with pytest.raises(VerificationError, match=r"^A_0 is not spanned by the matrix units$"):
            es.phi_matrices()

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

    def test_pq_duality_names_the_first_failing_entry(self):
        # P is cached by phi_matrices(); Q is read from the packed units, in
        # which E_12 of block a1 (row 3) is doubled afterwards, so the duality
        # fails where it is nonzero
        es = bgw_eigensystem(cases.bgw(7, 3), 7, 3)
        es.phi_matrices()
        es._U = doubled(es._U, 3)
        with pytest.raises(VerificationError, match=r"^duality failed at row 3, class 3$"):
            es.check_pq_duality()

    def test_wrong_valency_breaks_both_dualities(self):
        # the unit relations do not read the valencies, so the eigensystem of
        # a scheme with one valency raised verifies, and both dualities fail
        scheme = copy.copy(cases.bgw(7, 3))
        scheme.valencies = list(scheme.valencies)
        scheme.valencies[3] += 1
        es = bgw_eigensystem(scheme, 7, 3)
        with pytest.raises(
            VerificationError, match=r"^fused duality failed at idempotent 0, class 2$"
        ):
            FusedEigensystem(es, bgw_symmetric_fusion(3))
        with pytest.raises(VerificationError, match=r"^duality failed at row 0, class 3$"):
            es.check_pq_duality()

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

    def test_one_pack_and_two_fused_product_batches(self, monkeypatch):
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
        es.eigenmatrix_p(), es.eigenmatrix_q(), es.character_table(), es.check_pq_duality()
        bm_search(es, bgw_symmetric_fusion(3))
        assert calls["pack"] == 1
        # e A^_t and A^_t e, one batch each
        before = calls["mul"]
        FusedEigensystem(es, bgw_symmetric_fusion(3))
        assert (calls["pack"], calls["mul"] - before) == (1, 2)

    def test_packed_units_are_read_only(self):
        es = cases.bgw_es(7, 3)
        with pytest.raises(ValueError, match="read-only"):
            es._U.num[0] = 0


KERNEL_CASES = {"bgw52": ("bgw_es", (5, 2)), "bgw73": ("bgw_es", (7, 3)), "gh3": ("gh_es", (3,))}
# the kernel limits that force each tier: float64 is the default for small bounds
TIERS = {"float64": {}, "int64": {"FLOAT_LIMIT": 0}, "object": {"LIMIT": 0}}


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
    coeffs = st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=field.deg,
        max_size=field.deg,
    )
    out = []
    for _ in range(count):
        e = {}
        for k in draw(st.sets(st.integers(0, nm - 1), max_size=nm)):
            c = field.from_vectors(draw(coeffs), draw(coeffs) if field.d != 1 else None)
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
        got = unpack(alg, alg.mul(alg.pack(X)[:, None], alg.pack(Y)[None, :]))
        assert got == [dict_mul(alg, x, y) for x in X for y in Y]

    def test_object_path_past_the_int64_bound(self):
        es = cases.bgw_es(7, 3)
        alg = es.algebra
        U = [b.units[ij] for b in es.blocks for ij in sorted(b.units)]
        small = alg.mul(alg.pack(U)[:, None], alg.pack(U)[None, :])
        assert small.num.dtype == np.int64
        # one tiny element puts every other numerator near 2**61
        tiny = Fraction(1, 2**61)
        big = alg.pack([alg.rmul(tiny, U[0])] + U[1:])
        assert kernel.absmax(big.num) >= 2**61
        prod = alg.mul(big[:, None], big[None, :])
        assert prod.num.dtype == object
        scale = [tiny] + [1] * (len(U) - 1)
        want = [
            alg.rmul(scale[a] * scale[b], e)
            for (a, b), e in zip(np.ndindex(len(U), len(U)), unpack(alg, small))
        ]
        assert unpack(alg, prod) == want

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
        assert seen == {np.dtype(tier)}

    def test_tier_boundaries(self):
        a = np.array([3])
        got = [kernel.exact(b, a)[0].dtype for b in (2**53 - 1, 2**53, 2**62 - 1, 2**62)]
        assert got == [np.float64, np.int64, np.int64, object]

    def test_combination_past_the_float64_bound(self, monkeypatch):
        # 2**53 + 1 is the first integer float64 cannot hold
        x = kernel.Batch(np.array([[[2**53]], [[1]]]), 1)
        w = np.array([[1, 1]])
        got = kernel.combine(w, x)
        assert got.num.dtype == np.int64
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
            U.sum(),
            alg.mul(U[:, None], U[None, :]),
            kernel.field_mul(U, U[:, None], field),
            kernel.combine(np.array([[1, -2], [3, 0]]), U[:2]),
            kernel.combine(np.array([[2, 1]]), Batch(U.num[:, :2], U.den), axis=1),
            kernel.adjoint(U, alg.scheme.tpose, field),
        ]
        assert np.dtype(np.float64) in seen
        assert [b.num.dtype for b in out] == [np.dtype(np.int64)] * len(out)
        assert out[0].equal(Batch(2 * U.num, 2 * U.den)).all()
        assert kernel._scaled(U.num, 3).dtype == np.int64

    @pytest.mark.parametrize(
        "maker,args", [("bgw", (7, 3)), ("gh", (3,)), ("bgw", (8, 7))], ids=["bgw73", "gh3", "bgw87"]
    )
    def test_one_element_pieces_give_the_same_tables(self, monkeypatch, maker, args):
        scheme = getattr(cases, maker)(*args)
        es = getattr(cases, maker + "_es")(*args)
        fe = getattr(cases, maker + "_fused")(*args)
        build = bgw_eigensystem if maker == "bgw" else gh_eigensystem
        fusion = bgw_symmetric_fusion(args[1]) if maker == "bgw" else gh_symmetric_fusion(3)
        monkeypatch.setattr(kernel, "BUDGET", 1)
        es2 = build(scheme, *args)
        tables = (es2.eigenmatrix_p(), es2.eigenmatrix_q(), es2.character_table())
        assert tables == (es.eigenmatrix_p(), es.eigenmatrix_q(), es.character_table())
        fe2 = FusedEigensystem(es2, fusion)
        assert (fe2.phat, fe2.qhat) == (fe.phat, fe.qhat)

    @pytest.mark.parametrize("budget", [1, 1 << 22])
    @pytest.mark.parametrize(
        "xs,ys",
        [((3, 1), (1, 2)), ((2, 3), (2, 1)), ((1, 3), (2, 1)), ((2,), (3, 2)), ((), (2,))],
        ids=["outer", "paired-rows", "crossed", "x-padded", "x-single"],
    )
    def test_broadcast_products_match_single_products(self, monkeypatch, budget, xs, ys):
        monkeypatch.setattr(kernel, "BUDGET", budget)
        alg = cases.bgw_es(7, 3).algebra
        rng = np.random.default_rng(7)
        nm, D = alg.scheme.nclasses, alg.field.dim
        x = Batch(rng.integers(-9, 10, xs + (nm, D)), 2)
        y = Batch(rng.integers(-9, 10, ys + (nm, D)), 3)
        got = alg.mul(x, y)
        xb, yb = (np.broadcast_to(b.num, got.num.shape) for b in (x, y))
        for n in np.ndindex(got.num.shape[:-2]):
            assert got[n].equal(alg.mul(Batch(xb[n], 2), Batch(yb[n], 3))), n

    @pytest.mark.parametrize("budget", [1, 5, 12, 30, 1000])
    def test_pieces_tile_the_grid(self, monkeypatch, budget):
        monkeypatch.setattr(kernel, "BUDGET", budget)
        shape, cell = (2, 3, 5), 2
        hits = np.zeros(shape, dtype=int)
        for idx in kernel._pieces(shape, cell):
            box = hits[idx]
            assert box.size <= max(budget // cell, 1)
            box += 1
        assert (hits == 1).all()

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
            for b, table in enumerate(_signatures(es, partition)):
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
        assert cert.cell_count == cert.target == 4

    def test_no_product_form_for_noncommutative_fusion(self):
        es = cases.bgw_es(7, 3)
        cert = bm_search(es, bgw_symmetric_fusion(3))
        assert cert is not None and not cert.product_form

    def test_general_cells_for_bgw73(self):
        es = cases.bgw_es(7, 3)
        cert = bm_search(es, bgw_symmetric_fusion(3))
        assert cert is not None
        assert not cert.product_form
        assert cert.cell_count == cert.target == 4
        assert cert.block_names == ["0", "1", "a1"]
        assert cert.cells[2] == [((1, 1), (2, 2)), ((1, 2), (2, 1))]

    def test_general_cells_for_gh3(self):
        es = cases.gh_es(3)
        cert = bm_search(es, gh_symmetric_fusion(3))
        assert cert is not None
        assert not cert.product_form
        assert cert.cell_count == cert.target == 5
        assert cert.cells[3] == [((1, 1), (2, 2)), ((1, 2), (2, 1))]

    def test_unfusable_partition_has_no_certificate(self):
        # pairing a nonzero class with zero-type partner of the wrong sign
        es = cases.bgw_es(13, 3)
        bad = [[0], [1, 2], [3, 4], [5]]
        assert bm_search(es, bad) is None


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
            assert cert.cell_count == cert.target == len(partition)
            assert cert.product_form == (partition == discrete), partition
        assert (partitions, fusions, certified) == FUSION_COUNTS[case]


MALFORMED = {
    "uncovered": ([[0]], "cover every class exactly once"),
    "class-twice": ([[0], [1], [1], [2], [3]], "cover every class exactly once"),
    "identity-merged": ([[0, 1], [2], [3]], "identity class must stay alone"),
    "empty-cell": ([[0], [1], [], [2], [3]], "cells must be nonempty"),
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
