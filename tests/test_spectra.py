"""Wedderburn systems, eigenmatrices, character tables, duality, fusion."""
import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwschemes import (
    FiniteField,
    VerificationError,
    bgw_eigensystem,
    bgw_symmetric_fusion,
    bm_search,
    check_pq_duality,
    eigensystem_for,
    gh_eigensystem,
    gh_symmetric_fusion,
    gh_transversal,
    scalar_from_str,
)
from gwschemes import kernel
from gwschemes.spectra import (
    Block,
    Eigensystem,
    FusedEigensystem,
    SchemeAlgebra,
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
        assert check_pq_duality(es)

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
        assert check_pq_duality(es)

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
        assert check_pq_duality(es)

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


class TestFElementRules:
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
                assert alg.equal(alg.mul(F0[a], F0[b]), alg.rmul(d_ab, F0[a]))
                assert alg.equal(alg.mul(F0[a], F1[b]), alg.rmul(d_ab, F1[b]))
                assert alg.equal(alg.mul(F1[a], F0[b]), alg.rmul(d_anb, F1[a]))
                want = alg.rmul(q * d_anb, F0[a])
                if a == 0 and b == 0:
                    want = alg.add(want, alg.rmul((q - 1) * m, F1[0]))
                assert alg.equal(alg.mul(F1[a], F1[b]), want)

    def test_gh_f_products(self):
        q = 3
        es = cases.gh_es(q)
        alg = es.algebra
        F = FiniteField(q)
        F0 = gh_f_elements(alg, F, 0)
        F1 = gh_f_elements(alg, F, 1)
        a2 = alg.basis(2 * q)
        for a in range(q):
            for b in range(q):
                d_ab = q if a == b else 0
                d_anb = q if F.add(a, b) == 0 else 0
                assert alg.equal(alg.mul(F0[a], F0[b]), alg.rmul(d_ab, F0[a]))
                assert alg.equal(alg.mul(F0[a], F1[b]), alg.rmul(d_ab, F1[b]))
                assert alg.equal(alg.mul(F1[a], F0[b]), alg.rmul(d_anb, F1[a]))
                want = alg.rmul(q * q * d_anb, F0[a])
                if a == 0 and b == 0:
                    want = alg.add(want, alg.rmul(q * q * q, a2))
                    want = alg.add(want, alg.rmul((q - 1) * q * q, F1[0]))
                assert alg.equal(alg.mul(F1[a], F1[b]), want)
        # in particular F_(1,1) F_(1,1) vanishes: 1 is not self-negative
        assert alg.is_zero(alg.mul(F1[1], F1[1]))

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


class TestVerificationTeeth:
    def test_scaled_unit_rejected(self):
        es = bgw_eigensystem(cases.bgw(5, 2), 5, 2)
        alg = es.algebra
        bad = [Block(b.name, b.dim, dict(b.units)) for b in es.blocks]
        bad[1].units[(1, 1)] = alg.rmul(2, bad[1].units[(1, 1)])
        with pytest.raises(VerificationError):
            Eigensystem(alg, bad)

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
        bad = mutated(es, 2, (1, 2), lambda e: alg.add(e, alg.smul(r, alg.basis(4))))
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

    def test_mutated_fused_idempotent_rejected(self):
        # doubling E_12 and E_21 after verification makes (E_11 + E_22 +
        # E_12 + E_21) / 2 fail to be idempotent
        es = bgw_eigensystem(cases.bgw(7, 3), 7, 3)
        alg = es.algebra
        es.blocks = mutated(es, 2, (1, 2), lambda e: alg.rmul(2, e))
        es.blocks[2].units[(2, 1)] = alg.rmul(2, es.blocks[2].units[(2, 1)])
        with pytest.raises(
            VerificationError, match=r"^fused idempotents a1\+, a1\+ not orthogonal idempotents$"
        ):
            FusedEigensystem(es, bgw_symmetric_fusion(3))

    def test_phi_incompleteness_rejected(self):
        # after verification, 2 E_0 still passes E A_l E = phi E with phi
        # doubled, but the units then span 4 phi E_0 where A_l needs phi E_0
        es = bgw_eigensystem(cases.bgw(7, 3), 7, 3)
        es.blocks = mutated(es, 0, (1, 1), lambda e: es.algebra.rmul(2, e))
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
        with pytest.raises(VerificationError):
            FusedEigensystem(es, [[0], [1, 2], [3], [4], [5]])

    def test_eigensystem_for_dispatch(self):
        es = eigensystem_for(cases.bgw(5, 2), {"family": "bgw", "q": 5, "m": 2})
        assert es.multiplicities == [1, 5, 3, 3]
        with pytest.raises(ValueError):
            eigensystem_for(cases.bgw(5, 2), {"family": "unknown"})


KERNEL_CASES = {"bgw52": ("bgw_es", (5, 2)), "bgw73": ("bgw_es", (7, 3)), "gh3": ("gh_es", (3,))}


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
        got = alg.unpack(alg.mul(alg.pack(X)[:, None], alg.pack(Y)[None, :]))
        assert got == [dict_mul(alg, x, y) for x in X for y in Y]
        assert [alg.mul(x, y) for x in X for y in Y] == got

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
            for (a, b), e in zip(np.ndindex(len(U), len(U)), alg.unpack(small))
        ]
        assert alg.unpack(prod) == want

    @pytest.mark.parametrize("maker,args", [("bgw", (7, 3)), ("gh", (3,))], ids=["bgw73", "gh3"])
    def test_object_path_certifies_the_same_tables(self, monkeypatch, maker, args):
        scheme = getattr(cases, maker)(*args)
        es = getattr(cases, maker + "_es")(*args)
        fe = getattr(cases, maker + "_fused")(*args)
        build = bgw_eigensystem if maker == "bgw" else gh_eigensystem
        fusion = bgw_symmetric_fusion(args[1]) if maker == "bgw" else gh_symmetric_fusion(3)
        # with no int64 headroom every kernel operation takes the object path
        monkeypatch.setattr(kernel, "LIMIT", 0)
        es2 = build(scheme, *args)
        assert es2.eigenmatrix_p() == es.eigenmatrix_p()
        fe2 = FusedEigensystem(es2, fusion)
        assert (fe2.phat, fe2.qhat) == (fe.phat, fe.qhat)
        bad = mutated(es2, len(es2.blocks) - 1, (1, 2), lambda e: es2.algebra.rmul(2, e))
        with pytest.raises(VerificationError, match="unit relation failed"):
            Eigensystem(es2.algebra, bad)

    def test_structure_tensor(self):
        f = cases.bgw_es(7, 3).algebra.field
        mult, conj = f.structure, f.conjugation
        basis = [f.zeta(0), f.zeta(1)]
        basis += [f.sqrt_radicand().scale(Fraction(1, f.k)) * z for z in basis]
        for r, x in enumerate(basis):
            assert f.from_vectors(conj[r, :2], conj[r, 2:]) == x.conj()
            for s, y in enumerate(basis):
                assert f.from_vectors(mult[r, s, :2], mult[r, s, 2:]) == x * y


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


class TestFusionCertificates:
    def test_product_form_for_discrete_partition(self):
        es = cases.bgw_es(5, 2)
        cert = bm_search(es, bgw_symmetric_fusion(2), product_form_only=True)
        assert cert is not None
        assert cert.product_form
        assert cert.cell_count == cert.target == 4

    def test_no_product_form_for_noncommutative_fusion(self):
        es = cases.bgw_es(7, 3)
        assert bm_search(es, bgw_symmetric_fusion(3), product_form_only=True) is None

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
        assert bm_search(es, gh_symmetric_fusion(3), product_form_only=True) is None
        cert = bm_search(es, gh_symmetric_fusion(3))
        assert cert is not None
        assert cert.cell_count == cert.target == 5
        assert cert.cells[3] == [((1, 1), (2, 2)), ((1, 2), (2, 1))]

    def test_unfusable_partition_has_no_certificate(self):
        # pairing a nonzero class with zero-type partner of the wrong sign
        es = cases.bgw_es(13, 3)
        bad = [[0], [1, 2], [3, 4], [5]]
        assert bm_search(es, bad) is None
        assert bm_search(es, bad, product_form_only=True) is None
