"""Acceptance harness.

One test per acceptance instance; run with -v to get one pass or fail line
each.  Every identity is checked exactly (integer tensors, CycScalar
equality); the numerical oracles use a fixed seed and a 1e-6 clustering
tolerance.  Parameter sets that admit no construction stay in the grid and
are exercised as written: they must raise the library's stated obstruction,
and the test fails if they build.
"""
import re
import time

import numpy as np
import pytest

from gwschemes import (
    SymmetryObstruction,
    NotAScheme,
    VerificationError,
    bgw_build,
    bgw_incidence,
    bgw_matrix,
    bgw_symmetric_fusion,
    bm_search,
    check_pq_duality,
    gh_build,
    gh_symmetric_fusion,
    latin_square,
    load_scheme,
    oracle_closure,
    oracle_spectrum,
    save_scheme,
    scheme_verify,
    sgdd_params,
    verify_bgw,
    verify_latin,
)
import cases
import closedforms as cf

BGW_M2 = [(q, m) for q, m in cases.BGW_BUILDABLE if m == 2]
BGW_M3UP = [(q, m) for q, m in cases.BGW_BUILDABLE if m >= 3]
ALL = [("bgw",) + qm for qm in cases.BGW_BUILDABLE] + [
    ("gh", q) for q in cases.GH_GRID
]


def case_id(c):
    return "-".join(str(x) for x in c)


def get_scheme(c):
    return cases.bgw(c[1], c[2]) if c[0] == "bgw" else cases.gh(c[1])


def get_es(c):
    return cases.bgw_es(c[1], c[2]) if c[0] == "bgw" else cases.gh_es(c[1])


def get_fused(c):
    return cases.bgw_fused(c[1], c[2]) if c[0] == "bgw" else cases.gh_fused(c[1])


def get_partition(c):
    return bgw_symmetric_fusion(c[2]) if c[0] == "bgw" else gh_symmetric_fusion(c[1])


def closed_dims(c):
    return cf.bgw_dims(c[2]) if c[0] == "bgw" else cf.gh_dims(c[1])


def closed_mults(c):
    return (
        cf.bgw_multiplicities(c[1], c[2])
        if c[0] == "bgw"
        else cf.gh_multiplicities(c[1])
    )


def closed_t(c):
    return (
        cf.bgw_character_table(c[1], c[2])
        if c[0] == "bgw"
        else cf.gh_character_table(c[1])
    )


def closed_fused_q(c):
    return cf.bgw_fused_q(c[1], c[2]) if c[0] == "bgw" else cf.gh_fused_q(c[1])


def closed_fused_mults(c):
    return (
        cf.bgw_fused_multiplicities(c[1], c[2])
        if c[0] == "bgw"
        else cf.gh_fused_multiplicities(c[1])
    )


class TestC1BgwSchemeAxioms:
    """Scheme axioms and product identities for the first family."""

    @pytest.mark.parametrize("q,m", cases.BGW_GRID, ids=lambda x: str(x))
    def test_axioms_and_products(self, q, m):
        if (q, m) in cases.BGW_OBSTRUCTED:
            # no symmetric matrix exists (TestSymmetricBgwCertificate in
            # test_designs.py): the build must refuse with the parity reason
            reason = f"(q-1)/m = {(q - 1) // m} is odd"
            with pytest.raises(SymmetryObstruction, match=re.escape(reason)):
                cases.bgw(q, m)
            assert ("bgw", q, m) not in cases._schemes
            return
        s = cases.bgw(q, m)
        assert s.v == (q + 1) * m
        assert s.nclasses - 1 == 2 * m - 1
        # independent re-verification of the axioms from the raw matrices
        scheme_verify(s.mats, s.labels)
        cf.check_bgw_products(s, q, m)

    def test_runtime_under_5s_total(self):
        for q, m in cases.BGW_BUILDABLE:
            cases.bgw(q, m)
        t0 = time.perf_counter()
        with pytest.raises(SymmetryObstruction):
            bgw_build(13, 4)
        rejected = time.perf_counter() - t0
        total = rejected + sum(
            cases.build_seconds[("bgw", q, m)] for q, m in cases.BGW_BUILDABLE
        )
        assert total < 5.0


class TestC2GhSchemeAxioms:
    """Scheme axioms and product identities for the second family."""

    @pytest.mark.parametrize("q", cases.GH_GRID, ids=lambda q: f"q{q}")
    def test_axioms_and_products(self, q):
        s = cases.gh(q)
        assert s.v == (q + 1) * q * q
        assert s.nclasses - 1 == 2 * q
        cf.check_gh_products(s, q)

    def test_q11_products_and_file_roundtrip(self, tmp_path):
        # q = 11 stays out of GH_GRID, which the oracle tests run over
        s = gh_build(11)
        cf.check_gh_products(s, 11)
        path = tmp_path / "gh11.json"
        save_scheme(path, s, {"family": "gh", "q": 11})
        loaded, provenance = load_scheme(path)
        assert provenance == {"family": "gh", "q": 11}
        assert np.array_equal(loaded.L, s.L)
        assert np.array_equal(loaded.p, s.p)
        assert loaded.tpose == s.tpose

    def test_runtime_under_60s_total(self):
        for q in cases.GH_GRID:
            cases.gh(q)
        total = sum(cases.build_seconds[("gh", q)] for q in cases.GH_GRID)
        assert total < 60.0


class TestC3Classification:
    """Exact commutativity classification from the intersection tensor."""

    @pytest.mark.parametrize("q,m", BGW_M3UP, ids=lambda x: str(x))
    def test_bgw_noncommutative(self, q, m):
        s = cases.bgw(q, m)
        assert s.classify() == "noncommutative"
        assert not np.array_equal(s.p, s.p.transpose(1, 0, 2))

    @pytest.mark.parametrize("q", cases.GH_GRID, ids=lambda q: f"q{q}")
    def test_gh_noncommutative(self, q):
        s = cases.gh(q)
        assert s.classify() == "noncommutative"
        assert not np.array_equal(s.p, s.p.transpose(1, 0, 2))

    @pytest.mark.parametrize("q,m", BGW_M2, ids=lambda x: str(x))
    def test_bgw_m2_commutative(self, q, m):
        s = cases.bgw(q, m)
        assert s.is_commutative()
        assert np.array_equal(s.p, s.p.transpose(1, 0, 2))


class TestC4DesignIdentities:
    """Group divisible designs behind the diagonal-block incidences."""

    @pytest.mark.parametrize("q,m", cases.BGW_BUILDABLE, ids=lambda x: str(x))
    def test_sgdd_every_level(self, q, m):
        for level in range(m):
            params = sgdd_params(bgw_incidence(q, m, level), m)
            assert params["v"] == (q + 1) * m
            assert params["k"] == q + m
            assert params["groups"] == q + 1
            assert params["group_size"] == m
            assert params["lam1"] == m
            assert params["lam2"] == 2 + (q - 1) // m

    def test_two_design_for_q4_m3(self):
        for level in range(3):
            params = sgdd_params(bgw_incidence(4, 3, level), 3)
            assert (params["v"], params["k"], params.get("lam")) == (15, 7, 3)


class TestC5WedderburnSystems:
    """Matrix-unit bases: dual-basis relations, dimensions, multiplicities."""

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_dual_basis_relations_exact(self, c):
        es = get_es(c)
        es.verify()
        dims = [b.dim for b in es.blocks]
        assert sum(d * d for d in dims) == es.algebra.scheme.nclasses
        assert sum(d * m for d, m in zip(dims, es.multiplicities)) == es.algebra.scheme.v
        assert dims == closed_dims(c)
        assert es.multiplicities == closed_mults(c)


class TestC6CharacterTablesAndDuality:
    """Character tables, the P/Q duality, and trace and rank identities."""

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_character_table_entrywise(self, c):
        es = get_es(c)
        assert es.character_table() == closed_t(c)

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_pq_duality_exact(self, c):
        assert check_pq_duality(get_es(c))

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_trace_and_rank_of_idempotents(self, c):
        es = get_es(c)
        alg = es.algebra
        f = alg.field
        v = alg.scheme.v
        mats = alg.scheme.mats if v <= 400 else None
        for blk, mk in zip(es.blocks, es.multiplicities):
            for i in range(1, blk.dim + 1):
                e = blk.units[(i, i)]
                # exact trace; the rank of an exact idempotent equals it
                assert alg.trace(e) == f.rat(mk)
                if v <= 400:
                    M = np.zeros((v, v), dtype=complex)
                    for l, coeff in e.items():
                        M += coeff.to_complex() * mats[l]
                    assert np.linalg.matrix_rank(M) == mk


class TestC7Fusion:
    """Symmetrizing fusion and its certificate and second eigenmatrix."""

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_fused_scheme_symmetric(self, c):
        partition = get_partition(c)
        fused = get_scheme(c).fuse(partition)
        assert fused.classify() == "symmetric"
        assert fused.nclasses == len(partition)

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_certificate_cell_count(self, c):
        es = get_es(c)
        partition = get_partition(c)
        cert = bm_search(es, partition)
        assert cert is not None
        assert cert.cell_count == cert.target == len(partition)
        # the product form exists exactly when every block stays 1-dimensional
        pf = bm_search(es, partition, product_form_only=True)
        assert (pf is not None) == all(b.dim == 1 for b in es.blocks)

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_fused_second_eigenmatrix_exact(self, c):
        fes = get_fused(c)
        assert fes.multiplicities == closed_fused_mults(c)
        assert fes.qhat == closed_fused_q(c)


class TestC8OracleEquivalence:
    """Independent numerical recomputation of tensors and spectra."""

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_closure_tensor(self, c):
        s = get_scheme(c)
        assert np.array_equal(oracle_closure(s.mats), s.p)

    @pytest.mark.parametrize("c", ALL, ids=case_id)
    def test_spectrum_blocks(self, c):
        s = get_scheme(c)
        es = get_es(c)
        exact = sorted((b.dim, m) for b, m in zip(es.blocks, es.multiplicities))
        assert oracle_spectrum(s.mats, seed=0, tol=1e-6) == exact


class TestC9NegativeTests:
    """Single-entry mutations are rejected with a correct witness."""

    def test_bgw_mutation(self):
        W = bgw_matrix(5, 2)
        verify_bgw(W, 2)
        bad = W.copy()
        bad[0, 1] = (bad[0, 1] + 1) % 2
        with pytest.raises(VerificationError, match="difference counts|blank"):
            verify_bgw(bad, 2)

    def test_latin_mutation(self):
        L = latin_square(7)
        verify_latin(L)
        bad = L.copy()
        bad[2, 3] = (bad[2, 3] + 1) % 7
        with pytest.raises(VerificationError, match="not a permutation"):
            verify_latin(bad)

    def test_scheme_basis_mutation(self):
        s = cases.bgw(5, 2)
        mats = [M.copy() for M in s.mats]
        r, c = np.argwhere(mats[1])[0]
        mats[1][r, c] = 0
        with pytest.raises(NotAScheme, match="partition"):
            scheme_verify(mats, s.labels)

    def test_symmetry_obstruction_5_4(self):
        with pytest.raises(SymmetryObstruction):
            bgw_build(5, 4)
