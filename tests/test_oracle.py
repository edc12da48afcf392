"""Numerical oracles cross-checked against the exact symbolic results."""
import ast
from pathlib import Path

import numpy as np
import pytest

import gwschemes.oracle
from gwschemes import (
    VerificationError,
    bgw_symmetric_fusion,
    gh_symmetric_fusion,
    oracle_closure,
    oracle_spectrum,
)
from kronecker import matpow, shift_matrix
from oracle_reference import (
    random_eigenspaces,
    reference_links,
    reference_spectrum,
    reference_transpose_map,
)
import cases


def exact_blocks(es):
    return sorted((b.dim, m) for b, m in zip(es.blocks, es.multiplicities))


def metacyclic_scheme(n: int, twist: int) -> list[np.ndarray]:
    """The thin scheme of the group <a, x | a^n = 1, x^2 = a^twist,
    x a x^-1 = a^-1>, element a^i x^j numbered i + n j: A_g[h, hg] = 1.
    n = 3, twist = 0 is S_3; n = 6, twist = 3 is the dicyclic group Dic_3."""

    def mul(g, h):
        (i, j), (k, l) = divmod(g, n)[::-1], divmod(h, n)[::-1]
        e = i + (k if j == 0 else -k) + (twist if j + l == 2 else 0)
        return e % n + n * ((j + l) % 2)

    order = 2 * n
    mats = [np.zeros((order, order), dtype=np.int64) for _ in range(order)]
    for g in range(order):
        for h in range(order):
            mats[g][h, mul(h, g)] = 1
    return mats


def z6_scheme() -> list[np.ndarray]:
    C = shift_matrix(6)
    return [matpow(C, k) for k in range(6)]


def fused_scheme(c):
    if c[0] == "bgw":
        return cases.bgw(*c[1:]).fuse(bgw_symmetric_fusion(c[2]))
    return cases.gh(c[1]).fuse(gh_symmetric_fusion(c[1]))


class TestClosureOracle:
    @pytest.mark.parametrize(
        "maker,args",
        [
            ("bgw", (5, 2)),
            ("bgw", (7, 3)),
            ("bgw", (4, 3)),
            ("bgw", (9, 2)),
            ("gh", (3,)),
            ("gh", (5,)),
        ],
        ids=["bgw52", "bgw73", "bgw43", "bgw92", "gh3", "gh5"],
    )
    def test_matches_symbolic_tensor(self, maker, args):
        s = getattr(cases, maker)(*args)
        assert np.array_equal(oracle_closure(cases.masks(s)), s.p)

    def test_detects_broken_relation(self):
        s = cases.bgw(5, 2)
        mats = cases.masks(s)
        r, c = np.argwhere(mats[1])[0]
        mats[1][r, c] = 0
        with pytest.raises(VerificationError, match="not constant"):
            oracle_closure(mats)


FUSED = [("bgw",) + c for c in cases.BGW_BUILDABLE] + [("gh", q) for q in cases.GH_GRID]


class TestFusedClosureOracle:
    """The certified tensor of every grid case's symmetrizing fusion equals
    the oracle's.  Most fused classes are not thin, so these exercise the
    certificate's GEMM path; the unfused grid is compared in
    test_acceptance.py (TestC8OracleEquivalence)."""

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_matches_certified_tensor(self, c):
        fused = fused_scheme(c)
        assert np.array_equal(oracle_closure(cases.masks(fused)), fused.p)


class TestSpectrumOracle:
    @pytest.mark.parametrize(
        "maker,args",
        [
            ("bgw", (5, 2)),
            ("bgw", (7, 3)),
            ("bgw", (4, 3)),
            ("bgw", (9, 2)),
            ("gh", (3,)),
        ],
        ids=["bgw52", "bgw73", "bgw43", "bgw92", "gh3"],
    )
    def test_matches_exact_block_structure(self, maker, args):
        s = getattr(cases, maker)(*args)
        es = getattr(cases, maker + "_es")(*args)
        assert oracle_spectrum(cases.masks(s), seed=0) == exact_blocks(es)

    def test_conjugate_pairs_merge_over_the_reals(self):
        # thin scheme of Z_6: the two conjugate pairs of complex characters
        # appear as single blocks of multiplicity 2 in the real spectrum
        assert oracle_spectrum(z6_scheme()) == [(1, 1), (1, 1), (1, 2), (1, 2)]

    def test_s3(self):
        assert oracle_spectrum(metacyclic_scheme(3, 0)) == [(1, 1), (1, 1), (2, 2)]

    @pytest.mark.parametrize("seed", range(50))
    def test_dic3_links_through_non_symmetric_classes(self, seed):
        # only the identity and the central a^3 are symmetric classes of
        # Dic_3; they commute with everything, so the 2 x 2 real block can be
        # joined only through the non-symmetric ones
        mats = metacyclic_scheme(6, 3)
        assert [g for g, M in enumerate(mats) if np.array_equal(M, M.T)] == [0, 3]
        assert oracle_spectrum(mats, seed=seed) == [(1, 1), (1, 1), (1, 2), (1, 4), (2, 2)]

    def test_links_are_symmetrized(self):
        # only the upper shift of each transpose pair is multiplied; its
        # blocks link 0 -> 1 -> 2, and the lower shift's the other way
        up = np.eye(3, k=1, dtype=np.int64)
        link = gwschemes.oracle._links(
            [np.eye(3, dtype=np.int64), up, up.T],
            [0, 2, 1],
            np.eye(3),
            np.arange(3),
            0.5,
            np.random.default_rng(0),
        )
        assert link.tolist() == [[False, True, False], [True, False, True], [False, True, False]]

    def test_all_zero_matrix_is_its_own_transpose(self):
        mats = z6_scheme() + [np.zeros((6, 6), dtype=np.int64)]
        assert gwschemes.oracle._transpose_map(mats) == [0, 5, 4, 3, 2, 1, 6]

    def test_detects_missing_transpose_partner(self):
        s = cases.bgw(5, 2)
        mats = cases.masks(s)
        r, c = np.argwhere(mats[2])[0]
        mats[2][r, c] = 0
        with pytest.raises(VerificationError, match="transpose"):
            oracle_spectrum(mats)

    def test_seed_stability(self):
        s = cases.bgw(7, 3)
        a = oracle_spectrum(cases.masks(s), seed=0)
        b = oracle_spectrum(cases.masks(s), seed=12345)
        assert a == b == [(1, 1), (1, 7), (2, 8)]


SMALL_GROUPS = {
    "z6": z6_scheme,
    "s3": lambda: metacyclic_scheme(3, 0),
    "dic3": lambda: metacyclic_scheme(6, 3),
}
SEEDS = [0, 1, 12345]


def link_matrices(mats, seed):
    """The probe link matrix of the library and the orbit-product one of
    tests/oracle_reference.py, for the same random eigenspaces."""
    tpose = reference_transpose_map(mats)
    rng = np.random.default_rng(seed)
    V, starts = random_eigenspaces(mats, tpose, rng)
    threshold = 1e-6 * len(V)
    probe = gwschemes.oracle._links(mats, tpose, V, starts, threshold, rng)
    return probe, reference_links(mats, tpose, V, starts, threshold)


class TestSpectrumOracleMatchesReference:
    """The probe linking gives the link matrix of the orbit-product
    reference and the blocks of the per-pair reference in
    tests/oracle_reference.py."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_grid_links(self, c, seed):
        s = cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])
        probe, ref = link_matrices(cases.masks(s), seed)
        assert np.array_equal(probe, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_fused_links(self, c, seed):
        probe, ref = link_matrices(cases.masks(fused_scheme(c)), seed)
        assert np.array_equal(probe, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_small_group_links(self, name, seed):
        probe, ref = link_matrices(SMALL_GROUPS[name](), seed)
        assert np.array_equal(probe, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_grid(self, c, seed):
        s = cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])
        masks = cases.masks(s)
        assert oracle_spectrum(masks, seed=seed) == reference_spectrum(masks, seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_fused(self, c, seed):
        mats = cases.masks(fused_scheme(c))
        assert oracle_spectrum(mats, seed=seed) == reference_spectrum(mats, seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_small_groups(self, name, seed):
        mats = SMALL_GROUPS[name]()
        assert oracle_spectrum(mats, seed=seed) == reference_spectrum(mats, seed=seed)


class TestProbeControls:
    """A commutative scheme's classes commute with the random element, so
    they map each of its eigenspaces into itself: every block between two
    eigenspaces is zero, and no probe may link one."""

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize(
        "make", [z6_scheme, lambda: cases.masks(cases.bgw(5, 2))], ids=["z6", "bgw52"]
    )
    def test_commutative_scheme_has_no_links(self, make, seed):
        probe, _ = link_matrices(make(), seed)
        assert len(probe) > 1
        assert not probe.any()


class TestRandomElement:
    """The random element is accumulated through one reused buffer, and is
    bit for bit the sum of the products c * A_l."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "make",
        [lambda: cases.masks(cases.gh(3)), SMALL_GROUPS["dic3"]],
        ids=["gh3-masks", "dic3"],
    )
    def test_is_the_sum_of_products(self, make, seed):
        mats = make()
        coef = np.random.default_rng(seed).uniform(1.0, 2.0, size=len(mats))
        X = gwschemes.oracle._random_element(mats, coef)
        expected = sum(c * M for c, M in zip(coef, mats))
        assert X.dtype == expected.dtype == np.float64
        assert X.tobytes() == expected.tobytes()


class TestFusedSpectrumOracle:
    """The symmetrizing fusion is a symmetric, hence commutative, scheme, so
    the oracle sees one (1, m) block per fused multiplicity."""

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_matches_fused_multiplicities(self, c):
        fes = cases.bgw_fused(*c[1:]) if c[0] == "bgw" else cases.gh_fused(c[1])
        expected = sorted((1, m) for m in fes.multiplicities)
        assert oracle_spectrum(cases.masks(fused_scheme(c))) == expected


def test_oracle_shares_no_code_with_the_library():
    """The oracles stay an independent route: from the package they may
    import the exception types and nothing else."""
    tree = ast.parse(Path(gwschemes.oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                used.add("gwschemes." + (node.module or ""))
            elif node.module.split(".")[0] == "gwschemes":
                used.add(node.module)
        elif isinstance(node, ast.Import):
            used |= {a.name for a in node.names if a.name.split(".")[0] == "gwschemes"}
    assert used == {"gwschemes.errors"}
