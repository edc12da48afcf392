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


def label_matrix(mats) -> np.ndarray:
    """The label matrix L with A_l = (L == l), of 0/1 matrices that partition
    the cells."""
    stack = np.stack([np.asarray(M, dtype=np.int64) for M in mats])
    assert (stack.sum(axis=0) == 1).all()
    return stack.argmax(axis=0)


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
        assert np.array_equal(oracle_closure(s.L), s.p)

    def test_empty_relation_named(self):
        # label 1 lies below the largest label 2 but has no cell
        with pytest.raises(VerificationError, match=r"^relation 1 is empty$"):
            oracle_closure(np.array([[0, 2], [2, 0]]))

    def test_detects_broken_relation(self):
        # one cell of relation 1 relabelled as relation 2
        s = cases.bgw(5, 2)
        L = s.L.copy()
        r, c = np.argwhere(L == 1)[0]
        L[r, c] = 2
        with pytest.raises(VerificationError, match="not constant"):
            oracle_closure(L)


FUSED = [("bgw",) + c for c in cases.BGW_BUILDABLE] + [("gh", q) for q in cases.GH_GRID]


class TestFusedClosureOracle:
    """The certified tensor of every grid case's symmetrizing fusion equals
    the oracle's.  Most fused classes are not thin, so these exercise the
    certificate's GEMM path; the unfused grid is compared in
    test_acceptance.py (TestC8OracleEquivalence)."""

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_matches_certified_tensor(self, c):
        fused = fused_scheme(c)
        assert np.array_equal(oracle_closure(fused.L), fused.p)


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
        assert oracle_spectrum(s.L, seed=0) == exact_blocks(es)

    def test_conjugate_pairs_merge_over_the_reals(self):
        # thin scheme of Z_6: the two conjugate pairs of complex characters
        # appear as single blocks of multiplicity 2 in the real spectrum
        assert oracle_spectrum(label_matrix(z6_scheme())) == [(1, 1), (1, 1), (1, 2), (1, 2)]

    def test_s3(self):
        assert oracle_spectrum(label_matrix(metacyclic_scheme(3, 0))) == [(1, 1), (1, 1), (2, 2)]

    @pytest.mark.parametrize("seed", range(50))
    def test_dic3_links_through_non_symmetric_classes(self, seed):
        # only the identity and the central a^3 are symmetric classes of
        # Dic_3; they commute with everything, so the 2 x 2 real block can be
        # joined only through the non-symmetric ones
        mats = metacyclic_scheme(6, 3)
        assert [g for g, M in enumerate(mats) if np.array_equal(M, M.T)] == [0, 3]
        blocks = oracle_spectrum(label_matrix(mats), seed=seed)
        assert blocks == [(1, 1), (1, 1), (1, 2), (1, 4), (2, 2)]

    def test_links_are_symmetrized(self):
        # only the upper shift 1 of the transpose pair (1, 2) is multiplied;
        # its blocks link 0 -> 1 -> 2, the lower shift's the other way, and
        # the symmetric class 3 links 0 and 2 both ways
        L = np.array([[0, 1, 3], [2, 0, 1], [3, 2, 0]])
        link = gwschemes.oracle._links(
            L, [0, 2, 1, 3], np.eye(3), np.arange(3), 0.5, np.random.default_rng(0)
        )
        assert link.tolist() == [[False, True, True], [True, False, True], [True, True, False]]

    def test_all_zero_matrix_is_its_own_transpose(self):
        # Z_6 with label 3 left unused, so A_3 = (L == 3) is all zero
        L = label_matrix(z6_scheme())
        L[L >= 3] += 1
        assert gwschemes.oracle._transpose_map(L) == [0, 6, 5, 3, 4, 2, 1]

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_transpose_map_matches_reference(self, c):
        s = cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])
        tpose = gwschemes.oracle._transpose_map(s.L)
        assert tpose == reference_transpose_map(cases.masks(s)) == s.tpose

    def test_detects_missing_transpose_partner(self):
        # one cell of relation 2 relabelled as relation 1, so A_2^T is split
        s = cases.bgw(5, 2)
        L = s.L.copy()
        r, c = np.argwhere(L == 2)[0]
        L[r, c] = 1
        with pytest.raises(VerificationError, match="transpose"):
            oracle_spectrum(L)

    def test_seed_stability(self):
        s = cases.bgw(7, 3)
        a = oracle_spectrum(s.L, seed=0)
        b = oracle_spectrum(s.L, seed=12345)
        assert a == b == [(1, 1), (1, 7), (2, 8)]


SMALL_GROUPS = {
    "z6": z6_scheme,
    "s3": lambda: metacyclic_scheme(3, 0),
    "dic3": lambda: metacyclic_scheme(6, 3),
}
SEEDS = [0, 1, 12345]


def link_matrices(L, seed):
    """The probe link matrix of the library, on the label matrix L, and the
    orbit-product one of tests/oracle_reference.py, on the masks (L == l),
    for the same random eigenspaces."""
    mats = [L == l for l in range(L.max() + 1)]
    tpose = reference_transpose_map(mats)
    rng = np.random.default_rng(seed)
    V, starts = random_eigenspaces(mats, tpose, rng)
    threshold = 1e-6 * len(V)
    probe = gwschemes.oracle._links(L, tpose, V, starts, threshold, rng)
    return probe, reference_links(mats, tpose, V, starts, threshold)


class TestSpectrumOracleMatchesReference:
    """The probe linking gives the link matrix of the orbit-product
    reference and the blocks of the per-pair reference in
    tests/oracle_reference.py."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_grid_links(self, c, seed):
        s = cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])
        probe, ref = link_matrices(s.L, seed)
        assert np.array_equal(probe, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_fused_links(self, c, seed):
        probe, ref = link_matrices(fused_scheme(c).L, seed)
        assert np.array_equal(probe, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_small_group_links(self, name, seed):
        probe, ref = link_matrices(label_matrix(SMALL_GROUPS[name]()), seed)
        assert np.array_equal(probe, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_grid(self, c, seed):
        s = cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])
        assert oracle_spectrum(s.L, seed=seed) == reference_spectrum(cases.masks(s), seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_fused(self, c, seed):
        fused = fused_scheme(c)
        assert oracle_spectrum(fused.L, seed=seed) == reference_spectrum(
            cases.masks(fused), seed=seed
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_small_groups(self, name, seed):
        mats = SMALL_GROUPS[name]()
        assert oracle_spectrum(label_matrix(mats), seed=seed) == reference_spectrum(
            mats, seed=seed
        )


class TestProbeControls:
    """A commutative scheme's classes commute with the random element, so
    they map each of its eigenspaces into itself: every block between two
    eigenspaces is zero, and no probe may link one."""

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize(
        "make",
        [lambda: label_matrix(z6_scheme()), lambda: cases.bgw(5, 2).L],
        ids=["z6", "bgw52"],
    )
    def test_commutative_scheme_has_no_links(self, make, seed):
        probe, _ = link_matrices(make(), seed)
        assert len(probe) > 1
        assert not probe.any()


class TestRandomElement:
    """The random element the oracle forms, the gather coef[L], is bit for
    bit the sum of the products c * A_l: each cell lies in one class, and
    adding 0 * c is exact."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "make",
        [lambda: cases.masks(cases.gh(3)), SMALL_GROUPS["dic3"]],
        ids=["gh3-masks", "dic3"],
    )
    def test_is_the_sum_of_products(self, make, seed):
        mats = make()
        coef = np.random.default_rng(seed).uniform(1.0, 2.0, size=len(mats))
        X = coef[label_matrix(mats)]
        expected = sum(c * M for c, M in zip(coef, mats))
        assert X.dtype == expected.dtype == np.float64
        assert X.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "kind,c",
        [("grid", c) for c in FUSED] + [("fused", c) for c in FUSED] + [("group", "dic3")],
        ids=lambda x: x if isinstance(x, str) else "-".join(map(str, x)),
    )
    def test_oracle_element_is_exactly_symmetric(self, monkeypatch, kind, c):
        # the element oracle_spectrum diagonalizes, caught at eigh: its
        # coefficients are tied across each verified transpose pair
        if kind == "group":
            L = label_matrix(SMALL_GROUPS[c]())
        elif kind == "fused":
            L = fused_scheme(c).L
        else:
            L = getattr(cases, c[0])(*c[1:]).L
        seen, eigh = [], np.linalg.eigh

        def spy(X):
            seen.append(np.array_equal(X, X.T))
            return eigh(X)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        oracle_spectrum(L)
        assert seen and all(seen)


class TestFusedSpectrumOracle:
    """The symmetrizing fusion is a symmetric, hence commutative, scheme, so
    the oracle sees one (1, m) block per fused multiplicity."""

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_matches_fused_multiplicities(self, c):
        fes = cases.bgw_fused(*c[1:]) if c[0] == "bgw" else cases.gh_fused(c[1])
        expected = sorted((1, m) for m in fes.multiplicities)
        assert oracle_spectrum(fused_scheme(c).L) == expected


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
