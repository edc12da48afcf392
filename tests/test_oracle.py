"""Numerical oracles cross-checked against the exact symbolic results."""
import ast
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gwschemes.matrixkit
import gwschemes.oracle
from gwschemes import (
    VerificationError,
    bgw_symmetric_fusion,
    gh_symmetric_fusion,
    oracle_closure,
    oracle_spectrum,
)
from kronecker import matpow, shift_matrix
from oracle_reference import reference_spectrum, reference_transpose_map
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


def grid_scheme(c):
    return cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])


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
        # label 1 lies below the largest label 2, which is below v = 3, but
        # has no cell
        with pytest.raises(VerificationError, match=r"^relation 1 is empty$"):
            oracle_closure(np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]]))

    def test_detects_broken_relation(self):
        # one cell of relation 1 relabelled as relation 2
        s = cases.bgw(5, 2)
        L = s.L.copy()
        r, c = np.argwhere(L == 1)[0]
        L[r, c] = 2
        with pytest.raises(VerificationError, match="not constant"):
            oracle_closure(L)


NOT_LABELS = {
    # bgw 5,2's labels less one: the -1 cells lie in no relation
    "negative": lambda: cases.bgw(5, 2).L.astype(np.int64) - 1,
    "empty": lambda: np.zeros((0, 0), dtype=np.int64),
    "1-d": lambda: np.zeros(3, dtype=np.int64),
    "non-square": lambda: cases.bgw(5, 2).L[:, :-1],
    "float": lambda: cases.bgw(5, 2).L.astype(np.float64),
    # from_matrices refuses bool labels too
    "bool": lambda: np.eye(3, dtype=bool),
}


@pytest.mark.parametrize("oracle", [oracle_closure, oracle_spectrum], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", NOT_LABELS)
def test_oracles_refuse_what_is_not_a_label_matrix(oracle, name):
    message = "^the label matrix must be a square matrix of integers >= 0$"
    with pytest.raises(VerificationError, match=message):
        oracle(NOT_LABELS[name]())


@pytest.mark.parametrize("oracle", [oracle_closure, oracle_spectrum], ids=lambda f: f.__name__)
def test_oracles_refuse_a_label_past_v_before_any_count(oracle):
    # a scheme on v points has at most v relations; counting the n**2 label
    # pairs of a largest label n = 10**6 would need 8 TB
    L = np.array([[0, 10**6], [10**6, 0]])
    tracemalloc.start()
    try:
        with pytest.raises(VerificationError, match=r"^label 1000000 is not below v = 2$"):
            oracle(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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

    def test_conjugate_characters_are_separate_blocks(self):
        # thin scheme of Z_6: the Hermitian element takes distinct values on
        # each pair of conjugate characters, which a symmetric one would read
        # as one block of multiplicity 2
        assert oracle_spectrum(label_matrix(z6_scheme())) == [(1, 1)] * 6

    def test_s3(self):
        assert oracle_spectrum(label_matrix(metacyclic_scheme(3, 0))) == [(1, 1), (1, 1), (2, 2)]

    @pytest.mark.parametrize("seed", range(50))
    def test_dic3_links_through_non_symmetric_classes(self, seed):
        # only the identity and the central a^3 are symmetric classes of
        # Dic_3; they act as scalars on each 2-dimensional block, so only the
        # non-symmetric ones give the Hermitian element the two eigenvalues
        # there that make two clusters of size 2
        mats = metacyclic_scheme(6, 3)
        assert [g for g, M in enumerate(mats) if np.array_equal(M, M.T)] == [0, 3]
        blocks = oracle_spectrum(label_matrix(mats), seed=seed)
        assert blocks == [(1, 1)] * 4 + [(2, 2)] * 2

    def test_all_zero_matrix_is_its_own_transpose(self):
        # Z_6 with label 3 left unused, so A_3 = (L == 3) is all zero
        L = label_matrix(z6_scheme())
        L[L >= 3] += 1
        assert gwschemes.oracle._transpose_map(L) == [0, 6, 5, 3, 4, 2, 1]

    @pytest.mark.parametrize("n", [16, 17, 256, 257])
    def test_transpose_map_at_code_dtype_bounds(self, n):
        # n labels give the pair codes 0..n^2 - 1: uint8 up to n = 16,
        # uint16 from 17 to 256, uint32 from 257.  The upper cells of a
        # 24-point matrix take the labels 1..n-1 in turn, and the lower cells
        # the partner n - i of label i
        upper = np.triu_indices(24, 1)
        L = np.zeros((24, 24), dtype=np.int64)
        L[upper] = 1 + np.arange(len(upper[0])) % (n - 1)
        L.T[upper] = n - L[upper]
        tpose = [0] + [n - i for i in range(1, n)]
        assert gwschemes.oracle._transpose_map(L) == tpose
        assert gwschemes.oracle._transpose_map(L.astype(np.min_scalar_type(n - 1))) == tpose
        L[upper[1][0], upper[0][0]] = 0  # one lower cell of label n - 1 moved to class 0
        with pytest.raises(VerificationError, match="^relation 0 has no transpose partner$"):
            gwschemes.oracle._transpose_map(L)

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_transpose_map_matches_reference(self, c):
        s = grid_scheme(c)
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


class TestOracleRowBlocks:
    """The oracle counts L a block of rows at a time: one row per block
    (BLOCK = 5 cells), and a wide int64 copy of L, give the transpose map,
    the module restrictions and the spectrum of the default blocks."""

    @pytest.mark.parametrize(
        "make", [lambda: cases.bgw(7, 3), lambda: cases.gh(3), lambda: fused_scheme(("gh", 5))],
        ids=["bgw73", "gh3", "fused-gh5"],
    )
    def test_blocks_and_dtype_do_not_change_the_result(self, monkeypatch, make):
        s = make()
        u = np.random.default_rng(0).standard_normal(s.v)
        want = (
            gwschemes.oracle._transpose_map(s.L),
            gwschemes.oracle._module(s.L, u, s.tpose),
            oracle_spectrum(s.L, seed=0),
        )
        monkeypatch.setattr(gwschemes.oracle, "BLOCK", 5)
        for L in (s.L, s.L.astype(np.int64)):
            assert gwschemes.oracle._transpose_map(L) == want[0] == s.tpose
            assert np.array_equal(gwschemes.oracle._module(L, u, s.tpose), want[1])
            assert oracle_spectrum(L, seed=0) == want[2]


SMALL_GROUPS = {
    "z6": z6_scheme,
    "s3": lambda: metacyclic_scheme(3, 0),
    "dic3": lambda: metacyclic_scheme(6, 3),
}


def hermitian(X):
    """(X + X^T)/2 + i (X - X^T)/2, the Hermitian element the oracle and its
    reference diagonalize."""
    return (X + X.T) / 2 + 1j * (X - X.T) / 2


def module_record(monkeypatch, L, seed):
    """The restriction matrices C, the coefficients, eigenvectors W and
    cluster starts of oracle_spectrum's first attempt on L, caught at
    _eigenspaces."""
    seen, eigenspaces = [], gwschemes.oracle._eigenspaces

    def spy(C, coef):
        W, starts = eigenspaces(C, coef)
        seen.append(dict(C=C, coef=coef, W=W, starts=starts))
        return W, starts

    monkeypatch.setattr(gwschemes.oracle, "_eigenspaces", spy)
    oracle_spectrum(L, seed=seed)
    return seen[0]


def cluster_counts(L, C, coef, starts) -> list[tuple[int, int]]:
    """(size, multiplicity) of each cluster of the module element, in
    eigenvalue order: its size in the module, and the number of eigenvalues
    of the v x v Hermitian element of the masks (L == l), with the same
    coefficients, that lie near its eigenvalue."""
    X = np.zeros(L.shape)
    for l, c in enumerate(coef):
        X += c * (L == l)
    full = np.linalg.eigvalsh(hermitian(X))
    w = np.linalg.eigvalsh(hermitian(np.tensordot(coef, C, axes=1)))
    sizes = np.diff(np.append(starts, len(w)))
    near = 1e-6 * max(1.0, np.abs(full).max())
    return [(int(d), int(np.sum(np.abs(full - x) < near))) for d, x in zip(sizes, w[starts])]


@functools.cache
def case_reference(c, fused: bool, seed: int) -> list:
    """reference_spectrum of the grid case c, or of its symmetrizing fusion,
    computed once: the cluster and the block comparisons share it."""
    s = fused_scheme(c) if fused else grid_scheme(c)
    return reference_spectrum(cases.masks(s), seed=seed)


def assert_clusters_match(monkeypatch, L, seed, blocks):
    """The module's clusters are d copies of each block (d, m), for the
    seed whose coefficients the reference drew."""
    record = module_record(monkeypatch, L, seed)
    clusters = cluster_counts(L, record["C"], record["coef"], record["starts"])
    assert sorted(clusters) == sorted(b for b in blocks for _ in range(b[0]))


class TestSpectrumOracleMatchesReference:
    """Each module cluster has the size of its block and, as its count of
    eigenvalues of the full element, the block's multiplicity, so the
    clusters are d copies of each block (d, m) of the per-pair reference in
    tests/oracle_reference.py; and the oracle gives the reference's blocks."""

    @pytest.mark.parametrize("seed", cases.SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_grid_links(self, monkeypatch, c, seed):
        assert_clusters_match(monkeypatch, grid_scheme(c).L, seed, case_reference(c, False, seed))

    @pytest.mark.parametrize("seed", cases.SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_fused_links(self, monkeypatch, c, seed):
        assert_clusters_match(monkeypatch, fused_scheme(c).L, seed, case_reference(c, True, seed))

    @pytest.mark.parametrize("seed", cases.SEEDS)
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_small_group_links(self, monkeypatch, name, seed):
        mats = SMALL_GROUPS[name]()
        blocks = reference_spectrum(mats, seed=seed)
        assert_clusters_match(monkeypatch, label_matrix(mats), seed, blocks)

    @pytest.mark.parametrize("seed", cases.SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_grid(self, c, seed):
        assert oracle_spectrum(grid_scheme(c).L, seed=seed) == case_reference(c, False, seed)

    @pytest.mark.parametrize("seed", cases.SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_fused(self, c, seed):
        assert oracle_spectrum(fused_scheme(c).L, seed=seed) == case_reference(c, True, seed)

    @pytest.mark.parametrize("seed", cases.SEEDS)
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_small_groups(self, name, seed):
        mats = SMALL_GROUPS[name]()
        assert oracle_spectrum(label_matrix(mats), seed=seed) == reference_spectrum(
            mats, seed=seed
        )


class TestProbeControls:
    """A commutative scheme's blocks all have d = 1, so the random element
    has r distinct eigenvalues in the module: every cluster has size 1, and
    no block joins two of them."""

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize(
        "make",
        [lambda: label_matrix(z6_scheme()), lambda: cases.bgw(5, 2).L],
        ids=["z6", "bgw52"],
    )
    def test_commutative_scheme_has_no_links(self, monkeypatch, make, seed):
        record = module_record(monkeypatch, make(), seed)
        assert record["starts"].tolist() == list(range(len(record["W"])))
        assert len(record["W"]) > 1


def swapped_row_cells(L, a=1, b=None):
    """L with the labels of cells (0, a) and (0, b) swapped, and those of
    (a, 0) and (b, 0) with them, so every transpose pair survives; b
    defaults to the first column past a whose class differs from (0, a)'s."""
    if b is None:
        b = int(np.flatnonzero(L[0, a + 1 :] != L[0, a])[0]) + a + 1
    L = L.copy()
    L[0, [a, b]] = L[0, [b, a]]
    L[[a, b], 0] = L[[b, a], 0]
    return L


def spy_module(monkeypatch, change):
    """Route oracle_spectrum's _module through change(call, L, u, tpose),
    call counting from 0; returns the list of calls' vectors."""
    calls, module = [], gwschemes.oracle._module

    def spy(L, u, tpose):
        calls.append(u)
        return change(len(calls) - 1, L, u, tpose, module)

    monkeypatch.setattr(gwschemes.oracle, "_module", spy)
    return calls


class TestModuleControls:
    """Mutations the module checks must reject: a span that is not closed,
    a vector whose module misses blocks, and a restriction that is not a
    representation."""

    @pytest.mark.parametrize(
        "make", [lambda: cases.bgw(5, 2).L, lambda: cases.gh(3).L], ids=["bgw52", "gh3"]
    )
    def test_swapped_cells_break_invariance(self, monkeypatch, make):
        L = swapped_row_cells(make())
        # the pairing survives, so only the module sees the broken closure
        assert gwschemes.oracle._transpose_map(L) == reference_transpose_map(
            [L == l for l in range(L.max() + 1)]
        )
        calls = spy_module(monkeypatch, lambda i, L, u, tpose, module: module(L, u, tpose))
        message = r"^relation \d+ maps the module of a random vector out of itself"
        with pytest.raises(VerificationError, match=message + ": the span is not closed$"):
            oracle_spectrum(L)
        assert len(calls) == 1  # raised at once, not retried

    def test_swap_passes_the_full_eigh_route(self):
        # the per-pair reference returns blocks for the broken span of bgw 5,2
        L = swapped_row_cells(cases.bgw(5, 2).L)
        blocks = reference_spectrum([L == l for l in range(4)])
        assert blocks == [(1, 1), (1, 1), (1, 3), (7, 1)]

    @pytest.mark.parametrize(
        "make", [lambda: cases.bgw(5, 2).L, lambda: cases.gh(3).L], ids=["bgw52", "gh3"]
    )
    def test_every_row_swap_breaks_invariance(self, make):
        L0 = make()
        swaps = 0
        for a in range(1, len(L0)):
            for b in np.flatnonzero(L0[0, a + 1 :] != L0[0, a]) + a + 1:
                with pytest.raises(VerificationError, match="the span is not closed"):
                    oracle_spectrum(swapped_row_cells(L0, a, b))
                swaps += 1
        assert swaps == {12: 35, 36: 472}[len(L0)]

    @pytest.mark.parametrize("name", ["z6", "s3", "bgw52", "gh3"])
    def test_all_ones_vector_is_retried(self, monkeypatch, name):
        # u = 1 spans only the all-ones vector, a module of rank 1
        if name in SMALL_GROUPS:
            mats = SMALL_GROUPS[name]()
            L, expected = label_matrix(mats), reference_spectrum(mats)
        else:
            s = cases.bgw(5, 2) if name == "bgw52" else cases.gh(3)
            es = cases.bgw_es(5, 2) if name == "bgw52" else cases.gh_es(3)
            L, expected = s.L, exact_blocks(es)
        ranks = []

        def ones_first(i, L, u, tpose, module):
            C = module(L, np.ones_like(u) if i == 0 else u, tpose)
            ranks.append(C.shape[1])
            return C

        calls = spy_module(monkeypatch, ones_first)
        blocks = oracle_spectrum(L)
        assert len(calls) == 2 and ranks[0] == 1
        assert blocks == expected

    @pytest.mark.parametrize(
        "make,reason",
        [
            (lambda: label_matrix(z6_scheme()), r"module of rank 1, not 6$"),
            (lambda: cases.bgw(5, 2).L, r"module of rank 1, not 4$"),
        ],
        ids=["z6", "bgw52"],
    )
    def test_all_ones_vector_fails_every_attempt(self, monkeypatch, make, reason):
        spy_module(monkeypatch, lambda i, L, u, tpose, module: module(L, np.ones_like(u), tpose))
        failed = r"^spectrum oracle failed: attempt 4: "
        with pytest.raises(VerificationError, match=failed + reason):
            oracle_spectrum(make())

    @pytest.mark.parametrize(
        "make", [lambda: cases.bgw(5, 2).L, lambda: cases.gh(3).L], ids=["bgw52", "gh3"]
    )
    def test_perturbed_restriction_is_rejected(self, monkeypatch, make):
        # one entry of C_1 moved by 1e-3: the projectors of H leave the span,
        # which the least-squares residual sees before the traces are read
        def perturbed(i, L, u, tpose, module):
            C = module(L, u, tpose)
            C[1, 0, 0] += 1e-3
            return C

        spy_module(monkeypatch, perturbed)
        with pytest.raises(VerificationError, match=r"attempt 4: projector residual \d"):
            oracle_spectrum(make())


def merged(monkeypatch, L, runs):
    """Route oracle_spectrum's _eigenspaces on the label matrix L through
    cluster starts that merge each run (first, last) of consecutive
    clusters into one; returns, for each attempt, the (size, multiplicity)
    of each cluster before the merge (cluster_counts)."""
    seen, eigenspaces = [], gwschemes.oracle._eigenspaces

    def spy(C, coef):
        W, starts = eigenspaces(C, coef)
        seen.append(cluster_counts(L, C, coef, starts))
        inner = [k for first, last in runs for k in range(first + 1, last + 1)]
        return W, np.delete(starts, inner)

    monkeypatch.setattr(gwschemes.oracle, "_eigenspaces", spy)
    return seen


class TestLinkControls:
    """A block of dimension d gives d clusters of size d, so clusters merged
    into a (size, trace) whose count the size does not divide must fail
    every attempt, reported for the first such (size, trace) in order."""

    def test_all_clusters_linked(self, monkeypatch):
        # bgw 5,2 has blocks (1, 1), (1, 5), (1, 3), (1, 3): one cluster of
        # size 4 and trace 12
        L = cases.bgw(5, 2).L
        seen = merged(monkeypatch, L, [(0, 3)])
        with pytest.raises(
            VerificationError,
            match=r"^spectrum oracle failed: attempt 4: clusters of size 4 and trace 12 number 1$",
        ):
            oracle_spectrum(L)
        assert len(seen) == gwschemes.oracle.RETRIES
        assert all(sorted(counts) == [(1, 1), (1, 3), (1, 3), (1, 5)] for counts in seen)

    @pytest.mark.parametrize("seed", cases.SEEDS)
    def test_first_component_is_reported(self, monkeypatch, seed):
        # Z_6 has six blocks (1, 1); merged, clusters 0-1 and 2-4 are one
        # cluster (2, 2) and one (3, 3), and the message names the first
        L = label_matrix(z6_scheme())
        seen = merged(monkeypatch, L, [(0, 1), (2, 4)])
        with pytest.raises(VerificationError) as err:
            oracle_spectrum(L, seed=seed)
        assert seen[-1] == [(1, 1)] * 6
        assert str(err.value) == (
            "spectrum oracle failed: attempt 4: clusters of size 2 and trace 2 number 1"
        )


class TestRandomElement:
    """The element the oracle diagonalizes is the restriction of the
    Hermitian element (X + X^T)/2 + i (X - X^T)/2 of the random element
    X = sum_l coef[l] A_l to the module it spins from one vector."""

    @pytest.mark.parametrize("seed", cases.SEEDS)
    @pytest.mark.parametrize(
        "make",
        [lambda: cases.masks(cases.gh(3)), SMALL_GROUPS["dic3"]],
        ids=["gh3-masks", "dic3"],
    )
    def test_is_the_sum_of_products(self, monkeypatch, make, seed):
        # caught at svd and eigh: K is [A_i u], and H = Q^T Y Q for the
        # Hermitian element Y of the sum X of the products c * A_l of the
        # masks, with the coefficients as drawn
        mats = make()
        seen, svd, eigh = [], np.linalg.svd, np.linalg.eigh

        def spy_svd(K, full_matrices):
            seen.append(K)
            seen.append(svd(K, full_matrices=full_matrices))
            return seen[-1]

        def spy_eigh(H):
            seen.append(H)
            return eigh(H)

        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        oracle_spectrum(label_matrix(mats), seed=seed)
        monkeypatch.undo()
        K, (U, _, _), H = seen[:3]
        rng = np.random.default_rng(seed)
        coef = rng.uniform(1.0, 2.0, size=len(mats))
        u = rng.standard_normal(len(mats[0]))
        assert np.allclose(K, np.stack([M @ u for M in mats], axis=1), rtol=0, atol=1e-12)
        Q = U[:, : len(H)]
        X = sum(c * M for c, M in zip(coef, mats))
        assert np.allclose(H, Q.T @ hermitian(X) @ Q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind,c",
        [("grid", c) for c in FUSED] + [("fused", c) for c in FUSED] + [("group", "dic3")],
        ids=lambda x: x if isinstance(x, str) else "-".join(map(str, x)),
    )
    def test_oracle_element_is_exactly_symmetric(self, monkeypatch, kind, c):
        # the element oracle_spectrum diagonalizes, caught at eigh, equals
        # its conjugate transpose exactly, and it is sum_l coef[l] B_l for
        # B_l = (C_l + C_l^T)/2 + i (C_l - C_l^T)/2 with the coefficients as
        # drawn: solved for, they are every draw, where a symmetric element
        # would give only the mean of each transpose pair's two draws
        if kind == "group":
            L = label_matrix(SMALL_GROUPS[c]())
        elif kind == "fused":
            L = fused_scheme(c).L
        else:
            L = grid_scheme(c).L
        seen, module, eigh = [], gwschemes.oracle._module, np.linalg.eigh

        def spy_module(L, u, tpose):
            seen.append(module(L, u, tpose))
            return seen[-1]

        def spy(H):
            seen.append(H)
            return eigh(H)

        monkeypatch.setattr(gwschemes.oracle, "_module", spy_module)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        oracle_spectrum(L)
        C, H = seen[:2]
        assert np.array_equal(H, H.conj().T)
        nm = len(C)
        B = np.stack([hermitian(Cl) for Cl in C])
        # real and imaginary parts as one real system in the coefficients
        planes = np.concatenate([B.real.reshape(nm, -1), B.imag.reshape(nm, -1)], axis=1)
        target = np.concatenate([H.real.reshape(-1), H.imag.reshape(-1)])
        coef = np.linalg.lstsq(planes.T, target, rcond=None)[0]
        drawn = np.random.default_rng(0).uniform(1.0, 2.0, size=nm)
        assert np.allclose(coef, drawn, rtol=0, atol=1e-9)


class TestFusedSpectrumOracle:
    """The symmetrizing fusion is a symmetric, hence commutative, scheme, so
    the oracle sees one (1, m) block per fused multiplicity."""

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_matches_fused_multiplicities(self, c):
        fes = cases.bgw_fused(*c[1:]) if c[0] == "bgw" else cases.gh_fused(c[1])
        expected = sorted((1, m) for m in fes.multiplicities)
        assert oracle_spectrum(fused_scheme(c).L) == expected


WIDE = [("bgw", 17, 8), ("bgw", 25, 12), ("bgw", 23, 11), ("gh", 11)]


class TestWideSpectrumOracle:
    """Instances beyond the grid, up to v = 1452, against the exact blocks
    and the fused multiplicities."""

    @pytest.mark.parametrize("c", WIDE, ids=lambda c: "-".join(map(str, c)))
    def test_matches_exact_blocks(self, c):
        s = grid_scheme(c)
        es = cases.bgw_es(*c[1:]) if c[0] == "bgw" else cases.gh_es(c[1])
        assert oracle_spectrum(s.L) == exact_blocks(es)

    def test_merged_eigenvalues_are_retried(self, monkeypatch):
        # at seed 8 two eigenvalues of the fused bgw 25,12 element lie 7.8e-7
        # of the largest apart, below TOL: the first attempt reads them as one
        # cluster of size 2, which no block of a symmetric scheme gives, and
        # the second attempt reads the fused multiplicities
        L = fused_scheme(("bgw", 25, 12)).L
        record = module_record(monkeypatch, L, 8)
        assert 2 in np.diff(np.append(record["starts"], len(record["W"])))
        expected = sorted((1, m) for m in cases.bgw_fused(25, 12).multiplicities)
        assert oracle_spectrum(L, seed=8) == expected

    @pytest.mark.parametrize("c", WIDE, ids=lambda c: "-".join(map(str, c)))
    def test_fused_matches_fused_multiplicities(self, c):
        fes = cases.bgw_fused(*c[1:]) if c[0] == "bgw" else cases.gh_fused(c[1])
        expected = sorted((1, m) for m in fes.multiplicities)
        assert oracle_spectrum(fused_scheme(c).L) == expected


def package_imports(module) -> set[str]:
    """The gwschemes modules that the source of module imports from."""
    tree = ast.parse(Path(module.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                used.add("gwschemes." + (node.module or ""))
            elif node.module.split(".")[0] == "gwschemes":
                used.add(node.module)
        elif isinstance(node, ast.Import):
            used |= {a.name for a in node.names if a.name.split(".")[0] == "gwschemes"}
    return used


def test_oracle_shares_no_code_with_the_library():
    """The oracles stay an independent route: from the package they may
    import the exception types and nothing else."""
    assert package_imports(gwschemes.oracle) == {"gwschemes.errors"}


def test_matrixkit_takes_its_tier_rule_from_the_kernel():
    """matrixkit.mm picks float64 or Python integers by kernel.exact, so it
    may import from the package the kernel and nothing else."""
    assert package_imports(gwschemes.matrixkit) == {"gwschemes.kernel"}
