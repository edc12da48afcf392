"""Numerical oracles cross-checked against the exact symbolic results."""
import ast
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
        # S = diag(1, 2, 3) has the standard basis as its eigenvectors; only
        # the upper shift U is given, not its transpose, so its blocks link
        # 0 -> 1 -> 2 one way, the symmetric class links 0 and 2 both ways,
        # and the link matrix takes the other direction from the symmetry
        U = np.eye(3, k=1)
        corners = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        C = np.stack([np.diag([1.0, 2.0, 3.0]), U, corners])
        W, starts, link = gwschemes.oracle._eigenspaces(C, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(np.abs(W), np.eye(3)) and starts.tolist() == [0, 1, 2]
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
SEEDS = [0, 1, 12345]


def module_record(monkeypatch, L, seed):
    """The restriction matrices C, the coefficients, eigenvectors W, cluster
    starts and link matrix of oracle_spectrum's first attempt on L, caught
    at _eigenspaces."""
    seen, eigenspaces = [], gwschemes.oracle._eigenspaces

    def spy(C, coef):
        W, starts, link = eigenspaces(C, coef)
        seen.append(dict(C=C, coef=coef, W=W, starts=starts, link=link))
        return W, starts, link

    monkeypatch.setattr(gwschemes.oracle, "_eigenspaces", spy)
    oracle_spectrum(L, seed=seed)
    return seen[0]


def link_matrices(monkeypatch, L, seed):
    """The module link matrix of the library on the label matrix L, with the
    eigenvalue of each cluster, and the orbit-product link matrix of
    tests/oracle_reference.py on the masks (L == l), with the eigenvalue of
    each eigenspace of the full v x v element, for the same seed and hence
    the same coefficients."""
    record = module_record(monkeypatch, L, seed)
    S = np.tensordot(record["coef"], record["C"], axes=1)
    W, starts = record["W"], record["starts"]
    module_w = np.diag(W.T @ S @ W)[starts]
    mats = [L == l for l in range(L.max() + 1)]
    tpose = reference_transpose_map(mats)
    w, V, ref_starts = random_eigenspaces(mats, tpose, np.random.default_rng(seed))
    ref = reference_links(mats, tpose, V, ref_starts, 1e-6 * len(V))
    return (module_w, record["link"]), (w[ref_starts], ref)


def assert_same_links(monkeypatch, L, seed):
    """One module cluster per eigenspace of the full element, in eigenvalue
    order, and the same link matrix."""
    (module_w, link), (ref_w, ref) = link_matrices(monkeypatch, L, seed)
    assert len(module_w) == len(ref_w)
    scale = max(1.0, np.abs(ref_w).max())
    assert np.allclose(module_w, ref_w, rtol=0, atol=1e-8 * scale)
    assert np.array_equal(link, ref)


class TestSpectrumOracleMatchesReference:
    """The module clusters match the eigenspaces of the full element one to
    one in eigenvalue order, with the link matrix of the orbit-product
    reference, and the oracle gives the blocks of the per-pair reference in
    tests/oracle_reference.py."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_grid_links(self, monkeypatch, c, seed):
        s = cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])
        assert_same_links(monkeypatch, s.L, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_fused_links(self, monkeypatch, c, seed):
        assert_same_links(monkeypatch, fused_scheme(c).L, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_small_group_links(self, monkeypatch, name, seed):
        assert_same_links(monkeypatch, label_matrix(SMALL_GROUPS[name]()), seed)

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
    they map each of its eigenspaces into itself: every block W_a^T C_l W_b
    between two clusters is zero, and none may link them."""

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize(
        "make",
        [lambda: label_matrix(z6_scheme()), lambda: cases.bgw(5, 2).L],
        ids=["z6", "bgw52"],
    )
    def test_commutative_scheme_has_no_links(self, monkeypatch, make, seed):
        link = module_record(monkeypatch, make(), seed)["link"]
        assert len(link) > 1
        assert not link.any()


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
        # u = 1 spans only the all-ones vector, so the module misses blocks
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
            # a thin scheme: the one cluster has trace v / v = 1, an integer
            (lambda: label_matrix(z6_scheme()), r"sum of d \* m is 1, not 6$"),
            # valencies 1, 1, 5, 5: the trace is 12 / 52
            (lambda: cases.bgw(5, 2).L, r"non-integer multiplicities \[0\.2307692307\d*\]$"),
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
        # one entry of C_1 moved by 1e-3: the projectors of S leave the span,
        # which the least-squares residual sees before the traces are read
        def perturbed(i, L, u, tpose, module):
            C = module(L, u, tpose)
            C[1, 0, 0] += 1e-3
            return C

        spy_module(monkeypatch, perturbed)
        with pytest.raises(VerificationError, match=r"attempt 4: projector residual \d"):
            oracle_spectrum(make())


def relinked(monkeypatch, L, pairs):
    """Route oracle_spectrum's _eigenspaces on the label matrix L through a
    link matrix that joins exactly the cluster pairs (a, b), negative
    indices counted from the last cluster; returns, for each attempt, the
    multiplicity of each cluster, read as the eigenvalue count of the v x v
    element X = sum coef[l] A_l near the cluster's eigenvalue.  Holds for
    commutative schemes, whose blocks have d = 1."""
    seen, eigenspaces = [], gwschemes.oracle._eigenspaces

    def spy(C, coef):
        W, starts, link = eigenspaces(C, coef)
        S = np.tensordot(coef, C, axes=1)
        w = np.linalg.eigvalsh((S + S.T) / 2)[starts]
        X = np.tensordot(coef, np.stack([L == l for l in range(len(coef))]), axes=1)
        wx = np.linalg.eigvalsh(X)
        seen.append([int(np.sum(np.abs(wx - c) < 1e-6 * np.abs(wx).max())) for c in w])
        link = np.zeros_like(link)
        for a, b in pairs:
            link[a, b] = link[b, a] = True
        return W, starts, link

    monkeypatch.setattr(gwschemes.oracle, "_eigenspaces", spy)
    return seen


class TestLinkControls:
    """A linked component is one block, so its clusters share one
    multiplicity; a link across clusters of different multiplicity must
    fail every attempt, reported for the component of the smallest cluster."""

    def test_all_clusters_linked(self, monkeypatch):
        # bgw 5,2 has blocks (1, 1), (1, 5), (1, 3), (1, 3)
        L = cases.bgw(5, 2).L
        seen = relinked(monkeypatch, L, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(
            VerificationError,
            match=r"^spectrum oracle failed: attempt 4: unequal multiplicities \{1, 3, 5\}$",
        ):
            oracle_spectrum(L)
        assert len(seen) == gwschemes.oracle.RETRIES
        assert all(sorted(dims) == [1, 3, 3, 5] for dims in seen)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_component_is_reported(self, monkeypatch, seed):
        # components {0, last} and {1, 2}: the message names the first of
        # them, in the order of their smallest cluster, whose multiplicities
        # differ
        L = cases.bgw(5, 2).L
        seen = relinked(monkeypatch, L, [(0, -1), (1, 2)])
        with pytest.raises(VerificationError) as err:
            oracle_spectrum(L, seed=seed)
        dims = seen[-1]
        sizes = next(s for s in [{dims[0], dims[-1]}, {dims[1], dims[2]}] if len(s) > 1)
        assert str(err.value) == (
            f"spectrum oracle failed: attempt 4: unequal multiplicities {sizes}"
        )


class TestRandomElement:
    """The element the oracle diagonalizes is the restriction of the random
    element sum_l coef[l] A_l to the module it spins from one vector."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "make",
        [lambda: cases.masks(cases.gh(3)), SMALL_GROUPS["dic3"]],
        ids=["gh3-masks", "dic3"],
    )
    def test_is_the_sum_of_products(self, monkeypatch, make, seed):
        # caught at svd and eigh: K is [A_i u], and S = Q^T X Q for the sum X
        # of the products c * A_l of the masks, with the tied coefficients
        mats = make()
        seen, svd, eigh = [], np.linalg.svd, np.linalg.eigh

        def spy_svd(K, full_matrices):
            seen.append(K)
            seen.append(svd(K, full_matrices=full_matrices))
            return seen[-1]

        def spy_eigh(S):
            seen.append(S)
            return eigh(S)

        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        oracle_spectrum(label_matrix(mats), seed=seed)
        monkeypatch.undo()
        K, (U, _, _), S = seen[:3]
        rng = np.random.default_rng(seed)
        coef = rng.uniform(1.0, 2.0, size=len(mats))
        tpose = reference_transpose_map(mats)
        coef = coef[np.minimum(np.arange(len(mats)), tpose)]
        u = rng.standard_normal(len(mats[0]))
        assert np.allclose(K, np.stack([M @ u for M in mats], axis=1), rtol=0, atol=1e-12)
        Q = U[:, : len(S)]
        X = sum(c * M for c, M in zip(coef, mats))
        assert np.allclose(S, Q.T @ X @ Q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind,c",
        [("grid", c) for c in FUSED] + [("fused", c) for c in FUSED] + [("group", "dic3")],
        ids=lambda x: x if isinstance(x, str) else "-".join(map(str, x)),
    )
    def test_oracle_element_is_exactly_symmetric(self, monkeypatch, kind, c):
        # the element oracle_spectrum diagonalizes, caught at eigh, is
        # sum_l coef[l] C_l with the coefficients tied across each transpose
        # pair: solved for, they are the first draw of each pair.  Symmetrizing
        # an untied sum would give the mean of the pair's two draws instead.
        if kind == "group":
            L = label_matrix(SMALL_GROUPS[c]())
        elif kind == "fused":
            L = fused_scheme(c).L
        else:
            L = getattr(cases, c[0])(*c[1:]).L
        seen, module, eigh = [], gwschemes.oracle._module, np.linalg.eigh

        def spy_module(L, u, tpose):
            seen.append(module(L, u, tpose))
            return seen[-1]

        def spy(S):
            seen.append(S)
            return eigh(S)

        monkeypatch.setattr(gwschemes.oracle, "_module", spy_module)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        oracle_spectrum(L)
        C, S = seen[:2]
        assert np.array_equal(S, S.T)
        nm = len(C)
        coef = np.linalg.lstsq(C.reshape(nm, -1).T, S.reshape(-1), rcond=None)[0]
        tpose = reference_transpose_map([L == l for l in range(nm)])
        drawn = np.random.default_rng(0).uniform(1.0, 2.0, size=nm)
        assert np.allclose(coef, drawn[np.minimum(np.arange(nm), tpose)], rtol=0, atol=1e-9)


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
        s = cases.bgw(*c[1:]) if c[0] == "bgw" else cases.gh(c[1])
        es = cases.bgw_es(*c[1:]) if c[0] == "bgw" else cases.gh_es(c[1])
        assert oracle_spectrum(s.L) == exact_blocks(es)

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
