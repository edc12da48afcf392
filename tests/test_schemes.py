"""Association scheme axioms, intersection tensors, and fusions."""
import re
from fractions import Fraction

import numpy as np
import pytest

from gwschemes import (
    AssociationScheme,
    NotAScheme,
    VerificationError,
    bgw_build,
    gh_build,
    gh_symmetric_fusion,
    one_factorization,
    oracle_closure,
    scheme_verify,
)
from gwschemes.matrixkit import mm
from gwschemes.schemes import _Span, _right_action
from kronecker import shift_matrix


def cyclic_group_scheme(n):
    """The thin scheme of Z_n: A_i = permutation matrix of +i."""
    return [shift_matrix(n, i) for i in range(n)]


def johnson_style_pair(n):
    """I, J - I: the one-class scheme on n points."""
    I = np.eye(n, dtype=np.int64)
    return [I, np.ones((n, n), dtype=np.int64) - I]


class TestFromMatrices:
    def test_one_class_scheme(self):
        s = scheme_verify(johnson_style_pair(5))
        assert s.nclasses == 2
        assert s.valencies == [1, 4]
        assert s.is_symmetric()
        assert s.is_commutative()
        # J-I squared = (n-1) I + (n-2)(J-I)
        assert s.p[1, 1, 0] == 4
        assert s.p[1, 1, 1] == 3

    def test_thin_group_scheme(self):
        s = scheme_verify(cyclic_group_scheme(6))
        assert s.valencies == [1] * 6
        assert s.is_commutative()
        assert not s.is_symmetric()
        # regular representation: A_i A_j = A_{i+j}
        for i in range(6):
            for j in range(6):
                want = np.zeros(6, dtype=np.int64)
                want[(i + j) % 6] = 1
                assert np.array_equal(s.p[i, j], want)
        # transpose map is negation
        assert [s.tpose[i] for i in range(6)] == [0, 5, 4, 3, 2, 1]

    def test_tensor_against_direct_products(self):
        s = bgw_build(7, 3)
        mats = s.mats
        for i in range(s.nclasses):
            for j in range(s.nclasses):
                prod = mm(mats[i], mats[j])
                recon = sum(int(s.p[i, j, k]) * mats[k] for k in range(s.nclasses))
                assert np.array_equal(prod, recon), (i, j)

    def test_transpose_symmetry_of_tensor(self):
        # p^k_{ij} = p^{k'}_{j'i'} with ' the transpose pairing
        s = bgw_build(7, 3)
        t = s.tpose
        for i in range(s.nclasses):
            for j in range(s.nclasses):
                for k in range(s.nclasses):
                    assert s.p[i, j, k] == s.p[t[j], t[i], t[k]]

    def test_classify(self):
        assert scheme_verify(johnson_style_pair(4)).classify() == "symmetric"
        assert scheme_verify(cyclic_group_scheme(5)).classify() == "commutative"
        assert bgw_build(7, 3).classify() == "noncommutative"

    def test_labels_exposed(self):
        s = scheme_verify(johnson_style_pair(3), labels=["id", "other"])
        assert s.labels == ["id", "other"]
        assert s.label_index("other") == 1


class TestRejection:
    def test_missing_identity(self):
        _, JmI = johnson_style_pair(3)
        with pytest.raises(NotAScheme):
            scheme_verify([JmI])

    def test_identity_not_first(self):
        I, JmI = johnson_style_pair(4)
        with pytest.raises(NotAScheme):
            scheme_verify([JmI, I])

    def test_not_a_partition(self):
        I, JmI = johnson_style_pair(4)
        with pytest.raises(NotAScheme):
            scheme_verify([I, JmI, JmI])

    def test_not_zero_one(self):
        I, JmI = johnson_style_pair(4)
        with pytest.raises(NotAScheme):
            scheme_verify([I, 2 * JmI])

    def test_transpose_not_closed(self):
        # A1 mixes an ordered pair with an unordered one, so A1^T is neither
        # A1 nor A2 although the three supports partition all positions
        I = np.eye(3, dtype=np.int64)
        A1 = np.zeros((3, 3), dtype=np.int64)
        for x, y in [(0, 1), (1, 2), (2, 0), (0, 2)]:
            A1[x, y] = 1
        A2 = np.ones((3, 3), dtype=np.int64) - I - A1
        with pytest.raises(NotAScheme, match="transpose"):
            scheme_verify([I, A1, A2])

    def test_closure_failure(self):
        # the hexagon and its complement: transpose-closed with constant
        # valencies, but A^2 hits distance-2 pairs only, leaving the span
        n = 6
        I = np.eye(n, dtype=np.int64)
        A = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1
        B = np.ones((n, n), dtype=np.int64) - I - A
        with pytest.raises(NotAScheme, match="leaves the span"):
            scheme_verify([I, A, B])

    def test_single_entry_mutation_rejected(self):
        s = bgw_build(5, 2)
        mats = [M.copy() for M in s.mats]
        mats[1][0, 0], mats[0][0, 0] = 1, 0  # move a diagonal unit
        with pytest.raises(NotAScheme):
            scheme_verify(mats)
        mats2 = [M.copy() for M in s.mats]
        mats2[2][0, 1] ^= 1  # break the row partition
        with pytest.raises(NotAScheme):
            scheme_verify(mats2)


class TestLabelMatrix:
    def cyclic(self, n=6):
        """The label matrix of the thin scheme of Z_n: L[x, y] = y - x."""
        idx = np.arange(n)
        return (idx[None, :] - idx[:, None]) % n

    def test_from_label_matrix(self):
        s = AssociationScheme.from_matrices(self.cyclic(), list("abcdef"))
        assert s.labels == list("abcdef")
        assert np.array_equal(s.p, scheme_verify(cyclic_group_scheme(6)).p)

    @pytest.mark.parametrize(
        "mutate,says",
        [
            (lambda L: L.__setitem__((0, 1), 6), "0..5"),
            (lambda L: L.__setitem__((0, 1), -1), "0..5"),
            (lambda L: L.__setitem__((0, 1), 0), "identity"),
            (lambda L: L.__setitem__((2, 2), 3), "identity"),
        ],
        ids=["label-too-large", "negative-label", "zero-off-diagonal", "nonzero-diagonal"],
    )
    def test_mutated_label_matrix_rejected(self, mutate, says):
        L = self.cyclic()
        mutate(L)
        with pytest.raises(NotAScheme, match=says):
            AssociationScheme.from_matrices(L, [str(i) for i in range(6)])

    def test_non_square_rejected(self):
        with pytest.raises(NotAScheme, match="square"):
            AssociationScheme.from_matrices(self.cyclic()[:5], [str(i) for i in range(6)])

    def test_empty_relation_rejected(self):
        with pytest.raises(NotAScheme, match="empty"):
            AssociationScheme.from_matrices(self.cyclic(), [str(i) for i in range(7)])

    def test_uneven_valency_rejected(self):
        # both relations are symmetric, but point 0 has two 1-neighbours and
        # the others one
        L = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        with pytest.raises(NotAScheme, match="row/column sums"):
            AssociationScheme.from_matrices(L, ["0", "1", "2"])

    def test_float32_bound_checked(self):
        # a zero-stride view: v = 2**24 points without the memory
        L = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**24, 2**24))
        with pytest.raises(ValueError, match="2\\*\\*24"):
            AssociationScheme.from_matrices(L, ["0"])

    def test_mats_are_built_from_l(self):
        s = bgw_build(7, 3)
        want = [(s.L == i).astype(np.int64) for i in range(s.nclasses)]
        got = s.mats
        assert all(M.dtype == np.int64 for M in got)
        assert all(np.array_equal(M, W) for M, W in zip(got, want, strict=True))

    def test_mutating_mats_leaves_the_scheme(self):
        s = scheme_verify(cyclic_group_scheme(6))
        p = s.p.copy()
        mats = s.mats
        mats[1][0, 0] = 7
        mats[0][:] = 0
        assert np.array_equal(s.p, p)
        assert np.array_equal(s.mats[0], np.eye(6, dtype=np.int64))
        assert s.mats[1][0, 0] == 0
        assert not s.L.flags.writeable


def rational_rank(rows) -> int:
    """Rank over Q by plain Gaussian elimination on Fractions."""
    rows = [[Fraction(int(x)) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def transpose_last_block(n):
    """Transpose the diagonal block of the last n points, a block of thin
    classes: every row keeps its labels, and every pair its transpose pair."""
    def mutate(s):
        L = s.L.copy()
        L[-n:, -n:] = L[-n:, -n:].T
        return L
    return mutate


def swap_in_block(rows, cols, a, b):
    """Swap classes a and b, of equal valency, in the block (rows, cols), and
    the transposes of a and b in the mirror block (cols, rows): every pair
    keeps its transpose pair, and every row its label counts."""
    def mutate(s):
        perm = np.arange(s.nclasses)
        perm[[a, b]] = b, a
        t = np.array(s.tpose)
        L = s.L.copy()
        L[np.ix_(rows, cols)] = perm[L[np.ix_(rows, cols)]]
        L[np.ix_(cols, rows)] = t[perm[t[L[np.ix_(cols, rows)]]]]
        return L
    return mutate


class TestClosureCertificate:
    """Negative controls for the closure certificate.

    A single changed entry already breaks a row count, so these mutations
    relabel whole blocks instead: the identity, the label range, transpose
    closure and the valencies all still hold, and only the products through
    the generators can reject them.
    """

    @pytest.mark.parametrize(
        "build,mutate",
        [
            (lambda: bgw_build(7, 3), transpose_last_block(3)),
            (lambda: gh_build(5), transpose_last_block(5)),
            (lambda: bgw_build(7, 3), swap_in_block(range(3, 6), range(6, 9), 3, 4)),
            (lambda: gh_build(5), swap_in_block(range(25, 50), range(50, 75), 5, 6)),
            # no thin class but A_0, so only GEMMs can reject it
            (
                lambda: gh_build(5).fuse(gh_symmetric_fusion(5)),
                swap_in_block(range(25, 50), range(50, 75), 4, 5),
            ),
        ],
        ids=[
            "bgw73-thin-block",
            "gh5-thin-block",
            "bgw73-nonthin-block",
            "gh5-nonthin-block",
            "gh5-fused-nonthin-block",
        ],
    )
    def test_relabelled_block_rejected(self, build, mutate):
        s = build()
        L = mutate(s)
        assert (L != s.L).any()
        with pytest.raises(VerificationError):  # independently, no scheme
            oracle_closure([(L == i).astype(np.int64) for i in range(s.nclasses)])
        with pytest.raises(NotAScheme, match="leaves the span") as info:
            AssociationScheme.from_matrices(L, s.labels)
        # the product named really fails, also where a GEMM packs several
        pattern = r"product A_(\S+) A_(\S+) leaves the span"
        i, g = (s.labels.index(x) for x in re.fullmatch(pattern, str(info.value)).groups())
        prod = (L == i).astype(np.int64) @ (L == g).astype(np.int64)
        assert any(len(np.unique(prod[L == k])) > 1 for k in range(s.nclasses))

    def test_packed_products_do_not_carry(self):
        # a forged coefficient table that moves k from one digit to the next
        # within one GEMM: the packed sums agree in base k but not in base
        # k + 1, the base the exactness bound asks for
        s = gh_build(5).fuse(gh_symmetric_fusion(5))
        rest = [4, 5, 3, 6, 1, 2]  # the classes that are not thin, by valency
        g, k = 3, s.valencies[3]  # (0,1): symmetric, valency 25
        R = s.p[:, g].copy()
        assert (R[3, 0], R[6, 0]) == (k, 0)  # A_g A_g is k on the diagonal
        R[3, 0], R[6, 0] = 0, 1
        assert _right_action(s.L, R, g, rest, k) == 3
        assert _right_action(s.L, s.p[:, g], g, rest, k) is None

    def test_thin_relations_of_no_group_rejected(self):
        # the one-factorization of K_6 as a label matrix: every class is thin
        # and symmetric, so every earlier check passes and only the thin
        # generators' gathers can reject it; no group of order 6 has five
        # involutions
        L = sum((a + 1) * P for a, P in enumerate(one_factorization(5)))
        with pytest.raises(NotAScheme, match="leaves the span"):
            AssociationScheme.from_matrices(L, [str(i) for i in range(6)])

    def test_broken_transpose_pair_rejected(self):
        s = bgw_build(7, 3)
        L = s.L.copy()
        assert (L[0, 1], L[1, 0]) == (1, 2)
        L[1, 0] = 1
        with pytest.raises(NotAScheme, match="transpose"):
            AssociationScheme.from_matrices(L, s.labels)

    def test_non_generating_set_rejected(self):
        # the thin classes of gh 5 span only the group algebra of GF(5)
        s = gh_build(5)
        span = _Span(s.nclasses)
        for g in range(1, 5):
            assert s.valencies[g] == 1
            span.add(s.p[:, g])
        assert span.rank == 5
        with pytest.raises(NotAScheme, match="rank 5 < 11"):
            span.certify()
        span.add(s.p[:, s.label_index("(0,1)")])
        assert span.rank == 11
        span.certify()

    def test_span_matches_rational_rank(self):
        # the span of e_0 under words of length < nm in random integer
        # matrices, against a plain Fraction elimination
        rng = np.random.default_rng(0)
        for _ in range(100):
            nm = int(rng.integers(2, 6))
            gens = [rng.integers(-2, 3, (nm, nm)) for _ in range(int(rng.integers(1, 3)))]
            span = _Span(nm)
            for R in gens:
                span.add(R)
            words = frontier = [np.eye(nm, dtype=np.int64)[0]]
            for _ in range(nm - 1):
                frontier = [w @ R for w in frontier for R in gens]
                words = words + frontier
            assert span.rank == rational_rank(words)
            for i in range(nm):
                e = np.eye(nm, dtype=np.int64)[i]
                assert (i in span) == (rational_rank(words + [e]) == span.rank)


class TestFusion:
    def test_cyclic_fusion(self):
        s = scheme_verify(cyclic_group_scheme(6))
        fused = s.fuse([[0], [1, 5], [2, 4], [3]])
        assert fused.nclasses == 4
        assert fused.is_symmetric()
        assert fused.valencies == [1, 2, 2, 1]

    def test_fusion_must_cover(self):
        s = scheme_verify(cyclic_group_scheme(6))
        with pytest.raises(ValueError):
            s.fuse([[0], [1, 5], [3]])

    def test_fusion_identity_must_stand_alone(self):
        s = scheme_verify(cyclic_group_scheme(6))
        with pytest.raises(ValueError):
            s.fuse([[0, 3], [1, 5], [2, 4]])

    def test_invalid_fusion_detected(self):
        # {1, 2} in Z_6 is not closed: the sums leave the span
        s = scheme_verify(cyclic_group_scheme(6))
        with pytest.raises(NotAScheme):
            s.fuse([[0], [1, 2], [3, 4, 5]])

    def test_fused_labels(self):
        s = scheme_verify(cyclic_group_scheme(4), labels=["e", "g", "g2", "g3"])
        fused = s.fuse([[0], [1, 3], [2]])
        assert fused.labels == ["e", "g+g3", "g2"]
