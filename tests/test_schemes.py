"""Association scheme axioms, intersection tensors, and fusions."""
import numpy as np
import pytest

from gwschemes import AssociationScheme, NotAScheme, bgw_build, scheme_verify
from gwschemes.matrixkit import mm
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
