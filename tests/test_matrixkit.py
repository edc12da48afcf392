"""Exact matrix products, and the structured permutation matrices of the
Kronecker reference construction in kronecker.py."""
import numpy as np
import pytest

from gwschemes import FiniteField
from gwschemes.matrixkit import mm
from kronecker import back_identity, field_shift, kron, matpow, shift_matrix


class TestMM:
    def test_small_product(self):
        square = np.array([[1, 2], [3, 4]]), np.array([[5, 6], [7, 8]])
        empty_inner = np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)
        for A, B in (square, empty_inner):
            P = mm(A, B)
            assert P.dtype == np.int64
            assert np.array_equal(P, A @ B)

    def test_big_entries_use_exact_fallback(self):
        x = 2**30
        A = np.array([[x]], dtype=object)
        B = np.array([[x]], dtype=object)
        P = mm(A, B)
        assert P.dtype == object
        assert P[0, 0] == 2**60

    def test_fallback_matches_float_path(self):
        rng = np.random.default_rng(7)
        A = rng.integers(0, 50, size=(6, 5))
        B = rng.integers(0, 50, size=(5, 4))
        fast = mm(A, B)
        slow = mm(A.astype(object), B)
        assert np.array_equal(fast, slow.astype(np.int64))

    def test_threshold_boundary(self):
        # max|A| * max|B| * inner at the bound forces the fallback branch
        bound = 2**53
        A = np.array([[bound]], dtype=object)
        B = np.array([[1]])
        assert mm(A, B)[0, 0] == bound

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[0.5]]),
            np.array([[True]]),
            np.array([["1"]]),
            np.array([[0.5]], dtype=object),
            np.array([[True]], dtype=object),
            np.array([[np.int64(1)]], dtype=object),
        ],
        ids=["float", "bool", "string", "object-float", "object-bool", "object-numpy-int"],
    )
    def test_non_integer_operand_rejected(self, A):
        # the float tier would store 0.5 * 0.5 truncated to 0
        for args in ((A, np.array([[1]])), (np.array([[1]]), A)):
            with pytest.raises(ValueError, match="^mm takes integer operands"):
                mm(*args)

    def test_matpow(self):
        A = np.array([[1, 1], [0, 1]])
        assert np.array_equal(matpow(A, 5), np.linalg.matrix_power(A, 5))
        assert np.array_equal(matpow(A, 0), np.eye(2, dtype=np.int64))


class TestStructured:
    def test_shift_matrix_generates_cyclic_group(self):
        m = 6
        U = shift_matrix(m)
        assert np.array_equal(matpow(U, m), np.eye(m, dtype=np.int64))
        for a in range(m):
            assert np.array_equal(shift_matrix(m, a), matpow(U, a))

    def test_back_identity_involution(self):
        R = back_identity(5)
        assert np.array_equal(mm(R, R), np.eye(5, dtype=np.int64))

    def test_shift_conjugated_by_reversal(self):
        # R U^a R = U^-a: reversal inverts the cyclic shift
        m = 7
        R = back_identity(m)
        for a in range(m):
            lhs = mm(mm(R, shift_matrix(m, a)), R)
            assert np.array_equal(lhs, shift_matrix(m, (-a) % m))

    def test_kron_matches_numpy(self):
        A = np.array([[1, 2], [3, 4]])
        B = np.array([[0, 1], [1, 0]])
        C = np.eye(3, dtype=np.int64)
        assert np.array_equal(kron(A, B, C), np.kron(np.kron(A, B), C))

    @pytest.mark.parametrize("q", [3, 5, 9])
    def test_field_shift_is_additive(self, q):
        F = FiniteField(q)
        for x in range(q):
            for y in range(q):
                lhs = mm(field_shift(F, x), field_shift(F, y))
                assert np.array_equal(lhs, field_shift(F, F.add(x, y)))

    @pytest.mark.parametrize("q", [3, 9])
    def test_field_reversal_reverses_digits(self, q):
        F = FiniteField(q)
        R = back_identity(F.q)
        assert np.array_equal(mm(R, R), np.eye(q, dtype=np.int64))
        # row i has its one at the index with complementary digits p-1-a_t
        for i in range(q):
            j = int(np.flatnonzero(R[i])[0])
            want = tuple((F.p - 1 - d) % F.p for d in F.digits(i))
            assert F.digits(j) == want
