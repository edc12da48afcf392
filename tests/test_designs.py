"""Weighing matrices, Hadamard matrices, one-factorizations, Latin squares."""
import re
import tracemalloc

import numpy as np
import pytest

from gwschemes import (
    BLANK,
    FiniteField,
    SymmetryObstruction,
    VerificationError,
    bgw_incidence,
    bgw_matrix,
    gh_matrix,
    latin_square,
    one_factorization,
    sgdd_params,
    verify_bgw,
    verify_gh,
    verify_latin,
    verify_one_factorization,
)
from cases import BGW_BUILDABLE, BGW_NEGATIVE, BGW_OBSTRUCTED


def first_failing_pair(W, m):
    """Reference: the message for the first row pair x < y, in row-major
    order, whose differences over the columns nonblank in both rows are not
    equidistributed over Z_m; None when there is no such pair."""
    v = len(W)
    for x in range(v):
        for y in range(x + 1, v):
            ok = (W[x] != BLANK) & (W[y] != BLANK)
            counts = np.bincount((W[x, ok] - W[y, ok]) % m, minlength=m)
            if not (counts == (v - 2) // m).all():
                return f"rows {x},{y}: difference counts {counts.tolist()}"
    return None


def first_failing_gh_pair(H, q):
    """Reference: the message for the first row pair x < y, in row-major
    order, whose differences over GF(q) do not cover each field element
    cols/q times; None when there is no such pair."""
    F = FiniteField(q)
    rows, cols = H.shape
    for x in range(rows):
        for y in range(x + 1, rows):
            diffs = [F.sub(int(a), int(b)) for a, b in zip(H[x], H[y])]
            counts = np.bincount(diffs, minlength=q)
            if not (counts == cols // q).all():
                return f"rows {x},{y}: difference counts {counts.tolist()}"
    return None


class TestBGW:
    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_grid_matrices(self, q, m):
        W = bgw_matrix(q, m)
        info = verify_bgw(W, m)
        assert info["v"] == q + 1
        assert info["k"] == q
        assert info["lam"] == q - 1
        assert info["symmetric"]
        assert info["blank_diagonal"]

    def test_obstructed_cases_raise(self):
        for q, m in BGW_OBSTRUCTED + [BGW_NEGATIVE]:
            with pytest.raises(SymmetryObstruction):
                bgw_matrix(q, m)

    def test_bad_divisor_raises(self):
        with pytest.raises(ValueError):
            bgw_matrix(7, 4)

    @pytest.mark.parametrize("q,m", [(5, 1), (2048, 1), (7, 0)], ids=str)
    def test_m_below_two_raises(self, q, m):
        # before m | q - 1, which m = 1 satisfies
        with pytest.raises(ValueError, match=f"^m={m} must be at least 2$"):
            bgw_matrix(q, m)

    def test_single_entry_mutations_rejected(self):
        W = bgw_matrix(7, 3)
        # blank structure violation
        W1 = W.copy()
        W1[0, 1] = BLANK
        with pytest.raises(VerificationError, match="blank"):
            verify_bgw(W1, 3)
        # group value change breaks the difference counts
        W2 = W.copy()
        W2[2, 3] = (W2[2, 3] + 1) % 3
        with pytest.raises(VerificationError, match="difference counts"):
            verify_bgw(W2, 3)
        # out-of-range entry
        W3 = W.copy()
        W3[1, 2] = 3
        with pytest.raises(VerificationError, match="entries"):
            verify_bgw(W3, 3)

    @pytest.mark.parametrize("q,m", [(7, 3), (13, 6), (8, 7), (9, 2)], ids=str)
    @pytest.mark.parametrize("flips", [1, 2, 5])
    def test_first_failing_pair_matches_the_pair_loop(self, q, m, flips):
        rng = np.random.default_rng(100 * q + 10 * m + flips)
        W = bgw_matrix(q, m)
        for x, j in rng.integers(0, q + 1, size=(flips, 2)):
            if W[x, j] != BLANK:
                W[x, j] = (W[x, j] + rng.integers(1, m)) % m
        want = first_failing_pair(W, m)
        if want is None:
            verify_bgw(W, m)
        else:
            with pytest.raises(VerificationError, match="^" + re.escape(want) + "$"):
                verify_bgw(W, m)

    def test_not_square_rejected(self):
        with pytest.raises(VerificationError, match="^matrix is not square$"):
            verify_bgw(bgw_matrix(7, 3)[:, :-1], 3)

    def test_zero_dimensional_rejected(self):
        with pytest.raises(VerificationError, match="^matrix is not square$"):
            verify_bgw(np.zeros((), dtype=int), 2)

    @pytest.mark.parametrize("m", [0, 1, -1])
    def test_one_point_or_m_below_one_rejected(self, m):
        # m = 0 would divide by zero at lambda % m, and m = +-1 would verify
        # the 1 x 1 blank matrix as a BGW(1, 0, -1)
        want = f"need at least 2 points and m >= 1, not v=1 and m={m}"
        with pytest.raises(VerificationError, match="^" + re.escape(want) + "$"):
            verify_bgw(np.array([[BLANK]]), m)

    def test_float_entries_rejected(self):
        with pytest.raises(VerificationError, match="^entries must be blank or in 0..m-1$"):
            verify_bgw(bgw_matrix(7, 3).astype(float), 3)

    def test_no_table_that_m_sizes(self):
        # lambda = 0 at v = 2 passes the divisibility check for every m, so
        # the difference count may form nothing of size m^2, nor anything
        # of size m, nor reduce a difference mod m in int64
        W = np.array([[BLANK, 0], [0, BLANK]])
        for m in (2000, 2**40, 2**64):
            tracemalloc.start()
            try:
                info = verify_bgw(W, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert info == {
                "v": 2, "k": 1, "lam": 0, "m": m, "symmetric": True, "blank_diagonal": True,
            }
            assert peak < 2**20, m

    def test_lambda_not_divisible_rejected(self):
        # bgw 7,3 has entries below 3 < 4 and one blank per row; lambda = 6
        with pytest.raises(VerificationError, match="^lambda=6 not divisible by m=4$"):
            verify_bgw(bgw_matrix(7, 3), 4)

    def test_first_failing_pair_at_q529(self):
        W = bgw_matrix(529, 2)
        W[5, 7] = 1 - W[5, 7]
        want = "rows 0,5: difference counts [263, 265]"
        assert first_failing_pair(W, 2) == want
        with pytest.raises(VerificationError, match="^" + re.escape(want) + "$"):
            verify_bgw(W, 2)

    def test_incidence_is_point_block_matrix(self):
        N = bgw_incidence(5, 2, 0)
        assert N.shape == (12, 12)
        assert set(np.unique(N)) <= {0, 1}
        assert (N.sum(axis=1) == 5 + 2).all()


def symmetric_bgw_search(q: int, m: int):
    """Exhaustive search for a symmetric BGW(q+1, q, q-1) over Z_m with blank
    diagonal, independent of the library's construction.

    Returns (W, nodes): a matrix in the format of ``bgw_matrix``, or None when
    none exists, and the number of entries tried.

    The search is complete because two normalizations map every symmetric
    blank-diagonal BGW(q+1, q, q-1) to one that it visits:

    * Switching W[x][y] -> W[x][y] + a_x + a_y (x != y) keeps W symmetric and
      shifts all differences W[x][j] - W[y][j] of rows x, y by the same
      a_x - a_y, so every difference multiset stays uniform.  With a_0 = 0
      and a_y = -W[0][y], row 0 becomes all identity.
    * A simultaneous permutation of rows and columns keeps symmetry, the blank
      diagonal and the BGW property.  One that fixes 0 and 1 keeps row 0 and
      sorts W[1][2:], which (row 1 against row 0) holds each element of Z_m
      exactly (q-1)/m times.

    The upper triangle of rows 2.. is then filled row by row.  For the row i
    being filled, the counts of W[x][j] - W[i][j] over the known columns are
    kept for every x < i, and a branch is cut as soon as one exceeds (q-1)/m.
    Two rows share q-1 nonblank columns, so when no count exceeds (q-1)/m on
    complete rows, every count equals it.
    """
    n, cap = q + 1, (q - 1) // m
    W = [[0] * n for _ in range(n)]
    for j in range(2, n):
        W[1][j] = W[j][1] = (j - 2) // cap
    nodes = 0

    def start_row(i):
        # differences with rows x < i over the columns j < i fixed by symmetry
        cnt = [[0] * m for _ in range(i)]
        for x in range(i):
            for j in range(i):
                if j != x:
                    cnt[x][(W[x][j] - W[i][j]) % m] += 1
        return cnt if all(c <= cap for row in cnt for c in row) else None

    def fill(i, j, cnt):
        nonlocal nodes
        if j >= n:
            if i + 1 == n:
                return True
            nxt = start_row(i + 1)
            return nxt is not None and fill(i + 1, i + 2, nxt)
        for v in range(m):
            nodes += 1
            diffs = [(W[x][j] - v) % m for x in range(i)]
            for x, d in enumerate(diffs):
                cnt[x][d] += 1
            if all(cnt[x][d] <= cap for x, d in enumerate(diffs)):
                W[i][j] = W[j][i] = v
                if fill(i, j + 1, cnt):
                    return True
            for x, d in enumerate(diffs):
                cnt[x][d] -= 1
        return False

    cnt = start_row(2)
    if cnt is None or not fill(2, 3, cnt):
        return None, nodes
    out = np.array(W, dtype=np.int64)
    np.fill_diagonal(out, BLANK)
    return out, nodes


class TestSymmetricBgwCertificate:
    """No symmetric weighing matrix of this shape exists for the obstructed
    parameters: an exhaustive search backs bgw_matrix's SymmetryObstruction.
    The controls show that the search finds matrices where they exist and
    agrees with the known nonexistence of a symmetric conference matrix of
    order 8, i.e. (q, m) = (7, 2)."""

    @pytest.mark.parametrize(
        "q,m", BGW_OBSTRUCTED + [BGW_NEGATIVE, (7, 2)], ids=lambda c: str(c)
    )
    def test_none_exists(self, q, m):
        W, nodes = symmetric_bgw_search(q, m)
        assert W is None
        assert nodes > 0

    @pytest.mark.parametrize("q,m", [(5, 2), (9, 4), (13, 2)], ids=lambda c: str(c))
    def test_finds_verified_matrix(self, q, m):
        W, _ = symmetric_bgw_search(q, m)
        info = verify_bgw(W, m)
        assert (info["v"], info["k"], info["lam"]) == (q + 1, q, q - 1)
        assert info["symmetric"]
        assert info["blank_diagonal"]


CIRCULANT_1100 = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]


class TestSGDD:
    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_divisible_design_parameters(self, q, m):
        for level in range(m):
            params = sgdd_params(bgw_incidence(q, m, level), m)
            assert params["v"] == (q + 1) * m
            assert params["k"] == q + m
            assert params["groups"] == q + 1
            assert params["group_size"] == m
            assert params["lam1"] == m
            assert params["lam2"] == 2 + (q - 1) // m

    def test_two_design_case(self):
        # lam1 = lam2 exactly when m = 2 + (q-1)/m; the grid instance is (4,3)
        params = sgdd_params(bgw_incidence(4, 3, 0), 3)
        assert params["lam"] == 3
        assert (params["v"], params["k"]) == (15, 7)

    def test_mutation_rejected(self):
        N = bgw_incidence(5, 2, 0)
        N[0, 0] ^= 1
        with pytest.raises(VerificationError):
            sgdd_params(N, 2)

    @pytest.mark.parametrize(
        "rows,group_size,want",
        [
            ([[1, 1, 0], [0, 1, 1]], 1, "bad shape or group size"),
            ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2, "bad shape or group size"),
            # rows 0 and 2 repeat, columns 0 and 1 repeat: N is not normal
            ([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]], 2, "N N^T and N^T N differ"),
            # line sums 2, but N N^T = 4 I
            ([[2, 0], [0, 2]], 1, "diagonal of N N^T is not k"),
            # the circulant of 1100 has N N^T the circulant of 2101
            (CIRCULANT_1100, 4, "same-group inner products not constant"),
            (CIRCULANT_1100, 1, "cross-group inner products not constant"),
            # 4 % 0 would divide by zero, and 4 % -2 == 0 gives -2 groups
            (CIRCULANT_1100, 0, "bad shape or group size"),
            (CIRCULANT_1100, -2, "bad shape or group size"),
            # a 0-D array has no shape[0], and a 0 x 0 one no row sum ksum[0]
            (0, 1, "bad shape or group size"),
            (np.zeros((0, 0), dtype=int), 1, "bad shape or group size"),
            # N N^T = [[2.5, 1.5], [1.5, 2.5]], which an integer product would truncate
            ([[1.5, 0.5], [0.5, 1.5]], 1, "entries must be integers"),
            ([[True, False], [False, True]], 1, "entries must be integers"),
            ([["1", "0"], ["0", "1"]], 1, "entries must be integers"),
        ],
        ids=[
            "not-square", "group-size", "not-normal", "diagonal", "same-group", "cross-group",
            "zero-group-size", "negative-group-size", "zero-dimensional", "empty",
            "float", "bool", "string",
        ],
    )
    def test_each_failure_is_named(self, rows, group_size, want):
        with pytest.raises(VerificationError, match="^" + re.escape(want) + "$"):
            sgdd_params(np.array(rows), group_size)


class TestGH:
    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_multiplication_table_is_gh(self, q):
        H = gh_matrix(q)
        info = verify_gh(H, q)
        assert info["lam"] == 1
        assert np.array_equal(H, H.T)

    def test_mutation_rejected(self):
        H = gh_matrix(5)
        H[1, 2] = (H[1, 2] + 1) % 5
        with pytest.raises(VerificationError, match="difference counts"):
            verify_gh(H, 5)

    @pytest.mark.parametrize("q", [5, 7, 9])
    @pytest.mark.parametrize("width", [1, 2], ids=["square", "wide"])
    @pytest.mark.parametrize("flips", [1, 2, 5])
    def test_first_failing_pair_matches_the_pair_loop(self, q, width, flips):
        # the q x 2q matrix [H H] is a GH(q, 2)
        rng = np.random.default_rng(100 * q + 10 * width + flips)
        H = np.hstack([gh_matrix(q)] * width)
        for x, j in rng.integers(0, q, size=(flips, 2)):
            H[x, j] = (H[x, j] + rng.integers(1, q)) % q
        want = first_failing_gh_pair(H, q)
        if want is None:
            assert verify_gh(H, q)["lam"] == width
        else:
            with pytest.raises(VerificationError, match="^" + re.escape(want) + "$"):
                verify_gh(H, q)

    def test_column_count_rejected(self):
        with pytest.raises(VerificationError, match="^column count must be a multiple of q$"):
            verify_gh(gh_matrix(5)[:, :4], 5)

    def test_not_2d_rejected(self):
        with pytest.raises(VerificationError, match="^matrix is not 2-D$"):
            verify_gh(np.zeros(3, dtype=int), 3)

    @pytest.mark.parametrize("entry", [-1, 5])
    def test_entry_outside_the_field_rejected(self, entry):
        H = gh_matrix(5).copy()
        H[1, 2] = entry
        with pytest.raises(VerificationError, match="^entries must be field indices 0..q-1$"):
            verify_gh(H, 5)

    def test_float_entries_rejected(self):
        with pytest.raises(VerificationError, match="^entries must be field indices 0..q-1$"):
            verify_gh(gh_matrix(5).astype(float), 5)

    @pytest.mark.parametrize(
        "rows,cols", [(2, 0), (0, 3), (1, 3)], ids=["no-columns", "no-rows", "one-row"]
    )
    def test_too_few_rows_or_columns_rejected(self, rows, cols):
        # no pair of rows, or none of the q differences, to count
        H = gh_matrix(3)[:rows, :cols]
        want = f"need at least 2 rows and q=3 columns, not {rows} and {cols}"
        with pytest.raises(VerificationError, match="^" + re.escape(want) + "$"):
            verify_gh(H, 3)

    def test_row_differences_cover_field(self):
        q = 7
        H = gh_matrix(q)
        from gwschemes import FiniteField

        F = FiniteField(q)
        diffs = sorted(F.sub(int(a), int(b)) for a, b in zip(H[1], H[2]))
        assert diffs == list(range(q))


class TestOneFactorization:
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
    def test_round_robin(self, q):
        factor = one_factorization(q)
        assert factor.shape == (q + 1, q + 1) and factor.dtype == np.int64
        verify_one_factorization(factor)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
    def test_matches_the_closed_form(self, q):
        # element by element: {1+x, 1+y} lies in factor a exactly when
        # x + y = 2a, and {infinity, a} lies in factor a
        F = FiniteField(q)
        factor = one_factorization(q)
        assert (np.diag(factor) == BLANK).all()
        for a in range(q):
            assert factor[0, 1 + a] == factor[1 + a, 0] == a, q
            two_a = F.add(a, a)
            for x in range(q):
                for y in range(q):
                    if x != y:
                        assert (factor[1 + x, 1 + y] == a) == (F.add(x, y) == two_a), q

    def test_even_q_rejected(self):
        with pytest.raises(ValueError, match="^q must be odd$"):
            one_factorization(4)

    def test_asymmetric_factor_rejected(self):
        factor = one_factorization(5)
        factor[0, 1] = factor[0, 2]
        with pytest.raises(VerificationError, match="^factor matrix not symmetric$"):
            verify_one_factorization(factor)

    def test_no_factors_rejected(self):
        # K_0 and K_1 have no edges to factor
        for n in (0, 1):
            with pytest.raises(VerificationError, match=f"^need at least 2 vertices, not n={n}$"):
                verify_one_factorization(np.full((n, n), BLANK))

    def test_factor_that_is_no_matrix_rejected(self):
        for factor in (np.zeros(3, dtype=int), one_factorization(3)[:, :3]):
            with pytest.raises(VerificationError, match="^factor matrix must be a square integer array$"):
                verify_one_factorization(factor)

    def test_float_array_rejected(self):
        with pytest.raises(VerificationError, match="^factor matrix must be a square integer array$"):
            verify_one_factorization(one_factorization(5).astype(float))

    def test_fixed_point_rejected(self):
        # a diagonal entry 0 would match vertex 2 with itself in factor 0
        factor = one_factorization(5)
        factor[2, 2] = 0
        with pytest.raises(VerificationError, match="^factor matrix diagonal must be blank$"):
            verify_one_factorization(factor)

    def test_extra_edge_rejected(self):
        # factor 0 holds {infinity, 0}; putting {infinity, 1} there too, on
        # both sides, keeps the matrix symmetric but gives infinity two
        # partners in factor 0 and none in factor 1
        factor = one_factorization(5)
        assert factor[0, 1] == 0 and factor[0, 2] == 1
        factor[0, 2] = factor[2, 0] = 0
        with pytest.raises(VerificationError, match="^vertex 0 does not meet each factor once$"):
            verify_one_factorization(factor)

    def test_broken_factorization_rejected(self):
        # an edge moved to a factor that does not exist
        factor = one_factorization(5)
        factor[1, 3] = factor[3, 1] = 5
        with pytest.raises(VerificationError, match="^vertex 1 does not meet each factor once$"):
            verify_one_factorization(factor)

    def test_odd_order_rejected(self):
        # K_3 has no one-factorization: a symmetric blank-diagonal matrix over
        # the factors 0, 1 repeats one of them in some row
        factor = np.array([[BLANK, 0, 1], [0, BLANK, 1], [1, 1, BLANK]])
        with pytest.raises(VerificationError, match="^vertex 2 does not meet each factor once$"):
            verify_one_factorization(factor)


class TestLatin:
    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_symmetric_idempotent_latin(self, q):
        L = latin_square(q)
        assert verify_latin(L) == {"n": q, "symmetric": True, "idempotent": True}
        assert np.array_equal(L, L.T)
        assert np.array_equal(np.diag(L), np.arange(q))

    @pytest.mark.parametrize(
        "square,flags",
        [
            (lambda x, y: (2 * x - y) % 5, {"symmetric": False, "idempotent": True}),
            (lambda x, y: (x + y) % 5, {"symmetric": True, "idempotent": False}),
        ],
        ids=["idempotent-only", "symmetric-only"],
    )
    def test_flags_of_latin_controls(self, square, flags):
        # both are Latin squares of order 5, but only one of the two facts
        # that latin_square's cells need holds in each
        L = square(*np.ogrid[:5, :5])
        assert verify_latin(L) == {"n": 5, **flags}

    def test_first_bad_row_or_column_as_a_loop_finds_it(self):
        # the message names the least i whose row or column is no permutation
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = latin_square(7)
            x, y = rng.integers(7, size=2)
            L[x, y] = rng.integers(7)
            want = np.arange(7)
            bad = [
                i for i in range(7)
                if (np.sort(L[i]) != want).any() or (np.sort(L[:, i]) != want).any()
            ]
            if not bad:
                assert verify_latin(L)["n"] == 7
                continue
            with pytest.raises(VerificationError, match=f"^row/column {bad[0]} is not a permutation$"):
                verify_latin(L)

    def test_matches_one_factorization(self):
        # the factor matrix is the square off the diagonal, and the square's
        # diagonal entry x goes to the edge {infinity, x}
        for q in (3, 5, 7, 9, 11, 13, 25, 27):
            L, factor = latin_square(q), one_factorization(q)
            off = ~np.eye(q, dtype=bool)
            assert np.array_equal(factor[1:, 1:][off], L[off]), q
            assert np.array_equal(factor[0, 1:], np.diag(L)), q

    def test_mutation_rejected(self):
        L = latin_square(5)
        L[0, 1] = L[0, 2]
        with pytest.raises(VerificationError, match="not a permutation"):
            verify_latin(L)

    def test_not_square_rejected(self):
        with pytest.raises(VerificationError, match="^matrix is not square$"):
            verify_latin(np.zeros(3, dtype=int))

    def test_float_array_rejected(self):
        # its values are a Latin square, but not integers
        with pytest.raises(VerificationError, match="^entries must be integers 0..n-1$"):
            verify_latin(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_empty_square_rejected(self):
        for L in (np.zeros((0, 0), dtype=int), np.zeros((0, 0))):
            with pytest.raises(VerificationError, match="^need at least 1 row, not n=0$"):
                verify_latin(L)

    def test_one_symbol(self):
        assert verify_latin(np.array([[0]])) == {"n": 1, "symmetric": True, "idempotent": True}
