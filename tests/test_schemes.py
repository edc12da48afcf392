"""Association scheme axioms, intersection tensors, and fusions."""
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gwschemes import (
    AssociationScheme,
    FiniteField,
    NotAScheme,
    VerificationError,
    bgw_build,
    bgw_symmetric_fusion,
    gh_build,
    gh_symmetric_fusion,
    one_factorization,
    oracle_closure,
    save_scheme,
)
from gwschemes import schemes
from gwschemes.matrixkit import mm
from gwschemes.schemes import _Span, _right_action
from groupschemes import a4_scheme
from kronecker import label_matrix, shift_matrix
import cases


def cyclic_label_matrix(n):
    """The label matrix of the thin scheme of Z_n: L[x, y] = y - x mod n, so
    A_i = (L == i) is the permutation matrix of +i."""
    idx = np.arange(n)
    return (idx[None, :] - idx[:, None]) % n


def johnson_style_pair(n):
    """I, J - I: the one-class scheme on n points."""
    I = np.eye(n, dtype=np.int64)
    return [I, np.ones((n, n), dtype=np.int64) - I]


def verified(L, labels=None):
    """The scheme of a label matrix, its classes named 0, 1, ... by default."""
    return AssociationScheme.from_matrices(L, labels or [str(i) for i in range(L.max() + 1)])


class TestFromMatrices:
    def test_one_class_scheme(self):
        s = verified(label_matrix(johnson_style_pair(5)))
        assert s.nclasses == 2
        assert s.valencies == [1, 4]
        assert s.is_symmetric()
        assert s.is_commutative()
        # J-I squared = (n-1) I + (n-2)(J-I)
        assert s.p[1, 1, 0] == 4
        assert s.p[1, 1, 1] == 3

    def test_thin_group_scheme(self):
        s = verified(cyclic_label_matrix(6))
        shifts = [shift_matrix(6, i) for i in range(6)]
        assert np.array_equal(cyclic_label_matrix(6), label_matrix(shifts))
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
        mats = [(s.L == i).astype(np.int64) for i in range(s.nclasses)]
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
        assert verified(label_matrix(johnson_style_pair(4))).classify() == "symmetric"
        assert verified(cyclic_label_matrix(5)).classify() == "commutative"
        assert bgw_build(7, 3).classify() == "noncommutative"

    def test_labels_exposed(self):
        s = verified(label_matrix(johnson_style_pair(3)), labels=["id", "other"])
        assert s.labels == ["id", "other"]
        assert s.label_index("other") == 1


class TestRejection:
    def test_missing_identity(self):
        # one class holds the diagonal and J - I alike, so no class is I
        L = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(NotAScheme, match="identity"):
            verified(L)

    def test_identity_not_first(self):
        I, JmI = johnson_style_pair(4)
        with pytest.raises(NotAScheme, match="identity"):
            verified(label_matrix([JmI, I]))

    def test_transpose_not_closed(self):
        # A1 mixes an ordered pair with an unordered one, so A1^T is neither
        # A1 nor A2 although the three supports partition all positions
        I = np.eye(3, dtype=np.int64)
        A1 = np.zeros((3, 3), dtype=np.int64)
        for x, y in [(0, 1), (1, 2), (2, 0), (0, 2)]:
            A1[x, y] = 1
        A2 = np.ones((3, 3), dtype=np.int64) - I - A1
        with pytest.raises(NotAScheme, match="transpose"):
            verified(label_matrix([I, A1, A2]))

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
            verified(label_matrix([I, A, B]))

    @pytest.mark.parametrize(
        "nm,transposed,says",
        [
            (4, False, "some relation is empty"),
            (3, False, "relation set is not closed under transpose"),
            (3, True, "row/column sums not constant"),
        ],
        ids=["empty", "transpose", "row-counts"],
    )
    def test_message_order_across_row_blocks(self, monkeypatch, nm, transposed, says):
        # rows 1 and 2 hold class 2 once and row 0 never, so their counts are
        # not the valencies; with one row per block they are counted before
        # the pair at (6, 7), which breaks transposition unless (7, 6) has
        # class 2 too, and before any class is found empty: the empty class
        # comes first, then transposition, then the row counts
        monkeypatch.setattr(schemes, "BLOCK", 8)
        L = 1 - np.eye(8, dtype=np.int64)
        L[1, 2] = L[2, 1] = L[6, 7] = 2
        if transposed:
            L[7, 6] = 2
        with pytest.raises(NotAScheme, match=f"^{says}$"):
            AssociationScheme.from_matrices(L, [str(c) for c in range(nm)])

    def test_single_entry_mutation_rejected(self):
        s = bgw_build(5, 2)
        L = s.L.copy()
        L[0, 0] = 1  # move a diagonal unit from A_0 to A_1
        with pytest.raises(NotAScheme, match="identity"):
            verified(L, s.labels)
        L2 = s.L.copy()
        L2[0, 1] = 3 - L2[0, 1]  # relabel one off-diagonal entry
        with pytest.raises(NotAScheme):
            verified(L2, s.labels)


class TestLabelMatrix:
    def test_from_label_matrix(self):
        s = AssociationScheme.from_matrices(cyclic_label_matrix(6), list("abcdef"))
        assert s.labels == list("abcdef")
        # Z_6 is thin and abelian: A_i A_j = A_(i+j)
        want = np.zeros((6, 6, 6), dtype=np.int64)
        for i in range(6):
            for j in range(6):
                want[i, j, (i + j) % 6] = 1
        assert np.array_equal(s.p, want)

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
        L = cyclic_label_matrix(6)
        mutate(L)
        with pytest.raises(NotAScheme, match=says):
            AssociationScheme.from_matrices(L, [str(i) for i in range(6)])

    def test_non_square_rejected(self):
        with pytest.raises(NotAScheme, match="square"):
            AssociationScheme.from_matrices(cyclic_label_matrix(6)[:5], [str(i) for i in range(6)])

    def test_empty_relation_rejected(self):
        with pytest.raises(NotAScheme, match="empty"):
            AssociationScheme.from_matrices(cyclic_label_matrix(6), [str(i) for i in range(7)])

    def test_uneven_valency_rejected(self):
        # both relations are symmetric, but point 0 has two 1-neighbours and
        # the others one
        L = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        with pytest.raises(NotAScheme, match="row/column sums"):
            AssociationScheme.from_matrices(L, ["0", "1", "2"])

    def test_constant_rows_with_uneven_columns_rejected(self):
        # every row holds each class once, but column 0 holds class 2 twice:
        # columns are not counted, and the transpose check rejects it
        L = np.array([[0, 1, 2], [2, 0, 1], [2, 1, 0]])
        with pytest.raises(NotAScheme, match="transpose"):
            AssociationScheme.from_matrices(L, ["0", "1", "2"])

    def test_float32_bound_checked(self):
        # a zero-stride view: v = 2**24 points without the memory
        L = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**24, 2**24))
        with pytest.raises(ValueError, match="2\\*\\*24"):
            AssociationScheme.from_matrices(L, ["0"])

    @pytest.mark.parametrize(
        "labels",
        [list(range(6)), [], ["0", "1", "2", "3", "4", "4"], tuple("abcdef")],
        ids=["integers", "empty", "duplicate", "tuple"],
    )
    def test_labels_are_a_nonempty_list_of_distinct_strings(self, labels):
        # the rule of the file readers, so that save_scheme, load_scheme and
        # fuse take every scheme that is built
        says = "^labels must be a nonempty list of distinct strings$"
        with pytest.raises(ValueError, match=says):
            AssociationScheme.from_matrices(cyclic_label_matrix(6), labels)
        # checked before any pass over L: v = 2**24 points of a zero-stride view
        L = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**24, 2**24))
        with pytest.raises(ValueError, match=says):
            AssociationScheme.from_matrices(L, labels)

    def test_label_matrix_is_a_read_only_copy(self):
        L = cyclic_label_matrix(6)
        s = AssociationScheme.from_matrices(L, [str(i) for i in range(6)])
        L[:] = 0
        assert np.array_equal(s.L, cyclic_label_matrix(6))
        assert not s.L.flags.writeable


def relabelled(n, k, label, dtype=np.int64):
    """The cyclic label matrix of Z_n, in dtype, with every cell of class k
    labelled label instead: a cast that wraps label around to k would make
    it the valid scheme of Z_n again."""
    L = cyclic_label_matrix(n).astype(dtype)
    L[L == k] = label
    return L


class TestCompactLabels:
    """L is stored in the compact dtype np.min_scalar_type(nm - 1), read-only,
    and the label range is checked before the cast."""

    @pytest.mark.parametrize(
        "L,nm",
        [
            (relabelled(6, 1, 256 + 1), 6),
            (relabelled(257, 1, 65536 + 1), 257),
            (relabelled(256, 255, -1), 256),
            (relabelled(6, 1, 2**63 + 1, np.uint64), 6),
        ],
        ids=["uint8-wrap", "uint16-wrap", "minus-one", "uint64-2^63"],
    )
    def test_out_of_range_labels_never_wrap(self, L, nm):
        with pytest.raises(NotAScheme, match=f"^labels must lie in 0..{nm - 1}$"):
            AssociationScheme.from_matrices(L, [str(i) for i in range(nm)])

    def test_more_than_256_classes_store_uint16(self):
        # the cyclic scheme of Z_257, against its closed form in int64:
        # A_i A_j = A_(i+j), A_i^T = A_(-i) and every valency 1
        n = 257
        s = AssociationScheme.from_matrices(cyclic_label_matrix(n), [str(i) for i in range(n)])
        assert s.L.dtype == np.uint16 and not s.L.flags.writeable
        assert np.array_equal(s.L, cyclic_label_matrix(n))
        i, j = np.ogrid[:n, :n]
        assert s.p.dtype == np.int64 and s.p.sum() == n * n
        assert (s.p[i, j, (i + j) % n] == 1).all()
        assert s.tpose == [-i % n for i in range(n)]
        assert s.valencies == [1] * n

    @pytest.mark.parametrize(
        "make",
        [
            lambda: cases.bgw(5, 2),
            lambda: cases.gh(3),
            lambda: cases.bgw(7, 3).fuse(bgw_symmetric_fusion(3)),
            lambda: cases.gh(5).fuse(gh_symmetric_fusion(5)),
            lambda: verified(cyclic_label_matrix(6).astype(np.int32)),
        ],
        ids=["bgw52", "gh3", "fused-bgw73", "fused-gh5", "int32-input"],
    )
    def test_stored_compact_and_read_only(self, make):
        s = make()
        assert s.L.dtype == np.uint8 == np.min_scalar_type(s.nclasses - 1)
        assert not s.L.flags.writeable

    def test_no_int64_label_temporaries(self):
        # from_matrices on an int64 gh 9 label matrix, allocated before the
        # trace, peaks at the three float32 v x v GEMM arrays plus 2 MiB
        L = cases.gh(9).L.astype(np.int64)
        v = len(L)
        tracemalloc.start()
        try:
            AssociationScheme.from_matrices(L, cases.gh(9).labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 4 * v * v + 2 * 2**20


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


def relabel_in_block(rows, cols, perm):
    """Relabel the block (rows, cols) by the class permutation perm, and the
    mirror block (cols, rows) by its conjugate t perm t under the transpose
    map t: every pair keeps its transpose pair.  Both blocks are read before
    either is written, so (rows, cols) may be a principal block when perm
    commutes with t."""
    def mutate(s):
        t = np.array(s.tpose)
        L = s.L.copy()
        block = perm[L[np.ix_(rows, cols)]]
        mirror = t[perm[t[L[np.ix_(cols, rows)]]]]
        L[np.ix_(rows, cols)] = block
        L[np.ix_(cols, rows)] = mirror
        return L
    return mutate


def swap_in_block(rows, cols, a, b):
    """Swap classes a and b, of equal valency, in the block (rows, cols), and
    the transposes of a and b in the mirror block (cols, rows): every pair
    keeps its transpose pair, and every row its label counts."""
    def mutate(s):
        perm = np.arange(s.nclasses)
        perm[[a, b]] = b, a
        return relabel_in_block(rows, cols, perm)(s)
    return mutate


def gh_shift_in_block(q, rows, cols, delta):
    """Move each class (a,1) of gh q to (a + delta,1) in the block (rows,
    cols).  A translation of GF(q) commutes with the right action of the thin
    classes (a,0), so the thin generators' gathers pass, and only a GEMM
    product can reject the result when rows is part of a point group."""
    perm = np.arange(2 * q + 1)
    perm[q:2 * q] = q + FiniteField(q).add_t[np.arange(q), delta]
    return relabel_in_block(rows, cols, perm)


def right_action_calls(monkeypatch):
    """The valencies k and check sets that _certify_closure gives
    _right_action, recorded as (k, check) pairs."""
    calls, checked = [], schemes._right_action

    def spy(L, R, g, check, k, rows):
        calls.append((k, list(check)))
        return checked(L, R, g, check, k, rows)

    monkeypatch.setattr(schemes, "_right_action", spy)
    return calls


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
            # the one GEMM class of gh 9 is (0,1); the shift passes the thin
            # gathers, so only A_(0,1) A_(0,1) is left to reject it, and the
            # products of the other eight classes (a,1) are implied
            (lambda: gh_build(9), gh_shift_in_block(9, range(81, 90), range(162, 243), 1)),
            # class 4, (5,0)+(7,0), is the one class whose product with the
            # first generator 6 is implied, and class 1 is implied for the
            # later generators 7 and 8
            (
                lambda: gh_build(9).fuse(gh_symmetric_fusion(9)),
                swap_in_block(range(9, 18), range(9, 18), 1, 4),
            ),
        ],
        ids=[
            "bgw73-thin-block",
            "gh5-thin-block",
            "bgw73-nonthin-block",
            "gh5-nonthin-block",
            "gh5-fused-nonthin-block",
            "gh9-shifted-rows",
            "gh9-fused-implied-classes",
        ],
    )
    def test_relabelled_block_rejected(self, build, mutate):
        s = build()
        L = mutate(s)
        assert (L != s.L).any()
        with pytest.raises(VerificationError):  # independently, no scheme
            oracle_closure(L)
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
        # the classes that are not thin, by valency; _right_action checks
        # every class it is given, so 3 and 6 are digits of one GEMM
        rest = [4, 5, 3, 6, 1, 2]
        g, k = 3, s.valencies[3]  # (0,1): symmetric, valency 25
        R = s.p[:, g].copy()
        assert (R[3, 0], R[6, 0]) == (k, 0)  # A_g A_g is k on the diagonal
        R[3, 0], R[6, 0] = 0, 1
        assert _right_action(s.L, R, g, rest, k, s.L) == 3
        assert _right_action(s.L, s.p[:, g], g, rest, k, s.L) is None

    @pytest.mark.parametrize(
        "build,g,a,b",
        [(lambda: bgw_build(7, 3), 1, 3, 4), (lambda: gh_build(5), 1, 5, 6)],
        ids=["bgw73", "gh5"],
    )
    def test_forged_thin_coefficients_rejected(self, build, g, a, b):
        # a forged coefficient table for a thin g moves the 1 of a class t
        # from row a to row b; every class is checked, so a and b are digits
        # of one gathered numeral, and the class named must really fail
        s = build()
        assert s.valencies[g] == 1 and s.nclasses <= 24
        every = list(range(s.nclasses))
        R = s.p[:, g].copy()
        t = int(R[a].argmax())
        assert (R[a, t], R[b, t]) == (1, 0)  # A_a A_g = A_t, A_a with its columns permuted
        R[a, t], R[b, t] = 0, 1
        i = _right_action(s.L, R, g, every, 1, s.L)
        assert i in (a, b)
        prod = (s.L == i).astype(np.int64) @ (s.L == g).astype(np.int64)
        assert not np.array_equal(prod, R[i][s.L])
        assert _right_action(s.L, s.p[:, g], g, every, 1, s.L) is None

    @pytest.mark.parametrize(
        "build",
        [lambda q=q, m=m: cases.bgw(q, m) for q, m in cases.BGW_BUILDABLE]
        + [lambda q=q: cases.gh(q) for q in cases.GH_GRID],
        ids=[f"bgw{q}_{m}" for q, m in cases.BGW_BUILDABLE] + [f"gh{q}" for q in cases.GH_GRID],
    )
    def test_thin_gathers_pass_on_the_grid(self, build):
        # every thin class g, A_0 included, with every class checked
        s = build()
        every = list(range(s.nclasses))
        thin = [g for g in every if s.valencies[g] == 1]
        assert len(thin) > 1
        for g in thin:
            assert _right_action(s.L, s.p[:, g], g, every, 1, s.L) is None

    @pytest.mark.parametrize(
        "build,want",
        [
            (lambda: gh_build(9), [1]),
            (lambda: gh_build(9).fuse(gh_symmetric_fusion(9)), [9, 2, 1]),
            (lambda: bgw_build(47, 23), [1]),
        ],
        ids=["gh9", "gh9-fused", "bgw47_23"],
    )
    def test_gemms_check_only_what_the_span_does_not_imply(self, monkeypatch, build, want):
        # all but the first (largest) class of rest went into the GEMMs
        # before: [10], [10, 10, 10] and [23]
        s = build()
        calls = right_action_calls(monkeypatch)
        rebuilt = AssociationScheme.from_matrices(s.L, s.labels)
        gemms = [check for k, check in calls if k > 1]
        assert [len(c) for c in gemms] == want
        assert np.array_equal(rebuilt.p, s.p)
        # each check set walks the thin classes first, then the rest by
        # decreasing valency; every thin class is implied by the time of a
        # GEMM, so a GEMM's check set starts with the largest
        for check in gemms:
            vals = [s.valencies[c] for c in check]
            assert min(vals) > 1 and vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize(
        "case",
        [*(("bgw", c) for c in cases.BGW_BUILDABLE), *(("gh", (q,)) for q in cases.GH_GRID)],
        ids=lambda c: f"{c[0]}{'-'.join(map(str, c[1]))}",
    )
    def test_first_check_set_is_the_reference_walk(self, monkeypatch, case):
        # every check set, the first one's closed form order[:nm - 2]
        # included, against the transposed walk over Fraction ranks, on the
        # scheme and on its symmetric fusion, with and without the maps
        family, args = case
        s = cases.bgw(*args) if family == "bgw" else cases.gh(*args)
        fusion = bgw_symmetric_fusion(args[1]) if family == "bgw" else gh_symmetric_fusion(*args)
        calls = right_action_calls(monkeypatch)
        for scheme in (s, s.fuse(fusion)):
            want = reference_check_sets(scheme)
            assert len(want[0]) == scheme.nclasses - 2
            assert scheme.automorphisms  # so the two runs differ
            for maps in ((), scheme.automorphisms):
                calls.clear()
                AssociationScheme.from_matrices(scheme.L, scheme.labels, maps)
                assert [check for _, check in calls] == want

    def test_noncommutative_check_sets_are_the_reference_walk(self, monkeypatch):
        # in A4's thin scheme a walk that closed in the checked classes
        # themselves, not their transposes, would check [3, 6, 9] at the
        # second generator
        s = a4_scheme()
        calls = right_action_calls(monkeypatch)
        AssociationScheme.from_matrices(s.L, s.labels)
        want = [list(range(1, 11)), [3, 4, 5]]
        assert [check for _, check in calls] == reference_check_sets(s) == want

    @pytest.mark.parametrize(
        "build,want",
        [
            (lambda: gh_build(9), [17, 5]),
            (lambda: gh_build(9).fuse(gh_symmetric_fusion(9)), []),
            (lambda: bgw_build(47, 23), [44]),
        ],
        ids=["gh9", "gh9-fused", "bgw47_23"],
    )
    def test_thin_generators_check_only_what_the_span_does_not_imply(
        self, monkeypatch, build, want
    ):
        # the first generator, with S = span{I}, checks every class but 0 and
        # the one that J implies; a later thin generator checks fewer, and
        # each thin one comes before every GEMM
        s = build()
        calls = right_action_calls(monkeypatch)
        AssociationScheme.from_matrices(s.L, s.labels)
        assert [len(c) for k, c in calls if k == 1] == want
        ks = [k for k, _ in calls]
        assert ks == sorted(ks, key=lambda k: k > 1)
        for k, check in calls[:len(want)]:
            vals = [s.valencies[c] for c in check]
            assert vals == sorted(vals, key=lambda x: (x > 1, -x))

    @pytest.mark.parametrize(
        "build,sizes,seed",
        [
            (lambda: bgw_build(7, 3), [3], 1),
            (lambda: gh_build(5), [5, 25], 2),
            (lambda: gh_build(7), [7, 49], 3),
            (lambda: gh_build(5).fuse(gh_symmetric_fusion(5)), [5, 25], 4),
        ],
        ids=["bgw73", "gh5", "gh7", "gh5-fused"],
    )
    def test_block_swaps_rejected_exactly_when_the_oracle_rejects(self, build, sizes, seed):
        # seeded swaps of two classes of equal valency in the block of two
        # random point groups (of m points for bgw; of q or q**2 for gh),
        # drawn from the classes the block holds so that L changes: the
        # certificate rejects exactly what the all-products oracle rejects
        s = build()
        rng = np.random.default_rng(seed)
        val = np.array(s.valencies)
        swaps = 0
        while swaps < 6:
            size = int(rng.choice(sizes))
            i, j = (int(x) for x in rng.choice(s.v // size, 2, replace=False))
            rows, cols = range(i * size, (i + 1) * size), range(j * size, (j + 1) * size)
            held = np.unique(s.L[np.ix_(rows, cols)])
            pairs = [(a, b) for a in held for b in held if a < b and val[a] == val[b]]
            if not pairs:
                continue
            a, b = (int(x) for x in pairs[rng.integers(len(pairs))])
            L = swap_in_block(rows, cols, a, b)(s)
            assert (L != s.L).any()
            try:
                cases.assert_column_zero(AssociationScheme.from_matrices(L, s.labels))
                ours = True
            except NotAScheme:
                ours = False
            try:
                oracle_closure(L)
                theirs = True
            except VerificationError:
                theirs = False
            assert ours == theirs, (size, i, j, a, b)
            swaps += 1

    def test_thin_relations_of_no_group_rejected(self):
        # the one-factorization of K_6 as a label matrix: every class is thin
        # and symmetric, so every earlier check passes and only the thin
        # generators' gathers can reject it; no group of order 6 has five
        # involutions
        L = one_factorization(5) + 1
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
        # matrices, against a plain Fraction elimination; past 2**63 each
        # matrix is a big multiple of a small one, or that plus a small one
        rng = np.random.default_rng(0)
        for big in [False] * 100 + [True] * 50:
            nm = int(rng.integers(2, 9))
            gens = [rng.integers(-2, 3, (nm, nm)) for _ in range(int(rng.integers(1, 3)))]
            if big:
                small = [rng.integers(-1, 2, (nm, nm)) * int(rng.integers(2)) for _ in gens]
                gens = [R.astype(object) * (2**64 + 1) + r for R, r in zip(gens, small)]
                assert max(abs(x) for R in gens for x in R.flat) >= 2**63
            span = _Span(nm)
            for R in gens:
                span.add(R)
            words = frontier = [np.eye(nm, dtype=np.int64)[0]]
            for _ in range(nm - 1):
                # a basis of the words of each length spans the next length
                frontier = basis([w @ R for w in frontier for R in gens])
                words = basis(words + frontier)
            assert span.rank == rational_rank(words)
            for i in range(nm):
                e = np.eye(nm, dtype=np.int64)[i]
                assert (i in span) == (rational_rank(words + [e]) == span.rank)


def basis(rows) -> list:
    """The rows of rows that add to the rank of those before them."""
    out = []
    for r in rows:
        if rational_rank(out + [r]) > len(out):
            out.append(r)
    return out


def closed_basis(rows, gens) -> list:
    """A basis of the least subspace that holds rows and that each matrix of
    gens maps into itself, acting on row vectors from the right."""
    out, todo = [], list(rows)
    while todo:
        w = todo.pop()
        if rational_rank(out + [w]) > len(out):
            out.append(w)
            todo += [w @ R for R in gens]
    return out


def reference_check_sets(s) -> list[list[int]]:
    """The check set of each generator that _certify_closure takes, by the
    transposed walk over Fraction ranks: with the span S of the words in the
    generators before it, close S and J under those generators, then check
    each class c of the order whose transpose's unit vector is not reached,
    and close that vector in."""
    nm, val, tpose = s.nclasses, s.valencies, s.tpose
    order = sorted(range(1, nm), key=lambda i: (val[i] > 1, -val[i], i))
    eye = np.eye(nm, dtype=object)  # Python integers, which do not overflow
    gens, span, sets = [], [eye[0]], []
    for g in order:
        if len(span) == nm:
            break
        if rational_rank(span + [eye[g]]) == len(span):
            continue
        reached, check = closed_basis(span + [np.ones(nm, dtype=object)], gens), []
        for c in order:
            if len(reached) == nm:
                break
            if rational_rank(reached + [eye[tpose[c]]]) > len(reached):
                check.append(c)
                reached = closed_basis(reached + [eye[tpose[c]]], gens)
        sets.append(check)
        gens.append(s.p[:, g].astype(object))
        span = closed_basis(span, gens)
    return sets


class TestRowBlocks:
    """One row per block (BLOCK = 5 cells) gives the schemes and the
    verdicts of the default blocks."""

    @pytest.mark.parametrize(
        "build,partition",
        [
            (lambda: bgw_build(7, 3), bgw_symmetric_fusion(3)),
            (lambda: gh_build(5), gh_symmetric_fusion(5)),
        ],
        ids=["bgw73", "gh5"],
    )
    def test_same_scheme_and_fusion(self, monkeypatch, build, partition):
        s = build()
        fused = s.fuse(partition)
        monkeypatch.setattr(schemes, "BLOCK", 5)
        rebuilt = AssociationScheme.from_matrices(s.L, s.labels)
        for a, b in [(s, rebuilt), (fused, s.fuse(partition))]:
            assert np.array_equal(a.L, b.L) and a.L.dtype == b.L.dtype
            assert np.array_equal(a.p, b.p)
            assert (a.tpose, a.valencies) == (b.tpose, b.valencies)

    @pytest.mark.parametrize(
        "build,mutate",
        [
            (lambda: bgw_build(7, 3), transpose_last_block(3)),
            (lambda: gh_build(5), swap_in_block(range(25, 50), range(50, 75), 5, 6)),
        ],
        ids=["bgw73-thin-block", "gh5-nonthin-block"],
    )
    def test_same_verdict(self, monkeypatch, build, mutate):
        s = build()
        L = mutate(s)
        with pytest.raises(NotAScheme, match="leaves the span") as default:
            AssociationScheme.from_matrices(L, s.labels)
        monkeypatch.setattr(schemes, "BLOCK", 5)
        with pytest.raises(NotAScheme) as one_row:
            AssociationScheme.from_matrices(L, s.labels)
        assert str(one_row.value) == str(default.value)


class TestFrozen:
    """A scheme is a frozen certificate: p and L are read-only, tpose and
    valencies are read off p, and none of them can be set."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: verified(johnson_style_pair(5)[1]),
            lambda: verified(cyclic_label_matrix(6)),
            lambda: verified(cyclic_label_matrix(257)),
            lambda: verified(cyclic_label_matrix(6)).fuse([[0], [1, 5], [2, 4], [3]]),
            lambda: verified(one_factorization(3) + 1),
        ],
        ids=["one-class", "Z6", "Z257", "Z6-fused", "K4"],
    )
    def test_column_zero_premise(self, make):
        cases.assert_column_zero(make())

    @pytest.mark.parametrize(
        "name", ["L", "labels", "p", "tpose", "valencies", "v", "automorphisms"]
    )
    def test_attributes_cannot_be_set(self, name):
        s = verified(cyclic_label_matrix(6))
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))

    @pytest.mark.parametrize("name", ["L", "p"])
    def test_arrays_cannot_be_written(self, name):
        s = verified(cyclic_label_matrix(6))
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[1, 1] = 0
        assert s.valencies == [1] * 6

    def test_returned_lists_are_fresh(self):
        s = verified(cyclic_label_matrix(6))
        ks, t = s.valencies, s.tpose
        ks[3] += 1
        t[1] = 1
        assert (s.valencies, s.tpose) == ([1] * 6, [0, 5, 4, 3, 2, 1])
        assert s.valencies is not s.valencies

    def test_labels_cannot_be_edited(self, tmp_path):
        # the scheme owns its labels: a returned list is a fresh copy, so
        # editing it renames no class in a later output
        s = verified(cyclic_label_matrix(6))
        s.labels[0] = "x"
        names = s.labels
        names[1] = "y"
        assert s.labels == list("012345") and s.labels is not s.labels
        assert s.label_index("1") == 1
        assert s.fuse([[0], [1, 5], [2, 4], [3]]).labels == ["0", "1+5", "2+4", "3"]
        save_scheme(tmp_path / "s.json", s)
        assert json.loads((tmp_path / "s.json").read_text())["labels"] == list("012345")


class TestFusion:
    def test_cyclic_fusion(self):
        s = verified(cyclic_label_matrix(6))
        fused = s.fuse([[0], [1, 5], [2, 4], [3]])
        assert fused.nclasses == 4
        assert fused.is_symmetric()
        assert fused.valencies == [1, 2, 2, 1]

    def test_fusion_must_cover(self):
        s = verified(cyclic_label_matrix(6))
        with pytest.raises(ValueError):
            s.fuse([[0], [1, 5], [3]])

    def test_fusion_identity_must_stand_alone(self):
        s = verified(cyclic_label_matrix(6))
        with pytest.raises(ValueError):
            s.fuse([[0, 3], [1, 5], [2, 4]])

    def test_invalid_fusion_detected(self):
        # {1, 2} in Z_6 is not closed: the sums leave the span
        s = verified(cyclic_label_matrix(6))
        with pytest.raises(NotAScheme):
            s.fuse([[0], [1, 2], [3, 4, 5]])

    def test_fused_labels(self):
        s = verified(cyclic_label_matrix(4), labels=["e", "g", "g2", "g3"])
        fused = s.fuse([[0], [1, 3], [2]])
        assert fused.labels == ["e", "g+g3", "g2"]


def partitions(classes):
    """Every set partition of the list classes."""
    if not classes:
        yield []
        return
    first, rest = classes[0], classes[1:]
    for p in partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1 :]
        yield [[first]] + p


def merged(s, partition):
    """The labels cell_of[L] of a partition of the classes of s and their
    names, formed here without fuse."""
    cell_of = np.empty(s.nclasses, dtype=np.int64)
    for c, cell in enumerate(partition):
        cell_of[cell] = c
    return cell_of[s.L], ["+".join(s.labels[i] for i in cell) for cell in partition]


def outcome(L, labels, automorphisms=()):
    """The tensor that from_matrices gives, or the message it raises."""
    try:
        return AssociationScheme.from_matrices(L, labels, automorphisms).p.tolist()
    except NotAScheme as e:
        return str(e)


def swapped_in_rows(L, a, b):
    """Swap classes a and b in the rows of the points 1 and 2."""
    rows = L[1:3]
    hit = (rows == a) | (rows == b)
    rows[hit] = a + b - rows[hit]


def moved_in_rows_and_columns(L, a, b):
    """Move class a to b in the rows and columns of the points 1 and 2."""
    for cells in (L[1:3], L[:, 1:3]):
        cells[cells == a] = b


class TestOfferedAutomorphisms:
    """from_matrices checks each offered permutation, uses those that
    preserve L and checks rows only on their orbit representatives; the
    tensor and every error are those of the call without them."""

    @pytest.mark.parametrize(
        "bad",
        [
            np.arange(11),
            np.arange(13) % 12,
            np.arange(12).reshape(3, 4),
            np.r_[0, 0, np.arange(2, 12)],
            np.r_[-1, np.arange(1, 12)],
            np.r_[np.arange(11), 12],
            np.r_[np.arange(11, dtype=np.uint64), np.uint64(2**64 - 1)],
            np.arange(12, dtype=float),
            np.ones(12, dtype=bool),
        ],
        ids=[
            "short", "long", "2-d", "repeated", "negative", "too-large", "uint64-max",
            "float", "bool",
        ],
    )
    def test_not_a_permutation_raises(self, bad):
        s = cases.bgw(5, 2)
        # also beside a real automorphism, which does not excuse it
        with pytest.raises(ValueError, match=r"permutation of 0\.\.11"):
            AssociationScheme.from_matrices(s.L, s.labels, [s.automorphisms[0], bad])

    def test_builds_keep_their_automorphisms(self):
        s = cases.bgw(7, 3)
        assert len(s.automorphisms) == 3
        for sigma in s.automorphisms:
            assert not sigma.flags.writeable and np.array_equal(s.L[sigma][:, sigma], s.L)
        assert len(cases.gh(5).automorphisms) == 3
        fused = s.fuse(bgw_symmetric_fusion(3))
        assert len(fused.automorphisms) == 3
        assert all(map(np.array_equal, fused.automorphisms, s.automorphisms))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_any_integer_dtype_is_taken(self, dtype):
        s = cases.bgw(5, 2)
        offered = [a.astype(dtype) for a in s.automorphisms]
        kept = AssociationScheme.from_matrices(s.L, s.labels, offered)
        assert all(a.dtype == np.intp for a in kept.automorphisms)
        assert all(map(np.array_equal, kept.automorphisms, s.automorphisms))

    def test_only_preserving_permutations_are_used(self):
        s = cases.bgw(7, 3)
        swap = np.arange(s.v)
        swap[[1, 5]] = [5, 1]  # a point of the fibre of infinity and a finite one
        kept = AssociationScheme.from_matrices(s.L, s.labels, [swap, s.automorphisms[0]])
        assert len(kept.automorphisms) == 1
        assert np.array_equal(kept.automorphisms[0], s.automorphisms[0])
        assert np.array_equal(kept.p, s.p)
        # the translations alone leave an orbit per point of the fibre of
        # infinity and one per level a: R has 2m points
        assert len(schemes._orbit_representatives(s.v, kept.automorphisms)) == 6
        assert AssociationScheme.from_matrices(s.L, s.labels, [swap]).automorphisms == ()

    @pytest.mark.parametrize("q,m", [(7, 3), (5, 2)])
    def test_every_partition_fails_alike(self, q, m):
        # cell_of[L] keeps the automorphisms of L, so each merge is offered
        # them; the first failing row is the least point of its orbit, so
        # the message is the same as over every row
        s = cases.bgw(q, m)
        seen = set()
        for p in partitions(list(range(1, 2 * m))):
            L, labels = merged(s, [[0]] + p)
            got = outcome(L, labels, s.automorphisms)
            assert got == outcome(L, labels)
            seen.add(got if isinstance(got, str) else "scheme")
        assert "scheme" in seen and any("leaves the span" in x for x in seen)

    @pytest.mark.parametrize(
        "x,y,block", [(570, 300, -1), (5, 400, 0)], ids=["last-block", "first-block"]
    )
    def test_edit_across_row_blocks_fails_every_map(self, x, y, block):
        # bgw 289,2 has 580 points, 112 rows to a row block and six blocks;
        # each map moves the edited pair, so each sees a changed cell, in
        # whichever row block and column the take reaches it
        s = cases.bgw(289, 2)
        blocks = schemes.row_blocks(s.v)
        assert len(blocks) == 6 and blocks[0].stop == 112 and y >= 112
        assert blocks[block].start <= x < blocks[block].stop
        for sigma in s.automorphisms:
            assert {(sigma[x], sigma[y]), (sigma[y], sigma[x])}.isdisjoint({(x, y), (y, x)})
        L = s.L.copy()
        L[x, y] = L[y, x] = 5 - L[x, y]  # the other off-fibre class, 2 <-> 3
        assert all(schemes._preserves(s.L, sigma) for sigma in s.automorphisms)
        assert not any(schemes._preserves(L, sigma) for sigma in s.automorphisms)
        says = outcome(L, s.labels)
        assert says == "row/column sums not constant"
        assert outcome(L, s.labels, s.automorphisms) == says

    def test_invariant_non_fusion_is_rejected(self):
        s = cases.bgw(7, 3)
        with pytest.raises(NotAScheme, match="leaves the span"):
            s.fuse([[0], [1, 2, 3], [4, 5]])

    def test_invariant_identity_check(self):
        # (1,1) merged into the identity class: invariant, with the diagonal
        # intact and class 0 off it in every row
        s = cases.bgw(7, 3)
        L = np.where(s.L == 4, 0, s.L)
        assert outcome(L, s.labels, s.automorphisms) == "A_0 must be the identity"
        assert outcome(L, s.labels) == "A_0 must be the identity"

    @pytest.mark.parametrize(
        "mutate,a,b,says",
        [
            (swapped_in_rows, 4, 5, "relation set is not closed under transpose"),
            (moved_in_rows_and_columns, 4, 5, "row/column sums not constant"),
        ],
        ids=["transpose", "row-counts"],
    )
    def test_several_orbits_fail_alike(self, mutate, a, b, says):
        # the translations fix each point (infinity, a), so an edit of its
        # rows (and columns) keeps them, and R holds those rows; row 0 is
        # left as it was
        s = cases.bgw(7, 3)
        L = s.L.astype(np.int64)
        mutate(L, a, b)
        translation = s.automorphisms[0]
        assert np.array_equal(L[translation][:, translation], L)
        assert outcome(L, s.labels, [translation]) == outcome(L, s.labels) == says
