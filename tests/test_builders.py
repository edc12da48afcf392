"""The two scheme families: shapes, labels, classification, block structure."""
import tracemalloc

import numpy as np
import pytest

from gwschemes import (
    AssociationScheme,
    SymmetryObstruction,
    bgw_automorphisms,
    bgw_build,
    bgw_incidence,
    bgw_labels,
    bgw_matrix,
    gh_automorphisms,
    gh_build,
    gh_labels,
    gh_symmetric_fusion,
)
from gwschemes.algebra import FiniteField, factor_prime_power
from gwschemes.builders import _bgw_label_matrix, _gh_label_matrix
from gwschemes.designs import gh_field
from cases import BGW_BUILDABLE, BGW_NEGATIVE, GH_GRID, bgw, gh
from closedforms import check_bgw_products, check_gh_products
import kronecker


class TestBGWScheme:
    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_shape_and_labels(self, q, m):
        s = bgw(q, m)
        assert s.v == (q + 1) * m
        assert s.nclasses == 2 * m
        assert s.labels == bgw_labels(m)
        # diagonal-type classes have valency 1, off-diagonal ones q
        assert s.valencies == [1] * m + [q] * m

    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_product_identities(self, q, m):
        check_bgw_products(bgw(q, m), q, m)

    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_classification(self, q, m):
        s = bgw(q, m)
        if m == 2:
            # -g = g mod 2, so every class is self-paired and the scheme is
            # symmetric, hence commutative
            assert s.classify() == "symmetric"
            assert s.is_commutative()
        else:
            assert s.classify() == "noncommutative"

    def test_noncommutativity_direction(self):
        # left multiplication by a diagonal class adds, right subtracts
        s = bgw(7, 3)
        i01 = s.label_index("(1,0)")
        i11 = s.label_index("(1,1)")
        assert int(np.flatnonzero(s.p[i01, i11])[0]) == s.label_index("(2,1)")
        assert int(np.flatnonzero(s.p[i11, i01])[0]) == s.label_index("(0,1)")

    def test_transpose_map(self):
        # A_(g,0)^T = A_(-g,0); the off-diagonal classes are symmetric
        # matrices (each block U^a R is its own transpose), so they are fixed
        s = bgw(7, 3)
        m = 3
        for g in range(m):
            assert s.tpose[g] == (-g) % m
            assert s.tpose[m + g] == m + g

    def test_negative_case_raises(self):
        with pytest.raises(SymmetryObstruction):
            bgw_build(*BGW_NEGATIVE)

    def test_diagonal_classes_span_fibres(self):
        # sum of diagonal-type classes is I_(q+1) (x) J_m
        q, m = 5, 2
        s = bgw(q, m)
        total = sum((s.L == g).astype(np.int64) for g in range(m))
        want = np.kron(np.eye(q + 1, dtype=np.int64), np.ones((m, m), dtype=np.int64))
        assert np.array_equal(total, want)


class TestGHScheme:
    @pytest.mark.parametrize("q", GH_GRID, ids=lambda q: f"q{q}")
    def test_shape_and_labels(self, q):
        s = gh(q)
        assert s.v == (q + 1) * q * q
        assert s.nclasses == 2 * q + 1
        assert s.labels == gh_labels(q)
        assert s.valencies == [1] * q + [q * q] * q + [q * q - q]

    @pytest.mark.parametrize("q", GH_GRID, ids=lambda q: f"q{q}")
    def test_product_identities(self, q):
        check_gh_products(gh(q), q)

    @pytest.mark.parametrize("q", GH_GRID, ids=lambda q: f"q{q}")
    def test_noncommutative(self, q):
        assert gh(q).classify() == "noncommutative"

    def test_one_field_per_build(self, monkeypatch):
        # the label matrix, the Latin square and the maps share one GF(q); the
        # three were built on their own before
        calls, init = [], FiniteField.__init__

        def counted(self, q):
            calls.append(q)
            init(self, q)

        monkeypatch.setattr(FiniteField, "__init__", counted)
        s = gh_build(9)
        assert calls == [9]
        assert np.array_equal(s.L, gh(9).L)

    def test_even_q_rejected(self):
        with pytest.raises(ValueError, match="^q must be odd$"):
            gh_build(4)

    def test_transpose_map(self):
        from gwschemes import FiniteField

        q = 5
        s = gh(q)
        F = FiniteField(q)
        for a in range(q):
            assert s.tpose[a] == F.neg(a)
            assert s.tpose[q + a] == q + a
        assert s.tpose[2 * q] == 2 * q

    def test_repetition_class_is_fibre_multipartite(self):
        q = 3
        s = gh(q)
        Iq = np.eye(q, dtype=np.int64)
        Jq = np.ones((q, q), dtype=np.int64)
        want = np.kron(
            np.eye(q + 1, dtype=np.int64),
            np.kron(Jq, Jq) - np.kron(Iq, Jq),
        )
        assert np.array_equal(s.L == 2 * q, want)


class TestKroneckerReference:
    """The label matrices the builders write equal the Kronecker/block
    construction of their docstrings."""

    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_bgw_label_matrix(self, q, m):
        ref = kronecker.bgw_mats(q, m)
        assert np.array_equal(bgw(q, m).L, kronecker.label_matrix(ref))
        for level in range(m):
            want = sum(ref[:m]) + ref[m + level]
            assert np.array_equal(bgw_incidence(q, m, level), want), level

    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_bgw_label_formula(self, q, m):
        # the per-entry label of the module docstring, one entry at a time
        W, L = bgw_matrix(q, m).tolist(), bgw(q, m).L.tolist()
        for x, row in enumerate(L):
            for y, label in enumerate(row):
                (i, a), (j, b) = divmod(x, m), divmod(y, m)
                assert label == ((b - a) % m if i == j else m + (m - 1 - a - b - W[i][j]) % m)

    @pytest.mark.parametrize("q", GH_GRID, ids=lambda q: f"q{q}")
    def test_gh_label_matrix(self, q):
        assert np.array_equal(gh(q).L, kronecker.label_matrix(kronecker.gh_mats(q)))

    @pytest.mark.parametrize(
        "write,args",
        [(_bgw_label_matrix, (5, 2)), (_bgw_label_matrix, (8, 7)), (_gh_label_matrix, (gh_field(9),))],
        ids=["bgw52", "bgw87", "gh9"],
    )
    def test_label_matrices_are_written_compact(self, write, args):
        # the builders write the dtype the scheme stores, never int64
        L = write(*args)
        assert L.dtype == np.uint8


def sampled_rows(v: int, seed: int) -> list[int]:
    """The first and last rows and four seeded ones in between."""
    return [0, v - 1, *np.random.default_rng(seed).choice(np.arange(1, v - 1), 4, replace=False)]


class TestBlockTableBeyondTheGrid:
    """The per-entry labels of the module docstring, one entry at a time on
    sampled rows, where the Kronecker reference is too slow: bgw 256,3 in
    characteristic 2, bgw 25,12 with m > q/2 and gh 11, past GH_GRID."""

    @pytest.mark.parametrize("q,m", [(256, 3), (25, 12)], ids=["256-3", "25-12"])
    def test_bgw_rule_on_sampled_rows(self, q, m):
        F, L = FiniteField(q), _bgw_label_matrix(q, m)

        def w(i, j):  # W of bgw_matrix's docstring, from field scalars
            return 0 if 0 in (i, j) else F.dlog(F.sub(i - 1, j - 1)) % m

        for x in sampled_rows(len(L), q):
            i, a = divmod(x, m)
            want = [
                (b - a) % m if i == j else m + (m - 1 - a - b - w(i, j)) % m
                for j, b in (divmod(y, m) for y in range(len(L)))
            ]
            assert L[x].tolist() == want, x

    def test_gh_rule_on_sampled_rows(self):
        q = 11
        F, L = FiniteField(q), _gh_label_matrix(gh_field(q))
        half = F.inv(F.add(1, 1))

        def factor(P, P2):  # the edge {infinity, a}, or (x + x2) / 2 = a
            return P2 - 1 if P == 0 else P - 1 if P2 == 0 else F.mul(F.add(P - 1, P2 - 1), half)

        for x in sampled_rows(len(L), q):
            (P, beta), y = divmod(x // q, q), x % q
            want = []
            for x2 in range(len(L)):
                (P2, beta2), y2 = divmod(x2 // q, q), x2 % q
                if P == P2:
                    want.append(F.sub(y2, y) if beta == beta2 else 2 * q)
                else:
                    shift = F.mul(factor(P, P2), F.sub(q - 1 - beta2, beta))
                    want.append(q + F.sub(q - 1 - y2, F.add(y, shift)))
            assert L[x].tolist() == want, x

    @pytest.mark.parametrize(
        "write,args,bound",
        [(_gh_label_matrix, (gh_field(11),), 2.33), (_bgw_label_matrix, (529, 2), 10.70)],
        ids=["gh11", "bgw529_2"],
    )
    def test_peak_stays_at_the_gather_layout(self, write, args, bound):
        # the one take forms L and a row index of v**2 / k entries; the
        # layout of v**2 gathers before it peaked at 2.33 MiB at gh 11 and at
        # 10.70 MiB at bgw 529,2 (now 2.32 and 7.50), and a take through a
        # transposed out= buffers a second L and reached 4.36 MiB at gh 11
        write(*args)
        tracemalloc.start()
        try:
            write(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20


def bgw_sweep(max_points: int) -> list[tuple[int, int]]:
    """Every buildable BGW set with (q + 1) m <= max_points: q a prime power,
    m >= 2 dividing q - 1, and q even or (q - 1)/m even."""
    out = []
    for q in range(2, max_points):
        try:
            p = factor_prime_power(q)[0]
        except ValueError:
            continue
        out += [
            (q, m) for m in range(2, q)
            if (q - 1) % m == 0 and (q + 1) * m <= max_points and (p == 2 or (q - 1) // m % 2 == 0)
        ]
    return out


def orbits(v: int, perms) -> np.ndarray:
    """The least point of the orbit of each point under the group of perms:
    each point takes the least value seen at it or at its images until none
    changes."""
    least = np.arange(v)
    while True:
        grown = least.copy()
        for sigma in perms:
            grown = np.minimum(grown, grown[sigma])
            grown[sigma] = np.minimum(grown[sigma], grown)
        if (grown == least).all():
            return least
        least = grown


class TestBgwAutomorphisms:
    def test_sweep(self):
        # every buildable set up to 1100 points, and 64,63 with 126 classes
        sets = bgw_sweep(1100) + [(64, 63)]
        qs = {q for q, _ in sets}
        assert {4, 256} <= qs and {5, 289} <= qs and {9, 25, 27, 529} <= qs
        assert {m % 2 for _, m in sets} == {0, 1}
        for q, m in sets:
            L = _bgw_label_matrix(q, m)
            perms = bgw_automorphisms(q, m)
            assert len(perms) == 3
            for k, sigma in enumerate(perms):
                assert np.array_equal(L[sigma][:, sigma], L), (q, m, k)
            assert (orbits(len(L), perms) == 0).all(), (q, m)

    @pytest.mark.parametrize("q,m", BGW_BUILDABLE, ids=lambda c: str(c))
    def test_same_tensor_as_without(self, q, m):
        s = bgw_build(q, m)
        assert len(s.automorphisms) == 3
        assert np.array_equal(s.p, AssociationScheme.from_matrices(s.L, s.labels).p)

    @pytest.mark.parametrize(
        "q,m", [(7, 4), (6, 5), (4097, 1)], ids=["m-no-divisor", "q-6", "q-too-large"]
    )
    def test_no_field_or_divisor_raises(self, q, m):
        with pytest.raises(ValueError):
            bgw_automorphisms(q, m)

    @pytest.mark.parametrize(
        "q,m,error,says",
        [
            (13, 4, SymmetryObstruction, "no symmetric construction for q=13, m=4"),
            (5, 1, ValueError, "m=1 must be at least 2"),
        ],
        ids=["obstructed-13-4", "m-1"],
    )
    def test_refused_sets_raise_the_builders_error(self, q, m, error, says):
        # the maps exist as arrays for these (q, m), but bgw_build refuses them
        with pytest.raises(error, match=f"^{says}"):
            bgw_automorphisms(q, m)


GH_BUILDABLE = [3, 5, 7, 9, 11, 13]  # every odd prime power q with (q + 1) q^2 <= MAX_POINTS


class TestGhAutomorphisms:
    @pytest.mark.parametrize("q", GH_BUILDABLE)
    def test_maps_and_orbits(self, q):
        L = _gh_label_matrix(gh_field(q))
        perms = gh_automorphisms(q)
        assert len(perms) == 3
        for k, sigma in enumerate(perms):
            assert np.array_equal(L[sigma][:, sigma], L), (q, k)
        # point (P, beta, y), P = 0 the point at infinity and 1 + x the finite x
        F = FiniteField(q)
        h = F.mul(q - 1, F.inv(2))
        least = orbits(len(L), perms)
        P, beta, y = np.unravel_index(np.arange(len(L)), (q + 1, q, q))
        finite, fixed = P > 0, (P == 0) & (beta == h)
        assert len(np.unique(least)) == 2 * q + 1
        # q finite orbits of q^2 points, told apart by y - x (beta - h)
        level = F.add_t[y, F.neg_t[F.mul_t[P - 1, F.add_t[beta, F.neg(h)]]]]
        sizes = np.unique(least[finite], return_counts=True)[1]
        assert sizes.tolist() == [q * q] * q
        assert len(np.unique(least[finite] * q + level[finite])) == q
        # one orbit of the q (q - 1) points at infinity with beta != h
        assert len(np.unique(least[~finite & ~fixed])) == 1
        assert (~finite & ~fixed).sum() == q * (q - 1)
        # and q fixed points (infinity, h, y)
        assert np.array_equal(least[fixed], np.flatnonzero(fixed))

    @pytest.mark.parametrize("q", GH_BUILDABLE)
    def test_same_tensor_and_fused_maps(self, q):
        s = gh_build(q)
        assert len(s.automorphisms) == 3
        assert all(map(np.array_equal, s.automorphisms, gh_automorphisms(q)))
        assert np.array_equal(s.p, AssociationScheme.from_matrices(s.L, s.labels).p)
        fused = s.fuse(gh_symmetric_fusion(q))
        assert all(map(np.array_equal, fused.automorphisms, s.automorphisms))
        assert len(fused.automorphisms) == 3

    @pytest.mark.parametrize("q", [4, 15, 17], ids=["even", "no-field", "too-many-points"])
    def test_unbuildable_q_raises(self, q):
        with pytest.raises(ValueError):
            gh_automorphisms(q)
