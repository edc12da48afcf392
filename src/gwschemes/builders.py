"""Constructions of the two scheme families, written as label matrices.

bgw_build(q, m): a scheme of class 2m - 1 on (q+1) m points from a symmetric
BGW(q+1, q, q-1) over Z_m with blank diagonal.  Relations, in order:

    (gamma, 0): I_{q+1} (x) U^gamma                    for gamma in Z_m,
    (gamma, 1): blank-diagonal block matrix whose (i, j) block is
                U^{W[i,j] + gamma} R                   for gamma in Z_m,

where U is the cyclic shift on Z_m and R the back identity.  Point (i, a) is
index i m + a, so the label of ((i, a), (j, b)) is (b - a) mod m on the
diagonal blocks and m + (m - 1 - a - b - W[i,j]) mod m off them.

bgw_automorphisms(q, m): three permutations of the points of bgw_build(q, m)
that preserve its labels and together act transitively, so that
from_matrices checks rows on one orbit representative (see schemes).  With
x a finite point of the projective line, s the generator of GF(q) and
l(x) = dlog x mod m, they map (x, a) to

    (x + 1, a);
    (s^2 x, a - 1), and (infinity, a) to (infinity, a + 1);
    (1 / x, a + l(x)) for x != 0, and (0, a) <-> (infinity, a).

Each keeps b - a on the diagonal blocks and a + b + W[i, j] off them.  The
first keeps every difference x - y.  The second adds 2 to each dlog(x - y)
and takes 1 from each finite a, and keeps a + b between infinity and a
finite point.  The third turns dlog(x - y) into
dlog(x - y) - l(x) - l(y) + dlog(-1), where dlog(-1) = 0 mod m is the
condition for W to be symmetric; so W = dlog(-y) = l(y) between 0 and y
becomes 0 between infinity and 1 / y, and the reverse.  Conjugating x + 1
by s^2 x gives every translation by a sum of nonzero squares, and these sums
form a subfield with more than sqrt(q) elements, GF(q) itself; the second
map runs through the fibre of 0, and the third joins infinity to 0.  So the
three reach every point from point 0.

gh_build(q): a scheme of class 2q on (q+1) q^2 points from the multiplication
table of GF(q) (q odd) and a one-factorization of K_{q+1}.  Relations:

    (alpha, 0): I_{q+1} (x) I_q (x) phi(alpha)         for alpha in GF(q),
    (alpha, 1): sum_a P_a (x) (C_{a,alpha} R)          for alpha in GF(q),
    "2":        I_{q+1} (x) (J_{q^2} - I_q (x) J_q),

where phi(alpha) is the permutation of addition by alpha, P_a the factor of a,
R the digit reversal of GF(q) squared, and C_{a,alpha} the q^2 x q^2 block
matrix whose (beta, beta') block is phi(a (beta' - beta) + alpha).  Point
(P, beta, y) is index (P q + beta) q + y, and the digit reversal of x is
q - 1 - x.  The label of ((P, beta, y), (P', beta', y')) is y' - y when
P = P' and beta = beta', 2q when P = P' and beta != beta', and q + alpha
otherwise, where a is the factor holding the edge {P, P'} and C_{a,alpha} R
puts its one at (y, y') when alpha = (q-1-y') - y - a ((q-1-beta') - beta).

Block tables.  Both label matrices are (q+1) x (q+1) grids of k x k blocks,
each fixed by one entry of the design, whose blank diagonal picks the last
block.  BGW: k = m, the design is W, and L[(i, a), (j, b)] =
block[W[i, j], a, b] off the diagonal, block[w] the m x m block of an entry
w, and block[m] on it.  GH: k = q^2, and the design is the factor matrix of
designs.one_factorization, a at the edge {P, P'} of the factor of a, over
q + 1 blocks of size q^2 x q^2: one per factor and one for P = P'.  Each
builder holds table[a, w, b] = block[w, a, b] in the compact dtype, and one
take of its rows writes L, row (i, a) being the rows table[a, W[i, :]]
with the diagonal entry read as the last block; the take's row index holds
v^2 / k entries, and no other array of v^2 entries is formed.

gh_automorphisms(q): three permutations of the points of gh_build(q) that
preserve its labels, so that from_matrices checks rows on one representative
of each of their 2q + 1 orbits (see schemes).  Every digit of q - 1 is p - 1,
so q - 1 - z borrows nothing and the digit reversal is c* - z, with c* the
element of index q - 1.  Write h = c* / 2 and b = beta - h; then
alpha = c* - y - y' + a (b + b') for P != P'.  With s the generator of GF(q),
x a finite point, and infinity + 1 = s infinity = infinity, the maps are

    T: (P, beta, y) -> (P + 1, beta, y + b);
    S: (P, beta, y) -> (s P, h + b / s, y);
    U: (x, beta, y) -> (x, beta + 1, y + x), and the fibre of infinity fixed.

Each keeps P = P' and beta = beta', so the label "2".  On one fibre, T and U
add the same element to y and y', and S keeps both, so y' - y and the label
(alpha, 0) are kept.  Across fibres: T adds 1 to the factor a of every edge
(x + x' = 2a, or the edge {infinity, a}) and b + b' to y + y', which
a (b + b') gains too; S multiplies a by s and b + b' by 1 / s; U adds x + x'
to y + y' and 1 to each finite b, so a (b + b') gains 2a = x + x', or a = x
on the edge {infinity, x}.  So alpha and the label (alpha, 1) are kept.

Orbits.  On the finite points, y - x b is invariant, and S conjugates T and
U into the translations x -> x + s^k and b -> b + s^-k, whose sums reach all
of GF(q): each of the q values of y - x b is one orbit of q^2 points.  At
infinity, S runs b through the nonzero elements and its conjugates of T add
every s^k b to y, so the q (q - 1) points with b != 0 form one orbit, and the
q points (infinity, h, y) are fixed.  That gives q + 1 + q orbits.
"""
from __future__ import annotations

import numpy as np

from .algebra import FiniteField
from .designs import _one_factorization, bgw_matrix, check_bgw, gh_field
from .schemes import AssociationScheme, label_dtype


def bgw_labels(m: int) -> list[str]:
    return [f"({g},0)" for g in range(m)] + [f"({g},1)" for g in range(m)]


def _from_blocks(table: np.ndarray, design: np.ndarray) -> np.ndarray:
    """L[(i, a), (j, b)] = table[a, design[i, j], b], with the design's BLANK
    diagonal read as the last block, point (i, a) at index i k + a, in the
    dtype of table, by one take of its rows."""
    k, blocks, n = len(table), table.shape[1], len(design)
    rows = design[:, None, :] + blocks * np.arange(k)[:, None]  # table[a, w] is row a blocks + w
    rows[np.arange(n), :, np.arange(n)] += blocks  # BLANK + blocks = blocks - 1
    return np.take(table.reshape(-1, k), rows, axis=0).reshape(n * k, n * k)


def _bgw_label_matrix(q: int, m: int) -> np.ndarray:
    W = bgw_matrix(q, m)  # refused parameters raise before the m^3 table
    a, w, b = np.ogrid[:m, : m + 1, :m]
    table = np.where(w < m, m + (m - 1 - a - b - w) % m, (b - a) % m)
    return _from_blocks(table.astype(label_dtype(2 * m)), W)


def bgw_automorphisms(q: int, m: int) -> tuple[np.ndarray, ...]:
    """The three closed-form automorphisms of the module docstring, as
    arrays of point images, once (q, m) pass check_bgw.  They preserve the
    labels of bgw_build(q, m), and from_matrices checks that they do."""
    check_bgw(q, m)
    F = FiniteField(q)
    x = np.arange(q)
    s2 = F.exp_t[2]  # s^2: every q that check_bgw admits is at least 4
    inv = F.exp_t[-F.log_t[x] % (q - 1)]  # 1 / x for x != 0
    # each map as the image of every projective point (0 is infinity, 1 + x
    # the finite x) and what it adds to a there
    maps = [
        (np.r_[0, 1 + F.add_t[x, 1]], np.zeros(q + 1, dtype=np.int64)),
        (np.r_[0, 1 + F.mul_t[x, s2]], np.r_[1, np.full(q, -1)]),
        (np.r_[1, 0, 1 + inv[1:]], np.r_[0, 0, F.log_t[1:]]),
    ]
    a = np.arange(m)
    return tuple(
        (image[:, None] * m + (a + shift[:, None]) % m).reshape(-1) for image, shift in maps
    )


def bgw_build(q: int, m: int) -> AssociationScheme:
    L = _bgw_label_matrix(q, m)
    return AssociationScheme.from_matrices(L, bgw_labels(m), bgw_automorphisms(q, m))


def bgw_incidence(q: int, m: int, level: int) -> np.ndarray:
    """The divisible design incidence N_level: J_m diagonal blocks plus the
    (level, 1) relation; equals sum_gamma A_{gamma,0} + A_{level,1}."""
    L = _bgw_label_matrix(q, m)
    return ((L < m) | (L == m + level % m)).astype(np.int64)


def gh_labels(q: int) -> list[str]:
    return (
        [f"({a},0)" for a in range(q)] + [f"({a},1)" for a in range(q)] + ["2"]
    )


def _gh_label_matrix(F: FiniteField) -> np.ndarray:
    q = F.q
    # the tables in the compact dtype of the 2q + 1 labels, so that every
    # gather below, and L, is in that dtype
    dtype = label_dtype(2 * q + 1)
    add, mul = F.add_t.astype(dtype), F.mul_t.astype(dtype)
    sub = add[:, F.neg_t]  # sub[x, y] = x - y
    rev = (q - 1 - np.arange(q)).astype(dtype)
    # table[(beta, y), a, (beta2, y2)]: the block of factor a, at a = q of P = P2,
    # which _from_blocks reads off the blank diagonal of the factor matrix
    beta, y, a, beta2, y2 = np.ix_(*[np.arange(q)] * 5)
    table = np.empty((q, q, q + 1, q, q), dtype=dtype)
    table[:, :, :q] = sub[rev[y2], add[y, mul[a, sub[rev[beta2], beta]]]] + q
    table[:, :, q] = np.where(beta == beta2, sub[y2, y], 2 * q)[:, :, 0]
    return _from_blocks(table.reshape(q * q, q + 1, q * q), _one_factorization(F))


def gh_automorphisms(q: int) -> tuple[np.ndarray, ...]:
    """T, S and U of the module docstring, as arrays of point images, once q
    passes gh_field.  They preserve the labels of gh_build(q), and
    from_matrices checks that they do."""
    return _gh_maps(gh_field(q))


def _gh_maps(F: FiniteField) -> tuple[np.ndarray, ...]:
    """gh_automorphisms over the field F of gh_field(q)."""
    q, add, mul = F.q, F.add_t, F.mul_t
    h = F.mul(q - 1, F.inv(2))
    P, beta, y = np.ix_(np.arange(q + 1), np.arange(q), np.arange(q))
    finite, x = P > 0, np.maximum(P - 1, 0)  # P = 0 is infinity, 1 + x the finite x
    b = add[beta, F.neg(h)]
    maps = [
        (np.r_[0, 1 + add[:, 1]][P], beta, add[y, b]),
        (np.r_[0, 1 + mul[:, F.generator]][P], add[h, mul[b, F.exp_t[-1]]], y),  # exp_t[-1] = 1 / s
        (P, np.where(finite, add[beta, 1], beta), np.where(finite, add[y, x], y)),
    ]
    return tuple(
        ((P2 * q + beta2) * q + y2).reshape(-1)
        for P2, beta2, y2 in (np.broadcast_arrays(*image) for image in maps)
    )


def gh_build(q: int) -> AssociationScheme:
    F = gh_field(q)  # one field for the labels, the one-factorization and the maps
    return AssociationScheme.from_matrices(_gh_label_matrix(F), gh_labels(q), _gh_maps(F))
