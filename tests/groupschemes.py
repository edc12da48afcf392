"""Group schemes as a test-only reference family: the thin scheme of A4.

The thin scheme of a finite group G has one class per element, L[x, y] =
the index of x^-1 y, so A_g A_h = A_gh and A_g^T = A_g^-1.  Its matrix units
are E^rho_ij = (d_rho / |G|) sum_g rho(g^-1)_ji A_g for unitary irreducible
representations rho, and E^rho_ij* = E^rho_ji then holds.

A4 is the group of even permutations of 0..3, the product g h the
composition g(h(i)), and element 0 the identity.  Its irreducibles are the
three characters through A4 / V4 = C3, with values in Q(zeta_3), and the
3-dimensional rho(g) = B^T P_g B / 4, with B the three +-1 columns
orthogonal to (1, 1, 1, 1) and P_g the permutation matrix of g.  Each
rho(g) is a signed permutation matrix, so rho(g^-1) = rho(g)^T and
E^rho_ij[g] = rho(g)_ij / 4.  A4 brings a 3-dimensional block, which no
instance of the two families has.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

from gwschemes import AssociationScheme, CycField, Eigensystem, SchemeAlgebra
from gwschemes.spectra import Block

# the even permutations of 0..3, the identity first
A4 = [
    g for g in permutations(range(4))
    if sum(g[i] > g[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
]
B = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])


def _mul(g: tuple, h: tuple) -> tuple:
    return tuple(g[h[i]] for i in range(4))


def _inv(g: tuple) -> tuple:
    return tuple(sorted(range(4), key=g.__getitem__))


def a4_scheme() -> AssociationScheme:
    """The thin scheme of A4: 12 points and 12 classes."""
    index = {g: k for k, g in enumerate(A4)}
    L = np.array([[index[_mul(_inv(x), y)] for y in A4] for x in A4])
    return AssociationScheme.from_matrices(L, [str(k) for k in range(len(A4))])


def a4_inverse_pairs() -> list[list[int]]:
    """The partition of the classes into the sets {g, g^-1}."""
    index = {g: k for k, g in enumerate(A4)}
    cells = {tuple(sorted({k, index[_inv(g)]})) for k, g in enumerate(A4)}
    return [list(cell) for cell in sorted(cells)]


def _c3(g: tuple) -> int:
    """The image of g in A4 / V4 = C3, with (0 1 2) -> 1."""
    c = (1, 2, 0, 3)
    V4 = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    powers = [(0, 1, 2, 3), c, _mul(c, c)]
    return next(t for t, ct in enumerate(powers) for v in V4 if _mul(v, ct) == g)


def rho(g: tuple) -> np.ndarray:
    """The 3-dimensional irreducible B^T P_g B / 4, a signed permutation matrix."""
    P = np.zeros((4, 4), dtype=np.int64)
    P[list(g), range(4)] = 1  # P e_i = e_g(i)
    return B.T @ P @ B // 4


def a4_blocks(field: CycField) -> list[Block]:
    """The matrix units of A4 over field = Q(zeta_3): a block per character
    chi_a(g) = zeta^(a t(g)), E[g] = chi_a(g^-1) / 12, and the block "rho"."""
    t = [_c3(g) for g in A4]
    blocks = [
        Block(str(a), 1, {(1, 1): {k: field.zeta(-a * t[k]).scale(Fraction(1, 12))
                                   for k in range(len(A4))}})
        for a in range(3)
    ]
    images = [rho(g) for g in A4]
    units = {
        (i, j): {k: field.rat(Fraction(int(r[i - 1, j - 1]), 4))
                 for k, r in enumerate(images) if r[i - 1, j - 1]}
        for i in range(1, 4) for j in range(1, 4)
    }
    return blocks + [Block("rho", 3, units)]


def a4_eigensystem() -> Eigensystem:
    field = CycField(3)
    return Eigensystem(SchemeAlgebra(a4_scheme(), field), a4_blocks(field))
