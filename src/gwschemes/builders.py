"""Constructions of the two scheme families, written as label matrices.

bgw_build(q, m): a scheme of class 2m - 1 on (q+1) m points from a symmetric
BGW(q+1, q, q-1) over Z_m with blank diagonal.  Relations, in order:

    (gamma, 0): I_{q+1} (x) U^gamma                    for gamma in Z_m,
    (gamma, 1): blank-diagonal block matrix whose (i, j) block is
                U^{W[i,j] + gamma} R                   for gamma in Z_m,

where U is the cyclic shift on Z_m and R the back identity.  Point (i, a) is
index i m + a, so the label of ((i, a), (j, b)) is (b - a) mod m on the
diagonal blocks and m + (m - 1 - a - b - W[i,j]) mod m off them.

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
"""
from __future__ import annotations

import numpy as np

from .algebra import FiniteField
from .designs import bgw_matrix, one_factorization, require_points
from .schemes import AssociationScheme


def bgw_labels(m: int) -> list[str]:
    return [f"({g},0)" for g in range(m)] + [f"({g},1)" for g in range(m)]


def _bgw_label_matrix(q: int, m: int) -> np.ndarray:
    W = bgw_matrix(q, m)
    i, a = np.divmod(np.arange((q + 1) * m), m)
    i, a, j, b = i[:, None], a[:, None], i[None, :], a[None, :]
    return np.where(i == j, (b - a) % m, m + (m - 1 - a - b - W[i, j]) % m)


def bgw_build(q: int, m: int) -> AssociationScheme:
    return AssociationScheme.from_matrices(_bgw_label_matrix(q, m), bgw_labels(m))


def bgw_incidence(q: int, m: int, level: int) -> np.ndarray:
    """The divisible design incidence N_level: J_m diagonal blocks plus the
    (level, 1) relation; equals sum_gamma A_{gamma,0} + A_{level,1}."""
    L = _bgw_label_matrix(q, m)
    return ((L < m) | (L == m + level % m)).astype(np.int64)


def gh_labels(q: int) -> list[str]:
    return (
        [f"({a},0)" for a in range(q)] + [f"({a},1)" for a in range(q)] + ["2"]
    )


def _gh_label_matrix(q: int) -> np.ndarray:
    require_points((q + 1) * q * q)
    F = FiniteField(q)
    if F.p == 2:
        raise ValueError("q must be odd")
    add, mul = np.array(F.add_t), np.array(F.mul_t)
    sub = add[:, F.neg_t]  # sub[x, y] = x - y
    rev = q - 1 - np.arange(q)
    factor = sum(a * P for a, P in enumerate(one_factorization(q)))
    # one broadcast axis per coordinate, so that only alpha and L are v x v
    P, beta, y, P2, beta2, y2 = np.ix_(*[np.arange(n) for n in (q + 1, q, q) * 2])
    a = factor[P, P2]
    alpha = sub[rev[y2], add[y, mul[a, sub[rev[beta2], beta]]]]
    alpha += q
    inner = np.where(beta == beta2, sub[y2, y], 2 * q)
    v = (q + 1) * q * q
    return np.where(P == P2, inner, alpha).reshape(v, v)


def gh_build(q: int) -> AssociationScheme:
    return AssociationScheme.from_matrices(_gh_label_matrix(q), gh_labels(q))
