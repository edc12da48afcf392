"""The Kronecker/block construction of both families, as a test reference.

These are the constructions written as products of permutation matrices,
exactly as the builders' docstrings describe them: the builders write the
label matrix L directly, and the tests check that (L == i) is the i-th
matrix below.
"""
from __future__ import annotations

import numpy as np

from gwschemes import BLANK, FiniteField, bgw_matrix, one_factorization
from gwschemes.matrixkit import mm


def matpow(A: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(A.shape[0], dtype=np.int64)
    for _ in range(k):
        out = mm(out, A)
    return out


def kron(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0])
    for M in mats[1:]:
        out = np.kron(out, np.asarray(M))
    return out


def shift_matrix(m: int, a: int = 1) -> np.ndarray:
    """Permutation matrix of x -> x + a on Z_m: entry (i, i+a mod m) is 1."""
    U = np.zeros((m, m), dtype=np.int64)
    idx = np.arange(m)
    U[idx, (idx + a) % m] = 1
    return U


def back_identity(m: int) -> np.ndarray:
    """The anti-diagonal permutation matrix (i -> m-1-i); on the canonical
    indices of GF(q) it is the digit-wise reversal."""
    return np.fliplr(np.eye(m, dtype=np.int64))


def field_shift(F: FiniteField, x: int) -> np.ndarray:
    """Permutation matrix of y -> y + x on GF(q), rows/columns in canonical order."""
    q = F.q
    P = np.zeros((q, q), dtype=np.int64)
    for y in range(q):
        P[y, F.add(y, x)] = 1
    return P


def label_matrix(mats) -> np.ndarray:
    return sum(i * np.asarray(M) for i, M in enumerate(mats))


def _bgw_blocks(q: int, m: int, g: int) -> np.ndarray:
    """The blank-diagonal block matrix with (i, j) block U^{W[i,j] + g} R."""
    W = bgw_matrix(q, m)
    v = (q + 1) * m
    R = back_identity(m)
    A = np.zeros((v, v), dtype=np.int64)
    for i in range(q + 1):
        for j in range(q + 1):
            if i != j:
                assert W[i, j] != BLANK
                A[i * m : (i + 1) * m, j * m : (j + 1) * m] = mm(
                    shift_matrix(m, int(W[i, j]) + g), R
                )
    return A


def bgw_mats(q: int, m: int) -> list[np.ndarray]:
    """A_(gamma,0) = I (x) U^gamma, then A_(gamma,1) for gamma in Z_m."""
    eye = np.eye(q + 1, dtype=np.int64)
    diag = [kron(eye, shift_matrix(m, g)) for g in range(m)]
    return diag + [_bgw_blocks(q, m, g) for g in range(m)]


def _block_c(F: FiniteField, a: int, alpha: int, phi) -> np.ndarray:
    q = F.q
    C = np.zeros((q * q, q * q), dtype=np.int64)
    for b1 in range(q):
        for b2 in range(q):
            delta = F.add(F.mul(a, F.sub(b2, b1)), alpha)
            C[b1 * q : (b1 + 1) * q, b2 * q : (b2 + 1) * q] = phi[delta]
    return C


def gh_mats(q: int) -> list[np.ndarray]:
    """A_(alpha,0), then A_(alpha,1) for alpha in GF(q), then A_2."""
    F = FiniteField(q)
    phi = [field_shift(F, x) for x in range(q)]
    R2 = kron(back_identity(q), back_identity(q))
    eye_pts = np.eye(q + 1, dtype=np.int64)
    eye_q = np.eye(q, dtype=np.int64)
    mats = [kron(eye_pts, eye_q, phi[alpha]) for alpha in range(q)]
    factor = one_factorization(q)
    for alpha in range(q):
        A = np.zeros(((q + 1) * q * q, (q + 1) * q * q), dtype=np.int64)
        for a in range(q):
            P_a = (factor == a).astype(np.int64)
            A += kron(P_a, mm(_block_c(F, a, alpha, phi), R2))
        mats.append(A)
    J2 = np.ones((q * q, q * q), dtype=np.int64) - kron(eye_q, np.ones((q, q), dtype=np.int64))
    mats.append(kron(eye_pts, J2))
    return mats
