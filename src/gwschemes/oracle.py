"""Independent numerical checks of the symbolic results.

Both oracles take the label matrix L of a scheme, whose relation i is the
0/1 matrix A_i = (L == i), and form the float64 operand of one class at a
time; no list of per-class matrices is kept.

oracle_closure recomputes the intersection tensor by a route that shares
nothing with the scheme constructor: every product is formed separately, no
transpose pairing is used, and the per-relation constancy is read off flat
index arrays rather than sorted segments.

oracle_spectrum recovers the Wedderburn block structure (d_k, m_k) of the
span numerically, from the module K = span{A_i u} that one Gaussian vector u
spans.  Building that module is the spinning step of Parker's MeatAxe (R. A.
Parker, The computer calculation of modular characters, 1984).  K has
dimension r <= nm, so the work per attempt is nm products A_l Q of a v x v
operand with a v x r basis, O(nm r v^2), in place of the eigenvectors of a
v x v element, O(v^3):

- Module.  K[:, i] = A_i u is one bincount over L, and Q is an orthonormal
  basis of K from its singular vectors, cut at TOL times the largest
  singular value.  Each A_l must map K into itself; the matrices
  C_l = Q^T A_l Q then give the restriction rho(A) = C of every element of
  the span.  A residual |A_l Q - Q C_l| above TOL |A_l Q| means K is not
  invariant, so the span is not closed under products, and the oracle
  raises at once.
- Regular module.  An attempt is retried unless K has rank nm.  Then
  K = {X u : X in the span} is a copy of the regular module, so rho is
  faithful, and over C, K = sum_k M_{d_k}(C), on whose k-th summand X acts
  by left multiplication with phi_k(X).  Rank nm holds for u outside a set
  of measure zero: X -> X e_x is injective, as the columns of the A_i at x
  are disjoint and nonzero, so R^v holds the regular module (m_k >= d_k).
- Eigenspaces.  S = sum_l coef[l] C_l is rho(X) for the random element
  X = sum_l coef[l] A_l, and C_l^T = C_t for the partner t of l, so
  H = (S + S^T)/2 + i (S - S^T)/2 is rho(Y) for Y = (X + X^T)/2 +
  i (X - X^T)/2, a generic Hermitian element: each phi_k(Y) has d_k
  distinct eigenvalues, each appearing d_k times in K.  eigh of H splits
  them at the relative gap TOL, so a cluster's size in K is the dimension
  d of its block.  A symmetric X, equal and real on conjugate characters,
  would read them as one block.
- Multiplicities.  rho(e_a) = W_a W_a^H for the spectral projector e_a of
  Y, and sum_i c_i C_i = W_a W_a^H is solved by least squares and checked by
  its residual (relative to TOL).  By faithfulness e_a = sum_i c_i A_i,
  whose trace over C^v, m_a = sum_i c_i #{x : L[x, x] = i}, is the
  dimension of the eigenspace of Y, within TOL v of an integer; the m_a sum
  to v.  A block (d, m) gives d clusters of size d and trace m, so the
  blocks are count / d copies of each (d, m), and d must divide each count.
- Margins (README.md): least singular values at least 4.1e-3 of the
  largest, invariance residuals at most 3.0e-14, least-squares residuals
  1.8e-12 and cluster spreads 7.8e-16, and gaps at least 4.7e-6, against
  TOL = 1e-6; integrality errors at most 2.3e-11, against TOL v.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import VerificationError

TOL = 1e-6  # relative gap, rank cut and residual threshold
RETRIES = 5  # random elements tried before the oracle gives up
# cells of L per count, at least one row; the oracle keeps its own row
# blocks and label dtype, since it shares no code with the verifier it checks
BLOCK = 1 << 16


def _labels(L) -> np.ndarray:
    """L as an array, checked to be a label matrix whose largest label is
    below v: row 0 meets every relation of a scheme on v points, so the
    scheme has at most v of them, and no count is sized by a larger label."""
    L = np.asarray(L)
    square = L.ndim == 2 and L.shape[0] == L.shape[1] and L.size
    if not square or L.dtype.kind not in "iu" or L.min() < 0:
        raise VerificationError("the label matrix must be a square matrix of integers >= 0")
    if L.max() >= len(L):
        raise VerificationError(f"label {L.max()} is not below v = {len(L)}")
    return L


def oracle_closure(L) -> np.ndarray:
    """Recompute the intersection tensor of the relations A_i = (L == i) of
    the label matrix L; raises VerificationError if some label below the
    largest has no cell, or if some product is not constant on some
    relation."""
    L = _labels(L)
    nm = int(L.max()) + 1
    idx = [np.flatnonzero(L.reshape(-1) == k) for k in range(nm)]
    for k in range(nm):
        if not idx[k].size:
            raise VerificationError(f"relation {k} is empty")
    tensor = np.zeros((nm, nm, nm), dtype=np.int64)
    for i in range(nm):
        Af = (L == i).astype(np.float64)
        for j in range(nm):
            P = (Af @ (L == j).astype(np.float64)).reshape(-1)
            for k in range(nm):
                vals = P[idx[k]]
                v0 = vals[0]
                if (vals != v0).any():
                    raise VerificationError(
                        f"product {i},{j} not constant on relation {k}"
                    )
                tensor[i, j, k] = int(v0)
    return tensor


def _transpose_map(L) -> list[int]:
    """The j with A_j = A_i^T, for each i, read off one count: C[i, j] is
    the number of cells (x, y) with L[x, y] = i and L[y, x] = j.  A_i^T = A_j
    exactly when j is the one nonzero entry of row i and i the one of row j;
    a label with no cell is its own partner.  C is counted a block of rows
    x0..x1 at a time, over the codes n L + L^T in the smallest unsigned
    dtype that holds the n^2 codes, read from rows of L and of one
    contiguous copy of L^T in that dtype."""
    L = np.asarray(L)
    n = int(L.max()) + 1
    dtype = np.min_scalar_type(n * n - 1)
    LT = L.T.astype(dtype, order="C")
    C = np.zeros(n * n, dtype=np.int64)
    step = max(1, BLOCK // len(L))
    for x0 in range(0, len(L), step):
        codes = L[x0 : x0 + step].astype(dtype)
        codes *= n
        codes += LT[x0 : x0 + step]
        C += np.bincount(codes.reshape(-1), minlength=n * n)
    C = C.reshape(n, n)
    count = np.count_nonzero(C, axis=1)
    tpose = np.where(count == 0, np.arange(n), C.argmax(axis=1))
    bad = np.flatnonzero((count > 1) | (count[tpose] > 1))
    if bad.size:
        raise VerificationError(f"relation {bad[0]} has no transpose partner")
    return tpose.tolist()


def _module(L, u, tpose) -> np.ndarray:
    """C[l] = Q^T A_l Q, r x r, for the relations A_l = (L == l) and an
    orthonormal basis Q of the module K = span{A_i u} of the vector u;
    raises VerificationError naming a class that does not map K into itself.

    The float64 operand A_l is formed for one class at a time, from L in
    its compact dtype (a copy only when L comes in a wider one), and serves
    its transpose partner as A_l^T.
    """
    v, nm = len(L), len(tpose)
    compact = L.astype(np.min_scalar_type(nm - 1), copy=False)
    # K[x, i] = A_i u: the sum of u[y] over the cells (x, y) of class i,
    # counted a block of rows x0..x1 at a time
    K = np.empty((v, nm))
    step = max(1, BLOCK // v)
    for x0 in range(0, v, step):
        x1 = min(x0 + step, v)
        cells = compact[x0:x1] + nm * np.arange(x1 - x0)[:, None]
        weights = np.tile(u, x1 - x0)
        counts = np.bincount(cells.reshape(-1), weights=weights, minlength=(x1 - x0) * nm)
        K[x0:x1] = counts.reshape(-1, nm)
    U, s, _ = np.linalg.svd(K, full_matrices=False)
    Q = U[:, : np.count_nonzero(s > TOL * s[0])]
    r = Q.shape[1]
    C = np.empty((nm, r, r))
    A = np.empty((v, v))
    for l, t in enumerate(tpose):
        if t < l:
            continue
        np.equal(compact, l, out=A)
        for k, M in [(l, A)] if t == l else [(l, A), (t, A.T)]:
            Y = M @ Q
            C[k] = Q.T @ Y
            if np.linalg.norm(Y - Q @ C[k]) > TOL * np.linalg.norm(Y):
                raise VerificationError(
                    f"relation {k} maps the module of a random vector out of"
                    " itself: the span is not closed"
                )
    return C


def _eigenspaces(C, coef):
    """The eigenvectors W of the Hermitian H = (S + S^T)/2 + i (S - S^T)/2
    for S = sum_l coef[l] C[l], and the first index of each cluster of
    eigenvalues closer than TOL times the largest magnitude."""
    S = np.tensordot(coef, C, axes=1)
    w, W = np.linalg.eigh((S + S.T) / 2 + 1j * (S - S.T) / 2)
    splits = np.flatnonzero(np.diff(w) > TOL * max(1.0, np.abs(w).max()))
    return W, np.concatenate(([0], splits + 1))


def oracle_spectrum(L, seed: int = 0):
    """Numerical Wedderburn block structure, as a sorted list of (d_k, m_k),
    of the span of the relations A_i = (L == i) of the label matrix L.

    Uses a fixed-seed random element and random vector (see the module
    docstring); retries with fresh ones, up to RETRIES attempts in all, when
    the module has rank below nm or the clusters fail a check (a projector
    outside the span, a non-integer trace, traces not summing to v, or d not
    dividing a count).  A module that is not invariant raises at once.
    """
    L = _labels(L)
    v = L.shape[0]
    tpose = _transpose_map(L)
    nm = len(tpose)
    trace = np.bincount(np.diagonal(L), minlength=nm)
    last_err = None
    for attempt in range(RETRIES):
        rng = np.random.default_rng(seed + attempt)
        coef = rng.uniform(1.0, 2.0, size=nm)
        C = _module(L, rng.standard_normal(v), tpose)
        if C.shape[1] != nm:
            last_err = f"attempt {attempt}: module of rank {C.shape[1]}, not {nm}"
            continue
        W, starts = _eigenspaces(C, coef)
        # rho(e_a) = W_a W_a^H as a combination of the C_i, and its trace
        bounds = np.append(starts, len(W))
        P = np.stack([W[:, a:b] @ W[:, a:b].conj().T for a, b in zip(bounds, bounds[1:])])
        M, B = C.reshape(nm, -1).T, P.reshape(len(P), -1).T
        c = np.linalg.pinv(M) @ B  # least squares, with the SVD of M in real arithmetic
        residual = np.linalg.norm(M @ c - B, axis=0) / np.linalg.norm(B, axis=0)
        m = trace @ c
        dims = np.rint(m.real).astype(np.int64)
        if residual.max() > TOL:
            last_err = f"attempt {attempt}: projector residual {residual.max():.1e}"
            continue
        if np.abs(m - dims).max() > TOL * v:
            last_err = f"attempt {attempt}: non-integer multiplicities {m.tolist()}"
            continue
        if dims.sum() != v:
            last_err = f"attempt {attempt}: sum of d * m is {dims.sum()}, not {v}"
            continue
        counts = sorted(Counter(zip(np.diff(bounds).tolist(), dims.tolist())).items())
        bad = [f"clusters of size {d} and trace {k} number {n}" for (d, k), n in counts if n % d]
        if bad:
            last_err = f"attempt {attempt}: {bad[0]}"
            continue
        return [(d, k) for (d, k), n in counts for _ in range(n // d)]
    raise VerificationError(f"spectrum oracle failed: {last_err}")
