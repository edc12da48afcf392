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
  raises at once.  rho is faithful when u has a component in every block,
  which holds for all u outside a set of measure zero.
- Eigenspaces and links.  S = sum_l coef[l] C_l is rho(X) for the random
  symmetric element X = sum_l coef[l] A_l, whose coefficients are tied
  across each transpose pair; eigh of S, r x r, gives the distinct
  eigenvalues of X (a faithful rho keeps the minimal polynomial), split at
  the relative gap TOL.  For the spectral projector e_a of X, rho(e_a) =
  W_a W_a^T for the eigenvectors W_a of S, so e_a A_l e_b != 0 exactly when
  W_a^T C_l W_b != 0: clusters a and b are linked when that block's
  Frobenius norm exceeds TOL |C_l|.  This is exact block linking in r
  dimensions.
- Multiplicities.  e_a lies in the span, so W_a W_a^T = sum_i c_i C_i has a
  solution, found by least squares and checked by its residual (relative to
  TOL).  By faithfulness e_a = sum_i c_i A_i, and its trace over R^v,
  m_a = sum_i c_i #{x : L[x, x] = i}, is the dimension of the eigenspace of
  X, to within TOL v of an integer.  Within a linked component the m_a are
  equal; the count of clusters is d and their m_a the multiplicity m.
- Missed blocks.  If u has no component in some block, rho is not
  faithful, and least squares returns the minimum-norm solutions.  They are
  linear in the right-hand side, so their sum c is the minimum-norm solution
  of sum_i c_i C_i = I: the identity's coefficient vector e_0 less its
  projection p on the null space.  In a scheme only A_0 = I has diagonal
  cells, so the m_a sum to v c_0 = v - v |p|^2.  The central idempotent z of
  a missed block lies in that null space, with z_0 = tr(z) / v and
  |z|^2 <= sum_i z_i^2 k_i = |z|_F^2 / v = tr(z) / v for the valencies
  k_i >= 1, so v |p|^2 >= v z_0^2 / |z|^2 >= tr(z) >= 1.  An attempt whose
  blocks do not give sum d m = v is therefore retried with fresh draws.
- Margins, measured on the cases listed in README.md: K had full rank nm
  every time, its least singular value at least 4.1e-3 of the largest;
  invariance residuals were at most 3.1e-14 and least-squares residuals at
  most 4.5e-12; linked blocks read at least 0.25 |C_l| and zero blocks at
  most 1.8e-12 |C_l|, all against TOL = 1e-6; integrality errors were at
  most 1.9e-11, against TOL v.
"""
from __future__ import annotations

import numpy as np

from .errors import VerificationError

TOL = 1e-6  # relative gap, rank cut, residual and link threshold
RETRIES = 5  # random elements tried before the oracle gives up
# cells of L per count, at least one row; the oracle keeps its own row
# blocks and label dtype, since it shares no code with the verifier it checks
BLOCK = 1 << 16


def oracle_closure(L) -> np.ndarray:
    """Recompute the intersection tensor of the relations A_i = (L == i) of
    the label matrix L; raises VerificationError if some label below the
    largest has no cell, or if some product is not constant on some
    relation."""
    L = np.asarray(L)
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
    """The eigenvectors W of S = sum_l coef[l] C[l], symmetrized against
    round-off, the first index of each cluster of eigenvalues closer than
    TOL times the largest magnitude, and the link matrix: clusters a != b
    are linked when |W_a^T C_l W_b| > TOL |C_l| in the Frobenius norm for
    some l."""
    S = np.tensordot(coef, C, axes=1)
    w, W = np.linalg.eigh((S + S.T) / 2)
    splits = np.flatnonzero(np.diff(w) > TOL * max(1.0, np.abs(w).max()))
    starts = np.concatenate(([0], splits + 1))
    T = W.T @ C @ W
    T *= T
    blocks = np.add.reduceat(np.add.reduceat(T, starts, axis=1), starts, axis=2)
    size = np.sum(C * C, axis=(1, 2))
    link = (blocks > TOL**2 * size[:, None, None]).any(axis=0)
    link |= link.T
    np.fill_diagonal(link, False)
    return W, starts, link


def oracle_spectrum(L, seed: int = 0):
    """Numerical Wedderburn block structure, as a sorted list of (d_k, m_k),
    of the span of the relations A_i = (L == i) of the label matrix L.

    Uses a fixed-seed random element and random vector (see the module
    docstring); retries with fresh ones, up to RETRIES attempts in all, when
    an attempt's multiplicities fail their checks (a projector outside the
    span, a non-integer trace, sum d m != v) or differ inside a linked
    component.  A module that is not invariant raises at once.
    """
    L = np.asarray(L)
    v = L.shape[0]
    tpose = _transpose_map(L)
    nm = len(tpose)
    trace = np.bincount(np.diagonal(L), minlength=nm)
    last_err = None
    for attempt in range(RETRIES):
        rng = np.random.default_rng(seed + attempt)
        coef = rng.uniform(1.0, 2.0, size=nm)
        for i, t in enumerate(tpose):
            if t > i:
                coef[t] = coef[i]
        C = _module(L, rng.standard_normal(v), tpose)
        W, starts, link = _eigenspaces(C, coef)
        # rho(e_a) = W_a W_a^T as a combination of the C_i, and its trace
        bounds = np.append(starts, len(W))
        P = np.stack([W[:, a:b] @ W[:, a:b].T for a, b in zip(bounds, bounds[1:])])
        ns = len(P)
        M, B = C.reshape(nm, -1).T, P.reshape(ns, -1).T
        c = np.linalg.lstsq(M, B, rcond=None)[0]
        residual = np.linalg.norm(M @ c - B, axis=0) / np.linalg.norm(B, axis=0)
        m = trace @ c
        dims = np.rint(m).astype(np.int64)
        if residual.max() > TOL:
            last_err = f"attempt {attempt}: projector residual {residual.max():.1e}"
            continue
        if np.abs(m - dims).max() > TOL * v:
            last_err = f"attempt {attempt}: non-integer multiplicities {m.tolist()}"
            continue
        if dims.sum() != v:
            last_err = f"attempt {attempt}: sum of d * m is {dims.sum()}, not {v}"
            continue
        # reach[a, b]: clusters a and b lie in one linked component, after
        # squaring link | I past the longest path; each component is read
        # off the row of its smallest cluster
        reach = link | np.eye(ns, dtype=bool)
        for _ in range(ns.bit_length()):
            reach = reach @ reach
        blocks = []
        for members in reach[reach.argmax(axis=1) == np.arange(ns)]:
            sizes = set(dims[members].tolist())
            if len(sizes) != 1:
                last_err = f"attempt {attempt}: unequal multiplicities {sizes}"
                break
            blocks.append((int(members.sum()), sizes.pop()))
        else:
            return sorted(blocks)
    raise VerificationError(f"spectrum oracle failed: {last_err}")
