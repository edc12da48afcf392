"""Independent numerical checks of the symbolic results.

Both oracles take the label matrix L of a scheme, whose relation i is the
0/1 matrix A_i = (L == i), and form the float64 operand of one class at a
time; no list of per-class matrices is kept.

oracle_closure recomputes the intersection tensor by a route that shares
nothing with the scheme constructor: every product is formed separately, no
transpose pairing is used, and the per-relation constancy is read off flat
index arrays rather than sorted segments.

oracle_spectrum recovers the Wedderburn block structure (d_k, m_k) of the
span numerically: a random self-adjoint element of the algebra is
diagonalized, its eigenspaces are grouped into blocks by linking them through
the adjacency matrices, and within a block the count of eigenspaces is the
block dimension while their common dimension is the multiplicity.

Eigenspaces a and b are linked when some block V_a^T A_l V_b is nonzero,
tested with random probes in the manner of Freivalds' check (R. Freivalds,
Probabilistic machines can use less running time, IFIP 1977):

- Probes.  For each eigenspace b, PROBES Gaussian unit vectors g of
  R^dim(b) are drawn from the attempt's seeded generator, fresh on each
  retry, and (a, b) is linked when |V_a^T A_l V_b g| > TOL * v for some
  probe and some class.  TOL * v is the threshold the largest entry of a
  full product was compared with, and it carries over to the projected
  norm: an entry of B and |B g| for a unit g are both at most |B|_2, so a
  zero block passes neither while the round-off in |B|_2 stays below it.
- Zero blocks.  The projected norm of a zero block is round-off in the
  computed eigenspaces: about |A_l|_2 times their angles to the exact ones,
  which are of order v eps |X| / gap (Davis-Kahan), plus v eps |A_l|_2 from
  the products.  With the gaps of a random element that is far below
  TOL * v.
- Missed blocks.  A nonzero block B is missed by one probe with chance at
  most about sqrt(dim b) TOL v / |B|_2, since the component of g along the
  top right singular vector of B has density at most about sqrt(dim b) / 2
  near 0, and by every probe with that chance to the power PROBES.  A miss
  can only split a block into blocks of the same multiplicity, so it reads
  as a disagreement with the exact blocks, never as a false agreement.
- Margins measured on BGW (7,3), (8,7), (17,8), (25,12) and GH 3, 5, 7
  over seeds 0..9, and GH 9 over seeds 0..2: the least norm of a linked
  pair was 2.4 and the largest of a zero block 3.5e-11, against
  TOL * v = 2.4e-5 to 8.1e-4.
"""
from __future__ import annotations

import numpy as np

from .errors import VerificationError

PROBES = 2  # random unit vectors per eigenspace in _links
TOL = 1e-6  # relative gap that splits eigenvalues; TOL * v is the link threshold
RETRIES = 5  # random elements tried before the oracle gives up


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
    a label with no cell is its own partner."""
    L = np.asarray(L, dtype=np.int64)
    n = int(L.max()) + 1
    C = np.bincount((L * n + L.T).reshape(-1), minlength=n * n).reshape(n, n)
    count = np.count_nonzero(C, axis=1)
    tpose = np.where(count == 0, np.arange(n), C.argmax(axis=1))
    bad = np.flatnonzero((count > 1) | (count[tpose] > 1))
    if bad.size:
        raise VerificationError(f"relation {bad[0]} has no transpose partner")
    return tpose.tolist()


def _links(L, tpose, V, starts, threshold, rng) -> np.ndarray:
    """Which eigenspaces some A_l = (L == l) joins: (a, b) is linked when
    a != b and |V_a^T A_l V_b g| > threshold for one of PROBES random unit
    vectors g of R^dim(b), drawn from rng, for some l (see the module
    docstring for the threshold, the round-off of a zero block and the
    chance of a miss).

    Each probe column V_b g is a unit vector of eigenspace b; they are stacked
    into U, v x (PROBES * ns), so one product pair V^T (A_l U) gives every
    projected norm, at 4 v^2 PROBES ns flops instead of 4 v^3.

    Block (a, b) for A_l^T is the transpose of block (b, a) for A_l, so one
    class of each transpose pair is multiplied and the links are
    symmetrized.  The identity is skipped: V_a^T V_b = 0 for distinct
    orthonormal eigenspaces.  The float64 operand A_l is formed for one
    class at a time.
    """
    v, ns = len(V), len(starts)
    dims = np.diff(starts, append=v)
    g = rng.standard_normal((v, PROBES))
    g /= np.repeat(np.sqrt(np.add.reduceat(g * g, starts)), dims, axis=0)
    # G[c, b, j] = g[c, j] for eigenvector c of eigenspace b, so U = V G
    G = np.zeros((v, ns, PROBES))
    G[np.arange(v), np.repeat(np.arange(ns), dims)] = g
    U = V @ G.reshape(v, ns * PROBES)
    link = np.zeros((ns, ns), dtype=bool)
    for l, t in enumerate(tpose):
        M = L == l
        identity = np.count_nonzero(M) == v and np.diagonal(M).all()
        if t < l or identity:
            continue
        Y = V.T @ (M.astype(np.float64) @ U)
        norms = np.sqrt(np.add.reduceat(Y * Y, starts)).reshape(ns, ns, PROBES)
        link |= norms.max(axis=2) > threshold
    link |= link.T
    np.fill_diagonal(link, False)
    return link


def oracle_spectrum(L, seed: int = 0):
    """Numerical Wedderburn block structure, as a sorted list of (d_k, m_k),
    of the span of the relations A_i = (L == i) of the label matrix L.

    Uses a fixed-seed random element; retries with fresh coefficients, up to
    RETRIES elements in all, if the spectrum is degenerate (unequal
    multiplicities inside a linked component).  Eigenvalues closer than TOL
    times the largest magnitude form one eigenspace.
    The random element sum_l coef[l] A_l is the gather coef[L]: each cell
    lies in exactly one class, so it equals the sum bit for bit.
    """
    L = np.asarray(L)
    v = L.shape[0]
    tpose = _transpose_map(L)
    last_err = None
    for attempt in range(RETRIES):
        rng = np.random.default_rng(seed + attempt)
        coef = rng.uniform(1.0, 2.0, size=len(tpose))
        for i, t in enumerate(tpose):
            if t > i:
                coef[t] = coef[i]
        # exactly symmetric: tpose is verified and coef is tied across each pair
        X = coef[L]
        w, V = np.linalg.eigh(X)
        del X
        # cluster eigenvalues by gaps
        splits = np.flatnonzero(np.diff(w) > TOL * max(1.0, np.abs(w).max()))
        bounds = np.concatenate(([0], splits + 1, [v]))
        dims = np.diff(bounds).tolist()
        link = _links(L, tpose, V, bounds[:-1], TOL * v, rng)
        ns = len(dims)
        comp = [-1] * ns
        blocks = []
        for a in range(ns):
            if comp[a] != -1:
                continue
            stack, members = [a], []
            comp[a] = a
            while stack:
                x = stack.pop()
                members.append(x)
                for y in np.flatnonzero(link[x]).tolist():
                    if comp[y] == -1:
                        comp[y] = a
                        stack.append(y)
            sizes = {dims[x] for x in members}
            if len(sizes) != 1:
                last_err = f"attempt {attempt}: unequal multiplicities {sizes}"
                break
            blocks.append((len(members), sizes.pop()))
        else:
            # the eigenspaces partition [0, v), so the d * m of the blocks sum to v
            return sorted(blocks)
    raise VerificationError(f"spectrum oracle failed: {last_err}")
