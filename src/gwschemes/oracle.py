"""Independent numerical checks of the symbolic results.

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


def oracle_closure(mats) -> np.ndarray:
    """Recompute the intersection tensor; raises VerificationError if some
    product is not constant on some relation."""
    mats = [np.asarray(M, dtype=np.int64) for M in mats]
    nm = len(mats)
    idx = [np.flatnonzero(M.reshape(-1)) for M in mats]
    tensor = np.zeros((nm, nm, nm), dtype=np.int64)
    for i in range(nm):
        Af = mats[i].astype(np.float64)
        for j in range(nm):
            P = (Af @ mats[j].astype(np.float64)).reshape(-1)
            for k in range(nm):
                vals = P[idx[k]]
                v0 = vals[0]
                if (vals != v0).any():
                    raise VerificationError(
                        f"product {i},{j} not constant on relation {k}"
                    )
                tensor[i, j, k] = int(v0)
    return tensor


def _transpose_map(mats) -> list[int]:
    """The first j with A_j = A_i^T, for each i.  Only classes with a one at
    (y, x), for (x, y) the first one of A_i, are compared in full; an
    all-zero matrix is compared with every class."""
    out = []
    for i, M in enumerate(mats):
        first = np.flatnonzero(M)[:1]
        if first.size:
            x, y = divmod(int(first[0]), M.shape[1])
            candidates = [j for j, N in enumerate(mats) if N[y, x]]
        else:
            candidates = range(len(mats))
        t = next((j for j in candidates if np.array_equal(M.T, mats[j])), None)
        if t is None:
            raise VerificationError(f"relation {i} has no transpose partner")
        out.append(t)
    return out


def _links(mats, tpose, V, starts, threshold, rng) -> np.ndarray:
    """Which eigenspaces some A_l joins: (a, b) is linked when a != b and
    |V_a^T A_l V_b g| > threshold for one of PROBES random unit vectors g of
    R^dim(b), drawn from rng, for some l (see the module docstring for the
    threshold, the round-off of a zero block and the chance of a miss).

    Each probe column V_b g is a unit vector of eigenspace b; they are stacked
    into U, v x (PROBES * ns), so one product pair V^T (A_l U) gives every
    projected norm, at 4 v^2 PROBES ns flops instead of 4 v^3.

    Block (a, b) for A_l^T is the transpose of block (b, a) for A_l, so one
    class of each transpose pair is multiplied and the links are
    symmetrized.  The identity is skipped: V_a^T V_b = 0 for distinct
    orthonormal eigenspaces.
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
    for l, M in enumerate(mats):
        identity = np.count_nonzero(M) == len(M) and (np.diagonal(M) == 1).all()
        if tpose[l] < l or identity:
            continue
        Y = V.T @ (M.astype(np.float64) @ U)
        norms = np.sqrt(np.add.reduceat(Y * Y, starts)).reshape(ns, ns, PROBES)
        link |= norms.max(axis=2) > threshold
    link |= link.T
    np.fill_diagonal(link, False)
    return link


def _random_element(mats, coef) -> np.ndarray:
    """sum_l coef[l] A_l in float64, each product formed in one reused
    buffer rather than a fresh v x v temporary per class."""
    X = np.zeros(mats[0].shape, dtype=np.float64)
    buf = np.empty_like(X)
    for c, M in zip(coef, mats):
        np.multiply(M, c, out=buf)
        X += buf
    return X


def oracle_spectrum(mats, seed: int = 0):
    """Numerical Wedderburn block structure as a sorted list of (d_k, m_k).

    Uses a fixed-seed random element; retries with fresh coefficients, up to
    RETRIES elements in all, if the spectrum is degenerate (unequal
    multiplicities inside a linked component).  Eigenvalues closer than TOL
    times the largest magnitude form one eigenspace.
    The matrices are taken as given, so 0/1 masks stay one byte an entry.
    """
    mats = [np.asarray(M) for M in mats]
    v = mats[0].shape[0]
    tpose = _transpose_map(mats)
    last_err = None
    for attempt in range(RETRIES):
        rng = np.random.default_rng(seed + attempt)
        coef = rng.uniform(1.0, 2.0, size=len(mats))
        for i, t in enumerate(tpose):
            if t > i:
                coef[t] = coef[i]
        X = _random_element(mats, coef)
        if not np.allclose(X, X.T):
            raise VerificationError("random element is not symmetric")
        w, V = np.linalg.eigh(X)
        del X
        # cluster eigenvalues by gaps
        splits = np.flatnonzero(np.diff(w) > TOL * max(1.0, np.abs(w).max()))
        bounds = np.concatenate(([0], splits + 1, [v]))
        dims = np.diff(bounds).tolist()
        link = _links(mats, tpose, V, bounds[:-1], TOL * v, rng)
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
                blocks = None
                break
            blocks.append((len(members), sizes.pop()))
        # the eigenspaces partition [0, v), so the d * m of the blocks sum to v
        if blocks is not None:
            return sorted(blocks)
    raise VerificationError(f"spectrum oracle failed: {last_err}")
