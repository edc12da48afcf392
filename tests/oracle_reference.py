"""The spectrum oracle with exact linking, as a test reference.

reference_spectrum is the random-element method on R^v, linked pair by
pair: the v x v random element is diagonalized, and for every class A_l and
every pair of distinct eigenspaces (a, b) the block V_a^T A_l V_b is formed
by its own product and its largest entry is compared with tol * v.
reference_links forms V^T A_l V once per transpose orbit and reads the
per-block maxima off it.  The library's oracle_spectrum works in the module
of one random vector instead, with r x r blocks; the tests check that its
clusters and link matrix are those of random_eigenspaces and reference_links
for the same coefficients, and that it gives the blocks of
reference_spectrum.
"""
from __future__ import annotations

import numpy as np

from gwschemes.errors import VerificationError


def reference_transpose_map(mats) -> list[int]:
    out = []
    for i, M in enumerate(mats):
        t = None
        for j, N in enumerate(mats):
            if np.array_equal(M.T, N):
                t = j
                break
        if t is None:
            raise VerificationError(f"relation {i} has no transpose partner")
        out.append(t)
    return out


def random_eigenspaces(mats, tpose, rng, tol: float = 1e-6):
    """The eigenvalues w and eigenvectors V of a random symmetric element of
    the span, and the first column of each eigenspace, the eigenvalues
    clustered by gaps."""
    v = len(mats[0])
    coef = rng.uniform(1.0, 2.0, size=len(mats))
    for i, t in enumerate(tpose):
        if t > i:
            coef[t] = coef[i]
    X = np.zeros((v, v), dtype=np.float64)
    for c, M in zip(coef, mats):
        X += c * M
    if not np.allclose(X, X.T):
        raise VerificationError("random element is not symmetric")
    w, V = np.linalg.eigh(X)
    splits = np.flatnonzero(np.diff(w) > tol * max(1.0, np.abs(w).max()))
    return w, V, np.concatenate(([0], splits + 1))


def reference_links(mats, tpose, V, starts, threshold) -> np.ndarray:
    """(a, b) is linked when a != b and the block V_a^T A_l V_b has an entry
    above threshold for some l; one product pair V^T (A_l V) per transpose
    orbit, the identity skipped, the links symmetrized."""
    ns = len(starts)
    link = np.zeros((ns, ns), dtype=bool)
    for l, M in enumerate(mats):
        identity = np.count_nonzero(M) == len(M) and (np.diagonal(M) == 1).all()
        if tpose[l] < l or identity:
            continue
        T = V.T @ (M.astype(np.float64) @ V)
        np.abs(T, out=T)
        peak = np.maximum.reduceat(np.maximum.reduceat(T, starts, axis=0), starts, axis=1)
        link |= peak > threshold
    link |= link.T
    np.fill_diagonal(link, False)
    return link


def reference_spectrum(mats, seed: int = 0, tol: float = 1e-6, retries: int = 5):
    """Numerical Wedderburn block structure as a sorted list of (d_k, m_k)."""
    mats = [np.asarray(M) for M in mats]
    v = mats[0].shape[0]
    tpose = reference_transpose_map(mats)
    last_err = None
    for attempt in range(retries):
        _, V, starts = random_eigenspaces(mats, tpose, np.random.default_rng(seed + attempt), tol)
        bounds = starts.tolist() + [v]
        spaces = [
            V[:, bounds[t] : bounds[t + 1]] for t in range(len(bounds) - 1)
        ]
        ns = len(spaces)
        # link eigenspaces a, b when some A_l has a nonzero block between them
        adj = [[False] * ns for _ in range(ns)]
        for M in mats:
            Mf = M.astype(np.float64)
            images = [Mf @ S for S in spaces]
            for a in range(ns):
                for b in range(ns):
                    if a != b and not adj[a][b]:
                        B = spaces[a].T @ images[b]
                        if np.abs(B).max() > tol * v:
                            adj[a][b] = adj[b][a] = True
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
                for y in range(ns):
                    if adj[x][y] and comp[y] == -1:
                        comp[y] = a
                        stack.append(y)
            dims = {spaces[x].shape[1] for x in members}
            if len(dims) != 1:
                last_err = f"attempt {attempt}: unequal multiplicities {dims}"
                blocks = None
                break
            blocks.append((len(members), dims.pop()))
        # the eigenspaces partition [0, v), so the d * m of the blocks sum to v
        if blocks is not None:
            return sorted(blocks)
    raise VerificationError(f"spectrum oracle failed: {last_err}")
