"""The spectrum oracle with exact linking, as a test reference.

reference_spectrum is the random-element method on C^v, linked pair by
pair: the Hermitian element Y = (X + X^T)/2 + i (X - X^T)/2 of a random
X = sum_l coef[l] A_l is diagonalized, and for every class A_l and every
pair of distinct eigenspaces (a, b) the block V_a^H A_l V_b is formed by its
own product and its largest entry is compared with tol * v.  The linked
components are the blocks: d is the number of eigenspaces in one and m
their common dimension.  The library's oracle_spectrum links nothing; it
reads d off the cluster sizes in the module of one random vector, so the
tests check that its clusters are d copies of each reference block (d, m)
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


def reference_spectrum(mats, seed: int = 0, tol: float = 1e-6, retries: int = 5):
    """Numerical Wedderburn block structure as a sorted list of (d_k, m_k);
    attempt n draws its coefficients as the first draw of the generator of
    seed + n, as oracle_spectrum does."""
    mats = [np.asarray(M) for M in mats]
    v = mats[0].shape[0]
    last_err = None
    for attempt in range(retries):
        coef = np.random.default_rng(seed + attempt).uniform(1.0, 2.0, size=len(mats))
        X = np.zeros((v, v), dtype=np.float64)
        for c, M in zip(coef, mats):
            X += c * M
        # a symmetric X is its own Hermitian element, diagonalized over R
        Y = X if (X == X.T).all() else (X + X.T) / 2 + 1j * (X - X.T) / 2
        w, V = np.linalg.eigh(Y)
        splits = np.flatnonzero(np.diff(w) > tol * max(1.0, np.abs(w).max()))
        bounds = [0] + (splits + 1).tolist() + [v]
        spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        ns = len(spans)
        VH = V.conj().T
        # link eigenspaces a, b when some A_l has a nonzero block between them
        adj = [[False] * ns for _ in range(ns)]
        for M in mats:
            Mf = M.astype(np.float64)
            image = Mf @ V if V.dtype == np.float64 else Mf @ V.real + 1j * (Mf @ V.imag)
            for a in range(ns):
                for b in range(ns):
                    if a != b and not adj[a][b]:
                        B = VH[spans[a]] @ image[:, spans[b]]
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
            dims = {bounds[x + 1] - bounds[x] for x in members}
            if len(dims) != 1:
                last_err = f"attempt {attempt}: unequal multiplicities {dims}"
                blocks = None
                break
            blocks.append((len(members), dims.pop()))
        # the eigenspaces partition [0, v), so the d * m of the blocks sum to v
        if blocks is not None:
            return sorted(blocks)
    raise VerificationError(f"spectrum oracle failed: {last_err}")
