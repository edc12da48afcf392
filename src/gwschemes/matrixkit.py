"""Exact dense integer matrix helpers on top of numpy.

Products are computed through float64 BLAS whenever the result is provably
exact (every intermediate value is an integer below 2**53); otherwise a Python
big-integer fallback is used.  For the 0/1 adjacency matrices handled here the
BLAS path always applies, so exactness never depends on matrix content checks
at call sites.
"""
from __future__ import annotations

import numpy as np

_EXACT_BOUND = 2**53


def mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact integer matrix product."""
    A = np.asarray(A)
    B = np.asarray(B)
    inner = A.shape[1]
    if inner == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    try:
        ma = int(np.abs(A).max())
        mb = int(np.abs(B).max())
    except TypeError:
        ma = mb = _EXACT_BOUND  # object dtype; force the fallback
    if ma * mb * inner < _EXACT_BOUND:
        P = A.astype(np.float64) @ B.astype(np.float64)
        out = np.rint(P).astype(np.int64)
        # the bound above guarantees this never fires; kept as a hard check
        if not np.array_equal(out.astype(np.float64), P):
            raise AssertionError("float product was not exact")
        return out
    rows = [[int(x) for x in row] for row in A.tolist()]
    cols = [[int(x) for x in col] for col in np.asarray(B).T.tolist()]
    out = [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in rows]
    return np.array(out, dtype=object)
