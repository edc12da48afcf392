"""Exact dense integer matrix products on top of numpy.

A product picks its tier from the bound max|A| * max|B| * inner by the rule
of kernel.exact, whose docstring (kernel.py) carries the exactness argument:
a float64 GEMM stored as int64 below 2**53, Python integers at or above it.
"""
from __future__ import annotations

import numpy as np

from .kernel import _stored, absmax, exact


def mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact integer matrix product; raises ValueError unless each operand is
    an integer array or an object array of Python ints, since the float tier
    would store any other product truncated."""
    A, B = np.asarray(A), np.asarray(B)
    for X in (A, B):
        if not np.issubdtype(X.dtype, np.integer) and not (
            X.dtype == object and all(type(x) is int for x in X.flat)
        ):
            raise ValueError(f"mm takes integer operands, not {X.dtype} ones")
    a, b = exact(absmax(A) * absmax(B) * A.shape[1], A, B)
    return _stored(a @ b)
