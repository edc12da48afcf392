"""Shared grid cases and a build cache for the test suite.

Schemes and eigensystems are built once per test session and reused; the
wall-clock seconds spent on each first build are recorded so the runtime
budgets can be asserted regardless of which test triggers the build.
"""
from __future__ import annotations

import time

import numpy as np

from gwschemes import (
    Eigensystem,
    FusedEigensystem,
    bgw_build,
    bgw_eigensystem,
    bgw_symmetric_fusion,
    gh_build,
    gh_eigensystem,
    gh_symmetric_fusion,
)

# (q, m) cases for the weighing-matrix family.  (13, 4) is listed because it
# satisfies m | q - 1, but (q-1)/m = 3 is odd with odd characteristic, so the
# symmetric matrix that the construction needs does not exist (an exhaustive
# search in test_designs.py certifies this); building it must raise
# SymmetryObstruction, and the acceptance tests fail if it builds.
BGW_GRID = [(5, 2), (9, 2), (13, 2), (7, 3), (13, 3), (4, 3), (13, 4), (13, 6), (8, 7)]
BGW_OBSTRUCTED = [(13, 4)]
BGW_BUILDABLE = [c for c in BGW_GRID if c not in BGW_OBSTRUCTED]
BGW_NEGATIVE = (5, 4)

GH_GRID = [3, 5, 7, 9]

_schemes: dict = {}
_eigensystems: dict = {}
_fused: dict = {}
build_seconds: dict = {}


def bgw(q: int, m: int):
    key = ("bgw", q, m)
    if key not in _schemes:
        t0 = time.perf_counter()
        _schemes[key] = bgw_build(q, m)
        build_seconds[key] = time.perf_counter() - t0
    return _schemes[key]


def gh(q: int):
    key = ("gh", q)
    if key not in _schemes:
        t0 = time.perf_counter()
        _schemes[key] = gh_build(q)
        build_seconds[key] = time.perf_counter() - t0
    return _schemes[key]


def bgw_es(q: int, m: int) -> Eigensystem:
    key = ("bgw", q, m)
    if key not in _eigensystems:
        _eigensystems[key] = bgw_eigensystem(bgw(q, m), q, m)
    return _eigensystems[key]


def gh_es(q: int) -> Eigensystem:
    key = ("gh", q)
    if key not in _eigensystems:
        _eigensystems[key] = gh_eigensystem(gh(q), q)
    return _eigensystems[key]


def bgw_fused(q: int, m: int) -> FusedEigensystem:
    key = ("bgw", q, m)
    if key not in _fused:
        _fused[key] = FusedEigensystem(bgw_es(q, m), bgw_symmetric_fusion(m))
    return _fused[key]


def gh_fused(q: int) -> FusedEigensystem:
    key = ("gh", q)
    if key not in _fused:
        _fused[key] = FusedEigensystem(gh_es(q), gh_symmetric_fusion(q))
    return _fused[key]


def masks(scheme) -> list:
    """The boolean 0/1 matrices A_i = (L == i) of a scheme's classes."""
    return [scheme.L == i for i in range(scheme.nclasses)]


def assert_column_zero(s) -> None:
    """The premise of the P/Q duality: column l of p[:, :, 0] has one nonzero
    entry, at the transpose l' of l, equal to the valency k_l.  l' and k_l
    are read off row 0 of L here, and must be what s reports."""
    row = s.L[0].astype(np.intp)
    first = np.unique(row, return_index=True)[1]  # the first y with L[0, y] = l
    tpose = s.L[first, 0].astype(np.intp)  # A_l(0, y) = 1 gives A_l'(y, 0) = 1
    k = np.bincount(row, minlength=s.nclasses)
    want = np.zeros((s.nclasses, s.nclasses), dtype=np.int64)
    want[tpose, np.arange(s.nclasses)] = k
    assert np.array_equal(s.p[:, :, 0], want)
    assert (s.tpose, s.valencies) == (tpose.tolist(), k.tolist())
