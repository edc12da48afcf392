"""Shared grid cases and a build cache for the test suite.

Schemes and eigensystems are built once per test session and reused; the
wall-clock seconds spent on each first build are recorded so the runtime
budgets can be asserted regardless of which test triggers the build.
"""
from __future__ import annotations

import time

import numpy as np

from gwschemes import (
    AssociationScheme,
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

# provenance records whose parameters admit no construction, each with the
# build arguments of those parameters and a valid scheme of the point and
# class count the record names: (13, 4) is obstructed, 6 is not a prime
# power and 2 is even
REFUSED = {
    "bgw-13-4": ({"family": "bgw", "q": 13, "m": 4}, ["bgw-scheme", "--q", "13", "--m", "4"]),
    "bgw-6-5": ({"family": "bgw", "q": 6, "m": 5}, ["bgw-scheme", "--q", "6", "--m", "5"]),
    "gh-2": ({"family": "gh", "q": 2}, ["gh-scheme", "--q", "2"]),
}

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


def cyclic_over_complete(n: int, k: int, wreath: bool) -> AssociationScheme:
    """Z_n wr K_k (wreath) or Z_n x K_k on the points i n + a, i < k and a in
    Z_n: the label of the pair (i n + a, j n + b) is (b - a) mod n when i = j,
    and n in the wreath product or n + (b - a) mod n in the direct one when
    i != j."""
    i, a = np.divmod(np.arange(n * k), n)
    d = (a[None, :] - a[:, None]) % n
    L = np.where(i[:, None] == i[None, :], d, n if wreath else n + d)
    return AssociationScheme.from_matrices(L, [str(c) for c in range(L.max() + 1)])


def refused(name: str) -> AssociationScheme:
    """The scheme of REFUSED[name]: Z_7 wr K_8 (56 points, 8 classes, as bgw
    13,4), Z_5 x K_7 (35 points, 10 classes, as bgw 6,5) or Z_4 wr K_3 (12
    points, 5 classes, as gh 2)."""
    n, k, wreath = {"bgw-13-4": (7, 8, True), "bgw-6-5": (5, 7, False), "gh-2": (4, 3, True)}[name]
    return cyclic_over_complete(n, k, wreath)


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
