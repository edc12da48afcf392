"""Combinatorial designs: weighing matrices, generalized Hadamard matrices,
one-factorizations, Latin squares, and divisible design checks.

A balanced generalized weighing matrix BGW(v, k, lam) over a group G is a
v x v matrix with entries in {blank} + G, k nonblank entries per row and
column, such that for distinct rows x, y the multiset
{ W[x,j] - W[y,j] : both entries nonblank } covers G exactly lam/|G| times.
Group values are integers 0..m-1 (the group is Z_m written additively) and
blank is -1.

A generalized Hadamard matrix GH(q, 1) over the additive group of GF(q) is a
q x q matrix over GF(q) such that the difference of any two distinct rows
covers GF(q) exactly once; the multiplication table of GF(q) is one.
"""
from __future__ import annotations

import numpy as np

from .algebra import FiniteField
from .errors import SymmetryObstruction, VerificationError

BLANK = -1

# The most points a scheme construction accepts.  A scheme is a dense v x v
# label matrix, so larger parameters are refused before any field table or
# matrix is allocated; gh 13 has 2366 points.
MAX_POINTS = 4096


def require_points(v: int) -> None:
    """Raise ValueError when a construction asks for more than MAX_POINTS points."""
    if v > MAX_POINTS:
        raise ValueError(f"{v} points exceed the limit of {MAX_POINTS}")


def bgw_matrix(q: int, m: int) -> np.ndarray:
    """Symmetric BGW(q+1, q, q-1) over Z_m with blank diagonal.

    Rows and columns are indexed by the projective line over GF(q): index 0 is
    the point at infinity, index 1 + x is the field element with canonical
    index x.  Entry (x, y) for distinct finite x, y is dlog(x - y) mod m; all
    other nonblank entries are the group identity.

    Requires m | q - 1, and refuses (q, m) whose scheme would have more than
    MAX_POINTS points.  The result is symmetric iff dlog(-1) = 0 mod m,
    equivalently iff (q-1)/m is even or q is even; otherwise
    SymmetryObstruction is raised.
    """
    if m < 2 or (q - 1) % m != 0:
        raise ValueError(f"m={m} must divide q-1={q - 1}")
    require_points((q + 1) * m)
    F = FiniteField(q)
    if F.p != 2 and ((q - 1) // m) % 2 != 0:
        # dlog(-1) = (q-1)/2, which is 0 mod m iff (q-1)/m is even
        raise SymmetryObstruction(
            f"no symmetric construction for q={q}, m={m}: "
            f"(q-1)/m = {(q - 1) // m} is odd and the characteristic is odd"
        )
    n = q + 1
    W = np.full((n, n), BLANK, dtype=np.int64)
    W[0, 1:] = 0
    W[1:, 0] = 0
    for x in range(q):
        for y in range(q):
            if x != y:
                W[1 + x, 1 + y] = F.dlog(F.sub(x, y)) % m
    return W


def verify_bgw(W: np.ndarray, m: int) -> dict:
    """Check the BGW property; return parameters and structure flags.

    Raises VerificationError when W is not a BGW(v, v-1, v-2) over Z_m with
    exactly one blank per row and column.
    """
    W = np.asarray(W)
    v = W.shape[0]
    if W.shape != (v, v):
        raise VerificationError("matrix is not square")
    if not (((W >= 0) & (W < m)) | (W == BLANK)).all():
        raise VerificationError("entries must be blank or in 0..m-1")
    if ((W == BLANK).sum(axis=1) != 1).any() or ((W == BLANK).sum(axis=0) != 1).any():
        raise VerificationError("each row and column must have exactly one blank")
    lam = v - 2
    if lam % m != 0:
        raise VerificationError(f"lambda={lam} not divisible by m={m}")
    for x in range(v):
        for y in range(x + 1, v):
            ok = (W[x] != BLANK) & (W[y] != BLANK)
            diffs = (W[x, ok] - W[y, ok]) % m
            counts = np.bincount(diffs, minlength=m)
            if not (counts == lam // m).all():
                raise VerificationError(
                    f"rows {x},{y}: difference counts {counts.tolist()}"
                )
    return {
        "v": v,
        "k": v - 1,
        "lam": lam,
        "m": m,
        "symmetric": bool(np.array_equal(W, W.T)),
        "blank_diagonal": bool((np.diag(W) == BLANK).all()),
    }


def gh_matrix(q: int) -> np.ndarray:
    """The multiplication table of GF(q) as a GH(q, 1) over (GF(q), +)."""
    F = FiniteField(q)
    H = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            H[a, b] = F.mul(a, b)
    return H


def verify_gh(H: np.ndarray, q: int) -> dict:
    """Check the generalized Hadamard property over the additive group of GF(q)."""
    F = FiniteField(q)
    H = np.asarray(H)
    rows, cols = H.shape
    if cols % q != 0:
        raise VerificationError("column count must be a multiple of q")
    lam = cols // q
    if not ((H >= 0) & (H < q)).all():
        raise VerificationError("entries must be field indices 0..q-1")
    for x in range(rows):
        for y in range(rows):
            if x == y:
                continue
            diffs = [F.sub(int(a), int(b)) for a, b in zip(H[x], H[y])]
            counts = np.bincount(diffs, minlength=q)
            if not (counts == lam).all():
                raise VerificationError(
                    f"rows {x},{y}: difference counts {counts.tolist()}"
                )
    return {"q": q, "lam": lam, "rows": rows}


def one_factorization(q: int) -> list[np.ndarray]:
    """One-factorization of the complete graph on q+1 vertices, q an odd prime power.

    Vertex 0 is a point at infinity, vertex 1 + x is the field element x.  The
    factor with index a in GF(q) consists of the edge {infinity, a} and the
    pairs {x, y} with x + y = 2a.  Returns the q factors as symmetric
    permutation matrices with zero diagonal, in canonical order of a.
    """
    F = FiniteField(q)
    if F.p == 2:
        raise ValueError("q must be odd")
    factors = []
    for a in range(q):
        P = np.zeros((q + 1, q + 1), dtype=np.int64)
        ta = F.add(a, a)
        P[0, 1 + a] = P[1 + a, 0] = 1
        for x in range(q):
            if x != a:
                y = F.sub(ta, x)
                P[1 + x, 1 + y] = 1
        factors.append(P)
    return factors


def verify_one_factorization(factors: list[np.ndarray]) -> None:
    """Each factor a perfect matching, all factors together partitioning K_n."""
    n = factors[0].shape[0]
    total = np.zeros((n, n), dtype=np.int64)
    for P in factors:
        if not np.array_equal(P, P.T):
            raise VerificationError("factor not symmetric")
        if (np.diag(P) != 0).any():
            raise VerificationError("factor has a fixed point")
        if (P.sum(axis=1) != 1).any():
            raise VerificationError("factor not a perfect matching")
        total += P
    if not np.array_equal(total, np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)):
        raise VerificationError("factors do not partition the complete graph")


def latin_square(q: int) -> np.ndarray:
    """Symmetric idempotent Latin square L[x][y] = (x + y)/2 over GF(q), q odd.

    Its off-diagonal cells encode the one-factorization used by the
    generalized Hadamard scheme: cell value a means edge {x, y} lies in
    factor a.
    """
    F = FiniteField(q)
    if F.p == 2:
        raise ValueError("q must be odd")
    half = F.inv(F.add(1, 1))
    L = np.zeros((q, q), dtype=np.int64)
    for x in range(q):
        for y in range(q):
            L[x, y] = F.mul(F.add(x, y), half)
    return L


def verify_latin(L: np.ndarray) -> None:
    L = np.asarray(L)
    n = L.shape[0]
    want = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(L[i]), want) or not np.array_equal(
            np.sort(L[:, i]), want
        ):
            raise VerificationError(f"row/column {i} is not a permutation")


def sgdd_params(N: np.ndarray, group_size: int) -> dict:
    """Verify that N is the incidence matrix of a symmetric group divisible design.

    Points are grouped into consecutive blocks of group_size.  Checks that
    both N N^T and N^T N equal k I + lam1 (same-group off-diagonal) +
    lam2 (cross-group) for constants k, lam1, lam2, and returns the
    parameters.  When lam1 = lam2 the design is a symmetric 2-design and the
    common value is reported as "lam".
    """
    N = np.asarray(N)
    v = N.shape[0]
    if N.shape != (v, v) or v % group_size != 0:
        raise VerificationError("bad shape or group size")
    ngroups = v // group_size
    ksum = N.sum(axis=1)
    if (ksum != ksum[0]).any() or (N.sum(axis=0) != ksum[0]).any():
        raise VerificationError("row/column sums not constant")
    k = int(ksum[0])
    from .matrixkit import mm

    same = np.zeros((v, v), dtype=bool)
    for g in range(ngroups):
        s = slice(g * group_size, (g + 1) * group_size)
        same[s, s] = True
    off = ~np.eye(v, dtype=bool)
    G = mm(N, N.T)
    if not np.array_equal(G, mm(N.T, N)):
        raise VerificationError("N N^T and N^T N differ")
    if (np.diag(G) != k).any():
        raise VerificationError("diagonal of N N^T is not k")
    vals1 = G[same & off]
    vals2 = G[~same]
    if vals1.size and (vals1 != vals1[0]).any():
        raise VerificationError("same-group inner products not constant")
    if vals2.size and (vals2 != vals2[0]).any():
        raise VerificationError("cross-group inner products not constant")
    lam1 = int(vals1[0]) if vals1.size else None
    lam2 = int(vals2[0]) if vals2.size else None
    out = {
        "v": v,
        "k": k,
        "groups": ngroups,
        "group_size": group_size,
        "lam1": lam1,
        "lam2": lam2,
    }
    if lam1 is not None and lam1 == lam2:
        out["lam"] = lam1
    return out
