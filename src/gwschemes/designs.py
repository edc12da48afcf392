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
covers GF(q) exactly once; the multiplication table of GF(q) is one.  It is
checked as a BGW matrix with no blanks: verify_bgw and verify_gh share one
count of row differences, over Z_m and over (GF(q), +).

A one-factorization of K_n is its factor matrix, shaped like W: entry (x, y)
is the factor 0..n-2 holding the edge {x, y}, and the diagonal is blank.

The parameter rules of the two scheme families live here too: check_bgw and
gh_field, and provenance_parameters, which reads the family and parameters
that a provenance record names.
"""
from __future__ import annotations

import numpy as np

from .algebra import FiniteField, factor_prime_power
from .errors import InputError, SymmetryObstruction, VerificationError
from .matrixkit import mm

BLANK = -1

# The most points a scheme construction accepts.  A scheme is a dense v x v
# label matrix, so larger parameters are refused before any field table or
# matrix is allocated; gh 13 has 2366 points.
MAX_POINTS = 4096


def odd_field(q: int) -> FiniteField:
    """GF(q) for the designs that need q odd; ValueError when it is even."""
    if (F := FiniteField(q)).p == 2:
        raise ValueError("q must be odd")
    return F


def check_bgw(q: int, m: int) -> None:
    """The BGW family's parameter rule, by arithmetic alone: ValueError unless
    m >= 2, m | q - 1, (q+1) m <= MAX_POINTS and q is a prime power, then
    SymmetryObstruction unless bgw_matrix(q, m) is symmetric, in that order."""
    if m < 2:
        raise ValueError(f"m={m} must be at least 2")
    if (q - 1) % m != 0:
        raise ValueError(f"m={m} must divide q-1={q - 1}")
    if (v := (q + 1) * m) > MAX_POINTS:
        raise ValueError(f"{v} points exceed the limit of {MAX_POINTS}")
    if factor_prime_power(q)[0] != 2 and ((q - 1) // m) % 2 != 0:
        # W is symmetric iff dlog(-1) = 0 mod m; in odd characteristic
        # dlog(-1) = (q-1)/2, which is 0 mod m iff (q-1)/m is even
        raise SymmetryObstruction(
            f"no symmetric construction for q={q}, m={m}: "
            f"(q-1)/m = {(q - 1) // m} is odd and the characteristic is odd"
        )


def gh_field(q: int) -> FiniteField:
    """The GH family's parameter rule: GF(q), once (q+1) q^2 <= MAX_POINTS
    and q is an odd prime power, in that order (ValueError otherwise)."""
    if (v := (q + 1) * q * q) > MAX_POINTS:
        raise ValueError(f"{v} points exceed the limit of {MAX_POINTS}")
    return odd_field(q)


def _parameter(provenance: dict, key: str) -> int:
    x = provenance.get(key)
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise InputError(f"provenance {key} must be a positive integer, not {x!r}")
    return x


def provenance_parameters(
    provenance: dict, v: int, nclasses: int
) -> tuple[str, tuple[int, ...]]:
    """The family that a provenance record names and its parameters: (q, m)
    for bgw and (q,) for gh.  A missing or unknown family, a missing or
    non-positive-integer q or m, or parameters whose family has another
    point or class count than v and nclasses raise InputError."""
    fam = provenance.get("family")
    if fam == "bgw":
        q, m = _parameter(provenance, "q"), _parameter(provenance, "m")
        params, size = (q, m), ((q + 1) * m, 2 * m)
    elif fam == "gh":
        q = _parameter(provenance, "q")
        params, size = (q,), ((q + 1) * q * q, 2 * q + 1)
    else:
        raise InputError(f"provenance family must be 'bgw' or 'gh', not {fam!r}")
    if (v, nclasses) != size:
        raise InputError(
            f"provenance {fam} parameters give {size[0]} points and {size[1]} classes, "
            f"but the scheme has {v} points and {nclasses} classes"
        )
    return fam, params


def bgw_matrix(q: int, m: int) -> np.ndarray:
    """Symmetric BGW(q+1, q, q-1) over Z_m with blank diagonal.

    Rows and columns are indexed by the projective line over GF(q): index 0 is
    the point at infinity, index 1 + x is the field element with canonical
    index x.  Entry (x, y) for distinct finite x, y is dlog(x - y) mod m; all
    other nonblank entries are the group identity.

    (q, m) must pass check_bgw, whose error is raised otherwise.
    """
    check_bgw(q, m)
    F = FiniteField(q)
    n = q + 1
    W = np.full((n, n), BLANK, dtype=np.int64)
    W[0, 1:] = 0
    W[1:, 0] = 0
    W[1:, 1:] = (F.log_t % m).astype(np.min_scalar_type(m))[F.add_t][:, F.neg_t]
    np.fill_diagonal(W[1:, 1:], BLANK)
    return W


def _check_differences(M: np.ndarray, sub, g: int, mask: np.ndarray, lam: int) -> None:
    """Raise VerificationError for the first pair of rows x < y, in row-major
    order, whose differences sub(M[x], M[y]), entry by entry in a group of
    order g, over the columns where mask holds in both rows do not take each
    value 0..g-1 exactly lam times; sub takes a row and a stack of rows."""
    rows = M.shape[0]
    for x in range(rows - 1):
        # counts[y - x - 1, d]: the columns j masked in rows x, y with sub(M[x], M[y])[j] = d
        ok = mask[x] & mask[x + 1 :]
        diffs = (sub(M[x], M[x + 1 :]) + g * np.arange(rows - x - 1)[:, None])[ok]
        counts = np.bincount(diffs, minlength=(rows - x - 1) * g).reshape(-1, g)
        bad = (counts != lam).any(axis=1)
        if bad.any():
            y = int(np.argmax(bad))
            raise VerificationError(f"rows {x},{x + 1 + y}: difference counts {counts[y].tolist()}")


def verify_bgw(W: np.ndarray, m: int) -> dict:
    """Check the BGW property; return parameters and structure flags.

    Raises VerificationError when W is not a BGW(v, v-1, v-2) over Z_m with
    exactly one blank per row and column.
    """
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise VerificationError("matrix is not square")
    v = W.shape[0]
    if v < 2 or m < 1:
        raise VerificationError(f"need at least 2 points and m >= 1, not v={v} and m={m}")
    if not np.issubdtype(W.dtype, np.integer) or not (((W >= 0) & (W < m)) | (W == BLANK)).all():
        raise VerificationError("entries must be blank or in 0..m-1")
    if ((W == BLANK).sum(axis=1) != 1).any() or ((W == BLANK).sum(axis=0) != 1).any():
        raise VerificationError("each row and column must have exactly one blank")
    lam = v - 2
    if lam % m != 0:
        raise VerificationError(f"lambda={lam} not divisible by m={m}")
    sub = lambda a, b: np.subtract(a, b, dtype=np.int64) % m  # in int64: no narrow dtype wraps
    if lam:  # at v = 2 no column is nonblank in both rows: nothing to count, whatever m
        _check_differences(W, sub, m, W != BLANK, lam // m)  # the mask drops the blank cells
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
    return FiniteField(q).mul_t


def verify_gh(H: np.ndarray, q: int) -> dict:
    """Check the generalized Hadamard property over the additive group of GF(q)."""
    F = FiniteField(q)
    H = np.asarray(H)
    if H.ndim != 2:
        raise VerificationError("matrix is not 2-D")
    rows, cols = H.shape
    if cols % q != 0:
        raise VerificationError("column count must be a multiple of q")
    if rows < 2 or cols < q:
        raise VerificationError(f"need at least 2 rows and q={q} columns, not {rows} and {cols}")
    lam = cols // q
    if not np.issubdtype(H.dtype, np.integer) or not ((H >= 0) & (H < q)).all():
        raise VerificationError("entries must be field indices 0..q-1")
    sub = lambda a, b: F.add_t[a, F.neg_t[b]]
    _check_differences(H, sub, q, np.ones(H.shape, dtype=bool), lam)
    return {"q": q, "lam": lam, "rows": rows}


def one_factorization(q: int) -> np.ndarray:
    """The one-factorization of K_{q+1} from GF(q), q odd, as a factor matrix
    shaped like W: vertex 0 is infinity and 1 + x the field element x, entry
    (x, y) is the factor a holding the edge {x, y}, and the diagonal is BLANK.
    The factor of a is the edge {infinity, a} and the pairs x + y = 2a."""
    return _one_factorization(odd_field(q))


def _one_factorization(F: FiniteField) -> np.ndarray:
    """one_factorization over the field F of odd order: the Latin square
    (x + y)/2 with each diagonal entry a moved to the edge {infinity, a}."""
    factor = np.pad(_latin_square(F), (1, 0), constant_values=BLANK)
    factor[0, 1:] = factor[1:, 0] = np.diag(factor)[1:]
    np.fill_diagonal(factor, BLANK)
    return factor


def verify_one_factorization(factor: np.ndarray) -> None:
    """Raise VerificationError unless factor is an n x n integer array, n >= 2,
    symmetric, BLANK on its diagonal, with each factor 0..n-2 once in every
    row.  Symmetry makes factor[x, y] the one factor of the edge {x, y}, and
    each vertex then meets each factor in exactly one edge, so each factor
    is a perfect matching and the factors partition the edges of K_n."""
    F = np.asarray(factor)
    if not np.issubdtype(F.dtype, np.integer) or F.ndim != 2 or len(F) != F.shape[1]:
        raise VerificationError("factor matrix must be a square integer array")
    if len(F) < 2:
        raise VerificationError(f"need at least 2 vertices, not n={len(F)}")
    if not np.array_equal(F, F.T):
        raise VerificationError("factor matrix not symmetric")
    if (np.diag(F) != BLANK).any():
        raise VerificationError("factor matrix diagonal must be blank")
    bad = (np.sort(F, axis=1) != np.arange(-1, len(F) - 1)).any(axis=1)  # BLANK, then 0..n-2
    if bad.any():
        raise VerificationError(f"vertex {int(np.argmax(bad))} does not meet each factor once")


def latin_square(q: int) -> np.ndarray:
    """Symmetric idempotent Latin square L[x][y] = (x + y)/2 over GF(q), q odd.

    Its off-diagonal cells are those of one_factorization(q): cell value a
    means the edge {x, y} lies in factor a.
    """
    return _latin_square(odd_field(q))


def _latin_square(F: FiniteField) -> np.ndarray:
    """latin_square over the field F of odd order."""
    return F.mul_t[F.add_t, F.inv(F.add(1, 1))]


def verify_latin(L: np.ndarray) -> dict:
    """Check that L is an n x n integer array, n >= 1, each of whose rows and
    columns permutes 0..n-1; return n and the flags symmetric (L = L^T) and
    idempotent (L[x, x] = x)."""
    L = np.asarray(L)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise VerificationError("matrix is not square")
    if len(L) < 1:
        raise VerificationError(f"need at least 1 row, not n={len(L)}")
    if not np.issubdtype(L.dtype, np.integer):
        raise VerificationError("entries must be integers 0..n-1")
    want = np.arange(len(L))
    bad = (np.sort(L, axis=1) != want).any(axis=1) | (np.sort(L, axis=0).T != want).any(axis=1)
    if bad.any():
        raise VerificationError(f"row/column {int(np.argmax(bad))} is not a permutation")
    sym, idem = np.array_equal(L, L.T), np.array_equal(np.diag(L), want)
    return {"n": len(L), "symmetric": sym, "idempotent": idem}


def sgdd_params(N: np.ndarray, group_size: int) -> dict:
    """Verify that N is the incidence matrix of a symmetric group divisible design.

    Points are grouped into consecutive blocks of group_size.  Checks that
    both N N^T and N^T N equal k I + lam1 (same-group off-diagonal) +
    lam2 (cross-group) for constants k, lam1, lam2, and returns the
    parameters.  When lam1 = lam2 the design is a symmetric 2-design and the
    common value is reported as "lam".
    """
    N = np.asarray(N)
    if N.ndim != 2 or not 0 < len(N) == N.shape[1] or group_size < 1 or len(N) % group_size:
        raise VerificationError("bad shape or group size")
    v = N.shape[0]
    ngroups = v // group_size
    ksum = N.sum(axis=1)
    if (ksum != ksum[0]).any() or (N.sum(axis=0) != ksum[0]).any():
        raise VerificationError("row/column sums not constant")
    k = int(ksum[0])
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
