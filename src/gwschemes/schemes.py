"""Association schemes as verified label matrices.

A (possibly noncommutative) association scheme on v points is a v x v label
matrix L with entries 0..d whose relations A_i = (L == i) satisfy A_0 = I,
closure under transpose, and A_i A_j = sum_k p[i,j,k] A_k with integer
intersection numbers (the A_i sum to J by construction).  L is the one stored
representation: construction verifies every axiom exactly and extracts the
full intersection tensor, so an AssociationScheme instance is a certificate
of schemehood; a 0/1 matrix A_i is formed from L where a check needs it.

Closure is certified from a generating set G of classes instead of from all
products.  Write V = span{A_i}.  For each g in G the verifier checks that
every A_i A_g is constant on each relation, which proves V A_g in V with
A_i A_g = sum_k R_g[i,k] A_k for an integer matrix R_g.  Since A_0 = I, a
word A_g1 ... A_gr has coefficient vector e_0 R_g1 ... R_gr.  If these
vectors span Q^(d+1), every A_j is a linear combination of words in G, and
then A_i A_j is a combination of products A_i A_g1 ... A_gr, each in V one
generator at a time: V is closed.

* Products.  Thin classes (valency 1) come first.  A thin generator is a
  permutation matrix, so all its products are one gather of L.  A later
  generator g is checked with float32 GEMMs of 0/1 matrices, several classes
  to a GEMM as the digits of base-(k_g + 1) numerals; every partial sum is an
  integer below 2**24, exact in float32 (see _right_action; v < 2**24 is
  checked).  Only the classes of a check set go into the GEMMs, because what
  is proven already implies the other products:
  - Let S be the span of the words in the generators verified so far, so
    V S is in V, and write S^T for the transposes.  Each Y in S^T maps V
    into V from the left, since Y X = (X^T Y^T)^T and V is closed under
    transpose.
  - So W_g = {X in V : X A_g in V} is a left S^T-module.  It holds S^T,
    since Y A_g = (A_g' Y^T)^T with A_g' = A_g^T; it holds J, since
    J A_g = k_g J; and it holds each A_c checked by a GEMM, hence each
    Y A_c, whose coefficients are the row-0 values sum_a y_a p[a, c, :].
  - Once these vectors reach rank d + 1, V A_g is in V, with the
    coefficients p[:, g] of row 0.  The check set takes the classes by
    decreasing valency, each one whose vector is not yet reached
    (_checked_classes).
* Span.  Fraction-free Gaussian elimination on Python integers decides
  membership and rank exactly, with no rounding and no modulus.  Taking
  every class as a generator always succeeds (e_0 R_j = e_j), so a scheme is
  never rejected for its choice of G.
* Tensor.  Once V is closed, A_i A_j is constant on each relation, so its
  value at any one pair of relation k is p[i,j,k].  Taking the pairs (0, y_k)
  of row 0 gives the whole tensor as one bincount of the label pairs
  (L[0, z], L[z, y_k]) over z.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NotAScheme

# the closure GEMMs run in float32, whose integers are exact below 2**24: the
# partial sums of an entry stay below (k + 1)**d <= 2**24 (see _right_action)
# with k < v, so d >= 1 holds while v < 2**24
_F32_EXACT = 2**24


class AssociationScheme:
    def __init__(self, L, labels, tensor, tpose, valencies):
        self.L = L
        self.labels = labels
        self.p = tensor
        self.tpose = tpose
        self.valencies = valencies
        self.v = L.shape[0]
        self.nclasses = len(labels)

    @classmethod
    def from_matrices(cls, L, labels) -> "AssociationScheme":
        """Verify that the relations A_i = (L == i) of the label matrix L form
        a scheme and build it; raises NotAScheme on failure.  Closure is
        certified from generators (see the module docstring)."""
        L = np.asarray(L)
        square = L.ndim == 2 and L.shape[0] == L.shape[1] and L.size
        if not square or L.dtype.kind not in "iu":
            raise NotAScheme("the label matrix must be a square integer matrix")
        v = L.shape[0]
        if v >= _F32_EXACT:
            raise ValueError("float32 closure products are exact only for v < 2**24")
        nm = len(labels)
        if len(set(labels)) != nm:
            raise ValueError("labels must be distinct")
        L = L.astype(np.int64)  # a read-only copy the scheme owns
        L.flags.writeable = False
        if L.min() < 0 or L.max() >= nm:
            raise NotAScheme(f"labels must lie in 0..{nm - 1}")

        # pairs[i, j]: positions (x, y) with L[x, y] = i and L[y, x] = j
        pairs = np.bincount((L * nm + L.T).reshape(-1), minlength=nm * nm)
        pairs = pairs.reshape(nm, nm)
        counts = pairs.sum(axis=1)
        if (np.diagonal(L) != 0).any() or counts[0] != v:
            raise NotAScheme("A_0 must be the identity")
        if (counts == 0).any():
            raise NotAScheme("some relation is empty")
        # A_i^T = A_j exactly when every transposed position of class i has
        # class j; the map is then an involution
        if ((pairs > 0).sum(axis=1) != 1).any():
            raise NotAScheme("relation set is not closed under transpose")
        tpose = [int(t) for t in pairs.argmax(axis=1)]

        # rows[x, i]: the count of class i in row x.  Columns need no count of
        # their own: with transposition closed, column y holds class i as often
        # as row y holds tpose[i], and when every row holds class i k_i times,
        # counting the positions of class i and of its transpose gives
        # v k_i = v k_tpose[i], so constant rows make constant columns
        offset = nm * np.arange(v)
        rows = np.bincount((L + offset[:, None]).reshape(-1), minlength=v * nm)
        rows = rows.reshape(v, nm)
        if (rows != rows[0]).any():
            raise NotAScheme("row/column sums not constant")
        valencies = [int(k) for k in rows[0]]

        # (A_i A_j)[0, y_k] for the first y_k with L[0, y_k] = k: the tensor,
        # once the closure certificate below holds
        rep = np.unique(L[0], return_index=True)[1]
        pairs0 = L[0][:, None] * nm + L[:, rep] + nm * nm * np.arange(nm)
        tensor = np.bincount(pairs0.reshape(-1), minlength=nm**3)
        tensor = np.ascontiguousarray(tensor.reshape(nm, nm, nm).transpose(1, 2, 0))
        _certify_closure(L, labels, tensor, tpose, valencies)
        return cls(L, list(labels), tensor, tpose, valencies)

    # -- structure --

    def is_symmetric(self) -> bool:
        return all(self.tpose[i] == i for i in range(self.nclasses))

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.p, self.p.transpose(1, 0, 2)))

    def classify(self) -> str:
        if self.is_symmetric():
            return "symmetric"
        if self.is_commutative():
            return "commutative"
        return "noncommutative"

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def fuse(self, partition: list[list[int]]) -> "AssociationScheme":
        """Merge relations along a partition of class indices and re-verify.

        The partition must pass check_partition (ValueError otherwise).  The
        fused family is verified from scratch, so a partition that does not
        yield a scheme raises NotAScheme.
        """
        check_partition(partition, self.nclasses)
        cell_of = np.empty(self.nclasses, dtype=np.int64)
        for c, cell in enumerate(partition):
            cell_of[cell] = c
        labels = ["+".join(self.labels[i] for i in sorted(cell)) for cell in partition]
        return AssociationScheme.from_matrices(cell_of[self.L], labels)

    def __repr__(self) -> str:
        return (
            f"AssociationScheme(v={self.v}, classes={self.nclasses}, "
            f"{self.classify()})"
        )


def check_partition(partition: list[list[int]], nclasses: int) -> None:
    """Raise ValueError unless the partition splits the classes 0..nclasses-1
    into nonempty cells, each class in exactly one cell, with {0} a cell."""
    seen = sorted(i for cell in partition for i in cell)
    if seen != list(range(nclasses)):
        raise ValueError("partition must cover every class exactly once")
    if any(len(cell) == 0 for cell in partition):
        raise ValueError("partition cells must be nonempty")
    for cell in partition:
        if 0 in cell and len(cell) != 1:
            raise ValueError("the identity class must stay alone")


def _certify_closure(L, labels, p, tpose, valencies) -> None:
    """Prove that span{A_i} is closed, given the axioms checked before it and
    p[i, j, k] = (A_i A_j)[0, y_k]; raises NotAScheme otherwise.

    Generators are tried in a fixed order, thin classes first, then the rest
    by decreasing valency; a class already in the generated span is skipped.
    Each generator g taken is proved to satisfy A_i A_g = sum_k p[i,g,k] A_k
    for every i, a thin one by one gather and the others by GEMMs over the
    check set of _checked_classes, and the search stops once the generators
    span the algebra.
    """
    nm = len(labels)
    thin = [i for i in range(1, nm) if valencies[i] == 1]
    rest = [i for i in range(1, nm) if valencies[i] > 1]
    rest.sort(key=lambda i: (-valencies[i], i))
    span = _Span(nm)
    for g in thin + rest:
        if span.rank == nm:
            break
        if g in span:
            continue
        if valencies[g] == 1:
            bad = _thin_right_action(L, p[:, g], g)
        else:
            check = _checked_classes(span, p, tpose, rest)
            bad = _right_action(L, p[:, g], g, check, valencies[g])
        if bad is not None:
            raise NotAScheme(f"product A_{labels[bad]} A_{labels[g]} leaves the span")
        span.add(p[:, g])
    span.certify()


def _thin_right_action(L, R, g):
    """Check A_i A_g = sum_k R[i, k] A_k for all i at once, for a thin g;
    return a failing i or None.  A_g is a permutation matrix, with its one
    in column y at row src[y], so A_i A_g is the 0/1 matrix (L[:, src] == i)."""
    src = (L == g).argmax(axis=0)
    M = L[:, src]
    # column k of R is the unit vector at the class of (0, src[y_k])
    bad = np.argwhere(M != R.argmax(axis=0)[L])
    return int(M[tuple(bad[0])]) if len(bad) else None


def _checked_classes(span, p, tpose, rest) -> list[int]:
    """The classes c whose products A_c A_g the next generator g must check,
    given the span of the words in the generators verified so far: a subset
    of rest, the classes that are not thin, in its order.

    The vectors of W_g known without a product are those of J and of S^T,
    the y with y[tpose] = r for the span's rows r.  Each class of rest whose
    vector is not reached yet is checked, and adds the vectors y p[:, c] of
    S^T A_c; the walk stops at full rank.  Every thin class lies in the span
    by now, so the walk always gets there (module docstring).
    """
    nm = span.nm
    Y = np.array([r[tpose] for _, r in span.rows])  # tpose is an involution
    reached = _Span(nm)  # e_0 lies in S^T; no generators, so a plain span
    reached._close([*Y, np.ones(nm, dtype=object)])
    check = []
    for c in rest:
        if reached.rank == nm:
            break
        if c not in reached:
            check.append(c)
            reached._close(list(Y @ p[:, c].astype(object)))
    return check


def _right_action(L, R, g, check, k):
    """Check A_c A_g = sum_k R[c, k] A_k for each class c of check, where A_g
    has valency k; return a failing c or None.  For a check set of
    _checked_classes, the products of all other classes follow exactly: they
    lie in S^T, J or S^T A_c, each of which A_g maps into V (module docstring).

    The products come from float32 GEMMs, d classes at a time:
    (sum_s B**s A_(c_s)) A_g with B = k + 1 has entries sum_s B**s n_s, where
    n_s = (A_(c_s) A_g)[x, y] counts ones of a column of A_g, so n_s <= k < B.
    Every partial sum is a nonnegative integer below B**d <= 2**24, exact in
    float32.  The entries of R are such counts too (at row 0), so both sides
    are base-B numerals, equal only digit by digit.
    """
    B, d = k + 1, 1
    while B ** (d + 1) <= _F32_EXACT:
        d += 1
    Ag = (L == g).astype(np.float32)
    for c in range(0, len(check), d):
        chunk = check[c:c + d]
        weight = np.zeros(len(R), dtype=np.int64)
        weight[chunk] = B ** np.arange(len(chunk))
        prod = weight.astype(np.float32)[L] @ Ag
        want = (weight @ R).astype(np.float32)[L]
        if not np.array_equal(prod, want):
            x, y = np.argwhere(prod != want)[0]
            got, expected = int(prod[x, y]), int(want[x, y])
            # the first class whose digit differs
            digit = [(got // B**s % B, expected // B**s % B) for s in range(len(chunk))]
            return next(i for i, (a, b) in zip(chunk, digit) if a != b)
    return None


class _Span:
    """The span over Q of the vectors e_0 R_w, w running over the words in
    the generators added so far: the least subspace that holds e_0 and that
    each generator's R maps into itself.  Its rows are Python integers in
    echelon form (each is zero at the pivots of the rows before it), so
    membership and rank are decided exactly.  With no generators, _close
    adds plain vectors to the span."""

    def __init__(self, nm: int):
        self.nm = nm
        self.gens: list[np.ndarray] = []
        self.rows: list[tuple[int, np.ndarray]] = []  # (pivot, row)
        self._close([self._unit(0)])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _unit(self, i: int) -> np.ndarray:
        e = np.zeros(self.nm, dtype=object)
        e[i] = 1
        return e

    def _reduce(self, w: np.ndarray) -> np.ndarray:
        """w minus its part in the span, up to a nonzero integer factor."""
        for c, r in self.rows:
            if w[c]:
                w = r[c] * w - w[c] * r
        return w

    def __contains__(self, i: int) -> bool:
        """Whether e_i, the vector of A_i, lies in the span."""
        return not np.flatnonzero(self._reduce(self._unit(i))).size

    def add(self, R) -> None:
        """Add a generator with A_i A_g = sum_k R[i, k] A_k and close the span
        under every generator."""
        R = np.asarray(R).astype(object)
        self.gens.append(R)
        self._close([r @ R for _, r in self.rows])

    def _close(self, todo: list[np.ndarray]) -> None:
        while todo and self.rank < self.nm:
            w = self._reduce(todo.pop())
            nz = np.flatnonzero(w)
            if nz.size:
                w = w // math.gcd(*w)
                self.rows.append((int(nz[0]), w))
                todo.extend(w @ R for R in self.gens)

    def certify(self) -> None:
        """Raise NotAScheme unless the generators span all nm classes."""
        if self.rank < self.nm:
            raise NotAScheme(
                f"the generators span rank {self.rank} < {self.nm}, "
                "not the whole algebra"
            )
