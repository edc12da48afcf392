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

* Products.  Every generator g is checked the same way, and only on the
  classes of a check set, because what is proven already implies the other
  products:
  - Let S be the span of the words in the generators verified so far, so
    V S is in V (S = span{I} at the first generator).  With A_g' = A_g^T
    and c' the transpose of class c, A_c A_g = (A_g' A_c')^T, and V is
    closed under transpose, so A_c A_g is in V exactly when A_g' A_c' is.
  - So W = {Z in V : A_g' Z in V} holds A_c' for each checked c.  It is a
    right S-module, since A_g' Z Y is in V S, in V, for Y in S; it holds I,
    hence S, and J, since A_g' J = k_g J.
  - The walk closes S and J under the generators of S, as the span closes
    itself (_Span), and then takes each class c of the order whose A_c' is
    not yet reached: c is checked and A_c' closed in.  Once the reached
    vectors have rank d + 1, W = V, so V A_g is in V, with the coefficients
    p[:, g] of row 0.  The generators and the walk run over every class but
    0, thin classes (valency 1) first and then by decreasing valency
    (_checked_classes).
  - At the first generator the check set is the first d - 1 classes of
    the walk, in closed form.  There S = span{I} has no generators, so once
    c_1, ..., c_j are checked the reached vectors span e_0, J and the e_ci',
    the vectors constant on the classes outside 0, c_1', ..., c_j'.  While
    two or more classes are left none of their e_c' is reached, and the
    next is checked; with one class c left, e_c' = J - e_0 - sum_i e_ci' is
    reached, at rank d + 1.
  The checked products are formed several classes at a time, as the digits
  of base-(k_g + 1) numerals in float32.  A thin A_g is a permutation
  matrix, so the product is a column gather; any other is a GEMM of 0/1
  matrices, every partial sum an integer below 2**24, exact in float32 (see
  _right_action; v < 2**24 is checked).
* Span.  Fraction-free Gaussian elimination on Python integers decides
  membership and rank exactly, with no rounding and no modulus.  A class
  already in the span is skipped as a generator.  Taking every class as a
  generator always succeeds (e_0 R_j = e_j), so a scheme is never rejected
  for its choice of G.
* Tensor.  Once V is closed, A_i A_j is constant on each relation, so its
  value at any one pair of relation k is p[i,j,k].  Taking the pairs (0, y_k)
  of row 0 gives the whole tensor as one bincount of the label pairs
  (L[0, z], L[z, y_k]) over z.

Orbit representatives.  from_matrices may be offered automorphisms:
permutations s of the points with L[s[x], s[y]] = L[x, y] for all x, y,
each checked over every cell and used only when it passes.  With P the
permutation matrix of s, that says P^T A_i P = A_i, so P commutes with every
A_i and with every matrix M formed from them by sums and products.  Hence
M[s[x], s[y]] = M[x, y], and row x of M is zero exactly when row s[x] is.
Each identity the verifier tests row by row is of this kind, so it runs on
the rows R of the orbit representatives (the least point of each orbit of
the group that the used s generate):
- the pair (L[x, y], L[y, x]) is the pair at (s[x], s[y]), so the rows R
  hold every transpose pair and every class present;
- row s[x] of L is row x permuted, so it has the counts of row x; with the
  diagonal checked in full, class 0 once in each row of R is A_0 = I;
- the closure checks test rows of A_c A_g - sum_k R_g[c,k] A_k.
The label range and the tensor, which row 0 gives, are read as without
automorphisms; with none used, R is every point.  A row fails only with
its whole orbit, so the first failing row is the least point of its orbit,
in R: scanning R in ascending order, each check stops at the row, and names
the class, that it would over every row.

Storage.  L is a read-only array of dtype label_dtype(nm) for nm classes:
uint8 up to 256 classes and uint16 up to 65536.  The label range is checked
on the input before the cast, so no label wraps around.  Every pass over the
v**2 cells (the pair and row counts, the operands of the closure checks,
the fused labels, and the file codec) runs in the row_blocks of at most
BLOCK cells and at least one row, so its index and count temporaries stay
that small; the only v x v array formed besides L is the float32 A_g of a
GEMM check, and the operand and product of every check, and the gathered
labels of a thin one, have one row for each point of R.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAScheme

# the closure GEMMs run in float32, whose integers are exact below 2**24: the
# partial sums of an entry stay below (k + 1)**d <= 2**24 (see _right_action)
# with k < v, so d >= 1 holds while v < 2**24
_F32_EXACT = 2**24
BLOCK = 1 << 16  # cells of L per numpy step of a v**2-cell pass, at least one row


def label_dtype(nm: int) -> np.dtype:
    """The compact dtype of a label matrix with nm labels."""
    return np.min_scalar_type(nm - 1)


@dataclass(frozen=True, eq=False)
class AssociationScheme:
    """A verified scheme: the read-only label matrix L, the class labels (a
    tuple the scheme owns), the read-only intersection tensor p and the
    automorphisms, a tuple of the read-only point permutations that
    from_matrices checked and used.  It is frozen, so it stays the
    certificate that from_matrices made.

    labels, tpose (l -> l', with A_l' = A_l^T) and the valencies k_l are a
    fresh list on each access; the last two are read off p[:, :, 0].
    (A_a A_l)[0, 0] counts the z with L[0, z] = a and L[z, 0] = l, that is
    L[0, z] = a = l'.  So p[a, l, 0] = [a = l'] k_l: column l has one
    nonzero entry, at l', equal to k_l, its argmax and its sum.
    """

    L: np.ndarray
    _labels: tuple[str, ...]
    p: np.ndarray
    automorphisms: tuple[np.ndarray, ...]

    v = property(lambda self: self.L.shape[0])
    nclasses = property(lambda self: len(self._labels))
    labels = property(lambda self: list(self._labels))

    @property
    def tpose(self) -> list[int]:
        return self.p[:, :, 0].argmax(axis=0).tolist()

    @property
    def valencies(self) -> list[int]:
        return self.p[:, :, 0].sum(axis=0).tolist()

    @classmethod
    def from_matrices(cls, L, labels, automorphisms=()) -> "AssociationScheme":
        """Verify that the relations A_i = (L == i) of the label matrix L form
        a scheme and build it; raises ValueError unless the labels pass
        check_labels and each offered automorphism is a permutation of
        0..v-1, and NotAScheme on failure.  Closure is certified from
        generators, and the row checks run on the orbit representatives of
        the offered permutations that preserve L (see the module docstring)."""
        check_labels(labels)
        L = np.asarray(L)
        square = L.ndim == 2 and L.shape[0] == L.shape[1] and L.size
        if not square or L.dtype.kind not in "iu":
            raise NotAScheme("the label matrix must be a square integer matrix")
        v = L.shape[0]
        if v >= _F32_EXACT:
            raise ValueError("float32 closure products are exact only for v < 2**24")
        perms = [_permutation(s, v) for s in automorphisms]
        nm = len(labels)
        if L.min() < 0 or L.max() >= nm:
            raise NotAScheme(f"labels must lie in 0..{nm - 1}")
        L = L.astype(label_dtype(nm))  # a read-only copy the scheme owns
        L.flags.writeable = False
        perms = tuple(s for s in perms if _preserves(L, s))
        reps = _orbit_representatives(v, perms)
        # the rows R and, for the pair counts, the columns R as rows
        rows, cols = (L, L.T) if len(reps) == v else (L[reps], L[:, reps].T)

        # A_0 = I exactly when the diagonal is 0 and each row holds one 0
        if (np.diagonal(L) != 0).any() or np.count_nonzero(rows == 0) != len(reps):
            raise NotAScheme("A_0 must be the identity")
        # row 0 meets every class, so a scheme has nm <= v: refused before
        # any array of nm or nm**2 counts
        if nm > v:
            raise NotAScheme("some relation is empty")

        # one pass over the rows R counts pairs[i, j], the positions (x, y) with
        # x in R, L[x, y] = i and L[y, x] = j, and counted[x, i], the count of
        # class i in row x.  Columns need no count of their own: with transposes
        # closed, column y holds class i as often as row y holds tpose[i], and if
        # every row holds class i k_i times, counting the positions of class i
        # and its transpose gives v k_i = v k_tpose[i]: rows constant, columns too
        pairs = np.zeros(nm * nm, dtype=np.int64)
        valencies = np.bincount(L[0], minlength=nm)
        uneven = False
        for b in row_blocks(v, len(reps)):
            cells = rows[b].astype(np.intp) * nm + cols[b]
            pairs += np.bincount(cells.reshape(-1), minlength=nm * nm)
            n = len(rows[b])
            cells = rows[b] + nm * np.arange(n)[:, None]
            counted = np.bincount(cells.reshape(-1), minlength=n * nm).reshape(n, nm)
            uneven = uneven or bool((counted != valencies).any())
        pairs = pairs.reshape(nm, nm)
        if (pairs.sum(axis=1) == 0).any():
            raise NotAScheme("some relation is empty")
        # A_i^T = A_j exactly when every transposed position of class i has
        # class j; the map is then an involution
        if ((pairs > 0).sum(axis=1) != 1).any():
            raise NotAScheme("relation set is not closed under transpose")
        tpose = pairs.argmax(axis=1)
        if uneven:
            raise NotAScheme("row/column sums not constant")

        # (A_i A_j)[0, y_k] for the first y_k with L[0, y_k] = k: the tensor,
        # once the closure certificate below holds
        rep = np.unique(L[0], return_index=True)[1]
        pairs0 = L[0].astype(np.intp)[:, None] * nm + L[:, rep] + nm * nm * np.arange(nm)
        tensor = np.bincount(pairs0.reshape(-1), minlength=nm**3)
        tensor = np.ascontiguousarray(tensor.reshape(nm, nm, nm).transpose(1, 2, 0))
        tensor.flags.writeable = False
        # tpose and valencies are those that the scheme reads off p (class docstring)
        _certify_closure(L, labels, tensor, tpose, valencies, rows)
        return cls(L, tuple(labels), tensor, perms)

    # -- structure --

    def is_symmetric(self) -> bool:
        return self.tpose == list(range(self.nclasses))

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.p, self.p.transpose(1, 0, 2)))

    def classify(self) -> str:
        if self.is_symmetric():
            return "symmetric"
        if self.is_commutative():
            return "commutative"
        return "noncommutative"

    def label_index(self, label: str) -> int:
        return self._labels.index(label)

    def fuse(self, partition: list[list[int]]) -> "AssociationScheme":
        """Merge relations along a partition of class indices and re-verify.

        The partition must pass check_partition (ValueError otherwise).  The
        fused family is verified from scratch, so a partition that does not
        yield a scheme raises NotAScheme.  The fused labels cell_of[L] keep
        every automorphism of L, so they are offered again.
        """
        cells = check_partition(partition, self.nclasses)
        cell_of = np.empty(self.nclasses, dtype=self.L.dtype)
        for c, cell in enumerate(cells):
            cell_of[list(cell)] = c
        labels = ["+".join(self._labels[i] for i in cell) for cell in cells]
        return AssociationScheme.from_matrices(
            _gather(cell_of, self.L), labels, self.automorphisms
        )

    def __repr__(self) -> str:
        return (
            f"AssociationScheme(v={self.v}, classes={self.nclasses}, "
            f"{self.classify()})"
        )


def check_labels(labels) -> None:
    """Raise ValueError unless labels is a nonempty list of distinct strings,
    the rule of from_matrices and of the scheme file readers."""
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(x, str) for x in labels)
        or len(set(labels)) != len(labels)
    ):
        raise ValueError("labels must be a nonempty list of distinct strings")


def is_integer(x) -> bool:
    """Whether x is an int or a numpy integer, never a bool or a float: the
    rule for a class index, and for each index of a matrix unit's key."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_partition(partition: list[list[int]], nclasses: int) -> tuple[tuple[int, ...], ...]:
    """Return the cells of the partition, each sorted, as tuples of Python
    ints; raise ValueError unless the partition is a list or tuple of lists
    or tuples that split the classes 0..nclasses-1 into nonempty cells, each
    class in exactly one cell, with {0} a cell.  A class must pass
    is_integer."""
    if not isinstance(partition, (list, tuple)) or not all(
        isinstance(cell, (list, tuple)) for cell in partition
    ):
        raise ValueError("a partition is a list of lists of classes")
    if not all(is_integer(i) for cell in partition for i in cell):
        raise ValueError("partition classes must be integers")
    seen = sorted(i for cell in partition for i in cell)
    if seen != list(range(nclasses)):
        raise ValueError("partition must cover every class exactly once")
    if any(len(cell) == 0 for cell in partition):
        raise ValueError("partition cells must be nonempty")
    for cell in partition:
        if 0 in cell and len(cell) != 1:
            raise ValueError("the identity class must stay alone")
    return tuple(tuple(sorted(map(int, cell))) for cell in partition)


def _certify_closure(L, labels, p, tpose, valencies, rows) -> None:
    """Prove that span{A_i} is closed, given the axioms checked before it and
    p[i, j, k] = (A_i A_j)[0, y_k]; raises NotAScheme otherwise.  The
    products are checked on rows, the rows of L at the orbit representatives
    (module docstring).

    Generators are tried in a fixed order, thin classes first, then the rest
    by decreasing valency; a class already in the generated span is skipped.
    Each generator g taken is proved to satisfy A_i A_g = sum_k p[i,g,k] A_k
    for every i by one _right_action over the check set of _checked_classes,
    and the search stops once the generators span the algebra.
    """
    nm = len(labels)
    order = sorted(range(1, nm), key=lambda i: (valencies[i] > 1, -valencies[i], i))
    span = _Span(nm)
    for g in order:
        if span.rank == nm:
            break
        if g in span:
            continue
        bad = _right_action(L, p[:, g], g, _checked_classes(span, tpose, order), valencies[g], rows)
        if bad is not None:
            raise NotAScheme(f"product A_{labels[bad]} A_{labels[g]} leaves the span")
        span.add(p[:, g])
    span.certify()


def row_blocks(v: int, n: int | None = None) -> list[slice]:
    """The row slices of an n x v matrix (v x v when n is None), at most
    BLOCK cells and at least one row each."""
    n = v if n is None else n
    step = max(1, BLOCK // v)
    return [slice(x0, min(x0 + step, n)) for x0 in range(0, n, step)]


def _take(table, L):
    """table[L] for a block of rows of L, indexed by intp, which numpy
    gathers about twice as fast as by the compact labels."""
    return table[L.astype(np.intp)]


def _gather(table, L):
    """table[L] in the dtype of table, gathered one row block at a time, so
    that no v x v index array is formed."""
    out = np.empty(L.shape, dtype=table.dtype)
    for b in row_blocks(L.shape[1], len(L)):
        out[b] = _take(table, L[b])
    return out


def _checked_classes(span, tpose, order) -> list[int]:
    """The classes c whose products A_c A_g the next generator g must check,
    given the span of the words in the generators verified so far: a subset
    of order, every class but 0, in its order.

    The walk copies the span, closes J in under the span's generators, and
    then checks each class c of order whose transpose's vector e_c' is not
    reached yet, closing e_c' in; it stops at full rank.  Every reached
    vector lies in W = {Z in V : A_g' Z in V}, and with every class but 0 in
    the order the walk reaches rank nm.  At the first generator the walk's
    result is order[:nm - 2], in closed form (module docstring).
    """
    nm = span.nm
    if not span.gens:
        return order[: nm - 2]
    reached = _Span(nm, span.gens, span.rows)
    reached._close([[1] * nm])
    check = []
    for c in order:
        if reached.rank == nm:
            break
        if tpose[c] not in reached:
            check.append(c)
            reached._close([reached._unit(tpose[c])])
    return check


def _right_action(L, R, g, check, k, rows):
    """Check A_c A_g = sum_k R[c, k] A_k on rows, some rows of L, for each
    class c of check, where A_g has valency k; return a failing c or None.
    For a check set of _checked_classes, the products of all other classes
    follow exactly: the transpose of each lies in the right S-module W that
    I, J and the checked A_c' generate, which A_g' maps into V (module
    docstring).

    The products are formed d classes at a time: X = sum_s B**s A_(c_s) with
    B = k + 1, in float32, times A_g has entries sum_s B**s n_s, where
    n_s = (A_(c_s) A_g)[x, y] counts ones of a column of A_g, so n_s <= k < B.
    For k = 1, A_g is a permutation matrix, with its one in column y at row
    src[y], so X A_g is the column gather X[:, src]: the weights of the
    labels rows[:, src].  Otherwise it is a GEMM with the v x v 0/1 matrix
    A_g, each of whose partial sums is a nonnegative integer below
    B**d <= 2**24, exact in float32.  The entries of R are such counts too
    (at row 0), so both sides are base-B numerals, equal only digit by digit.
    """
    B, d = k + 1, 1
    while B ** (d + 1) <= _F32_EXACT:
        d += 1
    v = len(L)
    if k == 1:
        src = np.empty(v, dtype=np.intp)
        for b in row_blocks(v):
            # each row holds g once, at column y: then src[y] is that row
            src[(L[b] == g).argmax(axis=1)] = np.arange(b.start, b.stop)
        cells = rows[:, src]  # X A_g is the weights of these labels
    else:
        cells = rows  # X is the weights of these labels
        Ag = np.empty((v, v), dtype=np.float32)
        for b in row_blocks(v):
            np.equal(L[b], g, out=Ag[b])
    for c in range(0, len(check), d):
        chunk = check[c:c + d]
        weight = np.zeros(len(R), dtype=np.int64)
        weight[chunk] = B ** np.arange(len(chunk))
        prod = _gather(weight.astype(np.float32), cells)  # in place of the last product
        if k > 1:
            prod = prod @ Ag  # X A_g, in place of X
        want = (weight @ R).astype(np.float32)
        for b in row_blocks(v, len(rows)):
            bad = prod[b] != _take(want, rows[b])
            if bad.any():
                x, y = np.argwhere(bad)[0]
                got, expected = int(prod[b][x, y]), int(want[rows[b][x, y]])
                # the first class whose digit differs
                digit = [(got // B**s % B, expected // B**s % B) for s in range(len(chunk))]
                return next(i for i, (a, e) in zip(chunk, digit) if a != e)
    return None


def _permutation(s, v: int) -> np.ndarray:
    """s as a read-only intp array; ValueError unless it is an integer array
    that holds each of 0..v-1 once."""
    s = np.asarray(s)
    if s.shape != (v,) or s.dtype.kind not in "iu" or not np.array_equal(np.sort(s), np.arange(v)):
        raise ValueError(f"an automorphism must be a permutation of 0..{v - 1}")
    s = s.astype(np.intp)
    s.flags.writeable = False
    return s


def _preserves(L, s) -> bool:
    """Whether L[s[x], s[y]] = L[x, y] for all x, y, compared a row block at
    a time up to the first block that differs."""
    return all(np.array_equal(L[s[b]].take(s, axis=1), L[b]) for b in row_blocks(len(L)))


def _orbit_representatives(v: int, perms) -> np.ndarray:
    """The least point of each orbit of the group that the permutations
    perms generate, ascending: every point when perms is empty.  A finite
    group holds the inverse of each generator, so the orbit of x is the set
    that the generators reach from x."""
    if not perms:
        return np.arange(v)
    seen, reps = [False] * v, []
    images = [s.tolist() for s in perms]
    for x in range(v):
        if seen[x]:
            continue
        seen[x], todo = True, [x]
        reps.append(x)
        while todo:
            y = todo.pop()
            for s in images:
                if not seen[z := s[y]]:
                    seen[z] = True
                    todo.append(z)
    return np.array(reps)


def _times(w: list[int], R: list[list[int]]) -> list[int]:
    """The row vector w times the square matrix of the rows R."""
    out = [0] * len(R)
    for x, row in zip(w, R):
        if x:
            out = [z + x * y for z, y in zip(out, row)]
    return out


class _Span:
    """The span over Q of the vectors e_0 R_w, w running over the words in
    the generators added so far: the least subspace that holds e_0 and that
    each generator's R maps into itself.  Its rows are lists of Python
    integers in echelon form (each is zero at the pivots of the rows before
    it), so membership and rank are decided exactly.  A span made with the
    generators and rows of another starts as a copy of it, which it can
    close further."""

    def __init__(self, nm: int, gens=(), rows=()):
        self.nm = nm
        self.gens: list[list[list[int]]] = list(gens)  # the rows of each R
        self.rows: list[tuple[int, list[int]]] = list(rows)  # (pivot, row)
        self._close([self._unit(0)])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _unit(self, i: int) -> list[int]:
        e = [0] * self.nm
        e[i] = 1
        return e

    def _reduce(self, w: list[int]) -> list[int]:
        """w minus its part in the span, up to a nonzero integer factor."""
        for c, r in self.rows:
            if x := w[c]:
                a = r[c]
                w = [a * s - x * t for s, t in zip(w, r)]
        return w

    def __contains__(self, i: int) -> bool:
        """Whether e_i, the vector of A_i, lies in the span."""
        return not any(self._reduce(self._unit(i)))

    def add(self, R) -> None:
        """Add a generator with A_i A_g = sum_k R[i, k] A_k and close the span
        under every generator."""
        self.gens.append(np.asarray(R).tolist())
        self._close([_times(r, self.gens[-1]) for _, r in self.rows])

    def _close(self, todo: list[list[int]]) -> None:
        while todo and self.rank < self.nm:
            w = self._reduce(todo.pop())
            if any(w):
                g = math.gcd(*w)
                w = [x // g for x in w]
                self.rows.append((next(i for i, x in enumerate(w) if x), w))
                todo.extend(_times(w, R) for R in self.gens)

    def certify(self) -> None:
        """Raise NotAScheme unless the generators span all nm classes."""
        if self.rank < self.nm:
            raise NotAScheme(
                f"the generators span rank {self.rank} < {self.nm}, "
                "not the whole algebra"
            )
