"""The exact integer kernel of the adjacency algebra.

A Batch holds algebra elements as integers num[..., class, basis] over one
common positive denominator.  The basis axis runs over the Q-basis of
Q(zeta_M)[sqrt(d)] of CycField.structure (D = deg entries, or 2*deg with
a radical part); a batch of scalars is a Batch with one class.  A CycScalar
is one such integer vector with a denominator of its own, so pack brings
scalars to their least common denominator, which leaves the batch in lowest
terms, and scalars divides each entry back to lowest terms.  The spectra
pack each block of matrix units on its own, so each is in its own lowest
terms, and join blocks with joined only for a sum across them.
With the intersection tensor p of the scheme and the structure tensor c of
the field, a product of elements is

    (X Y)[k, t] = sum_{i, j, r, s} X[i, r] Y[j, s] p[i, j, k] c[r, s, t],

computed for a whole batch at once by tensor contractions.

Exactness: no partial sum of such a contraction exceeds, in absolute value,
the sum of the absolute values of its terms, which is at most

    max|X| * max|Y| * max_k sum_ij p[i, j, k] * max_t sum_rs |c[r, s, t]|.

Every operation here computes its bound of this kind before it starts and
picks one of two tiers from it alone (exact):

* float64 below 2**53.  The inputs convert exactly, since each entry is at
  most the bound.  Every value a classical GEMM or GEMV computes, in any
  summation order, blocking or with fused multiply-adds, is a partial sum of
  a subset of the integer terms, so it is an integer of magnitude at most the
  bound, and float64 represents it exactly.  numpy's float64 matmul, dot and
  tensordot call the classical BLAS dgemm and dgemv (or numpy's own
  classical loops), not a Strassen-type algorithm, whose intermediate sums
  are not partial sums of the terms.
* object dtype otherwise, whose entries are Python integers of unbounded size.
  The spectra's blocks, each in its own lowest terms, stay below 2**53 on
  every instance the tests certify.

Either way the result is exact.  A float64 result converts back to int64
before it is stored, so Batch.num is always int64 or object.

algebra_mul returns the table of products x[a] y[b] of two batches of
elements.  It contracts each factor with its own tensor, X[a, t, i, s] =
sum_r x[a, i, r] c[r, s, t] and Y[b, k, i, s] = sum_j y[b, j, s] p[i, j, k],
and sums X Y over (i, s) in one GEMM, which reads Y transposed without a
copy.  A partial sum of X is at most max|x| * sum_r |c[r, s, t]|, one of Y
at most max|y| * sum_j p[i, j, k], and both lie under the bound, whose other
factors are at least 1 (the max(..., 1) factors, and p[0, 0, 0] =
c[0, 0, 0] = 1).  Each product X Y is a sum of terms x y p c over (r, j),
so a partial sum of the GEMM is a sum over a subset of the terms.
"""
from __future__ import annotations

from math import gcd, lcm, prod

import numpy as np

from .algebra import CycField, CycScalar

FLOAT_LIMIT = 2**53


def absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def exact(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as float64 when bound < FLOAT_LIMIT, else as object arrays."""
    dt = np.dtype(np.float64 if bound < FLOAT_LIMIT else object)
    return [a if a.dtype == dt else a.astype(dt) for a in arrays]


def _stored(a: np.ndarray) -> np.ndarray:
    """A result as kept: float64 entries are integers below 2**53."""
    return a.astype(np.int64) if a.dtype == np.float64 else a


def _scaled(a: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return a
    (a,) = exact(absmax(a) * k, a)
    return _stored(a * k)


class Batch:
    """Algebra elements num[..., class, basis] / den.

    Indexing acts on the leading axes, as numpy indexing does."""

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int):
        self.num = _stored(num)
        self.den = den

    def __getitem__(self, idx) -> "Batch":
        return Batch(self.num[idx], self.den)

    def equal(self, other: "Batch") -> np.ndarray:
        """Elementwise equality over the broadcast leading axes."""
        g = gcd(self.den, other.den)
        a = _scaled(self.num, other.den // g)
        b = _scaled(other.num, self.den // g)
        return (a == b).all(axis=(-2, -1))


def pack(field: CycField, rows: list[list[CycScalar | None]]) -> Batch:
    """rows[n][k] is class k of element n; None stands for zero.

    The batch is over the lcm of the denominators of the nonzero entries,
    which puts it in lowest terms: the gcd of that lcm and every numerator
    is 1.  A prime p that divides the lcm divides some entry's denominator
    to its full power in the lcm, so that entry is scaled by a factor prime
    to p; its numerators are not all divisible by p, since the entry is in
    lowest terms, and so neither are their scaled values."""
    nonzero = [x for row in rows for x in row if x]
    den = lcm(1, *(x.den for x in nonzero))
    zero = [0] * field.dim
    num = np.array(
        [[[c * (den // x.den) for c in x.num] if x else zero for x in row] for row in rows],
        dtype=object,
    )
    return Batch(*exact(absmax(num), num), den)


def joined(batches: list[Batch]) -> Batch:
    """The batches stacked along their first axis, over their denominators' lcm."""
    den = lcm(*(b.den for b in batches))
    return Batch(np.concatenate([_scaled(b.num, den // b.den) for b in batches]), den)


def scalars(field: CycField, b: Batch) -> list[CycScalar]:
    """The entries of b, flattened in C order, as normalized scalars: each
    entry's integers and the denominator b.den > 0 are divided by their gcd
    for the whole batch at once, on either tier (int64 while b.den fits)."""
    num = b.num.reshape(-1, field.dim)
    if b.den >= 2**63:
        num = num.astype(object)
    g = np.gcd.reduce(num, axis=1, initial=b.den)
    nums, dens = (num // g[:, None]).tolist(), (b.den // g).tolist()
    return [CycScalar._normalized(field, tuple(x), d) for x, d in zip(nums, dens)]


def combine(w: np.ndarray, x: Batch, axis: int = 0) -> Batch:
    """The integer combinations sum_n w[a, n] x[..., n, ...] along a leading
    axis of x; the len(w) combinations take the place of that axis."""
    bound = absmax(x.num) * int(np.abs(w).sum(axis=1).max(initial=0))
    wn, xn = exact(bound, w, x.num)
    lead, n, rest = xn.shape[:axis], xn.shape[axis], xn.shape[axis + 1 :]
    z = wn @ xn.reshape(lead + (n, prod(rest)))  # one GEMM per index of the axes before axis
    return Batch(z.reshape(lead + (len(wn),) + rest), x.den)


def algebra_mul(x: Batch, y: Batch, p: np.ndarray, field: CycField) -> Batch:
    """The table z[a, b] = x[a] y[b] of the products of two batches of
    elements, of shapes (n, nm, D) and (n', nm, D), in the algebra with
    intersection tensor p."""
    mult = field.structure
    n, nm, D = x.num.shape
    bound = (
        max(absmax(x.num), 1)
        * max(absmax(y.num), 1)
        * int(p.sum(axis=(0, 1)).max())
        * int(np.abs(mult).sum(axis=(0, 1)).max())
    )
    xn, yn, pp, c = exact(bound, x.num, y.num, p, mult)
    X = xn[:, None] @ c.transpose(2, 0, 1)  # X[a, t, i, s]
    Y = pp.transpose(2, 0, 1) @ yn[:, None]  # Y[b, k, i, s]
    z = X.reshape(n * D, nm * D) @ Y.reshape(-1, nm * D).T
    del X, Y  # before the int64 copy of z
    return Batch(z.reshape(n, D, len(yn), nm).transpose(0, 2, 3, 1), x.den * y.den)


def adjoint(x: Batch, tpose: list[int], field: CycField) -> Batch:
    """Conjugate transposes: class i goes to tpose[i], scalars conjugated."""
    conj = field.conjugation
    bound = absmax(x.num) * int(np.abs(conj).sum(axis=0).max())
    xn, cj = exact(bound, x.num, conj)
    return Batch(xn[..., tpose, :] @ cj, x.den)
