"""The exact integer kernel of the adjacency algebra.

A Batch holds algebra elements as integers num[..., class, basis] over one
common positive denominator.  The basis axis runs over the Q-basis of
Q(zeta_M)[sqrt(d)] of CycField.structure (D = deg entries, or 2*deg with
a radical part); a batch of scalars is a Batch with one class.  A CycScalar
is one such integer vector with a denominator of its own, so pack brings
scalars to a common denominator and scalars divides each entry back to
lowest terms.
With the intersection tensor p of the scheme and the structure tensor c of
the field, a product of elements is

    (X Y)[k, t] = sum_{i, j, r, s} X[i, r] Y[j, s] p[i, j, k] c[r, s, t],

computed for a whole batch at once by tensor contractions.

Exactness: no partial sum of such a contraction exceeds, in absolute value,
the sum of the absolute values of its terms, which is at most

    max|X| * max|Y| * max_k sum_ij p[i, j, k] * max_t sum_rs |c[r, s, t]|.

Every operation here computes its bound of this kind before it starts and
runs in int64 when the bound is below 2**62, and otherwise in object dtype,
whose entries are Python integers of unbounded size.  Either way the result
is exact.
"""
from __future__ import annotations

from math import gcd, lcm

import numpy as np

from .algebra import CycField, CycScalar

LIMIT = 2**62


def absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def exact(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as int64 when bound < LIMIT, else as object arrays."""
    dt = np.dtype(np.int64) if bound < LIMIT else np.dtype(object)
    return [a if a.dtype == dt else a.astype(dt) for a in arrays]


def _scaled(a: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return a
    (a,) = exact(absmax(a) * k, a)
    return a * k


class Batch:
    """Algebra elements num[..., class, basis] / den.

    Indexing acts on the leading axes, as numpy indexing does."""

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int):
        self.num = num
        self.den = den

    def __getitem__(self, idx) -> "Batch":
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Batch(self.num[idx + (Ellipsis, slice(None), slice(None))], self.den)

    def sum(self) -> "Batch":
        """Sum over the first axis."""
        (num,) = exact(absmax(self.num) * len(self.num), self.num)
        return Batch(num.sum(axis=0), self.den)

    def equal(self, other: "Batch") -> np.ndarray:
        """Elementwise equality over the broadcast leading axes."""
        g = gcd(self.den, other.den)
        a = _scaled(self.num, other.den // g)
        b = _scaled(other.num, self.den // g)
        return (a == b).all(axis=(-2, -1))


def pack(field: CycField, rows: list[list[CycScalar | None]]) -> Batch:
    """rows[n][k] is class k of element n; None stands for zero."""
    nonzero = [x for row in rows for x in row if x]
    den = lcm(1, *(x.den for x in nonzero))
    zero = [0] * field.dim
    num = np.array(
        [[[c * (den // x.den) for c in x.num] if x else zero for x in row] for row in rows],
        dtype=object,
    )
    return Batch(*exact(absmax(num), num), den)


def scalars(field: CycField, b: Batch) -> list[CycScalar]:
    """The entries of b, flattened in C order, as normalized scalars."""
    return [CycScalar(field, vec, b.den) for vec in b.num.reshape(-1, field.dim).tolist()]


def combine(w: np.ndarray, x: Batch, axis: int = 0) -> Batch:
    """The integer combinations sum_n w[a, n] x[..., n, ...] along a leading
    axis of x; the len(w) combinations take the place of that axis."""
    bound = absmax(x.num) * int(np.abs(w).sum(axis=1).max(initial=0))
    wn, xn = exact(bound, w, x.num)
    return Batch(np.moveaxis(np.tensordot(wn, xn, axes=([1], [axis])), 0, axis), x.den)


def field_mul(x: Batch, y: Batch, field: CycField) -> Batch:
    """Entrywise field products x[..., k] y[..., k], broadcasting all but the basis axis."""
    mult = field.structure
    D = len(mult)
    bound = absmax(x.num) * absmax(y.num) * int(np.abs(mult).sum(axis=(0, 1)).max())
    xn, yn, c = exact(bound, x.num, y.num, mult)
    outer = xn[..., :, None] * yn[..., None, :]
    z = outer.reshape(*outer.shape[:-2], D * D) @ c.reshape(D * D, D)
    return Batch(z, x.den * y.den)


def algebra_mul(x: Batch, y: Batch, p: np.ndarray, field: CycField) -> Batch:
    """Products x[...] y[...] in the algebra with intersection tensor p,
    broadcasting the leading axes."""
    mult = field.structure
    nm, D = x.num.shape[-2:]
    bound = (
        max(absmax(x.num), 1)
        * max(absmax(y.num), 1)
        * int(p.sum(axis=(0, 1)).max())
        * int(np.abs(mult).sum(axis=(0, 1)).max())
    )
    xn, yn, pp, c = exact(bound, x.num, y.num, p, mult)
    # right multiplication by y: R[..., k, t, i, r] = sum_js y[..., j, s] p[i, j, k] c[r, s, t]
    R = np.tensordot(np.tensordot(yn, pp, axes=([-2], [1])), c, axes=([-3], [1]))
    L = yn.ndim - 2
    R = R.transpose(*range(L), L + 1, L + 3, L, L + 2).reshape(*yn.shape[:-2], nm * D, nm * D)
    z = np.matmul(R, xn.reshape(*xn.shape[:-2], nm * D, 1))
    return Batch(z.reshape(*z.shape[:-2], nm, D), x.den * y.den)


def adjoint(x: Batch, tpose: list[int], field: CycField) -> Batch:
    """Conjugate transposes: class i goes to tpose[i], scalars conjugated."""
    conj = field.conjugation
    bound = absmax(x.num) * int(np.abs(conj).sum(axis=0).max())
    xn, cj = exact(bound, x.num, conj)
    return Batch(xn[..., tpose, :] @ cj, x.den)
