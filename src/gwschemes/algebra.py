"""Exact scalar arithmetic: cyclotomic fields, quadratic radicals, finite fields.

Every number appearing in the spectral computations lives in Q(zeta_M)[sqrt(d)]
for a fixed conductor M and a squarefree d >= 1.  A scalar is stored as a pair
of coefficient vectors over the power basis 1, zeta, ..., zeta^{deg-1} (deg =
phi(M)), each vector kept as integer numerators with a single positive
denominator and reduced modulo the M-th cyclotomic polynomial.  The power basis
is a Q-basis, so equality of scalars is literal equality of normalized
coefficients; no floating point is involved anywhere.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            r = q
            while r % p == 0:
                r //= p
                e += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
        p += 1
    return q, 1


def squarefree_core(n: int) -> tuple[int, int]:
    """Return (k, d) with n = k*k*d and d squarefree, for n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    k, d = 1, n
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            k *= f
        f += 1
    return k, d


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials where den is monic; exact integer arithmetic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, y in enumerate(den):
                num[i - dd + j] -= c * y
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Coefficients of the M-th cyclotomic polynomial, ascending degree."""
    if M in _CYCLO_CACHE:
        return _CYCLO_CACHE[M]
    if M == 1:
        poly = (-1, 1)
    else:
        num = [0] * (M + 1)
        num[0], num[M] = -1, 1
        for d in range(1, M):
            if M % d == 0:
                num, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
                if rem != [0]:
                    raise AssertionError("cyclotomic division must be exact")
        poly = tuple(num)
    _CYCLO_CACHE[M] = poly
    return poly


def _normalize(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        nums = [-x for x in nums]
        den = -den
    g = den
    for x in nums:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        nums = [x // g for x in nums]
        den //= g
    return tuple(nums), den


class CycField:
    """Arithmetic context for Q(zeta_M)[sqrt(radicand)].

    radicand = 1 means no radical part.  sqrt(radicand) is normalized to
    k*sqrt(d) with d squarefree; the representation requires sqrt(d) to lie
    outside Q(zeta_M), which is checked via the conductor of Q(sqrt(d)).
    """

    def __init__(self, conductor: int, radicand: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self.M = conductor
        self.radicand = radicand
        self.k, self.d = squarefree_core(radicand)
        if self.d != 1:
            quad_conductor = self.d if self.d % 4 == 1 else 4 * self.d
            if self.M % quad_conductor == 0:
                raise ValueError(
                    f"sqrt({self.d}) lies in Q(zeta_{self.M}); "
                    "representation would not be canonical"
                )
        poly = cyclotomic_polynomial(conductor)
        self.deg = len(poly) - 1
        # x^deg = -(poly without leading term); iterate to get x^t for t < 2*deg-1
        # and zeta^e for e < M, all with integer coefficients (poly is monic).
        top = [-c for c in poly[:-1]]
        red = [top]
        for _ in range(self.deg - 2):
            prev = red[-1]
            nxt = [0] + list(prev[:-1])
            if prev[-1]:
                for j in range(self.deg):
                    nxt[j] += prev[-1] * top[j]
            red.append(nxt)
        self._red = [tuple(r) for r in red]
        zp: list[tuple[int, ...]] = []
        cur = [1] + [0] * (self.deg - 1)
        for _ in range(conductor):
            zp.append(tuple(cur))
            nxt = [0] + cur[:-1]
            if cur[-1]:
                for j in range(self.deg):
                    nxt[j] += cur[-1] * top[j]
            cur = nxt
        self._zeta_pow = zp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycField)
            and self.M == other.M
            and self.radicand == other.radicand
        )

    def __hash__(self) -> int:
        return hash((self.M, self.radicand))

    def __repr__(self) -> str:
        if self.radicand == 1:
            return f"CycField(conductor={self.M})"
        return f"CycField(conductor={self.M}, radicand={self.radicand})"

    # -- integer tensors over the Q-basis e_0..e_{D-1} of the field: zeta^0..
    # zeta^{deg-1}, then sqrt(d) times the same powers when d > 1 --

    @cached_property
    def structure(self) -> np.ndarray:
        """mult[r, s, t] with e_r e_s = sum_t mult[r, s, t] e_t."""
        deg, M = self.deg, self.M
        D = deg if self.d == 1 else 2 * deg
        mult = np.zeros((D, D, D), dtype=np.int64)
        for r in range(deg):
            for s in range(deg):
                mult[r, s, :deg] = self._zeta_pow[(r + s) % M]
        if D > deg:
            mult[deg:, :deg, deg:] = mult[:deg, :deg, :deg]
            mult[:deg, deg:, deg:] = mult[:deg, :deg, :deg]
            mult[deg:, deg:, :deg] = self.d * mult[:deg, :deg, :deg]
        return mult

    @cached_property
    def conjugation(self) -> np.ndarray:
        """conj[r, t] with conj(e_r) = sum_t conj[r, t] e_t."""
        deg = self.deg
        conj = np.zeros(self.structure.shape[:2], dtype=np.int64)
        for r in range(deg):
            conj[r, :deg] = self._zeta_pow[-r % self.M]
        if len(conj) > deg:
            conj[deg:, deg:] = conj[:deg, :deg]
        return conj

    # -- component arithmetic (integer numerator vectors + denominator) --

    def _creduce(self, conv: list[int]) -> list[int]:
        out = conv[: self.deg] + [0] * max(0, self.deg - len(conv))
        for t in range(self.deg, len(conv)):
            c = conv[t]
            if c:
                row = self._red[t - self.deg]
                for j in range(self.deg):
                    out[j] += c * row[j]
        return out

    def _cmul(self, n1, d1, n2, d2):
        conv = [0] * (2 * self.deg - 1)
        for i, x in enumerate(n1):
            if x:
                for j, y in enumerate(n2):
                    conv[i + j] += x * y
        return _normalize(self._creduce(conv), d1 * d2)

    def _cadd(self, n1, d1, n2, d2):
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return _normalize(
            [x * m1 + y * m2 for x, y in zip(n1, n2)], d1 * d2 // g
        )

    def _cconj(self, nums, den):
        out = [0] * self.deg
        for j, c in enumerate(nums):
            if c:
                row = self._zeta_pow[(self.M - j) % self.M]
                for t in range(self.deg):
                    out[t] += c * row[t]
        return _normalize(out, den)

    def _cinv(self, nums, den):
        # extended Euclid in Q[x] against the cyclotomic polynomial
        if not any(nums):
            raise ZeroDivisionError("inverse of zero")
        a = [Fraction(c) for c in cyclotomic_polynomial(self.M)]
        b = [Fraction(x, den) for x in nums]
        s_a, s_b = [Fraction(0)], [Fraction(1)]

        def deg(p):
            d = len(p) - 1
            while d > 0 and p[d] == 0:
                d -= 1
            return d

        while True:
            db = deg(b)
            if db == 0 and b[0] == 0:
                raise ZeroDivisionError("not invertible")
            if db == 0:
                inv = 1 / b[0]
                res = [c * inv for c in s_b] + [Fraction(0)] * self.deg
                from math import lcm

                den_out = 1
                for c in res[: self.deg]:
                    den_out = lcm(den_out, c.denominator)
                return _normalize(
                    [int(c * den_out) for c in res[: self.deg]], den_out
                )
            da = deg(a)
            if da < db:
                a, b = b, a
                s_a, s_b = s_b, s_a
                continue
            # kill leading term of a
            coef = a[da] / b[db]
            shift = da - db
            for j in range(db + 1):
                a[shift + j] -= coef * b[j]
            if len(s_a) < shift + len(s_b):
                s_a = s_a + [Fraction(0)] * (shift + len(s_b) - len(s_a))
            for j in range(len(s_b)):
                s_a[shift + j] -= coef * s_b[j]

    # -- scalar constructors --

    def _make(self, an, ad, bn, bd) -> "CycScalar":
        return CycScalar(self, an, ad, bn, bd)

    def zero(self) -> "CycScalar":
        z = (0,) * self.deg
        return self._make(z, 1, z, 1)

    def one(self) -> "CycScalar":
        return self.rat(1)

    def rat(self, x) -> "CycScalar":
        fr = Fraction(x)
        nums = [fr.numerator] + [0] * (self.deg - 1)
        z = (0,) * self.deg
        return self._make(tuple(nums), fr.denominator, z, 1)

    def zeta(self, e: int) -> "CycScalar":
        """The root of unity zeta_M ** e."""
        z = (0,) * self.deg
        return self._make(self._zeta_pow[e % self.M], 1, z, 1)

    def sqrt_radicand(self) -> "CycScalar":
        """sqrt(radicand) as a scalar (= k*sqrt(d), rational when d = 1)."""
        if self.d == 1:
            return self.rat(self.k)
        z = (0,) * self.deg
        b = (self.k,) + (0,) * (self.deg - 1)
        return self._make(z, 1, b, 1)

    def from_vectors(self, a_coeffs, b_coeffs=None) -> "CycScalar":
        """Build a scalar from Fraction coefficient vectors over the power basis."""
        from math import lcm

        def pack(coeffs):
            fr = [Fraction(c) for c in coeffs]
            if len(fr) > self.deg:
                raise ValueError("coefficient vector longer than field degree")
            fr += [Fraction(0)] * (self.deg - len(fr))
            den = 1
            for c in fr:
                den = lcm(den, c.denominator)
            return _normalize([int(c * den) for c in fr], den)

        an, ad = pack(a_coeffs)
        if b_coeffs is None:
            bn, bd = (0,) * self.deg, 1
        else:
            bn, bd = pack(b_coeffs)
        if self.d == 1 and any(bn):
            raise ValueError("field has no radical part")
        return self._make(an, ad, bn, bd)


class CycScalar:
    """Element a + b*sqrt(d) of Q(zeta_M)[sqrt(d)]; immutable, exact."""

    __slots__ = ("field", "an", "ad", "bn", "bd")

    def __init__(self, field: CycField, an, ad, bn, bd):
        self.field = field
        self.an, self.ad = an, ad
        self.bn, self.bd = bn, bd

    def _check(self, other: "CycScalar") -> None:
        if self.field != other.field:
            raise ValueError("scalars from different fields")

    def __add__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        f = self.field
        an, ad = f._cadd(self.an, self.ad, other.an, other.ad)
        bn, bd = f._cadd(self.bn, self.bd, other.bn, other.bd)
        return f._make(an, ad, bn, bd)

    def __neg__(self) -> "CycScalar":
        return self.field._make(
            tuple(-x for x in self.an), self.ad, tuple(-x for x in self.bn), self.bd
        )

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        return self + (-other)

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        f = self.field
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 + d b1 b2 + (a1 b2 + b1 a2) r
        aa = f._cmul(self.an, self.ad, other.an, other.ad)
        if not any(self.bn) and not any(other.bn):
            return f._make(aa[0], aa[1], (0,) * f.deg, 1)
        bb = f._cmul(self.bn, self.bd, other.bn, other.bd)
        an, ad = f._cadd(aa[0], aa[1], tuple(f.d * x for x in bb[0]), bb[1])
        ab = f._cmul(self.an, self.ad, other.bn, other.bd)
        ba = f._cmul(self.bn, self.bd, other.an, other.ad)
        bn, bd = f._cadd(ab[0], ab[1], ba[0], ba[1])
        return f._make(an, ad, bn, bd)

    def scale(self, x) -> "CycScalar":
        """Multiply by a rational number (fast path)."""
        fr = Fraction(x)
        if fr == 0:
            return self.field.zero()
        an, ad = _normalize(
            [fr.numerator * v for v in self.an], self.ad * fr.denominator
        )
        bn, bd = _normalize(
            [fr.numerator * v for v in self.bn], self.bd * fr.denominator
        )
        return self.field._make(an, ad, bn, bd)

    def inv(self) -> "CycScalar":
        f = self.field
        if not any(self.bn):
            if not any(self.an):
                raise ZeroDivisionError("inverse of zero")
            an, ad = f._cinv(self.an, self.ad)
            return f._make(an, ad, (0,) * f.deg, 1)
        # (a + b r)^-1 = (a - b r) / (a^2 - d b^2); the norm is nonzero because
        # sqrt(d) is not in Q(zeta_M) (checked at field construction)
        aa = f._cmul(self.an, self.ad, self.an, self.ad)
        bb = f._cmul(self.bn, self.bd, self.bn, self.bd)
        nn, nd = f._cadd(aa[0], aa[1], tuple(-f.d * x for x in bb[0]), bb[1])
        cn, cd = f._cinv(nn, nd)
        an, ad = f._cmul(self.an, self.ad, cn, cd)
        bn, bd = f._cmul(tuple(-x for x in self.bn), self.bd, cn, cd)
        return f._make(an, ad, bn, bd)

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        return self * other.inv()

    def conj(self) -> "CycScalar":
        """Complex conjugation: zeta -> zeta^-1, sqrt(d) fixed (d > 0)."""
        f = self.field
        an, ad = f._cconj(self.an, self.ad)
        bn, bd = f._cconj(self.bn, self.bd)
        return f._make(an, ad, bn, bd)

    def __bool__(self) -> bool:
        return any(self.an) or any(self.bn)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycScalar):
            return NotImplemented
        return (
            self.field == other.field
            and self.an == other.an
            and self.ad == other.ad
            and self.bn == other.bn
            and self.bd == other.bd
        )

    def __hash__(self) -> int:
        return hash((self.an, self.ad, self.bn, self.bd))

    def is_rational(self) -> bool:
        return not any(self.an[1:]) and not any(self.bn)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.an[0], self.ad)

    def a_vector(self) -> list[Fraction]:
        return [Fraction(x, self.ad) for x in self.an]

    def b_vector(self) -> list[Fraction]:
        return [Fraction(x, self.bd) for x in self.bn]

    def to_complex(self) -> complex:
        """Numeric image under zeta -> exp(2*pi*i/M), sqrt(d) -> positive root."""
        zeta = cmath.exp(2j * cmath.pi / self.field.M)
        a = sum(c * zeta**k for k, c in enumerate(self.an) if c) / self.ad
        b = sum(c * zeta**k for k, c in enumerate(self.bn) if c) / self.bd
        return a + b * math.sqrt(self.field.radicand)

    def __repr__(self) -> str:
        from .serialize import scalar_to_str

        return scalar_to_str(self)


# The largest field order FiniteField builds tables for.  A BGW scheme over
# GF(q) has (q+1)m >= 2(q+1) points and a GH scheme (q+1)q^2, so every q a
# builder admits under designs.MAX_POINTS = 4096 is at most 2047.
MAX_ORDER = 2048


class FiniteField:
    """The field GF(q) as its index tables.

    Elements are the integers 0..q-1; the element with base-p digits
    (a_0, ..., a_{e-1}) (a_{e-1} most significant in the index) represents
    a_0 + a_1 t + ... + a_{e-1} t^{e-1} where t is a root of the modulus.
    The modulus is the lexicographically first monic irreducible polynomial of
    degree e, ordered by ascending coefficient tuple (constant term first).
    The generator is the smallest element of order q - 1.

    The tables are int64 arrays: digit_t (q x e, the digits of each element),
    add_t and mul_t (q x q), neg_t, exp_t (exp_t[k] = generator^k for
    k < q - 1) and log_t (its inverse on the nonzero elements; log_t[0] is
    0 and means nothing).  Orders above MAX_ORDER raise ValueError before any
    table is built.
    """

    def __init__(self, q: int):
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the limit of {MAX_ORDER}")
        self.q = q
        self.p, self.e = p, e = factor_prime_power(q)
        self.modulus = self._find_modulus()
        self._weights = p ** np.arange(e)
        self.digit_t = D = np.arange(q)[:, None] // self._weights % p
        # int16 holds every digit sum and every index, since q <= MAX_ORDER
        S = D.astype(np.int16)[:, None] + D.astype(np.int16)[None, :]
        S %= p
        self.add_t = (S @ self._weights.astype(np.int16)).astype(np.int64)
        self.neg_t = -D % p @ self._weights
        self.exp_t = self._generator_powers()
        self.generator = int(self.exp_t[1 % (q - 1)])  # exp_t = [1] when q = 2
        self.log_t = np.zeros(q, dtype=np.int64)
        self.log_t[self.exp_t] = np.arange(q - 1)
        logs = self.log_t[:, None] + self.log_t[None, :]
        logs %= q - 1
        self.mul_t = self.exp_t[logs]
        self.mul_t[0, :] = self.mul_t[:, 0] = 0

    def _find_modulus(self) -> tuple[int, ...]:
        """The modulus as (c_0, ..., c_{e-1}, 1): every product of monic
        factors of degrees d and e - d, 1 <= d <= e/2, is struck off, and the
        first tail left in the lexicographic order of (c_0, ..., c_{e-1}) wins."""
        p, e = self.p, self.e
        lex = p ** np.arange(e)[::-1]  # the weight of c_k, c_0 the most significant
        reducible = np.zeros(p**e, dtype=bool)
        k = np.arange(e + 1)
        for d in range(1, e // 2 + 1):
            f, g = (np.arange(p**n)[:, None] // p ** np.arange(n + 1) % p for n in (d, e - d))
            f[:, d] = g[:, e - d] = 1  # monic
            # the coefficient of x^k in f g is the sum over s of f_s g_{k-s}
            s = np.arange(d + 1)[:, None]
            shifted = np.where((k >= s) & (k - s <= e - d), g[:, np.clip(k - s, 0, e - d)], 0)
            reducible[np.einsum("is,jsk->ijk", f, shifted)[..., :e] % p @ lex] = True
        return tuple((np.flatnonzero(~reducible)[0] // lex % p).tolist()) + (1,)

    def _generator_powers(self) -> np.ndarray:
        """1, g, ..., g^(q-2) for the smallest g of order q - 1: each candidate
        g is powered by following 1 under the permutation x -> g x."""
        p, e, D = self.p, self.e, self.digit_t
        # row k: the digits of t^k, for the k < 2e - 1 that a product reaches
        red = np.eye(2 * e - 1, e, dtype=np.int64)
        for k in range(e, 2 * e - 1):
            red[k, 1:] = red[k - 1, :-1]
            red[k] = (red[k] - red[k - 1, -1] * np.array(self.modulus[:e])) % p
        rows = np.arange(e)[:, None]
        for g in range(1, self.q):
            # x -> g x on digit rows: the product's coefficients, then reduced
            conv = np.zeros((e, 2 * e - 1), dtype=np.int64)
            conv[rows, rows + np.arange(e)] = D[g]
            times_g = (D @ (conv @ red) % p @ self._weights).tolist()
            powers = [1]
            while len(powers) < self.q - 1 and (x := times_g[powers[-1]]) != 1:
                powers.append(x)
            if len(powers) == self.q - 1 and times_g[powers[-1]] == 1:
                return np.array(powers)
        raise AssertionError("no generator found")

    def add(self, i: int, j: int) -> int:
        return int(self.add_t[i, j])

    def sub(self, i: int, j: int) -> int:
        return int(self.add_t[i, self.neg_t[j]])

    def neg(self, i: int) -> int:
        return int(self.neg_t[i])

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_t[i, j])

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.exp_t[-self.log_t[i] % (self.q - 1)])

    def power(self, i: int, k: int) -> int:
        if i == 0:
            return 0 if k else 1
        return int(self.exp_t[int(self.log_t[i]) * k % (self.q - 1)])

    def dlog(self, i: int) -> int:
        """Discrete log base the canonical generator; i must be nonzero."""
        if i == 0:
            raise ValueError("dlog of 0")
        return int(self.log_t[i])

    def digits(self, i: int) -> tuple[int, ...]:
        return tuple(self.digit_t[i].tolist())

    def pairing(self, i: int, j: int) -> int:
        """Coordinatewise bilinear form <i, j> = sum of digit products mod p."""
        return int(self.digit_t[i] @ self.digit_t[j] % self.p)
