"""Exact scalar arithmetic: cyclotomic fields, quadratic radicals, finite fields.

Every number appearing in the spectral computations lives in Q(zeta_M)[sqrt(d)]
for a fixed conductor M and a squarefree d >= 1.  The field has the Q-basis
e_0, ..., e_{D-1}: the powers 1, zeta, ..., zeta^{deg-1} (deg = phi(M)), then
sqrt(d) times the same powers when d > 1, so D = deg or 2*deg.  A CycField
holds the integer structure tensor of that basis and its conjugation matrix.
A CycScalar is one integer vector over the basis with one positive
denominator, in lowest terms; its products and conjugates read those two
tables.  Equality of scalars is therefore literal equality of normalized
coefficients; no floating point is involved anywhere.

Scalars print as polynomials in z = zeta_M with an optional radical part,
e.g. "1/2 + 3*z^2 + r*(1 - z)", where r = sqrt(d) for the squarefree part d of
the radicand (scalar_to_str, which is also the repr of a CycScalar).
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache, cached_property
from math import gcd

import numpy as np


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


@cache
def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Coefficients of the M-th cyclotomic polynomial, ascending degree."""
    if M == 1:
        return (-1, 1)
    num = [0] * (M + 1)
    num[0], num[M] = -1, 1
    for d in range(1, M):
        if M % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
            if rem != [0]:
                raise AssertionError("cyclotomic division must be exact")
    return tuple(num)


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
        self.dim = self.deg if self.d == 1 else 2 * self.deg
        # zeta^e for e < M over the power basis, by x^deg = -(poly without its
        # leading term); the coefficients are integers since poly is monic
        top = [-c for c in poly[:-1]]
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

    # -- integer tensors over the Q-basis e_0..e_{dim-1} of the field: zeta^0..
    # zeta^{deg-1}, then sqrt(d) times the same powers when d > 1 --

    @cached_property
    def structure(self) -> np.ndarray:
        """mult[r, s, t] with e_r e_s = sum_t mult[r, s, t] e_t."""
        deg, M, D = self.deg, self.M, self.dim
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
        conj = np.zeros((self.dim, self.dim), dtype=np.int64)
        for r in range(deg):
            conj[r, :deg] = self._zeta_pow[-r % self.M]
        if self.dim > deg:
            conj[deg:, deg:] = conj[:deg, :deg]
        return conj

    @cached_property
    def _mult_terms(self) -> list[list[list[tuple[int, int]]]]:
        """The nonzero (t, mult[r, s, t]) of each e_r e_s, as Python integers."""
        return [[_terms(row) for row in plane] for plane in self.structure]

    @cached_property
    def _conj_terms(self) -> list[list[tuple[int, int]]]:
        """The nonzero (t, conj[r, t]) of each conj(e_r), as Python integers."""
        return [_terms(row) for row in self.conjugation]

    # -- scalar constructors --

    def zero(self) -> "CycScalar":
        return CycScalar(self, (0,) * self.dim)

    def one(self) -> "CycScalar":
        return self.rat(1)

    def rat(self, x) -> "CycScalar":
        fr = Fraction(x)
        return CycScalar(self, [fr.numerator] + [0] * (self.dim - 1), fr.denominator)

    def zeta(self, e: int) -> "CycScalar":
        """The root of unity zeta_M ** e."""
        return CycScalar(self, self._zeta_pow[e % self.M] + (0,) * (self.dim - self.deg))

    def sqrt_radicand(self) -> "CycScalar":
        """sqrt(radicand) as a scalar (= k*sqrt(d), rational when d = 1)."""
        if self.d == 1:
            return self.rat(self.k)
        return CycScalar(self, [0] * self.deg + [self.k] + [0] * (self.deg - 1))


def _terms(row: np.ndarray) -> list[tuple[int, int]]:
    return [(t, int(row[t])) for t in np.flatnonzero(row)]


class CycScalar:
    """The element sum_r num[r] e_r / den of Q(zeta_M)[sqrt(d)], over the
    Q-basis e_r of CycField.structure; immutable and exact.

    The constructor takes num of length field.dim only and normalizes to
    den > 0 and gcd(den, *num) = 1, so two scalars of a field are equal
    exactly when their num and den are.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycField, num, den: int = 1):
        if len(num) != field.dim:
            raise ValueError(f"coefficient vector of length {len(num)}, not {field.dim}")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = [-x for x in num], -den
        g = gcd(den, *num)
        if g > 1:
            num, den = [x // g for x in num], den // g
        self.field, self.num, self.den = field, tuple(num), den

    @classmethod
    def _normalized(cls, field: CycField, num: tuple, den: int) -> "CycScalar":
        """The scalar num / den with no checks: the caller guarantees a tuple
        num of length field.dim of Python ints, den > 0 and
        gcd(den, *num) = 1, which the constructor would otherwise ensure."""
        x = object.__new__(cls)
        x.field, x.num, x.den = field, num, den
        return x

    def _check(self, other: "CycScalar") -> None:
        if self.field != other.field:
            raise ValueError("scalars from different fields")

    def __add__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        num = [x * m1 + y * m2 for x, y in zip(self.num, other.num)]
        return CycScalar(self.field, num, self.den * m1)

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        return self + (-other)

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        mult = self.field._mult_terms
        ys = [(s, y) for s, y in enumerate(other.num) if y]
        out = [0] * len(self.num)
        for r, x in enumerate(self.num):
            if x:
                terms = mult[r]
                for s, y in ys:
                    xy = x * y
                    for t, c in terms[s]:
                        out[t] += xy * c
        return CycScalar(self.field, out, self.den * other.den)

    def scale(self, x) -> "CycScalar":
        """Multiply by a rational number."""
        fr = Fraction(x)
        return CycScalar(self.field, [fr.numerator * c for c in self.num], self.den * fr.denominator)

    def conj(self) -> "CycScalar":
        """Complex conjugation: zeta -> zeta^-1, sqrt(d) fixed (d > 0)."""
        conj = self.field._conj_terms
        out = [0] * len(self.num)
        for r, x in enumerate(self.num):
            if x:
                for t, c in conj[r]:
                    out[t] += x * c
        return CycScalar(self.field, out, self.den)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def a_vector(self) -> list[Fraction]:
        """The coefficients of zeta^0..zeta^(deg-1)."""
        return [Fraction(x, self.den) for x in self.num[: self.field.deg]]

    def b_vector(self) -> list[Fraction]:
        """The coefficients of sqrt(d) zeta^0..sqrt(d) zeta^(deg-1); zero when d = 1."""
        deg = self.field.deg
        return [Fraction(x, self.den) for x in self.num[deg:] or (0,) * deg]

    def to_complex(self) -> complex:
        """Numeric image under zeta -> exp(2*pi*i/M), sqrt(d) -> positive root."""
        f = self.field
        basis = [cmath.exp(2j * cmath.pi * t / f.M) for t in range(f.deg)]
        basis += [math.sqrt(f.d) * z for z in basis[: f.dim - f.deg]]
        return sum(c * z for c, z in zip(self.num, basis)) / self.den

    def __repr__(self) -> str:
        return scalar_to_str(self)


# -- scalar text form --


def _frac_str(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _poly_str(coeffs: list[Fraction]) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(_frac_str(c))
            continue
        zpow = "z" if k == 1 else f"z^{k}"
        if c == 1:
            terms.append(zpow)
        elif c == -1:
            terms.append(f"-{zpow}")
        else:
            terms.append(f"{_frac_str(c)}*{zpow}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def scalar_to_str(s: CycScalar) -> str:
    a = _poly_str(s.a_vector())
    b = _poly_str(s.b_vector())
    if b == "0":
        return a
    if a == "0":
        return f"r*({b})"
    return f"{a} + r*({b})"


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
        # digit by digit from the least significant: an index below p^(k+1)
        # is d p^k + r with r < p^k, so its sums are (d + d' mod p) p^k plus
        # the sums of the rest, one outer sum for each digit
        digit_sum = np.add.outer(np.arange(p), np.arange(p)) % p
        self.add_t = np.zeros((1, 1), dtype=np.int64)
        for n in p ** np.arange(e):
            rest = self.add_t[None, :, None, :]
            self.add_t = (digit_sum[:, None, :, None] * n + rest).reshape(p * n, p * n)
        self.neg_t = -D % p @ self._weights
        self.exp_t = self._generator_powers()
        self.generator = int(self.exp_t[1 % (q - 1)])  # exp_t = [1] when q = 2
        self.log_t = np.zeros(q, dtype=np.int64)
        self.log_t[self.exp_t] = np.arange(q - 1)
        # logs sum below 2 (q - 1), so the powers taken twice need no modulo
        logs = self.log_t[:, None] + self.log_t[None, :]
        self.mul_t = np.concatenate([self.exp_t, self.exp_t])[logs]
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
            if k < 0:
                raise ZeroDivisionError("0 has no inverse")
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
