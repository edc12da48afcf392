"""GF(q) by per-digit polynomial arithmetic, as a test reference.

This is the field written element by element: digits by repeated division,
sums digit by digit, products as polynomial products reduced by the modulus,
and the generator found by multiplying through the finished table.  The
library's FiniteField builds the same tables as arrays; the tests check that
the modulus, the generator, the discrete logarithms, the digits and the add,
mul and neg tables agree.
"""
from __future__ import annotations

import itertools

from gwschemes.algebra import factor_prime_power


class ReferenceField:
    """GF(q) on the canonical indices, element by element.

    Element i has base-p digits (a_0, ..., a_{e-1}) and represents
    a_0 + a_1 t + ... + a_{e-1} t^{e-1}, t a root of the modulus, the
    lexicographically first monic irreducible polynomial of degree e
    (ascending coefficient tuples, constant term first).  The generator is the
    smallest element of order q - 1.
    """

    def __init__(self, q: int):
        self.q = q
        self.p, self.e = factor_prime_power(q)
        self.modulus = self._find_modulus()
        self.digits = [self._to_digits(i) for i in range(q)]
        self.add_t = [[self._add(i, j) for j in range(q)] for i in range(q)]
        self.mul_t = [[self._mul(i, j) for j in range(q)] for i in range(q)]
        self.neg_t = [self._from_digits([-x for x in self.digits[i]]) for i in range(q)]
        self.generator = self._find_generator()
        self.dlog: dict[int, int] = {}
        x = 1
        for k in range(q - 1):
            self.dlog[x] = k
            x = self.mul_t[x][self.generator]

    def _to_digits(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def _from_digits(self, digits) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * self.p + (d % self.p)
        return out

    def _find_modulus(self) -> tuple[int, ...]:
        if self.e == 1:
            return (0, 1)
        for tail in itertools.product(range(self.p), repeat=self.e):
            # candidate x^e + c_{e-1} x^{e-1} + ... + c_0, tail = (c_0, ..., c_{e-1})
            cand = list(tail) + [1]
            if self._poly_irreducible(cand):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")

    def _poly_irreducible(self, cand: list[int]) -> bool:
        e = len(cand) - 1
        for dd in range(1, e // 2 + 1):
            for tail in itertools.product(range(self.p), repeat=dd):
                if not any(self._poly_mod(cand, list(tail) + [1])):
                    return False
        return True

    def _poly_mod(self, num: list[int], den: list[int]) -> list[int]:
        """Remainder of num by monic den over F_p."""
        num = [c % self.p for c in num]
        dd = len(den) - 1
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]
            if c:
                for j, y in enumerate(den):
                    num[i - dd + j] = (num[i - dd + j] - c * y) % self.p
        return num[:dd]

    def _add(self, i: int, j: int) -> int:
        a, b = self.digits[i], self.digits[j]
        return self._from_digits([(x + y) % self.p for x, y in zip(a, b)])

    def _mul(self, i: int, j: int) -> int:
        a, b = self.digits[i], self.digits[j]
        conv = [0] * (2 * self.e - 1)
        for s, x in enumerate(a):
            if x:
                for t, y in enumerate(b):
                    conv[s + t] = (conv[s + t] + x * y) % self.p
        # reduce by the monic modulus
        for s in range(len(conv) - 1, self.e - 1, -1):
            c = conv[s]
            if c:
                conv[s] = 0
                for t in range(self.e + 1):
                    conv[s - self.e + t] = (conv[s - self.e + t] - c * self.modulus[t]) % self.p
        return self._from_digits(conv[: self.e])

    def _find_generator(self) -> int:
        for g in range(1, self.q):
            x, order = g, 1
            while x != 1:
                x = self.mul_t[x][g]
                order += 1
            if order == self.q - 1:
                return g
        raise AssertionError("no generator found")
