"""Exact scalar arithmetic in Q(zeta_M)[sqrt(d)] and finite field tables."""
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwschemes import CycField, CycScalar, FiniteField, squarefree_core
from gwschemes.algebra import MAX_ORDER, cyclotomic_polynomial, factor_prime_power
from field_reference import ReferenceField


def _is_prime_power(q: int) -> bool:
    try:
        factor_prime_power(q)
    except ValueError:
        return False
    return True


REFERENCE_ORDERS = [q for q in range(2, 129) if _is_prime_power(q)] + [256, 289]


class TestCyclotomic:
    def test_small_polynomials(self):
        # coefficients ascending
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        from math import gcd

        for M in range(1, 30):
            phi = sum(1 for k in range(1, M + 1) if gcd(k, M) == 1)
            assert len(cyclotomic_polynomial(M)) - 1 == phi

    def test_squarefree_core(self):
        assert squarefree_core(1) == (1, 1)
        assert squarefree_core(7) == (1, 7)
        assert squarefree_core(8) == (2, 2)
        assert squarefree_core(9) == (3, 1)
        assert squarefree_core(12) == (2, 3)
        assert squarefree_core(49) == (7, 1)


class TestCycField:
    def test_zeta_relations(self):
        for M in (2, 3, 4, 5, 6, 7, 12):
            f = CycField(M)
            one = f.one()
            assert f.zeta(M) == one
            assert f.zeta(1) * f.zeta(M - 1) == one
            total = f.zero()
            for k in range(M):
                total = total + f.zeta(k)
            assert total == f.zero()

    def test_radical_square_and_inverse(self):
        f = CycField(3, 7)
        r = f.sqrt_radicand()
        assert r * r == f.rat(7)
        assert r * r.scale(Fraction(1, 7)) == f.one()  # 1/sqrt(7) = sqrt(7)/7
        assert (f.one() + r) * (f.one() - r) == f.rat(-6)

    def test_radical_with_square_factor(self):
        f = CycField(7, 8)  # sqrt(8) = 2 sqrt(2)
        r = f.sqrt_radicand()
        assert r * r == f.rat(8)
        assert f.d == 2 and f.k == 2
        f9 = CycField(5, 9)  # sqrt(9) = 3 is rational
        assert f9.sqrt_radicand() == f9.rat(3)

    def test_guard_rejects_contained_radicals(self):
        # sqrt(5) lies in Q(zeta_5), sqrt(3) in Q(zeta_12), sqrt(2) in Q(zeta_8)
        with pytest.raises(ValueError):
            CycField(5, 5)
        with pytest.raises(ValueError):
            CycField(12, 3)
        with pytest.raises(ValueError):
            CycField(8, 2)
        CycField(3, 7)
        CycField(2, 5)

    def test_conjugation(self):
        f = CycField(7, 2)
        z = f.zeta(3)
        assert z.conj() == f.zeta(-3)
        assert z * z.conj() == f.one()
        r = f.sqrt_radicand()
        assert r.conj() == r
        x = z + r
        assert (x * x).conj() == x.conj() * x.conj()

    def test_to_complex(self):
        import cmath
        import math

        f = CycField(3, 7)
        x = f.zeta(1) + f.sqrt_radicand().scale(Fraction(1, 2))
        want = cmath.exp(2j * cmath.pi / 3) + math.sqrt(7) / 2
        assert abs(x.to_complex() - want) < 1e-12

    @pytest.mark.parametrize("M,radicand", [(3, 8), (2, 125)])
    def test_to_complex_with_square_factor(self, M, radicand):
        # sqrt(8) = 2 sqrt(2) and sqrt(125) = 5 sqrt(5): the radical basis
        # element maps to sqrt(d), not to sqrt(radicand)
        import cmath
        import math

        f = CycField(M, radicand)
        r = f.sqrt_radicand()
        assert abs(r.to_complex() - math.sqrt(radicand)) < 1e-12
        e_deg = CycScalar(f, [0] * f.deg + [1] + [0] * (f.deg - 1))
        assert abs(e_deg.to_complex() - math.sqrt(f.d)) < 1e-12
        x = f.zeta(1) + r.scale(Fraction(1, 3))
        want = cmath.exp(2j * cmath.pi / M) + math.sqrt(radicand) / 3
        assert abs(x.to_complex() - want) < 1e-12
        assert abs((x * x).to_complex() - want**2) < 1e-9

    def test_coefficient_vector_round_trip(self):
        f = CycField(5, 6)
        x = CycScalar(f, [6, 3, 0, -12, 0, 4, 0, 0], 6)
        assert x.a_vector() == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(0),
            Fraction(-2),
        ]
        assert x.b_vector() == [
            Fraction(0),
            Fraction(2, 3),
            Fraction(0),
            Fraction(0),
        ]


INPUT_ERRORS = {
    "prime-power-1": (lambda: factor_prime_power(1), ValueError, "1 is not a prime power"),
    "squarefree-core-0": (lambda: squarefree_core(0), ValueError, "need n >= 1"),
    "conductor-0": (lambda: CycField(0), ValueError, "conductor must be >= 1"),
    "short-coefficients": (
        lambda: CycScalar(CycField(5), [1]),
        ValueError,
        "coefficient vector of length 1, not 4",
    ),
    "long-coefficients": (
        lambda: CycScalar(CycField(3), [1, 0, 0]),
        ValueError,
        "coefficient vector of length 3, not 2",
    ),
    "zero-denominator": (
        lambda: CycScalar(CycField(3), [1, 0], 0),
        ZeroDivisionError,
        "zero denominator",
    ),
    "mixed-fields-add": (
        lambda: CycField(3).one() + CycField(5).one(),
        ValueError,
        "scalars from different fields",
    ),
    "mixed-fields-mul": (
        lambda: CycField(5, 2).one() * CycField(5).one(),
        ValueError,
        "scalars from different fields",
    ),
    "field-inv-0": (lambda: FiniteField(5).inv(0), ZeroDivisionError, "0 has no inverse"),
    "field-dlog-0": (lambda: FiniteField(5).dlog(0), ValueError, "dlog of 0"),
}


@pytest.mark.parametrize("name", INPUT_ERRORS)
def test_input_errors(name):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


def _scalar(f, avec, bvec):
    """sum_r avec[r] zeta^r / 3 + sum_r bvec[r] sqrt(d) zeta^r / 2."""
    return CycScalar(f, [2 * n for n in avec] + [3 * n for n in bvec], 6)


small_int = st.integers(min_value=-6, max_value=6)


class TestCycScalarLaws:
    field = CycField(5, 7)  # degree 4, with a radical part

    @given(
        st.lists(small_int, min_size=4, max_size=4),
        st.lists(small_int, min_size=4, max_size=4),
        st.lists(small_int, min_size=4, max_size=4),
        st.lists(small_int, min_size=4, max_size=4),
    )
    def test_ring_laws(self, a1, b1, a2, b2):
        f = self.field
        x = _scalar(f, a1, b1)
        y = _scalar(f, a2, b2)
        z = f.zeta(2) + f.sqrt_radicand().scale(Fraction(-1, 4))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    def test_negative_denominator_is_normalized(self):
        # the sign moves to the numerator, then the common factor 2 cancels
        x = CycScalar(self.field, [2, -4, 0, 6, 0, 0, 0, 2], -4)
        assert (x.num, x.den) == ((-1, 2, 0, -3, 0, 0, 0, -1), 2)
        assert x == CycScalar(self.field, [-1, 2, 0, -3, 0, 0, 0, -1], 2)

    def test_equality_with_a_non_scalar_is_left_to_the_other_side(self):
        one = self.field.one()
        assert one.__eq__(1) is NotImplemented
        assert one != 1 and one != Fraction(1) and one != "1"

    @given(
        st.lists(small_int, min_size=4, max_size=4),
        st.lists(small_int, min_size=4, max_size=4),
    )
    def test_numeric_embedding_is_multiplicative(self, avec, bvec):
        f = self.field
        x = _scalar(f, avec, bvec)
        y = f.zeta(1) + f.rat(2)
        lhs = (x * y).to_complex()
        rhs = x.to_complex() * y.to_complex()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@st.composite
def full_scalars(draw, f):
    """Scalars with independent small coefficients on every basis element."""
    coeffs = st.lists(small_int, min_size=f.deg, max_size=f.deg)
    return _scalar(f, draw(coeffs), draw(coeffs) if f.d != 1 else [])


@pytest.mark.parametrize(
    "field", [CycField(7, 8), CycField(2)], ids=["Q(z7)[sqrt8]", "Q"]
)
class TestCycScalarLawsByField:
    """TestCycScalarLaws on the widest basis of the test fields (D = 12,
    with sqrt(8) = 2 sqrt(2)) and on the rationals (D = 1)."""

    @given(data=st.data())
    def test_ring_laws(self, field, data):
        f = field
        x, y, w = (data.draw(full_scalars(f)) for _ in range(3))
        z = w + f.zeta(2) + f.sqrt_radicand().scale(Fraction(-1, 4))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    @given(data=st.data())
    def test_numeric_embedding_is_multiplicative(self, field, data):
        f = field
        x, y = data.draw(full_scalars(f)), data.draw(full_scalars(f))
        lhs = (x * y).to_complex()
        rhs = x.to_complex() * y.to_complex()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestFiniteField:
    def test_prime_field(self):
        F = FiniteField(13)
        assert F.p == 13 and F.e == 1
        for x in range(1, 13):
            assert F.mul(x, F.inv(x)) == 1
            assert F.power(F.generator, F.dlog(x)) == x

    def test_moduli_are_lowest_lex(self):
        # ascending-coefficient order (c_0, ..., c_{e-1}) below the monic term
        assert FiniteField(4).modulus == (1, 1, 1)
        assert FiniteField(8).modulus == (1, 0, 1, 1)
        assert FiniteField(9).modulus == (1, 0, 1)

    @pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
    def test_field_laws(self, q):
        F = FiniteField(q)
        elems = range(q)
        for x in elems:
            assert F.add(x, 0) == x
            assert F.mul(x, 1) == x
            assert F.add(x, F.neg(x)) == 0
            if x:
                assert F.mul(x, F.inv(x)) == 1
        # spot-check associativity and distributivity on a subgrid
        sub = range(0, q, max(1, q // 5))
        for x in sub:
            for y in sub:
                for z in sub:
                    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
                    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))

    def test_power_edge_cases(self):
        F = FiniteField(9)
        assert F.power(0, 0) == 1
        assert F.power(0, 5) == 0
        assert F.power(0, 8) == 0
        for x in range(1, 9):
            assert F.power(x, 8) == 1
        with pytest.raises(ZeroDivisionError, match="^0 has no inverse$"):
            F.power(0, -1)
        for q in (2, 7, 9, 25):
            G = FiniteField(q)
            assert [G.power(x, -1) for x in range(1, q)] == [G.inv(x) for x in range(1, q)]

    def test_generator_and_dlog(self):
        F = FiniteField(9)
        seen = {F.power(F.generator, k) for k in range(8)}
        assert seen == set(range(1, 9))
        for x in range(1, 9):
            assert F.power(F.generator, F.dlog(x)) == x

    def test_pairing_bilinear_nondegenerate(self):
        F = FiniteField(9)
        p = F.p
        for a in range(9):
            for b in range(9):
                for c in range(9):
                    assert (
                        F.pairing(F.add(a, c), b)
                        == (F.pairing(a, b) + F.pairing(c, b)) % p
                    )
        for a in range(1, 9):
            assert any(F.pairing(a, b) != 0 for b in range(9))

    @pytest.mark.parametrize("q", REFERENCE_ORDERS)
    def test_tables_equal_the_reference(self, q):
        F, R = FiniteField(q), ReferenceField(q)
        assert F.modulus == R.modulus
        assert F.generator == R.generator
        assert [F.dlog(x) for x in range(1, q)] == [R.dlog[x] for x in range(1, q)]
        assert [F.digits(x) for x in range(q)] == R.digits
        for table in (F.digit_t, F.add_t, F.mul_t, F.neg_t):
            assert table.dtype == np.int64
        assert F.add_t.tolist() == R.add_t
        assert F.mul_t.tolist() == R.mul_t
        assert F.neg_t.tolist() == R.neg_t

    def test_order_past_the_limit_is_refused_first(self):
        # 10**18 + 9 would take about 10**9 trial divisions to factor
        for q in (MAX_ORDER + 1, 10**18 + 9):
            with pytest.raises(ValueError, match=f"field order {q} exceeds the limit of {MAX_ORDER}"):
                FiniteField(q)

    def test_digits_round_trip(self):
        F = FiniteField(27)
        for x in range(27):
            d = F.digits(x)
            assert len(d) == 3
            assert sum(c * 3**i for i, c in enumerate(d)) == x
