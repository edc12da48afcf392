"""Closed-form character tables, multiplicities, and fused eigenmatrices.

These are the displayed formulas for the two families, written directly in
terms of roots of unity and the radical sqrt(q).  They are independent of the
matrix-unit computation in the library, which derives the same tables from
products of idempotents, so comparing the two is a genuine cross-check.

Orderings follow the library conventions: simple blocks are listed as the
trivial block, the alternating block, (for the even-order cyclic group the
two radical blocks,) then the two-dimensional blocks in ascending label
order; fused classes follow the fusion partition (type 0 first, type 1
second, the repetition class last for the Hadamard family).
"""
from __future__ import annotations

from fractions import Fraction

from gwschemes import CycField, FiniteField, gh_transversal


# -- weighing-matrix family: 2m classes on (q+1)m points --


def bgw_dims(m: int) -> list[int]:
    out = [1, 1]
    if m % 2 == 0:
        out += [1, 1]
    out += [2] * ((m - 1) // 2)
    return out


def bgw_multiplicities(q: int, m: int) -> list[int]:
    out = [1, q]
    if m % 2 == 0:
        out += [(q + 1) // 2, (q + 1) // 2]
    out += [q + 1] * ((m - 1) // 2)
    return out


def bgw_character_table(q: int, m: int):
    """Rows per block; columns A_(0,0)..A_(m-1,0), A_(0,1)..A_(m-1,1)."""
    field = CycField(m, q)
    rows = [
        [field.one()] * m + [field.rat(q)] * m,
        [field.one()] * m + [field.rat(-1)] * m,
    ]
    if m % 2 == 0:
        sq = field.sqrt_radicand()
        signs = [(-1) ** g for g in range(m)]
        rows.append([field.rat(s) for s in signs] + [sq.scale(s) for s in signs])
        rows.append([field.rat(s) for s in signs] + [sq.scale(-s) for s in signs])
    for a in range(1, (m - 1) // 2 + 1):
        rows.append(
            [field.zeta(a * g) + field.zeta(-a * g) for g in range(m)]
            + [field.zero()] * m
        )
    return rows


def bgw_fusion_cells(m: int):
    """(type, representatives) per fused class, in partition order."""
    cells = []
    for t in (0, 1):
        cells.append((t, (0,)))
        for g in range(1, (m - 1) // 2 + 1):
            cells.append((t, (g, m - g)))
        if m % 2 == 0:
            cells.append((t, (m // 2,)))
    return cells


def bgw_fused_multiplicities(q: int, m: int) -> list[int]:
    out = [1, q]
    if m % 2 == 0:
        out += [(q + 1) // 2, (q + 1) // 2]
    out += [q + 1, q + 1] * ((m - 1) // 2)
    return out


def bgw_fused_q(q: int, m: int):
    """Rows per fused class; columns per fused idempotent.

    Column order: trivial, alternating, (the two radical idempotents,) then
    the +/- pair for each two-dimensional block.
    """
    field = CycField(m, q)
    inv_sqrt = field.sqrt_radicand().scale(Fraction(1, q))  # 1/sqrt(q) = sqrt(q)/q
    rows = []
    for t, reps in bgw_fusion_cells(m):
        g = reps[0]
        row = [field.one(), field.rat(q) if t == 0 else field.rat(-1)]
        if m % 2 == 0:
            s = (-1) ** g
            if t == 0:
                val = field.rat(Fraction(s * (q + 1), 2))
                row += [val, val]
            else:
                val = inv_sqrt.scale(Fraction(s * (q + 1), 2))
                row += [val, -val]
        for a in range(1, (m - 1) // 2 + 1):
            csum = field.zeta(a * g) + field.zeta(-a * g)
            if t == 0:
                base = csum.scale(Fraction(q + 1, 2))
                row += [base, base]
            else:
                base = (csum * inv_sqrt).scale(Fraction(q + 1, 2))
                row += [base, -base]
        rows.append(row)
    return rows


# -- Hadamard family: 2q+1 classes on (q+1)q^2 points --


def gh_dims(q: int) -> list[int]:
    return [1, 1, 1] + [2] * ((q - 1) // 2)


def gh_multiplicities(q: int) -> list[int]:
    return [1, q * q - 1, q] + [q * (q + 1)] * ((q - 1) // 2)


def gh_character_table(q: int):
    """Rows per block; columns A_(0,0)..A_(q-1,0), A_(0,1)..A_(q-1,1), A_2."""
    F = FiniteField(q)
    field = CycField(F.p, 1)
    qs = q * q
    rows = [
        [field.one()] * q + [field.rat(qs)] * q + [field.rat(qs - q)],
        [field.one()] * q + [field.zero()] * q + [field.rat(-q)],
        [field.one()] * q + [field.rat(-q)] * q + [field.rat(qs - q)],
    ]
    for a in gh_transversal(F):
        na = F.neg(a)
        rows.append(
            [
                field.zeta(F.pairing(a, b)) + field.zeta(F.pairing(na, b))
                for b in range(q)
            ]
            + [field.zero()] * q
            + [field.zero()]
        )
    return rows


def gh_fusion_cells(q: int):
    F = FiniteField(q)
    trans = gh_transversal(F)
    cells = []
    for t in (0, 1):
        cells.append((t, (0,)))
        for a in trans:
            cells.append((t, (a, F.neg(a))))
    cells.append((2, None))
    return cells


def gh_fused_multiplicities(q: int) -> list[int]:
    return [1, q * q - 1, q] + [q * (q + 1)] * (q - 1)


def check_bgw_products(s, q: int, m: int) -> None:
    """Assert the full intersection tensor of the weighing-matrix scheme.

    With classes indexed (gamma, t) -> t*m + gamma:
      A_(g1,0) A_(g2,0) = A_(g1+g2,0)
      A_(g1,0) A_(g2,1) = A_(g1+g2,1)       (left shift adds)
      A_(g2,1) A_(g1,0) = A_(g2-g1,1)       (right shift subtracts)
      A_(g1,1) A_(g2,1) = q A_(g1-g2,0) + ((q-1)/m) sum_e A_(e,1)
    """
    import numpy as np

    nm = 2 * m
    assert s.nclasses == nm

    def idx(g: int, t: int) -> int:
        return t * m + g % m

    for g1 in range(m):
        for g2 in range(m):
            want = np.zeros(nm, dtype=np.int64)
            want[idx(g1 + g2, 0)] = 1
            assert np.array_equal(s.p[idx(g1, 0), idx(g2, 0)], want), (g1, g2, 0, 0)
            want = np.zeros(nm, dtype=np.int64)
            want[idx(g1 + g2, 1)] = 1
            assert np.array_equal(s.p[idx(g1, 0), idx(g2, 1)], want), (g1, g2, 0, 1)
            want = np.zeros(nm, dtype=np.int64)
            want[idx(g2 - g1, 1)] = 1
            assert np.array_equal(s.p[idx(g2, 1), idx(g1, 0)], want), (g2, g1, 1, 0)
            want = np.zeros(nm, dtype=np.int64)
            want[idx(g1 - g2, 0)] = q
            want[m:] += (q - 1) // m
            assert np.array_equal(s.p[idx(g1, 1), idx(g2, 1)], want), (g1, g2, 1, 1)


def check_gh_products(s, q: int) -> None:
    """Assert the full intersection tensor of the Hadamard scheme.

    With classes (alpha, t) -> t*q + alpha and the repetition class last:
      A_(a,0) A_(b,0) = A_(a+b,0)
      A_(a,0) A_(b,1) = A_(a+b,1)
      A_(b,1) A_(a,0) = A_(b-a,1)
      A_(a,1) A_(b,1) = q^2 A_(a-b,0) + q A_2 + (q-1) sum_e A_(e,1)
      A_(a,0) A_2 = A_2 A_(a,0) = A_2
      A_(a,1) A_2 = A_2 A_(a,1) = (q-1) sum_e A_(e,1)
      A_2 A_2 = (q^2-q) sum_a A_(a,0) + (q^2-2q) A_2
    """
    import numpy as np

    F = FiniteField(q)
    nm = 2 * q + 1
    assert s.nclasses == nm
    a2 = 2 * q

    def idx(a: int, t: int) -> int:
        return t * q + a

    for a in range(q):
        for b in range(q):
            want = np.zeros(nm, dtype=np.int64)
            want[idx(F.add(a, b), 0)] = 1
            assert np.array_equal(s.p[idx(a, 0), idx(b, 0)], want), (a, b, 0, 0)
            want = np.zeros(nm, dtype=np.int64)
            want[idx(F.add(a, b), 1)] = 1
            assert np.array_equal(s.p[idx(a, 0), idx(b, 1)], want), (a, b, 0, 1)
            want = np.zeros(nm, dtype=np.int64)
            want[idx(F.sub(b, a), 1)] = 1
            assert np.array_equal(s.p[idx(b, 1), idx(a, 0)], want), (b, a, 1, 0)
            want = np.zeros(nm, dtype=np.int64)
            want[idx(F.sub(a, b), 0)] = q * q
            want[a2] = q
            want[q : 2 * q] += q - 1
            assert np.array_equal(s.p[idx(a, 1), idx(b, 1)], want), (a, b, 1, 1)
    for a in range(q):
        want = np.zeros(nm, dtype=np.int64)
        want[a2] = 1
        assert np.array_equal(s.p[idx(a, 0), a2], want), (a, 0, "A2")
        assert np.array_equal(s.p[a2, idx(a, 0)], want), ("A2", a, 0)
        want = np.zeros(nm, dtype=np.int64)
        want[q : 2 * q] = q - 1
        assert np.array_equal(s.p[idx(a, 1), a2], want), (a, 1, "A2")
        assert np.array_equal(s.p[a2, idx(a, 1)], want), ("A2", a, 1)
    want = np.zeros(nm, dtype=np.int64)
    want[:q] = q * q - q
    want[a2] = q * q - 2 * q
    assert np.array_equal(s.p[a2, a2], want), ("A2", "A2")


def gh_fused_q(q: int):
    """Rows per fused class; columns trivial, alternating, radical-free third
    idempotent, then the +/- pair for each two-dimensional block."""
    F = FiniteField(q)
    field = CycField(F.p, 1)
    trans = gh_transversal(F)
    rows = []
    for t, reps in gh_fusion_cells(q):
        if t == 2:
            row = [field.one(), field.rat(-(q + 1)), field.rat(q)]
            row += [field.zero(), field.zero()] * len(trans)
            rows.append(row)
            continue
        b = reps[0]
        row = [
            field.one(),
            field.rat(q * q - 1) if t == 0 else field.zero(),
            field.rat(q) if t == 0 else field.rat(-1),
        ]
        for a in trans:
            csum = field.zeta(F.pairing(a, b)) + field.zeta(F.pairing(F.neg(a), b))
            if t == 0:
                base = csum.scale(Fraction(q * (q + 1), 2))
                row += [base, base]
            else:
                base = csum.scale(Fraction(q + 1, 2))
                row += [base, -base]
        rows.append(row)
    return rows
