"""Exact spectral theory of the two scheme families.

All computations happen in the regular representation of the adjacency
algebra: an element is its coefficient vector over the adjacency basis, and
products go through the verified intersection tensor.  Every computation
reads its elements as integer batches and checks every relation of a kind
at once with the exact kernel (see kernel.py); a matrix unit is given and
returned as a sparse dict class index -> CycScalar, and the tables as lists
of normalized CycScalars.  Because the tensor was extracted from exact
integer matrix products, identities proved here hold for the actual v x v
matrices.

The Wedderburn decomposition is presented as a list of blocks, which the
Eigensystem copies once and keeps as the one block layout of every table;
block k carries d_k x d_k matrix units E_ij (1-based indices) satisfying the
strict relations E_ij E_i'j' = [k = k'][j = i'] E_ij'.  The eigenmatrix P
collects the irreducible representation images phi_k(A_l), the eigenmatrix Q
the coefficients of the units over the adjacency basis, and the two are linked
by the duality m_k P[(k,ij),l] = k_l conj(Q[l,(k,ij)]), a theorem for verified
units and a verified scheme (Eigensystem.check_pq_duality), so not re-checked.

The unit relations inside each block are the only algebra products, one
batch per block; those across blocks follow (Eigensystem.verify).  P is read
off the units by the trace form phi_k(A_l)_ij = tr(E_ji A_l) / m_k, which
needs no check: the verified units are a basis of the algebra, and the trace
form gives the coefficients of A_l over it (Eigensystem.verify and _phi).
The fused P^ is read off the fused-class sums of phi, whose 2 x 2 images must
be symmetric under (i, j) -> (3-i, 3-j) (FusedEigensystem).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernel
from .algebra import CycField, CycScalar, FiniteField
from .designs import check_bgw, gh_field, odd_field, provenance_parameters
from .errors import VerificationError
from .kernel import Batch
from .schemes import AssociationScheme, check_partition, is_integer

Elem = dict  # class index -> CycScalar, zero coefficients never stored


class SchemeAlgebra:
    """The adjacency algebra of a verified scheme over an exact scalar field.

    Elements are Batches of the exact kernel; pack converts a list of Elem
    dicts to one.
    """

    def __init__(self, scheme: AssociationScheme, field: CycField):
        self.scheme = scheme
        self.field = field

    def pack(self, elems: list[Elem]) -> Batch:
        nm = self.scheme.nclasses
        return kernel.pack(self.field, [[e.get(k) for k in range(nm)] for e in elems])

    def rmul(self, r, x: Elem) -> Elem:
        """Multiply by a rational number."""
        fr = Fraction(r)
        return {k: s.scale(fr) for k, s in x.items()} if fr else {}

    def mul(self, x: Batch, y: Batch) -> Batch:
        """The table of products x[a] y[b] of two batches of elements."""
        return kernel.algebra_mul(x, y, self.scheme.p, self.field)


@dataclass
class Block:
    name: str
    dim: int
    units: dict  # (i, j) 1-based -> Elem


def _copy(blk: Block) -> Block:
    """A new Block with new unit and element dicts."""
    return Block(blk.name, blk.dim, {ij: dict(e) for ij, e in blk.units.items()})


def _indicator(partition: list[list[int]], nm: int) -> np.ndarray:
    """The 0/1 matrix [class l lies in cell t]."""
    return np.array([[l in cell for l in range(nm)] for cell in partition], dtype=np.int64)


def _table(field: CycField, X: Batch) -> list[list[CycScalar]]:
    """A batch of scalars of shape (rows, columns) as rows of scalars."""
    flat = kernel.scalars(field, X)
    w = X.num.shape[1]
    return [flat[r : r + w] for r in range(0, len(flat), w)]


def _q(alg: SchemeAlgebra, X: list[Batch], classes: list[int]) -> list[list[CycScalar]]:
    """Q[t][k] = v * (coefficient of classes[t] in element k), with k running
    over the elements of the batches X in turn."""
    w = alg.scheme.v * np.eye(alg.scheme.nclasses, dtype=np.int64)[classes]
    Q = [kernel.combine(w, Batch(x.num[:, :, None, :], x.den), axis=1) for x in X]
    return [list(col) for col in zip(*(row for q in Q for row in _table(alg.field, q)))]


def _pairs(d: int) -> list[tuple[int, int]]:
    """The units (i, j) of a block of dim d, row-major: unit (i, j) is row
    d (i - 1) + j - 1 of the block's batch."""
    return [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]


def _is_unit(key, r: range) -> bool:
    """Whether key is a unit key (i, j) with i and j in r, both integers
    (schemes.is_integer)."""
    return isinstance(key, tuple) and len(key) == 2 and all(is_integer(i) and i in r for i in key)


def _transposed(d: int) -> np.ndarray:
    """The row of unit (j, i) in the place of each unit (i, j) of a block."""
    return np.arange(d * d).reshape(d, d).T.ravel()


class Eigensystem:
    """A verified Wedderburn decomposition of a scheme's adjacency algebra.

    The blocks must be Blocks of distinct names whose units are dicts.  They
    are copied once, on entry, and that copy is checked; then each block is
    packed once into one read-only Batch over the lcm of its own
    denominators, which is its lowest terms (kernel.pack).  The copy and the
    batches are kept as tuples.  Every check and table reads them block by
    block, and blocks returns fresh copies on each access, so no later edit
    of the caller's blocks or of a returned one changes anything the
    eigensystem reports.  No attribute can be set after construction, so the
    eigensystem stays the certificate it was built as.
    """

    def __init__(self, algebra: SchemeAlgebra, blocks: list[Block]):
        blocks = tuple(blocks)
        for n, blk in enumerate(blocks):
            if not isinstance(blk, Block):
                raise VerificationError(f"blocks[{n}] is a {type(blk).__name__}, not a Block")
            if not isinstance(blk.name, str):  # FusedEigensystem appends "+" and "-" to it
                raise VerificationError(f"blocks[{n}] has name {blk.name!r}, not a str")
            if any(b.name == blk.name for b in blocks[:n]):  # row_index would repeat it
                raise VerificationError(f"block {blk.name} is named twice")
            if not isinstance(blk.units, dict):
                what = type(blk.units).__name__
                raise VerificationError(f"block {blk.name} units are a {what}, not a dict")
            for key, e in blk.units.items():
                if not isinstance(e, dict):
                    what = type(e).__name__
                    raise VerificationError(f"block {blk.name} unit {key} is a {what}, not a dict")
        blocks = tuple(map(_copy, blocks))
        classes = range(algebra.scheme.nclasses)
        for blk in blocks:
            if type(blk.dim) is not int or blk.dim < 1:
                raise VerificationError(f"block {blk.name} has dim {blk.dim!r}, not a positive int")
            # the scan for a missing key stops within len(valid) + 1 steps, since the
            # valid keys are distinct: no list of all dim**2 keys is formed
            r = range(1, blk.dim + 1)
            valid = {key for key in blk.units if _is_unit(key, r)}
            missing = next(((i, j) for i in r for j in r if (i, j) not in valid), None)
            extra = sorted((key for key in blk.units if key not in valid), key=str)
            if missing or extra:
                what = f"lacks unit {missing}" if missing else f"has extra unit {extra[0]}"
                raise VerificationError(f"block {blk.name} of dim {blk.dim} {what}")
            # pack reads classes 0..nm-1 only, each over the basis of algebra.field
            for key in _pairs(blk.dim):
                for k, x in blk.units[key].items():
                    is_scalar = isinstance(x, CycScalar) and x.field == algebra.field
                    if is_integer(k) and k in classes and is_scalar:
                        continue
                    at = f"block {blk.name} unit {key} has class {k!r}"
                    if not is_integer(k):
                        raise VerificationError(f"{at}, not an int")
                    if k not in classes:
                        raise VerificationError(f"{at} outside 0..{len(classes) - 1}")
                    of = repr(x.field) if isinstance(x, CycScalar) else f"type {type(x).__name__}"
                    raise VerificationError(f"{at} entry of {of}, not of {algebra.field!r}")
        # each block over the lcm of its denominators, its lowest terms (kernel.pack)
        units = tuple(algebra.pack([blk.units[ij] for ij in _pairs(blk.dim)]) for blk in blocks)
        for Ub in units:
            Ub.num.flags.writeable = False
        vars(self).update(algebra=algebra, _blocks=blocks, _units=units)
        vars(self)["_mult"] = self.verify()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name}: a verified Eigensystem is frozen")

    # -- verification --

    def verify(self) -> list[int]:
        """Check the units; return the block multiplicities.

        Checked, in this order: the count sum_k d_k^2 = nm, the unit relations
        inside each block (sum_k d_k^4 products), sum_k sum_i E^k_ii = A_0,
        the adjoint pairs and m_k >= 1 (below).  Then:

        - m_k = tr E_11 >= 1 makes E_11 != 0, so every E_ii of the block is
          nonzero, since E_11 = E_1i E_ii E_i1.
        - The nm units are independent: E_ii (sum c E) E_jj = c_ij E_ij, and
          E_ij != 0 since E_ij E_ji = E_ii.  So they are a basis.
        - e_a = sum_i E^a_ii is idempotent by its block's relations and
          self-adjoint by the adjoint pairs, kernel.adjoint being the conjugate
          transpose under zeta -> e^(2 pi i / M), sqrt(d) > 0.  Orthogonal
          projections that sum to I are pairwise orthogonal (for x = e_a x,
          |x|^2 = sum_b |e_b x|^2), so E^a_ij E^b_kl = E^a_ij e_a e_b E^b_kl = 0
          for a != b: the relations across blocks hold.

        Each check but the identity sum reads one block's batch at a time;
        that sum is taken over the lcm of the block denominators.  Every
        check runs before the eigensystem exists, so their order does not
        matter for soundness.

        m_k = tr E_11 = v * (coefficient of A_0 in E_11) is the multiplicity
        of block k's irreducible in the standard module, for units that pass
        the unit relations.  Only m_k >= 1 is checked; the rest is a theorem:

        - E_ii is an idempotent v x v matrix, so tr E_ii is its rank, a
          nonnegative integer.  The coefficient of A_0 is then rational, and
          its other coordinates over the field's Q-basis are 0.
        - tr E_ii = tr(E_ij E_ji) = tr(E_ji E_ij) = tr E_jj, so the diagonal
          units of a block have equal rank.
        - The diagonal units sum to I (above), so sum_k d_k m_k = tr I = v.

        m_k = 0 exactly when E_11 = 0, which the unit relations allow (a zero
        block satisfies all of them), so that one check stays.
        """
        alg, blocks, units = self.algebra, self._blocks, self._units
        if sum(blk.dim**2 for blk in blocks) != alg.scheme.nclasses:
            raise VerificationError("sum of squared block dimensions must equal the class count")
        for blk, Ub in zip(blocks, units):
            d = blk.dim
            # E_ij E_kl = [j = k] E_il, with unit (i, j) in row d i + j of Ub (0-based)
            i, j = np.divmod(np.arange(d * d), d)
            W = np.where((j[:, None] == i)[..., None, None], Ub.num[i[:, None] * d + j], 0)
            bad = ~alg.mul(Ub, Ub).equal(Batch(W, Ub.den))
            if bad.any():
                # the first failure in row-major order of the block's unit pairs
                (i, j), (k, l) = (_pairs(d)[n] for n in np.argwhere(bad)[0])
                pair = f"block {blk.name} ({i},{j}) times block {blk.name} ({k},{l})"
                raise VerificationError(f"unit relation failed: {pair}")
        diag = kernel.joined([Ub[:: blk.dim + 1] for blk, Ub in zip(blocks, units)])
        e = kernel.combine(np.ones((1, len(diag.num)), dtype=np.int64), diag).num.ravel()
        if e[0] != diag.den or e[1:].any():
            raise VerificationError("diagonal units do not sum to the identity")
        for blk, Ub in zip(blocks, units):
            bad = ~kernel.adjoint(Ub, alg.scheme.tpose, alg.field).equal(Ub[_transposed(blk.dim)])
            if bad.any():
                i, j = _pairs(blk.dim)[np.flatnonzero(bad)[0]]
                raise VerificationError(f"adjoint failed in block {blk.name} at ({i},{j})")
        mult = [int(Ub.num[0, 0, 0]) * alg.scheme.v // Ub.den for Ub in units]
        for blk, mk in zip(blocks, mult):
            if mk < 1:
                raise VerificationError(f"block {blk.name} has multiplicity 0")
        return mult

    # -- derived data --

    multiplicities = property(lambda self: list(self._mult))
    blocks = property(lambda self: [_copy(blk) for blk in self._blocks])

    def row_index(self) -> list[tuple[str, int, int]]:
        """P-row / Q-column order: blocks in order, (i, j) lexicographic."""
        return [(blk.name, i, j) for blk in self._blocks for i, j in _pairs(blk.dim)]

    @cached_property
    def _phi(self) -> tuple[Batch, ...]:
        """The images as one batch of scalars phi[unit, l] per block, over the
        block's denominator times m_k, computed on first use.

        Read off the verified units by the trace form.  The units are a basis
        of the algebra (verify), so A_l is the sum over the units of
        x[(k,i,j), l] E_ij for unique coefficients x.  The unit relations give
        E_ji A_l = sum_j' x[(k,i,j'), l] E_jj', and tr E_jj' = [j = j'] m_k (for
        j != j', tr(E_jj E_jj') = tr(E_jj' E_jj) = 0), so tr(E_ji A_l) =
        m_k x[(k,i,j), l].  The verified tensor gives tr(A_a A_l) = v p[a, l, 0],
        so x is

            phi[(k,i,j), l] = tr(E_ji A_l) / m_k = (v / m_k) sum_a E_ji[a] p[a, l, 0].

        So A_l = sum phi E_ij, and E_ii A_l E_jj = phi E_ij, are theorems, and
        phi needs no check of its own.
        """
        blocks, w = self._blocks, self.algebra.scheme.v * self.algebra.scheme.p[:, :, 0].T
        X = [kernel.combine(w, U[_transposed(b.dim)], axis=1) for b, U in zip(blocks, self._units)]
        return tuple(Batch(x.num[:, :, None, :], x.den * mk) for x, mk in zip(X, self._mult))

    def phi_matrices(self) -> list[list[list[list[CycScalar]]]]:
        """phis[k][l][i-1][j-1] = (i,j) entry of the image of A_l in block k,
        formatted from the certified batches _phi on each call."""
        L, field = range(self.algebra.scheme.nclasses), self.algebra.field
        tabs = [(range(b.dim), _table(field, phi)) for b, phi in zip(self._blocks, self._phi)]
        return [[[[P[len(d) * i + j][l] for j in d] for i in d] for l in L] for d, P in tabs]

    def eigenmatrix_p(self) -> list[list[CycScalar]]:
        """Rows indexed by row_index(), columns by class: the entries of
        phi_matrices()."""
        L, phis = range(self.algebra.scheme.nclasses), zip(self._blocks, self.phi_matrices())
        return [[phi[l][i - 1][j - 1] for l in L] for b, phi in phis for i, j in _pairs(b.dim)]

    def eigenmatrix_q(self) -> list[list[CycScalar]]:
        """Rows indexed by class, columns by row_index(); Q[l][col] = v * coeff."""
        return _q(self.algebra, self._units, list(range(self.algebra.scheme.nclasses)))

    def character_table(self) -> list[list[CycScalar]]:
        """T[k][l] = trace of the image of A_l in block k (plain trace)."""
        # the diagonal units (i, i) of a block of dim d are its rows 0, d + 1, ...
        diag = [(b.dim, phi[:: b.dim + 1]) for b, phi in zip(self._blocks, self._phi)]
        T = [kernel.combine(np.ones((1, d), dtype=np.int64), X) for d, X in diag]
        return [row for t in T for row in _table(self.algebra.field, t)]

    def check_pq_duality(self) -> bool:
        """Entrywise m_k P[(k,ij),l] = k_l conj(Q[l,(k,ij)]), k_l the valency
        of class l: a theorem for a verified eigensystem of a verified scheme,
        so this returns True.

        Write l' for the transpose of l.  The trace form (_phi) gives
        m_k P[(k,ij), l] = v sum_a E_ji[a] p[a, l, 0], and from_matrices makes
        p[a, l, 0] = [a = l'] k_l (AssociationScheme), so m_k P = v k_l E_ji[l'].
        The verified adjoint pairs give E_ji = E_ij*, and the adjoint of
        sum_a x_a A_a is sum_a conj(x_a) A_a', so E_ji[l'] = conj(E_ij[l]).
        With Q[l, (k,ij)] = v E_ij[l], m_k P = k_l conj(Q).  Neither object
        can be edited after verification, so the premises still hold.
        """
        return True


# -- family eigensystems --


def _unit_former(field: CycField, M: int):
    """unit(*terms) = sum c F over the terms (c, F), each F = sum_k zeta_M^e
    A_k given by its exponents {k: e}, the Fs with disjoint supports.  Each
    distinct product c zeta^e is formed once per former, keyed by the value
    of c (scalars hash and compare by value) and by e."""
    zeta, rows = [field.zeta(e) for e in range(M)], {}

    def unit(*terms: tuple[CycScalar, dict]) -> Elem:
        out = {}
        for c, F in terms:
            row = rows.setdefault(c, [None] * M)
            for k, e in F.items():
                if row[e] is None:
                    row[e] = c * zeta[e]
                out[k] = row[e]
        return out

    return unit


def _pair_block(unit, a: int, na: int, F0: list[dict], F1: list[dict], c11, c12) -> Block:
    """The 2-dimensional block of the characters a and na = -a:
    E_11 = c11 F_(a,0), E_22 = c11 F_(-a,0), E_12 = c12 F_(a,1), E_21 = c12 F_(-a,1)."""
    terms = [(c11, F0[a]), (c11, F0[na]), (c12, F1[a]), (c12, F1[na])]
    units = {ij: unit(t) for ij, t in zip([(1, 1), (2, 2), (1, 2), (2, 1)], terms)}
    return Block(f"a{a}", 2, units)


def _bgw_exponents(m: int, typ: int) -> list[dict]:
    """The exponents {(gamma, typ): alpha gamma mod m} of each F_{alpha,typ}."""
    return [{typ * m + g: a * g % m for g in range(m)} for a in range(m)]


def bgw_eigensystem(scheme: AssociationScheme, q: int, m: int) -> Eigensystem:
    """The eigensystem of bgw_build(q, m), once (q, m) pass check_bgw."""
    check_bgw(q, m)
    field = CycField(m, q)
    unit, F0, F1 = _unit_former(field, m), _bgw_exponents(m, 0), _bgw_exponents(m, 1)
    e = field.rat(Fraction(1, scheme.v))
    inv_sqrt = field.sqrt_radicand().scale(Fraction(1, q))  # (sqrt q)^2 = q
    blocks = [
        Block("0", 1, {(1, 1): unit((e, F0[0]), (e, F1[0]))}),
        Block("1", 1, {(1, 1): unit((e.scale(q), F0[0]), (-e, F1[0]))}),
    ]
    if m % 2 == 0:
        h = m // 2
        c = inv_sqrt.scale(Fraction(1, 2 * m))
        half = field.rat(Fraction(1, 2 * m))
        blocks.append(Block("2", 1, {(1, 1): unit((half, F0[h]), (c, F1[h]))}))
        blocks.append(Block("3", 1, {(1, 1): unit((half, F0[h]), (-c, F1[h]))}))
    c11, c12 = field.rat(Fraction(1, m)), inv_sqrt.scale(Fraction(1, m))
    for a in range(1, (m - 1) // 2 + 1):
        blocks.append(_pair_block(unit, a, m - a, F0, F1, c11, c12))
    return Eigensystem(SchemeAlgebra(scheme, field), blocks)


def _gh_exponents(F: FiniteField, typ: int) -> list[dict]:
    """The exponents {(beta, typ): <alpha, beta>} of each F_{alpha,typ}."""
    pairing = (F.digit_t @ F.digit_t.T % F.p).tolist()
    return [{typ * F.q + b: k for b, k in enumerate(row)} for row in pairing]


def gh_transversal(F: FiniteField) -> list[int]:
    """The transversal of {x, -x} over the nonzero elements of GF(q) that keeps
    the smaller index of each pair."""
    x = np.arange(1, F.q)
    return x[x <= F.neg_t[x]].tolist()


def gh_eigensystem(scheme: AssociationScheme, q: int) -> Eigensystem:
    """The eigensystem of gh_build(q), once q passes gh_field."""
    F = gh_field(q)
    field = CycField(F.p, 1)
    unit, F0, F1 = _unit_former(field, F.p), _gh_exponents(F, 0), _gh_exponents(F, 1)
    a2 = {2 * q: 0}  # A_2 = zeta^0 A_2
    e = field.rat(Fraction(1, scheme.v))
    blocks = [
        Block("0", 1, {(1, 1): unit((e, F0[0]), (e, F1[0]), (e, a2))}),
        Block("1", 1, {(1, 1): unit((e.scale(q * q - 1), F0[0]), (e.scale(-q - 1), a2))}),
        Block("2", 1, {(1, 1): unit((e.scale(q), F0[0]), (-e, F1[0]), (e.scale(q), a2))}),
    ]
    c11, c12 = field.rat(Fraction(1, q)), field.rat(Fraction(1, q * q))
    for a in gh_transversal(F):
        blocks.append(_pair_block(unit, a, F.neg(a), F0, F1, c11, c12))
    return Eigensystem(SchemeAlgebra(scheme, field), blocks)


def eigensystem_for(scheme: AssociationScheme, provenance: dict) -> Eigensystem:
    """The eigensystem of the family that the provenance record names; the
    record must pass provenance_parameters (InputError otherwise), which is
    checked before any field is built."""
    fam, params = provenance_parameters(provenance, scheme.v, scheme.nclasses)
    return (bgw_eigensystem if fam == "bgw" else gh_eigensystem)(scheme, *params)


# -- symmetrizing fusions --


def _negation_orbits(neg: np.ndarray) -> list[list[int]]:
    """The orbits of pi_s: (gamma, t) -> (-gamma, t) on the classes t n + gamma
    of types t = 0, 1, where neg[gamma] = -gamma and n = len(neg); each orbit
    ascending, the orbits ordered by their least class."""
    n = len(neg)
    pairs = [(g, h) for g, h in enumerate(neg.tolist()) if g <= h]
    return [sorted({off + g, off + h}) for off in (0, n) for g, h in pairs]


def bgw_symmetric_fusion(m: int) -> list[list[int]]:
    """The orbits of pi_s under negation in Z_m (_negation_orbits): type 0
    then type 1, each as {0}, the pairs {g, m - g}, then {m/2} when m is even.
    ValueError for m < 2, which bgw_matrix refuses too."""
    if m < 2:
        raise ValueError(f"m={m} must be at least 2")
    return _negation_orbits(-np.arange(m) % m)


def gh_symmetric_fusion(q: int) -> list[list[int]]:
    """The orbits of pi_s under negation in GF(q) (_negation_orbits), then
    the class 2q of its own; q must be odd, as in gh_build."""
    return _negation_orbits(odd_field(q).neg_t) + [[2 * q]]


def _fused_sums(es: Eigensystem, partition: list[list[int]]) -> list[Batch]:
    """S[unit, t] = sum over the classes l of cell t of phi[unit, l]: the
    images of the fused class sums, as one batch of scalars of shape
    (unit, t) per block."""
    cells = _indicator(partition, es.algebra.scheme.nclasses)
    return [kernel.combine(cells, phi, axis=1) for phi in es._phi]


class FusedEigensystem:
    """Primitive idempotents of a symmetrizing fusion, with fused P and Q.

    For a 1-dimensional block the idempotent carries over; a 2-dimensional
    block contributes e+- = (E_11 + E_22 +- (E_12 + E_21)) / 2.  The
    idempotents are integer combinations of the Eigensystem's units, block by
    block, and its certificate already proves what they need:

    - With S = E_11 + E_22 and T = E_12 + E_21, the unit relations give
      S^2 = T^2 = S and S T = T S = T.  So e+-^2 = e+-, e+ e- = 0 and
      e+ + e- = S, and the units of the other blocks annihilate both.
    - The diagonal units sum to I (Eigensystem.verify), so the idempotents
      do.
    - E_12 = E_11 E_12 and E_12 E_11 = 0, so tr E_12 = tr(E_12 E_11) = 0,
      and likewise tr E_21 = 0.  So tr e+- = tr E_11 = m_k, the
      multiplicity of the block.

    What depends on the partition is verified here: the eigenvalue equations
    from both sides, and then one count.  The eigenvalue equations need no
    algebra product.  A_l is the sum over the units of phi E_ij, a theorem
    (Eigensystem._phi), so A^_t is the sum over the units of S[unit, t]
    E_ij, where S holds the fused-class sums of phi (_fused_sums).  On a
    2-dimensional block A^_t acts as M_t = [[a, b], [b', d]], and
    e+- = (1/2) sum_ij u_i u_j E_ij with u = (1, +-1).  By the unit
    relations e A^_t = c e exactly when u^T M_t = c u^T, and A^_t e = c e
    exactly when M_t u = c u.  For either sign both hold exactly when
    a + b' = b + d and a + b = b' + d, that is b = b' and a = d: the
    block's S is unchanged when its units are read in reverse,
    (i, j) -> (3-i, 3-j).  Then c = a +- b = (1/2) sum_n twice[n] S[n, t],
    with the weights that build the idempotents; a 1-dimensional block has
    e = E_11 and c = S[(1,1), t], the same sum.  Since the idempotents sum
    to I, the equations give A^_t = sum_e c_t(e) e, so span{A^_t} lies in
    span{e}.  The A^_t of disjoint nonempty cells are independent, and so
    are the idempotents, being nonzero (tr e = m_k >= 1) and orthogonal.
    So there are at most as many cells as idempotents, and as many exactly
    when every idempotent lies in span{A^_t}, that is, is constant on each
    cell; fewer cells than idempotents are refused.  The fused classes then
    span the commutative algebra span{e}, so the partition is a fusion.
    Every table is computed block by block; the idempotents are kept as one
    Batch over the lcm of the block denominators, with read-only
    numerators.  A malformed partition raises ValueError (see
    schemes.check_partition).

    Like the Eigensystem, it is frozen: no attribute can be set after
    construction, names, multiplicities, fused_valencies, partition, qhat
    and phat are fresh lists on each access, and idempotents is a fresh
    Batch over the read-only numerators on each access.

    The fused duality m_k P^[e, t] = k^_t conj(Q^[t, e]), with k^_t the
    fused valency, then holds as a theorem.  e is self-adjoint, since the
    verified adjoint pairs give E_ij* = E_ji, and constant on each cell, with
    value e[t] on cell t.  tr(X A_l) = v X[l'] k_l for X in the algebra
    (Eigensystem.check_pq_duality), so tr(e A^_t) = v sum_l k_l e[l'] =
    v sum_l k_l conj(e[l]) = v k^_t conj(e[t]), the sums over the classes l of
    cell t.  With e A^_t = c e and tr e = m_k, tr(e A^_t) = m_k c, so
    m_k c = v k^_t conj(e[t]) = k^_t conj(Q^[t, e]).
    """

    def __init__(self, es: Eigensystem, partition: list[list[int]]):
        alg = es.algebra
        cells = check_partition(partition, alg.scheme.nclasses)
        if any(blk.dim > 2 for blk in es._blocks):
            raise VerificationError("blocks of dimension > 2 not supported")
        # each block's idempotents by name, with their weights times 2 over the
        # block's units in order (1,1), (1,2), (2,1), (2,2)
        signs = [
            {b.name: [2]} if b.dim == 1
            else {b.name + "+": [1, 1, 1, 1], b.name + "-": [1, -1, -1, 1]}
            for b in es._blocks
        ]
        twice = [np.array(list(sign.values())) for sign in signs]
        E = [Batch(e.num, 2 * e.den) for e in map(kernel.combine, twice, es._units)]
        # P^: the eigenvalues c[idempotent, t] with e A^_t = A^_t e = c e, read
        # off the fused-class sums S[unit, t] (see above)
        phat = []
        for sign, w, S in zip(signs, twice, _fused_sums(es, cells)):
            odd = (~S.equal(S[::-1])).astype(np.int64)  # (unit, t)
            bad = (w != 0).astype(np.int64) @ odd  # (idempotent, t)
            if bad.any():
                k, t = np.argwhere(bad)[0]
                what = f"does not act as a scalar on idempotent {list(sign)[k]}"
                raise VerificationError(f"fused class {t} {what}")
            c = kernel.combine(w, S)
            phat += _table(alg.field, Batch(c.num, 2 * c.den))
        names = tuple(name for sign in signs for name in sign)
        if len(names) != len(cells):  # the count argument above
            raise VerificationError("idempotent coefficients not constant on a fused class")
        # Q^: rows fused classes, columns idempotents, entries v * coefficient
        qhat = tuple(map(tuple, _q(alg, E, [cell[0] for cell in cells])))
        idempotents = kernel.joined(E)
        idempotents.num.flags.writeable = False
        mult = tuple(mk for mk, sign in zip(es._mult, signs) for _ in sign)
        vars(self).update(algebra=alg, _partition=cells, _names=names, _mult=mult, _E=idempotents)
        valencies = tuple((_indicator(cells, alg.scheme.nclasses) @ alg.scheme.valencies).tolist())
        vars(self).update(_valencies=valencies, _qhat=qhat, _phat=tuple(map(tuple, phat)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name}: a verified FusedEigensystem is frozen")

    names = property(lambda self: list(self._names))
    multiplicities = property(lambda self: list(self._mult))
    fused_valencies = property(lambda self: list(self._valencies))
    partition = property(lambda self: [list(cell) for cell in self._partition])
    qhat = property(lambda self: [list(row) for row in self._qhat])
    phat = property(lambda self: [list(row) for row in self._phat])
    idempotents = property(lambda self: Batch(self._E.num, self._E.den))


# -- the fusion criterion --


@dataclass(frozen=True)
class FusionCertificate:
    """Witness that a fusion satisfies the eigenspace criterion.

    cells[k] is a partition of the unit index pairs of block k such that the
    per-fused-class sums of the representation images are constant on each
    cell; the total cell count equals the fused class count; and the linear
    span of the cell sums is closed under multiplication (verified
    combinatorially), which makes the criterion sufficient.  product_form is
    read off the cells: True when each block's cells are the products
    I_a x I_b of one partition {I_a} of its unit indices.  Every field is a
    tuple at every level, so a returned certificate cannot be edited.
    """

    block_names: tuple[str, ...]
    cells: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    product_form: bool
    cell_count: int


def _closure_ok(cells: list[tuple[tuple[int, int], ...]]) -> bool:
    """Check that the span of the cell sums of matrix units is closed under
    multiplication: the structure coefficients #{j : (a,j) in C, (j,b) in C'}
    must be constant on every cell."""
    d = max(i for cell in cells for ij in cell for i in ij)
    M = np.zeros((len(cells), d, d), dtype=np.int64)  # M[c, a-1, b-1] = [(a, b) in c]
    for c, cell in enumerate(cells):
        M[c][tuple(np.array(cell).T - 1)] = 1
    counts = np.einsum("cij,ejk->ceik", M, M)  # the coefficients, for each C, C'
    for mask in M.astype(bool):
        X = counts[:, :, mask]
        if (X != X[..., :1]).any():
            return False
    return True


def _is_product(cells: list[tuple[tuple[int, int], ...]]) -> bool:
    """Whether the sorted cells of one block are the products I_a x I_b of
    one partition {I_a} of its unit indices; the I_a are then read off the
    cells that hold a diagonal pair."""
    parts = [[i for i, j in cell if i == j] for cell in cells]
    parts = [Ia for Ia in parts if Ia]
    products = {tuple((i, j) for i in Ia for j in Ib) for Ia in parts for Ib in parts}
    return products == set(cells)


def bm_search(es: Eigensystem, partition: list[list[int]]):
    """Search for a fusion certificate for the given class partition.

    The unit index pairs of each block are grouped by signature, the
    fused-class sums S[unit, t] of phi (_fused_sums, from which
    FusedEigensystem reads its eigenvalues); the groups are the cells.  A
    certificate needs the span of each block's cell sums closed
    under multiplication and one cell per fused class in total.  Returns a
    FusionCertificate or None; a malformed partition raises ValueError (see
    schemes.check_partition).

    product_form is read off the cells (_is_product).  Whenever a product-form
    certificate exists, it is the one returned here; let target be the number
    of cells of the partition, which check_partition makes disjoint and
    nonempty.

    - Refinement.  Each product cell I_a x I_b has one signature, so in each
      block the product cells refine the signature groups, and there are at
      least as many of them.
    - Count.  The fused sums A^_t of disjoint nonempty cells are linearly
      independent, and the verified units map A to (phi_k(A))_k injectively,
      since A is the sum of phi E_ij over them (Eigensystem._phi).  So the signature rows have rank
      target, and there are at least target signature groups in all.
    - Conclusion.  A product certificate has exactly target cells, so in
      every block it is the signature grouping.  Its cell sums multiply as
      E_ab E_cd = [b = c] |I_b| E_ad, so they pass _closure_ok, and this
      search returns the same cells.
    """
    partition = check_partition(partition, es.algebra.scheme.nclasses)
    all_cells = []
    # one denominator per block, so the numerators of a block's units compare
    for blk, S in zip(es._blocks, _fused_sums(es, partition)):
        groups: dict[tuple, list[tuple[int, int]]] = {}
        # tuples of Python ints, which compare by value on either kernel tier
        for ij, sig in zip(_pairs(blk.dim), S.num.reshape(blk.dim**2, -1).tolist()):
            groups.setdefault(tuple(sig), []).append(ij)
        cells = [tuple(sorted(g)) for g in groups.values()]
        if not _closure_ok(cells):
            return None
        all_cells.append(tuple(sorted(cells)))
    count = sum(map(len, all_cells))
    if count != len(partition):
        return None
    return FusionCertificate(
        block_names=tuple(blk.name for blk in es._blocks),
        cells=tuple(all_cells),
        product_form=all(_is_product(cells) for cells in all_cells),
        cell_count=count,
    )
