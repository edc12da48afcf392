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

The Wedderburn decomposition is presented as a list of blocks; block k
carries d_k x d_k matrix units E_ij (1-based indices) satisfying the strict
relations E_ij E_i'j' = [k = k'][j = i'] E_ij'.  The eigenmatrix P collects
the irreducible representation images phi_k(A_l), the eigenmatrix Q the
coefficients of the units over the adjacency basis, and the two are linked by
the duality m_k P[(k,ij),l] = v_l conj(Q[l,(k,ij)]).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernel
from .algebra import CycField, CycScalar, FiniteField
from .errors import InputError, VerificationError
from .kernel import Batch
from .schemes import AssociationScheme, check_partition

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

    def adjacency(self) -> Batch:
        """The adjacency basis A_0, ..., A_{nm-1}; A_0 is the identity."""
        nm, D = self.scheme.nclasses, self.field.dim
        return Batch(np.eye(nm, dtype=np.int64)[:, :, None] * np.eye(1, D, dtype=np.int64), 1)

    def rmul(self, r, x: Elem) -> Elem:
        """Multiply by a rational number."""
        fr = Fraction(r)
        if not fr:
            return {}
        return {k: s.scale(fr) for k, s in x.items()}

    def mul(self, x: Batch, y: Batch) -> Batch:
        """The products x y, with numpy broadcasting of the leading axes."""
        return kernel.algebra_mul(x, y, self.scheme.p, self.field)


@dataclass
class Block:
    name: str
    dim: int
    units: dict  # (i, j) 1-based -> Elem


def _indicator(partition: list[list[int]], nm: int) -> np.ndarray:
    """The 0/1 matrix [class l lies in cell t]."""
    out = np.zeros((len(partition), nm), dtype=np.int64)
    for t, cell in enumerate(partition):
        out[t, cell] = 1
    return out


def _table(field: CycField, X: Batch) -> list[list[CycScalar]]:
    """A batch of scalars of shape (rows, columns) as rows of scalars."""
    flat = kernel.scalars(field, X)
    w = X.num.shape[1]
    return [flat[r : r + w] for r in range(0, len(flat), w)]


def _q(alg: SchemeAlgebra, X: Batch, classes: list[int]) -> Batch:
    """Q[t, k] = v * (coefficient of classes[t] in X[k]), as a batch of scalars."""
    cols = Batch(X.num[:, classes].swapaxes(0, 1)[:, :, None, :], X.den)
    return kernel.combine(alg.scheme.v * np.eye(len(classes), dtype=np.int64), cols)


def _quotients(field: CycField, Y: Batch, X: Batch) -> Batch:
    """The scalars Y[n, t] / X[n], read at the first nonzero class of X[n],
    as a batch of shape (n, t); one field inversion per distinct leading
    scalar.  The leading scalars share X.den, so equal ones have equal rows."""
    n = np.arange(len(X.num))
    l0 = (X.num != 0).any(axis=-1).argmax(axis=-1)
    rows = {}
    which = [rows.setdefault(tuple(r), len(rows)) for r in X.num[n, l0].tolist()]
    inv = kernel.pack(field, [[CycScalar(field, r, X.den).inv()] for r in rows])
    at_l0 = Batch(Y.num[n, :, l0][:, :, None, :], Y.den)
    return kernel.field_mul(at_l0, inv[which][:, None], field)


def _duality_failures(field: CycField, P: Batch, mult, Q: Batch, valencies) -> np.ndarray:
    """Where mult[k] P[k, t] != valencies[t] conj(Q[t, k]), for batches of
    scalars P and Q."""
    lhs = kernel.combine(np.diag(mult), P)
    rhs = kernel.combine(np.diag(valencies), kernel.adjoint(Q, [0], field))
    return ~lhs.equal(Batch(rhs.num.swapaxes(0, 1), rhs.den))


class Eigensystem:
    """A verified Wedderburn decomposition of a scheme's adjacency algebra.

    The units are packed once, at construction, into one read-only Batch;
    every check and table reads that batch, so a later edit of the blocks
    changes nothing the eigensystem reports.
    """

    def __init__(self, algebra: SchemeAlgebra, blocks: list[Block]):
        self.algebra = algebra
        self.blocks = blocks
        self._keys = []  # (block, i, j) of every unit, in row_index() order
        for bi, blk in enumerate(blocks):
            square = [(i, j) for i in range(1, blk.dim + 1) for j in range(1, blk.dim + 1)]
            missing = [key for key in square if key not in blk.units]
            extra = sorted((key for key in blk.units if key not in square), key=str)
            if missing or extra:
                what = f"lacks unit {missing[0]}" if missing else f"has extra unit {extra[0]}"
                raise VerificationError(f"block {blk.name} of dim {blk.dim} {what}")
            self._keys += [(bi, i, j) for i, j in square]
        self._U = algebra.pack([blocks[b].units[(i, j)] for b, i, j in self._keys])
        self._U.num.flags.writeable = False
        self._phi = None
        self._mult = None
        self.verify()

    # -- verification --

    def verify(self) -> None:
        alg = self.algebra
        keys, U = self._keys, self._U
        if len(keys) != alg.scheme.nclasses:
            raise VerificationError(
                "sum of squared block dimensions must equal the class count"
            )
        pos = {key: n for n, key in enumerate(keys)}
        # E_ij E_i'j' = E_ij' when both lie in one block and j = i', else 0
        want = np.array(
            [
                [pos[(b, i, j2)] if b == b2 and j == i2 else -1 for b2, i2, j2 in keys]
                for b, i, j in keys
            ]
        )
        W = Batch(np.where((want >= 0)[..., None, None], U.num[want], 0), U.den)
        bad = ~alg.mul(U[:, None], U[None, :]).equal(W)
        if bad.any():
            # the first failure in row-major order of the unit pairs
            a, b = (keys[n] for n in np.argwhere(bad)[0])
            raise VerificationError(
                f"unit relation failed: block {self.blocks[a[0]].name} "
                f"({a[1]},{a[2]}) times block {self.blocks[b[0]].name} ({b[1]},{b[2]})"
            )
        diag = [n for n, (_, i, j) in enumerate(keys) if i == j]
        if not U[diag].sum().equal(alg.adjacency()[0]):
            raise VerificationError("diagonal units do not sum to the identity")
        adj = kernel.adjoint(U, alg.scheme.tpose, alg.field)
        bad = ~adj.equal(U[[pos[(b, j, i)] for b, i, j in keys]])
        if bad.any():
            b, i, j = keys[np.flatnonzero(bad)[0]]
            raise VerificationError(
                f"adjoint failed in block {self.blocks[b].name} at ({i},{j})"
            )
        self._mult = self._multiplicities(keys, U)

    def _multiplicities(self, keys: list[tuple[int, int, int]], U: Batch) -> list[int]:
        # tr E_ii = v * (coefficient of A_0) is the multiplicity of the block's
        # irreducible in the standard module; the unit relations force it
        # equal for every i
        out = []
        v = self.algebra.scheme.v
        for bi in range(len(self.blocks)):
            tr = U.num[[n for n, (b, i, j) in enumerate(keys) if b == bi and i == j], 0]
            if tr[:, 1:].any():
                raise VerificationError("multiplicity not rational")
            vals = {Fraction(int(t) * v, U.den) for t in tr[:, 0]}
            if len(vals) != 1:
                raise VerificationError("diagonal units have unequal rank")
            mk = vals.pop()
            if mk.denominator != 1 or mk <= 0:
                raise VerificationError(f"multiplicity {mk} not a positive integer")
            out.append(int(mk))
        if sum(m * b.dim for m, b in zip(out, self.blocks)) != v:
            raise VerificationError("multiplicities do not sum to v")
        return out

    # -- derived data --

    @property
    def multiplicities(self) -> list[int]:
        return list(self._mult)

    def row_index(self) -> list[tuple[str, int, int]]:
        """P-row / Q-column order: blocks in order, (i, j) lexicographic."""
        return [(self.blocks[b].name, i, j) for b, i, j in self._keys]

    def phi_matrices(self) -> list[list[list[list[CycScalar]]]]:
        """phis[k][l][i-1][j-1] = (i,j) entry of the image of A_l in block k.

        Computed from E_ii A_l E_jj = phi E_ij and verified: the remainder is
        exactly phi E_ij, and each A_l equals the sum of its block images over
        the units.  The images are kept as a batch of scalars phi[unit, l],
        computed on the first call and formatted on each.
        """
        alg = self.algebra
        nm = alg.scheme.nclasses
        keys, U = self._keys, self._U
        pos = {key: n for n, key in enumerate(keys)}
        if self._phi is None:
            A = alg.adjacency()
            diag = alg.mul(U[[pos[(b, i, i)] for b, i, _ in keys]][:, None], A[None, :])
            # Y[n, l] = E_ii A_l E_jj for the unit n = E_ij
            Y = alg.mul(diag, U[[pos[(b, j, j)] for b, _, j in keys]][:, None])
            phi = _quotients(alg.field, Y, U)
            phiE = kernel.field_mul(phi, U[:, None], alg.field)
            bad = ~phiE.equal(Y)
            if bad.any():
                # the first failure in block, l, i, j order
                n, l = min(
                    np.argwhere(bad).tolist(), key=lambda nl: (keys[nl[0]][0], nl[1], nl[0])
                )
                b, i, j = keys[n]
                raise VerificationError(
                    f"A_{l} does not act as a scalar on block {self.blocks[b].name} "
                    f"at ({i},{j})"
                )
            # completeness: A_l = sum over blocks and units of phi * E_ij
            bad = ~phiE.sum().equal(A)
            if bad.any():
                l = int(np.flatnonzero(bad)[0])
                raise VerificationError(f"A_{l} is not spanned by the matrix units")
            self._phi = phi
        P = _table(alg.field, self._phi)
        dims = [range(1, blk.dim + 1) for blk in self.blocks]
        return [
            [[[P[pos[(b, i, j)]][l] for j in d] for i in d] for l in range(nm)]
            for b, d in enumerate(dims)
        ]

    def _phi_batch(self) -> Batch:
        """The batch phi[unit, l] that phi_matrices() computes and verifies."""
        if self._phi is None:
            self.phi_matrices()
        return self._phi

    def eigenmatrix_p(self) -> list[list[CycScalar]]:
        """Rows indexed by row_index(), columns by class."""
        return _table(self.algebra.field, self._phi_batch())

    def eigenmatrix_q(self) -> list[list[CycScalar]]:
        """Rows indexed by class, columns by row_index(); Q[l][col] = v * coeff."""
        Q = _q(self.algebra, self._U, list(range(self.algebra.scheme.nclasses)))
        return _table(self.algebra.field, Q)

    def character_table(self) -> list[list[CycScalar]]:
        """T[k][l] = trace of the image of A_l in block k (plain trace)."""
        keys = self._keys
        traces = [[b == k and i == j for b, i, j in keys] for k in range(len(self.blocks))]
        T = kernel.combine(np.array(traces, dtype=np.int64), self._phi_batch())
        return _table(self.algebra.field, T)

    def check_pq_duality(self) -> bool:
        """Entrywise m_k P[(k,ij),l] = v_l conj(Q[l,(k,ij)])."""
        phi = self._phi_batch()
        alg = self.algebra
        Q = _q(alg, self._U, list(range(alg.scheme.nclasses)))
        mult = [mk for blk, mk in zip(self.blocks, self._mult) for _ in range(blk.dim**2)]
        bad = _duality_failures(alg.field, phi, mult, Q, alg.scheme.valencies)
        if bad.any():
            r, l = np.argwhere(bad)[0]
            raise VerificationError(f"duality failed at row {r}, class {l}")
        return True


# -- family eigensystems --


def _unit(*terms: tuple[CycScalar, Elem]) -> Elem:
    """sum c F over the terms (c, F); the Fs have disjoint supports."""
    return {k: c * x for c, F in terms for k, x in F.items()}


def _pair_block(a: int, na: int, F0: list[Elem], F1: list[Elem], c11, c12) -> Block:
    """The 2-dimensional block of the characters a and na = -a:
    E_11 = c11 F_(a,0), E_22 = c11 F_(-a,0), E_12 = c12 F_(a,1), E_21 = c12 F_(-a,1)."""
    terms = [(c11, F0[a]), (c11, F0[na]), (c12, F1[a]), (c12, F1[na])]
    units = {ij: _unit(t) for ij, t in zip([(1, 1), (2, 2), (1, 2), (2, 1)], terms)}
    return Block(f"a{a}", 2, units)


def bgw_f_elements(alg: SchemeAlgebra, m: int, typ: int) -> list[Elem]:
    """F_{alpha,typ} = sum_gamma zeta_m^{alpha gamma} A_{(gamma,typ)}."""
    off = typ * m
    return [{off + g: alg.field.zeta(a * g) for g in range(m)} for a in range(m)]


def bgw_eigensystem(scheme: AssociationScheme, q: int, m: int) -> Eigensystem:
    n = q
    v = (n + 1) * m
    field = CycField(m, n)
    alg = SchemeAlgebra(scheme, field)
    F0 = bgw_f_elements(alg, m, 0)
    F1 = bgw_f_elements(alg, m, 1)
    e = field.rat(Fraction(1, v))
    inv_sqrt = field.sqrt_radicand().inv()
    blocks = [
        Block("0", 1, {(1, 1): _unit((e, F0[0]), (e, F1[0]))}),
        Block("1", 1, {(1, 1): _unit((e.scale(n), F0[0]), (-e, F1[0]))}),
    ]
    if m % 2 == 0:
        h = m // 2
        c = inv_sqrt.scale(Fraction(1, 2 * m))
        half = field.rat(Fraction(1, 2 * m))
        blocks.append(Block("2", 1, {(1, 1): _unit((half, F0[h]), (c, F1[h]))}))
        blocks.append(Block("3", 1, {(1, 1): _unit((half, F0[h]), (-c, F1[h]))}))
    c11, c12 = field.rat(Fraction(1, m)), inv_sqrt.scale(Fraction(1, m))
    for a in range(1, (m - 1) // 2 + 1):
        blocks.append(_pair_block(a, m - a, F0, F1, c11, c12))
    return Eigensystem(alg, blocks)


def gh_f_elements(alg: SchemeAlgebra, F: FiniteField, typ: int) -> list[Elem]:
    """F_{alpha,typ} = sum_beta zeta_p^{<alpha,beta>} A_{(beta,typ)}."""
    off = typ * F.q
    zeta = [alg.field.zeta(k) for k in range(F.p)]
    pairing = (F.digit_t @ F.digit_t.T % F.p).tolist()
    return [{off + b: zeta[k] for b, k in enumerate(row)} for row in pairing]


def gh_transversal(F: FiniteField) -> list[int]:
    """The transversal of {x, -x} over the nonzero elements of GF(q) that keeps
    the smaller index of each pair."""
    x = np.arange(1, F.q)
    return x[x <= F.neg_t[x]].tolist()


def gh_eigensystem(scheme: AssociationScheme, q: int) -> Eigensystem:
    F = FiniteField(q)
    v = (q + 1) * q * q
    field = CycField(F.p, 1)
    alg = SchemeAlgebra(scheme, field)
    F0 = gh_f_elements(alg, F, 0)
    F1 = gh_f_elements(alg, F, 1)
    a2 = {2 * q: field.one()}
    e = field.rat(Fraction(1, v))
    blocks = [
        Block("0", 1, {(1, 1): _unit((e, F0[0]), (e, F1[0]), (e, a2))}),
        Block("1", 1, {(1, 1): _unit((e.scale(q * q - 1), F0[0]), (e.scale(-q - 1), a2))}),
        Block("2", 1, {(1, 1): _unit((e.scale(q), F0[0]), (-e, F1[0]), (e.scale(q), a2))}),
    ]
    c11, c12 = field.rat(Fraction(1, q)), field.rat(Fraction(1, q * q))
    for a in gh_transversal(F):
        blocks.append(_pair_block(a, F.neg(a), F0, F1, c11, c12))
    return Eigensystem(alg, blocks)


def _parameter(provenance: dict, key: str) -> int:
    x = provenance.get(key)
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise InputError(f"provenance {key} must be a positive integer, not {x!r}")
    return x


def _require_size(scheme: AssociationScheme, family: str, v: int, nclasses: int) -> None:
    if (scheme.v, scheme.nclasses) != (v, nclasses):
        raise InputError(
            f"provenance {family} parameters give {v} points and {nclasses} classes, "
            f"but the scheme has {scheme.v} points and {scheme.nclasses} classes"
        )


def eigensystem_for(scheme: AssociationScheme, provenance: dict) -> Eigensystem:
    """The eigensystem of the family that the provenance record names.  A
    missing or unknown family, a missing or non-positive-integer q or m, or
    parameters whose family has another point or class count than the scheme
    raise InputError before any field is built."""
    fam = provenance.get("family")
    if fam == "bgw":
        q, m = _parameter(provenance, "q"), _parameter(provenance, "m")
        _require_size(scheme, "bgw", (q + 1) * m, 2 * m)
        return bgw_eigensystem(scheme, q, m)
    if fam == "gh":
        q = _parameter(provenance, "q")
        _require_size(scheme, "gh", (q + 1) * q * q, 2 * q + 1)
        return gh_eigensystem(scheme, q)
    raise InputError(f"provenance family must be 'bgw' or 'gh', not {fam!r}")


# -- symmetrizing fusions --


def bgw_symmetric_fusion(m: int) -> list[list[int]]:
    """Fuse (gamma, t) with (-gamma, t); class order: type 0 then type 1, each
    as {0}, pairs in ascending order, then {m/2} when m is even."""
    out: list[list[int]] = []
    for t in (0, 1):
        off = t * m
        out.append([off])
        for g in range(1, (m - 1) // 2 + 1):
            out.append([off + g, off + m - g])
        if m % 2 == 0:
            out.append([off + m // 2])
    return out


def gh_symmetric_fusion(q: int) -> list[list[int]]:
    F = FiniteField(q)
    out: list[list[int]] = []
    for t in (0, 1):
        off = t * q
        out.append([off])
        for a in gh_transversal(F):
            out.append([off + a, off + F.neg(a)])
    out.append([2 * q])
    return out


class FusedEigensystem:
    """Primitive idempotents of a symmetrizing fusion, with fused P and Q.

    For a 1-dimensional block the idempotent carries over; a 2-dimensional
    block contributes e+- = (E_11 + E_22 +- (E_12 + E_21)) / 2.  The
    idempotents are integer combinations of the Eigensystem's packed units,
    and its certificate already proves what they need:

    - With S = E_11 + E_22 and T = E_12 + E_21, the unit relations give
      S^2 = T^2 = S and S T = T S = T.  So e+-^2 = e+-, e+ e- = 0 and
      e+ + e- = S, and the units of the other blocks annihilate both.
    - The diagonal units sum to I, so the idempotents do.
    - E_12 = E_11 E_12 and E_12 E_11 = 0, so tr E_12 = tr(E_12 E_11) = 0,
      and likewise tr E_21 = 0.  So tr e+- = tr E_11 = m_k, the
      multiplicity of the block.

    What depends on the partition is verified here: the constancy of the
    coefficients on the fused classes, the eigenvalue equations from both
    sides, and fused P/Q duality.  The idempotents are kept as a Batch.  A
    malformed partition raises ValueError (see schemes.check_partition).
    """

    def __init__(self, es: Eigensystem, partition: list[list[int]]):
        alg = es.algebra
        check_partition(partition, alg.scheme.nclasses)
        self.algebra = alg
        self.partition = [sorted(cell) for cell in partition]
        names: list[str] = []
        mult: list[int] = []
        twice = []  # each idempotent times 2, as weights over the units
        start, width = 0, sum(blk.dim**2 for blk in es.blocks)
        for blk, mk in zip(es.blocks, es.multiplicities):
            if blk.dim not in (1, 2):
                raise VerificationError("blocks of dimension > 2 not supported")
            # the units of a block in order (1,1), (1,2), (2,1), (2,2)
            signs = {"": [2]} if blk.dim == 1 else {"+": [1, 1, 1, 1], "-": [1, -1, -1, 1]}
            for suffix, w in signs.items():
                names.append(blk.name + suffix)
                mult.append(mk)
                twice.append(np.zeros(width, dtype=np.int64))
                twice[-1][start : start + len(w)] = w
            start += blk.dim**2
        self.names = names
        self.multiplicities = mult
        E = kernel.combine(np.array(twice), es._U)
        self.idempotents = E = Batch(E.num, 2 * E.den)
        cells = _indicator(self.partition, alg.scheme.nclasses)
        self.fused_valencies = (cells @ np.array(alg.scheme.valencies)).tolist()
        Q = self._fused_q(E)
        self.qhat = _table(alg.field, Q)
        P = self._fused_p(E, cells)
        self.phat = _table(alg.field, P)
        self._check_duality(P, Q)

    def _fused_q(self, E: Batch) -> Batch:
        """Rows: fused classes; columns: idempotents; entries v * coefficient."""
        for cell in self.partition:
            if (E.num[:, cell] != E.num[:, cell[:1]]).any():
                raise VerificationError("idempotent coefficients not constant on a fused class")
        return _q(self.algebra, E, [cell[0] for cell in self.partition])

    def _fused_p(self, E: Batch, cells: np.ndarray) -> Batch:
        """Eigenvalues c[idempotent, fused class], from e A^_t = A^_t e = c e,
        where A^_t is the sum of the classes in cell t."""
        alg = self.algebra
        H = kernel.combine(cells, alg.adjacency())
        left = alg.mul(E[:, None], H[None, :])  # e A^_t, shape (n, ncells)
        right = alg.mul(H[None, :], E[:, None])  # A^_t e
        c = _quotients(alg.field, left, E)
        bad = ~(kernel.field_mul(c, E[:, None], alg.field).equal(left) & right.equal(left))
        if bad.any():
            k, t = np.argwhere(bad)[0]
            raise VerificationError(
                f"fused class {t} does not act as a scalar on idempotent "
                f"{self.names[k]}"
            )
        return c

    def _check_duality(self, P: Batch, Q: Batch) -> None:
        bad = _duality_failures(
            self.algebra.field, P, self.multiplicities, Q, self.fused_valencies
        )
        if bad.any():
            k, t = np.argwhere(bad)[0]
            raise VerificationError(
                f"fused duality failed at idempotent {self.names[k]}, class {t}"
            )


# -- the fusion criterion --


@dataclass
class FusionCertificate:
    """Witness that a fusion satisfies the eigenspace criterion.

    cells[k] is a partition of the unit index pairs of block k such that the
    per-fused-class sums of the representation images are constant on each
    cell; the total cell count equals the fused class count; and the linear
    span of the cell sums is closed under multiplication (verified
    combinatorially), which makes the criterion sufficient.  product_form is
    read off the cells: True when each block's cells are the products
    I_a x I_b of one partition {I_a} of its unit indices.
    """

    block_names: list[str]
    cells: list[list[tuple[tuple[int, int], ...]]]
    product_form: bool
    cell_count: int
    target: int


def _signatures(es: Eigensystem, partition: list[list[int]]):
    """For each block, map (i, j) -> the fused-class sums of phi, as one
    integer vector over the denominator that all of them share."""
    phi = es._phi_batch()
    S = kernel.combine(_indicator(partition, es.algebra.scheme.nclasses), phi, axis=1)
    sigs: list[dict] = [{} for _ in es.blocks]
    for n, (b, i, j) in enumerate(es._keys):
        sigs[b][(i, j)] = tuple(S.num[n].ravel().tolist())
    return sigs


def _closure_ok(cells: list[tuple[tuple[int, int], ...]]) -> bool:
    """Check that the span of the cell sums of matrix units is closed under
    multiplication: the structure coefficients #{j : (a,j) in C, (j,b) in C'}
    must be constant on every cell."""
    cell_of = {}
    for ci, cell in enumerate(cells):
        for ij in cell:
            cell_of[ij] = ci
    for C in cells:
        for C2 in cells:
            counts = {}
            for a, j in C:
                for j2, b in C2:
                    if j == j2:
                        counts[(a, b)] = counts.get((a, b), 0) + 1
            by_cell: dict[int, set[int]] = {}
            for ij, ci in cell_of.items():
                by_cell.setdefault(ci, set()).add(counts.get(ij, 0))
            for vals in by_cell.values():
                if len(vals) != 1:
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
    fused-class sums of their representation images; the groups are the
    cells.  A certificate needs the span of each block's cell sums closed
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
      independent, and the verified units map A to (phi_k(A))_k injectively
      (phi_matrices proves completeness).  So the signature rows have rank
      target, and there are at least target signature groups in all.
    - Conclusion.  A product certificate has exactly target cells, so in
      every block it is the signature grouping.  Its cell sums multiply as
      E_ab E_cd = [b = c] |I_b| E_ad, so they pass _closure_ok, and this
      search returns the same cells.
    """
    check_partition(partition, es.algebra.scheme.nclasses)
    target = len(partition)
    names = [blk.name for blk in es.blocks]
    all_cells = []
    count = 0
    for table in _signatures(es, partition):
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for ij, sig in table.items():
            groups.setdefault(sig, []).append(ij)
        cells = [tuple(sorted(g)) for g in groups.values()]
        if not _closure_ok(cells):
            return None
        all_cells.append(sorted(cells))
        count += len(cells)
    if count != target:
        return None
    return FusionCertificate(
        block_names=names,
        cells=all_cells,
        product_form=all(_is_product(cells) for cells in all_cells),
        cell_count=count,
        target=target,
    )
