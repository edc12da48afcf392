"""Exact spectral theory of the two scheme families.

All computations happen in the regular representation of the adjacency
algebra: an element is its coefficient vector over the adjacency basis
(a sparse dict class index -> CycScalar), and products go through the
verified intersection tensor.  The checks pack their elements into integer
batches and verify every relation of a kind at once with the exact kernel
(see kernel.py).  Because the tensor was extracted from exact integer matrix
products, identities proved here hold for the actual v x v matrices.

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
from .schemes import AssociationScheme

Elem = dict  # class index -> CycScalar, zero coefficients never stored


class SchemeAlgebra:
    """The adjacency algebra of a verified scheme over an exact scalar field.

    Elements are Elem dicts; pack and unpack convert lists of them to and
    from the Batches of the exact kernel, which mul also accepts.
    """

    def __init__(self, scheme: AssociationScheme, field: CycField):
        self.scheme = scheme
        self.field = field

    def pack(self, elems: list[Elem]) -> Batch:
        nm = self.scheme.nclasses
        return kernel.pack(self.field, [[e.get(k) for k in range(nm)] for e in elems])

    def unpack(self, batch: Batch) -> list[Elem]:
        """The elements of the batch, flattened in C order."""
        nm = self.scheme.nclasses
        flat = kernel.scalars(self.field, batch)
        return [
            {k: c for k, c in enumerate(flat[n : n + nm]) if c}
            for n in range(0, len(flat), nm)
        ]

    def zero(self) -> Elem:
        return {}

    def basis(self, i: int) -> Elem:
        return {i: self.field.one()}

    def identity(self) -> Elem:
        return self.basis(0)

    def add(self, x: Elem, y: Elem) -> Elem:
        out = dict(x)
        for k, c in y.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    def neg(self, x: Elem) -> Elem:
        return {k: -c for k, c in x.items()}

    def sub(self, x: Elem, y: Elem) -> Elem:
        return self.add(x, self.neg(y))

    def smul(self, c: CycScalar, x: Elem) -> Elem:
        if not c:
            return {}
        return {k: c * s for k, s in x.items()}

    def rmul(self, r, x: Elem) -> Elem:
        """Multiply by a rational number."""
        fr = Fraction(r)
        if not fr:
            return {}
        return {k: s.scale(fr) for k, s in x.items()}

    def mul(self, x, y):
        """The product x y of two Elems; for two Batches, the Batch of
        products with numpy broadcasting of the leading axes."""
        if isinstance(x, Batch):
            return kernel.algebra_mul(x, y, self.scheme.p, self.field)
        prod = kernel.algebra_mul(self.pack([x]), self.pack([y]), self.scheme.p, self.field)
        return self.unpack(prod)[0]

    def adjoint(self, x: Elem) -> Elem:
        """Conjugate transpose: A_i -> A_{i^T}, scalars conjugated."""
        return {self.scheme.tpose[i]: c.conj() for i, c in x.items()}

    def trace(self, x: Elem) -> CycScalar:
        c = x.get(0)
        if c is None:
            return self.field.zero()
        return c.scale(self.scheme.v)

    def equal(self, x: Elem, y: Elem) -> bool:
        return x == y

    def is_zero(self, x: Elem) -> bool:
        return not x


@dataclass
class Block:
    name: str
    dim: int
    units: dict  # (i, j) 1-based -> Elem


def _quotients(alg: SchemeAlgebra, Y: Batch, elems: list[Elem]) -> Batch:
    """The scalars Y[n, t] / elems[n], read at the first class of elems[n],
    as a batch of shape (n, t); one field inversion per element."""
    l0 = [min(e) for e in elems]
    inv = kernel.pack(alg.field, [[e[l].inv()] for e, l in zip(elems, l0)])
    at_l0 = Batch(Y.num[np.arange(len(elems)), :, l0][:, :, None, :], Y.den)
    return kernel.field_mul(at_l0, inv[:, None], alg.field)


class Eigensystem:
    """A verified Wedderburn decomposition of a scheme's adjacency algebra."""

    def __init__(self, algebra: SchemeAlgebra, blocks: list[Block]):
        self.algebra = algebra
        self.blocks = blocks
        self._phis = None
        self._mult = None
        self.verify()

    # -- verification --

    def _units(self) -> tuple[list[tuple[int, int, int]], Batch]:
        """(block, i, j) of every unit in row_index() order, and the units packed."""
        keys = [
            (bi, i, j)
            for bi, blk in enumerate(self.blocks)
            for i in range(1, blk.dim + 1)
            for j in range(1, blk.dim + 1)
        ]
        return keys, self.algebra.pack([self.blocks[b].units[(i, j)] for b, i, j in keys])

    def verify(self) -> None:
        alg = self.algebra
        keys, U = self._units()
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
        if not U[diag].sum().equal(alg.pack([alg.identity()])[0]):
            raise VerificationError("diagonal units do not sum to the identity")
        adj = kernel.adjoint(U, alg.scheme.tpose, alg.field)
        bad = ~adj.equal(U[[pos[(b, j, i)] for b, i, j in keys]])
        if bad.any():
            b, i, j = keys[np.flatnonzero(bad)[0]]
            raise VerificationError(
                f"adjoint failed in block {self.blocks[b].name} at ({i},{j})"
            )
        self._mult = self._multiplicities()

    def _multiplicities(self) -> list[int]:
        # tr E_ii is the multiplicity of the block's irreducible in the
        # standard module; the unit relations force it equal for every i
        out = []
        v = self.algebra.scheme.v
        for blk in self.blocks:
            vals = set()
            for i in range(1, blk.dim + 1):
                t = self.algebra.trace(blk.units[(i, i)])
                if not t.is_rational():
                    raise VerificationError("multiplicity not rational")
                vals.add(t.as_fraction())
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
        return [
            (blk.name, i, j)
            for blk in self.blocks
            for i in range(1, blk.dim + 1)
            for j in range(1, blk.dim + 1)
        ]

    def phi_matrices(self) -> list[list[list[list[CycScalar]]]]:
        """phis[k][l][i-1][j-1] = (i,j) entry of the image of A_l in block k.

        Computed from E_ii A_l E_jj = phi E_ij and verified: the remainder is
        exactly phi E_ij, and each A_l equals the sum of its block images over
        the units.
        """
        if self._phis is not None:
            return self._phis
        alg = self.algebra
        nm = alg.scheme.nclasses
        keys, U = self._units()
        pos = {key: n for n, key in enumerate(keys)}
        A = alg.pack([alg.basis(l) for l in range(nm)])
        diag = alg.mul(U[[pos[(b, i, i)] for b, i, _ in keys]][:, None], A[None, :])
        # Y[n, l] = E_ii A_l E_jj for the unit n = E_ij
        Y = alg.mul(diag, U[[pos[(b, j, j)] for b, _, j in keys]][:, None])
        phi = _quotients(alg, Y, [self.blocks[b].units[(i, j)] for b, i, j in keys])
        phiE = kernel.field_mul(phi, U[:, None], alg.field)
        bad = ~phiE.equal(Y)
        if bad.any():
            # the first failure in block, l, i, j order
            n, l = min(np.argwhere(bad).tolist(), key=lambda nl: (keys[nl[0]][0], nl[1], nl[0]))
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
        flat = kernel.scalars(alg.field, phi)
        dims = [range(1, blk.dim + 1) for blk in self.blocks]
        self._phis = [
            [[[flat[pos[(b, i, j)] * nm + l] for j in d] for i in d] for l in range(nm)]
            for b, d in enumerate(dims)
        ]
        return self._phis

    def eigenmatrix_p(self) -> list[list[CycScalar]]:
        """Rows indexed by row_index(), columns by class."""
        phis = self.phi_matrices()
        nm = self.algebra.scheme.nclasses
        rows = []
        for bi, blk in enumerate(self.blocks):
            for i in range(blk.dim):
                for j in range(blk.dim):
                    rows.append([phis[bi][l][i][j] for l in range(nm)])
        return rows

    def eigenmatrix_q(self) -> list[list[CycScalar]]:
        """Rows indexed by class, columns by row_index(); Q[l][col] = v * coeff."""
        alg = self.algebra
        v = alg.scheme.v
        zero = alg.field.zero()
        cols = []
        for blk in self.blocks:
            for i in range(1, blk.dim + 1):
                for j in range(1, blk.dim + 1):
                    e = blk.units[(i, j)]
                    cols.append(
                        [e[l].scale(v) if l in e else zero for l in range(alg.scheme.nclasses)]
                    )
        return [list(row) for row in zip(*cols)]

    def character_table(self) -> list[list[CycScalar]]:
        """T[k][l] = trace of the image of A_l in block k (plain trace)."""
        phis = self.phi_matrices()
        nm = self.algebra.scheme.nclasses
        out = []
        for bi, blk in enumerate(self.blocks):
            row = []
            for l in range(nm):
                s = self.algebra.field.zero()
                for i in range(blk.dim):
                    s = s + phis[bi][l][i][i]
                row.append(s)
            out.append(row)
        return out

    def check_pq_duality(self) -> bool:
        """Entrywise m_k P[(k,ij),l] = v_l conj(Q[l,(k,ij)])."""
        P = self.eigenmatrix_p()
        Q = self.eigenmatrix_q()
        vals = self.algebra.scheme.valencies
        mult = []
        for blk, mk in zip(self.blocks, self._mult):
            mult.extend([mk] * (blk.dim * blk.dim))
        for r in range(len(P)):
            for l in range(len(vals)):
                lhs = P[r][l].scale(mult[r])
                rhs = Q[l][r].conj().scale(vals[l])
                if lhs != rhs:
                    raise VerificationError(f"duality failed at row {r}, class {l}")
        return True


def character_table(es: Eigensystem) -> list[list[CycScalar]]:
    return es.character_table()


def check_pq_duality(es: Eigensystem) -> bool:
    return es.check_pq_duality()


# -- family eigensystems --


def bgw_f_elements(alg: SchemeAlgebra, m: int, typ: int) -> list[Elem]:
    """F_{alpha,typ} = sum_gamma zeta_m^{alpha gamma} A_{(gamma,typ)}."""
    off = typ * m
    out = []
    for a in range(m):
        e: Elem = {}
        for g in range(m):
            c = alg.field.zeta(a * g)
            if c:
                e[off + g] = c
        out.append(e)
    return out


def bgw_eigensystem(scheme: AssociationScheme, q: int, m: int) -> Eigensystem:
    n = q
    v = (n + 1) * m
    field = CycField(m, n)
    alg = SchemeAlgebra(scheme, field)
    F0 = bgw_f_elements(alg, m, 0)
    F1 = bgw_f_elements(alg, m, 1)
    inv_sqrt = field.sqrt_radicand().inv()
    e0 = alg.rmul(Fraction(1, v), alg.add(F0[0], F1[0]))
    e1 = alg.rmul(Fraction(1, v), alg.sub(alg.rmul(n, F0[0]), F1[0]))
    blocks = [Block("0", 1, {(1, 1): e0}), Block("1", 1, {(1, 1): e1})]
    if m % 2 == 0:
        h = m // 2
        rad = alg.smul(inv_sqrt, F1[h])
        e2 = alg.rmul(Fraction(1, 2 * m), alg.add(F0[h], rad))
        e3 = alg.rmul(Fraction(1, 2 * m), alg.sub(F0[h], rad))
        blocks.append(Block("2", 1, {(1, 1): e2}))
        blocks.append(Block("3", 1, {(1, 1): e3}))
    c12 = inv_sqrt.scale(Fraction(1, m))
    for a in range(1, (m - 1) // 2 + 1):
        units = {
            (1, 1): alg.rmul(Fraction(1, m), F0[a]),
            (2, 2): alg.rmul(Fraction(1, m), F0[m - a]),
            (1, 2): alg.smul(c12, F1[a]),
            (2, 1): alg.smul(c12, F1[m - a]),
        }
        blocks.append(Block(f"a{a}", 2, units))
    return Eigensystem(alg, blocks)


def gh_f_elements(alg: SchemeAlgebra, F: FiniteField, typ: int) -> list[Elem]:
    """F_{alpha,typ} = sum_beta zeta_p^{<alpha,beta>} A_{(beta,typ)}."""
    q = F.q
    off = typ * q
    out = []
    for a in range(q):
        e: Elem = {}
        for b in range(q):
            c = alg.field.zeta(F.pairing(a, b))
            if c:
                e[off + b] = c
        out.append(e)
    return out


def gh_transversal(F: FiniteField) -> list[int]:
    """Greedy transversal of {x, -x} over the nonzero elements of GF(q)."""
    keep: list[int] = []
    kept = set()
    for x in range(1, F.q):
        if F.neg(x) in kept:
            continue
        keep.append(x)
        kept.add(x)
    return keep


def gh_eigensystem(scheme: AssociationScheme, q: int) -> Eigensystem:
    F = FiniteField(q)
    v = (q + 1) * q * q
    field = CycField(F.p, 1)
    alg = SchemeAlgebra(scheme, field)
    F0 = gh_f_elements(alg, F, 0)
    F1 = gh_f_elements(alg, F, 1)
    a2 = alg.basis(2 * q)
    e0 = alg.rmul(Fraction(1, v), alg.add(alg.add(F0[0], F1[0]), a2))
    e1 = alg.rmul(
        Fraction(1, v), alg.sub(alg.rmul(q * q - 1, F0[0]), alg.rmul(q + 1, a2))
    )
    e2 = alg.rmul(
        Fraction(1, v),
        alg.add(alg.sub(alg.rmul(q, F0[0]), F1[0]), alg.rmul(q, a2)),
    )
    blocks = [
        Block("0", 1, {(1, 1): e0}),
        Block("1", 1, {(1, 1): e1}),
        Block("2", 1, {(1, 1): e2}),
    ]
    for a in gh_transversal(F):
        na = F.neg(a)
        units = {
            (1, 1): alg.rmul(Fraction(1, q), F0[a]),
            (2, 2): alg.rmul(Fraction(1, q), F0[na]),
            (1, 2): alg.rmul(Fraction(1, q * q), F1[a]),
            (2, 1): alg.rmul(Fraction(1, q * q), F1[na]),
        }
        blocks.append(Block(f"a{a}", 2, units))
    return Eigensystem(alg, blocks)


def _parameter(provenance: dict, key: str) -> int:
    x = provenance.get(key)
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise InputError(f"provenance {key} must be a positive integer, not {x!r}")
    return x


def eigensystem_for(scheme: AssociationScheme, provenance: dict) -> Eigensystem:
    """The eigensystem of the family that the provenance record names; a
    missing or non-positive-integer q or m raises InputError."""
    fam = provenance.get("family")
    if fam == "bgw":
        q, m = _parameter(provenance, "q"), _parameter(provenance, "m")
        return bgw_eigensystem(scheme, q, m)
    if fam == "gh":
        return gh_eigensystem(scheme, _parameter(provenance, "q"))
    raise ValueError(f"unknown family {fam!r}")


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
    block contributes (E_11 + E_22 +- (E_12 + E_21)) / 2.  Everything is
    verified: idempotency, orthogonality, completeness, constancy of
    coefficients on the fused classes, the eigenvalue equations from both
    sides, and fused P/Q duality.
    """

    def __init__(self, es: Eigensystem, partition: list[list[int]]):
        alg = es.algebra
        self.algebra = alg
        self.partition = [sorted(cell) for cell in partition]
        names: list[str] = []
        idems: list[Elem] = []
        for blk in es.blocks:
            if blk.dim == 1:
                names.append(blk.name)
                idems.append(blk.units[(1, 1)])
            elif blk.dim == 2:
                diag = alg.add(blk.units[(1, 1)], blk.units[(2, 2)])
                off = alg.add(blk.units[(1, 2)], blk.units[(2, 1)])
                names.append(blk.name + "+")
                idems.append(alg.rmul(Fraction(1, 2), alg.add(diag, off)))
                names.append(blk.name + "-")
                idems.append(alg.rmul(Fraction(1, 2), alg.sub(diag, off)))
            else:
                raise VerificationError("blocks of dimension > 2 not supported")
        self.names = names
        self.idempotents = idems
        packed = alg.pack(idems)
        self._verify_idempotents(packed)
        self.multiplicities = self._multiplicities()
        self.fused_valencies = [
            sum(alg.scheme.valencies[i] for i in cell) for cell in self.partition
        ]
        self.qhat = self._fused_q()
        self.phat = self._fused_p(packed)
        self._check_duality()

    def _verify_idempotents(self, E: Batch) -> None:
        alg = self.algebra
        n = len(self.idempotents)
        want = Batch(np.where(np.eye(n, dtype=bool)[..., None, None], E.num[:, None], 0), E.den)
        bad = ~alg.mul(E[:, None], E[None, :]).equal(want)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise VerificationError(
                f"fused idempotents {self.names[i]}, {self.names[j]} "
                "not orthogonal idempotents"
            )
        if not E.sum().equal(alg.pack([alg.identity()])[0]):
            raise VerificationError("fused idempotents do not sum to identity")

    def _multiplicities(self) -> list[int]:
        out = []
        for e in self.idempotents:
            t = self.algebra.trace(e)
            fr = t.as_fraction()
            if fr.denominator != 1 or fr <= 0:
                raise VerificationError("fused multiplicity not a positive integer")
            out.append(int(fr))
        return out

    def _fused_q(self) -> list[list[CycScalar]]:
        """Rows: fused classes; columns: idempotents; entries v * coefficient."""
        alg = self.algebra
        v = alg.scheme.v
        zero = alg.field.zero()
        out = []
        for cell in self.partition:
            row = []
            for e in self.idempotents:
                vals = {e.get(i) for i in cell}
                if len(vals) != 1:
                    raise VerificationError(
                        "idempotent coefficients not constant on a fused class"
                    )
                c = vals.pop()
                row.append(zero if c is None else c.scale(v))
            out.append(row)
        return out

    def _fused_p(self, E: Batch) -> list[list[CycScalar]]:
        """Rows: idempotents; columns: fused classes; eigenvalue extraction."""
        alg = self.algebra
        n, ncells = len(self.idempotents), len(self.partition)
        H = alg.pack([{i: alg.field.one() for i in cell} for cell in self.partition])
        left = alg.mul(E[:, None], H[None, :])  # e A^_t, shape (n, ncells)
        right = alg.mul(H[None, :], E[:, None])  # A^_t e
        c = _quotients(alg, left, self.idempotents)
        bad = ~(kernel.field_mul(c, E[:, None], alg.field).equal(left) & right.equal(left))
        if bad.any():
            k, t = np.argwhere(bad)[0]
            raise VerificationError(
                f"fused class {t} does not act as a scalar on idempotent "
                f"{self.names[k]}"
            )
        flat = kernel.scalars(alg.field, c)
        return [flat[k * ncells : (k + 1) * ncells] for k in range(n)]

    def _check_duality(self) -> None:
        for k, e in enumerate(self.idempotents):
            for t in range(len(self.partition)):
                lhs = self.phat[k][t].scale(self.multiplicities[k])
                rhs = self.qhat[t][k].conj().scale(self.fused_valencies[t])
                if lhs != rhs:
                    raise VerificationError(
                        f"fused duality failed at idempotent {self.names[k]}, "
                        f"class {t}"
                    )


# -- the fusion criterion --


@dataclass
class FusionCertificate:
    """Witness that a fusion satisfies the eigenspace criterion.

    cells[k] is a partition of the unit index pairs of block k such that the
    per-fused-class sums of the representation images are constant on each
    cell; the total cell count equals the fused class count; and the linear
    span of the cell sums is closed under multiplication (verified
    combinatorially), which makes the criterion sufficient.
    """

    block_names: list[str]
    cells: list[list[tuple[tuple[int, int], ...]]]
    product_form: bool
    cell_count: int
    target: int


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _signatures(es: Eigensystem, partition: list[list[int]]):
    """For each block, map (i, j) -> tuple of fused-class sums of phi."""
    phis = es.phi_matrices()
    sigs = []
    for bi, blk in enumerate(es.blocks):
        table = {}
        for i in range(blk.dim):
            for j in range(blk.dim):
                vals = []
                for cell in partition:
                    s = es.algebra.field.zero()
                    for l in cell:
                        s = s + phis[bi][l][i][j]
                    vals.append(s)
                table[(i + 1, j + 1)] = tuple(vals)
        sigs.append(table)
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


def bm_search(
    es: Eigensystem, partition: list[list[int]], product_form_only: bool = False
):
    """Search for a fusion certificate for the given class partition.

    First tries canonical product partitions (cells I_a x I_b for a single
    partition {I_a} of the unit indices of each block, so the cell count is a
    sum of squares).  If none reaches the target cell count and
    product_form_only is False, falls back to general cell partitions grouped
    by signature, additionally verifying multiplicative closure of the
    cell-sum span.  Returns a FusionCertificate or None.
    """
    target = len(partition)
    sigs = _signatures(es, partition)
    names = [blk.name for blk in es.blocks]

    options: list[list[list[tuple[tuple[int, int], ...]]]] = []
    for blk, table in zip(es.blocks, sigs):
        opts = []
        for parts in _set_partitions(list(range(1, blk.dim + 1))):
            cells = []
            ok = True
            for Ia in parts:
                for Ib in parts:
                    cell = tuple((i, j) for i in Ia for j in Ib)
                    if len({table[ij] for ij in cell}) != 1:
                        ok = False
                        break
                    cells.append(cell)
                if not ok:
                    break
            if ok:
                opts.append(cells)
        options.append(opts)

    # pick one valid product partition per block hitting the target count
    def dfs(bi: int, count: int, chosen):
        if count > target:
            return None
        if bi == len(options):
            return list(chosen) if count == target else None
        for opt in options[bi]:
            chosen.append(opt)
            res = dfs(bi + 1, count + len(opt), chosen)
            if res is not None:
                return res
            chosen.pop()
        return None

    found = dfs(0, 0, [])
    if found is not None:
        return FusionCertificate(
            block_names=names,
            cells=found,
            product_form=True,
            cell_count=target,
            target=target,
        )
    if product_form_only:
        return None

    # general cells: group unit index pairs by signature
    all_cells = []
    count = 0
    for table in sigs:
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
        product_form=False,
        cell_count=count,
        target=target,
    )
