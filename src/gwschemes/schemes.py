"""Association schemes as verified label matrices.

A (possibly noncommutative) association scheme on v points is a v x v label
matrix L with entries 0..d whose relations A_i = (L == i) satisfy A_0 = I,
closure under transpose, and A_i A_j = sum_k p[i,j,k] A_k with integer
intersection numbers (the A_i sum to J by construction).  L is the one stored
representation: construction verifies every axiom exactly and extracts the
full intersection tensor, so an AssociationScheme instance is a certificate
of schemehood, and the 0/1 matrices are built only when asked for.
"""
from __future__ import annotations

import numpy as np

from .errors import NotAScheme
from .matrixkit import is_zero_one

# the closure GEMMs run in float32 on 0/1 matrices: every partial sum of an
# entry of A_i A_j is an integer at most v, exact in float32 while v < 2**24
_F32_EXACT = 2**24


class AssociationScheme:
    def __init__(self, L, labels, tensor, tpose, valencies):
        self.L = L
        self.labels = labels
        self.p = tensor
        self.tpose = tpose
        self.valencies = valencies
        self.v = L.shape[0]
        self.nclasses = len(labels)

    @property
    def mats(self) -> list[np.ndarray]:
        """The int64 0/1 matrices A_i = (L == i), built anew on each access."""
        return [(self.L == i).astype(np.int64) for i in range(self.nclasses)]

    @classmethod
    def from_matrices(cls, L, labels) -> "AssociationScheme":
        """Verify that the relations A_i = (L == i) of the label matrix L form
        a scheme and build it; raises NotAScheme on failure."""
        L = np.asarray(L)
        square = L.ndim == 2 and L.shape[0] == L.shape[1] and L.size
        if not square or L.dtype.kind not in "iu":
            raise NotAScheme("the label matrix must be a square integer matrix")
        v = L.shape[0]
        if v >= _F32_EXACT:
            raise ValueError("float32 closure products are exact only for v < 2**24")
        nm = len(labels)
        if len(set(labels)) != nm:
            raise ValueError("labels must be distinct")
        L = L.astype(np.int64)  # a read-only copy the scheme owns
        L.flags.writeable = False
        if L.min() < 0 or L.max() >= nm:
            raise NotAScheme(f"labels must lie in 0..{nm - 1}")

        # pairs[i, j]: positions (x, y) with L[x, y] = i and L[y, x] = j
        pairs = np.bincount((L * nm + L.T).reshape(-1), minlength=nm * nm)
        pairs = pairs.reshape(nm, nm)
        counts = pairs.sum(axis=1)
        if (np.diagonal(L) != 0).any() or counts[0] != v:
            raise NotAScheme("A_0 must be the identity")
        if (counts == 0).any():
            raise NotAScheme("some relation is empty")
        # A_i^T = A_j exactly when every transposed position of class i has
        # class j; the map is then an involution
        if ((pairs > 0).sum(axis=1) != 1).any():
            raise NotAScheme("relation set is not closed under transpose")
        tpose = [int(t) for t in pairs.argmax(axis=1)]

        # rows[x, i], cols[y, i]: the count of class i in row x, column y
        offset = nm * np.arange(v)
        rows = np.bincount((L + offset[:, None]).reshape(-1), minlength=v * nm)
        cols = np.bincount((L + offset[None, :]).reshape(-1), minlength=v * nm)
        rows, cols = rows.reshape(v, nm), cols.reshape(v, nm)
        if (rows != rows[0]).any() or (cols != rows[0]).any():
            raise NotAScheme("row/column sums not constant")
        valencies = [int(k) for k in rows[0]]

        # closure: every product is constant on each relation, read off the
        # positions sorted by class
        order = np.argsort(L.reshape(-1), kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        tensor = np.zeros((nm, nm, nm), dtype=np.int64)
        for j in range(nm):
            tensor[0, j, j] = 1
            tensor[j, 0, j] = 1
        A = [(L == i).astype(np.float32) for i in range(nm)]
        done = set()
        for i in range(1, nm):
            for j in range(1, nm):
                if (i, j) in done:
                    continue
                vals = (A[i] @ A[j]).reshape(-1)[order]
                mins = np.minimum.reduceat(vals, starts)
                maxs = np.maximum.reduceat(vals, starts)
                if not np.array_equal(mins, maxs):
                    raise NotAScheme(
                        f"product A_{labels[i]} A_{labels[j]} leaves the span"
                    )
                row = mins.astype(np.int64)
                tensor[i, j] = row
                done.add((i, j))
                # (A_i A_j)^T = A_{tpose[j]} A_{tpose[i]} gives the partner
                ti, tj = tpose[j], tpose[i]
                if (ti, tj) not in done:
                    tensor[ti, tj] = row[tpose]
                    done.add((ti, tj))
        return cls(L, list(labels), tensor, tpose, valencies)

    # -- structure --

    def is_symmetric(self) -> bool:
        return all(self.tpose[i] == i for i in range(self.nclasses))

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.p, self.p.transpose(1, 0, 2)))

    def classify(self) -> str:
        if self.is_symmetric():
            return "symmetric"
        if self.is_commutative():
            return "commutative"
        return "noncommutative"

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def fuse(self, partition: list[list[int]]) -> "AssociationScheme":
        """Merge relations along a partition of class indices and re-verify.

        The cell containing 0 must be {0}.  The fused family is verified from
        scratch, so a partition that does not yield a scheme raises NotAScheme.
        """
        seen = sorted(i for cell in partition for i in cell)
        if seen != list(range(self.nclasses)):
            raise ValueError("partition must cover every class exactly once")
        for cell in partition:
            if 0 in cell and sorted(cell) != [0]:
                raise ValueError("the identity class must stay alone")
        cell_of = np.empty(self.nclasses, dtype=np.int64)
        for c, cell in enumerate(partition):
            cell_of[cell] = c
        labels = ["+".join(self.labels[i] for i in sorted(cell)) for cell in partition]
        return AssociationScheme.from_matrices(cell_of[self.L], labels)

    def __repr__(self) -> str:
        return (
            f"AssociationScheme(v={self.v}, classes={self.nclasses}, "
            f"{self.classify()})"
        )


def scheme_verify(mats, labels=None) -> AssociationScheme:
    """Verify the scheme axioms for a family of 0/1 matrices A_i: equal square
    shapes, 0/1 entries and supports that partition all positions are checked
    here, the rest on the label matrix L = sum_i i A_i."""
    mats = [np.asarray(M) for M in mats]
    v = mats[0].shape[0]
    if labels is None:
        labels = [str(i) for i in range(len(mats))]
    if len(labels) != len(mats):
        raise ValueError("labels must match the matrix count")
    for M in mats:
        if M.shape != (v, v):
            raise NotAScheme("matrices must be square of equal size")
        if not is_zero_one(M):
            raise NotAScheme("matrices must be 0/1")
    if (sum(M == 1 for M in mats) != 1).any():
        raise NotAScheme("supports must partition all positions")
    L = sum(i * (M == 1) for i, M in enumerate(mats))
    return AssociationScheme.from_matrices(L, labels)
