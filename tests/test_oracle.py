"""Numerical oracles cross-checked against the exact symbolic results."""
import ast
from pathlib import Path

import numpy as np
import pytest

import gwschemes.oracle
from gwschemes import (
    VerificationError,
    bgw_symmetric_fusion,
    gh_symmetric_fusion,
    oracle_closure,
    oracle_spectrum,
)
from kronecker import matpow, shift_matrix
import cases


def exact_blocks(es):
    return sorted((b.dim, m) for b, m in zip(es.blocks, es.multiplicities))


class TestClosureOracle:
    @pytest.mark.parametrize(
        "maker,args",
        [
            ("bgw", (5, 2)),
            ("bgw", (7, 3)),
            ("bgw", (4, 3)),
            ("bgw", (9, 2)),
            ("gh", (3,)),
            ("gh", (5,)),
        ],
        ids=["bgw52", "bgw73", "bgw43", "bgw92", "gh3", "gh5"],
    )
    def test_matches_symbolic_tensor(self, maker, args):
        s = getattr(cases, maker)(*args)
        assert np.array_equal(oracle_closure(s.mats), s.p)

    def test_detects_broken_relation(self):
        s = cases.bgw(5, 2)
        mats = [M.copy() for M in s.mats]
        r, c = np.argwhere(mats[1])[0]
        mats[1][r, c] = 0
        with pytest.raises(VerificationError, match="not constant"):
            oracle_closure(mats)


FUSED = [("bgw",) + c for c in cases.BGW_BUILDABLE] + [("gh", q) for q in cases.GH_GRID]


class TestFusedClosureOracle:
    """The certified tensor of every grid case's symmetrizing fusion equals
    the oracle's.  Most fused classes are not thin, so these exercise the
    certificate's GEMM path; the unfused grid is compared in
    test_acceptance.py (TestC8OracleEquivalence)."""

    @pytest.mark.parametrize("c", FUSED, ids=lambda c: "-".join(map(str, c)))
    def test_matches_certified_tensor(self, c):
        if c[0] == "bgw":
            fused = cases.bgw(*c[1:]).fuse(bgw_symmetric_fusion(c[2]))
        else:
            fused = cases.gh(c[1]).fuse(gh_symmetric_fusion(c[1]))
        assert np.array_equal(oracle_closure(fused.mats), fused.p)


class TestSpectrumOracle:
    @pytest.mark.parametrize(
        "maker,args",
        [
            ("bgw", (5, 2)),
            ("bgw", (7, 3)),
            ("bgw", (4, 3)),
            ("bgw", (9, 2)),
            ("gh", (3,)),
        ],
        ids=["bgw52", "bgw73", "bgw43", "bgw92", "gh3"],
    )
    def test_matches_exact_block_structure(self, maker, args):
        s = getattr(cases, maker)(*args)
        es = getattr(cases, maker + "_es")(*args)
        assert oracle_spectrum(s.mats, seed=0) == exact_blocks(es)

    def test_conjugate_pairs_merge_over_the_reals(self):
        # thin scheme of Z_6: the two conjugate pairs of complex characters
        # appear as single blocks of multiplicity 2 in the real spectrum
        C = shift_matrix(6)
        mats = [matpow(C, k) for k in range(6)]
        assert oracle_spectrum(mats) == [(1, 1), (1, 1), (1, 2), (1, 2)]

    def test_detects_missing_transpose_partner(self):
        s = cases.bgw(5, 2)
        mats = [M.copy() for M in s.mats]
        r, c = np.argwhere(mats[2])[0]
        mats[2][r, c] = 0
        with pytest.raises(VerificationError, match="transpose"):
            oracle_spectrum(mats)

    def test_seed_stability(self):
        s = cases.bgw(7, 3)
        a = oracle_spectrum(s.mats, seed=0)
        b = oracle_spectrum(s.mats, seed=12345)
        assert a == b == [(1, 1), (1, 7), (2, 8)]


def test_oracle_shares_no_code_with_the_library():
    """The oracles stay an independent route: from the package they may
    import the exception types and nothing else."""
    tree = ast.parse(Path(gwschemes.oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                used.add("gwschemes." + (node.module or ""))
            elif node.module.split(".")[0] == "gwschemes":
                used.add(node.module)
        elif isinstance(node, ast.Import):
            used |= {a.name for a in node.names if a.name.split(".")[0] == "gwschemes"}
    assert used == {"gwschemes.errors"}
