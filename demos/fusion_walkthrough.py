"""How the fusion criterion certifies the symmetrizing fusion.

A partition of the classes yields a scheme exactly when the span of the
summed basis matrices stays closed under multiplication.  For a commutative
scheme the classical test reads this off the columns of the eigenmatrix P.
In the noncommutative case the idempotents are matrix units E_(i,j) inside
simple blocks, and the test needs a partition of the unit index pairs of
every block into cells on which the fused P-column sums are constant, with
one cell per fused class in total.

This demo runs the search for (q, m) = (7, 3).  The search groups the unit
pairs of each block by their fused P-column sums, and reports whether the
cells it found have the "product form" (cells I_a x I_b built from one
partition of {1..d} per block).  They cannot have it here, and general cells
certify the fusion.
"""
from gwschemes import bgw_build, bgw_symmetric_fusion, bm_search, scalar_to_str
from gwschemes.spectra import FusedEigensystem, bgw_eigensystem

Q, M = 7, 3


def main():
    s = bgw_build(Q, M)
    es = bgw_eigensystem(s, Q, M)
    partition = bgw_symmetric_fusion(M)
    print(f"scheme: {s!r}")
    print(f"fusing transpose-paired classes: {partition}")

    fused = s.fuse(partition)
    print(f"fused scheme: {fused!r} with labels {fused.labels}")
    print()

    # product-form cells would force the 2-dimensional block to contribute a
    # square number of cells, but the fused class count leaves room for only
    # 2 cells covering its 4 unit pairs; the signature cells are the
    # diagonal/off-diagonal ones, so the certificate is not in product form
    cert = bm_search(es, partition)
    print(f"product-form certificate: {'found' if cert.product_form else 'none'}")
    print(f"general certificate: {cert.cell_count} cells"
          f" (need {cert.target}, one per fused class)")
    for name, cells in zip(cert.block_names, cert.cells):
        desc = "; ".join(
            "{" + ", ".join(f"({i},{j})" for i, j in cell) + "}" for cell in cells
        )
        print(f"  block {name}: {desc}")
    print()

    fes = FusedEigensystem(es, partition)
    print(f"fused multiplicities: {fes.multiplicities}")
    print("fused second eigenmatrix:")
    for lbl, row in zip(fused.labels, fes.qhat):
        cells = ", ".join(scalar_to_str(x) for x in row)
        print(f"  {lbl}: [{cells}]")


if __name__ == "__main__":
    main()
