"""Association schemes from generalized weighing and Hadamard matrices.

Two families of (generally non-commutative) association schemes are built
from classical design-theoretic data over a finite field GF(q):

* a scheme with 2m classes on (q+1)m points, from a symmetric balanced
  generalized weighing matrix BGW(q+1, q, q-1) over the cyclic group Z_m
  with a blank diagonal, for any divisor m of q-1 such that either q is
  even or (q-1)/m is even;

* a scheme with 2q+1 classes on (q+1)q^2 points, from the multiplication
  table of GF(q) viewed as a generalized Hadamard matrix GH(q, q) over the
  additive group of the field, for odd prime powers q.

Every structural claim is verified exactly: scheme axioms and intersection
numbers over the integers, Wedderburn decompositions by checking the matrix
unit relations in the adjacency algebra over a cyclotomic field (extended
by a real quadratic surd where needed), eigenmatrices P and Q with their
duality, and symmetrizing fusions with explicit certificates.
"""

from .errors import GWError, InputError, NotAScheme, SymmetryObstruction, VerificationError
from .algebra import CycField, CycScalar, FiniteField, squarefree_core
from .designs import (
    BLANK,
    bgw_matrix,
    gh_matrix,
    latin_square,
    one_factorization,
    sgdd_params,
    verify_bgw,
    verify_gh,
    verify_latin,
    verify_one_factorization,
)
from .schemes import AssociationScheme
from .builders import (
    bgw_automorphisms,
    bgw_build,
    bgw_incidence,
    bgw_labels,
    gh_automorphisms,
    gh_build,
    gh_labels,
)
from .spectra import (
    Eigensystem,
    FusedEigensystem,
    FusionCertificate,
    SchemeAlgebra,
    bgw_eigensystem,
    bgw_symmetric_fusion,
    bm_search,
    eigensystem_for,
    gh_eigensystem,
    gh_symmetric_fusion,
    gh_transversal,
)
from .oracle import oracle_closure, oracle_spectrum
from .serialize import (
    load_scheme,
    save_scheme,
    scalar_to_str,
    table_to_csv,
    table_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "GWError",
    "InputError",
    "NotAScheme",
    "SymmetryObstruction",
    "VerificationError",
    "CycField",
    "CycScalar",
    "FiniteField",
    "squarefree_core",
    "BLANK",
    "bgw_matrix",
    "gh_matrix",
    "latin_square",
    "one_factorization",
    "sgdd_params",
    "verify_bgw",
    "verify_gh",
    "verify_latin",
    "verify_one_factorization",
    "AssociationScheme",
    "bgw_automorphisms",
    "bgw_build",
    "bgw_incidence",
    "bgw_labels",
    "gh_automorphisms",
    "gh_build",
    "gh_labels",
    "Eigensystem",
    "FusedEigensystem",
    "FusionCertificate",
    "SchemeAlgebra",
    "bgw_eigensystem",
    "bgw_symmetric_fusion",
    "bm_search",
    "eigensystem_for",
    "gh_eigensystem",
    "gh_symmetric_fusion",
    "gh_transversal",
    "oracle_closure",
    "oracle_spectrum",
    "load_scheme",
    "save_scheme",
    "scalar_to_str",
    "table_to_csv",
    "table_to_json",
    "__version__",
]
