"""cactiq: exact and numeric signless-Laplacian spectral tools for cacti.

Core surface: graph construction and predicates, exact characteristic
polynomials, equitable quotient decompositions, the extremal families with
their closed-form spectra, radius-monotone graph surgeries, cactus
enumeration, and the verification harness behind the `cactiq` CLI.
"""

from .graph import (Graph, MatchingResult, BlockDecomposition, CanonicalCode,
                    from_edges, is_cactus, is_bundle, matching_number,
                    pendant_count, canonical_code, are_isomorphic)
from .polynomials import IntPolynomial, largest_real_root, compare_largest_roots
from .spectra import (DenseSymMatrix, SpectralResult, signless_laplacian,
                      spectral_radius, graph_radius, radii, char_poly)
from .quotient import (IndexPartition, QuotientMatrix, BlockSpec,
                       SpectrumMultiset, quotient_matrix, is_equitable,
                       build_from_spec, structured_spectrum)
from .families import (FamilyParams, ExtremalAnswer, build_H, build_L,
                       psi_H, psi_L, psi_legacy, extremal_answer)
from .transforms import ShiftPlan, shift_neighbors, contract_pend
from .enumeration import CactusFilter, enumerate_cacti, count_cacti
from .verify import (VerificationReport, verify_extremal, verify_formulas,
                     verify_monotonicity)

__version__ = "0.1.0"
