"""entspan: subspaces of bipartite systems with constrained Schmidt rank.

Builds explicit maximal bases for subspaces whose states all have Schmidt
rank at least / at most / exactly r, verifies the rank guarantees with exact
and numerical back-ends, and evaluates the associated dimension bounds.
"""

from .bounds import (
    BoundsTable,
    MixedStateReport,
    RandomComparison,
    bounds_table,
    flanders_max_leq,
    max_dim_geq,
    mixed_state_report,
    random_comparison,
    variety_dim,
    westwick_range,
)
from .construct import (
    DiagonalIndex,
    SubspaceBasis,
    antisymmetric_basis_3x3,
    basis_from_json_dict,
    build_diagonal_family,
    construct_fixed_rank_subspace,
    construct_max_rank_leq_subspace,
    construct_min_rank_subspace,
    diagonals,
    random_subspace,
)
from .errors import (
    CertificateError,
    DimensionError,
    DomainError,
    EntspanError,
    FieldMismatchError,
    NumericError,
)
from .statemat import (
    SchmidtInfo,
    StateMatrix,
    matrix_from_json_dict,
    matrix_of_state,
    rank_exact,
    schmidt_rank_numeric,
    state_of_matrix,
    to_json,
)
from .tns import combination_nonzero_count, is_totally_nonsingular, vandermonde
from .verify import (
    PencilResult,
    RankCertificate,
    VerificationReport,
    gfp_exhaustive_min_rank,
    minimize_sigma_r,
    pencil_low_rank,
    sample_verify_exact,
    structural_certificate,
    structural_verify,
)

__version__ = "0.1.0"
