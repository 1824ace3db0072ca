"""pcpkit: joint rank-one decomposability of matrix pairs and the states it certifies.

The package decides, certifies, or refutes whether a pair (X, Y) of n x n
matrices can be written as

    X = sum_k (v_k . w_k)(v_k . w_k)*,
    Y = sum_k (v_k . conj v_k)(w_k . conj w_k)^T,

and applies the answer to the separability of bipartite states that are
invariant under conjugate local diagonal unitaries, including spectra that
remain PPT in every global basis.
"""

from .abssep import (
    OrderingTable,
    abs_ppt_check,
    certify_special_separable,
    enumerate_orderings,
    l_map_matrix,
    special_unitary,
)
from .cldui import (
    ClduiState,
    RealignmentResult,
    SeparabilityVerdict,
    build_state,
    dense_matrix,
    extract_pair,
    is_diagonal_unitary_invariant,
    partial_transpose,
    ppt_check,
    realign_map,
    realignment_check,
    separability_verdict,
)
from .construct import (
    CONDITIONS_VIOLATED,
    DECOMPOSED,
    NOT_APPLICABLE,
    ConstructorOutcome,
    comparison_matrix,
    decompose_auto,
    decompose_comparison,
    decompose_isotropic,
    decompose_recursive,
    isotropic_constants,
    isotropic_pair,
    perron_scaling,
)
from .errors import (
    ComparisonNotPsdError,
    ConditionsViolatedError,
    ConstructionError,
    DimensionMismatchError,
    InvalidOrderingError,
    NotClduiError,
    NotHermitianError,
    NotSortedError,
    NotSquareError,
    PcpkitError,
    UnsupportedDimensionError,
    WrongDimensionError,
)
from .linalg import (
    entrywise_one_norm,
    hadamard,
    hermitian_eigenvalues,
    is_psd,
    phase_normalize_columns,
    trace_norm,
)
from .pairs import (
    NecessaryReport,
    PairXY,
    PcpDecomposition,
    check_necessary,
    length_lower_bound,
    reconstruct,
    strong_cs_gap,
    verify_decomposition,
)

__version__ = "0.1.0"
