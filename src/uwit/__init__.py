"""uwit: uncertainty-relation entanglement detection for two-qubit states.

A small numpy library implementing variance-based and entropic
separability criteria, the exact partial-transpose test, the noisy-singlet
Monte-Carlo detection experiment, and the Bell-diagonal geometry scan.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DegenerateObservableError,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightError,
    NotHermitianError,
    NotPositiveError,
    NumericalDefectError,
    RejectionOverflowError,
    StateFormatError,
    StateInvariantError,
    UwitError,
)
from .linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Spectrum,
    expectation,
    hermitian_eigen,
    hs_norm,
    kron,
    partial_transpose,
)
from .states import (
    BellDiagonalCoords,
    DensityMatrix,
    NoiseBallConfig,
    PureState,
    bell_diagonal_state,
    bell_populations_from_coords,
    bell_state,
    bell_states,
    coords_of,
    in_state_tetrahedron,
    in_witness_octahedron,
    is_npt,
    load_state,
    maximally_mixed,
    noise_rng,
    noisy_singlet,
    random_density_matrix,
    random_product_state,
    random_pure_state,
    random_separable_state,
    sample_noise_ball,
    save_state,
    schmidt_coefficients,
    singlet_projector,
    werner_state,
)
from .criteria import (
    CriterionVerdict,
    Observable,
    bell_populations,
    bell_tsallis_criterion,
    bell_variance_criterion,
    collective_paulis,
    entropic_sum_criterion,
    linear_witness_value,
    lur_value,
    maassen_bound,
    measurement_distribution,
    nonlinear_witness_value,
    pauli_lur,
    schmidt_entropy_bound,
    shannon_entropy,
    tsallis_entropy,
    variance,
)
from .experiments import (
    DetectionRow,
    GeometryScan,
    WernerThresholds,
    default_p_grid,
    evaluate_detection_flags,
    run_detection_sweep,
    run_geometry_scan,
    werner_thresholds,
    write_detection_csv,
    write_geometry_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
