"""uwit: uncertainty-relation entanglement detection for two-qubit states.

A small numpy library implementing variance-based and entropic
separability criteria, the exact partial-transpose test, the noisy-singlet
Monte-Carlo detection experiment, and the Bell-diagonal geometry scan.

Importing the package loads nothing: each public name imports its
submodule on first access (PEP 562), so ``import uwit`` neither loads numpy
nor changes the environment. Only the ``uwit`` command (``__main__``) sets
the OpenBLAS thread count, before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each submodule, which the package re-exports
_EXPORTS = {
    "errors": (
        "ConvergenceError",
        "DegenerateObservableError",
        "DimensionMismatchError",
        "InvalidParameterError",
        "InvalidWeightError",
        "NotHermitianError",
        "NotPositiveError",
        "NumericalDefectError",
        "RejectionOverflowError",
        "StateFormatError",
        "StateInvariantError",
        "UwitError",
    ),
    "linalg": (
        "ID2",
        "SIGMA_X",
        "SIGMA_Y",
        "SIGMA_Z",
        "expectation",
        "hermitian_eigen",
        "kron",
        "partial_transpose",
    ),
    "states": (
        "BellDiagonalCoords",
        "DensityMatrix",
        "NoiseBallConfig",
        "PureState",
        "bell_diagonal_state",
        "bell_populations_from_coords",
        "bell_state",
        "bell_states",
        "coords_of",
        "in_state_tetrahedron",
        "in_witness_octahedron",
        "is_npt",
        "load_state",
        "maximally_mixed",
        "noise_rng",
        "noisy_singlet",
        "random_density_matrix",
        "random_product_state",
        "random_separable_state",
        "sample_noise_ball",
        "save_state",
        "singlet_projector",
        "werner_state",
    ),
    "criteria": (
        "CriterionVerdict",
        "Observable",
        "bell_populations",
        "bell_tsallis_criterion",
        "bell_variance_criterion",
        "entropic_sum_criterion",
        "linear_witness_value",
        "lur_value",
        "maassen_bound",
        "measurement_distribution",
        "nonlinear_witness_value",
        "pauli_lur",
        "schmidt_entropy_bound",
        "shannon_entropy",
        "tsallis_entropy",
        "variance",
    ),
    "experiments": (
        "DetectionRow",
        "GeometryScan",
        "WernerThresholds",
        "default_p_grid",
        "evaluate_detection_flags",
        "run_detection_sweep",
        "run_geometry_scan",
        "werner_thresholds",
        "write_detection_csv",
        "write_geometry_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule also binds it on the package
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
