"""Separability criteria for bipartite states.

Variance-based tests (summed local-uncertainty variances, the linear
correlation witness and its nonlinear refinement), measurement
distributions with Shannon/Tsallis entropies, the Maassen-Uffink bound,
the two-observable entropic test, and the Bell-population criteria with
their Schmidt-coefficient entropy bounds. Every verdict is a necessary
condition for separability: only a strict violation certifies
entanglement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateObservableError,
    DimensionMismatchError,
    InvalidParameterError,
)
from .linalg import _as_square, _traces, hermitian_eigen
from .states import NPT_THRESHOLD, DensityMatrix, _bell_columns, _witness_values

DEGENERACY_TOL = 1e-8
PROBABILITY_TOL = -1e-12
PROBABILITY_SUM_TOL = 1e-9

# Pure product states sit exactly on the collective-Pauli variance boundary,
# so a bare float comparison against the threshold would flag half of them
# through roundoff; values this close to the threshold count as boundary.
DETECTION_TOL = 1e-12

# A PPT state (min eig(rho^T) = -e >= NPT_THRESHOLD) has both witness values
# at or above -12 e - 16 e^2 (README), so neither fires where NPT does not.
WITNESS_TOL = 16 * abs(NPT_THRESHOLD)

# Every Bell state has both squared Schmidt coefficients equal to 1/2; this
# is the constant feeding the Bell-population entropy bounds.
BELL_SCHMIDT_SQ = 0.5

# Above q of about 1023 the Bell-entropy sums of p^q are subnormal or zero
# and decide nothing, so the Bell-entropy tests refuse q above this.
BELL_Q_MAX = 1000.0

# Below q = 1 a Bell population that is 0 but for roundoff (2.8e-17) adds
# its p^q (0.09 at q = 0.0625) to the sum, so the Bell-entropy tests count a
# population at or below this as 0 there; sound within DETECTION_TOL (README).
BELL_POPULATION_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian observable with its spectral decomposition, built from its
    matrix alone: the matrix is copied, checked once by hermitian_eigen and
    kept read-only, as are the projectors.

    ``spectral`` pairs each distinct eigenvalue (ascending) with the
    projector onto its eigenspace; eigenvalues closer than DEGENERACY_TOL
    are merged into a single outcome.
    """

    matrix: np.ndarray
    spectral: tuple[tuple[float, np.ndarray], ...] = field(init=False)

    def __post_init__(self):
        mat = _as_square(np.array(self.matrix, dtype=complex))  # one matrix: hermitian_eigen takes stacks too
        values, vectors = hermitian_eigen(mat)
        groups: list[list[int]] = []
        for idx, val in enumerate(values):
            if groups and val - values[groups[-1][-1]] <= DEGENERACY_TOL:
                groups[-1].append(idx)
            else:
                groups.append([idx])
        spectral = []
        for group in groups:
            vecs = vectors[:, group]
            projector = vecs @ vecs.conj().T
            projector.setflags(write=False)
            spectral.append((float(np.mean(values[group])), projector))
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectral", tuple(spectral))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nondegenerate(self) -> bool:
        return len(self.spectral) == self.dim


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a separability criterion: ``detected`` means the value fell
    strictly below the threshold, certifying entanglement. Values within
    DETECTION_TOL of it (WITNESS_TOL for the witnesses, twice that for
    pauli_lur) count as boundary."""

    value: float
    threshold: float
    detected: bool
    criterion_id: str


def _detects(value: float, threshold: float) -> bool:
    return value < threshold - DETECTION_TOL


def _witness_detects(value):
    """Whether witness values (a float or an array) are below 0 by more than WITNESS_TOL."""
    return value < -WITNESS_TOL


def _check_bound(value, name: str) -> float:
    """A caller-given criterion bound as a finite float."""
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")
    return value


def variance(rho: DensityMatrix, m) -> float:
    """Variance <M^2> - <M>^2 of an observable in a state (clamped at 0).
    ``rho`` and an Observable were checked when built, so both traces are
    read unchecked; a raw matrix is checked once, by building its
    Observable. M^2 is Hermitian only up to roundoff, and is not checked."""
    obs = m if isinstance(m, Observable) else Observable(m)
    if obs.dim != rho.dim:
        raise DimensionMismatchError(f"dimension mismatch: state {rho.dim}, observable {obs.dim}")
    mean = _traces(rho.matrix, obs.matrix)
    second = _traces(rho.matrix, obs.matrix @ obs.matrix)
    return max(second - mean * mean, 0.0)


def lur_value(rho: DensityMatrix, observables, bound: float) -> CriterionVerdict:
    """Summed variances against a local-uncertainty bound that every
    separable state inherits; a value strictly below ``bound``, which must
    be finite, detects entanglement."""
    bound = _check_bound(bound, "bound")
    total = sum(variance(rho, m) for m in observables)
    return CriterionVerdict(total, bound, _detects(total, bound), "lur")


def linear_witness_value(rho: DensityMatrix) -> float:
    """Expectation of I + XX + YY + ZZ; negative values certify entanglement."""
    return _witness_values(*rho._pauli_values)[0]


def nonlinear_witness_value(rho: DensityMatrix) -> CriterionVerdict:
    """Nonlinear refinement of the linear witness: the squared means of the
    collective Paulis are subtracted, so the value never exceeds the linear
    one. Equals (summed collective-Pauli variances - 4)/2."""
    value = _witness_values(*rho._pauli_values)[1]
    return CriterionVerdict(value, 0.0, _witness_detects(value), "nonlinear_witness")


def pauli_lur(rho: DensityMatrix) -> CriterionVerdict:
    """Collective-Pauli uncertainty test: separable two-qubit states keep the
    summed variances of sigma_i x I + I x sigma_i at or above 4. As
    (sigma_i x I + I x sigma_i)^2 = 2 (I + sigma_i x sigma_i), the sum is
    4 Tr(rho) + 2N for the nonlinear witness value N, and N's rule decides it."""
    nonlinear = _witness_values(*rho._pauli_values)[1]
    value = 4.0 * rho._pauli_values[0] + 2.0 * nonlinear
    return CriterionVerdict(value, 4.0, _witness_detects(nonlinear), "pauli_lur")


def _clean_distribution(p) -> np.ndarray:
    probs = np.asarray(p, dtype=float).reshape(-1)
    if probs.size == 0:
        raise InvalidParameterError("empty probability distribution")
    if float(probs.min()) < PROBABILITY_TOL:
        raise InvalidParameterError(
            f"probabilities must be >= {PROBABILITY_TOL}, got minimum {probs.min():g}"
        )
    probs = np.clip(probs, 0.0, None)
    if abs(float(probs.sum()) - 1.0) > PROBABILITY_SUM_TOL:
        raise InvalidParameterError(f"probabilities must sum to 1, got {probs.sum()!r}")
    return probs


def _check_q(q: float) -> float:
    """The Tsallis index ``q``, which must be positive and finite."""
    if not 0.0 < q < math.inf:
        raise InvalidParameterError(f"q must be positive and finite, got {q}")
    return q


def _check_bell_q(q: float) -> float:
    """The Tsallis index ``q`` of a Bell-entropy test, in (0, BELL_Q_MAX]."""
    if not 0.0 < q <= BELL_Q_MAX:
        raise InvalidParameterError(f"q must lie in (0, {BELL_Q_MAX:g}], got {q}")
    return q


def measurement_distribution(rho: DensityMatrix, m: Observable) -> np.ndarray:
    """Outcome probabilities Tr(rho X_i), one per distinct eigenvalue of the
    observable, ordered by ascending eigenvalue. ``rho`` and ``m`` were
    checked when built, so the traces of the stack of projectors are read
    unchecked, and negative roundoff is clipped to 0."""
    if m.dim != rho.dim:
        raise DimensionMismatchError(f"dimension mismatch: state {rho.dim}, observable {m.dim}")
    return np.clip(_traces(rho.matrix, np.array([x for _, x in m.spectral])), 0.0, None)


def _terms(p, q: float):
    """p ln p at q = 1 (0 ln 0 = 0), else p^q, of a nonnegative array by numpy's
    array power, q a Python float: the one entropy step whose bits depend on
    numpy (a Python or numpy scalar's power, or an array exponent, rounds differently)."""
    if q == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, p * np.log(p), 0.0)
    return p**q


def _entropy_from_sum(total, q: float):
    """Tsallis entropy from its term sum, floats or arrays: -total at q = 1, else (1 - total)/(q - 1)."""
    return -total if q == 1.0 else (1.0 - total) / (q - 1.0)


def _entropy(probs: np.ndarray, q: float):
    """Tsallis entropy of nonnegative distributions over the last axis, Shannon at q = 1."""
    return _entropy_from_sum(_terms(probs, q).sum(axis=-1), q)


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0."""
    return float(_entropy(_clean_distribution(p), 1.0))


def tsallis_entropy(p, q: float) -> float:
    """Tsallis entropy (1 - sum p^q)/(q - 1); q = 1 falls back to Shannon."""
    _check_q(q)
    return float(_entropy(_clean_distribution(p), q))


def maassen_bound(m: Observable, n: Observable) -> float:
    """Entropic-uncertainty constant -2 ln(max |<m_i|n_j>|) for two
    nondegenerate observables."""
    for name, obs in (("m", m), ("n", n)):
        if not obs.nondegenerate:
            raise DegenerateObservableError(f"observable {name} has a degenerate spectrum")
    if m.dim != n.dim:
        raise DimensionMismatchError(f"dimension mismatch: {m.dim} vs {n.dim}")
    # Tr(X_i Y_j) = |<m_i|n_j>|^2 for the rank-one projectors X_i of m and Y_j of n;
    # each row sums to Tr X_i = 1, so the largest is at least 1/d
    xs, ys = (np.array([x for _, x in obs.spectral]) for obs in (m, n))
    overlap_sq = min(float(_traces(xs, ys).max()), 1.0)
    return -math.log(overlap_sq)


def entropic_sum_criterion(rho: DensityMatrix, m1: Observable, m2: Observable, c: float) -> CriterionVerdict:
    """Sum of the two Shannon measurement entropies against a bound ``c``.

    The observables must be products of full-rank local observables whose
    single-party measurements obey an entropic uncertainty relation with
    constant ``c``; the caller vouches for ``c`` (maassen_bound is one
    generator), which must be finite. Only full-rankness is checked here:
    an eigenvalue at zero would make the outcome grouping, and hence the
    entropy, ambiguous between the factors and the product.
    """
    c = _check_bound(c, "c")
    for name, obs in (("m1", m1), ("m2", m2)):
        if min(abs(val) for val, _ in obs.spectral) <= DEGENERACY_TOL:
            raise InvalidParameterError(f"observable {name} has an eigenvalue at zero")
    value = float(sum(_entropy(measurement_distribution(rho, m), 1.0) for m in (m1, m2)))
    return CriterionVerdict(value, c, _detects(value, c), "entropic_sum")


def schmidt_entropy_bound(c: float, q: float) -> float:
    """Tsallis-entropy floor for measuring an observable whose eigenvectors all
    have squared Schmidt coefficients at most ``c``: separable states satisfy
    S_q >= (1 - floor(1/c) c^q - (1 - floor(1/c) c)^q) / (q - 1), with the
    Shannon form at q = 1."""
    if not 0.0 < c < 1.0:
        raise InvalidParameterError(f"c must lie in (0, 1), got {c}")
    return _schmidt_bound(c, _check_q(q))


def _schmidt_bound(c: float, q: float) -> float:
    """schmidt_entropy_bound unchecked, its term sum in closed form on Python floats."""
    k = math.floor(1.0 / c)
    r = max(1.0 - k * c, 0.0)
    if q == 1.0:
        return _entropy_from_sum(k * c * math.log(c) + (r * math.log(r) if r > 0.0 else 0.0), q)
    return _entropy_from_sum(k * c**q + r**q, q)


def _bell_row(rho: DensityMatrix, *extra) -> np.ndarray:
    """bell_populations(rho) followed by ``extra``, each clamped at 0 on
    Python floats (a -0.0 gives +0.0, as np.maximum gives it), as one fresh
    array."""
    t, _, _, _, x, y, z = rho._pauli_values
    return np.array([c if c > 0.0 else 0.0 for c in (*_bell_columns(x, y, z, t), *extra)])


def bell_populations(rho: DensityMatrix) -> np.ndarray:
    """The four Bell-state populations <BS_i|rho|BS_i> of a two-qubit state,
    from its trace and correlators, as a fresh array. ``rho`` is a validated
    state, so negative roundoff is clipped to 0 rather than re-checked."""
    return _bell_row(rho)


def _bell_terms(p, q: float):
    """_terms of Bell populations, with each at or below BELL_POPULATION_FLOOR
    counted as 0 when q < 1."""
    return _terms(np.where(p > BELL_POPULATION_FLOOR, p, 0.0) if q < 1.0 else p, q)


def _bell_tsallis_decision(terms, half, q: float):
    """The one Bell-entropy decision, on Python floats or on arrays: whether
    the four population terms of _bell_terms, added as np.sum adds a length-4
    axis, give a Tsallis entropy (Shannon at q = 1) below the Schmidt bound
    for c = 1/2, and their sum. The bound is 2 * half, the term sum of (1/2,
    1/2, 0, 0) by the same power, so no 1 - sum(p^q) cancels at large q and
    both stay equal where subnormal (q above 1022). The guard is absolute at
    q = 1, relative elsewhere. Float + and comparisons round as numpy's do."""
    t0, t1, t2, t3 = terms
    total = ((t0 + t1) + t2) + t3
    bound = 2.0 * half
    if q == 1.0:  # sum p ln p above 2 * 0.5 ln 0.5 = -ln 2
        return total > bound + DETECTION_TOL, total
    if q < 1.0:
        return total < bound * (1.0 - DETECTION_TOL), total
    return total > bound * (1.0 + DETECTION_TOL), total


def _bell_tsallis_detects(columns, q: float):
    """The Bell-entropy decision on four nonnegative population columns
    (arrays, or the rows of a (4, ...) array), as the geometry scan takes it."""
    return _bell_tsallis_decision([_bell_terms(c, q) for c in columns], _terms(np.array(0.5), q), q)


def _bell_tsallis_verdict(rho: DensityMatrix, q: float, criterion_id: str) -> CriterionVerdict:
    """One state's Bell-entropy verdict for a checked q: one array power of the
    row of its four clamped populations and 0.5, then the decision on its floats."""
    *terms, half = _bell_terms(_bell_row(rho, 0.5), q).tolist()
    detected, total = _bell_tsallis_decision(terms, half, q)
    return CriterionVerdict(_entropy_from_sum(total, q), _schmidt_bound(BELL_SCHMIDT_SQ, q), detected, criterion_id)


def bell_variance_criterion(rho: DensityMatrix) -> CriterionVerdict:
    """Summed variances of the four Bell projectors, 1 - sum_i p_i^2, which
    separable states keep at or above 1/2. This is the q = 2 Tsallis test
    under its own id; on Bell-diagonal states it detects exactly
    x^2 + y^2 + z^2 > 1."""
    return _bell_tsallis_verdict(rho, 2.0, "bell_variance")


def bell_tsallis_criterion(rho: DensityMatrix, q: float) -> CriterionVerdict:
    """Tsallis entropy of the Bell-population distribution against the
    Schmidt bound for c = 1/2; strengthens with growing q and reproduces the
    Bell-variance test at q = 2. A q above BELL_Q_MAX is refused. The id
    names q by its shortest round-trip form without a trailing ".0", so
    distinct q get distinct ids (bell_tsallis_q2, bell_tsallis_q1.0000001)."""
    name = repr(float(_check_bell_q(q))).removesuffix(".0")
    return _bell_tsallis_verdict(rho, q, "bell_tsallis_q" + name)


def _linear_witness_verdicts(rho: DensityMatrix, q_values) -> list[CriterionVerdict]:
    value = linear_witness_value(rho)
    return [CriterionVerdict(value, 0.0, _witness_detects(value), "linear_witness")]


# criterion id -> verdicts for (state, q values). Each entry looks its
# criterion up by name when called, so a wrapper swapped into this module
# (as the benchmark's tracer does) is the one that runs.
_CRITERIA = {
    "linear_witness": _linear_witness_verdicts,
    "nonlinear_witness": lambda rho, q_values: [nonlinear_witness_value(rho)],
    "pauli_lur": lambda rho, q_values: [pauli_lur(rho)],
    "bell_variance": lambda rho, q_values: [bell_variance_criterion(rho)],
    "bell_tsallis": lambda rho, q_values: [bell_tsallis_criterion(rho, q) for q in q_values],
}
CRITERION_CHOICES = tuple(_CRITERIA)
