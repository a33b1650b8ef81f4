"""Two-qubit state construction and validation: density matrices, Bell
states, Schmidt coefficients, the noisy-singlet family with its
Hilbert-Schmidt noise ball, Bell-diagonal geometry, the partial-transpose
test, and JSON (de)serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightError,
    NotPositiveError,
    RejectionOverflowError,
    StateFormatError,
    StateInvariantError,
)
from .linalg import (
    HERMITICITY_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expectation,
    hermitian_eigen,
    hermiticity_defect,
    kron,
    partial_transpose,
)

# A state counts as NPT only when the partial transpose has an eigenvalue
# below this; values in (NPT_THRESHOLD, 0) are treated as roundoff.
NPT_THRESHOLD = -1e-9

TRACE_TOL = 1e-10
PSD_TOL = -1e-9
POPULATION_TOL = -1e-12

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite density matrix: Hermitian, unit trace, positive semidefinite.

    Invariants are checked on construction; violations raise
    StateInvariantError naming every failed invariant.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", (int(self.dims[0]), int(self.dims[1])))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        if self.dims[0] < 1 or self.dims[1] < 1 or self.dims[0] * self.dims[1] != m.shape[0]:
            raise DimensionMismatchError(
                f"dims {self.dims} do not factor matrix dimension {m.shape[0]}"
            )
        violations = density_matrix_violations(m)
        if violations:
            raise StateInvariantError(violations)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_matrix_violations(m: np.ndarray) -> list[str]:
    """Names of the density-matrix invariants violated by ``m`` (empty = valid)."""
    violations = []
    if not np.isfinite(m).all():
        return ["finite_entries"]
    if hermiticity_defect(m) > HERMITICITY_TOL:
        violations.append("hermitian")
    if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
        violations.append("unit_trace")
    if "hermitian" not in violations:
        # the same LAPACK solver as hermitian_eigen, eigenvalues only
        if float(np.linalg.eigvalsh(m)[0]) < PSD_TOL:
            violations.append("positive_semidefinite")
    return violations


@dataclass(frozen=True)
class PureState:
    """A normalized pure state on a bipartite system."""

    amplitudes: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "dims", (int(self.dims[0]), int(self.dims[1])))
        if self.dims[0] * self.dims[1] != a.size:
            raise DimensionMismatchError(
                f"dims {self.dims} do not factor vector length {a.size}"
            )
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise StateInvariantError(["unit_norm"])

    def density(self) -> DensityMatrix:
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


class BellDiagonalCoords(NamedTuple):
    """Correlation coordinates (Tr(rho sigma_i x sigma_i) for i = x, y, z)."""

    x: float
    y: float
    z: float


def _check_radius(d: float) -> float:
    """The noise-ball radius ``d``, which must lie in [0, sqrt(3)/2]: sqrt(3)/2
    is the largest distance from I/4 to any 4x4 state. NaN is rejected."""
    if not 0.0 <= d <= np.sqrt(3.0) / 2.0:
        raise InvalidParameterError(f"d must lie in [0, sqrt(3)/2], got {d}")
    return d


def _check_weight(p: float) -> float:
    """The singlet weight ``p`` of a noisy singlet, which must lie in [0, 1].
    NaN is rejected."""
    if not 0.0 <= p <= 1.0:
        raise InvalidWeightError(f"p must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class NoiseBallConfig:
    """Parameters of the noisy-singlet ensemble: noise-ball radius ``d``
    (Hilbert-Schmidt units), RNG ``seed`` and draw count ``samples``."""

    d: float = 0.2
    seed: int = 42
    samples: int = 2000

    def __post_init__(self):
        _check_radius(self.d)
        if self.samples < 1:
            raise InvalidParameterError(f"samples must be positive, got {self.samples}")


_BELL_AMPLITUDES = (
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0),
)


def bell_states() -> tuple[PureState, PureState, PureState, PureState]:
    """The four Bell states, in the order (|00>+|11>, |00>-|11>, |01>+|10>, |01>-|10>)/sqrt(2)."""
    return tuple(PureState(a, (2, 2)) for a in _BELL_AMPLITUDES)


def bell_state(i: int) -> PureState:
    """Bell state number ``i`` (1-based); number 4 is the singlet."""
    if i not in (1, 2, 3, 4):
        raise InvalidParameterError(f"Bell state index must be 1..4, got {i}")
    return bell_states()[i - 1]


def singlet_projector() -> np.ndarray:
    """4x4 projector onto the singlet state."""
    a = _BELL_AMPLITUDES[3]
    return np.outer(a, a.conj())


def maximally_mixed(dims: tuple[int, int] = (2, 2)) -> DensityMatrix:
    n = dims[0] * dims[1]
    return DensityMatrix(np.eye(n, dtype=complex) / n, dims)


def schmidt_coefficients(psi: PureState) -> np.ndarray:
    """Schmidt coefficients (descending singular values of the amplitude matrix);
    their squares sum to one."""
    da, db = psi.dims
    coeffs = np.linalg.svd(psi.amplitudes.reshape(da, db), compute_uv=False)
    if abs(float(np.sum(coeffs**2)) - 1.0) > 1e-10:
        raise StateInvariantError(["unit_norm"])
    return coeffs


def noisy_singlet(p: float, sigma: DensityMatrix) -> DensityMatrix:
    """Mixture p |psi-><psi-| + (1-p) sigma of the singlet with separable noise."""
    _check_weight(p)
    if sigma.dims != (2, 2):
        raise DimensionMismatchError(f"sigma must be a 2x2-qubit state, got dims {sigma.dims}")
    return DensityMatrix(p * singlet_projector() + (1.0 - p) * sigma.matrix, (2, 2))


def werner_state(p: float) -> DensityMatrix:
    """Noisy singlet with white noise: p |psi-><psi-| + (1-p) I/4."""
    return noisy_singlet(p, maximally_mixed())


_NOISE_ROUND = 16  # candidates per round after a rejected first candidate


def _noise_candidates(d: float, normals: np.ndarray, uniforms: np.ndarray):
    """Noise candidates from (n, 2, 4, 4) normals and n uniforms, and which are
    accepted: I/4 plus the traceless Hermitian part G of normals[:, 0] + i
    normals[:, 1] at radius d * u^(1/15), kept if PSD and G != 0. Norms are per
    matrix and radii Python floats, so a candidate's bits ignore its batch."""
    eye4 = np.eye(4, dtype=complex)
    x = normals[:, 0] + 1j * normals[:, 1]
    h = (x + x.conj().transpose(0, 2, 1)) / 2.0
    g = h - (np.trace(h, axis1=1, axis2=2).real / 4.0)[:, None, None] * eye4
    norms = [float(np.linalg.norm(m)) for m in g]
    radii = [d * u ** (1.0 / 15.0) for u in uniforms.tolist()]
    scale = [r / norm if norm >= 1e-12 else 0.0 for r, norm in zip(radii, norms)]
    sigma = eye4 / 4.0 + np.array(scale)[:, None, None] * g
    accepted = (np.linalg.eigvalsh(sigma)[:, 0] >= PSD_TOL) & (np.array(norms) >= 1e-12)
    return sigma, accepted


def _draw_noise_matrix(d: float, rng: np.random.Generator, max_attempts: int = 10**6) -> np.ndarray:
    """One 4x4 noise matrix from the radius-``d`` Hilbert-Schmidt ball around
    I/4: the first accepted of _noise_candidates drawn from ``rng``, first
    alone, then _NOISE_ROUND per round (normals, then uniforms). The last
    round is cut so that at most ``max_attempts`` candidates are drawn."""
    drawn = 0
    while drawn < max_attempts:
        n = min(_NOISE_ROUND if drawn else 1, max_attempts - drawn)
        sigma, accepted = _noise_candidates(d, rng.standard_normal((n, 2, 4, 4)), rng.uniform(size=n))
        drawn += n
        if accepted.any():
            return sigma[np.argmax(accepted)]
    raise RejectionOverflowError(
        f"no positive-semidefinite draw in {max_attempts} attempts (d={d} too large)"
    )


def sample_noise_ball(d: float, rng: np.random.Generator) -> DensityMatrix:
    """Random noise state sigma with ||sigma - I/4|| <= d (see _draw_noise_matrix)."""
    return DensityMatrix(_draw_noise_matrix(_check_radius(d), rng), (2, 2))


def noise_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for stream ``(seed, *stream)``; independent streams
    for distinct tuples, identical across worker layouts."""
    key = [seed & _SEED_MASK] + [int(s) & _SEED_MASK for s in stream]
    return np.random.default_rng(np.random.SeedSequence(key))


def _draw_noise_block(seed: int, d: float, start: int, stop: int) -> np.ndarray:
    """Noise matrices sigma_i = sample_noise_ball(d, noise_rng(seed, i)).matrix
    for i in [start, stop), with all first candidates built as one batch. A
    sample whose first candidate is rejected is redrawn by _draw_noise_matrix
    on a fresh stream with the same key, which replays that candidate."""
    n = stop - start
    if d == 0.0:
        return np.tile(np.eye(4, dtype=complex) / 4.0, (n, 1, 1))
    normals = np.empty((n, 2, 4, 4))
    uniforms = np.empty(n)
    # one generator at a time: a block's worth of them would hold about 1 MB
    for j, i in enumerate(range(start, stop)):
        rng = noise_rng(seed, i)
        normals[j] = rng.standard_normal((2, 4, 4))
        uniforms[j] = rng.uniform()
    sigma, accepted = _noise_candidates(d, normals, uniforms)
    for j in np.flatnonzero(~accepted):
        sigma[j] = _draw_noise_matrix(d, noise_rng(seed, start + j))
    return sigma


def is_npt(rho: DensityMatrix) -> tuple[bool, float]:
    """Whether the partial transpose has a negative eigenvalue, plus that
    minimum eigenvalue. For two qubits NPT is equivalent to entanglement."""
    pt = partial_transpose(rho.matrix, rho.dims)
    min_eig = float(hermitian_eigen(pt).eigenvalues[0])
    return min_eig < NPT_THRESHOLD, min_eig


def bell_populations_from_coords(c) -> np.ndarray:
    """Bell-state populations of the Bell-diagonal state with coordinates
    ``c``: shape (4,) for one (x, y, z) triple, (..., 4) for a (..., 3) stack."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (3,):
        raise DimensionMismatchError(f"coordinates need a last axis of length 3, got {c.shape}")
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    return np.stack(
        [
            (1.0 + x - y + z) / 4.0,
            (1.0 - x + y + z) / 4.0,
            (1.0 + x + y - z) / 4.0,
            (1.0 - x - y - z) / 4.0,
        ],
        axis=-1,
    )


def _tetrahedron_mask(populations: np.ndarray):
    """Whether Bell populations (..., 4) are all nonnegative, i.e. a state."""
    return populations.min(axis=-1) >= POPULATION_TOL


def _octahedron_mask(populations: np.ndarray):
    """Whether Bell populations (..., 4) are a state's and all at most 1/2."""
    return _tetrahedron_mask(populations) & (populations.max(axis=-1) <= 0.5 - POPULATION_TOL)


def bell_diagonal_state(c) -> DensityMatrix:
    """Bell-diagonal state (I + x XX + y YY + z ZZ)/4 for coordinates ``c``.

    Raises NotPositiveError when any Bell population is negative, i.e. the
    coordinates lie outside the state tetrahedron.
    """
    populations = bell_populations_from_coords(c)
    if not _tetrahedron_mask(populations):
        raise NotPositiveError(
            f"coordinates {tuple(c)} lie outside the state set "
            f"(minimum Bell population {populations.min():g})"
        )
    x, y, z = (float(v) for v in c)
    m = (
        np.eye(4, dtype=complex)
        + x * kron(SIGMA_X, SIGMA_X)
        + y * kron(SIGMA_Y, SIGMA_Y)
        + z * kron(SIGMA_Z, SIGMA_Z)
    ) / 4.0
    return DensityMatrix(m, (2, 2))


def coords_of(rho: DensityMatrix) -> BellDiagonalCoords:
    """Correlation coordinates (Tr(rho sigma_i x sigma_i))_{i=x,y,z} of a two-qubit state."""
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"coordinates require a 2x2-qubit state, got {rho.dims}")
    return BellDiagonalCoords(
        expectation(rho.matrix, kron(SIGMA_X, SIGMA_X)),
        expectation(rho.matrix, kron(SIGMA_Y, SIGMA_Y)),
        expectation(rho.matrix, kron(SIGMA_Z, SIGMA_Z)),
    )


def in_state_tetrahedron(c) -> bool:
    """True when the coordinates describe a valid (PSD) Bell-diagonal state."""
    return bool(_tetrahedron_mask(bell_populations_from_coords(c)))


def in_witness_octahedron(c) -> bool:
    """True when the coordinates pass every Bell-projector witness, i.e. the
    state region where all four populations stay at or below one half."""
    return bool(_octahedron_mask(bell_populations_from_coords(c)))


def random_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> PureState:
    """Haar-random pure state on the bipartite system."""
    n = dims[0] * dims[1]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(v / np.linalg.norm(v), dims)


def random_product_state(dims: tuple[int, int], rng: np.random.Generator) -> PureState:
    """Random product state |a> x |b> with Haar-random factors."""
    parts = []
    for n in dims:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        parts.append(v / np.linalg.norm(v))
    return PureState(np.kron(parts[0], parts[1]), dims)


def random_separable_state(k: int, rng: np.random.Generator, dims: tuple[int, int] = (2, 2)) -> DensityMatrix:
    """Random mixture of ``k`` random product states with uniform simplex weights."""
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    weights = rng.exponential(size=k)
    weights /= weights.sum()
    n = dims[0] * dims[1]
    m = np.zeros((n, n), dtype=complex)
    for w in weights:
        a = random_product_state(dims, rng).amplitudes
        m += w * np.outer(a, a.conj())
    return DensityMatrix(m, dims)


def random_density_matrix(dims: tuple[int, int], rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state G G^dagger / Tr(G G^dagger) with Ginibre G."""
    n = dims[0] * dims[1]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def save_state(rho: DensityMatrix, path) -> None:
    """Write a density matrix as JSON: {"dims": [dA, dB], "re": [[...]], "im": [[...]]}."""
    payload = {
        "dims": list(rho.dims),
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_state(path) -> DensityMatrix:
    """Read a density matrix from the JSON format written by save_state.

    Raises StateFormatError for malformed files (bad JSON, missing keys,
    inconsistent shapes) and StateInvariantError, naming the failed
    invariants, for well-formed files whose matrix is not a valid state.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFormatError(f"cannot parse state file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateFormatError("state file must contain a JSON object")
    for key in ("dims", "re", "im"):
        if key not in payload:
            raise StateFormatError(f"state file is missing key '{key}'")
    dims = payload["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise StateFormatError(f"'dims' must be two positive integers, got {dims!r}")
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"'re'/'im' must be numeric matrices: {exc}") from exc
    n = dims[0] * dims[1]
    if re.shape != (n, n) or im.shape != (n, n):
        raise StateFormatError(
            f"'re'/'im' must have shape ({n}, {n}) for dims {dims}, "
            f"got {re.shape} and {im.shape}"
        )
    return DensityMatrix(re + 1j * im, (dims[0], dims[1]))
