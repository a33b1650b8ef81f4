"""Two-qubit state construction and validation: density matrices, Bell
states, Schmidt coefficients, the noisy-singlet family with its
Hilbert-Schmidt noise ball, Bell-diagonal geometry, the partial-transpose
test, and JSON (de)serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
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
    ID2,
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
UNIT_NORM_TOL = 1e-12
PSD_TOL = -1e-9
POPULATION_TOL = -1e-12

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite density matrix: Hermitian, unit trace, positive semidefinite.

    Invariants are checked on construction; violations raise
    StateInvariantError naming every failed invariant. The Hermitian part
    (m + m^dagger)/2 of a valid m is kept, which is exactly Hermitian, as a
    read-only array, so that what was checked and computed from it holds.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _check_dims(self.dims))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        if self.dims[0] < 1 or self.dims[1] < 1 or self.dims[0] * self.dims[1] != m.shape[0]:
            raise DimensionMismatchError(
                f"dims {self.dims} do not factor matrix dimension {m.shape[0]}"
            )
        violations = density_matrix_violations(m)
        if violations:
            raise StateInvariantError(violations)
        hermitian = (m + m.conj().T) / 2.0
        hermitian.setflags(write=False)
        object.__setattr__(self, "matrix", hermitian)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _pauli_values(self) -> np.ndarray:
        """Tr(rho P) for the seven P of _PAULI_BASIS, from one expectation
        call made at most once per state; read-only. Every two-qubit
        criterion reads its values from these."""
        if self.dims != (2, 2):
            raise DimensionMismatchError(f"the Pauli values require a 2x2-qubit state, got dims {self.dims}")
        values = expectation(self.matrix, _PAULI_BASIS)
        values.setflags(write=False)
        return values

    @cached_property
    def _witnesses(self) -> tuple[float, float, float]:
        """(Tr rho, linear, nonlinear witness value) from one _witness_values
        call on the Pauli values as a batch of one, made at most once."""
        linear, nonlinear = _witness_values(self._pauli_values[None])
        return float(self._pauli_values[0]), float(linear[0]), float(nonlinear[0])

    @cached_property
    def _bell_populations(self) -> np.ndarray:
        """The four Bell populations from one _bell_columns call on the
        correlators and the trace, with negative roundoff clipped to 0 (rho
        is valid); read-only."""
        populations = np.maximum(_bell_columns(*self._pauli_values[[4, 5, 6, 0]]), 0.0)
        populations.setflags(write=False)
        return populations


def _check_dims(dims) -> tuple[int, int]:
    """``dims`` as a pair of ints. A float or boolean entry is refused, not
    truncated."""
    if len(dims) != 2 or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in dims):
        raise DimensionMismatchError(f"dims must be two integers, got {dims!r}")
    return int(dims[0]), int(dims[1])


def density_matrix_violations(m: np.ndarray) -> list[str]:
    """Names of the density-matrix invariants violated by ``m`` (empty = valid)."""
    violations = []
    if not np.isfinite(m).all():
        return ["finite_entries"]
    if hermiticity_defect(m) > HERMITICITY_TOL:
        violations.append("hermitian")
    trace = complex(np.trace(m))
    if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
        violations.append("unit_trace")
    if "hermitian" not in violations:
        # values only, as _noise_candidates decides PSD, so that every
        # accepted noise candidate passes this check
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
        object.__setattr__(self, "dims", _check_dims(self.dims))
        if self.dims[0] * self.dims[1] != a.size:
            raise DimensionMismatchError(
                f"dims {self.dims} do not factor vector length {a.size}"
            )
        if abs(np.linalg.norm(a) - 1.0) > UNIT_NORM_TOL:
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


# The seven observables whose values decide every two-qubit criterion, built
# once: I, the collective Paulis sigma_i x I + I x sigma_i and the
# correlators sigma_i x sigma_i (i = x, y, z).
_PAULI_BASIS = np.array(
    [np.eye(4, dtype=complex)]
    + [kron(s, ID2) + kron(ID2, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    + [kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
)
_PAULI_BASIS.setflags(write=False)
_CORRELATORS = _PAULI_BASIS[4:]

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
    their squares sum to one, as the validated PureState has unit norm."""
    da, db = psi.dims
    return np.linalg.svd(psi.amplitudes.reshape(da, db), compute_uv=False)


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
_NOISE_NORM_FLOOR = 1e-12  # a candidate G with a smaller norm is not scaled, and is rejected
_MAX_NOISE_ATTEMPTS = 10**6  # candidates drawn before a draw overflows
_MAX_SEPARABLE_COMPONENTS = 20_000  # about 50 us each, so random_separable_state takes about 1 s


def _noise_candidates(d: float, normals: np.ndarray, uniforms: np.ndarray):
    """Noise candidates from (n, 2, 4, 4) normals and n uniforms, and which are
    accepted: I/4 plus the traceless Hermitian part G of normals[:, 0] + i
    normals[:, 1] at radius d * u^(1/15), kept if PSD and G != 0. Norms are per
    matrix and radii Python floats, so a candidate's bits ignore its batch."""
    eye4 = np.eye(4, dtype=complex)
    x = normals[:, 0] + 1j * normals[:, 1]
    h = (x + x.conj().transpose(0, 2, 1)) / 2.0
    g = h - (np.trace(h, axis1=1, axis2=2).real / 4.0)[:, None, None] * eye4
    # the two strided dots np.linalg.norm takes of each matrix, so the same bits
    n = len(g)
    norms = [math.sqrt(r.dot(r) + i.dot(i)) for r, i in zip(g.real.reshape(n, 16), g.imag.reshape(n, 16))]
    radii = [d * u ** (1.0 / 15.0) for u in uniforms.tolist()]
    scale = [r / norm if norm >= _NOISE_NORM_FLOOR else 0.0 for r, norm in zip(radii, norms)]
    sigma = eye4 / 4.0 + np.array(scale)[:, None, None] * g
    accepted = (np.linalg.eigvalsh(sigma)[:, 0] >= PSD_TOL) & (np.array(norms) >= _NOISE_NORM_FLOOR)
    return sigma, accepted


def _draw_noise_matrix(d: float, rng: np.random.Generator) -> np.ndarray:
    """One 4x4 noise matrix from the radius-``d`` Hilbert-Schmidt ball around
    I/4: the first accepted of _noise_candidates drawn from ``rng``, first
    alone, then _NOISE_ROUND per round (normals, then uniforms). The last
    round is cut so that at most _MAX_NOISE_ATTEMPTS candidates are drawn."""
    drawn = 0
    while drawn < _MAX_NOISE_ATTEMPTS:
        n = min(_NOISE_ROUND if drawn else 1, _MAX_NOISE_ATTEMPTS - drawn)
        sigma, accepted = _noise_candidates(d, rng.standard_normal((n, 2, 4, 4)), rng.uniform(size=n))
        drawn += n
        if accepted.any():
            return sigma[np.argmax(accepted)]
    raise RejectionOverflowError(
        f"no positive-semidefinite draw in {_MAX_NOISE_ATTEMPTS} attempts (d={d} too large)"
    )


def sample_noise_ball(d: float, rng: np.random.Generator) -> DensityMatrix:
    """Random noise state sigma with ||sigma - I/4|| <= d (see _draw_noise_matrix)."""
    return DensityMatrix(_draw_noise_matrix(_check_radius(d), rng), (2, 2))


def noise_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for stream ``(seed, *stream)``; independent streams
    for distinct tuples, identical across worker layouts."""
    key = [seed & _SEED_MASK] + [int(s) & _SEED_MASK for s in stream]
    return np.random.default_rng(np.random.SeedSequence(key))


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``calls`` successive SeedSequence hashes whose constant
    starts at ``init`` and is multiplied by ``mult`` in each call: the one the
    word is xored with, and the one it is then multiplied by, as (calls, 1)
    uint32 columns."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h[:-1], dtype=np.uint32)[:, None], np.array(h[1:], dtype=np.uint32)[:, None]


# numpy's SeedSequence with its pool of 4 words: 16 hashes mix the entropy
# into the pool, 8 more generate the 4 uint64 words that seed PCG64
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _seed_hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 words, row by row, with wraparound."""
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _pcg64_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of noise_rng(seed, i) for every i in [start,
    stop), stop <= 2^64, computed for all keys at once from numpy's
    documented algorithms: SeedSequence over the key's uint32 words, then
    PCG64's seeding step (O'Neill, HMC-CS-2014-0905)."""
    seed &= _SEED_MASK
    i = np.arange(start, stop, dtype=np.uint64)
    # A key of (seed, i) has at most 4 words, the pool size, and SeedSequence
    # pads a shorter key with zero words, so the high word of an i below 2^32
    # may stay in as a zero: the keys of a block are one (4, n) batch.
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    key = [np.full(len(i), w, dtype=np.uint32) for w in seed_words]
    key += [i.astype(np.uint32), (i >> 32).astype(np.uint32), np.zeros(len(i), dtype=np.uint32)]
    pool = _seed_hash(np.stack(key[:4]), *(c[:4] for c in _MIX_HASH))
    for k in range(4):
        # pool word k, hashed once for each other word, is mixed into it
        others = [j for j in range(4) if j != k]
        hashed = _seed_hash(pool[k], *(c[4 + 3 * k : 7 + 3 * k] for c in _MIX_HASH))
        mixed = 0xCA01F9DD * pool[others] - 0x4973F715 * hashed  # SeedSequence's mix
        pool[others] = mixed ^ (mixed >> 16)
    out = _seed_hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_HASH).astype(np.uint64)
    # little-endian word pairs give the uint64s (s0, s1, i0, i1), and PCG64
    # seeds itself with state s0:s1 and stream i0:i1, as 128-bit integers
    states = []
    for s0, s1, i0, i1 in zip(*(out[0::2] | out[1::2] << 32).tolist()):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK_128
        states.append((((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK_128, inc))
    return states


def _draw_noise_block(seed: int, d: float, start: int, stop: int) -> np.ndarray:
    """Noise matrices sigma_i = sample_noise_ball(d, noise_rng(seed, i)).matrix
    for i in [start, stop), with all first candidates built as one batch. The
    keys are seeded by _pcg64_states, each on one reused generator. A sample
    whose first candidate is rejected is redrawn by _draw_noise_matrix on
    noise_rng(seed, i), which replays that candidate."""
    n = stop - start
    if d == 0.0:
        return np.tile(np.eye(4, dtype=complex) / 4.0, (n, 1, 1))
    normals = np.empty((n, 2, 4, 4))
    uniforms = np.empty(n)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for j, (state, inc) in enumerate(_pcg64_states(seed, start, stop)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_normal(out=normals[j])
        uniforms[j] = rng.random()  # uniform() is 0 + 1 * random(): the same bits
    sigma, accepted = _noise_candidates(d, normals, uniforms)
    for j in np.flatnonzero(~accepted):
        sigma[j] = _draw_noise_matrix(d, noise_rng(seed, start + j))
    return sigma


def _min_pt_eigenvalues(stack: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The least eigenvalue of the partial transpose of each matrix in a
    (..., n, n) stack: the one NPT kernel, which is_npt runs on a batch of
    one and the sweep's per-p kernel on a stack of samples."""
    return hermitian_eigen(partial_transpose(stack, dims)).eigenvalues[..., 0]


def is_npt(rho: DensityMatrix) -> tuple[bool, float]:
    """Whether the partial transpose has an eigenvalue below NPT_THRESHOLD,
    plus its minimum eigenvalue. For two qubits NPT is equivalent to
    entanglement."""
    min_eig = float(_min_pt_eigenvalues(rho.matrix[None], rho.dims)[0])
    return min_eig < NPT_THRESHOLD, min_eig


def _witness_values(values):
    """The linear and the nonlinear witness values from Pauli values: the
    last axis holds Tr(rho P) for the seven P of _PAULI_BASIS. The linear
    value is Tr(rho (I + XX + YY + ZZ)); the nonlinear one subtracts half
    the summed squared collective-Pauli means."""
    t, mx, my, mz, x, y, z = (values[..., k] for k in range(7))
    linear = t + x + y + z
    return linear, linear - 0.5 * (mx**2 + my**2 + mz**2)


def _bell_columns(x, y, z, t=1.0):
    """The four Bell populations of the states with trace t and correlators
    x, y, z, as four arrays of their broadcast shape: the population
    columns that the Bell decisions take. A Bell projector is
    (I +- XX +- YY +- ZZ)/4, so this holds for any two-qubit state, not
    only a Bell-diagonal one."""
    return (
        (t + x - y + z) / 4.0,
        (t - x + y + z) / 4.0,
        (t + x + y - z) / 4.0,
        (t - x - y - z) / 4.0,
    )


def bell_populations_from_coords(c) -> np.ndarray:
    """Bell-state populations of the Bell-diagonal state with coordinates
    ``c``: shape (4,) for one (x, y, z) triple, (..., 4) for a (..., 3) stack."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (3,):
        raise DimensionMismatchError(f"coordinates need a last axis of length 3, got {c.shape}")
    return np.stack(_bell_columns(c[..., 0], c[..., 1], c[..., 2]), axis=-1)


def _tetrahedron_mask(columns):
    """Whether the four Bell population columns (arrays of one shape, such as
    the rows of a transposed (..., 4) stack) are all nonnegative, i.e. a state."""
    c0, c1, c2, c3 = columns
    return np.minimum(np.minimum(c0, c1), np.minimum(c2, c3)) >= POPULATION_TOL


def _octahedron_mask(columns, is_state):
    """Whether the four Bell population columns, whose _tetrahedron_mask is
    ``is_state``, are a state's and all at most 1/2."""
    c0, c1, c2, c3 = columns
    return is_state & (np.maximum(np.maximum(c0, c1), np.maximum(c2, c3)) <= 0.5 - POPULATION_TOL)


def bell_diagonal_state(c) -> DensityMatrix:
    """Bell-diagonal state (I + x XX + y YY + z ZZ)/4 for coordinates ``c``.

    Raises NotPositiveError when any Bell population is negative, i.e. the
    coordinates lie outside the state tetrahedron.
    """
    populations = bell_populations_from_coords(c)
    if not _tetrahedron_mask(populations.T):
        raise NotPositiveError(
            f"coordinates {tuple(c)} lie outside the state set "
            f"(minimum Bell population {populations.min():g})"
        )
    terms = (float(v) * m for v, m in zip(c, _CORRELATORS))
    return DensityMatrix(sum(terms, np.eye(4, dtype=complex)) / 4.0, (2, 2))


def coords_of(rho: DensityMatrix) -> BellDiagonalCoords:
    """Correlation coordinates (Tr(rho sigma_i x sigma_i))_{i=x,y,z} of a two-qubit state."""
    return BellDiagonalCoords(*map(float, rho._pauli_values[4:]))


def in_state_tetrahedron(c) -> bool:
    """True when the coordinates describe a valid (PSD) Bell-diagonal state."""
    return bool(_tetrahedron_mask(bell_populations_from_coords(c).T))


def in_witness_octahedron(c) -> bool:
    """True when the coordinates pass every Bell-projector witness, i.e. the
    state region where all four populations stay at or below one half."""
    columns = bell_populations_from_coords(c).T
    return bool(_octahedron_mask(columns, _tetrahedron_mask(columns)))


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
    if not 1 <= k <= _MAX_SEPARABLE_COMPONENTS:
        raise InvalidParameterError(f"k must lie in [1, {_MAX_SEPARABLE_COMPONENTS}], got {k}")
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
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge int, deep nesting
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
        or not all(type(d) is int and d >= 1 for d in dims)  # a JSON bool is an int
    ):
        raise StateFormatError(f"'dims' must be two positive integers, got {dims!r}")
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond the floats
        raise StateFormatError(f"'re'/'im' must be numeric matrices: {exc}") from exc
    n = dims[0] * dims[1]
    if re.shape != (n, n) or im.shape != (n, n):
        raise StateFormatError(
            f"'re'/'im' must have shape ({n}, {n}) for dims {dims}, "
            f"got {re.shape} and {im.shape}"
        )
    m = re.astype(complex)
    m.imag = im  # set, not added, so that a zero keeps its sign
    return DensityMatrix(m, (dims[0], dims[1]))
