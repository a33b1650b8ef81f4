"""Property tests: every scalar criterion and the NPT test are their batch
kernel applied to a batch of one, so scalar results equal the batch results
over generated stacks of states; the least partial-transpose eigenvalue is
invariant under local unitaries; a state's Pauli values do not depend on the
stack they are computed in, and every two-qubit criterion and the
coordinates read them from the validated state; the old per-criterion
formulas stay here as oracles; the sweep's closed-form flags equal the
per-p kernel's; the batched noise draws equal the scalar sampler's; and
neither witness, nor pauli_lur, fires on a PPT state."""

import numpy as np
import pytest

import uwit.criteria
import uwit.states

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from haar import COLLECTIVE_PAULIS, ROUNDOFF_EPS, haar_unitary
from uwit.criteria import (
    BELL_POPULATION_FLOOR,
    DETECTION_TOL,
    WITNESS_TOL,
    _bell_tsallis_decision,
    _bell_tsallis_detects,
    _entropy,
    _witness_detects,
    _witness_values,
    bell_populations,
    bell_tsallis_criterion,
    bell_variance_criterion,
    linear_witness_value,
    lur_value,
    nonlinear_witness_value,
    pauli_lur,
)
from uwit.errors import NumericalDefectError
from uwit.experiments import (
    _block_flags,
    _sweep_flags,
    evaluate_detection_flags,
    run_detection_sweep,
)
from uwit.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, expectation, kron, partial_transpose
from uwit.states import (
    _PAULI_BASIS,
    NPT_THRESHOLD,
    PSD_TOL,
    DensityMatrix,
    NoiseBallConfig,
    _bell_columns,
    _draw_noise_block,
    _min_pt_eigenvalues,
    _noise_candidates,
    bell_diagonal_state,
    bell_states,
    coords_of,
    in_state_tetrahedron,
    is_npt,
    noise_rng,
    noisy_singlet,
    random_density_matrix,
    random_separable_state,
    sample_noise_ball,
    singlet_projector,
)

BOUNDED = settings(derandomize=True, max_examples=30, deadline=None)
Q_VALUES = (1.0, 2.0, 4.0, 15.0, 200.0)


def orthogonal_product_state(rng) -> DensityMatrix:
    """|a>|a_perp>: separable, with linear witness value 0 up to roundoff."""
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    v = np.kron(a, [-np.conj(a[1]), np.conj(a[0])])
    return DensityMatrix(np.outer(v, v.conj()), (2, 2))


def bell_diagonal(rng) -> DensityMatrix:
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        if in_state_tetrahedron(c):
            return bell_diagonal_state(c)


FAMILIES = {
    "ginibre": lambda rng: random_density_matrix((2, 2), rng),
    "separable": lambda rng: random_separable_state(int(rng.integers(1, 5)), rng),
    "orthogonal_product": orthogonal_product_state,
    "bell_diagonal": bell_diagonal,
}


def _stack(family, seed, n):
    rng = np.random.default_rng(seed)
    return [FAMILIES[family](rng) for _ in range(n)]


stacks = st.builds(
    _stack, st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1), st.integers(1, 6)
)


@BOUNDED
@given(stacks)
def test_scalar_witnesses_equal_batch_kernels(states):
    linear, nonlinear = _witness_values(*expectation(np.array([s.matrix for s in states]), _PAULI_BASIS).T)
    assert [linear_witness_value(s) for s in states] == linear.tolist()
    assert [nonlinear_witness_value(s).value for s in states] == nonlinear.tolist()


@pytest.mark.parametrize("family", ["ginibre", "separable"])
def test_scalar_criteria_are_batch_kernels_on_a_batch_of_one(family):
    """Over 500 states, every scalar criterion equals the batch kernels run
    on the state as a batch of one, bit for bit."""
    for rho in _stack(family, 24, 500):
        values = expectation(rho.matrix[None], _PAULI_BASIS)
        linear, nonlinear = _witness_values(*values.T)
        assert linear_witness_value(rho) == linear[0]
        assert nonlinear_witness_value(rho).value == nonlinear[0]
        assert pauli_lur(rho).detected == _witness_detects(nonlinear[0])
        t, x, y, z = values[:, [0, 4, 5, 6]].T
        populations = np.maximum(np.array(_bell_columns(x, y, z, t)), 0.0)
        assert bell_populations(rho).tobytes() == populations[:, 0].tobytes()
        for q in (*Q_VALUES, 0.5):
            verdict = bell_tsallis_criterion(rho, q)
            assert verdict.detected == _bell_tsallis_detects(populations, q)[0][0]
            assert verdict.value == float(_entropy(populations[:, 0], q))
        variance = bell_variance_criterion(rho)
        assert variance.detected == _bell_tsallis_detects(populations, 2.0)[0][0]
        assert variance.value == float(_entropy(populations[:, 0], 2.0))


@BOUNDED
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1), st.integers(0, 255))
def test_pauli_values_do_not_depend_on_the_stack(family, seed, row):
    """A state's seven Pauli values from one 2-D call equal its row in a
    batch of one and in a stack of 256, bit for bit. The sweep's blocks and
    the scalar criteria therefore read the same numbers."""
    stack = np.array([s.matrix for s in _stack(family, seed, 256)])
    values = expectation(stack[row], _PAULI_BASIS)
    assert values.shape == (7,)
    assert expectation(stack[row][None], _PAULI_BASIS)[0].tobytes() == values.tobytes()
    assert expectation(stack, _PAULI_BASIS)[row].tobytes() == values.tobytes()
    # the same values as one (observable, state) pair at a time, up to the summation order
    for k, m in enumerate(_PAULI_BASIS):
        assert abs(values[k] - expectation(stack[row], m)) <= 4e-15


def bell_populations_oracle(rho: DensityMatrix) -> np.ndarray:
    """The populations <BS_i|rho|BS_i> taken one Bell vector at a time."""
    return np.maximum([float(np.vdot(b.amplitudes, rho.matrix @ b.amplitudes).real) for b in bell_states()], 0.0)


LINEAR_WITNESS = np.eye(4, dtype=complex) + sum(kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))


def pauli_lur_oracle(rho: DensityMatrix) -> float:
    """The summed variances of the three collective Paulis, one variance call each."""
    return lur_value(rho, COLLECTIVE_PAULIS, 4.0).value


def noisy_singlet_state(rng) -> DensityMatrix:
    return noisy_singlet(float(rng.uniform()), sample_noise_ball(0.5, rng))


ORACLE_FAMILIES = {
    "ginibre": FAMILIES["ginibre"],
    "separable": FAMILIES["separable"],
    "noisy_singlet": noisy_singlet_state,
    "bell_diagonal": FAMILIES["bell_diagonal"],
}


@BOUNDED
@given(st.sampled_from(sorted(ORACLE_FAMILIES)), st.integers(0, 2**32 - 1))
def test_criteria_match_the_per_observable_oracles(family, seed):
    """The Bell populations, the witnesses and pauli_lur from the seven
    Pauli values stay within 4e-15 of the per-observable formulas, and no
    verdict moves."""
    rng = np.random.default_rng(seed)
    for rho in (ORACLE_FAMILIES[family](rng) for _ in range(20)):
        linear = expectation(rho.matrix, LINEAR_WITNESS)
        assert abs(linear_witness_value(rho) - linear) <= 4e-15
        assert _witness_detects(linear_witness_value(rho)) == _witness_detects(linear)
        populations, oracle = bell_populations(rho), bell_populations_oracle(rho)
        assert np.abs(populations - oracle).max() <= 4e-15
        for q in Q_VALUES:
            assert _bell_tsallis_detects(populations[:, None], q)[0][0] == _bell_tsallis_detects(oracle[:, None], q)[0][0]
        verdict, variances = pauli_lur(rho), pauli_lur_oracle(rho)
        assert abs(verdict.value - variances) <= 4e-15
        assert verdict.detected == nonlinear_witness_value(rho).detected == _witness_detects((variances - 4.0) / 2.0)


EDGE_Q = (0.5, 1.0, 2.0, 4.0, 15.0, 200.0)


def tsallis_edge_states() -> list[DensityMatrix]:
    """Per q of EDGE_Q, states p |psi-><psi-| + (1 - p) sigma at the two
    adjacent floats p where the batched Tsallis verdict flips. Each sigma is
    a Bell state other than the singlet, mixed with a little separable
    noise, so the flip lies near populations (1/2, 1/2, 0, 0): there every
    Tsallis bound is tight and the power sum is stationary in p, so the last
    bit of each power decides the verdict."""
    edge = []
    for q in EDGE_Q:
        for seed in range(16):
            rng = np.random.default_rng(seed)
            w = 10.0 ** rng.uniform(-12.0, -4.0)
            bell = bell_states()[seed % 3].density().matrix
            sigma = DensityMatrix((1.0 - w) * bell + w * random_separable_state(2, rng).matrix, (2, 2))

            def detected(p):
                return _bell_tsallis_detects(bell_populations(noisy_singlet(p, sigma))[:, None], q)[0][0]

            lo, hi = 0.5, 1.0
            assert not detected(lo) and detected(hi)
            while np.nextafter(lo, hi) < hi:
                mid = (lo + hi) / 2.0
                lo, hi = (lo, mid) if detected(mid) else (mid, hi)
            edge += [noisy_singlet(p, sigma) for p in (lo, hi)]
    return edge


EDGE_STATES = tsallis_edge_states()
# Bell populations (0.750, 0.250, 2.8e-17, 0): a roundoff population that
# BELL_POPULATION_FLOOR counts as 0 below q = 1
ROUNDOFF_STATE = DensityMatrix((1.0 - ROUNDOFF_EPS) * np.diag([1.0, 0, 0, 0]) + ROUNDOFF_EPS * bell_states()[0].density().matrix, (2, 2))


@BOUNDED
@given(stacks, st.floats(0.0, 1000.0, exclude_min=True))
@example(EDGE_STATES, 0.0625)
@example(EDGE_STATES, 0.5)
@example(EDGE_STATES, 1.0)
@example(EDGE_STATES, float(np.nextafter(1.0, 0.0)))
@example(EDGE_STATES, float(np.nextafter(1.0, 2.0)))
@example(EDGE_STATES, 1000.0)
@example([ROUNDOFF_STATE], 0.0625)
def test_bell_verdicts_equal_batched_decision(states, drawn_q):
    """Every scalar Bell verdict, decided on the floats of one array power,
    has the detection and the value of the array kernel that the geometry
    scan runs, bit for bit, at the fixed q and at a q drawn from (0, 1000]."""
    populations = np.array([bell_populations(s) for s in states]).T
    for q in dict.fromkeys((*Q_VALUES, *EDGE_Q, drawn_q)):
        verdicts = [bell_tsallis_criterion(s, q) for s in states]
        detected, total = _bell_tsallis_detects(populations, q)
        assert [v.detected for v in verdicts] == detected.tolist()
        assert [v.value for v in verdicts] == (-total if q == 1.0 else (1.0 - total) / (q - 1.0)).tolist()
        # the row-form entropy, with populations at or below the floor as 0
        # below q = 1, is the independent oracle of the values
        floored = populations if q >= 1.0 else np.where(populations > BELL_POPULATION_FLOOR, populations, 0.0)
        assert [v.value for v in verdicts] == [float(_entropy(p, q)) for p in floored.T]
    verdicts = [bell_variance_criterion(s) for s in states]
    assert [v.detected for v in verdicts] == _bell_tsallis_detects(populations, 2.0)[0].tolist()
    assert [v.value for v in verdicts] == [float(_entropy(p, 2.0)) for p in populations.T]


@BOUNDED
@given(st.floats(0.0, 1000.0, exclude_min=True))
@example(0.0625)
@example(1.0)
@example(84.01534358238483)  # where 2 ** (1 - q) is one ulp off 2 * 0.5^q
@example(1000.0)
def test_bell_decision_flips_at_twice_the_array_power_of_one_half(q):
    """The decision's bound is 2 * half, the term sum of the boundary
    populations (1/2, 1/2, 0, 0), with half = 0.5^q by numpy's array power
    as the terms are, or 0.5 ln 0.5 at q = 1. A term sum at the guarded
    bound (relative for q != 1, absolute at q = 1) is not detected, and the
    next float beyond it is, on floats and on arrays alike."""
    if q == 1.0:
        half = (np.array([0.5]) * np.log(np.array([0.5])))[0]
        sign, edge = 1.0, 2.0 * half + DETECTION_TOL
    else:
        half = (np.array([0.5]) ** q)[0]
        sign = 1.0 if q > 1.0 else -1.0
        edge = 2.0 * half * (1.0 + sign * DETECTION_TOL)
    for total, detected in ((edge, False), (np.nextafter(edge, sign * np.inf), True)):
        assert _bell_tsallis_decision([float(total), 0.0, 0.0, 0.0], float(half), q)[0] is detected
        columns = [np.array([total]), *np.zeros((3, 1))]
        assert _bell_tsallis_decision(columns, half, q)[0].tolist() == [detected]


@BOUNDED
@given(stacks)
def test_coords_read_the_validated_state(states):
    """Every two-qubit criterion and the coordinates read the Pauli values
    that one expectation call gave the validated state: no later call
    re-checks the state or rebuilds an observable through kron, and
    Bell-diagonal states read the correlators built once."""
    checked = [tuple(expectation(s.matrix, _PAULI_BASIS)[4:]) for s in states]
    linear = [linear_witness_value(s) for s in states]  # computes each state's values

    def refuse(*args):
        raise AssertionError("re-checked a validated state or rebuilt an observable")

    with pytest.MonkeyPatch.context() as patch:
        for module in (uwit.linalg, uwit.states, uwit.criteria):
            for name in ("expectation", "_check_hermitian", "_adjoint_difference", "kron"):
                patch.setattr(module, name, refuse, raising=False)
        coords = [tuple(coords_of(s)) for s in states]
        assert coords == checked
        assert [linear_witness_value(s) for s in states] == linear
        for s in states:
            nonlinear_witness_value(s), pauli_lur(s), bell_variance_criterion(s), bell_tsallis_criterion(s, 3.0)
    # construction validates, so _adjoint_difference runs again, but not kron
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uwit.states, "kron", refuse)
        for c in coords:
            if in_state_tetrahedron(c):
                expected = sum((v * kron(m, m) for v, m in zip(c, (SIGMA_X, SIGMA_Y, SIGMA_Z))), np.eye(4, dtype=complex))
                assert bell_diagonal_state(c).matrix.tobytes() == DensityMatrix(expected / 4.0, (2, 2)).matrix.tobytes()


@BOUNDED
@given(stacks)
def test_scalar_npt_equals_batch_kernel(states):
    least = _min_pt_eigenvalues(np.array([s.matrix for s in states]), (2, 2))
    assert [is_npt(s) for s in states] == [(m < NPT_THRESHOLD, m) for m in least.tolist()]


@BOUNDED
@given(stacks, st.integers(0, 2**32 - 1))
def test_min_pt_eigenvalue_invariant_under_local_unitaries(states, seed):
    # (U x V) rho (U x V)^dagger has partial transpose
    # (U x V*) rho^T (U x V*)^dagger, so the spectrum does not move
    rng = np.random.default_rng(seed)
    rho = np.array([s.matrix for s in states])
    local = np.array([np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in states])
    rotated = local @ rho @ local.conj().transpose(0, 2, 1)
    least = _min_pt_eigenvalues(rho, (2, 2))
    assert np.abs(_min_pt_eigenvalues(rotated, (2, 2)) - least).max() <= 1e-12


# 0.2886 sits just inside the separable ball (radius 1/sqrt(12)); 0.5 draws
# many NPT sigma, whose H(p) turns singular somewhere in [0, 1]
NOISE_RADII = (0.0, 0.2, 0.2886, 0.5)
SIGMA_FAMILIES = {
    **{f"noise_ball_{d}": lambda seed, n, d=d: _draw_noise_block(seed, d, 0, n) for d in NOISE_RADII},
    "ginibre": lambda seed, n: np.array([s.matrix for s in _stack("ginibre", seed, n)]),
    "separable": lambda seed, n: np.array([s.matrix for s in _stack("separable", seed, n)]),
}


def npt_weight(sigma) -> float:
    """A singlet weight at which the per-p kernel's NPT flag on
    p S + (1 - p) sigma switches on, by bisection on [0, 1]; 0 if the flag
    is already set at p = 0."""
    lo, hi = 0.0, 1.0
    if _block_flags(sigma[None], lo)[2][0]:
        return lo
    for _ in range(64):  # down to adjacent floats
        mid = 0.5 * (lo + hi)
        if _block_flags(sigma[None], mid)[2][0]:
            hi = mid
        else:
            lo = mid
    return hi


def threshold_weights(sigma) -> list[float]:
    """Each sample's exact singlet weights where the linear and the
    nonlinear witness values meet their threshold, and where the
    partial-transpose test turns NPT, those in [0, 1]."""
    linear, nonlinear = _witness_values(*expectation(sigma, _PAULI_BASIS).T)
    half_means_sq = linear - nonlinear
    roots = [(linear + WITNESS_TOL) / (linear + 2.0), [npt_weight(s) for s in sigma]]
    # nonlinear: -half_means_sq q^2 + (linear + 2) q + WITNESS_TOL - 2 = 0, q = 1 - p
    for a, b in zip(half_means_sq, linear + 2.0):
        roots.append(1.0 - np.roots([-a, b, WITNESS_TOL - 2.0]).real)
    weights = np.concatenate(roots)
    return [float(p) for p in weights if 0.0 <= p <= 1.0]


def grid_for(sigma, extra) -> list[float]:
    return [0.0, 1.0, 1.0 / 3.0, *threshold_weights(sigma), *extra]


weights = st.lists(st.floats(0.0, 1.0), max_size=4)


@BOUNDED
@given(st.sampled_from(sorted(SIGMA_FAMILIES)), st.integers(0, 2**32 - 1), st.integers(1, 8), weights)
def test_sweep_flags_equal_per_p_kernel(family, seed, n, extra):
    sigma = SIGMA_FAMILIES[family](seed, n)
    grid = grid_for(sigma, extra)
    flags = _sweep_flags(sigma, grid)
    for k, p in enumerate(grid):
        for closed_form, kernel in zip(flags, _block_flags(sigma, p)):
            assert closed_form[:, k].tolist() == kernel.tolist()


@BOUNDED
@given(st.sampled_from(NOISE_RADII), st.integers(-(2**40), 2**40), st.integers(1, 40), weights)
def test_sweep_fractions_equal_flag_means(d, seed, samples, extra):
    config = NoiseBallConfig(d=d, seed=seed, samples=samples)
    sigma = _draw_noise_block(seed, d, 0, samples)
    grid = grid_for(sigma, extra)
    # evaluate_detection_flags is the per-p kernel on this sigma, so sigma
    # is drawn once and each grid point is decided by _block_flags
    for flag, kernel in zip(evaluate_detection_flags(config, grid[0], 0), _block_flags(sigma, grid[0])):
        assert flag.tolist() == kernel.tolist()
    flags = [_block_flags(sigma, p) for p in grid]
    if any((w & ~l).any() or (l & ~n).any() or (~n & (w | l)).any() for w, l, n in flags):
        # the per-p flags break the chain (for example the witness firing
        # while the partial-transpose eigenvalue is still above
        # NPT_THRESHOLD), so the sweep must refuse
        with pytest.raises(NumericalDefectError):
            run_detection_sweep(config, grid)
        return
    rows = run_detection_sweep(config, grid)
    for row, (witness, lur, npt) in zip(rows, flags):
        assert (row.fraction_witness, row.fraction_lur, row.fraction_npt) == (
            witness.mean(),
            lur.mean(),
            npt.mean(),
        )


# negative seeds, and keys of two or more 32-bit words
seeds = st.one_of(st.integers(-(2**40), 2**40), st.integers(2**40, 2**64 - 1))


@BOUNDED
@given(seeds, st.integers(0, 2**40), st.sampled_from((0.0, 0.2, 0.2886, 0.5, 0.6)))
def test_block_draw_is_scalar_sampler_draw(seed, i, d):
    sigma = _draw_noise_block(seed, d, i, i + 1)[0]
    assert sigma.tobytes() == sample_noise_ball(d, noise_rng(seed, i)).matrix.tobytes()
    assert np.linalg.norm(sigma - np.eye(4) / 4.0) <= d + 1e-12
    assert np.linalg.eigvalsh(sigma)[0] >= PSD_TOL
    if d <= 0.2886:
        # inside the separable ball (radius 1/sqrt(12)) no candidate is rejected
        rng = noise_rng(seed, i)
        first, accepted = _noise_candidates(d, rng.standard_normal((1, 2, 4, 4)), rng.uniform(size=1))
        assert accepted[0] and sigma.tobytes() == first[0].tobytes()


# keys with negative seeds, seeds of one and two words and beyond 64 bits, and
# indices of one and two words, across 2^32 and up to 2^64 - 1
key_seeds = st.one_of(
    st.integers(-(2**70), 0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**80)
)
key_starts = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 8))


@BOUNDED
@given(key_seeds, key_starts, st.integers(1, 8))
@example(0, 2**32 - 4, 8)
@example(2**64 + 5, 2**64 - 8, 8)
def test_batch_keying_is_seed_sequence_keying(seed, start, n):
    # a numpy change to SeedSequence or to PCG64 seeding fails here
    mask = 2**64 - 1
    for i, words in zip(range(start, start + n), uwit.states._seed_words(seed, start, start + n)):
        seed_sequence = np.random.SeedSequence([seed & mask, i & mask])
        expected = seed_sequence.generate_state(4, np.uint64)
        assert words.dtype == expected.dtype and words.tolist() == expected.tolist()
        rng = np.random.Generator(np.random.PCG64(uwit.states._SeedWords(words)))
        # what the adapter hands PCG64 is what SeedSequence hands it
        handed = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert handed.dtype == expected.dtype and handed.tolist() == expected.tolist()
        assert rng.bit_generator.state == np.random.default_rng(seed_sequence).bit_generator.state


@BOUNDED
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from((0.2, 0.5)))
def test_noise_candidates_use_linalg_norm(seed, n, d):
    # the candidates equal the formula with np.linalg.norm taken per matrix
    rng = np.random.default_rng(seed)
    normals, uniforms = rng.standard_normal((n, 2, 4, 4)), rng.uniform(size=n)
    sigma, accepted = _noise_candidates(d, normals, uniforms)
    for k in range(n):
        x = normals[k, 0] + 1j * normals[k, 1]
        h = (x + x.conj().T) / 2.0
        g = h - np.trace(h).real / 4.0 * np.eye(4)
        norm = float(np.linalg.norm(g))
        expected = np.eye(4) / 4.0 + (d * float(uniforms[k]) ** (1.0 / 15.0) / norm) * g
        assert sigma[k].tobytes() == expected.tobytes()
        assert accepted[k] == (np.linalg.eigvalsh(expected)[0] >= PSD_TOL)


def mixed_to_ppt_edge(seed, rank, weight, bell_diagonal, target) -> np.ndarray:
    """A random rank-``rank`` state given singlet weight ``weight``, optionally
    dephased to its Bell-diagonal part, then mixed with I/4 until the least
    eigenvalue of its partial transpose is ``target`` (kept as is if already
    above). On singlet-dominated Bell-diagonal states both witness values
    equal 4 min eig(rho^T), the edge of the bounds behind WITNESS_TOL."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = weight * singlet_projector() + (1.0 - weight) * g @ g.conj().T / np.linalg.norm(g) ** 2
    if bell_diagonal:
        bell = [np.outer(b.amplitudes, b.amplitudes.conj()) for b in bell_states()]
        rho = sum(np.trace(rho @ b).real * b for b in bell)
    least = np.linalg.eigvalsh(partial_transpose(rho, (2, 2)))[0]
    t = max((target - least) / (0.25 - least), 0.0)
    return (1.0 - t) * rho + t * np.eye(4) / 4.0


@BOUNDED
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.floats(NPT_THRESHOLD, 0.0),
)
def test_witnesses_silent_on_ppt_states(seed, rank, weight, bell_diagonal, target):
    rho = mixed_to_ppt_edge(seed, rank, weight, bell_diagonal, target)
    epsilon = max(-np.linalg.eigvalsh(partial_transpose(rho, (2, 2)))[0], 0.0)
    state = DensityMatrix(rho, (2, 2))
    assert not _witness_detects(linear_witness_value(state))
    nonlinear = nonlinear_witness_value(state)
    assert not nonlinear.detected
    assert not pauli_lur(state).detected
    witness, lur, _ = _block_flags(rho[None], 0.0)
    assert not witness[0] and not lur[0]
    # the bound that WITNESS_TOL rests on, up to roundoff in the values
    assert nonlinear.value >= -12.0 * epsilon - 16.0 * epsilon**2 - 1e-14
