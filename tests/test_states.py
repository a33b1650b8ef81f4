import json

import numpy as np
import pytest

from uwit.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightError,
    NotPositiveError,
    StateFormatError,
    StateInvariantError,
)
from uwit.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, hs_norm, kron
from uwit.states import (
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


def random_tetrahedron_coords(rng):
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        if bell_populations_from_coords(c).min() >= 0.0:
            return BellDiagonalCoords(*c)


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = maximally_mixed()
        assert rho.dims == (2, 2) and rho.dim == 4

    def test_trace_violation(self):
        with pytest.raises(StateInvariantError) as err:
            DensityMatrix(np.eye(4, dtype=complex) / 2, (2, 2))
        assert "unit_trace" in err.value.violations

    def test_hermiticity_violation(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(StateInvariantError) as err:
            DensityMatrix(m, (2, 2))
        assert "hermitian" in err.value.violations

    def test_positivity_violation(self):
        m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        with pytest.raises(StateInvariantError) as err:
            DensityMatrix(m, (2, 2))
        assert "positive_semidefinite" in err.value.violations

    def test_nan_entries(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.nan
        with pytest.raises(StateInvariantError) as err:
            DensityMatrix(m, (2, 2))
        assert "finite_entries" in err.value.violations

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 3))

    @pytest.mark.parametrize("dims", [(2.9, 2.9), (2.0, 2), (True, 4), (4, np.True_), (np.float64(2), 2), (2, 2, 1)])
    def test_non_integral_dims_are_refused(self, dims):
        """A float or boolean dimension is refused, not truncated."""
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4, dtype=complex) / 4, dims)
        with pytest.raises(DimensionMismatchError):
            PureState([1.0, 0.0, 0.0, 0.0], dims)

    def test_integer_dims_of_any_int_type(self):
        for dims in ((2, 2), [2, 2], (np.int64(2), np.int32(2))):
            rho = DensityMatrix(np.eye(4, dtype=complex) / 4, dims)
            assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
            assert PureState([1.0, 0.0, 0.0, 0.0], dims).dims == (2, 2)

    def test_matrix_is_read_only(self):
        """The checked matrix cannot change under the values computed from it."""
        rho = random_density_matrix((2, 2), np.random.default_rng(5))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_pauli_values_are_computed_once(self, monkeypatch):
        from uwit import states

        rho = random_density_matrix((2, 2), np.random.default_rng(6))
        calls = []
        monkeypatch.setattr(states, "expectation", lambda *args: calls.append(args) or np.zeros(7))
        first = rho._pauli_values
        assert rho._pauli_values is first and len(calls) == 1
        assert not first.flags.writeable
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(6, dtype=complex) / 6, (2, 3))._pauli_values

    def test_non_square_matrix(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.ones((2, 4), dtype=complex) / 4, (2, 2))


class TestBellStates:
    def test_orthonormality(self):
        states = bell_states()
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                overlap = np.vdot(a.amplitudes, b.amplitudes)
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_singlet_amplitudes(self):
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert np.allclose(bell_state(4).amplitudes, expected, atol=0)

    def test_completeness(self):
        total = sum(np.outer(s.amplitudes, s.amplitudes.conj()) for s in bell_states())
        assert np.allclose(total, np.eye(4), atol=1e-15)

    def test_index_range(self):
        with pytest.raises(InvalidParameterError):
            bell_state(5)


class TestSchmidt:
    def test_product_state(self):
        psi = PureState([1, 0, 0, 0], (2, 2))
        assert np.allclose(schmidt_coefficients(psi), [1.0, 0.0], atol=1e-15)

    def test_singlet(self):
        coeffs = schmidt_coefficients(bell_state(4))
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_squares_sum_to_one(self):
        rng = np.random.default_rng(3)
        for dims in [(2, 2), (2, 3), (3, 4)]:
            psi = random_pure_state(dims, rng)
            coeffs = schmidt_coefficients(psi)
            assert abs(np.sum(coeffs**2) - 1.0) <= 1e-10
            assert np.all(np.diff(coeffs) <= 0)

    def test_against_reduced_state_spectrum(self):
        # squared coefficients must match the reduced density matrix spectrum
        rng = np.random.default_rng(4)
        psi = random_pure_state((2, 2), rng)
        amp = psi.amplitudes.reshape(2, 2)
        reduced = amp @ amp.conj().T
        oracle = np.sort(np.linalg.eigvalsh(reduced))[::-1]
        assert np.allclose(schmidt_coefficients(psi) ** 2, oracle, atol=1e-12)


class TestNoisySinglet:
    def test_pure_endpoint(self):
        rho = noisy_singlet(1.0, maximally_mixed())
        assert np.allclose(rho.matrix, singlet_projector(), atol=1e-15)

    def test_noise_endpoint(self):
        rho = noisy_singlet(0.0, maximally_mixed())
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=0)

    def test_boundary_weight_is_ppt(self):
        # analytic white-noise value: min PT eigenvalue (1 - 3p)/4 = 0 at p = 1/3
        rho = noisy_singlet(1.0 / 3.0, maximally_mixed())
        npt, min_eig = is_npt(rho)
        assert not npt and abs(min_eig) < 1e-10

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_invalid_weight(self, p):
        with pytest.raises(InvalidWeightError):
            noisy_singlet(p, maximally_mixed())


class TestNoiseBall:
    def test_degenerate_ball(self):
        sigma = sample_noise_ball(0.0, noise_rng(1))
        assert np.array_equal(sigma.matrix, np.eye(4) / 4)

    def test_draws_stay_in_ball(self):
        rng = noise_rng(2)
        for _ in range(200):
            sigma = sample_noise_ball(0.2, rng)
            assert hs_norm(sigma.matrix - np.eye(4) / 4) <= 0.2 + 1e-12
            assert np.linalg.eigvalsh(sigma.matrix)[0] >= -1e-9

    def test_mean_concentrates_on_center(self):
        # the sampling law is symmetric around I/4
        rng = noise_rng(3)
        total = np.zeros((4, 4), dtype=complex)
        n = 10**4
        for _ in range(n):
            total += sample_noise_ball(0.2, rng).matrix
        assert hs_norm(total / n - np.eye(4) / 4) < 0.01

    def test_stream_determinism(self):
        a = sample_noise_ball(0.2, noise_rng(42, 1, 2)).matrix
        b = sample_noise_ball(0.2, noise_rng(42, 1, 2)).matrix
        assert np.array_equal(a, b)
        c = sample_noise_ball(0.2, noise_rng(42, 1, 3)).matrix
        assert not np.array_equal(a, c)

    def test_rejection_overflow_when_ball_leaves_state_set(self, monkeypatch):
        # at d = 0.85 nearly every draw has a negative eigenvalue
        from uwit import states
        from uwit.errors import RejectionOverflowError

        monkeypatch.setattr(states, "_MAX_NOISE_ATTEMPTS", 2)
        with pytest.raises(RejectionOverflowError):
            states._draw_noise_matrix(0.85, noise_rng(1))

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_noise_ball(-0.1, noise_rng(1))

    @pytest.mark.parametrize("d", [float("nan"), float("inf"), 0.9])
    def test_radius_outside_state_space_rejected(self, d):
        # the sampler and NoiseBallConfig share one rule: 0 <= d <= sqrt(3)/2
        with pytest.raises(InvalidParameterError):
            sample_noise_ball(d, noise_rng(1))
        with pytest.raises(InvalidParameterError):
            NoiseBallConfig(d=d)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            NoiseBallConfig(d=-0.1)
        with pytest.raises(InvalidParameterError):
            NoiseBallConfig(d=0.9)
        with pytest.raises(InvalidParameterError):
            NoiseBallConfig(samples=0)


class TestNpt:
    def test_maximally_mixed(self):
        npt, min_eig = is_npt(maximally_mixed())
        assert not npt and min_eig == pytest.approx(0.25, abs=1e-12)

    def test_singlet(self):
        npt, min_eig = is_npt(bell_state(4).density())
        assert npt and min_eig == pytest.approx(-0.5, abs=1e-10)

    def test_werner(self):
        npt, min_eig = is_npt(werner_state(0.4))
        assert npt and min_eig == pytest.approx((1 - 3 * 0.4) / 4, abs=1e-10)

    def test_product_states_are_ppt(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            rho = random_product_state((2, 2), rng).density()
            assert not is_npt(rho)[0]

    def test_entangled_pure_states_are_npt(self):
        rng = np.random.default_rng(9)
        count = 0
        while count < 1000:
            psi = random_pure_state((2, 2), rng)
            coeffs = schmidt_coefficients(psi)
            if coeffs[1] <= 1e-6:
                continue
            count += 1
            assert is_npt(psi.density())[0]


class TestBellDiagonalGeometry:
    def test_origin_is_maximally_mixed(self):
        rho = bell_diagonal_state((0.0, 0.0, 0.0))
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=0)

    def test_singlet_corner(self):
        c = (-1.0, -1.0, -1.0)
        populations = bell_populations_from_coords(c)
        assert np.allclose(populations, [0, 0, 0, 1], atol=0)
        assert np.allclose(bell_diagonal_state(c).matrix, singlet_projector(), atol=1e-15)

    def test_first_bell_corner(self):
        c = (1.0, -1.0, 1.0)
        populations = bell_populations_from_coords(c)
        assert np.allclose(populations, [1, 0, 0, 0], atol=0)
        b1 = bell_state(1)
        expected = np.outer(b1.amplitudes, b1.amplitudes.conj())
        assert np.allclose(bell_diagonal_state(c).matrix, expected, atol=1e-15)

    def test_outside_tetrahedron(self):
        with pytest.raises(NotPositiveError):
            bell_diagonal_state((1.0, 1.0, 1.0))

    def test_populations_match_projector_expectations(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c = random_tetrahedron_coords(rng)
            rho = bell_diagonal_state(c)
            direct = [
                float(np.vdot(b.amplitudes, rho.matrix @ b.amplitudes).real)
                for b in bell_states()
            ]
            assert np.allclose(direct, bell_populations_from_coords(c), atol=1e-12)

    def test_populations_of_a_stack_equal_each_triple(self):
        coords = np.random.default_rng(13).uniform(-1.0, 1.0, size=(2, 5, 3))
        stacked = bell_populations_from_coords(coords)
        assert stacked.shape == (2, 5, 4)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(stacked[idx], bell_populations_from_coords(tuple(coords[idx])))

    @pytest.mark.parametrize("c", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), np.zeros((3, 2))])
    def test_populations_need_three_coordinates(self, c):
        with pytest.raises(DimensionMismatchError):
            bell_populations_from_coords(c)

    def test_coords_of_examples(self):
        assert np.allclose(coords_of(maximally_mixed()), (0, 0, 0), atol=1e-14)
        assert np.allclose(coords_of(bell_state(4).density()), (-1, -1, -1), atol=1e-12)
        assert np.allclose(coords_of(bell_state(3).density()), (1, 1, -1), atol=1e-12)

    def test_correlators_are_read_only_constants(self):
        from uwit import states

        for m, s in zip(states._CORRELATORS, (SIGMA_X, SIGMA_Y, SIGMA_Z)):
            assert m.tobytes() == kron(s, s).tobytes()
        assert not states._CORRELATORS.flags.writeable
        with pytest.raises(ValueError):
            states._CORRELATORS[0, 0, 0] = 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            c = random_tetrahedron_coords(rng)
            assert np.allclose(coords_of(bell_diagonal_state(c)), c, atol=1e-12)

    def test_tetrahedron_and_octahedron_membership(self):
        assert in_state_tetrahedron((0, 0, 0)) and in_witness_octahedron((0, 0, 0))
        assert in_state_tetrahedron((-1, -1, -1)) and not in_witness_octahedron((-1, -1, -1))
        assert not in_state_tetrahedron((1, 1, 1)) and not in_witness_octahedron((1, 1, 1))

    def test_coords_require_two_qubits(self):
        rho = DensityMatrix(np.eye(6, dtype=complex) / 6, (2, 3))
        with pytest.raises(DimensionMismatchError):
            coords_of(rho)


class TestRandomStates:
    def test_separable_mixtures_are_valid(self):
        rng = np.random.default_rng(15)
        for k in (1, 2, 3, 4):
            rho = random_separable_state(k, rng)
            assert rho.dims == (2, 2)

    def test_density_matrix_sampler(self):
        rng = np.random.default_rng(16)
        rho = random_density_matrix((2, 2), rng)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


class TestJsonRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        rho = random_density_matrix((2, 2), rng)
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert loaded.dims == rho.dims
        assert np.array_equal(loaded.matrix, rho.matrix)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"dims": [2, 2], "re": [[1.0]]}))
        with pytest.raises(StateFormatError):
            load_state(path)

    @pytest.mark.parametrize("dims", [[True, True], [True, 2], [2, False], [2.0, 2], ["2", 2], [2], [2, 2, 1], [0, 4]])
    def test_bad_dims(self, tmp_path, dims):
        """A JSON boolean is a Python int, but not a dimension."""
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(StateFormatError, match="'dims' must be two positive integers"):
            load_state(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "shape.json"
        payload = {"dims": [2, 2], "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError):
            load_state(path)

    def test_invariant_violation_reports_name(self, tmp_path):
        path = tmp_path / "trace.json"
        m = np.eye(4) * 0.9 / 4
        payload = {"dims": [2, 2], "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(payload))
        with pytest.raises(StateInvariantError) as err:
            load_state(path)
        assert "unit_trace" in err.value.violations
