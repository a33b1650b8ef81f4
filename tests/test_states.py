import json
import math

import numpy as np
import pytest

from haar import haar_pure_state
from uwit.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightError,
    NotPositiveError,
    StateFormatError,
    StateInvariantError,
)
from uwit.criteria import Observable
from uwit.experiments import run_geometry_scan
from uwit.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, kron
from uwit.states import (
    BellDiagonalCoords,
    DensityMatrix,
    NoiseBallConfig,
    PureState,
    _draw_noise_block,
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
    random_separable_state,
    sample_noise_ball,
    save_state,
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
        with pytest.raises(DimensionMismatchError, match="factor"):
            PureState([1.0, 0.0, 0.0, 0.0], (2, 3))

    def test_pure_state_must_have_unit_norm(self):
        with pytest.raises(StateInvariantError) as err:
            PureState([1.0, 1.0, 0.0, 0.0], (2, 2))
        assert err.value.violations == ["unit_norm"]

    @pytest.mark.parametrize("dims", [(2.9, 2.9), (2.0, 2), (True, 4), (4, np.True_), (np.float64(2), 2), (2, 2, 1)])
    def test_non_integral_dims_are_refused(self, dims):
        """A float or boolean dimension is refused, not truncated."""
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4, dtype=complex) / 4, dims)
        with pytest.raises(DimensionMismatchError):
            PureState([1.0, 0.0, 0.0, 0.0], dims)

    @pytest.mark.parametrize("dims", [(-2, -2), (0, 4), (4, 0), (-1, -4)])
    def test_dims_below_one_are_refused(self, dims):
        """A dimension below 1 is refused at construction, also where the
        product of the dims matches the size."""
        with pytest.raises(DimensionMismatchError, match="positive"):
            DensityMatrix(np.eye(4, dtype=complex) / 4, dims)
        with pytest.raises(DimensionMismatchError, match="positive"):
            PureState(np.eye(4)[0], dims)

    @pytest.mark.parametrize("dims", [(2, 2.0), (2.5, 2), ("2", 2), (2,), 4, None, (-2, -2), (True, 4), (0, 4)])
    @pytest.mark.parametrize(
        "construct",
        [
            lambda dims: DensityMatrix(np.eye(4, dtype=complex) / 4, dims),
            lambda dims: PureState(np.eye(4)[0], dims),
            maximally_mixed,
            lambda dims: random_density_matrix(dims, np.random.default_rng(0)),
            lambda dims: random_product_state(dims, np.random.default_rng(0)),
            lambda dims: random_separable_state(2, np.random.default_rng(0), dims),
        ],
        ids=["DensityMatrix", "PureState", "maximally_mixed", "random_density_matrix", "random_product_state", "random_separable_state"],
    )
    def test_every_constructor_checks_dims_first(self, construct, dims):
        """Malformed dims are refused before any constructor uses them, not
        by a bare TypeError, IndexError or numpy's ValueError. A boolean or
        zero dimension is refused too, although (True, 4) multiplies out to
        a valid size and (0, 4) to an empty one."""
        with pytest.raises(DimensionMismatchError, match="positive"):
            construct(dims)

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
        monkeypatch.setattr(states, "expectation", lambda *args, **kwargs: calls.append(args) or np.zeros(7))
        first = rho._pauli_values
        assert rho._pauli_values is first and len(calls) == 1
        assert type(first) is tuple and len(first) == 7 and all(type(v) is float for v in first)
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

    def test_noise_must_be_two_qubits(self):
        with pytest.raises(DimensionMismatchError, match="2x2-qubit"):
            noisy_singlet(0.5, maximally_mixed((1, 4)))


class TestNoiseBall:
    def test_degenerate_ball(self):
        sigma = sample_noise_ball(0.0, noise_rng(1))
        assert np.array_equal(sigma.matrix, np.eye(4) / 4)

    def test_draws_stay_in_ball(self):
        rng = noise_rng(2)
        for _ in range(200):
            sigma = sample_noise_ball(0.2, rng)
            assert np.linalg.norm(sigma.matrix - np.eye(4) / 4) <= 0.2 + 1e-12
            assert np.linalg.eigvalsh(sigma.matrix)[0] >= -1e-9

    def test_mean_concentrates_on_center(self):
        # the sampling law is symmetric around I/4
        rng = noise_rng(3)
        total = np.zeros((4, 4), dtype=complex)
        n = 10**4
        for _ in range(n):
            total += sample_noise_ball(0.2, rng).matrix
        assert np.linalg.norm(total / n - np.eye(4) / 4) < 0.01

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

    @pytest.mark.parametrize(
        "kwargs", [{"samples": 2.5}, {"samples": np.float64(300.0)}, {"samples": "300"}, {"seed": 1.5}, {"seed": "7"}]
    )
    def test_non_integer_seed_or_samples_refused(self, kwargs):
        """Refused where they enter, not by a TypeError deep in a sweep."""
        with pytest.raises(InvalidParameterError):
            NoiseBallConfig(**kwargs)

    def test_numpy_and_negative_integers_accepted(self):
        config = NoiseBallConfig(seed=np.int64(-7), samples=np.uint16(300))
        assert (config.seed, config.samples) == (-7, 300)
        assert type(config.seed) is int and type(config.samples) is int


class TestNoiseBallLaw:
    """At d = 0.2 the ball lies inside the state set (whose inscribed
    Hilbert-Schmidt ball around I/4 has radius 1/sqrt(12)), so every first
    candidate is kept and the sweep's noise sigma - I/4 should be uniform in
    the 15-dimensional ball of radius d: its radius ratio r = ||sigma - I/4||/d
    has the law P(r <= t) = t^15, and its coordinates c_k = Tr(sigma P_k)/2 in
    the orthonormal basis P_k/2 (P_k = sigma_i x sigma_j, not both I) have mean
    0 and covariance s^2 I with s^2 = d^2/17.

    The bounds are stated from n = 20,000 draws. KS: the Dvoretzky-Kiefer-
    Wolfowitz inequality P(D > x) <= 2 exp(-2 n x^2) puts the alpha = 1e-6
    critical value at sqrt(ln(2/alpha)/(2n)) = 0.01905. Moments: on the ball,
    E c_k^4 = 3 d^4/323 and E c_k^2 c_l^2 = d^4/323, so the standard error of
    a mean is s/sqrt(n), of a variance s^2 sqrt(867/323 - 1)/sqrt(n) and of a
    covariance s^2 sqrt(289/323)/sqrt(n); each is held within 5 of them."""

    N, D = 20_000, 0.2

    @pytest.fixture(scope="class")
    def noise(self):
        return _draw_noise_block(42, self.D, 0, self.N) - np.eye(4) / 4

    def ks_statistic(self, u):
        """sup |F_n - F| for draws u of a law whose CDF maps them to uniform (0, 1)."""
        u, i = np.sort(u), np.arange(1, len(u) + 1)
        return max((i / len(u) - u).max(), (u - (i - 1) / len(u)).max())

    def test_radius_follows_the_ball_law(self, noise):
        critical = math.sqrt(math.log(2 / 1e-6) / (2 * self.N))
        r = np.linalg.norm(noise, axis=(1, 2)) / self.D
        assert self.ks_statistic(r**15) < critical
        # the test tells the law from radii drawn as d u^(1/14) or d u^(1/16)
        for exponent in (15 / 14, 15 / 16):
            assert self.ks_statistic((r**exponent) ** 15) > critical

    def test_coordinates_have_the_ball_moments(self, noise):
        paulis = (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)
        basis = np.array([np.kron(a, b) for a in paulis for b in paulis][1:])
        c = np.einsum("nab,kba->nk", noise, basis).real / 2
        s2, se = self.D**2 / 17, 1 / math.sqrt(self.N)
        assert np.abs(c.mean(axis=0)).max() <= 5 * math.sqrt(s2) * se
        moments = c.T @ c / self.N - s2 * np.eye(15)
        assert np.abs(np.diag(moments)).max() <= 5 * s2 * math.sqrt(867 / 323 - 1) * se
        assert np.abs(moments[~np.eye(15, dtype=bool)]).max() <= 5 * s2 * math.sqrt(289 / 323) * se


class TestNoiseBallCut:
    """At d = 0.4 > 1/sqrt(12) the ball reaches out of the state set, and
    about half of the first candidates are rejected: the sweep's noise should
    be the uniform ball cut to the PSD matrices. An independent reference
    draws that law directly: a Gaussian direction in the 15 traceless
    coordinates c_k (orthonormal basis P_k/2, P_k = sigma_i x sigma_j, not
    both I), a radius d u^(1/15), and only the points I/4 + sum c_k P_k/2
    with no negative eigenvalue kept. The radii ||sigma - I/4||/d of n
    sampler draws and n reference points are compared by the two-sample KS
    statistic D.

    The bound is stated from n = 4,000 per side. For two samples of size n
    from one continuous law, the reflection principle (Gnedenko-Korolyuk)
    gives P(D+ >= k/n) = C(2n, n - k)/C(2n, n) = prod_{i=1..k} (1 - k/(n + i))
    <= exp(-k^2/(n + k)), so P(D >= x) <= 2 exp(-n x^2/(1 + x)). At
    alpha = 1e-6 that puts the critical value at the root of
    n x^2 = ln(2/alpha) (1 + x), x = 0.06207. The reference keeps eigenvalues
    >= 0 and the sampler >= PSD_TOL = -1e-9, a difference of negligible
    measure."""

    N, D = 4000, 0.4

    def ks_statistic(self, a, b):
        """sup |F_a - F_b| of the empirical CDFs of two samples."""
        a, b = np.sort(a), np.sort(b)
        x = np.concatenate([a, b])
        return np.abs(np.searchsorted(a, x, side="right") / len(a) - np.searchsorted(b, x, side="right") / len(b)).max()

    def test_radius_follows_the_cut_ball_law(self):
        x = math.log(2 / 1e-6) / self.N
        critical = (x + math.sqrt(x * x + 4 * x)) / 2
        sampler = np.linalg.norm(_draw_noise_block(42, self.D, 0, self.N) - np.eye(4) / 4, axis=(1, 2)) / self.D
        # the reference: 3 N candidates, at an acceptance of about 1/2
        paulis = (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)
        basis = np.array([np.kron(a, b) for a in paulis for b in paulis][1:]) / 2
        rng = np.random.default_rng(2024)
        g = rng.standard_normal((3 * self.N, 15))
        r = rng.uniform(size=3 * self.N) ** (1 / 15)
        c = g / np.linalg.norm(g, axis=1)[:, None] * (self.D * r)[:, None]
        kept = np.linalg.eigvalsh(np.eye(4) / 4 + np.einsum("nk,kab->nab", c, basis))[:, 0] >= 0.0
        assert kept.sum() >= self.N
        assert self.ks_statistic(sampler, r[kept][: self.N]) < critical
        # the test tells the cut law from the uncut ball's, that of a sampler
        # that accepts every candidate
        assert self.ks_statistic(sampler, r[: self.N]) > critical


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
            psi = haar_pure_state((2, 2), rng)
            coeffs = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
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

    @pytest.mark.parametrize("k", [1.5, 2.0, np.float64(2.0), "2"])
    def test_non_integer_component_count_refused(self, k):
        with pytest.raises(InvalidParameterError):
            random_separable_state(k, np.random.default_rng(15))

    def test_numpy_integer_component_count_accepted(self):
        rho = random_separable_state(np.int64(3), np.random.default_rng(15))
        assert rho.matrix.tobytes() == random_separable_state(3, np.random.default_rng(15)).matrix.tobytes()

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


class TestIdentityEquality:
    """The frozen classes that hold arrays compare and hash by identity:
    a generated == over arrays would raise, and a generated hash would too."""

    @pytest.mark.parametrize(
        "build",
        [
            maximally_mixed,
            lambda: bell_state(4),
            lambda: Observable(SIGMA_Z),
            lambda: run_geometry_scan(3, (2.0,)),
        ],
        ids=["DensityMatrix", "PureState", "Observable", "GeometryScan"],
    )
    def test_eq_and_hash_are_identity(self, build):
        a, b = build(), build()
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert {a, a, b} == {a, b} and len({a, b}) == 2
        assert a in {a} and b not in {a}
