import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uwit.criteria

from uwit.errors import (
    DegenerateObservableError,
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
)
from uwit.linalg import HERMITICITY_TOL, ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, expectation, hermiticity_defect, kron
from uwit.criteria import (
    DEGENERACY_TOL,
    Observable,
    _entropy,
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
from uwit.states import (
    DensityMatrix,
    bell_diagonal_state,
    bell_populations_from_coords,
    bell_state,
    bell_states,
    maximally_mixed,
    random_density_matrix,
    random_separable_state,
    werner_state,
)

SINGLET = bell_state(4).density()
# Bell populations (1 + 5e-10, -5e-10, 0, 0): a valid state within PSD_TOL
NEAR_BOUNDARY_BELL_DIAGONAL = DensityMatrix(
    sum(p * s.density().matrix for p, s in zip((1 + 5e-10, -5e-10, 0.0, 0.0), bell_states())),
    (2, 2),
)
MIXED = maximally_mixed()
ZERO_ZERO = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), (2, 2))

XX = Observable(kron(SIGMA_X, SIGMA_X))
ZZ = Observable(kron(SIGMA_Z, SIGMA_Z))


def random_tetrahedron_coords(rng):
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        if bell_populations_from_coords(c).min() >= 0.0:
            return c


@st.composite
def hermitian_matrices(draw):
    """U diag(lambda) U^dagger for a Haar-like U, with lambda drawn from at
    most n levels, so eigenvalues repeat, at norms from 1e-2 to about 1e7."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = 10.0 ** draw(st.integers(-2, 7)) * rng.uniform(-1.0, 1.0, draw(st.integers(1, n)))
    eigenvalues = levels[draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))]
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return u @ np.diag(eigenvalues) @ u.conj().T


class TestObservable:
    @settings(max_examples=150, deadline=None)
    @given(hermitian_matrices())
    def test_spectral_resolution(self, m):
        """The projectors resolve the identity and the matrix, are mutually
        orthogonal, and sit on ascending eigenvalues more than
        DEGENERACY_TOL apart; the matrix and projectors are read-only and
        share no memory with the caller's array."""
        obs = Observable(m)
        n, scale = len(m), max(1.0, np.linalg.norm(m))
        values = [val for val, _ in obs.spectral]
        assert all(b - a > DEGENERACY_TOL for a, b in zip(values, values[1:]))
        total = sum(proj for _, proj in obs.spectral)
        assert np.linalg.norm(total - np.eye(n)) < 1e-10
        rebuilt = sum(val * proj for val, proj in obs.spectral)
        assert np.linalg.norm(rebuilt - m) < 1e-9 * scale + n * DEGENERACY_TOL
        for i, (_, pi) in enumerate(obs.spectral):
            for j, (_, pj) in enumerate(obs.spectral):
                expected = pi if i == j else np.zeros_like(pi)
                assert np.linalg.norm(pi @ pj - expected) < 1e-10
        assert obs.matrix.tobytes() == m.astype(complex).tobytes()
        for a in (obs.matrix, *(proj for _, proj in obs.spectral)):
            assert not a.flags.writeable
            assert not np.shares_memory(a, m)

    def test_built_from_its_matrix_alone(self):
        """A spectral decomposition cannot be handed in: this one, with
        projectors that resolve neither the identity nor the matrix, is
        refused; there is no other constructor."""
        bogus = ((-1.0, np.diag([0.0, 3.0])), (1.0, np.diag([0.2, 0.0])))
        with pytest.raises(TypeError):
            Observable(np.diag([1.0, -1.0]), bogus)
        with pytest.raises(TypeError):
            Observable(np.diag([1.0, -1.0]), spectral=bogus)
        assert not hasattr(Observable, "from_matrix")

    def test_a_later_write_to_the_callers_array_changes_nothing(self):
        m = kron(SIGMA_Z, ID2).copy()
        obs = Observable(m)
        m[0, 0] = 5.0
        assert obs.matrix.tobytes() == kron(SIGMA_Z, ID2).tobytes()
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            obs.spectral[0][1][0, 0] = 5.0

    def test_degenerate_grouping(self):
        obs = Observable(kron(SIGMA_Z, SIGMA_Z))
        assert len(obs.spectral) == 2
        values = [val for val, _ in obs.spectral]
        assert np.allclose(values, [-1.0, 1.0], atol=1e-12)
        assert all(abs(np.trace(p).real - 2.0) < 1e-10 for _, p in obs.spectral)

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionMismatchError):
            Observable(np.array([SIGMA_Z, SIGMA_X]))

    def test_large_norm_observables_pass_the_variance_check(self):
        """Observable (through hermitian_eigen) applies the Hermiticity
        bound expectation applies, relative to the norm: U D U^dagger with D in
        +-1e6 and +-1e7 is Hermitian only up to roundoff that grows with its
        norm, and most of these 400 exceed the absolute HERMITICITY_TOL."""
        rng = np.random.default_rng(7)
        rho = random_density_matrix((2, 2), rng)
        above_absolute = 0
        for scale in (1e6, 1e7):
            for _ in range(200):
                u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                d = rng.uniform(-scale, scale, 4)
                m = u @ np.diag(d) @ u.conj().T
                above_absolute += hermiticity_defect(m) > HERMITICITY_TOL
                obs = Observable(m)
                assert [value for value, _ in obs.spectral] == pytest.approx(np.sort(d), rel=1e-9)
                assert variance(rho, m) >= 0.0
                bad = m.copy()
                bad[0, 1] += 1e-8 * np.linalg.norm(m)
                with pytest.raises(NotHermitianError):
                    Observable(bad)
        assert above_absolute > 200


class TestVariance:
    def test_eigenstate_has_zero_variance(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (1, 2))
        assert variance(rho, SIGMA_Z) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_basis_observable(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (1, 2))
        assert variance(rho, SIGMA_X) == pytest.approx(1.0, abs=1e-14)

    def test_collective_pauli_on_mixed(self):
        m = kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z)
        # direct trace oracle: <M^2> = Tr(M^2)/4, <M> = 0
        oracle = np.trace(m @ m).real / 4
        assert oracle == pytest.approx(2.0, abs=1e-14)
        assert variance(MIXED, m) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(8))
    def test_exactly_hermitian_observables_at_any_scale(self, k):
        """G + G^dagger is exactly Hermitian at every scale, and so passes the
        input check; M^2 and the trace's imaginary part carry roundoff that
        grows with the scale, so a second check would reject valid input."""
        rng = np.random.default_rng(100 + k)
        for _ in range(60):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = (g + g.conj().T) * 10.0**k
            rho = random_density_matrix((2, 2), rng)
            expectation(rho.matrix, m)
            assert lur_value(rho, [m], 0.0).value == variance(rho, m) >= 0.0

    @pytest.mark.parametrize("scale", [1e6, 1e7])
    def test_roundoff_hermitian_observables_of_large_norm(self, scale):
        """U D U^dagger with D in +-scale is Hermitian only up to roundoff
        that grows with its norm; the input check is relative to the norm,
        so variance takes all of them."""
        rng = np.random.default_rng(109)
        for _ in range(500):
            u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            m = u @ np.diag(rng.uniform(-scale, scale, 4)) @ u.conj().T
            assert variance(random_density_matrix((2, 2), rng), m) >= 0.0

    def test_variance_scales_quadratically(self):
        rng = np.random.default_rng(108)
        for k in range(8):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g + g.conj().T
            for _ in range(20):
                rho = random_density_matrix((2, 2), rng)
                scaled = variance(rho, 10.0**k * m)
                assert scaled == pytest.approx(100.0**k * variance(rho, m), rel=1e-9)


class TestLur:
    def test_singlet_detected(self):
        verdict = pauli_lur(SINGLET)
        assert verdict.value == pytest.approx(0.0, abs=1e-12)
        assert verdict.threshold == 4.0 and verdict.detected

    def test_maximally_mixed_not_detected(self):
        verdict = pauli_lur(MIXED)
        assert verdict.value == pytest.approx(6.0, abs=1e-12)
        assert not verdict.detected

    def test_product_state_sits_on_boundary(self):
        variances = [variance(ZERO_ZERO, m) for m in collective_paulis()]
        assert np.allclose(sorted(variances), [0.0, 2.0, 2.0], atol=1e-12)
        verdict = pauli_lur(ZERO_ZERO)
        assert verdict.value == pytest.approx(4.0, abs=1e-12)
        assert not verdict.detected

    def test_custom_bound_wrapper(self):
        verdict = lur_value(SINGLET, collective_paulis(), 4.0)
        assert verdict.criterion_id == "lur" and verdict.detected

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_refused(self, bound):
        with pytest.raises(InvalidParameterError):
            lur_value(MIXED, collective_paulis(), bound)

    def test_numpy_bound_gives_python_types(self):
        for rho in (SINGLET, MIXED):
            verdict = lur_value(rho, collective_paulis(), np.float64(4.0))
            assert type(verdict.value) is float and type(verdict.threshold) is float
            assert type(verdict.detected) is bool


class TestWitnesses:
    def test_linear_on_singlet(self):
        assert linear_witness_value(SINGLET) == pytest.approx(-2.0, abs=1e-12)

    def test_linear_on_mixed(self):
        assert linear_witness_value(MIXED) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_basis_is_a_read_only_constant(self):
        """The seven observables every two-qubit criterion reads: I, the
        collective Paulis (the matrices of collective_paulis) and the
        correlators."""
        from uwit import states

        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        collective = [kron(s, ID2) + kron(ID2, s) for s in paulis]
        basis = np.array([np.eye(4, dtype=complex), *collective, *(kron(s, s) for s in paulis)])
        assert states._PAULI_BASIS.tobytes() == basis.tobytes()
        assert [m.matrix.tobytes() for m in collective_paulis()] == [m.tobytes() for m in collective]
        assert not states._PAULI_BASIS.flags.writeable
        with pytest.raises(ValueError):
            states._PAULI_BASIS[0, 0, 0] = 0.0

    def test_linear_on_werner_line(self):
        for p in np.linspace(0, 1, 11):
            assert linear_witness_value(werner_state(p)) == pytest.approx(1 - 3 * p, abs=1e-12)

    def test_nonlinear_on_singlet(self):
        verdict = nonlinear_witness_value(SINGLET)
        assert verdict.value == pytest.approx(-2.0, abs=1e-12) and verdict.detected

    def test_nonlinear_on_mixed(self):
        verdict = nonlinear_witness_value(MIXED)
        assert verdict.value == pytest.approx(1.0, abs=1e-12) and not verdict.detected

    def test_nonlinear_never_exceeds_linear(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            rho = random_density_matrix((2, 2), rng)
            assert nonlinear_witness_value(rho).value <= linear_witness_value(rho) + 1e-12

    def test_identity_with_lur(self):
        # subtracting the squared means halves the variance-sum margin:
        # nonlinear value == (sum of collective variances - 4) / 2
        rng = np.random.default_rng(34)
        for _ in range(1000):
            rho = random_density_matrix((2, 2), rng)
            lur = pauli_lur(rho)
            nl = nonlinear_witness_value(rho)
            assert nl.value == pytest.approx((lur.value - 4.0) / 2.0, abs=1e-10)
            assert nl.detected == lur.detected


class TestMeasurementDistribution:
    def test_degenerate_correlator_on_mixed(self):
        probs = measurement_distribution(MIXED, ZZ)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_singlet_is_deterministic_for_xx(self):
        probs = measurement_distribution(SINGLET, XX)
        # eigenvalue order is ascending, so outcome -1 comes first
        assert np.allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_eigenstate_gives_delta(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = Observable((x + x.conj().T) / 2)
        assert obs.nondegenerate
        val, proj = obs.spectral[2]
        vec = np.linalg.eigh(obs.matrix)[1][:, 2]
        rho = DensityMatrix(np.outer(vec, vec.conj()), (2, 2))
        probs = measurement_distribution(rho, obs)
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(probs, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            measurement_distribution(MIXED, Observable(SIGMA_Z))

    def test_no_check_per_call(self, monkeypatch):
        """rho and the observable were checked when built, so no Hermiticity
        check runs per call; the values are each projector's own, as
        expectation gives them."""
        from uwit import linalg

        rng = np.random.default_rng(36)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = Observable((x + x.conj().T) / 2)
        rho = random_density_matrix((2, 2), rng)
        expected = [expectation(rho.matrix, x) for _, x in obs.spectral]
        checks = []
        check = linalg._check_hermitian
        monkeypatch.setattr(linalg, "_check_hermitian", lambda a, name: checks.append(name) or check(a, name))
        probs = measurement_distribution(rho, obs)
        assert checks == []
        assert probs.tolist() == expected


@settings(max_examples=150, deadline=None)
@given(hermitian_matrices(), st.integers(0, 2**32 - 1))
def test_distribution_and_variance_are_expectation_bit_for_bit(m, seed):
    """measurement_distribution and variance read unchecked traces of what
    was checked when built: the same bits as expectation on the same
    operands, for an Observable and for its raw matrix."""
    rho = random_density_matrix((1, len(m)), np.random.default_rng(seed))
    obs = Observable(m)
    projectors = np.array([x for _, x in obs.spectral])
    expected = np.clip(expectation(rho.matrix, projectors), 0.0, None)
    assert measurement_distribution(rho, obs).tobytes() == expected.tobytes()
    mat = m.astype(complex)
    mean = expectation(rho.matrix, mat)
    expected = max(expectation(rho.matrix, mat @ mat) - mean * mean, 0.0)
    assert variance(rho, obs) == variance(rho, m) == expected


class TestChecksOnce:
    def test_no_hermiticity_check_on_validated_operands(self, monkeypatch):
        """States and observables are checked when built, and the criteria
        that take them check nothing again."""
        from uwit import linalg

        rho = random_density_matrix((2, 2), np.random.default_rng(40))
        paulis = collective_paulis()
        calls = {
            "measurement_distribution": lambda: measurement_distribution(rho, XX),
            "variance": lambda: variance(rho, ZZ),
            "entropic_sum_criterion": lambda: entropic_sum_criterion(rho, XX, ZZ, np.log(2)),
            "lur_value": lambda: lur_value(rho, paulis, 4.0),
        }
        expected = {name: call() for name, call in calls.items()}
        checks = []
        check = linalg._check_hermitian
        monkeypatch.setattr(linalg, "_check_hermitian", lambda a, name: checks.append(name) or check(a, name))
        for name, call in calls.items():
            assert repr(call()) == repr(expected[name])
            assert checks == [], name

    def test_a_raw_matrix_is_checked_once(self, monkeypatch):
        from uwit import linalg

        checks = []
        check = linalg._check_hermitian
        monkeypatch.setattr(linalg, "_check_hermitian", lambda a, name: checks.append(name) or check(a, name))
        variance(MIXED, kron(SIGMA_Z, ID2))
        assert len(checks) == 1

    def test_a_raw_matrix_is_still_refused(self):
        bad = kron(SIGMA_Z, ID2) + 1e-6j * np.triu(np.ones((4, 4)), 1)
        with pytest.raises(NotHermitianError):
            variance(MIXED, bad)
        with pytest.raises(NotHermitianError):
            variance(MIXED, np.full((4, 4), np.nan))
        with pytest.raises(DimensionMismatchError):
            variance(MIXED, SIGMA_Z)
        with pytest.raises(DimensionMismatchError):
            variance(MIXED, Observable(SIGMA_Z))
        with pytest.raises(DimensionMismatchError):
            variance(MIXED, np.ones((4, 2)))


class TestEntropies:
    def test_shannon_examples(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert shannon_entropy([0.25] * 4) == pytest.approx(np.log(4), abs=1e-14)
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-14)

    def test_tsallis_examples(self):
        for q in (0.5, 1.0, 2.0, 7.0):
            assert tsallis_entropy([1.0, 0.0, 0.0], q) == pytest.approx(0.0, abs=1e-14)
        assert tsallis_entropy([0.25] * 4, 2.0) == pytest.approx(0.75, abs=1e-14)

    def test_tsallis_shannon_limit(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            p = rng.exponential(size=5)
            p /= p.sum()
            s = shannon_entropy(p)
            assert tsallis_entropy(p, 1 + 1e-4) == pytest.approx(s, abs=1e-3)
            assert tsallis_entropy(p, 1 - 1e-4) == pytest.approx(s, abs=1e-3)

    def test_invalid_q(self):
        with pytest.raises(InvalidParameterError):
            tsallis_entropy([0.5, 0.5], 0.0)

    @pytest.mark.parametrize("q", [-1.0, float("nan"), float("inf")])
    def test_q_must_be_positive_and_finite(self, q):
        with pytest.raises(InvalidParameterError):
            tsallis_entropy([0.5, 0.5], q)
        with pytest.raises(InvalidParameterError):
            schmidt_entropy_bound(0.5, q)
        with pytest.raises(InvalidParameterError):
            bell_tsallis_criterion(SINGLET, q)

    @pytest.mark.parametrize("q", [1000.5, 2000.0, 1e300])
    def test_q_above_the_bell_bound(self, q):
        # the entropies and the Schmidt bound take any positive finite q;
        # only the Bell-entropy test, whose sums are subnormal there, refuses
        assert tsallis_entropy([0.5, 0.5], q) == pytest.approx(1.0 / (q - 1.0))
        assert schmidt_entropy_bound(0.5, q) == pytest.approx(1.0 / (q - 1.0))
        with pytest.raises(InvalidParameterError, match="1000"):
            bell_tsallis_criterion(SINGLET, q)

    def test_axioms(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 5):
            uniform_value = tsallis_entropy([1.0 / n] * n, 2.0)
            for _ in range(50):
                p = rng.exponential(size=n)
                p /= p.sum()
                assert shannon_entropy(p) >= 0.0
                assert tsallis_entropy(p, 2.0) >= 0.0
                assert shannon_entropy(p) <= np.log(n) + 1e-12
                assert tsallis_entropy(p, 2.0) <= uniform_value + 1e-12

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 15.0])
    def test_stacked_entropy_is_per_row_entropy(self, q):
        rng = np.random.default_rng(11)
        probs = rng.random((3, 40, 4)) * (rng.random((3, 40, 4)) < 0.7)
        probs[..., 0] += 1e-3  # no all-zero row
        probs /= probs.sum(axis=-1, keepdims=True)
        rows = np.array([_entropy(row, q) for row in probs.reshape(-1, 4)])
        assert _entropy(probs, q).tobytes() == rows.reshape(3, 40).tobytes()

    def test_rejects_bad_distributions(self):
        with pytest.raises(InvalidParameterError):
            shannon_entropy([0.7, 0.7])
        with pytest.raises(InvalidParameterError):
            shannon_entropy([1.5, -0.5])


class TestMaassenBound:
    def test_pauli_pair(self):
        mx = Observable(SIGMA_X)
        mz = Observable(SIGMA_Z)
        assert maassen_bound(mx, mz) == pytest.approx(np.log(2), abs=1e-12)

    def test_shared_eigenbasis(self):
        rng = np.random.default_rng(38)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        obs = Observable((x + x.conj().T) / 2)
        assert maassen_bound(obs, obs) == pytest.approx(0.0, abs=1e-12)

    def test_tilted_basis(self):
        # eigenvectors of (X+Z)/sqrt(2) sit at angle pi/8 from the Z basis
        mz = Observable(SIGMA_Z)
        mh = Observable((SIGMA_X + SIGMA_Z) / np.sqrt(2))
        expected = -2 * np.log(np.cos(np.pi / 8))
        assert maassen_bound(mz, mh) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateObservableError):
            maassen_bound(XX, Observable(SIGMA_Z))


class TestEntropicSum:
    def test_singlet_detected(self):
        verdict = entropic_sum_criterion(SINGLET, XX, ZZ, np.log(2))
        assert verdict.value == pytest.approx(0.0, abs=1e-12) and verdict.detected

    def test_maximally_mixed(self):
        verdict = entropic_sum_criterion(MIXED, XX, ZZ, np.log(2))
        assert verdict.value == pytest.approx(2 * np.log(2), abs=1e-12)
        assert not verdict.detected

    def test_product_state_on_boundary(self):
        verdict = entropic_sum_criterion(ZERO_ZERO, XX, ZZ, np.log(2))
        assert verdict.value == pytest.approx(np.log(2), abs=1e-12)
        assert not verdict.detected

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_refused(self, c):
        """c = inf would report the maximally mixed state as entangled."""
        with pytest.raises(InvalidParameterError):
            entropic_sum_criterion(MIXED, XX, ZZ, c)

    def test_numpy_bound_gives_python_types(self):
        for rho in (SINGLET, MIXED):
            verdict = entropic_sum_criterion(rho, XX, ZZ, np.log(2))
            assert type(verdict.value) is float and type(verdict.threshold) is float
            assert type(verdict.detected) is bool

    def test_zero_eigenvalue_rejected(self):
        projector = Observable(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(InvalidParameterError):
            entropic_sum_criterion(SINGLET, projector, ZZ, np.log(2))


class TestSchmidtEntropyBound:
    def test_half_matches_closed_form(self):
        for q in (0.5, 2.0, 3.0, 4.0, 15.0, 200.0):
            if q == 1.0:
                continue
            expected = (1 - 2.0 ** (1 - q)) / (q - 1)
            assert schmidt_entropy_bound(0.5, q) == pytest.approx(expected, abs=1e-15)

    def test_q2_values(self):
        assert schmidt_entropy_bound(0.5, 2.0) == 0.5
        assert schmidt_entropy_bound(1 / 3, 2.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_shannon_form_continuous_at_one(self):
        for c in (0.5, 1 / 3, 0.41):
            at_one = schmidt_entropy_bound(c, 1.0)
            assert schmidt_entropy_bound(c, 1 + 1e-6) == pytest.approx(at_one, abs=1e-4)
            assert schmidt_entropy_bound(c, 1 - 1e-6) == pytest.approx(at_one, abs=1e-4)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.floats(1e-3, 1.0, exclude_max=True),
        st.one_of(st.just(1.0), st.floats(0.0, 1000.0, exclude_min=True).filter(lambda q: abs(q - 1.0) >= 1e-3)),
    )
    def test_bound_is_the_entropy_of_the_extremal_distribution(self, c, q):
        """The closed form on Python floats equals tsallis_entropy of
        floor(1/c) entries c and one r, to 1e-9 relative. For q != 1 both
        take 1 - sum, whose roundoff near sum = 1 (c near 1) is an ulp of
        the sum, so the difference may also reach 4 eps / |q - 1|."""
        k = int(1.0 / c)
        r = max(1.0 - k * c, 0.0)
        oracle = tsallis_entropy([c] * k + [r], q)
        floor = 0.0 if q == 1.0 else 4.0 * np.finfo(float).eps / abs(q - 1.0)
        assert abs(schmidt_entropy_bound(c, q) - oracle) <= 1e-9 * abs(oracle) + floor

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            schmidt_entropy_bound(0.0, 2.0)
        with pytest.raises(InvalidParameterError):
            schmidt_entropy_bound(1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            schmidt_entropy_bound(0.5, -1.0)


class TestBellCriteria:
    def test_singlet_variance_detected(self):
        verdict = bell_variance_criterion(SINGLET)
        assert verdict.value == pytest.approx(0.0, abs=1e-12) and verdict.detected

    def test_mixed_variance_not_detected(self):
        verdict = bell_variance_criterion(MIXED)
        assert verdict.value == pytest.approx(0.75, abs=1e-12) and not verdict.detected

    def test_variance_value_in_coordinates(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            c = random_tetrahedron_coords(rng)
            r_sq = float(np.sum(np.asarray(c) ** 2))
            verdict = bell_variance_criterion(bell_diagonal_state(c))
            assert verdict.value == pytest.approx(1 - (1 + r_sq) / 4, abs=1e-12)
            assert verdict.detected == (r_sq > 1.0)

    def test_singlet_tsallis_detected(self):
        verdict = bell_tsallis_criterion(SINGLET, 2.0)
        assert verdict.value < 1e-12 and verdict.threshold == 0.5 and verdict.detected

    def test_mixed_tsallis_not_detected(self):
        verdict = bell_tsallis_criterion(MIXED, 2.0)
        assert verdict.value == pytest.approx(0.75, abs=1e-12) and not verdict.detected

    def test_q_at_the_bound_decides(self):
        # (1 - eps)|00><00| + eps |phi+><phi+| at eps = 0.3 is detected up to
        # q = 1000; at q = 2000, where the sums were subnormal, it was not
        phi_plus = bell_state(1).density().matrix
        rho = DensityMatrix(0.7 * ZERO_ZERO.matrix + 0.3 * phi_plus, (2, 2))
        assert bell_tsallis_criterion(rho, 200.0).detected
        verdict = bell_tsallis_criterion(rho, 1000.0)
        assert verdict.detected and verdict.criterion_id == "bell_tsallis_q1000"
        assert not bell_tsallis_criterion(ZERO_ZERO, 1000.0).detected

    def test_q_is_checked_once_per_verdict(self, monkeypatch):
        """bell_tsallis_criterion checks its q once, and the Bell-variance
        test, whose q is 2, not at all: the threshold is not re-checked."""
        calls = []
        for name in ("_check_q", "_check_bell_q"):
            check = getattr(uwit.criteria, name)
            monkeypatch.setattr(uwit.criteria, name, lambda q, check=check, name=name: calls.append(name) or check(q))
        for q in (0.5, 1.0, 2.0, 1000.0):
            calls.clear()
            bell_tsallis_criterion(SINGLET, q)
            assert calls == ["_check_bell_q"]
        calls.clear()
        bell_variance_criterion(SINGLET)
        assert calls == []

    def test_q2_matches_variance_criterion(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            rho = bell_diagonal_state(random_tetrahedron_coords(rng))
            assert bell_tsallis_criterion(rho, 2.0).detected == bell_variance_criterion(rho).detected

    def test_detection_strengthens_with_q(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            rho = bell_diagonal_state(random_tetrahedron_coords(rng))
            flags = [bell_tsallis_criterion(rho, q).detected for q in (2.0, 4.0, 15.0)]
            for weaker, stronger in zip(flags, flags[1:]):
                assert not weaker or stronger

    def test_large_q_approaches_population_witnesses(self):
        # Exact convergence layer at finite q: detection always implies
        # max_i p_i > 1/2, and max_i p_i > 2^(1/q)/2 guarantees detection,
        # so the test matches the population witness outside that layer.
        q = 200.0
        upper = 0.5 * 2.0 ** (1.0 / q)
        rng = np.random.default_rng(42)
        inside_layer = 0
        for _ in range(1000):
            rho = bell_diagonal_state(random_tetrahedron_coords(rng))
            max_p = float(bell_populations(rho).max())
            detected = bell_tsallis_criterion(rho, q).detected
            if max_p <= 0.5:
                assert not detected
            elif max_p > upper:
                assert detected
            else:
                inside_layer += 1
        assert inside_layer < 20

    def test_bell_populations_of_singlet(self):
        assert np.allclose(bell_populations(SINGLET), [0, 0, 0, 1], atol=1e-12)

    def test_roundoff_negative_population_of_a_valid_state(self):
        # DensityMatrix admits eigenvalues down to PSD_TOL = -1e-9; the
        # populations of such a state are clipped at 0, not re-validated
        rho = NEAR_BOUNDARY_BELL_DIAGONAL
        assert bell_populations(rho).min() == 0.0
        assert bell_variance_criterion(rho).detected
        assert bell_tsallis_criterion(rho, 1.0).detected
        bell_basis = Observable(
            sum(k * s.density().matrix for k, s in enumerate(bell_states(), start=1))
        )
        probs = measurement_distribution(rho, bell_basis)
        assert probs.min() == 0.0 and probs.max() == pytest.approx(1.0, abs=1e-9)

    def test_populations_are_fresh_on_each_call(self):
        # the populations are derived from the state's Pauli values on each
        # call, as a fresh writable array, so writing to one moves no verdict
        rho = random_density_matrix((2, 2), np.random.default_rng(8))
        before = [bell_variance_criterion(rho), bell_tsallis_criterion(rho, 3.0)]
        first = bell_populations(rho)
        populations = bell_populations(rho)
        assert populations.shape == (4,) and populations.flags.writeable
        assert populations is not first and not np.shares_memory(populations, first)
        populations[:] = [1.0, 0.0, 0.0, 0.0]
        assert [bell_variance_criterion(rho), bell_tsallis_criterion(rho, 3.0)] == before
        assert bell_populations(rho).tolist() == first.tolist() != populations.tolist()


class TestConcavity:
    def test_variance_sum_concave_under_mixing(self):
        rng = np.random.default_rng(43)
        observables = collective_paulis()
        for _ in range(200):
            rho1 = random_density_matrix((2, 2), rng)
            rho2 = random_density_matrix((2, 2), rng)
            lam = rng.uniform()
            mix = DensityMatrix(lam * rho1.matrix + (1 - lam) * rho2.matrix, (2, 2))
            total_mix = sum(variance(mix, m) for m in observables)
            total_parts = lam * sum(variance(rho1, m) for m in observables) + (
                1 - lam
            ) * sum(variance(rho2, m) for m in observables)
            assert total_mix >= total_parts - 1e-9


class TestSeparableSoundness:
    def test_no_criterion_fires_on_separable_mixtures(self):
        rng = np.random.default_rng(44)
        log2 = np.log(2)
        for _ in range(2000):
            rho = random_separable_state(int(rng.integers(1, 5)), rng)
            assert linear_witness_value(rho) >= 0.0
            assert not nonlinear_witness_value(rho).detected
            assert not pauli_lur(rho).detected
            assert not bell_variance_criterion(rho).detected
            for q in (2.0, 4.0, 15.0):
                assert not bell_tsallis_criterion(rho, q).detected
            assert not entropic_sum_criterion(rho, XX, ZZ, log2).detected
