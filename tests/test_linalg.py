import numpy as np
import pytest

from uwit.errors import ConvergenceError, DimensionMismatchError, NotHermitianError
from uwit.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expectation,
    hermitian_eigen,
    kron,
    partial_transpose,
)
from uwit.states import DensityMatrix, noise_rng, sample_noise_ball


# a NaN or infinite entry makes the Hermiticity defect non-finite, which
# fails; inf - inf in the defect makes numpy warn on the way
NON_HERMITIAN = [
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[0.0, np.inf], [0.0, 0.0]]),  # an infinite defect at an infinite norm
]


def random_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def singlet_matrix():
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def partial_transpose_loops(m, da, db):
    """Index-by-index reference for the second-factor transpose."""
    out = np.zeros_like(m)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = m[i * db + l, j * db + k]
    return out


def trace_product_loops(a, b):
    n = a.shape[0]
    return sum(a[i, j] * b[j, i] for i in range(n) for j in range(n))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(ID2, ID2), np.eye(4, dtype=complex))

    def test_diagonal_product(self):
        assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]), atol=0)

    def test_double_bit_flip(self):
        e00 = np.array([1, 0, 0, 0], dtype=complex)
        e11 = np.array([0, 0, 0, 1], dtype=complex)
        assert np.allclose(kron(SIGMA_X, SIGMA_X) @ e00, e11, atol=0)

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 2)
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestHermitianEigen:
    def test_sigma_z(self):
        w, _ = hermitian_eigen(SIGMA_Z)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_sigma_x(self):
        w, _ = hermitian_eigen(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_singlet_partial_transpose_spectrum(self):
        pt = partial_transpose_loops(singlet_matrix(), 2, 2)
        # brute-force oracle on the explicitly constructed matrix
        oracle = np.sort(np.linalg.eigvalsh(pt))
        expected = np.array([-0.5, 0.5, 0.5, 0.5])
        assert np.allclose(oracle, expected, atol=1e-12)
        assert np.allclose(hermitian_eigen(pt)[0], expected, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_random_reconstruction(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            h = random_hermitian(rng, n)
            w, v = hermitian_eigen(h)
            assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-10
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10
            assert np.all(np.diff(w) >= 0)
            assert abs(w.sum() - np.trace(h).real) <= 1e-9
            # independent LAPACK oracle
            assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-9)

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = np.linalg.qr(x)[0]
        h = (u * np.array([2.0, 2.0, 5.0, 7.0])) @ u.conj().T
        w, v = hermitian_eigen(h)
        assert np.allclose(w, [2.0, 2.0, 5.0, 7.0], atol=1e-10)
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_rejects_non_hermitian(self):
        # alone, and as one slice of a stack of Hermitian matrices
        for m in NON_HERMITIAN:
            for h in (m, np.array([m, SIGMA_Z, SIGMA_X]), np.array([SIGMA_Z, SIGMA_X, m])):
                with pytest.raises(NotHermitianError):
                    hermitian_eigen(h)

    def test_stack_equals_each_slice(self):
        rng = np.random.default_rng(23)
        stack = np.array([[random_hermitian(rng, 4) for _ in range(3)] for _ in range(2)])
        w, v = hermitian_eigen(stack)
        assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
        for index in np.ndindex(stack.shape[:-2]):
            one_w, one_v = hermitian_eigen(stack[index])
            assert w[index].tobytes() == one_w.tobytes()
            assert v[index].tobytes() == one_v.tobytes()

    def test_rejects_non_square_input(self):
        for shape in ((4,), (2, 3), (3, 2, 3), (2, 4, 2)):
            with pytest.raises(DimensionMismatchError):
                hermitian_eigen(np.zeros(shape))

    @pytest.mark.parametrize(
        "driver, calls",
        [
            ("eigh", [lambda: hermitian_eigen(SIGMA_Z), lambda: hermitian_eigen(np.array([SIGMA_Z, SIGMA_X]))]),
            ("eigvalsh", [lambda: DensityMatrix(np.eye(4) / 4, (2, 2)), lambda: sample_noise_ball(0.2, noise_rng(1, 0))]),
        ],
        ids=["eigh", "eigvalsh"],
    )
    def test_lapack_failure_raises_convergence_error(self, monkeypatch, driver, calls):
        """Either LAPACK driver failing is a ConvergenceError: eigh in
        hermitian_eigen, eigvalsh in validation and in the noise sampler."""
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, driver, fail)
        for call in calls:
            with pytest.raises(ConvergenceError, match="^eigendecomposition did not converge"):
                call()


class TestPartialTranspose:
    def test_involution_exact(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 6)
        assert np.array_equal(partial_transpose(partial_transpose(m, (2, 3)), (2, 3)), m)

    def test_diagonal_fixed(self):
        d = np.diag(np.arange(1.0, 5.0)).astype(complex)
        assert np.array_equal(partial_transpose(d, (2, 2)), d)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_matches_loop_reference(self, dims):
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        n = dims[0] * dims[1]
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(partial_transpose(m, dims), partial_transpose_loops(m, *dims))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_stack_matches_loop_reference_slice_by_slice(self, dims):
        rng = np.random.default_rng(dims[1])
        n = dims[0] * dims[1]
        stack = rng.standard_normal((3, 2, n, n)) + 1j * rng.standard_normal((3, 2, n, n))
        pt = partial_transpose(stack, dims)
        assert pt.shape == stack.shape
        for index in np.ndindex(stack.shape[:-2]):
            assert np.array_equal(pt[index], partial_transpose_loops(stack[index], *dims))

    def test_preserves_trace_and_hermiticity_exactly(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 4)
        pt = partial_transpose(h, (2, 2))
        assert np.trace(pt) == np.trace(h)
        assert np.array_equal(pt, pt.conj().T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(4, dtype=complex), (2, 3))
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.zeros((3, 4, 2), dtype=complex), (2, 2))


class TestExpectation:
    def test_traceless_observable(self):
        assert expectation(np.eye(4) / 4, kron(SIGMA_Z, SIGMA_Z)) == pytest.approx(0.0, abs=1e-14)

    def test_eigenstate(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert expectation(rho, SIGMA_Z) == pytest.approx(1.0, abs=1e-14)

    def test_singlet_correlator(self):
        rho = singlet_matrix()
        m = kron(SIGMA_X, SIGMA_X)
        oracle = trace_product_loops(rho, m)
        assert abs(oracle.imag) < 1e-14 and oracle.real == pytest.approx(-1.0, abs=1e-12)
        assert expectation(rho, m) == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(np.eye(2) / 2, np.eye(4))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_rejects_non_hermitian(self):
        # alone, and as one slice of a stack of Hermitian matrices
        for m in NON_HERMITIAN:
            for h in (m, np.array([SIGMA_Z, m]), np.array([[m, SIGMA_X]])):
                with pytest.raises(NotHermitianError):
                    expectation(np.eye(2) / 2, h)
                with pytest.raises(NotHermitianError):
                    expectation(h, SIGMA_Z)

    def test_stacks_give_every_pair(self):
        """Stacked inputs give rho's stack axes followed by m's, each value
        the 2-D call's, bit for bit."""
        rng = np.random.default_rng(24)
        rho = np.array([[random_hermitian(rng, 4) for _ in range(3)] for _ in range(2)])
        m = np.array([random_hermitian(rng, 4) for _ in range(5)])
        values = expectation(rho, m)
        assert values.shape == (2, 3, 5)
        for i, j, k in np.ndindex(2, 3, 5):
            assert values[i, j, k] == expectation(rho[i, j], m[k])
        assert expectation(rho, m[0]).shape == (2, 3)
        assert expectation(rho[0, 0], m).shape == (5,)
        with pytest.raises(DimensionMismatchError):
            expectation(rho, np.eye(3))

    def test_two_matrices_are_a_batch_of_one(self):
        """Two matrices take the one summation that stacks take: the value
        is the stacked value of the pair as a batch of one, bit for bit, and
        a Python float."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
        @hypothesis.given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e6))
        def check(n, seed, scale):
            rng = np.random.default_rng(seed)
            r, m = random_hermitian(rng, n), scale * random_hermitian(rng, n)
            value = expectation(r, m)
            assert type(value) is float
            assert np.float64(value).tobytes() == expectation(r[None], m[None])[0, 0].tobytes()

        check()

    def test_hermiticity_bound_is_relative_to_the_norm(self):
        """U D U^dagger is Hermitian only up to a roundoff that grows with
        its norm; expectation and hermitian_eigen hold each matrix to
        HERMITICITY_TOL * max(1, ||M||), so these pass at norms 1e6 and 1e7,
        alone and in a stack, while a defect of 1e-8 ||M|| fails."""
        rng = np.random.default_rng(25)
        rho = np.eye(4) / 4
        checks = (lambda m: expectation(rho, m), hermitian_eigen)
        for scale in (1e6, 1e7):
            stack = []
            for _ in range(250):
                u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                m = u @ np.diag(rng.uniform(-scale, scale, 4)) @ u.conj().T
                stack.append(m)
                bad = m.copy()
                bad[0, 1] += 1e-8 * np.linalg.norm(m)
                for check in checks:
                    check(m)
                    with pytest.raises(NotHermitianError):
                        check(bad)
            for check in checks:
                check(np.array(stack))
                with pytest.raises(NotHermitianError):
                    check(np.array(stack + [bad]))
