"""Property tests of the one Hermiticity check: `_check_hermitian` (behind
expectation and hermitian_eigen) and `density_matrix_violations` pass or
refuse exactly what a norm oracle does, for exactly Hermitian matrices,
matrices just inside and just outside the bound, non-finite entries, and
stacks that mix them. A further property holds that every matrix uwit
hands to expectation or hermitian_eigen with ``check=False``, or to the
unchecked eigensolver kernel _eigh, is exactly Hermitian."""

import json
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from uwit import experiments, states
from uwit.criteria import Observable
from uwit.errors import NotHermitianError
from uwit.linalg import (
    HERMITICITY_TOL,
    _adjoint_difference,
    _check_hermitian,
    expectation,
    hermitian_eigen,
)
from uwit.states import _PAULI_BASIS, _draw_noise_block, density_matrix_violations, load_state, random_density_matrix

BOUNDED = settings(derandomize=True, max_examples=300, deadline=None)

# how far a perturbed matrix's defect sits from its bound, as a fraction of
# the bound: well inside, just inside, just outside, well outside
INSIDE = st.one_of(st.floats(0.0, 0.5), st.floats(1.0 - 1e-3, 1.0 - 1e-5))
OUTSIDE = st.one_of(st.floats(1.0 + 1e-5, 1.0 + 1e-3), st.floats(2.0, 1e6))
NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)]


def defects_and_bounds(m, relative=True):
    """(||M - M^dagger||, HERMITICITY_TOL * max(1, ||M||)) for each matrix M
    of a (..., n, n) stack, or HERMITICITY_TOL itself as the bound when not
    ``relative``."""
    with np.errstate(invalid="ignore"):  # inf - inf
        for a in m.reshape(-1, *m.shape[-2:]):
            yield np.linalg.norm(a - a.conj().T), HERMITICITY_TOL * (max(1.0, np.linalg.norm(a)) if relative else 1.0)


def oracle(m, relative=True) -> bool:
    """Every matrix has a finite defect within its bound."""
    return all(np.isfinite(defect) and defect <= bound for defect, bound in defects_and_bounds(m, relative))


def near_tie(m, relative=True) -> bool:
    """Some finite defect lies within 1e-9 of its bound, where two summation
    orders of the same norm may round to opposite verdicts."""
    return any(
        np.isfinite(defect) and np.isfinite(bound) and abs(defect - bound) <= 1e-9 * bound
        for defect, bound in defects_and_bounds(m, relative)
    )


@st.composite
def matrices(draw, n, relative, kinds):
    """One n x n matrix of a drawn kind: exactly Hermitian, perturbed at one
    entry to a drawn fraction of its bound, or exactly Hermitian but for
    non-finite entries (two mirrored infinities give inf - inf)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scale = 10.0 ** draw(st.floats(-3.0, 7.0 if relative else -0.5))
    m = scale * (x + x.conj().T) / 2.0  # exactly Hermitian
    kind = draw(st.sampled_from(kinds))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind in ("inside", "outside"):
        bound = HERMITICITY_TOL * (max(1.0, np.linalg.norm(m)) if relative else 1.0)
        fraction = draw(INSIDE if kind == "inside" else OUTSIDE)
        # one entry off by delta gives a defect of sqrt(2)|delta|, or 2|delta|
        # for an imaginary delta on the diagonal
        if i == j:
            m[i, i] += 1j * fraction * bound / 2.0
        else:
            m[i, j] += draw(st.sampled_from([1.0, -1.0, 1j, -1j])) * fraction * bound / np.sqrt(2.0)
    elif kind == "non_finite":
        m[i, j] = draw(st.sampled_from(NON_FINITE))
    elif kind == "inf - inf":
        m[i, j] = m[j, i] = np.inf
    return m


@st.composite
def stacks(draw, relative=True):
    """A single matrix or a (k, n, n) or (2, k, n, n) stack of drawn matrices:
    half the stacks hold only matrices within the bound, the others mix in
    every kind."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    kinds = draw(st.sampled_from([("exact", "inside"), ("exact", "inside", "outside", "non_finite", "inf - inf")]))
    slices = [draw(matrices(n, relative, kinds)) for _ in range(int(np.prod(shape)))]
    return np.array(slices).reshape(*shape, n, n)


@BOUNDED
@given(stacks())
def test_check_hermitian_agrees_with_the_norm_oracle(m):
    assume(not near_tie(m))
    # no errstate: a non-finite entry fails before any inf - inf is subtracted
    exact = np.isfinite(m).all() and not _adjoint_difference(m).any()
    if oracle(m):
        _check_hermitian(m, "m")
    else:
        with pytest.raises(NotHermitianError):
            _check_hermitian(m, "m")
    # the short cut is taken only where every defect is 0
    assert not exact or all(defect == 0.0 for defect, _ in defects_and_bounds(m))
    assert exact == ((m == m.conj().swapaxes(-2, -1)).all() and np.isfinite(m).all())


@BOUNDED
@given(stacks(relative=False))
def test_density_matrix_violations_agree_with_the_norm_oracle(m):
    """A finite matrix is named "hermitian" exactly when its defect exceeds
    HERMITICITY_TOL (the relative bound of a matrix of norm at most 1); a
    non-finite one is named "finite_entries" alone, with no warning."""
    for a in m.reshape(-1, *m.shape[-2:]):
        assume(not near_tie(a, relative=False))
        violations = density_matrix_violations(a)
        if not np.isfinite(a).all():
            assert violations == ["finite_entries"]
        else:
            assert ("hermitian" in violations) == (not oracle(a, relative=False))


def test_mirrored_infinities_are_refused_with_no_warning():
    """Observable, expectation and hermitian_eigen refuse [[0, inf], [inf, 0]]
    before subtracting its adjoint, so numpy warns nothing (inf - inf)."""
    m = np.array([[0.0, np.inf], [np.inf, 0.0]])
    for call in (lambda: Observable(m), lambda: expectation(np.eye(2) / 2, m), lambda: hermitian_eigen(m)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError):
                call()


def test_overflowing_difference_is_refused():
    """Finite entries whose adjoint difference overflows give an infinite
    defect against an infinite bound, which fails."""
    m = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(NotHermitianError):  # 1e308 - (-1e308), and its square
        _check_hermitian(m, "m")


def first_arguments(call, names):
    """The first argument of every call that ``call()`` makes to the named
    functions of uwit.states and uwit.experiments, in call order."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (states, experiments):
            for name in names:
                if hasattr(module, name):
                    original = getattr(module, name)
                    mp.setattr(module, name, lambda *args, _original=original, **kwargs: seen.append(args[0]) or _original(*args, **kwargs))
        call()
    return seen


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**65),
    d=st.one_of(st.just(0.5), st.floats(0.0, np.sqrt(3.0) / 2.0)),
    p=st.floats(0.0, 1.0),
    fraction=st.floats(0.01, 0.99),
    entry=st.sampled_from([(0, 1), (1, 0), (2, 3), (0, 3)]),
    delta=st.sampled_from([1.0, -1.0, 1j, -1j]),
)
def test_what_uwit_decides_unchecked_is_exactly_hermitian(tmp_path_factory, seed, d, p, fraction, entry, delta):
    """The premise of check=False: a noise block (at d = 0.5 most first
    candidates are rejected and replayed), the mixtures p S + (1 - p) sigma
    of _block_flags, their partial transposes and sigma's, and a loaded
    state whose file is Hermitian only within HERMITICITY_TOL, with its
    partial transpose and the Pauli basis, all have an adjoint difference
    with no nonzero entry."""
    n = 16 if d <= 0.6 else 1  # far out in the ball one draw takes up to a second
    sigma = _draw_noise_block(seed, d, 0, n)
    # the mixtures and their partial transposes, then sigma's partial
    # transpose and those of any mixture the sweep re-decides per p
    block = first_arguments(lambda: experiments._block_flags(sigma, p), ["_min_pt_eigenvalues", "hermitian_eigen"])
    sweep = first_arguments(lambda: experiments._sweep_flags(sigma, [p]), ["_eigh", "hermitian_eigen"])
    assert [a.shape for a in block] == [(n, 4, 4)] * 2 and sweep[0].shape == (n, 4, 4)

    m = random_density_matrix((2, 2), np.random.default_rng(seed % 2**64)).matrix.copy()
    m[entry] += delta * fraction * HERMITICITY_TOL / np.sqrt(2.0)  # a defect of fraction * HERMITICITY_TOL
    path = tmp_path_factory.mktemp("near") / "state.json"
    path.write_text(json.dumps({"dims": [2, 2], "re": m.real.tolist(), "im": m.imag.tolist()}))
    rho = load_state(path)
    loaded = first_arguments(lambda: (rho._pauli_values, states.is_npt(rho)), ["expectation", "hermitian_eigen"])
    assert loaded[0] is rho.matrix and len(loaded) == 2

    for a in [sigma, *block, *sweep, *loaded, _PAULI_BASIS]:
        assert not _adjoint_difference(a).any()
