"""Property tests of the one Hermiticity check: `_check_hermitian` (behind
expectation and hermitian_eigen) and `density_matrix_violations` pass or
refuse exactly what a norm oracle does, for exactly Hermitian matrices,
matrices just inside and just outside the bound, non-finite entries, and
stacks that mix them."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from uwit.errors import NotHermitianError
from uwit.linalg import HERMITICITY_TOL, _adjoint_difference, _check_hermitian, hermiticity_defect
from uwit.states import density_matrix_violations

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
    with np.errstate(invalid="ignore"):  # inf - inf, as numpy subtracts it
        exact = not _adjoint_difference(m).any()
        if oracle(m):
            _check_hermitian(m, "m")
        else:
            with pytest.raises(NotHermitianError):
                _check_hermitian(m, "m")
        defects = np.atleast_1d(hermiticity_defect(m))
    # the short cut is taken only where every defect is 0
    assert not exact or (defects == 0.0).all()
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
