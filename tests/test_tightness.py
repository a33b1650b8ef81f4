"""The thresholds are tight, not only sound. A product state on a
criterion's boundary attains its threshold, within the criterion's guard,
and is not detected; mixed with the Bell state it borders at a weight eps
above a floor derived from the guard, it is detected. So a threshold set
too lax or too strict fails here on meaning, not only in a pinned digest.

The floors. (1 - eps)|01><01| + eps |psi-><psi-| has linear and nonlinear
witness value -2 eps (its collective-Pauli means are 0) and pauli_lur value
4 - 4 eps, so the witnesses and pauli_lur detect exactly for
eps > WITNESS_TOL / 2. (1 - eps)|00><00| + eps |phi+><phi+| has Bell
populations ((1 + eps)/2, (1 - eps)/2, 0, 0), so sum p^q = 2^(1-q) f with
f = ((1 + eps)^q + (1 - eps)^q)/2 = 1 + q(q - 1) eps^2/2 + ..., and |f - 1|
grows with eps. The verdict needs f - 1 > DETECTION_TOL for q > 1 and
1 - f > DETECTION_TOL for q < 1, which hold for
eps > sqrt(2 DETECTION_TOL / |q(q - 1)|); at q = 1 the entropy falls below
ln 2 by eps^2/2 + ..., which passes DETECTION_TOL for
eps > sqrt(2 DETECTION_TOL). Below q = 1 the two zero populations are 0
but for roundoff, which BELL_POPULATION_FLOOR counts as 0. Weights are
drawn from 1.1 times the floor, which leaves 0.21 DETECTION_TOL for
roundoff.

The witnesses and pauli_lur are constant on a local-unitary orbit
(U x U) rho (U x U)^dagger: I + XX + YY + ZZ is twice the swap, which U x U
commutes with, and U x U only rotates the vector of collective-Pauli means.
So no product state |a>|b> is detected anywhere on its orbit."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from haar import ROUNDOFF_EPS, haar_unitary
from uwit.criteria import (
    _CRITERIA,
    BELL_POPULATION_FLOOR,
    BELL_Q_MAX,
    DETECTION_TOL,
    WITNESS_TOL,
    bell_populations,
    tsallis_entropy,
)
from uwit.errors import InvalidParameterError
from uwit.states import DensityMatrix, PureState, bell_state, random_product_state

BOUNDED = settings(derandomize=True, max_examples=100, deadline=None)
KET_00, KET_01 = (PureState(np.eye(4)[k], (2, 2)).density() for k in (0, 1))
SINGLET, PHI_PLUS = bell_state(4).density(), bell_state(1).density()
# criterion id -> the guard within which its value counts as its threshold
WITNESS_GUARDS = {"linear_witness": WITNESS_TOL, "nonlinear_witness": WITNESS_TOL, "pauli_lur": 2 * WITNESS_TOL}
BELL_IDS = ("bell_variance", "bell_tsallis")
ULP_BELOW_1, ULP_ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)


def mixture(state: DensityMatrix, bell: DensityMatrix, eps: float) -> DensityMatrix:
    return DensityMatrix((1.0 - eps) * state.matrix + eps * bell.matrix, (2, 2))


def verdicts(rho: DensityMatrix, ids, q: float = 2.0):
    return [v for name in ids for v in _CRITERIA[name](rho, [q])]


def bell_floor(q: float) -> float:
    return math.sqrt(2.0 * DETECTION_TOL / (1.0 if q == 1.0 else abs(q * (q - 1.0))))


def test_01_attains_the_witness_thresholds():
    for v in verdicts(KET_01, WITNESS_GUARDS):
        assert abs(v.value - v.threshold) <= WITNESS_GUARDS[v.criterion_id], v
        assert not v.detected, v


@BOUNDED
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
def test_01_with_the_singlet_crosses_at_the_witness_floor(u):
    # detected from 1.1 times the floor up, and not below 0.9 times it,
    # since the values are exactly linear in eps
    floor = WITNESS_TOL / 2.0
    above = 1.1 * floor + u * (1.0 - 1.1 * floor)
    assert all(v.detected for v in verdicts(mixture(KET_01, SINGLET, above), WITNESS_GUARDS))
    below = u * 0.9 * floor
    assert not any(v.detected for v in verdicts(mixture(KET_01, SINGLET, below), WITNESS_GUARDS))


# q up to 1e300: above BELL_Q_MAX the Bell-entropy test is refused. 1073.32,
# refused now, once detected |00> (its two sides of the comparison were
# rounded apart as subnormals)
@BOUNDED
@given(st.floats(min_value=1e-300, max_value=1e300))
@example(0.5)
@example(1.0)
@example(2.0)
@example(200.0)
@example(1e-300)
@example(1e300)
@example(ULP_BELOW_1)
@example(ULP_ABOVE_1)
@example(1000.0)
@example(1000.5)
@example(1073.32)
def test_00_attains_every_bell_threshold(q):
    if q > BELL_Q_MAX:
        with pytest.raises(InvalidParameterError):
            verdicts(KET_00, ["bell_tsallis"], q)
        return
    for v in verdicts(KET_00, BELL_IDS, q):
        assert v.value == pytest.approx(v.threshold, rel=DETECTION_TOL, abs=DETECTION_TOL), v
        assert not v.detected, v


# q in (0, 1000]: beyond q of about 1023 the sums p^q and 2^(1-q) are
# subnormal or zero
@BOUNDED
@given(st.floats(min_value=0.0, max_value=1000.0, exclude_min=True), st.floats(0.0, 1.0))
@example(0.0625, 0.0)
@example(0.5, 0.0)
@example(1.0, 0.0)
@example(2.0, 0.0)
@example(200.0, 0.0)
@example(1000.0, 0.0)
def test_00_with_phi_plus_crosses_above_the_bell_floor(q, u):
    low = 1.1 * bell_floor(q)
    assume(low < 1.0)  # near q = 1 the floor passes 1, and nothing is claimed
    eps = low + u * (1.0 - low)
    ids = BELL_IDS if q == 2.0 else ("bell_tsallis",)  # bell_variance is q = 2
    assert all(v.detected for v in verdicts(mixture(KET_00, PHI_PLUS, eps), ids, q))


@pytest.mark.parametrize("q", [0.0625, 0.25, 0.5, 1.0, 2.0])
def test_00_with_phi_plus_is_detected_through_a_roundoff_population(q):
    rho = mixture(KET_00, PHI_PLUS, ROUNDOFF_EPS)
    populations = bell_populations(rho)
    assert 0.0 < populations[2] <= BELL_POPULATION_FLOOR
    (verdict,) = verdicts(rho, ["bell_tsallis"], q)
    assert verdict.detected, verdict
    # the floor is the Bell test's alone: tsallis_entropy keeps the roundoff's term
    entropy = tsallis_entropy(populations, q)
    assert (entropy > verdict.value) if q < 1.0 else (entropy == verdict.value)


@BOUNDED
@given(st.integers(0, 2**32 - 1))
def test_product_states_stay_undetected_on_their_local_unitary_orbit(seed):
    rng = np.random.default_rng(seed)
    rho = random_product_state((2, 2), rng).density()
    u = haar_unitary(rng, 2)
    uu = np.kron(u, u)
    rotated = DensityMatrix(uu @ rho.matrix @ uu.conj().T, (2, 2))
    for before, after in zip(verdicts(rho, WITNESS_GUARDS), verdicts(rotated, WITNESS_GUARDS), strict=True):
        assert abs(after.value - before.value) <= 1e-12, (before, after)
        for v in (before, after):
            assert v.value - v.threshold >= -WITNESS_TOL and not v.detected, v
