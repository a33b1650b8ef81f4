"""Property tests: every scalar criterion is its batch kernel applied to a
batch of one, so scalar results equal the batch results over generated
stacks of states."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from uwit.criteria import (
    _bell_tsallis_detects,
    _linear_witness_values,
    _nonlinear_witness_values,
    bell_populations,
    bell_tsallis_criterion,
    bell_variance_criterion,
    linear_witness_value,
    nonlinear_witness_value,
)
from uwit.states import (
    DensityMatrix,
    bell_diagonal_state,
    in_state_tetrahedron,
    random_density_matrix,
    random_separable_state,
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
    rho = np.array([s.matrix for s in states])
    linear = _linear_witness_values(rho)
    nonlinear = _nonlinear_witness_values(rho, linear)
    assert [linear_witness_value(s) for s in states] == linear.tolist()
    assert [nonlinear_witness_value(s).value for s in states] == nonlinear.tolist()


@BOUNDED
@given(stacks)
def test_bell_verdicts_equal_batched_decision(states):
    populations = np.array([bell_populations(s) for s in states])
    for q in Q_VALUES:
        expected = _bell_tsallis_detects(populations, q).tolist()
        assert [bell_tsallis_criterion(s, q).detected for s in states] == expected
    expected = _bell_tsallis_detects(populations, 2.0).tolist()
    assert [bell_variance_criterion(s).detected for s in states] == expected
