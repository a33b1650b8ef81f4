"""Haar-random pure states, which the state and state-file tests draw."""

import math

import numpy as np

from uwit.states import PureState


def haar_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> PureState:
    """A Haar-random pure state on the bipartite system: a complex Gaussian
    vector, normalized."""
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(v / np.linalg.norm(v), dims)
