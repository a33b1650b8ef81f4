"""Helpers that several test modules share: Haar-random pure states and
unitaries, the collective Pauli observables, and a mixing weight whose
state has a roundoff Bell population."""

import math

import numpy as np

from uwit.criteria import Observable
from uwit.states import _PAULI_BASIS, PureState

# the collective Paulis sigma_i x I + I x sigma_i, as observables
COLLECTIVE_PAULIS = [Observable(m) for m in _PAULI_BASIS[1:4]]

# (1 - eps)|00><00| + eps |phi+><phi+| at this eps has computed Bell
# populations (0.750, 0.250, 2.8e-17, 0). Powered as computed, the
# roundoff's (2.8e-17)^0.0625 = 0.09 would lift the sum above the bound,
# and q = 0.0625 would miss the state that q = 0.25 to 2 detect; below
# q = 1, BELL_POPULATION_FLOOR counts that population as 0.
ROUNDOFF_EPS = 0.5000032133056707


def haar_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> PureState:
    """A Haar-random pure state on the bipartite system: a complex Gaussian
    vector, normalized."""
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(v / np.linalg.norm(v), dims)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar-random n x n unitary: the Q of a complex Ginibre matrix's QR
    factorization, with its columns' phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
