"""
Entropic separability criteria
==============================

Measuring an observable in a state yields a probability distribution over
the distinct eigenvalues; its entropy quantifies the measurement
uncertainty. Two routes to entanglement detection follow:

* two product observables whose local factors obey an entropic uncertainty
  relation keep their summed measurement entropies above the same bound on
  every separable state;
* a single observable with entangled eigenvectors (here: the Bell basis)
  has a Tsallis-entropy floor on separable states, tied to the largest
  squared Schmidt coefficient of its eigenvectors.
"""

import numpy as np

from uwit import (
    Observable,
    SIGMA_X,
    SIGMA_Z,
    bell_state,
    bell_tsallis_criterion,
    entropic_sum_criterion,
    kron,
    maassen_bound,
    maximally_mixed,
    measurement_distribution,
    schmidt_entropy_bound,
    shannon_entropy,
    werner_state,
)

XX = Observable(kron(SIGMA_X, SIGMA_X))
ZZ = Observable(kron(SIGMA_Z, SIGMA_Z))
SINGLET = bell_state(4).density()

# Step 1 -- measurement distributions ----------------------------------------
for label, rho in [("singlet", SINGLET), ("maximally mixed", maximally_mixed())]:
    px = measurement_distribution(rho, XX)
    pz = measurement_distribution(rho, ZZ)
    print(f"{label:>16}: P(XX)={np.round(px, 6)} P(ZZ)={np.round(pz, 6)} "
          f"S(XX)+S(ZZ)={shannon_entropy(px) + shannon_entropy(pz):.4f}")

# Step 2 -- the two-observable entropic test ---------------------------------
# The bound ln 2 is the Maassen-Uffink constant of the local pair (X, Z).
c = maassen_bound(Observable(SIGMA_X), Observable(SIGMA_Z))
print(f"\nlocal entropic bound C = {c:.6f} (ln 2 = {np.log(2):.6f})")
for label, rho in [("singlet", SINGLET), ("werner p=0.8", werner_state(0.8)),
                   ("werner p=0.2", werner_state(0.2))]:
    verdict = entropic_sum_criterion(rho, XX, ZZ, c)
    print(f"{label:>16}: entropy sum {verdict.value:.4f} vs {verdict.threshold:.4f} "
          f"-> detected={verdict.detected}")

# The singlet is a shared eigenstate of XX and ZZ, so both measurements are
# deterministic and the entropy sum crashes to zero -- far below any bound a
# pair of incompatible local observables can satisfy.

# Step 3 -- Bell-population Tsallis criterion --------------------------------
print(f"\n{'q':>6} {'bound':>9}  werner p=0.45: value -> detected")
for q in (1.0, 2.0, 4.0, 15.0):
    rho = werner_state(0.45)
    verdict = bell_tsallis_criterion(rho, q)
    print(f"{q:6g} {schmidt_entropy_bound(0.5, q):9.5f}  "
          f"{verdict.value:.5f} -> {verdict.detected}")

# Detection strength grows with q: at q = 2 the criterion is the population
# sphere, while q -> infinity recovers the Bell-projector witnesses, which
# flag the p = 0.45 Werner state even though the sphere misses it.
