"""
Witnesses on the Werner line
============================

The white-noise singlet family p |psi-><psi-| + (1-p) I/4 is the simplest
testbed for the detection machinery: the linear correlation witness, its
nonlinear refinement, and the exact partial-transpose criterion all flip
from "separable" to "entangled" at p = 1/3, up to their detection tolerances.
"""

import numpy as np

from uwit import (
    is_npt,
    linear_witness_value,
    nonlinear_witness_value,
    pauli_lur,
    werner_state,
    werner_thresholds,
)
from uwit.criteria import WITNESS_TOL

# Step 1 -- scan the line ----------------------------------------------------
print(f"{'p':>5} {'linear':>9} {'nonlinear':>10} {'lur sum':>8} {'min PT eig':>11}  verdicts")
for p in np.linspace(0.0, 1.0, 11):
    rho = werner_state(float(p))
    linear = linear_witness_value(rho)
    nonlinear = nonlinear_witness_value(rho)
    lur = pauli_lur(rho)
    npt, min_eig = is_npt(rho)
    tags = "".join(
        tag if flag else "-"
        for tag, flag in (("W", linear < -WITNESS_TOL), ("N", nonlinear.detected), ("P", npt))
    )
    print(f"{p:5.2f} {linear:9.4f} {nonlinear.value:10.4f} {lur.value:8.4f} {min_eig:11.4f}  {tags}")

# On this line the quadratic correction vanishes (the local Bloch vectors are
# zero), so the nonlinear witness coincides with the linear one and neither
# can beat the partial transpose -- all three flip at the same point.

# Step 2 -- the flip points ---------------------------------------------------
# Both witness values are 1 - 3p and the least partial-transpose eigenvalue is
# (1 - 3p)/4, so each criterion flips where its value crosses its tolerance:
# just above 1/3. werner_thresholds checks the sweep's flags on both sides.
thresholds = werner_thresholds()
print(
    f"\nthresholds: witness={thresholds.witness:.10f} "
    f"lur={thresholds.lur:.10f} npt={thresholds.npt:.10f} (1/3 = {1 / 3:.10f})"
)
