"""Independent references for the uwit benchmark, written with numpy alone.

Nothing here imports uwit: every value the benchmark checks uwit against is
recomputed from the definitions (Pauli matrices, Bell vectors, the partial
transpose, the Hilbert-Schmidt noise ball, exact integer geometry).
"""

from __future__ import annotations

import math

import numpy as np

# The decision thresholds are part of the documented behaviour, not of the
# implementation: strict violation by more than 1e-12 for the witnesses and
# the variance tests, a partial-transpose eigenvalue below -1e-9 for NPT.
DETECTION_TOL = 1e-12
NPT_THRESHOLD = -1e-9
PSD_TOL = -1e-9
# Values are compared to this absolute tolerance, and a verdict only where
# the reference puts the input further than this from its threshold.
VALUE_TOL = 1e-9

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# sigma_a x sigma_b / 2 with (a, b) != (0, 0): an orthonormal basis of the
# traceless Hermitian 4x4 matrices under the Hilbert-Schmidt inner product.
TRACELESS_BASIS = np.array(
    [np.kron(PAULI[a], PAULI[b]) / 2.0 for a in range(4) for b in range(4)][1:]
)
COLLECTIVE = np.array([np.kron(s, PAULI[0]) + np.kron(PAULI[0], s) for s in PAULI[1:]])
BELL = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
) / math.sqrt(2.0)
SINGLET = BELL[3]
SINGLET_PROJECTOR = np.outer(SINGLET, SINGLET.conj())


# --- random inputs -----------------------------------------------------------


def noise_ball(d: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` states uniform in the radius-``d`` Hilbert-Schmidt ball around I/4,
    restricted to positive semidefinite matrices: 15 Gaussian coefficients on
    the traceless basis give the direction, d * u^(1/15) the radius, and draws
    with an eigenvalue below the PSD tolerance are rejected."""
    accepted = []
    count = 0
    while count < n:
        batch = min(max(2 * (n - count), 1024), 65536)
        c = rng.standard_normal((batch, 15))
        r = d * rng.random(batch) ** (1.0 / 15.0)
        coef = c * (r / np.linalg.norm(c, axis=1))[:, None]
        sigma = np.eye(4) / 4.0 + np.einsum("nk,kij->nij", coef, TRACELESS_BASIS)
        keep = sigma[np.linalg.eigvalsh(sigma)[:, 0] >= PSD_TOL]
        accepted.append(keep)
        count += len(keep)
    return np.concatenate(accepted)[:n]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


EVALUATE_KINDS = ("ginibre", "separable", "bell_diagonal", "noisy_singlet", "werner")


def evaluate_states(seed: int, n: int):
    """The evaluate-states input mix: ``n`` states cycling through the kinds
    above. Returns the matrices and their separable-by-construction flags.

    Werner weights within 1e-6 of 1/3 and Bell-diagonal states within 1e-6 of
    an octahedron face are redrawn: their witness value is zero up to
    roundoff, where the linear-witness verdict of `uwit evaluate` is not
    sound (see CHANGES.md).
    """
    rng = np.random.default_rng([seed, 0x57A7E5])
    noise = noise_ball(0.2, n // len(EVALUATE_KINDS) + 1, rng)
    matrices, separable = [], []
    for i in range(n):
        kind = EVALUATE_KINDS[i % len(EVALUATE_KINDS)]
        sep = False
        if kind == "ginibre":
            g = _complex_normal(rng, (4, 4))
            m = g @ g.conj().T
            m /= np.trace(m).real
        elif kind == "separable":
            k = int(rng.integers(1, 5))
            w = rng.exponential(size=k)
            w /= w.sum()
            m = np.zeros((4, 4), dtype=complex)
            for wi in w:
                v = np.kron(_unit(_complex_normal(rng, 2)), _unit(_complex_normal(rng, 2)))
                m += wi * np.outer(v, v.conj())
            sep = True
        elif kind == "bell_diagonal":
            while True:
                pops = rng.dirichlet(np.ones(4))
                if abs(pops.max() - 0.5) > 1e-6:
                    break
            m = np.einsum("k,ki,kj->ij", pops, BELL, BELL.conj())
            sep = bool(pops.max() < 0.5)
        elif kind == "noisy_singlet":
            p = rng.random()
            m = p * SINGLET_PROJECTOR + (1.0 - p) * noise[i // len(EVALUATE_KINDS)]
        else:
            while True:
                p = rng.random()
                if abs(p - 1.0 / 3.0) > 1e-6:
                    break
            m = p * SINGLET_PROJECTOR + (1.0 - p) * np.eye(4) / 4.0
            sep = p < 1.0 / 3.0
        matrices.append(m)
        separable.append(sep)
    return np.array(matrices), separable


# --- per-state criteria --------------------------------------------------------


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose of the second qubit for a stack of 4x4 matrices."""
    n = rho.shape[0]
    return rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)


def _expect(rho: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.einsum("nij,ji->n", rho, op).real


def witness_values(rho: np.ndarray):
    """Linear witness 2 - 4<psi-|rho|psi->, its nonlinear refinement, and the
    minimum partial-transpose eigenvalue, for a stack of states."""
    singlet_pop = np.einsum("i,nij,j->n", SINGLET.conj(), rho, SINGLET).real
    linear = 2.0 - 4.0 * singlet_pop
    means_sq = sum(_expect(rho, j) ** 2 for j in COLLECTIVE)
    nonlinear = linear - 0.5 * means_sq
    min_pt = np.linalg.eigvalsh(partial_transpose(rho))[:, 0]
    return linear, nonlinear, min_pt


def state_reference(rho: np.ndarray, q_values) -> dict:
    """Every criterion `uwit evaluate` reports, as (value, threshold, margin,
    detected) arrays keyed by criterion id. The margin is the distance from
    the decision boundary in the quantity the decision compares."""
    linear, nonlinear, min_pt = witness_values(rho)
    variances = sum(
        np.clip(_expect(rho, j @ j) - _expect(rho, j) ** 2, 0.0, None) for j in COLLECTIVE
    )
    pops = np.clip(np.einsum("ki,nij,kj->nk", BELL.conj(), rho, BELL).real, 0.0, None)
    ref = {
        "linear_witness": (linear, 0.0, linear, linear < -DETECTION_TOL),
        "nonlinear_witness": (nonlinear, 0.0, nonlinear, nonlinear < -DETECTION_TOL),
        "pauli_lur": (variances, 4.0, variances - 4.0, variances < 4.0 - DETECTION_TOL),
    }
    square_sum = np.sum(pops**2, axis=1)
    ref["bell_variance"] = (1.0 - square_sum, 0.5, 0.5 - square_sum, square_sum > 0.5)
    for q in q_values:
        power = np.sum((2.0 * pops) ** q, axis=1)
        value = (1.0 - np.sum(pops**q, axis=1)) / (q - 1.0)
        threshold = (1.0 - 2.0 ** (1.0 - q)) / (q - 1.0)
        ref[f"bell_tsallis_q{q:g}"] = (value, threshold, (2.0 - power) / 2.0, power > 2.0)
    ref["npt"] = (min_pt, NPT_THRESHOLD, min_pt - NPT_THRESHOLD, min_pt < NPT_THRESHOLD)
    return ref


def check_evaluate_reports(reports, rho, separable, q_values) -> list[str]:
    """Compare parsed `uwit evaluate` JSON reports with the reference and the
    invariants the paper relies on. Returns a list of failure messages."""
    ref = state_reference(rho, q_values)
    ids = ["linear_witness", "nonlinear_witness", "pauli_lur", "bell_variance"] + [
        f"bell_tsallis_q{q:g}" for q in q_values
    ]
    errors = []
    for i, report in enumerate(reports):
        got = {c["id"]: c for c in report["criteria"]}
        if [c["id"] for c in report["criteria"]] != ids or report["dims"] != [2, 2]:
            errors.append(f"state {i}: unexpected report layout {list(got)}")
            continue
        got["npt"] = {
            "value": report["min_pt_eigenvalue"],
            "threshold": NPT_THRESHOLD,
            "detected": report["npt"],
        }
        clear = {}
        for cid, (value, threshold, margin, detected) in ref.items():
            c = got[cid]
            clear[cid] = abs(margin[i]) > VALUE_TOL
            if abs(c["value"] - value[i]) > VALUE_TOL or abs(c["threshold"] - threshold) > VALUE_TOL:
                errors.append(f"state {i} {cid}: value {c['value']!r}, reference {value[i]!r}")
            elif clear[cid] and c["detected"] != bool(detected[i]):
                errors.append(f"state {i} {cid}: detected {c['detected']}, reference {bool(detected[i])}")
        fired = {cid: got[cid]["detected"] for cid in got}
        if separable[i] and any(fired.values()):
            errors.append(f"state {i}: separable by construction, detected by {[k for k, v in fired.items() if v]}")
        if fired["bell_variance"] != fired["bell_tsallis_q2"]:
            errors.append(f"state {i}: bell_variance and the q = 2 Tsallis test disagree")
        chains = [("linear_witness", "nonlinear_witness"), ("nonlinear_witness", "npt")]
        tsallis = [f"bell_tsallis_q{q:g}" for q in sorted(q_values)]
        chains += list(zip(tsallis, tsallis[1:]))
        for weak, strong in chains:
            if clear[weak] and clear[strong] and fired[weak] and not fired[strong]:
                errors.append(f"state {i}: {weak} fired without {strong}")
    return errors


# --- sweeps ---------------------------------------------------------------------


def sweep_reference(d: float, p_grid, n: int, seed: int) -> np.ndarray:
    """Detected fractions (witness, nonlinear witness, NPT) per p from ``n``
    independent noise draws, shape (len(p_grid), 3)."""
    sigma = noise_ball(d, n, np.random.default_rng([seed, 0xBA11]))
    out = []
    for p in p_grid:
        rho = p * SINGLET_PROJECTOR[None] + (1.0 - p) * sigma
        linear, nonlinear, min_pt = witness_values(rho)
        out.append(
            [
                np.mean(linear < -DETECTION_TOL),
                np.mean(nonlinear < -DETECTION_TOL),
                np.mean(min_pt < NPT_THRESHOLD),
            ]
        )
    return np.array(out)


def radius_ks_distance(sigmas: np.ndarray, d: float) -> float:
    """Kolmogorov-Smirnov distance of (||sigma - I/4|| / d)^15 from the uniform
    law on [0, 1]: zero in the limit for draws uniform in the 15-dimensional
    ball, as every draw is when d is below 1/sqrt(12) and nothing is
    rejected."""
    radius = np.linalg.norm(sigmas - np.eye(4) / 4.0, axis=(1, 2))
    u = np.sort((radius / d) ** 15)
    n = len(u)
    return float(max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n)))


# With 500 draws a distance above this has probability below 1e-9.
RADIUS_KS_LIMIT = 0.15


# Allowed distance between a uwit fraction over n1 samples and the reference
# over n2: Z binomial standard errors of the pooled estimate, plus a few
# samples of the uwit run, which covers the discreteness of near-0 counts.
SWEEP_Z = 6.0
SWEEP_SLACK_SAMPLES = 4


def compare_fractions(got: np.ndarray, n1: int, ref: np.ndarray, n2: int) -> np.ndarray:
    """Deviation of ``got`` from ``ref`` in units of the allowed distance;
    entries above 1 fail."""
    pooled = (got * n1 + ref * n2) / (n1 + n2)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return np.abs(got - ref) / (SWEEP_Z * se + SWEEP_SLACK_SAMPLES / n1)


def check_sweep_table(table: np.ndarray, p_grid, samples: int, seed: int, d: float) -> list[str]:
    """Invariants of one sweep CSV parsed as rows (p, witness, lur, npt, samples, seed)."""
    errors = []
    if table.shape != (len(p_grid), 6):
        return [f"sweep table has shape {table.shape}, expected ({len(p_grid)}, 6)"]
    if not np.allclose(table[:, 0], p_grid, rtol=0, atol=VALUE_TOL):
        errors.append(f"p column {table[:, 0]} differs from the grid")
    if not (np.all(table[:, 4] == samples) and np.all(table[:, 5] == seed)):
        errors.append("samples or seed column differs from the request")
    frac = table[:, 1:4]
    counts = frac * samples
    if np.max(np.abs(counts - np.round(counts))) > 1e-6 * samples:
        errors.append("a fraction is not a multiple of 1/samples")
    if np.any(frac[:, 0] > frac[:, 1]) or np.any(frac[:, 1] > frac[:, 2]):
        errors.append("inclusion chain frac_witness <= frac_lur <= frac_npt broken")
    for row, p in zip(frac, p_grid):
        if p == 1.0 and not np.all(row == 1.0):
            errors.append(f"p = 1 row {row} is not all ones")
        if p == 0.0 and d <= 1.0 / math.sqrt(12.0) and not np.all(row == 0.0):
            errors.append(f"p = 0 row {row} inside the separable ball is not all zeros")
    return errors


# --- geometry --------------------------------------------------------------------


def geometry_reference(resolution: int, q_values) -> dict:
    """Exact classification of the Bell-diagonal grid in integers.

    With h = resolution - 1 the coordinates are (2i - h)/h and 4h p_k are the
    integers n_k. A cell is a state iff min n_k >= 0, lies in the octahedron
    iff also max n_k <= 2h, is detected by the sphere iff a^2 + b^2 + c^2 > h^2,
    and by the Tsallis test at integer q iff 2^(q-1) sum n_k^q > (4h)^q. That
    test is evaluated in floats and redone with Python integers for every
    cell whose float ratio lies within 1e-9 of 1.
    """
    h = resolution - 1
    axis = np.arange(-h, h + 1, 2, dtype=np.int64)
    a, b, c = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    n = np.stack([h + a - b + c, h - a + b + c, h + a + b - c, h - a - b - c], axis=1)
    is_state = n.min(axis=1) >= 0
    ref = {
        "coords": np.stack([a, b, c], axis=1) / h,
        "is_state": is_state,
        "in_octahedron": is_state & (n.max(axis=1) <= 2 * h),
        "sphere_detected": is_state & (a * a + b * b + c * c > h * h),
    }
    states = n[is_state]
    for q in q_values:
        qi = int(q)
        if qi != q:
            raise ValueError(f"the exact geometry reference needs integer q, got {q}")
        # floats decide every cell that is not within 1e-9 of the boundary
        ratio = 2.0 ** (qi - 1) * np.sum((states / (4.0 * h)) ** qi, axis=1)
        fires = ratio > 1.0
        for k in np.flatnonzero(np.abs(ratio - 1.0) < 1e-9):
            fires[k] = 2 ** (qi - 1) * sum(int(v) ** qi for v in states[k]) > (4 * h) ** qi
        detected = np.zeros(len(n), dtype=bool)
        detected[is_state] = fires
        ref[f"tsallis_{qi}"] = detected
    return ref


def check_geometry_table(table: np.ndarray, ref: dict, q_values) -> list[str]:
    """Check a geometry table with columns x, y, z, is_state, in_octahedron,
    sphere_detected, q, tsallis_detected (one row per cell per q, q fastest)."""
    nq = len(q_values)
    cells = len(ref["is_state"])
    if table.shape != (cells * nq, 8):
        return [f"geometry table has shape {table.shape}, expected ({cells * nq}, 8)"]
    errors = []
    per_cell = table.reshape(cells, nq, 8)
    if not np.array_equal(per_cell[:, :, :6], np.repeat(per_cell[:, :1, :6], nq, axis=1)):
        errors.append("the rows of one cell differ outside the q columns")
    if not np.array_equal(per_cell[:, :, 6], np.tile(np.asarray(q_values, dtype=float), (cells, 1))):
        errors.append("q column differs from the request")
    cell = per_cell[:, 0]
    flags = {key: cell[:, col] == 1 for col, key in enumerate(GEOMETRY_FLAGS, start=3)}
    tsallis = {q: per_cell[:, k, 7] == 1 for k, q in enumerate(q_values)}
    return errors + check_geometry_cells(cell[:, :3], flags, tsallis, ref)


GEOMETRY_FLAGS = ("is_state", "in_octahedron", "sphere_detected")


def check_geometry_cells(coords: np.ndarray, flags: dict, tsallis: dict, ref: dict) -> list[str]:
    """Compare per-cell coordinates, flags and Tsallis verdicts per q with the
    exact reference."""
    errors = []
    worst = float(np.max(np.abs(coords - ref["coords"])))
    if worst > VALUE_TOL:
        errors.append(f"coordinates off by up to {worst:g}")
    for key in GEOMETRY_FLAGS:
        bad = int(np.sum(flags[key] != ref[key]))
        if bad:
            errors.append(f"{key}: {bad} cells differ from the exact reference")
    for q, detected in tsallis.items():
        bad = int(np.sum(detected != ref[f"tsallis_{int(q)}"]))
        if bad:
            errors.append(f"tsallis_detected at q = {q:g}: {bad} cells differ from the exact reference")
    return errors


def werner_errors(thresholds) -> list[str]:
    """All three Werner-line thresholds lie at 1/3."""
    return [
        f"Werner threshold {t!r} is not within 1e-7 of 1/3"
        for t in thresholds
        if abs(t - 1.0 / 3.0) > 1e-7
    ]
