"""Go/no-go acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints one line on success; run with ``pytest tests/test_acceptance.py -v -s``
to see every verdict. The tests are ordered and share deterministic
fixtures, so the whole module is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from haar import COLLECTIVE_PAULIS
from uwit.criteria import (
    DETECTION_TOL,
    Observable,
    bell_populations,
    bell_tsallis_criterion,
    bell_variance_criterion,
    entropic_sum_criterion,
    linear_witness_value,
    maassen_bound,
    nonlinear_witness_value,
    pauli_lur,
    schmidt_entropy_bound,
    variance,
)
from uwit.experiments import (
    default_p_grid,
    evaluate_detection_flags,
    run_detection_sweep,
    werner_thresholds,
    write_detection_csv,
)
from uwit.linalg import SIGMA_X, SIGMA_Z, hermitian_eigen, kron, partial_transpose
from uwit.states import (
    DensityMatrix,
    NoiseBallConfig,
    bell_diagonal_state,
    bell_populations_from_coords,
    bell_state,
    random_density_matrix,
    random_separable_state,
)

_SUITE_START = time.perf_counter()

DEFAULT_CONFIG = NoiseBallConfig(d=0.2, seed=42, samples=2000)


def _report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - started:.2f}s)", flush=True)


@pytest.fixture(scope="module")
def default_rows():
    return run_detection_sweep(DEFAULT_CONFIG, default_p_grid(), workers=1)


@pytest.fixture(scope="module")
def tetrahedron_samples():
    rng = np.random.default_rng(42)
    samples = []
    while len(samples) < 1000:
        c = rng.uniform(-1.0, 1.0, size=3)
        if bell_populations_from_coords(c).min() >= 0.0:
            samples.append(c)
    return samples


def test_01_eigensolver_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.conj().T) / 2
        w, v = hermitian_eigen(h)
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10

    singlet = bell_state(4).density().matrix
    pt_eigs = hermitian_eigen(partial_transpose(singlet, (2, 2)))[0]
    assert np.allclose(pt_eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, "eigensolver soundness", started)


def test_02_werner_thresholds():
    started = time.perf_counter()
    thresholds = werner_thresholds()
    assert abs(thresholds.witness - 1 / 3) <= 1e-6
    assert abs(thresholds.lur - 1 / 3) <= 1e-6
    assert abs(thresholds.npt - 1 / 3) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, "werner thresholds at 1/3", started)


def test_03_inclusion_chain_over_default_sweep(default_rows):
    started = time.perf_counter()
    chain_violations = 0
    ppt_detected = 0
    for p_index, (p, row) in enumerate(zip(default_p_grid(), default_rows)):
        witness, lur, npt = evaluate_detection_flags(DEFAULT_CONFIG, p, p_index)
        chain_violations += int((witness & ~lur).sum() + (lur & ~npt).sum())
        ppt_detected += int((~npt & (witness | lur)).sum())
        assert row.fraction_witness == witness.sum() / DEFAULT_CONFIG.samples
        assert row.fraction_lur == lur.sum() / DEFAULT_CONFIG.samples
        assert row.fraction_npt == npt.sum() / DEFAULT_CONFIG.samples
        assert row.fraction_witness <= row.fraction_lur <= row.fraction_npt
    assert chain_violations == 0
    assert ppt_detected == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, "per-sample inclusion chain witness => lur => npt", started)


def test_04_sweep_endpoints(default_rows):
    started = time.perf_counter()
    top = default_rows[-1]
    assert top.p == 1.0
    assert top.fraction_witness == 1.0 and top.fraction_lur == 1.0 and top.fraction_npt == 1.0

    (bottom,) = run_detection_sweep(
        NoiseBallConfig(d=0.0, seed=DEFAULT_CONFIG.seed, samples=DEFAULT_CONFIG.samples), [0.0]
    )
    assert bottom.fraction_witness == 0.0 and bottom.fraction_lur == 0.0 and bottom.fraction_npt == 0.0
    _report(4, "sweep endpoints exact", started)


def test_05_q2_matches_population_sphere(tetrahedron_samples):
    started = time.perf_counter()
    disagreements = 0
    for c in tetrahedron_samples:
        r_sq = float(np.sum(c**2))
        verdict = bell_tsallis_criterion(bell_diagonal_state(c), 2.0)
        assert abs(verdict.value - (1.0 - (1.0 + r_sq) / 4.0)) <= 1e-10
        if verdict.detected != (r_sq > 1.0):
            disagreements += 1
    assert disagreements == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(5, "q=2 detection equals the coordinate sphere", started)


def test_06_q_monotonicity_and_limit(tetrahedron_samples):
    started = time.perf_counter()
    # The q-Tsallis test detects when sum_i p_i^q > 2^(1-q) (1 + DETECTION_TOL).
    # If max_i p_i <= 1/2 the convex sum is at most its value 2 (1/2)^q = 2^(1-q)
    # at (1/2, 1/2, 0, 0), so nothing is detected. Since sum_i p_i^q >=
    # (max_i p_i)^q, max_i p_i > (2 (1 + DETECTION_TOL))^(1/q) / 2 is always
    # detected. In the layer between the two edges, of half-width about
    # (2^(1/q) - 1)/2 = 1.74e-3 at q = 200, the verdict depends on the other
    # populations; outside it the criterion equals the witness max_i p_i > 1/2.
    # Bounding the layer count keeps this a check of the limit.
    q_limit = 200.0
    upper = 0.5 * (2.0 * (1.0 + DETECTION_TOL)) ** (1.0 / q_limit)
    limit_disagreements = 0
    inside_layer = 0
    for c in tetrahedron_samples:
        rho = bell_diagonal_state(c)
        flags = [bell_tsallis_criterion(rho, q).detected for q in (2.0, 4.0, 15.0)]
        assert (not flags[0] or flags[1]) and (not flags[1] or flags[2])

        max_p = float(bell_populations(rho).max())
        if 0.5 < max_p <= upper:
            inside_layer += 1
        elif bell_tsallis_criterion(rho, q_limit).detected != (max_p > 0.5):
            limit_disagreements += 1
    assert limit_disagreements == 0
    assert inside_layer < 20
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(6, "q nesting 2 in 4 in 15 and the q=200 limit", started)


def test_07_separable_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    xx = Observable(kron(SIGMA_X, SIGMA_X))
    zz = Observable(kron(SIGMA_Z, SIGMA_Z))
    log2 = float(np.log(2.0))
    for _ in range(10**4):
        rho = random_separable_state(int(rng.integers(1, 5)), rng)
        assert linear_witness_value(rho) >= -1e-12
        assert not nonlinear_witness_value(rho).detected
        assert not pauli_lur(rho).detected
        assert not bell_variance_criterion(rho).detected
        for q in (2.0, 4.0, 15.0):
            assert not bell_tsallis_criterion(rho, q).detected
        assert not entropic_sum_criterion(rho, xx, zz, log2).detected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(7, "zero detections on 10^4 separable mixtures", started)


def test_08_variance_sum_concavity():
    started = time.perf_counter()
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        rho1 = random_density_matrix((2, 2), rng)
        rho2 = random_density_matrix((2, 2), rng)
        lam = float(rng.uniform())
        mix = DensityMatrix(lam * rho1.matrix + (1 - lam) * rho2.matrix, (2, 2))
        total_mix = sum(variance(mix, m) for m in COLLECTIVE_PAULIS)
        total_parts = lam * sum(variance(rho1, m) for m in COLLECTIVE_PAULIS)
        total_parts += (1 - lam) * sum(variance(rho2, m) for m in COLLECTIVE_PAULIS)
        assert total_mix >= total_parts - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(8, "variance-sum concavity under mixing", started)


def test_09_entropic_reference_values():
    started = time.perf_counter()
    singlet = bell_state(4).density()
    xx = Observable(kron(SIGMA_X, SIGMA_X))
    zz = Observable(kron(SIGMA_Z, SIGMA_Z))
    verdict = entropic_sum_criterion(singlet, xx, zz, float(np.log(2.0)))
    assert verdict.value <= 1e-12 and verdict.detected

    mx = Observable(SIGMA_X)
    mz = Observable(SIGMA_Z)
    assert abs(maassen_bound(mx, mz) - np.log(2.0)) <= 1e-12

    assert schmidt_entropy_bound(0.5, 2.0) == 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(9, "entropic reference values", started)


def test_10_sweep_determinism_across_workers(default_rows, tmp_path):
    started = time.perf_counter()
    baseline = tmp_path / "workers1.csv"
    write_detection_csv(default_rows, baseline)

    rows_parallel = run_detection_sweep(DEFAULT_CONFIG, default_p_grid(), workers=2)
    parallel = tmp_path / "workers2.csv"
    write_detection_csv(rows_parallel, parallel)
    assert baseline.read_bytes() == parallel.read_bytes()

    rows_again = run_detection_sweep(DEFAULT_CONFIG, default_p_grid(), workers=1)
    again = tmp_path / "again.csv"
    write_detection_csv(rows_again, again)
    assert baseline.read_bytes() == again.read_bytes()

    suite_elapsed = time.perf_counter() - _SUITE_START
    assert suite_elapsed < 120.0
    _report(10, f"byte-identical sweep across workers (suite {suite_elapsed:.1f}s)", started)
