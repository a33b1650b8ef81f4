"""The two reproduction studies: a Monte-Carlo sweep counting which noisy
singlets each criterion detects versus the exact partial-transpose test, and
a grid classification of Bell-diagonal coordinate space. Both are
deterministic for a fixed seed, independent of worker count. The sweep uses
common random numbers: sample i draws one noise matrix, keyed by (seed, i),
and reuses it at every singlet weight of the grid."""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidWeightError, NumericalDefectError
from .states import (
    NPT_THRESHOLD,
    BellDiagonalCoords,
    NoiseBallConfig,
    _draw_noise_matrix,
    _octahedron_mask,
    _tetrahedron_mask,
    bell_populations_from_coords,
    noise_rng,
    singlet_projector,
)
from .criteria import (
    _bell_tsallis_detects,
    _check_q,
    _detects,
    _linear_witness_values,
    _nonlinear_witness_values,
)

_BLOCK = 256
_SINGLET = singlet_projector()


@dataclass(frozen=True)
class DetectionRow:
    """Detected fractions at one singlet weight ``p`` of the sweep."""

    p: float
    fraction_witness: float
    fraction_lur: float
    fraction_npt: float
    samples: int
    seed: int


@dataclass(frozen=True)
class GeometryCell:
    """Classification of one Bell-diagonal coordinate cell."""

    coords: BellDiagonalCoords
    is_state: bool
    in_octahedron: bool
    sphere_detected: bool
    tsallis_detected: dict[float, bool]


@dataclass(frozen=True)
class GeometryScan:
    """Vectorized result of a Bell-diagonal grid scan; ``cells()`` iterates
    the same data as GeometryCell records."""

    resolution: int
    q_values: tuple[float, ...]
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    is_state: np.ndarray
    in_octahedron: np.ndarray
    sphere_detected: np.ndarray
    tsallis_detected: dict[float, np.ndarray]

    def __len__(self) -> int:
        return self.x.size

    def cells(self):
        for i in range(self.x.size):
            yield GeometryCell(
                BellDiagonalCoords(float(self.x[i]), float(self.y[i]), float(self.z[i])),
                bool(self.is_state[i]),
                bool(self.in_octahedron[i]),
                bool(self.sphere_detected[i]),
                {q: bool(self.tsallis_detected[q][i]) for q in self.q_values},
            )


@dataclass(frozen=True)
class WernerThresholds:
    """Smallest detected singlet weight on the white-noise line, per criterion."""

    witness: float
    lur: float
    npt: float


def _draw_block(seed: int, d: float, start: int, stop: int) -> np.ndarray:
    """Noise matrices sigma_i for sample indices [start, stop), each drawn from
    its own stream keyed by (seed, i)."""
    sigma = np.empty((stop - start, 4, 4), dtype=complex)
    for j, i in enumerate(range(start, stop)):
        sigma[j] = _draw_noise_matrix(d, noise_rng(seed, i))
    return sigma


def _block_flags(sigma: np.ndarray, p: float):
    """Detection flags (witness, nonlinear, npt) of the noisy singlets
    p |psi-><psi-| + (1 - p) sigma_i for a stack of noise matrices sigma_i.

    The witnesses use the batch kernels of the scalar criteria. The sweep
    calls this once per grid point on a block's sigma, so every p sees the
    same noise (common random numbers); werner_thresholds uses sigma = I/4.
    """
    n = len(sigma)
    rho = p * _SINGLET[None, :, :] + (1.0 - p) * sigma
    linear = _linear_witness_values(rho)
    nonlinear = _nonlinear_witness_values(rho, linear)
    pt = rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)
    min_pt_eig = np.linalg.eigvalsh(pt)[:, 0]
    return _detects(linear, 0.0), _detects(nonlinear, 0.0), min_pt_eig < NPT_THRESHOLD


def _block_counts(task) -> np.ndarray:
    """Counts per grid point for one sample block, one row per p: detected by
    the witness, lur and npt, then witness-not-lur, lur-not-npt and
    PPT-but-detected."""
    seed, d, p_grid, start, stop = task
    sigma = _draw_block(seed, d, start, stop)
    counts = np.empty((len(p_grid), 6), dtype=np.int64)
    for k, p in enumerate(p_grid):
        witness, lur, npt = _block_flags(sigma, p)
        counts[k] = (
            witness.sum(),
            lur.sum(),
            npt.sum(),
            (witness & ~lur).sum(),
            (lur & ~npt).sum(),
            (~npt & (witness | lur)).sum(),
        )
    return counts


def evaluate_detection_flags(config: NoiseBallConfig, p: float, p_index: int):
    """Per-sample detection flags (witness, lur, npt) at singlet weight ``p``,
    exactly as counted by run_detection_sweep.

    ``p_index`` does not select the noise: sample i uses the same sigma_i,
    keyed by (seed, i), at every grid point.
    """
    return _block_flags(_draw_block(config.seed, config.d, 0, config.samples), p)


def default_p_grid() -> list[float]:
    """The default sweep grid 0.00, 0.05, ..., 1.00."""
    return [float(v) for v in np.linspace(0.0, 1.0, 21)]


def run_detection_sweep(
    config: NoiseBallConfig, p_grid=None, workers: int = 1
) -> list[DetectionRow]:
    """Detected fractions per criterion over a grid of singlet weights.

    ``config.samples`` noise matrices sigma_i are drawn once, each from its
    own stream keyed by (seed, i), and the noisy singlets
    p |psi-><psi-| + (1 - p) sigma_i are tested at every p of the grid with
    the linear witness, the nonlinear witness and the partial transpose.
    One pool task is one block of sample indices over the whole grid. Since
    the key depends on neither the block nor the grid, fixed config means
    bit-identical rows for any ``workers`` and any block size.

    The detection inclusion chain (witness => lur => npt) and the soundness
    of both criteria on PPT samples are asserted sample by sample; a
    violation raises NumericalDefectError since it can only come from a
    numerical defect.
    """
    if p_grid is None:
        p_grid = default_p_grid()
    p_grid = [float(p) for p in p_grid]
    for p in p_grid:
        if not 0.0 <= p <= 1.0:
            raise InvalidWeightError(f"grid value p={p} outside [0, 1]")

    tasks = [
        (config.seed, config.d, tuple(p_grid), start, min(start + _BLOCK, config.samples))
        for start in range(0, config.samples, _BLOCK)
    ]

    if workers <= 1:
        results = map(_block_counts, tasks)
    else:
        # the pool forks all its workers up front; more than one per task is waste
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_block_counts, tasks))

    counts = sum(results, np.zeros((len(p_grid), 6), dtype=np.int64))
    chain_violations = int(counts[:, 3:5].sum())
    ppt_detected = int(counts[:, 5].sum())
    if chain_violations or ppt_detected:
        raise NumericalDefectError(
            f"numerical defect: {chain_violations} inclusion-chain violations, "
            f"{ppt_detected} PPT samples detected"
        )

    rows = []
    for p, (n_witness, n_lur, n_npt) in zip(p_grid, counts[:, :3].tolist()):
        rows.append(
            DetectionRow(
                p=p,
                fraction_witness=n_witness / config.samples,
                fraction_lur=n_lur / config.samples,
                fraction_npt=n_npt / config.samples,
                samples=config.samples,
                seed=config.seed,
            )
        )
    return rows


def run_geometry_scan(resolution: int = 101, q_values=(2.0, 4.0, 15.0)) -> GeometryScan:
    """Classify a uniform grid over [-1, 1]^3 of Bell-diagonal coordinates.

    Cells are labeled by state membership (all Bell populations
    nonnegative), witness-octahedron membership (populations also at most
    1/2), detection by the population-variance sphere, and detection by the
    Tsallis test per requested q. Detections are only reported on state
    cells.
    """
    if resolution < 2:
        raise InvalidParameterError(f"resolution must be at least 2, got {resolution}")
    q_values = tuple(_check_q(float(q)) for q in q_values)

    axis = np.linspace(-1.0, 1.0, resolution)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    x, y, z = gx.ravel(), gy.ravel(), gz.ravel()

    populations = bell_populations_from_coords(np.stack([x, y, z], axis=1))
    is_state = _tetrahedron_mask(populations)
    in_octahedron = _octahedron_mask(populations)
    # the decisions of bell_variance_criterion / bell_tsallis_criterion
    clamped = np.clip(populations, 0.0, None)
    sphere_detected = is_state & _bell_tsallis_detects(clamped, 2.0)
    tsallis_detected = {q: is_state & _bell_tsallis_detects(clamped, q) for q in q_values}

    return GeometryScan(
        resolution=resolution,
        q_values=q_values,
        x=x,
        y=y,
        z=z,
        is_state=is_state,
        in_octahedron=in_octahedron,
        sphere_detected=sphere_detected,
        tsallis_detected=tsallis_detected,
    )


def _bisect_threshold(detects, tol: float = 1e-8) -> float:
    lo, hi = 0.0, 1.0
    if detects(lo) or not detects(hi):
        raise NumericalDefectError("detection is not bracketed on [0, 1]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if detects(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def werner_thresholds() -> WernerThresholds:
    """Smallest singlet weight detected on the white-noise line, per
    criterion: the sweep's flags at d = 0 (_block_flags on sigma = I/4),
    each located by bisection to 1e-8."""
    white = np.eye(4, dtype=complex)[None] / 4.0
    return WernerThresholds(
        *(_bisect_threshold(lambda p, k=k: bool(_block_flags(white, p)[k][0])) for k in range(3))
    )


def _fmt(v) -> str:
    return format(float(v), ".9g")


DETECTION_CSV_HEADER = "p,frac_witness,frac_lur,frac_npt,samples,seed"
GEOMETRY_CSV_HEADER = "x,y,z,is_state,in_octahedron,sphere_detected,q,tsallis_detected"


def write_detection_csv(rows, path) -> None:
    """Write sweep rows as CSV (floats with 9 significant digits)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DETECTION_CSV_HEADER.split(","))
        for row in rows:
            writer.writerow(
                [
                    _fmt(row.p),
                    _fmt(row.fraction_witness),
                    _fmt(row.fraction_lur),
                    _fmt(row.fraction_npt),
                    row.samples,
                    row.seed,
                ]
            )


def write_geometry_csv(scan: GeometryScan, path) -> None:
    """Write a geometry scan as CSV, one row per cell per q."""
    q_strings = [_fmt(q) for q in scan.q_values]
    detected = [scan.tsallis_detected[q] for q in scan.q_values]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(GEOMETRY_CSV_HEADER + "\n")
        for i in range(len(scan)):
            prefix = (
                f"{_fmt(scan.x[i])},{_fmt(scan.y[i])},{_fmt(scan.z[i])},"
                f"{int(scan.is_state[i])},{int(scan.in_octahedron[i])},"
                f"{int(scan.sphere_detected[i])}"
            )
            for qs, det in zip(q_strings, detected):
                fh.write(f"{prefix},{qs},{int(det[i])}\n")


def detection_rows_to_dicts(rows) -> list[dict]:
    return [
        {
            "p": row.p,
            "frac_witness": row.fraction_witness,
            "frac_lur": row.fraction_lur,
            "frac_npt": row.fraction_npt,
            "samples": row.samples,
            "seed": row.seed,
        }
        for row in rows
    ]


def geometry_scan_to_dicts(scan: GeometryScan):
    """One dict per cell per q, in CSV row order."""
    for i in range(len(scan)):
        for q in scan.q_values:
            yield {
                "x": float(scan.x[i]),
                "y": float(scan.y[i]),
                "z": float(scan.z[i]),
                "is_state": bool(scan.is_state[i]),
                "in_octahedron": bool(scan.in_octahedron[i]),
                "sphere_detected": bool(scan.sphere_detected[i]),
                "q": q,
                "tsallis_detected": bool(scan.tsallis_detected[q][i]),
            }
