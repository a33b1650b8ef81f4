"""The two reproduction studies: a Monte-Carlo sweep counting which noisy
singlets each criterion detects versus the exact partial-transpose test, and
a grid classification of Bell-diagonal coordinate space. Both are
deterministic for a fixed seed, independent of worker count. The sweep uses
common random numbers: sample i draws one noise matrix, keyed by (seed, i),
and reuses it at every singlet weight of the grid."""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, NumericalDefectError
from .linalg import expectation, hermitian_eigen, partial_transpose
from .states import (
    _PAULI_BASIS,
    NPT_THRESHOLD,
    NoiseBallConfig,
    _bell_columns,
    _check_weight,
    _draw_noise_block,
    _min_pt_eigenvalues,
    _octahedron_mask,
    _tetrahedron_mask,
    singlet_projector,
)
from .criteria import (
    WITNESS_TOL,
    _bell_tsallis_detects,
    _check_q,
    _witness_detects,
    _witness_values,
)

_BLOCK = 256
# A sweep runs in process unless the time a pool would save exceeds the
# pool's start-up (forking, sending the tasks, shutting down). Inside the
# separable ball no first candidate is rejected, so the in-process time is
# about _DRAW_S per sample for the noise draw, which d = 0 skips, plus
# _FLAG_S for the flags; with 2 workers the pool pays from about 4,000
# samples at d > 0 and 25,000 at d = 0 (2 cores, default 21-point grid).
_DRAW_S = 20e-6
_FLAG_S = 4e-6
_POOL_START_S = 0.05
_SEPARABLE_RADIUS = 1.0 / np.sqrt(12.0)
# closed-form sweep decisions this close to a threshold are re-decided per p
_GUARD = 1e-7
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
class GeometryScan:
    """Vectorized result of a Bell-diagonal grid scan over ``axis`` cubed;
    geometry_scan_to_dicts gives one record per cell and q. The flags are
    flat, with z fastest and x slowest; x, y and z are derived when read."""

    resolution: int
    q_values: tuple[float, ...]
    axis: np.ndarray
    is_state: np.ndarray
    in_octahedron: np.ndarray
    sphere_detected: np.ndarray
    tsallis_detected: dict[float, np.ndarray]

    def __len__(self) -> int:
        return self.resolution**3

    x = property(lambda self: np.repeat(self.axis, self.resolution**2))
    y = property(lambda self: np.tile(np.repeat(self.axis, self.resolution), self.resolution))
    z = property(lambda self: np.tile(self.axis, self.resolution**2))


@dataclass(frozen=True)
class WernerThresholds:
    """Singlet weight on the white-noise line above which each criterion detects."""

    witness: float
    lur: float
    npt: float


def _block_flags(sigma: np.ndarray, p: float):
    """Detection flags (witness, nonlinear, npt) of the noisy singlets
    p |psi-><psi-| + (1 - p) sigma_i for a stack of noise matrices sigma_i.

    The witnesses use the batch kernels of the scalar criteria and NPT the
    kernel of is_npt, so each flag is the scalar verdict. This is the
    per-p reference: _sweep_flags falls back on it near a threshold, and
    evaluate_detection_flags calls it on a sweep's sigma.
    """
    rho = p * _SINGLET[None, :, :] + (1.0 - p) * sigma
    linear, nonlinear = _witness_values(expectation(rho, _PAULI_BASIS))
    npt = _min_pt_eigenvalues(rho, (2, 2)) < NPT_THRESHOLD
    return _witness_detects(linear), _witness_detects(nonlinear), npt


def _sweep_flags(sigma: np.ndarray, p_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flags of _block_flags at every p of the grid, each of shape
    (len(sigma), len(p_grid)), from closed forms in p.

    Along rho(p) = p S + (1 - p) sigma the singlet S has witness value -2 and
    zero collective-Pauli means, so the linear value is -2p + (1 - p) L_sigma
    and the nonlinear one subtracts (1 - p)^2 times sigma's half summed
    squared means. S's partial transpose is I/2 - |phi+><phi+|, so
    rho(p)^T - t I = H(p) - p |phi+><phi+| with t = NPT_THRESHOLD and
    H(p) = (p/2 - t) I + (1 - p) sigma^T. While H(p) > 0 this rank-one
    downdate has an eigenvalue below 0 iff f = p <phi+|H(p)^-1|phi+> > 1;
    one eigendecomposition of sigma^T per sample gives f at every p.

    A pair (sample, p) whose value lies within _GUARD of its threshold, or
    whose H(p) is not above _GUARD, is re-decided by _block_flags, so the
    flags are the per-p kernel's flags.
    """
    p = np.asarray(p_grid, dtype=float)
    q = 1.0 - p
    linear_sigma, nonlinear_sigma = _witness_values(expectation(sigma, _PAULI_BASIS))
    half_means_sq = linear_sigma - nonlinear_sigma
    linear = -2.0 * p + q * linear_sigma[:, None]
    nonlinear = linear - q**2 * half_means_sq[:, None]

    spectrum = hermitian_eigen(partial_transpose(sigma, (2, 2)))
    s, u = spectrum.eigenvalues, spectrum.eigenvectors
    overlap = np.abs(u[:, 0, :] + u[:, 3, :]) ** 2 / 2.0  # |<u_i|phi+>|^2
    shift = p / 2.0 - NPT_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        f = p * sum(overlap[:, i, None] / (shift + q * s[:, i, None]) for i in range(4))
    h_min = shift + q * s[:, :1]  # s is ascending and q >= 0

    witness, lur, npt = _witness_detects(linear), _witness_detects(nonlinear), f > 1.0
    threshold = -WITNESS_TOL
    unsure = (
        (np.abs(linear - threshold) < _GUARD)
        | (np.abs(nonlinear - threshold) < _GUARD)
        | (np.abs(f - 1.0) < _GUARD)
        | (h_min <= _GUARD)
    )
    for k, pk in enumerate(p_grid):
        rows = np.flatnonzero(unsure[:, k])
        if rows.size:
            witness[rows, k], lur[rows, k], npt[rows, k] = _block_flags(sigma[rows], pk)
    return witness, lur, npt


def _block_counts(task) -> np.ndarray:
    """Counts per grid point for one sample block, one row per p: detected by
    the witness, lur and npt, then witness-not-lur, lur-not-npt and
    PPT-but-detected."""
    seed, d, p_grid, start, stop = task
    witness, lur, npt = _sweep_flags(_draw_noise_block(seed, d, start, stop), p_grid)
    return np.stack(
        [
            witness.sum(axis=0),
            lur.sum(axis=0),
            npt.sum(axis=0),
            (witness & ~lur).sum(axis=0),
            (lur & ~npt).sum(axis=0),
            (~npt & (witness | lur)).sum(axis=0),
        ],
        axis=1,
    )


def _process_pool(workers: int):
    """A process pool of ``workers``. Only a pooled sweep needs one, so the
    pool module is imported here and not by every command that imports uwit."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def evaluate_detection_flags(config: NoiseBallConfig, p: float, p_index: int):
    """Per-sample detection flags (witness, lur, npt) at singlet weight ``p``,
    exactly as counted by run_detection_sweep.

    ``p_index`` does not select the noise: sample i uses the same sigma_i,
    keyed by (seed, i), at every grid point.
    """
    return _block_flags(_draw_noise_block(config.seed, config.d, 0, config.samples), p)


def sweep_workers(config: NoiseBallConfig, workers: int) -> int:
    """How many processes the sweep of ``config`` runs on when ``workers`` is
    its cap: 1 means in process. The pool forks all its workers up front, so
    it gets at most one per block of samples. Inside the separable ball it
    runs only when the time it saves, the projected in-process time less
    that time shared out among the workers, exceeds its start-up."""
    workers = max(1, min(workers, -(-config.samples // _BLOCK)))
    saved = config.samples * (_FLAG_S + (_DRAW_S if config.d > 0.0 else 0.0)) * (1.0 - 1.0 / workers)
    return 1 if config.d <= _SEPARABLE_RADIUS and saved <= _POOL_START_S else workers


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
    numerical defect. An empty grid raises InvalidParameterError before
    any sample is drawn.
    """
    if p_grid is None:
        p_grid = default_p_grid()
    p_grid = [_check_weight(float(p)) for p in p_grid]
    if not p_grid:
        raise InvalidParameterError("the p grid must hold at least one singlet weight")

    tasks = [
        (config.seed, config.d, tuple(p_grid), start, min(start + _BLOCK, config.samples))
        for start in range(0, config.samples, _BLOCK)
    ]

    workers = sweep_workers(config, workers)
    if workers == 1:
        results = map(_block_counts, tasks)
    else:
        with _process_pool(workers) as pool:
            results = list(pool.map(_block_counts, tasks))

    counts = sum(results, np.zeros((len(p_grid), 6), dtype=np.int64))
    chain_violations = int(counts[:, 3:5].sum())
    ppt_detected = int(counts[:, 5].sum())
    if chain_violations or ppt_detected:
        raise NumericalDefectError(
            f"numerical defect: {chain_violations} inclusion-chain violations, "
            f"{ppt_detected} PPT samples detected"
        )

    n = config.samples
    return [
        DetectionRow(p, n_witness / n, n_lur / n, n_npt / n, n, config.seed)
        for p, (n_witness, n_lur, n_npt) in zip(p_grid, counts[:, :3].tolist())
    ]


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
    try:
        columns = [c.ravel() for c in _bell_columns(axis[:, None, None], axis[:, None], axis)]
        is_state = _tetrahedron_mask(columns)
        in_octahedron = _octahedron_mask(columns, is_state)
        # clamped as bell_populations clamps; the q = 2 decision is also the sphere's
        for c in columns:
            np.maximum(c, 0.0, out=c)
        detected = {q: is_state & _bell_tsallis_detects(columns, q)[0] for q in dict.fromkeys((2.0, *q_values))}
    except MemoryError as exc:  # numpy refuses an allocation it cannot make
        raise InvalidParameterError(f"resolution {resolution} needs too much memory: {exc}") from None

    return GeometryScan(
        resolution=resolution,
        q_values=q_values,
        axis=axis,
        is_state=is_state,
        in_octahedron=in_octahedron,
        sphere_detected=detected[2.0],
        tsallis_detected={q: detected[q] for q in q_values},
    )


def werner_thresholds() -> WernerThresholds:
    """Singlet weight on the white-noise line above which each criterion
    detects. On p |psi-><psi-| + (1 - p) I/4 both witness values are
    1 - 3p and lambda_min(rho^T) is (1 - 3p)/4, so each weight has a closed
    form. Raises NumericalDefectError unless the sweep's d = 0 flags are off
    at each weight times 1 - 1e-9 and on at 1 + 1e-9, points that lie close
    enough to the threshold for the per-p kernel to decide them."""
    witness, npt = (1.0 + WITNESS_TOL) / 3.0, (1.0 - 4.0 * NPT_THRESHOLD) / 3.0
    grid = [w * (1.0 + s) for w in (witness, npt) for s in (-1e-9, 1e-9)]
    flags = _sweep_flags(np.eye(4, dtype=complex)[None] / 4.0, grid)
    # grid columns 0, 1 straddle the witness weight and 2, 3 the npt weight
    if any(f[0, k] or not f[0, k + 1] for f, k in zip(flags, (0, 0, 2))):
        raise NumericalDefectError(f"the d = 0 sweep flags do not switch at {witness!r} and {npt!r}")
    return WernerThresholds(witness, witness, npt)


def _fmt(v) -> str:
    return format(float(v), ".9g")


_FLAG = ("0", "1")  # a bool flag as a CSV field
DETECTION_CSV_HEADER = "p,frac_witness,frac_lur,frac_npt,samples,seed"
GEOMETRY_CSV_HEADER = "x,y,z,is_state,in_octahedron,sphere_detected,q,tsallis_detected"


def _detection_rows(rows):
    """Each sweep row's values in DETECTION_CSV_HEADER order, which is the
    field order of DetectionRow."""
    return map(astuple, rows)


def _geometry_slabs(scan: GeometryScan, number, words, field, sep, ends):
    """The text of each x-slab of the scan (resolution**2 cells over y, then
    z, one row per cell per listed q), in file order. A row is ``ends[0]``,
    then ``field(column, value)`` for each column joined by ``sep``, then
    ``ends[1]``; numbers are rendered by ``number`` and flags as
    ``words[flag]``. A scan without q has no rows and no slabs.

    No row is built as a string of its own: in a slab the x field is
    constant, so a slab is its head (row start and x field), then per row the
    cell's y, z part and the row's tail plus the next row's head (none after
    the last row), from pieces formatted once per scan or per slab."""
    if not scan.q_values:
        return
    columns = GEOMETRY_CSV_HEADER.split(",")
    slab = scan.resolution**2
    axis = [number(v) for v in scan.axis]
    q_values = [number(q) for q in scan.q_values]

    def tail(flags, q, detected):
        values = (*(words[flag] for flag in flags), q, words[detected])
        return sep.join(map(field, columns[3:], values)) + ends[1]

    # tails[4 * state + 2 * octahedron + sphere, q index, tsallis flag]; the
    # flags index it as int8, since a bool array would act as a mask
    tails = np.array(
        [[[tail(flags, q, t) for t in (0, 1)] for q in q_values] for flags in product((0, 1), repeat=3)],
        dtype=object,
    )
    yz = [field("y", y) + sep + field("z", z) + sep for y, z in product(axis, repeat=2)]
    # pieces[cell, q index] = (y, z part, tail + next head), refilled per slab
    pieces = np.empty((slab, len(q_values), 2), dtype=object)
    pieces[:, :, 0] = np.array(yz, dtype=object)[:, None]
    q_index = np.arange(len(q_values))
    for x, start in zip(axis, range(0, len(scan), slab)):
        cells = slice(start, start + slab)
        code = 4 * scan.is_state[cells] + 2 * scan.in_octahedron[cells] + scan.sphere_detected[cells]
        tsallis = np.stack([scan.tsallis_detected[q][cells] for q in scan.q_values], axis=1).view(np.int8)
        head = ends[0] + field("x", x) + sep
        pieces[:, :, 1] = (tails + head)[code[:, None], q_index, tsallis]
        pieces[-1, -1, 1] = tails[code[-1], -1, tsallis[-1, -1]]
        yield head + "".join(pieces.ravel().tolist())


def write_detection_csv(rows, path) -> None:
    """Write sweep rows as CSV (floats with 9 significant digits)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(DETECTION_CSV_HEADER + "\n")
        fh.writelines(
            f"{_fmt(p)},{_fmt(witness)},{_fmt(lur)},{_fmt(npt)},{samples},{seed}\n"
            for p, witness, lur, npt, samples, seed in _detection_rows(rows)
        )


def write_geometry_csv(scan: GeometryScan, path) -> None:
    """Write a geometry scan as CSV, one row per cell per q."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(GEOMETRY_CSV_HEADER + "\n")
        fh.writelines(_geometry_slabs(scan, _fmt, _FLAG, lambda column, value: value, ",", ("", "\n")))


def detection_rows_to_dicts(rows) -> list[dict]:
    """One dict per sweep row, keyed by the CSV columns."""
    columns = DETECTION_CSV_HEADER.split(",")
    return [dict(zip(columns, row)) for row in _detection_rows(rows)]


def geometry_scan_to_dicts(scan: GeometryScan):
    """One dict per cell per q, keyed by the CSV columns, in CSV row order:
    cell by cell as the scan's arrays hold them, then q by q. Values are
    converted one at a time, so a fine scan is never held as lists."""
    columns = GEOMETRY_CSV_HEADER.split(",")
    coords = (map(float, axis) for axis in (scan.x, scan.y, scan.z))
    flags = (map(bool, flag) for flag in (scan.is_state, scan.in_octahedron, scan.sphere_detected))
    tsallis = zip(*(map(bool, scan.tsallis_detected[q]) for q in scan.q_values))
    for cell, detected in zip(zip(*coords, *flags), tsallis):
        for q, flag in zip(scan.q_values, detected):
            yield dict(zip(columns, (*cell, q, flag)))


def write_detection_json(rows, path) -> None:
    """Write sweep rows as an indented JSON list of detection_rows_to_dicts."""
    text = json.dumps(detection_rows_to_dicts(rows), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_geometry_json(scan: GeometryScan, path) -> None:
    """Write a geometry scan as a JSON list, one geometry_scan_to_dicts
    record per line, with the bytes json.dumps gives each record (a float
    is its repr)."""
    slabs = _geometry_slabs(
        scan,
        lambda v: repr(float(v)),
        ("false", "true"),
        lambda column, value: f'"{column}": {value}',
        ", ",
        ("{", "},\n"),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        text = ""
        for slab in slabs:  # held back one slab: the last row drops its ",\n"
            fh.write(text)
            text = slab
        fh.write(text.removesuffix(",\n") + "\n]\n")
