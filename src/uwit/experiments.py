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
from .linalg import _eigh, _traces, partial_transpose
from .states import (
    _PAULI_BASIS,
    NPT_THRESHOLD,
    NoiseBallConfig,
    _bell_columns,
    _check_int,
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
    _check_bell_q,
    _witness_detects,
    _witness_values,
)

_BLOCK = 256
# A sweep at d > 0 runs in process unless the time a pool would save exceeds
# the pool's start-up (forking, sending the tasks, shutting down). Inside the
# separable ball no first candidate is rejected, so the in-process time is
# about _SAMPLE_S per sample: the noise draw (about 7 us) and the flags on
# drawn noise (about 5 us). With 2 workers the pool pays from about 8,000
# samples (2 cores, default 21-point grid).
_SAMPLE_S = 12.5e-6
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


@dataclass(frozen=True, eq=False)
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
    evaluate_detection_flags calls it on a sweep's sigma. Each sigma_i and
    mixture is exactly Hermitian, so the trace kernel takes them unchecked.
    """
    rho = p * _SINGLET[None, :, :] + (1.0 - p) * sigma
    linear, nonlinear = _witness_values(*_traces(rho, _PAULI_BASIS).T)
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
    linear_sigma, nonlinear_sigma = _witness_values(*_traces(sigma, _PAULI_BASIS).T)
    half_means_sq = linear_sigma - nonlinear_sigma
    linear = -2.0 * p + q * linear_sigma[:, None]
    nonlinear = linear - q**2 * half_means_sq[:, None]

    s, u = _eigh(partial_transpose(sigma, (2, 2)))  # sigma is exactly Hermitian
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
    its cap: 1 means in process. A d = 0 sweep runs in process: its noise is
    the diagonal I/4, with no draw, and a sample costs about 3 us, too
    little for the pool to pay back its start-up (on 2 cores it lost or tied
    up to 130,000 samples). The pool forks all its workers up front, so it
    gets at most one per block of samples. Inside the separable ball it runs
    only when the time it saves, the projected in-process time less that
    time shared out among the workers, exceeds its start-up. A count this
    returns maps to itself, so a caller may decide once and pass it on."""
    if config.d == 0.0:
        return 1
    workers = max(1, min(workers, -(-config.samples // _BLOCK)))
    saved = config.samples * _SAMPLE_S * (1.0 - 1.0 / workers)
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

    The flags, one byte a cell for the state, the octahedron and each
    distinct q (2 included), are allocated first and filled one x-slab of
    resolution**2 cells at a time, so the float work takes memory per slab,
    not per cube. A resolution whose flags numpy cannot allocate, or whose
    cube exceeds numpy's largest array, raises InvalidParameterError.
    """
    resolution = _check_int(resolution, "resolution")  # a Python int: a numpy int's cube would wrap
    if resolution < 2:
        raise InvalidParameterError(f"resolution must be at least 2, got {resolution}")
    q_values = tuple(_check_bell_q(float(q)) for q in q_values)

    cube, slab = resolution**3, resolution**2
    try:  # the flags before the axis, so a cube beyond numpy's largest array allocates nothing
        is_state, in_octahedron = np.zeros(cube, dtype=bool), np.zeros(cube, dtype=bool)
        detected = {q: np.zeros(cube, dtype=bool) for q in dict.fromkeys((2.0, *q_values))}
        axis = np.linspace(-1.0, 1.0, resolution)
    except (MemoryError, ValueError) as exc:  # numpy refuses an array it cannot make
        raise InvalidParameterError(f"resolution {resolution} needs too much memory: {exc}") from None

    for i, start in enumerate(range(0, cube, slab)):
        cells = slice(start, start + slab)
        columns = [c.ravel() for c in _bell_columns(axis[i : i + 1, None, None], axis[:, None], axis)]
        is_state[cells] = _tetrahedron_mask(columns)
        in_octahedron[cells] = _octahedron_mask(columns, is_state[cells])
        # detections are reported only on state cells, so only those are
        # decided; clamped as bell_populations clamps, and the q = 2
        # decision is also the sphere's
        state_cells = np.flatnonzero(is_state[cells])
        state_columns = [np.maximum(c[state_cells], 0.0) for c in columns]
        for q, flag in detected.items():
            flag[cells][state_cells] = _bell_tsallis_detects(state_columns, q)[0]

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
# cells per chunk of writer text, which is one join and one write: 512
# cells are about 23 KB of CSV or 90 KB of JSON per q, where a whole x-slab
# at resolution 71 is ten times that. In a fresh process, where no large
# free has raised glibc's dynamic mmap threshold, whole-slab strings made
# the resolution-71 CSV writer take 124 ms of CPU against 79 ms in chunks
_CHUNK = 512
DETECTION_CSV_HEADER = "p,frac_witness,frac_lur,frac_npt,samples,seed"
GEOMETRY_CSV_HEADER = "x,y,z,is_state,in_octahedron,sphere_detected,q,tsallis_detected"


def _geometry_slabs(scan: GeometryScan, number, words, field, sep, ends):
    """The text of the scan in file order, x-slab by x-slab (resolution**2
    cells over y, then z, one row per cell per listed q): each slab's head,
    then its rows in chunks of at most _CHUNK cells. A row is ``ends[0]``,
    then ``field(column, value)`` for each column joined by ``sep``, then
    ``ends[1]``; numbers are rendered by ``number`` and flags as
    ``words[flag]``. A scan without q has no rows and yields nothing.

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

    # tails[4 * state + 2 * octahedron + sphere, q index, tsallis flag],
    # read through its flat index, which numpy takes faster than three axes
    tails = np.array(
        [[[tail(flags, q, t) for t in (0, 1)] for q in q_values] for flags in product((0, 1), repeat=3)],
        dtype=object,
    ).ravel()
    yz = [field("y", y) + sep + field("z", z) + sep for y, z in product(axis, repeat=2)]
    # pieces[cell, q index] = (y, z part, tail + next head), refilled per chunk
    pieces = np.empty((slab, len(q_values), 2), dtype=object)
    pieces[:, :, 0] = np.array(yz, dtype=object)[:, None]
    q_index = np.arange(len(q_values))
    for x, start in zip(axis, range(0, len(scan), slab)):
        cells = slice(start, start + slab)
        code = 4 * scan.is_state[cells] + 2 * scan.in_octahedron[cells] + scan.sphere_detected[cells]
        tsallis = np.stack([scan.tsallis_detected[q][cells] for q in scan.q_values], axis=1)
        index = (code[:, None] * len(q_values) + q_index) * 2 + tsallis
        index[-1, -1] += tails.size  # the slab's last row has no next head
        head = ends[0] + field("x", x) + sep
        tails_heads = np.concatenate([tails + head, tails])
        yield head
        for first in range(0, slab, _CHUNK):
            rows = slice(first, first + _CHUNK)
            pieces[rows, :, 1] = tails_heads[index[rows]]
            yield "".join(pieces[rows].ravel().tolist())


def write_detection_csv(rows, path) -> None:
    """Write sweep rows as CSV (floats with 9 significant digits); the field
    order of DetectionRow is that of DETECTION_CSV_HEADER."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(DETECTION_CSV_HEADER + "\n")
        fh.writelines(
            f"{_fmt(p)},{_fmt(witness)},{_fmt(lur)},{_fmt(npt)},{samples},{seed}\n"
            for p, witness, lur, npt, samples, seed in map(astuple, rows)
        )


def write_geometry_csv(scan: GeometryScan, path) -> None:
    """Write a geometry scan as CSV, one row per cell per q, one chunk of
    at most _CHUNK cells at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(GEOMETRY_CSV_HEADER + "\n")
        fh.writelines(_geometry_slabs(scan, _fmt, _FLAG, lambda column, value: value, ",", ("", "\n")))


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
    """Write sweep rows as an indented JSON list, one dict per row keyed by
    the CSV columns."""
    columns = DETECTION_CSV_HEADER.split(",")
    text = json.dumps([dict(zip(columns, row)) for row in map(astuple, rows)], indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_geometry_json(scan: GeometryScan, path) -> None:
    """Write a geometry scan as a JSON list, one geometry_scan_to_dicts
    record per line, with the bytes json.dumps gives each record (a float
    is its repr), one chunk of at most _CHUNK cells at a time."""
    chunks = _geometry_slabs(
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
        for chunk in chunks:  # held back one chunk: the last row drops its ",\n"
            fh.write(text)
            text = chunk
        fh.write(text.removesuffix(",\n") + "\n]\n")
