"""The traced run: per-layer metrics from spans recorded around calls into
the public functions of uwit's linalg, states, criteria, experiments and cli
modules.

Spans (name, start, end, parent) are kept in memory and written to
``work/trace-<workload>-seed<seed>.json`` when the run ends. A layer's
number is the median self time of its spans: the span's duration minus the
time its child spans cover. Children arise where ``patched`` swaps a public
function for a recording wrapper in every uwit module that imported it, so
that a call from inside uwit opens a child span. Every layer runs on every
workload; each uses the inputs of the workload it maps to (README.md).
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

import reference
from common import (
    GEOMETRY_Q,
    GEOMETRY_CSV_RESOLUTION,
    GEOMETRY_JSON_RESOLUTION,
    WORK,
    Run,
    call_main,
    check_evaluate_outputs,
    evaluate_argv,
    import_uwit,
    metric,
    write_state_files,
)

EVALUATE_FILES = 300
NOISE_RNG_CALLS = 2000
NOISE_BALL_CALLS = 500
NOISE_BALL_WIDE_CALLS = 60
FLAG_CALLS = 3
DETECTION_CSV_CALLS = 20

# (span name, module, public function) traced inside `uwit evaluate`
EVALUATE_LAYERS = (
    ("states.load_state", "states", "load_state"),
    ("states.DensityMatrix", "states", "DensityMatrix"),
    ("states.is_npt", "states", "is_npt"),
    ("linalg.hermitian_eigen", "linalg", "hermitian_eigen"),
    ("linalg.partial_transpose", "linalg", "partial_transpose"),
    ("linalg.expectation", "linalg", "expectation"),
    ("criteria.linear_witness_value", "criteria", "linear_witness_value"),
    ("criteria.nonlinear_witness_value", "criteria", "nonlinear_witness_value"),
    ("criteria.pauli_lur", "criteria", "pauli_lur"),
    ("criteria.bell_variance_criterion", "criteria", "bell_variance_criterion"),
    ("criteria.bell_tsallis_criterion", "criteria", "bell_tsallis_criterion"),
)


class Tracer:
    """Spans kept in four parallel lists; parent -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, list[float]]:
        """Self seconds of every span, grouped by name."""
        durations = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(durations))
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        out: dict[str, list[float]] = {}
        for name, own in zip(self.names, durations - child):
            out.setdefault(name, []).append(float(own))
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"],
                 "spans": list(zip(self.names, self.starts, self.ends, self.parents))},
                fh,
            )  # fmt: skip


@contextmanager
def patched(tracer: Tracer, uwit, layers):
    """Swap each listed function for a recording wrapper wherever a uwit
    module holds it, and restore the originals on exit."""
    modules = [uwit, uwit.linalg, uwit.states, uwit.criteria, uwit.experiments, uwit.cli]
    saved = []
    for span_name, module, attr in layers:
        original = getattr(getattr(uwit, module), attr)
        wrapper = tracer.wrap(span_name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    saved.append((m, key, value))
                    setattr(m, key, wrapper)
    try:
        yield
    finally:
        for m, key, value in reversed(saved):
            setattr(m, key, value)


class CountingRng:
    """Forwards to a numpy Generator and counts the uniform variates drawn;
    the noise-ball sampler draws one per candidate matrix."""

    def __init__(self, rng):
        self._rng = rng
        self.uniforms = 0

    def uniform(self, low=0.0, high=1.0, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self._rng.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def evaluate_layers(run: Run, tracer: Tracer, uwit) -> dict:
    """In-process `uwit evaluate` calls: an untraced pass, a pass with every
    function in EVALUATE_LAYERS traced, and a second untraced pass. The
    tracing overhead is the traced p50 over the mean untraced p50."""
    rho, separable, paths = write_state_files(run.dir / "states", run.seed, EVALUATE_FILES)
    main = uwit.cli.main
    traced_main = tracer.wrap("cli.main_evaluate", main)
    p50 = {"plain": [], "traced": []}
    for label in ("plain", "traced", "plain"):
        outputs, walls = [], []
        traced = label == "traced"
        with patched(tracer, uwit, EVALUATE_LAYERS if traced else ()):
            for path in paths:
                wall, code, out = call_main(traced_main if traced else main, evaluate_argv(path))
                run.count(code, f"evaluate {path}")
                walls.append(wall)
                outputs.append(out if code == 0 else None)
        check_evaluate_outputs(run, outputs, rho, separable)
        p50[label].append(statistics.median(walls))
    overhead = statistics.mean(p50["traced"]) / statistics.mean(p50["plain"]) - 1.0
    calls = tracer.names.count("cli.main_evaluate")
    return {
        "trace.evaluate_overhead_pct": metric(100.0 * overhead, "%"),
        "linalg.expectation_calls_per_evaluate": metric(
            tracer.names.count("linalg.expectation") / calls, "count"
        ),
    }


def sweep_layers(run: Run, tracer: Tracer, uwit) -> dict:
    seed = run.uwit_seeds[0]
    for i in range(NOISE_RNG_CALLS):
        with tracer.span("states.noise_rng"):
            uwit.noise_rng(seed, 0, i)

    draws = {}
    for span_name, d, calls, stream in (
        ("states.sample_noise_ball", 0.2, NOISE_BALL_CALLS, 1),
        ("states.sample_noise_ball_wide", 0.5, NOISE_BALL_WIDE_CALLS, 2),
    ):
        rng = uwit.noise_rng(seed, stream)
        sample = tracer.wrap(span_name, uwit.sample_noise_ball)
        sigmas = [sample(d, rng).matrix for _ in range(calls)]
        # the same draws again, untimed, to count the candidates
        counting = CountingRng(uwit.noise_rng(seed, stream))
        recount = [uwit.sample_noise_ball(d, counting).matrix for _ in range(calls)]
        draws[d] = counting.uniforms
        sigmas = np.array(sigmas)
        radius = np.linalg.norm(sigmas - np.eye(4) / 4.0, axis=(1, 2))
        if not np.array_equal(sigmas, np.array(recount)) or radius.max() > d + 1e-12:
            run.check([f"draws at d = {d} leave the ball or do not repeat"], "noise ball")
        if d < 1.0 / math.sqrt(12.0) and reference.radius_ks_distance(sigmas, d) > reference.RADIUS_KS_LIMIT:
            run.check([f"draw radii at d = {d} are not uniform in the ball"], "noise ball")

    for span_name, d in (
        ("experiments.evaluate_detection_flags", 0.2),
        ("experiments.evaluate_detection_flags_d0", 0.0),
    ):
        config = uwit.NoiseBallConfig(d=d, seed=seed, samples=2000)
        flags = tracer.wrap(span_name, uwit.evaluate_detection_flags)
        for _ in range(FLAG_CALLS):
            witness, lur, npt = flags(config, 0.5, 10)
        if np.any(witness & ~lur) or np.any(lur & ~npt):
            run.check([f"inclusion chain broken at d = {d}"], "detection flags")

    config = uwit.NoiseBallConfig(d=0.2, seed=seed, samples=2000)
    rows = {}
    for workers in (1, 2):
        sweep = tracer.wrap(f"experiments.run_detection_sweep_w{workers}", uwit.run_detection_sweep)
        rows[workers] = sweep(config, workers=workers)
    if rows[1] != rows[2]:
        run.check(["rows differ between 1 and 2 workers"], "run_detection_sweep")
    table = np.array(
        [[r.p, r.fraction_witness, r.fraction_lur, r.fraction_npt, r.samples, r.seed] for r in rows[1]]
    )
    grid = [i / 20 for i in range(21)]
    run.check(reference.check_sweep_table(table, grid, 2000, seed, 0.2), "run_detection_sweep")

    write = tracer.wrap("experiments.write_detection_csv", uwit.write_detection_csv)
    for _ in range(DETECTION_CSV_CALLS):
        write(rows[1], run.dir / "sweep.csv")

    thresholds = tracer.wrap("experiments.werner_thresholds", uwit.werner_thresholds)()
    run.check(reference.werner_errors([thresholds.witness, thresholds.lur, thresholds.npt]), "werner")
    return {
        "states.noise_draws": metric(draws[0.2], "count"),
        "states.noise_draws_wide": metric(draws[0.5], "count"),
    }


def geometry_layers(run: Run, tracer: Tracer, uwit) -> dict:
    scan = tracer.wrap("experiments.run_geometry_scan", uwit.run_geometry_scan)(
        resolution=GEOMETRY_CSV_RESOLUTION, q_values=GEOMETRY_Q
    )
    ref = reference.geometry_reference(GEOMETRY_CSV_RESOLUTION, GEOMETRY_Q)
    flags = {key: getattr(scan, key) for key in reference.GEOMETRY_FLAGS}
    coords = np.stack([scan.x, scan.y, scan.z], axis=1)
    tsallis = {q: scan.tsallis_detected[float(q)] for q in GEOMETRY_Q}
    run.check(reference.check_geometry_cells(coords, flags, tsallis, ref), "run_geometry_scan")

    csv_path = run.dir / "geometry.csv"
    tracer.wrap("experiments.write_geometry_csv", uwit.write_geometry_csv)(scan, csv_path)
    csv_bytes = csv_path.stat().st_size
    csv_path.unlink()

    # as `uwit geometry --format json` writes it
    small = uwit.run_geometry_scan(resolution=GEOMETRY_JSON_RESOLUTION, q_values=GEOMETRY_Q)
    with tracer.span("experiments.geometry_json_write"):
        with open(run.dir / "geometry.json", "w", encoding="utf-8") as fh:
            fh.write("[\n")
            first = True
            for record in uwit.experiments.geometry_scan_to_dicts(small):
                if not first:
                    fh.write(",\n")
                fh.write(json.dumps(record))
                first = False
            fh.write("\n]\n")
    return {"experiments.write_geometry_csv_bytes": metric(csv_bytes, "B")}


# per-layer metric name -> (span name, unit); the value is the median self time
SPAN_METRICS = {
    "cli.import_s": ("cli.import", "s"),
    "cli.main_evaluate_ms": ("cli.main_evaluate", "ms"),
    **{f"{name}_us": (name, "us") for name, _, _ in EVALUATE_LAYERS},
    "states.noise_rng_us": ("states.noise_rng", "us"),
    "states.sample_noise_ball_us": ("states.sample_noise_ball", "us"),
    "states.sample_noise_ball_wide_us": ("states.sample_noise_ball_wide", "us"),
    "experiments.evaluate_detection_flags_ms": ("experiments.evaluate_detection_flags", "ms"),
    "experiments.evaluate_detection_flags_d0_ms": ("experiments.evaluate_detection_flags_d0", "ms"),
    "experiments.run_detection_sweep_w1_s": ("experiments.run_detection_sweep_w1", "s"),
    "experiments.run_detection_sweep_w2_s": ("experiments.run_detection_sweep_w2", "s"),
    "experiments.write_detection_csv_ms": ("experiments.write_detection_csv", "ms"),
    "experiments.werner_thresholds_ms": ("experiments.werner_thresholds", "ms"),
    "experiments.run_geometry_scan_s": ("experiments.run_geometry_scan", "s"),
    "experiments.write_geometry_csv_s": ("experiments.write_geometry_csv", "s"),
    "experiments.geometry_json_write_s": ("experiments.geometry_json_write", "s"),
}
UNIT_SECONDS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


def run_layers(run: Run) -> dict:
    tracer = Tracer()
    with tracer.span("cli.import"):
        uwit = import_uwit()
    metrics = evaluate_layers(run, tracer, uwit)
    metrics.update(sweep_layers(run, tracer, uwit))
    metrics.update(geometry_layers(run, tracer, uwit))

    tracer.dump(WORK / f"trace-{run.workload}-seed{run.seed}.json")
    self_times = tracer.self_times()
    for name, (span_name, unit) in SPAN_METRICS.items():
        metrics[name] = metric(statistics.median(self_times[span_name]) / UNIT_SECONDS[unit], unit)
    return dict(sorted(metrics.items()))
