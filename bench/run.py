"""The uwit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; uwit is imported from ``src/``. With
``--trace 0`` the workload's operations (uwit CLI processes, or in-process
``uwit.cli.main`` calls for evaluate-states) repeat in whole rounds for
about ``S`` seconds, every output is checked against the independent
references in ``reference.py``, and the last line of standard output is a
JSON object with the end-to-end metrics. With ``--trace 1`` the traced
layer suite in ``layers.py`` runs instead and prints the per-layer metrics.
README.md describes the workloads and maps each layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from common import (
    GEOMETRY_CSV_RESOLUTION,
    GEOMETRY_HEADER,
    GEOMETRY_JSON_RESOLUTION,
    GEOMETRY_Q,
    REFERENCE_LOOP_S,
    SRC,
    SWEEP_HEADER,
    Run,
    call_main,
    check_evaluate_outputs,
    evaluate_argv,
    import_uwit,
    metric,
    reference_loop,
    uwit_env,
    write_state_files,
)

EVALUATE_FILES = 2000
# The reference loop runs once after every EVALUATE_BLOCK in-process calls,
# about every 0.3 s, at a cost of under 2 % of the run.
EVALUATE_BLOCK = 100

# The timed sweep (no p grid means the CLI default) and the size of its
# independent reference sample.
SWEEP = {"d": 0.2, "p_grid": None, "samples": 2000, "workers": 2, "reference_samples": 10000}
# The worker count of the one extra run whose CSV must equal the first timed
# run byte for byte.
CHECK_WORKERS = 1
# One untimed sweep per run outside the separable ball, where the rejection
# sampler dominates, checked like the timed ones.
WIDE_SWEEP = {
    "d": 0.5,
    "p_grid": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "samples": 250,
    "workers": 1,
    "reference_samples": 8000,
}
WORKLOADS = ("sweep-default", "geometry", "evaluate-states")


def measure_setup(make_inputs, repeats: int) -> list[float]:
    """Seconds of a fresh interpreter importing uwit plus the generation of
    the workload's inputs, ``repeats`` times. Each workload measures twice
    before its timed rounds and three times after them, so that the median
    samples the machine at both ends of the run."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import uwit, uwit.cli"], env=uwit_env(), check=True)
        make_inputs()
        times.append(time.perf_counter() - start)
    return times


def timed_rounds(seconds: float, one_round) -> None:
    """Run whole rounds; start another only if it would end within ``seconds``
    at the pace of the last one. At least one round runs."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        one_round(rounds)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def read_table(run: Run, path: Path, header: str):
    """A numeric CSV with the given header as an array, or None after
    recording why it could not be read."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        run.check([f"header {first!r}, expected {header!r}"], path.name)
        return None
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        run.check([str(exc)], path.name)
        return None


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def summarize(setup: list[float], ops) -> dict:
    """End-to-end metrics from the set-up times and the timed operations,
    each given as (work items, wall seconds, peak RSS MB, bytes written)."""
    items, walls, rss, written = (np.array(col, dtype=float) for col in zip(*ops))
    # the highest percentile with at least ten operations beyond it
    tail = 99 if len(walls) >= 1000 else 90 if len(walls) >= 100 else 50
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "throughput_per_s": metric(items.sum() / walls.sum(), "1/s"),
        "latency_p50_ms": metric(np.percentile(walls, 50) * 1e3, "ms"),
        "latency_tail_ms": metric(np.percentile(walls, tail) * 1e3, "ms"),
        "peak_rss_mb": metric(np.median(rss), "MB"),
        "output_mb": metric(written.mean() / 1e6, "MB"),
    }


def sweep_grid(cfg) -> tuple[list[float], list[str]]:
    """The p grid of a sweep and the flags that request it."""
    if cfg["p_grid"] is None:
        return [i / 20 for i in range(21)], []
    return cfg["p_grid"], ["--p-grid", ",".join(f"{p:g}" for p in cfg["p_grid"])]


def sweep_cli(run: Run, cfg, seed: int, workers: int, out: str):
    _, grid_flag = sweep_grid(cfg)
    return run.cli(
        ["sweep", "--d", str(cfg["d"]), *grid_flag, "--samples", str(cfg["samples"]),
         "--seed", str(seed), "--workers", str(workers), "--out", str(run.dir / out)]
    )  # fmt: skip


def check_sweeps(run: Run, cfg, done) -> None:
    """Check the CSVs of the sweeps in ``done``, given as (uwit seed, path),
    one by one and pooled, against the invariants and the independent
    sampler."""
    p_grid, _ = sweep_grid(cfg)
    samples, n_ref = cfg["samples"], cfg["reference_samples"]
    ref = reference.sweep_reference(cfg["d"], p_grid, n_ref, run.seed)
    pooled = []
    for seed, path in done:
        table = read_table(run, path, SWEEP_HEADER)
        if table is None:
            continue
        errors = reference.check_sweep_table(table, p_grid, samples, seed, cfg["d"])
        if not errors:
            dev = reference.compare_fractions(table[:, 1:4], samples, ref, n_ref)
            if dev.max() > 1.0:
                errors.append(f"off the reference sampler by {dev.max():.2f} of the allowed distance")
            pooled.append(table[:, 1:4])
        run.check(errors, f"sweep d={cfg['d']} seed {seed}")
    if len(pooled) > 1:
        dev = reference.compare_fractions(np.mean(pooled, axis=0), samples * len(pooled), ref, n_ref)
        if dev.max() > 1.0:
            run.check([f"off the reference sampler by {dev.max():.2f} of the allowed distance"], "sweep pooled")


def run_sweep(run: Run, seconds: float) -> dict:
    setup = measure_setup(lambda: None, 2)
    ops = []

    def one_round(i):
        path = run.dir / f"sweep_{i}.csv"
        wall, rss, code = sweep_cli(run, SWEEP, run.uwit_seeds[i], SWEEP["workers"], path.name)
        ops.append((i, wall, rss, path if code == 0 else None))

    timed_rounds(seconds, one_round)
    setup += measure_setup(lambda: None, 3)
    done = [(run.uwit_seeds[i], path) for i, _, _, path in ops if path is not None]

    # the same sweep with the other worker count must give the same bytes
    if done:
        seed0, first = done[0]
        _, _, code = sweep_cli(run, SWEEP, seed0, CHECK_WORKERS, "sweep_check.csv")
        if code == 0 and (run.dir / "sweep_check.csv").read_bytes() != first.read_bytes():
            run.check(["CSV differs between worker counts"], "sweep workers")
    check_sweeps(run, SWEEP, done)

    # one sweep outside the separable ball, untimed
    seed = run.uwit_seeds[-1]
    _, _, code = sweep_cli(run, WIDE_SWEEP, seed, WIDE_SWEEP["workers"], "sweep_wide.csv")
    if code == 0:
        check_sweeps(run, WIDE_SWEEP, [(seed, run.dir / "sweep_wide.csv")])

    per_op = len(sweep_grid(SWEEP)[0]) * SWEEP["samples"]
    return summarize(
        setup, [(per_op, wall, rss, path.stat().st_size if path else 0) for _, wall, rss, path in ops]
    )


def run_geometry(run: Run, seconds: float) -> dict:
    q_flags = [a for q in GEOMETRY_Q for a in ("--q", str(q))]
    rows = (GEOMETRY_CSV_RESOLUTION**3 + GEOMETRY_JSON_RESOLUTION**3) * len(GEOMETRY_Q)
    csv_path, json_path = run.dir / "geometry.csv", run.dir / "geometry.json"
    checked = (run.dir / "checked.csv", run.dir / "checked.json")
    setup = measure_setup(lambda: None, 2)
    ops = []
    digests = set()

    def one_round(_):
        csv_wall, csv_rss, csv_code = run.cli(
            ["geometry", "--resolution", str(GEOMETRY_CSV_RESOLUTION), *q_flags, "--out", str(csv_path)]
        )
        json_wall, json_rss, json_code = run.cli(
            ["geometry", "--resolution", str(GEOMETRY_JSON_RESOLUTION), *q_flags,
             "--format", "json", "--out", str(json_path)]
        )  # fmt: skip
        wall, rss = csv_wall + json_wall, max(csv_rss, json_rss)
        if csv_code or json_code:
            ops.append((rows, wall, rss, 0))
            return
        ops.append((rows, wall, rss, csv_path.stat().st_size + json_path.stat().st_size))
        if checked[0].exists():
            digests.add((sha256(csv_path), sha256(json_path)))
        else:
            csv_path.rename(checked[0])
            json_path.rename(checked[1])

    timed_rounds(seconds, one_round)
    setup += measure_setup(lambda: None, 3)
    # the first outputs are checked cell by cell, later rounds by digest
    if checked[0].exists():
        check_geometry_outputs(run, *checked)
        if digests - {(sha256(checked[0]), sha256(checked[1]))}:
            run.check(["outputs differ between rounds of the same scan"], "geometry")
    return summarize(setup, ops)


def check_geometry_outputs(run: Run, csv_path: Path, json_path: Path) -> None:
    """Check both geometry outputs, cell by cell, against the exact integer
    classification."""
    ref = reference.geometry_reference(GEOMETRY_CSV_RESOLUTION, GEOMETRY_Q)
    table = read_table(run, csv_path, GEOMETRY_HEADER)
    if table is not None:
        run.check(reference.check_geometry_table(table, ref, GEOMETRY_Q), "geometry csv")
        del table

    keys = GEOMETRY_HEADER.split(",")
    try:
        with open(json_path, encoding="utf-8") as fh:
            records = json.load(fh)
    except ValueError as exc:
        run.check([str(exc)], "geometry json")
        return
    if not isinstance(records, list) or any(list(r) != keys for r in records):
        run.check(["records do not carry the CSV columns as keys, in order"], "geometry json")
        return
    table = np.array([[float(r[k]) for k in keys] for r in records])
    ref = reference.geometry_reference(GEOMETRY_JSON_RESOLUTION, GEOMETRY_Q)
    run.check(reference.check_geometry_table(table, ref, GEOMETRY_Q), "geometry json")


def run_evaluate(run: Run, seconds: float) -> dict:
    inputs = []

    def make_inputs():
        inputs.append(write_state_files(run.dir / "states", run.seed, EVALUATE_FILES))

    setup = measure_setup(make_inputs, 2)
    rho, separable, paths = inputs[0]
    main = import_uwit().cli.main
    calls = []
    outputs = [None] * len(paths)
    loop_times = [reference_loop()]

    def one_round(_):
        for i, path in enumerate(paths):
            wall, code, out = call_main(main, evaluate_argv(path))
            run.count(code, f"evaluate {path}")
            calls.append((wall, len(out.encode()), len(loop_times) - 1))
            if i % EVALUATE_BLOCK == EVALUATE_BLOCK - 1:
                loop_times.append(reference_loop())
            if code != 0:
                continue
            if outputs[i] is None:
                outputs[i] = out
            elif outputs[i] != out:
                run.check([f"{path}: report changed between rounds"], "evaluate")

    timed_rounds(seconds, one_round)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(make_inputs, 3)
    check_evaluate_outputs(run, outputs, rho, separable)

    # `uwit werner` in process: all three thresholds at 1/3
    _, code, out = call_main(main, ["werner"])
    run.count(code, "werner")
    if code == 0:
        thresholds = [float(part.split("=")[1]) for part in out.split()[2:5]]
        run.check(reference.werner_errors(thresholds), "werner")

    # Each call is scaled by the loop times just before and just after its
    # block (README.md). EVALUATE_FILES is a multiple of EVALUATE_BLOCK, so
    # every block ends with a loop time.
    walls, sizes, blocks = (np.array(col) for col in zip(*calls))
    loops = np.array(loop_times)
    scaled = walls * REFERENCE_LOOP_S / ((loops[blocks] + loops[blocks + 1]) / 2)
    print(
        f"raw: {len(walls) / walls.sum():.6g} calls/s, p50 {np.median(walls) * 1e3:.6g} ms;"
        f" reference loop median {np.median(loops) * 1e3:.6g} ms",
        file=sys.stderr,
    )
    metrics = summarize(setup, [(1, wall, peak_rss, size) for wall, size in zip(scaled, sizes)])
    # the tail stays raw: scaling moves into it the speed changes within a block
    metrics["latency_tail_ms"] = metric(np.percentile(walls, 99) * 1e3, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The uwit benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uwit" / "__init__.py").is_file():
        print(f"error: no uwit sources under {SRC}; run from a uwit checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    try:
        if args.trace:
            import layers

            metrics = layers.run_layers(run)
        elif args.workload == "geometry":
            metrics = run_geometry(run, args.seconds)
        elif args.workload == "evaluate-states":
            metrics = run_evaluate(run, args.seconds)
        else:
            metrics = run_sweep(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
