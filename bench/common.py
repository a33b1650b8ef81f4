"""Paths, operation counters and the in-process evaluate call shared by the
timed workloads (run.py) and the traced layer suite (layers.py)."""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

EVALUATE_Q = (2, 4, 15)
GEOMETRY_Q = (2, 4, 15)
GEOMETRY_CSV_RESOLUTION = 71
GEOMETRY_JSON_RESOLUTION = 31

# Seconds of ``reference_loop`` on a host at nominal speed. The evaluate-states
# rate and p50 are scaled to such a host (README.md).
REFERENCE_LOOP_S = 4.5e-3
_REFERENCE_MATRIX = np.add.outer(np.arange(4.0), np.arange(4.0))

SWEEP_HEADER = "p,frac_witness,frac_lur,frac_npt,samples,seed"
GEOMETRY_HEADER = "x,y,z,is_state,in_octahedron,sphere_detected,q,tsallis_detected"


class Run:
    """Operation counters, check failures and the work directory of one
    benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # uwit seeds for the sweep runs, drawn from the workload seed
        rng = random.Random(seed)
        self.uwit_seeds = [rng.randrange(1, 2**31) for _ in range(1000)]

    def check(self, errors, what: str) -> None:
        for e in errors[:20]:
            print(f"check failed ({what}): {e}", file=sys.stderr)
        self.errors.extend(f"{what}: {e}" for e in errors)

    def count(self, code: int, what) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"uwit {what} exited {code}", file=sys.stderr)

    def cli(self, args):
        """Run ``python -m uwit ARGS`` to completion. Returns (wall seconds,
        peak RSS in MB of the process and the workers it reaped, exit code)."""
        log_path = self.dir / "uwit.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "uwit", *args], env=uwit_env(), stdout=log, stderr=log
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.count(proc.returncode, " ".join(args))
        if proc.returncode != 0:
            sys.stderr.write(log_path.read_text(errors="replace")[-2000:])
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


def reference_loop() -> float:
    """Seconds of a fixed piece of work that never touches uwit: small numpy
    eigenvalue problems and JSON round trips, the kind of work that an
    in-process ``uwit evaluate`` call does."""
    start = time.perf_counter()
    for i in range(200):
        np.linalg.eigvalsh(_REFERENCE_MATRIX + i)
        json.loads(json.dumps({"x": [i, i * 0.5, "abc"]}))
    return time.perf_counter() - start


def uwit_env() -> dict:
    """The environment of uwit processes: uwit imported from the checkout,
    and no UWIT_SEED, so that only the --seed flag picks the stream."""
    env = {k: v for k, v in os.environ.items() if k != "UWIT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_uwit():
    """Import uwit and its CLI from the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uwit
    import uwit.cli

    return uwit


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_state_files(directory: Path, seed: int, n: int):
    """Write the evaluate-states inputs as uwit state files. Returns the
    matrices, the separable-by-construction flags and the paths."""
    rho, separable = reference.evaluate_states(seed, n)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, m in enumerate(rho):
        path = directory / f"state_{i:04d}.json"
        path.write_text(json.dumps({"dims": [2, 2], "re": m.real.tolist(), "im": m.imag.tolist()}))
        paths.append(str(path))
    return rho, separable, paths


def evaluate_argv(path: str) -> list[str]:
    return ["evaluate", path, *[a for q in EVALUATE_Q for a in ("--q", str(q))]]


def call_main(main, argv):
    """One in-process CLI call. Returns (seconds, exit code, standard output).
    An exception escaping the CLI counts as exit code 1, as it would for the
    ``uwit`` command, and its traceback goes to standard error."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return wall, code, buf.getvalue()


def check_evaluate_outputs(run: Run, outputs, rho, separable) -> None:
    """Check the JSON reports of evaluate calls that exited 0 (None marks a
    call that failed) against the reference."""
    ok = [i for i, out in enumerate(outputs) if out is not None]
    try:
        reports = [json.loads(outputs[i]) for i in ok]
        errors = reference.check_evaluate_reports(
            reports, rho[ok], [separable[i] for i in ok], EVALUATE_Q
        )
    except (ValueError, KeyError, TypeError) as exc:
        errors = [f"malformed report: {exc!r}"]
    run.check(errors, "evaluate")

