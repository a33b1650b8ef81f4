"""Command-line front end. It only parses flags, renders reports and maps
errors to exit codes; the library decides (``criteria._CRITERIA`` gives the
verdicts of each criterion id). Every flag is checked as it is parsed, and
``UWIT_SEED`` is read only by a command that draws random numbers (``sweep``,
``gen-state noisy-singlet`` and ``gen-state random-separable``) run without
``--seed``.

Exit codes: 0 success (detection results are data, never an error),
2 malformed input or bad parameters (including NaN, infinite or
non-integer values where a finite number or an integer is needed; flag
errors print argparse's usage line), 3 a state file violating the
density-matrix invariants, 4 an unwritable output path or standard
output, 5 a numerical defect (a sweep or Werner result breaking an
exact-arithmetic invariant, or an eigendecomposition that did not
converge)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from . import __version__
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    NumericalDefectError,
    StateInvariantError,
    UwitError,
)
from .states import (
    NPT_THRESHOLD,
    NoiseBallConfig,
    bell_state,
    bell_diagonal_state,
    is_npt,
    load_state,
    noise_rng,
    noisy_singlet,
    random_separable_state,
    sample_noise_ball,
    save_state,
    werner_state,
)
from .criteria import _CRITERIA, BELL_Q_MAX, CRITERION_CHOICES, _check_bell_q
from .experiments import (
    run_detection_sweep,
    run_geometry_scan,
    sweep_workers,
    werner_thresholds,
    write_detection_csv,
    write_detection_json,
    write_geometry_csv,
    write_geometry_json,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INVALID_STATE = 3
EXIT_UNWRITABLE = 4
EXIT_NUMERICAL_DEFECT = 5


class _UnwritableOutput(UwitError):
    """An output path could not be written."""


# The exit code of an error is that of its first matching entry.
_EXIT_CODES = (
    (StateInvariantError, EXIT_INVALID_STATE),
    (_UnwritableOutput, EXIT_UNWRITABLE),
    ((NumericalDefectError, ConvergenceError), EXIT_NUMERICAL_DEFECT),
    (UwitError, EXIT_BAD_INPUT),
)


def _integer(name: str, value: float) -> int:
    """``value`` as an int; NaN, infinities and fractions are rejected."""
    if not value.is_integer():
        raise InvalidParameterError(f"{name} must be an integer, got {value}")
    return int(value)


def _seed(flag: int | None) -> int:
    """The ``--seed`` value, or without it ``UWIT_SEED`` (default 42). Only
    a command that draws random numbers calls this, so a malformed
    ``UWIT_SEED`` fails no other command."""
    if flag is not None:
        return flag
    seed_env = os.environ.get("UWIT_SEED", "42")
    try:
        return int(seed_env)
    except ValueError:
        raise InvalidParameterError(f"UWIT_SEED must be an integer, got {seed_env!r}") from None


# kind -> (parameter count, state from (parameters, --seed))
_GEN_STATE = {
    "bell": (1, lambda params, seed: bell_state(_integer("Bell index", params[0])).density()),
    "werner": (1, lambda params, seed: werner_state(params[0])),
    "noisy-singlet": (
        2,
        lambda params, seed: noisy_singlet(
            params[0], sample_noise_ball(params[1], noise_rng(_seed(seed)))
        ),
    ),
    "bell-diagonal": (3, lambda params, seed: bell_diagonal_state(tuple(params))),
    "random-separable": (
        1,
        lambda params, seed: random_separable_state(_integer("k", params[0]), noise_rng(_seed(seed))),
    ),
}
GEN_STATE_KINDS = tuple(_GEN_STATE)


def _tsallis_q(text: str) -> float:
    return _check_bell_q(float(text))


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _criterion_ids(text: str) -> list[str]:
    ids = [tok.strip() for tok in text.split(",") if tok.strip()]
    unknown = [name for name in ids if name not in _CRITERIA]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown criteria: {', '.join(unknown)}")
    if not ids:
        raise argparse.ArgumentTypeError("no criterion given")
    return ids


def _worker_count(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise InvalidParameterError(f"workers must be at least 1, got {workers}")
    return workers


# argparse reports a ValueError from a type as "invalid <__name__> value: '...'"
_tsallis_q.__name__ = f"q in (0, {BELL_Q_MAX:g}]"
_float_list.__name__ = "float list"
_worker_count.__name__ = "worker count (at least 1)"


class _Parser(argparse.ArgumentParser):
    """Prints help and version text through _print: argparse drops a failed write."""

    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            return super()._print_message(message, file)
        _print(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uwit",
        description="Uncertainty-relation entanglement detection for two-qubit states.",
    )
    parser.add_argument("--version", action="version", version=f"uwit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate criteria on a JSON state file")
    p_eval.set_defaults(run=_cmd_evaluate)
    p_eval.add_argument("state", help="path to a JSON density-matrix file")
    p_eval.add_argument(
        "--criteria",
        type=_criterion_ids,
        default=CRITERION_CHOICES,
        help="comma-separated criterion ids (default: all)",
    )
    p_eval.add_argument(
        "--q",
        action="append",
        type=_tsallis_q,
        default=None,
        help="Tsallis q for bell_tsallis (repeatable; default 2)",
    )
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", default=None, help="output path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="run the noisy-singlet detection sweep")
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument("--d", type=float, default=0.2, help="noise-ball radius")
    p_sweep.add_argument(
        "--p-grid",
        type=_float_list,
        default=None,
        help="comma-separated singlet weights (default 0,0.05,...,1)",
    )
    p_sweep.add_argument("--samples", type=int, default=2000)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None, help="output path (default: sweep.<format>)")

    p_geom = sub.add_parser("geometry", help="scan the Bell-diagonal coordinate cube")
    p_geom.set_defaults(run=_cmd_geometry)
    p_geom.add_argument("--resolution", type=int, default=101)
    p_geom.add_argument(
        "--q", action="append", type=_tsallis_q, default=None, help="Tsallis q (repeatable; default 2 4 15)"
    )
    p_geom.add_argument("--format", choices=("csv", "json"), default="csv")
    p_geom.add_argument("--out", default=None, help="output path (default: geometry.<format>)")

    p_werner = sub.add_parser("werner", help="locate detection thresholds on the Werner line")
    p_werner.set_defaults(run=_cmd_werner)
    p_werner.add_argument("--out", default=None, help="also write thresholds as JSON")

    p_gen = sub.add_parser("gen-state", help="write a JSON state file")
    p_gen.set_defaults(run=_cmd_gen_state)
    p_gen.add_argument("kind", choices=GEN_STATE_KINDS)
    p_gen.add_argument("params", nargs="*", type=float, help="kind-specific parameters")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on first use, then reused for the
    life of the process. ``build_parser`` still returns a fresh parser, so a
    caller that changes one cannot change ``main``."""
    return build_parser()


def _save(path, write) -> None:
    """Call ``write(path)``; this is the one place an OSError becomes exit 4."""
    try:
        write(path)
    except OSError as exc:
        raise _UnwritableOutput(f"cannot write {path}: {exc}") from exc


def _save_text(path, text: str) -> None:
    _save(path, lambda p: Path(p).write_text(text, encoding="utf-8"))


def _print(text: str) -> None:
    """Write ``text`` to standard output through _save; main flushes it."""
    _save("standard output", lambda _: sys.stdout.write(text))


_JSON_BOOL = {False: "false", True: "true"}


def _json_text(dims, verdicts, npt: bool, min_pt: float) -> str:
    """The evaluate report of at least one verdict as json.dumps(indent=2)
    prints it, from compiled f-strings: every number of a report is finite
    (README) and prints as float.__repr__, as json prints it; ids are plain
    ASCII."""
    r = float.__repr__
    body = ",\n".join(
        f'    {{\n      "id": "{v.criterion_id}",\n      "value": {r(v.value)},\n'
        f'      "threshold": {r(v.threshold)},\n      "detected": {_JSON_BOOL[v.detected]}\n    }}'
        for v in verdicts
    )
    return (
        f'{{\n  "dims": [\n    {dims[0]},\n    {dims[1]}\n  ],\n  "criteria": [\n{body}\n  ],\n'
        f'  "npt": {_JSON_BOOL[npt]},\n  "min_pt_eigenvalue": {r(min_pt)}\n}}\n'
    )


def _cmd_evaluate(args) -> None:
    rho = load_state(args.state)
    q_values = args.q or [2.0]
    verdicts = [v for name in args.criteria for v in _CRITERIA[name](rho, q_values)]
    npt, min_pt = is_npt(rho)

    if args.format == "json":
        text = _json_text(rho.dims, verdicts, npt, min_pt)
    else:
        lines = ["id,value,threshold,detected"]
        for v in verdicts:
            lines.append(f"{v.criterion_id},{v.value:.9g},{v.threshold:.9g},{int(v.detected)}")
        lines.append(f"npt,{min_pt:.9g},{NPT_THRESHOLD:.9g},{int(npt)}")
        text = "\n".join(lines) + "\n"
    if args.out is None:
        _print(text)
    else:
        _save_text(args.out, text)


def _cmd_sweep(args) -> None:
    seed = _seed(args.seed)
    config = NoiseBallConfig(d=args.d, seed=seed, samples=args.samples)
    # decided once: sweep_workers maps a decided count to itself, so the run
    # takes this count and the summary prints the count the run used
    workers = sweep_workers(config, args.workers)
    # without --p-grid, run_detection_sweep uses its default grid
    rows = run_detection_sweep(config, args.p_grid, workers=workers)
    out = f"sweep.{args.format}" if args.out is None else args.out
    write = write_detection_csv if args.format == "csv" else write_detection_json
    _save(out, lambda path: write(rows, path))
    _print(
        f"sweep: wrote {len(rows)} rows to {out} "
        f"(d={args.d:g}, samples={args.samples}, seed={seed}, workers={workers})\n"
    )


def _cmd_geometry(args) -> None:
    scan = run_geometry_scan(resolution=args.resolution, q_values=args.q or [2.0, 4.0, 15.0])
    out = f"geometry.{args.format}" if args.out is None else args.out
    write = write_geometry_csv if args.format == "csv" else write_geometry_json
    _save(out, lambda path: write(scan, path))
    _print(
        f"geometry: wrote {len(scan) * len(scan.q_values)} rows to {out} "
        f"(resolution={scan.resolution}, q={[float(q) for q in scan.q_values]})\n"
    )


def _cmd_werner(args) -> None:
    thresholds = werner_thresholds()
    _print(
        f"werner thresholds: witness={thresholds.witness:.9g} "
        f"lur={thresholds.lur:.9g} npt={thresholds.npt:.9g}\n"
    )
    if args.out is not None:
        _save_text(args.out, json.dumps(asdict(thresholds), indent=2) + "\n")


def _cmd_gen_state(args) -> None:
    arity, build = _GEN_STATE[args.kind]
    if len(args.params) != arity:
        raise InvalidParameterError(f"{args.kind} takes {arity} parameter(s), got {len(args.params)}")
    rho = build(args.params, args.seed)
    _save(args.out, lambda path: save_state(rho, path))
    _print(f"gen-state: wrote {args.kind} state to {args.out}\n")


def main(argv=None) -> int:
    """Run the command on ``argv`` (default ``sys.argv[1:]``) and return its
    exit code. Standard output is flushed through _save before the return,
    also after an error, so a failed write to it is exit 4 as well."""
    try:
        try:
            args = _shared_parser().parse_args(argv)
            args.run(args)
        finally:
            _save("standard output", lambda _: sys.stdout.flush())
    except SystemExit as exc:  # argparse has printed help, the version or a usage error
        return int(exc.code) if exc.code is not None else EXIT_OK
    except UwitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return EXIT_OK
