"""Command-line front end: evaluate criteria on a stored state, run the
detection sweep and geometry scan, locate the Werner thresholds, and
generate state files.

Exit codes: 0 success (detection results are data, never an error),
2 malformed input or bad parameters (including NaN, infinite or
non-integer values where a finite number or an integer is needed; flag
errors print argparse's usage line), 3 a state file violating the
density-matrix invariants, 4 an unwritable output path, 5 a numerical
defect (a sweep or Werner result breaking an exact-arithmetic invariant)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
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
from .criteria import (
    _check_q,
    _detects,
    bell_tsallis_criterion,
    bell_variance_criterion,
    linear_witness_value,
    nonlinear_witness_value,
    pauli_lur,
    CriterionVerdict,
)
from .experiments import (
    default_p_grid,
    detection_rows_to_dicts,
    geometry_scan_to_dicts,
    run_detection_sweep,
    run_geometry_scan,
    werner_thresholds,
    write_detection_csv,
    write_geometry_csv,
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


def _linear_witness_verdicts(rho, q_values) -> list[CriterionVerdict]:
    value = linear_witness_value(rho)
    return [CriterionVerdict(value, 0.0, _detects(value, 0.0), "linear_witness")]


# criterion id -> verdicts for (state, q values). Each entry looks its
# criterion up by name when called, so a wrapper swapped into this module
# (as the benchmark's tracer does) is the one that runs.
_CRITERIA = {
    "linear_witness": _linear_witness_verdicts,
    "nonlinear_witness": lambda rho, q_values: [nonlinear_witness_value(rho)],
    "pauli_lur": lambda rho, q_values: [pauli_lur(rho)],
    "bell_variance": lambda rho, q_values: [bell_variance_criterion(rho)],
    "bell_tsallis": lambda rho, q_values: [bell_tsallis_criterion(rho, q) for q in q_values],
}
CRITERION_CHOICES = tuple(_CRITERIA)


def _integer(name: str, value: float) -> int:
    """``value`` as an int; NaN, infinities and fractions are rejected."""
    if not value.is_integer():
        raise InvalidParameterError(f"{name} must be an integer, got {value}")
    return int(value)


# kind -> (parameter count, state from (parameters, seed))
_GEN_STATE = {
    "bell": (1, lambda params, seed: bell_state(_integer("Bell index", params[0])).density()),
    "werner": (1, lambda params, seed: werner_state(params[0])),
    "noisy-singlet": (
        2,
        lambda params, seed: noisy_singlet(params[0], sample_noise_ball(params[1], noise_rng(seed))),
    ),
    "bell-diagonal": (3, lambda params, seed: bell_diagonal_state(tuple(params))),
    "random-separable": (
        1,
        lambda params, seed: random_separable_state(_integer("k", params[0]), noise_rng(seed)),
    ),
}
GEN_STATE_KINDS = tuple(_GEN_STATE)


def _tsallis_q(text: str) -> float:
    return _check_q(float(text))


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


# argparse reports a ValueError from a type as "invalid <__name__> value: '...'"
_tsallis_q.__name__ = "positive finite q"
_float_list.__name__ = "float list"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        default=",".join(CRITERION_CHOICES),
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
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default="sweep.csv")

    p_geom = sub.add_parser("geometry", help="scan the Bell-diagonal coordinate cube")
    p_geom.set_defaults(run=_cmd_geometry)
    p_geom.add_argument("--resolution", type=int, default=101)
    p_geom.add_argument(
        "--q", action="append", type=_tsallis_q, default=None, help="Tsallis q (repeatable; default 2 4 15)"
    )
    p_geom.add_argument("--format", choices=("csv", "json"), default="csv")
    p_geom.add_argument("--out", default="geometry.csv")

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


def _save(path, write) -> None:
    """Call ``write(path)``; this is the one place an OSError becomes exit 4."""
    try:
        write(path)
    except OSError as exc:
        raise _UnwritableOutput(f"cannot write {path}: {exc}") from exc


def _save_text(path, text: str) -> None:
    _save(path, lambda p: Path(p).write_text(text, encoding="utf-8"))


def _write_geometry_json(scan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        for i, record in enumerate(geometry_scan_to_dicts(scan)):
            fh.write((",\n" if i else "") + json.dumps(record))
        fh.write("\n]\n")


def _cmd_evaluate(args) -> None:
    rho = load_state(args.state)
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"criteria are defined for dims [2, 2], got {list(rho.dims)}")
    criteria = [name.strip() for name in args.criteria.split(",") if name.strip()]
    unknown = [name for name in criteria if name not in _CRITERIA]
    if unknown:
        raise InvalidParameterError(f"unknown criteria: {', '.join(unknown)}")
    q_values = args.q or [2.0]
    verdicts = [v for name in criteria for v in _CRITERIA[name](rho, q_values)]
    npt, min_pt = is_npt(rho)

    if args.format == "json":
        report = {
            "dims": list(rho.dims),
            "criteria": [
                {
                    "id": v.criterion_id,
                    "value": v.value,
                    "threshold": v.threshold,
                    "detected": v.detected,
                }
                for v in verdicts
            ],
            "npt": npt,
            "min_pt_eigenvalue": min_pt,
        }
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = ["id,value,threshold,detected"]
        for v in verdicts:
            lines.append(f"{v.criterion_id},{v.value:.9g},{v.threshold:.9g},{int(v.detected)}")
        lines.append(f"npt,{min_pt:.9g},{NPT_THRESHOLD:.9g},{int(npt)}")
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _save_text(args.out, text)


def _cmd_sweep(args) -> None:
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    config = NoiseBallConfig(d=args.d, seed=args.seed, samples=args.samples)
    rows = run_detection_sweep(config, args.p_grid or default_p_grid(), workers=workers)
    if args.format == "csv":
        _save(args.out, lambda path: write_detection_csv(rows, path))
    else:
        _save_text(args.out, json.dumps(detection_rows_to_dicts(rows), indent=2) + "\n")
    print(
        f"sweep: wrote {len(rows)} rows to {args.out} "
        f"(d={args.d:g}, samples={args.samples}, seed={args.seed}, workers={workers})"
    )


def _cmd_geometry(args) -> None:
    scan = run_geometry_scan(resolution=args.resolution, q_values=args.q or [2.0, 4.0, 15.0])
    write = write_geometry_csv if args.format == "csv" else _write_geometry_json
    _save(args.out, lambda path: write(scan, path))
    print(
        f"geometry: wrote {len(scan) * len(scan.q_values)} rows to {args.out} "
        f"(resolution={scan.resolution}, q={[float(q) for q in scan.q_values]})"
    )


def _cmd_werner(args) -> None:
    thresholds = werner_thresholds()
    print(
        f"werner thresholds: witness={thresholds.witness:.9g} "
        f"lur={thresholds.lur:.9g} npt={thresholds.npt:.9g}"
    )
    if args.out is not None:
        _save_text(args.out, json.dumps(asdict(thresholds), indent=2) + "\n")


def _cmd_gen_state(args) -> None:
    arity, build = _GEN_STATE[args.kind]
    if len(args.params) != arity:
        raise InvalidParameterError(f"{args.kind} takes {arity} parameter(s), got {len(args.params)}")
    rho = build(args.params, args.seed)
    _save(args.out, lambda path: save_state(rho, path))
    print(f"gen-state: wrote {args.kind} state to {args.out}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed help, the version or a usage error
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        seed_env = os.environ.get("UWIT_SEED", "42")
        try:
            env_seed = int(seed_env)
        except ValueError:
            raise InvalidParameterError(f"UWIT_SEED must be an integer, got {seed_env!r}") from None
        if getattr(args, "seed", None) is None:
            args.seed = env_seed
        args.run(args)
    except UwitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
