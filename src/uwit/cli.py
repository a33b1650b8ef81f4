"""Command-line front end: evaluate criteria on a stored state, run the
detection sweep and geometry scan, locate the Werner thresholds, and
generate state files.

Exit codes: 0 success (detection results are data, never an error),
2 malformed input or bad parameters, 3 a state file violating the
density-matrix invariants, 4 an unwritable output path, 5 a numerical
defect (a sweep or Werner result breaking an exact-arithmetic invariant)."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (
    InvalidParameterError,
    NumericalDefectError,
    RejectionOverflowError,
    StateFormatError,
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

CRITERION_CHOICES = (
    "linear_witness",
    "nonlinear_witness",
    "pauli_lur",
    "bell_variance",
    "bell_tsallis",
)

GEN_STATE_KINDS = ("bell", "werner", "noisy-singlet", "bell-diagonal", "random-separable")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(seed_arg) -> int:
    if seed_arg is not None:
        return int(seed_arg)
    env = os.environ.get("UWIT_SEED")
    if env is not None:
        return int(env)
    return 42


def _parse_p_grid(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwit",
        description="Uncertainty-relation entanglement detection for two-qubit states.",
    )
    parser.add_argument("--version", action="version", version=f"uwit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate criteria on a JSON state file")
    p_eval.add_argument("state", help="path to a JSON density-matrix file")
    p_eval.add_argument(
        "--criteria",
        default=",".join(CRITERION_CHOICES),
        help="comma-separated criterion ids (default: all)",
    )
    p_eval.add_argument(
        "--q",
        action="append",
        type=float,
        default=None,
        help="Tsallis q for bell_tsallis (repeatable; default 2)",
    )
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", default=None, help="output path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="run the noisy-singlet detection sweep")
    p_sweep.add_argument("--d", type=float, default=0.2, help="noise-ball radius")
    p_sweep.add_argument(
        "--p-grid", default=None, help="comma-separated singlet weights (default 0,0.05,...,1)"
    )
    p_sweep.add_argument("--samples", type=int, default=2000)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default="sweep.csv")

    p_geom = sub.add_parser("geometry", help="scan the Bell-diagonal coordinate cube")
    p_geom.add_argument("--resolution", type=int, default=101)
    p_geom.add_argument(
        "--q", action="append", type=float, default=None, help="Tsallis q (repeatable; default 2 4 15)"
    )
    p_geom.add_argument("--format", choices=("csv", "json"), default="csv")
    p_geom.add_argument("--out", default="geometry.csv")

    p_werner = sub.add_parser("werner", help="locate detection thresholds on the Werner line")
    p_werner.add_argument("--out", default=None, help="also write thresholds as JSON")

    p_gen = sub.add_parser("gen-state", help="write a JSON state file")
    p_gen.add_argument("kind", choices=GEN_STATE_KINDS)
    p_gen.add_argument("params", nargs="*", type=float, help="kind-specific parameters")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)

    return parser


def _evaluate_verdicts(rho, criteria: list[str], q_values: list[float]) -> list[CriterionVerdict]:
    verdicts = []
    for name in criteria:
        if name == "linear_witness":
            value = linear_witness_value(rho)
            verdicts.append(CriterionVerdict(value, 0.0, _detects(value, 0.0), "linear_witness"))
        elif name == "nonlinear_witness":
            verdicts.append(nonlinear_witness_value(rho))
        elif name == "pauli_lur":
            verdicts.append(pauli_lur(rho))
        elif name == "bell_variance":
            verdicts.append(bell_variance_criterion(rho))
        elif name == "bell_tsallis":
            for q in q_values:
                verdicts.append(bell_tsallis_criterion(rho, q))
    return verdicts


def _write_text(path, text: str) -> int:
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(EXIT_UNWRITABLE, f"cannot write {path}: {exc}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    try:
        rho = load_state(args.state)
    except StateFormatError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except StateInvariantError as exc:
        return _fail(EXIT_INVALID_STATE, str(exc))
    if rho.dims != (2, 2):
        return _fail(EXIT_BAD_INPUT, f"criteria are defined for dims [2, 2], got {list(rho.dims)}")

    criteria = [name.strip() for name in args.criteria.split(",") if name.strip()]
    unknown = [name for name in criteria if name not in CRITERION_CHOICES]
    if unknown:
        return _fail(EXIT_BAD_INPUT, f"unknown criteria: {', '.join(unknown)}")
    q_values = args.q if args.q else [2.0]
    if any(q <= 0.0 for q in q_values):
        return _fail(EXIT_BAD_INPUT, "q must be positive")

    verdicts = _evaluate_verdicts(rho, criteria, q_values)
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
        return _write_text(args.out, json.dumps(report, indent=2) + "\n")

    lines = ["id,value,threshold,detected"]
    for v in verdicts:
        lines.append(f"{v.criterion_id},{v.value:.9g},{v.threshold:.9g},{int(v.detected)}")
    lines.append(f"npt,{min_pt:.9g},{NPT_THRESHOLD:.9g},{int(npt)}")
    return _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_sweep(args) -> int:
    seed = _resolve_seed(args.seed)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    try:
        config = NoiseBallConfig(p=0.0, d=args.d, seed=seed, samples=args.samples)
        p_grid = _parse_p_grid(args.p_grid) if args.p_grid else default_p_grid()
        rows = run_detection_sweep(config, p_grid, workers=workers)
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except RejectionOverflowError as exc:
        return _fail(EXIT_BAD_INPUT, f"noise sampler gave up at d={args.d:g}: {exc}")
    except NumericalDefectError as exc:
        return _fail(EXIT_NUMERICAL_DEFECT, str(exc))
    try:
        if args.format == "csv":
            write_detection_csv(rows, args.out)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(detection_rows_to_dicts(rows), fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        return _fail(EXIT_UNWRITABLE, f"cannot write {args.out}: {exc}")
    print(
        f"sweep: wrote {len(rows)} rows to {args.out} "
        f"(d={args.d:g}, samples={args.samples}, seed={seed}, workers={workers})"
    )
    return EXIT_OK


def _cmd_geometry(args) -> int:
    q_values = args.q if args.q else [2.0, 4.0, 15.0]
    try:
        scan = run_geometry_scan(resolution=args.resolution, q_values=q_values)
    except InvalidParameterError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    try:
        if args.format == "csv":
            write_geometry_csv(scan, args.out)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("[\n")
                first = True
                for record in geometry_scan_to_dicts(scan):
                    if not first:
                        fh.write(",\n")
                    fh.write(json.dumps(record))
                    first = False
                fh.write("\n]\n")
    except OSError as exc:
        return _fail(EXIT_UNWRITABLE, f"cannot write {args.out}: {exc}")
    print(
        f"geometry: wrote {len(scan) * len(scan.q_values)} rows to {args.out} "
        f"(resolution={scan.resolution}, q={[float(q) for q in scan.q_values]})"
    )
    return EXIT_OK


def _cmd_werner(args) -> int:
    try:
        thresholds = werner_thresholds()
    except NumericalDefectError as exc:
        return _fail(EXIT_NUMERICAL_DEFECT, str(exc))
    print(
        f"werner thresholds: witness={thresholds.witness:.9g} "
        f"lur={thresholds.lur:.9g} npt={thresholds.npt:.9g}"
    )
    if args.out is not None:
        payload = {
            "witness": thresholds.witness,
            "lur": thresholds.lur,
            "npt": thresholds.npt,
        }
        return _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_gen_state(args) -> int:
    seed = _resolve_seed(args.seed)
    kind, params = args.kind, args.params
    arity = {
        "bell": 1,
        "werner": 1,
        "noisy-singlet": 2,
        "bell-diagonal": 3,
        "random-separable": 1,
    }[kind]
    if len(params) != arity:
        return _fail(EXIT_BAD_INPUT, f"{kind} takes {arity} parameter(s), got {len(params)}")
    try:
        if kind == "bell":
            index = int(params[0])
            if index != params[0]:
                raise InvalidParameterError(f"Bell index must be an integer, got {params[0]}")
            rho = bell_state(index).density()
        elif kind == "werner":
            rho = werner_state(params[0])
        elif kind == "noisy-singlet":
            p, d = params
            if not 0.0 <= d <= 3.0**0.5 / 2.0:
                raise InvalidParameterError(f"d must lie in [0, sqrt(3)/2], got {d}")
            rho = noisy_singlet(p, sample_noise_ball(d, noise_rng(seed)))
        elif kind == "bell-diagonal":
            rho = bell_diagonal_state(tuple(params))
        else:  # random-separable
            k = int(params[0])
            if k != params[0]:
                raise InvalidParameterError(f"k must be an integer, got {params[0]}")
            rho = random_separable_state(k, noise_rng(seed))
    except UwitError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    try:
        save_state(rho, args.out)
    except OSError as exc:
        return _fail(EXIT_UNWRITABLE, f"cannot write {args.out}: {exc}")
    print(f"gen-state: wrote {kind} state to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        seed_env = os.environ.get("UWIT_SEED")
        if seed_env is not None:
            int(seed_env)
    except ValueError:
        return _fail(EXIT_BAD_INPUT, f"UWIT_SEED must be an integer, got {seed_env!r}")

    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "geometry":
        return _cmd_geometry(args)
    if args.command == "werner":
        return _cmd_werner(args)
    if args.command == "gen-state":
        return _cmd_gen_state(args)
    return _fail(EXIT_BAD_INPUT, f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
