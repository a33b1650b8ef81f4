"""The CLI's exit-code contract as a property. Argument lists are built from
the parser's own grammar (every subcommand, flag and positional it
declares), with small or hostile values: NaN, infinities, zero, negatives,
empty lists, unwritable output paths, missing or malformed state files. Each
runs through ``cli.main`` in process, against a standard output that may
fail as a full disk does, and must end in a documented exit code (0, 2, 3,
4 or 5), with an error line on standard error whenever the code is not 0
and never a traceback.

``--samples``, ``--resolution`` and the noise radii are always drawn from
small values: a valid large one is accepted and runs for as long as it
asks, with no bound on time, so only small ones keep each case to seconds."""

import argparse
import json
import re
import sys
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from uwit import cli, experiments
from uwit.states import bell_state, save_state

EXIT_CODES = {0, 2, 3, 4, 5}
# an error line: one of uwit's, or argparse's after its usage line
ERROR_LINE = re.compile(r"^(error: |uwit( [\w-]+)?: error: )", re.MULTILINE)
HOSTILE = ["nan", "inf", "-inf", "0", "-1", "", "abc", "1e300"]
# (accepted values, refused ones) by the dest of the action they are given
# to; a dest not listed gets HOSTILE. Each value is accepted two times in
# three, so that most commands get past their parsing.
VALUES = {
    "q": (["0.5", "1", "2", "1000"], ["1000.5", "2000", *HOSTILE]),
    "criteria": (["linear_witness", "pauli_lur,bell_tsallis"], [",", "nope", "bell_variance,nope", ""]),
    "d": (["0", "0.2", "0.5"], ["0.9", "-0.1", *HOSTILE]),  # accepted radii up to 0.5 only
    "p_grid": (["0,0.5,1", "0.3"], [",", "0.5,inf", "2", "-0.1", "1,,0", *HOSTILE]),
    "samples": (["1", "5", "50"], ["0", "-3", "1.5", "nan", "abc", ""]),  # accepted up to 50 only
    "seed": (["0", "7", "-1", str(2**70)], ["1.5", "nan", ""]),
    "workers": (["1", "2"], ["0", "-3", "1.5", "abc"]),
    "resolution": (["2", "3", "9"], ["1", "0", "-2", "1.5", "nan", "abc"]),  # accepted up to 9 only
    # gen-state parameters: Bell indices, weights, radii up to 0.5, coordinates, k up to 4
    "params": (["0", "0.2", "0.5", "1", "4"], ["-1", "1.5", "20001", "nan", "inf", "-inf", "abc"]),
    "state": (["STATE:valid"], [f"STATE:{s}" for s in ("missing", "malformed", "not_an_object", "bad_trace")]
              + [f"STATE:{s}" for s in ("nan_entry", "wrong_dims", "directory", "")]),
    "out": (["OUT:writable"], ["OUT:missing_dir/out", "OUT:directory", "OUT:"]),
}
# flags always given, so that their defaults (2000 samples, resolution 101)
# do not set the time of a case
ALWAYS = {"samples", "resolution"}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


SUBPARSERS = subparsers()


def action_value(action: argparse.Action):
    if action.choices is not None:
        accepted, refused = list(action.choices), ["nope", ""]
    else:
        accepted, refused = VALUES.get(action.dest, ([], HOSTILE))
    values = [st.sampled_from(accepted)] * 2 if accepted else []
    return st.one_of(*values, st.sampled_from(refused))


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand with its positionals in order, then a draw of its flags
    (some repeated, some as --flag=value), sometimes with a positional left
    out or an unknown flag added; or a bare top-level argv."""
    command = draw(st.sampled_from([*sorted(SUBPARSERS), "TOP"]))
    if command == "TOP":
        return draw(st.sampled_from([[], ["--version"], ["--help"], ["-h"], ["nope"], ["--frobnicate", "werner"]]))
    argv, flags = [command], []  # flags: groups of tokens that stay together
    for action in SUBPARSERS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            if draw(st.integers(0, 19)) == 0:
                flags.append([action.option_strings[0]])
            continue
        if not action.option_strings:  # a positional
            if draw(st.integers(0, 19)) == 0:
                continue
            count = draw(st.integers(0, 4)) if action.nargs == "*" else 1
            argv += [draw(action_value(action)) for _ in range(count)]
            continue
        if not (action.required or action.dest in ALWAYS or draw(st.booleans())):
            continue
        repeats = draw(st.integers(1, 3)) if isinstance(action, argparse._AppendAction) else 1
        for _ in range(repeats):
            flag, value = action.option_strings[0], draw(action_value(action))
            flags.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    if draw(st.integers(0, 19)) == 0:
        flags.append(["--frobnicate"])
    return argv + [token for group in draw(st.permutations(flags)) for token in group]


class Stdout:
    """Standard output as a full disk behaves: "ok" keeps what is written,
    "unbuffered" fails each write, "buffered" takes each write and fails the
    flush of anything written. ``failed`` records a failed write or flush."""

    def __init__(self, mode: str):
        self.mode, self.text, self.failed = mode, "", False

    def write(self, text):
        if self.mode == "unbuffered" and text:
            self.failed = True
            raise OSError(28, "No space left on device")
        self.text += text
        return len(text)

    def flush(self):
        if self.mode == "buffered" and self.text:
            self.failed = True
            raise OSError(28, "No space left on device")


def make_files(root):
    """The state files and output paths that the STATE: and OUT: placeholders name."""
    states = root / "states"
    states.mkdir()
    paths = {"STATE:": "", "OUT:": "", "STATE:directory": str(states), "OUT:directory": str(states)}
    save_state(bell_state(4).density(), states / "valid.json")
    texts = {
        "malformed": "{oops",
        "not_an_object": "[1, 2]",
        "bad_trace": json.dumps({"dims": [2, 2], "re": (0.2 * np.eye(4)).tolist(), "im": np.zeros((4, 4)).tolist()}),
        "nan_entry": '{"dims": [2, 2], "re": [[NaN, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], '
        '"im": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',
        "wrong_dims": json.dumps({"dims": [2, 3], "re": (np.eye(6) / 6).tolist(), "im": np.zeros((6, 6)).tolist()}),
    }
    for name, text in texts.items():
        (states / f"{name}.json").write_text(text)
    for name in ("valid", "missing", *texts):
        paths[f"STATE:{name}"] = str(states / f"{name}.json")
    paths["OUT:writable"] = str(root / "out")
    paths["OUT:missing_dir/out"] = str(root / "missing" / "out")
    return paths


def run(argv, mode):
    stdout, stderr = Stdout(mode), Stdout("ok")
    with mock.patch.object(sys, "stdout", stdout), mock.patch.object(sys, "stderr", stderr):
        code = cli.main(argv)
    return code, stdout, stderr.text


def test_every_argv_keeps_the_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a command without --out writes here
    monkeypatch.delenv("UWIT_SEED", raising=False)

    def no_pool(workers):
        raise AssertionError(f"a case started a process pool of {workers}")

    monkeypatch.setattr(experiments, "_process_pool", no_pool)
    paths = make_files(tmp_path)

    @settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(), st.sampled_from(["ok", "unbuffered", "buffered"]))
    @example(["--help"], "unbuffered")
    @example(["evaluate", "--help"], "unbuffered")
    @example(["--version"], "unbuffered")
    @example(["evaluate", "STATE:valid", "--q", "2000"], "ok")
    @example(["geometry", "--resolution", "3", "--q", "1000.5"], "ok")
    @example(["sweep", "--samples", "5", "--p-grid", ""], "buffered")
    def check(argv, mode):
        # a placeholder is a whole token or the value of a --flag=value token
        argv = [re.sub(r"(?:STATE|OUT):[\w/]*$", lambda m: paths[m.group()], a) for a in argv]
        code, stdout, err = run(argv, mode)
        assert code in EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err + stdout.text, (argv, err)
        if code != 0:
            assert ERROR_LINE.search(err), (argv, code, err)
        else:
            assert err == "", (argv, err)
        if stdout.failed:
            assert code == 4 and "error: cannot write standard output" in err, (argv, mode, code, err)

    check()
