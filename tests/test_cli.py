import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import uwit
from uwit import cli, criteria, experiments, states
from uwit.cli import main
from uwit.errors import (
    ConvergenceError,
    InvalidParameterError,
    NumericalDefectError,
    RejectionOverflowError,
    StateInvariantError,
)
from uwit.criteria import CRITERION_CHOICES, DETECTION_TOL, WITNESS_TOL, pauli_lur
from uwit.states import (
    DensityMatrix,
    PureState,
    bell_states,
    density_matrix_violations,
    is_npt,
    maximally_mixed,
    noisy_singlet,
    random_density_matrix,
    random_separable_state,
    sample_noise_ball,
    save_state,
    werner_state,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


def with_state(argv, state):
    """``argv`` with the placeholder "STATE" replaced by ``state``."""
    return [state if a == "STATE" else a for a in argv]


def count_calls(monkeypatch, module, names) -> dict:
    """Calls of ``module``'s functions ``names``, counted in ``module`` and
    wherever a uwit module holds them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for holder in (uwit, uwit.linalg, states, criteria, experiments, module):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counted)
    return calls


class TestEvaluate:
    def test_singlet_detected_by_everything(self, tmp_path, capsys):
        state = tmp_path / "singlet.json"
        assert run_cli("gen-state", "bell", "4", "--out", state) == 0
        capsys.readouterr()
        assert run_cli("evaluate", state) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dims"] == [2, 2]
        assert report["npt"] is True
        assert report["min_pt_eigenvalue"] == pytest.approx(-0.5, abs=1e-10)
        by_id = {c["id"]: c for c in report["criteria"]}
        for name in ("linear_witness", "nonlinear_witness", "pauli_lur", "bell_variance", "bell_tsallis_q2"):
            assert by_id[name]["detected"] is True

    def test_maximally_mixed_detected_by_nothing(self, tmp_path, capsys):
        state = tmp_path / "mixed.json"
        save_state(maximally_mixed(), state)
        assert run_cli("evaluate", state) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["npt"] is False
        assert not any(c["detected"] for c in report["criteria"])

    @pytest.mark.parametrize("p", [(1 + 6e-13) / 3, (1 + 3.9e-9) / 3])
    def test_pauli_lur_silent_on_ppt_werner_state(self, tmp_path, capsys, p):
        # PPT states whose collective-Pauli sum 4 + 2N lies below 4 by more
        # than DETECTION_TOL, but by less than 2 WITNESS_TOL
        rho = werner_state(p)
        assert not is_npt(rho)[0]
        verdict = pauli_lur(rho)
        assert 4.0 - 2.0 * WITNESS_TOL < verdict.value < 4.0 - DETECTION_TOL
        assert not verdict.detected
        state = tmp_path / "werner.json"
        save_state(rho, state)
        assert run_cli("evaluate", state, "--criteria", "pauli_lur") == 0
        report = json.loads(capsys.readouterr().out)
        assert [(c["id"], c["detected"]) for c in report["criteria"]] == [("pauli_lur", False)]
        assert report["npt"] is False

    def test_invalid_trace_exits_3_and_names_invariant(self, tmp_path, capsys):
        state = tmp_path / "trace.json"
        m = (np.eye(4) * 0.9 / 4).tolist()
        state.write_text(json.dumps({"dims": [2, 2], "re": m, "im": np.zeros((4, 4)).tolist()}))
        assert run_cli("evaluate", state) == 3
        assert "unit_trace" in capsys.readouterr().err

    def test_scalar_path_checks_each_input_once(self, tmp_path, monkeypatch, capsys):
        """One evaluate with every criterion: the state's seven Pauli values
        make the only expectation call. The state's validation is the one
        Hermiticity decision: the kept state, the basis and the partial
        transpose that is_npt decomposes are exactly Hermitian, so neither
        expectation nor the eigensolver checks them again. A saved state is
        exactly Hermitian, so its validation takes no defect norm. LAPACK
        runs twice: eigvalsh in the validation, eigh in is_npt."""
        state = tmp_path / "ginibre.json"
        save_state(random_density_matrix((2, 2), np.random.default_rng(31)), state)
        names = ("expectation", "_adjoint_difference", "_check_hermitian", "_hs_norms")
        calls = count_calls(monkeypatch, uwit.linalg, names)
        lapack = count_calls(monkeypatch, np.linalg, ("eigvalsh", "eigh"))
        assert run_cli("evaluate", state, "--q", "2", "--q", "4", "--q", "15") == 0
        assert len(json.loads(capsys.readouterr().out)["criteria"]) == 7
        assert calls == {"expectation": 1, "_adjoint_difference": 1, "_check_hermitian": 0, "_hs_norms": 0}, calls
        assert lapack == {"eigvalsh": 1, "eigh": 1}, lapack

    def test_a_state_hermitian_only_within_the_bound_takes_the_defect_norm(self, tmp_path, monkeypatch, capsys):
        """A state file Hermitian within HERMITICITY_TOL but not exactly is
        accepted after one difference and one defect norm in its validation;
        the kept Hermitian part is exact, so nothing after it is checked."""
        m = np.eye(4) / 4.0
        m[0, 1] = 1e-13
        state = tmp_path / "near.json"
        state.write_text(json.dumps({"dims": [2, 2], "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
        names = ("_adjoint_difference", "_check_hermitian", "_hs_norms")
        calls = count_calls(monkeypatch, uwit.linalg, names)
        assert run_cli("evaluate", state) == 0
        assert json.loads(capsys.readouterr().out)["npt"] is False
        assert calls == {"_adjoint_difference": 1, "_check_hermitian": 0, "_hs_norms": 1}, calls

    @pytest.mark.parametrize("q_args", [(), ("--q", "2"), ("--q", "0.5", "--q", "1", "--q", "2", "--q", "200")])
    def test_derived_values_are_computed_once(self, tmp_path, monkeypatch, capsys, q_args):
        """One evaluate makes one expectation call, the state's seven Pauli
        values, whatever the q list; every criterion reads them, so a second
        round of criterion calls on the same state makes no further call."""
        state = tmp_path / "ginibre.json"
        save_state(random_density_matrix((2, 2), np.random.default_rng(32)), state)
        loaded = []

        def load(path):
            loaded.append(states.load_state(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_state", load)
        calls = count_calls(monkeypatch, states, ("expectation",))
        assert run_cli("evaluate", state, *q_args) == 0
        reported = json.loads(capsys.readouterr().out)["criteria"]
        assert len(reported) == 4 + max(1, len(q_args) // 2)
        assert calls == {"expectation": 1}
        q_values = [float(q) for q in q_args[1::2]] or [2.0]
        again = [v for name in CRITERION_CHOICES for v in criteria._CRITERIA[name](loaded[0], q_values)]
        assert [v.value for v in again] == [c["value"] for c in reported]
        assert calls == {"expectation": 1}

    def test_malformed_file_exits_2(self, tmp_path):
        state = tmp_path / "broken.json"
        state.write_text("{oops")
        assert run_cli("evaluate", state) == 2

    def test_wrong_dims_exit_2(self, tmp_path, capsys):
        """A valid state of dims other than (2, 2) is refused, with one error
        line and no output, by the Pauli values that every criterion reads."""
        state = tmp_path / "qutrit.json"
        m = np.eye(6) / 6
        payload = {"dims": [2, 3], "re": m.tolist(), "im": np.zeros((6, 6)).tolist()}
        state.write_text(json.dumps(payload))
        for criteria in ((), *(("--criteria", name) for name in CRITERION_CHOICES)):
            assert run_cli("evaluate", state, *criteria) == 2
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert captured.out == "" and "Traceback" not in captured.err
            assert len(lines) == 1 and lines[0].startswith("error: ") and "(2, 3)" in lines[0], lines

    def test_criteria_selection_and_q(self, tmp_path, capsys):
        state = tmp_path / "singlet.json"
        run_cli("gen-state", "bell", "4", "--out", state)
        capsys.readouterr()
        assert run_cli("evaluate", state, "--criteria", "bell_tsallis", "--q", "4", "--q", "15") == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in report["criteria"]] == ["bell_tsallis_q4", "bell_tsallis_q15"]

    def test_bell_tsallis_ids_name_q_exactly(self, tmp_path, capsys):
        """Each Bell-Tsallis id names its q by the shortest round-trip form:
        on phi+ the three q below got one id, bell_tsallis_q1, while their
        verdicts differ (the last is not detected). The q of the pinned and
        the benchmark reports keep their ids."""
        state = tmp_path / "phi_plus.json"
        run_cli("gen-state", "bell", "1", "--out", state)
        capsys.readouterr()
        def q_flags(q_values):
            return [a for q in q_values for a in ("--q", q)]

        close = ("1", "1.0000001", "1.0000000000001")
        assert run_cli("evaluate", state, "--criteria", "bell_tsallis", *q_flags(close), "--format", "csv") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert [row[0] for row in rows] == [f"bell_tsallis_q{q}" for q in close]
        assert [row[3] for row in rows] == ["1", "1", "0"]
        pinned = ("0.0625", "0.5", "1", "2", "3", "4", "15", "200", "999.5", "1000")
        assert run_cli("evaluate", state, "--criteria", "bell_tsallis", *q_flags(pinned)) == 0
        ids = [c["id"] for c in json.loads(capsys.readouterr().out)["criteria"]]
        assert ids == [f"bell_tsallis_q{float(q):g}" for q in pinned] == [f"bell_tsallis_q{q}" for q in pinned]
        assert criteria.bell_tsallis_criterion(states.bell_states()[0].density(), 2).criterion_id == "bell_tsallis_q2"

    def test_unknown_criterion_exits_2(self, tmp_path):
        state = tmp_path / "singlet.json"
        run_cli("gen-state", "bell", "4", "--out", state)
        assert run_cli("evaluate", state, "--criteria", "nope") == 2

    @pytest.mark.parametrize("criteria", [",", " , "])
    def test_no_criterion_exits_2(self, tmp_path, capsys, criteria):
        state = tmp_path / "singlet.json"
        run_cli("gen-state", "bell", "4", "--out", state)
        capsys.readouterr()
        assert run_cli("evaluate", state, "--criteria", criteria) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: uwit evaluate" in captured.err
        assert "argument --criteria: no criterion given" in captured.err

    def test_csv_format(self, tmp_path, capsys):
        state = tmp_path / "singlet.json"
        run_cli("gen-state", "bell", "4", "--out", state)
        capsys.readouterr()
        assert run_cli("evaluate", state, "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,value,threshold,detected"
        assert lines[-1].startswith("npt,")

    def test_unwritable_report_exits_4(self, tmp_path):
        state = tmp_path / "singlet.json"
        run_cli("gen-state", "bell", "4", "--out", state)
        assert run_cli("evaluate", state, "--out", tmp_path / "no" / "dir" / "r.json") == 4

    def test_orthogonal_product_states_not_detected(self, tmp_path, capsys):
        # |a>|a_perp> is separable with linear-witness value 0 up to roundoff
        rng = np.random.default_rng(2026)
        state = tmp_path / "product.json"
        for _ in range(200):
            alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = np.array([alpha, beta]) / np.hypot(abs(alpha), abs(beta))
            psi = np.kron(a, [-a[1].conjugate(), a[0].conjugate()])
            save_state(DensityMatrix(np.outer(psi, psi.conj()), (2, 2)), state)
            assert run_cli("evaluate", state, "--criteria", "linear_witness") == 0
            (verdict,) = json.loads(capsys.readouterr().out)["criteria"]
            assert verdict["detected"] is False

    def test_roundoff_negative_population_is_evaluated(self, tmp_path, capsys):
        # Bell populations (1 + 5e-10, -5e-10, 0, 0) are within PSD_TOL of a state
        populations = (1 + 5e-10, -5e-10, 0.0, 0.0)
        m = sum(p * s.density().matrix for p, s in zip(populations, bell_states()))
        state = tmp_path / "edge.json"
        save_state(DensityMatrix(m, (2, 2)), state)
        assert run_cli("evaluate", state, "--q", "1", "--q", "2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["npt"] is True
        by_id = {c["id"]: c["detected"] for c in report["criteria"]}
        assert by_id["bell_variance"] and by_id["bell_tsallis_q1"] and by_id["bell_tsallis_q2"]

    def test_state_at_the_hermiticity_edge_is_evaluated(self, tmp_path, capsys):
        # a Ginibre state plus eps K, K anti-Hermitian, at the last eps whose
        # defect DensityMatrix accepts: kept as given, its Tr(rho M) can have
        # an imaginary part above the tolerance, so its Hermitian part is kept
        rng = np.random.default_rng(4)
        rho = random_density_matrix((2, 2), rng).matrix
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        k = g - g.conj().T
        lo, hi = 0.0, 1.0
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if "hermitian" not in density_matrix_violations(rho + mid * k) else (lo, mid)
        m = rho + lo * k
        kept = DensityMatrix(m, (2, 2)).matrix
        assert np.array_equal(kept, kept.conj().T)
        state = tmp_path / "edge.json"
        state.write_text(json.dumps({"dims": [2, 2], "re": m.real.tolist(), "im": m.imag.tolist()}))
        assert run_cli("evaluate", state) == 0


class TestSweep:
    def test_determinism_across_runs_and_workers(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--d", "0.2", "--samples", "60", "--seed", "42",
                "--p-grid", "0,0.3,0.5,1")
        assert run_cli(*args, "--out", a, "--workers", "1") == 0
        assert run_cli(*args, "--out", b, "--workers", "2") == 0
        assert a.read_bytes() == b.read_bytes()
        assert "sweep: wrote 4 rows" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "--samples", "10", "--p-grid", "1", "--seed", "1",
                       "--format", "json", "--out", out) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["frac_npt"] == 1.0

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        out = tmp_path / "c.csv"
        monkeypatch.setenv("UWIT_SEED", "123")
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5", "--out", out) == 0
        assert out.read_text().splitlines()[1].endswith(",123")

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        out = tmp_path / "d.csv"
        monkeypatch.setenv("UWIT_SEED", "123")
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5", "--seed", "7", "--out", out) == 0
        assert out.read_text().splitlines()[1].endswith(",7")

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UWIT_SEED", "not-a-number")
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5", "--out", tmp_path / "e.csv") == 2

    def test_bad_env_seed_unread_when_not_needed(self, tmp_path, monkeypatch, capsys):
        # only a command that draws random numbers, run without --seed, reads UWIT_SEED
        state = tmp_path / "singlet.json"
        monkeypatch.setenv("UWIT_SEED", "abc")
        assert run_cli("gen-state", "bell", "4", "--out", state) == 0
        assert run_cli("gen-state", "werner", "0.5", "--out", tmp_path / "w.json") == 0
        assert run_cli("gen-state", "bell-diagonal", "-1", "-1", "-1", "--out", tmp_path / "b.json") == 0
        assert run_cli("evaluate", state) == 0
        assert run_cli("werner") == 0
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5", "--seed", "7", "--out", out) == 0
        assert out.read_text().splitlines()[1].endswith(",7")
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params", [("noisy-singlet", ("0.5", "0.2")), ("random-separable", ("2",))])
    def test_bad_env_seed_read_by_drawing_kinds(self, tmp_path, monkeypatch, capsys, kind, params):
        monkeypatch.setenv("UWIT_SEED", "abc")
        assert run_cli("gen-state", kind, *params, "--out", tmp_path / "s.json") == 2
        assert "UWIT_SEED must be an integer" in capsys.readouterr().err
        assert run_cli("gen-state", kind, *params, "--seed", "1", "--out", tmp_path / "s.json") == 0

    def test_summary_reports_the_workers_used(self, tmp_path, monkeypatch, capsys):
        # 5 samples fill one block, and the default 2000 do not repay a pool,
        # so both run in process; 20000 samples do, and the pool really starts
        started = []
        real_pool = experiments._process_pool

        def spied_pool(workers):
            started.append(workers)
            return real_pool(workers)

        monkeypatch.setattr(experiments, "_process_pool", spied_pool)
        out = tmp_path / "w.csv"
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5", "--workers", "2", "--out", out) == 0
        assert "workers=1)" in capsys.readouterr().out
        assert run_cli("sweep", "--seed", "1", "--workers", "2", "--out", out) == 0
        assert "samples=2000, seed=1, workers=1)" in capsys.readouterr().out
        assert started == []
        assert run_cli("sweep", "--samples", "20000", "--p-grid", "0.5", "--seed", "1", "--workers", "2", "--out", out) == 0
        assert "samples=20000, seed=1, workers=2)" in capsys.readouterr().out
        assert started == [2]

    @pytest.mark.parametrize("d, samples, cap, workers", [("0.2", "2000", "2", 1), ("0.5", "600", "64", 3)])
    def test_the_run_takes_the_printed_count(self, tmp_path, monkeypatch, capsys, d, samples, cap, workers):
        # the CLI decides the worker count once, before the run, and prints
        # the count it passed: in process, and one worker per block of 600
        passed = []
        real_sweep = cli.run_detection_sweep

        def spied_sweep(config, p_grid=None, workers=1):
            passed.append(workers)
            return real_sweep(config, p_grid, workers=workers)

        monkeypatch.setattr(cli, "run_detection_sweep", spied_sweep)
        argv = ("sweep", "--d", d, "--samples", samples, "--p-grid", "0.5", "--workers", cap, "--seed", "1")
        assert run_cli(*argv, "--out", tmp_path / "w.csv") == 0
        assert passed == [workers]
        assert f"workers={workers})" in capsys.readouterr().out

    def test_bad_grid_exits_2(self, tmp_path):
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5,2", "--out", tmp_path / "f.csv") == 2

    def test_unwritable_output_exits_4(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5", "--out", missing) == 4

    def test_sampler_overflow_exits_2(self, tmp_path, monkeypatch, capsys):
        def give_up(d, rng):
            raise RejectionOverflowError(f"no positive-semidefinite draw (d={d} too large)")

        monkeypatch.setattr(states, "_draw_noise_matrix", give_up)
        out = tmp_path / "g.csv"
        # an explicit seed, so that the environment cannot decide whether a
        # first candidate is rejected and the patched fallback runs
        argv = ("sweep", "--d", "0.45", "--samples", "5", "--workers", "1", "--seed", "1")
        assert run_cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "d=0.45" in err and "Traceback" not in err
        assert not out.exists()

    def test_numerical_defect_exits_5(self, tmp_path, monkeypatch, capsys):
        # a witness firing without the nonlinear witness breaks the inclusion chain
        def broken_sweep_flags(sigma, p_grid):
            shape = (len(sigma), len(p_grid))
            return np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)

        # both the sweep and the Werner check decide through _sweep_flags
        monkeypatch.setattr(experiments, "_sweep_flags", broken_sweep_flags)
        out = tmp_path / "h.csv"
        assert run_cli("sweep", "--samples", "5", "--p-grid", "0.5", "--workers", "1", "--out", out) == 5
        # the witness flag is on just below its closed-form weight, so the check fails
        assert run_cli("werner") == 5
        err = capsys.readouterr().err
        assert err.count("error: ") == 2 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("driver", ["eigh", "eigvalsh"])
    def test_eigensolver_failure_exits_5(self, tmp_path, monkeypatch, capsys, driver, workers):
        # the sweep decides PSD of its noise candidates by eigvalsh and
        # decomposes each block's partial transposes by eigh, and builds no
        # Observable, so the failing call is the sweep's own; at d = 0.5 two
        # workers run the 600 samples pooled, in forked workers that inherit
        # the failing driver
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, driver, fail)
        out = tmp_path / "e.csv"
        argv = ("sweep", "--d", "0.5", "--samples", "600", "--p-grid", "0,1", "--workers", workers)
        assert run_cli(*argv, "--out", out) == 5
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "did not converge" in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        # "," parses to an empty grid, which must not fall back to the default one
        out = tmp_path / "empty.csv"
        assert run_cli("sweep", "--p-grid", ",", "--samples", "3", "--workers", "1", "--out", out) == 2
        err = capsys.readouterr().err
        assert "p grid" in err and "Traceback" not in err
        assert not out.exists()

    def test_ppt_white_noise_above_one_third_exits_0(self, tmp_path):
        # at p = 0.333333334 the witness values are -2e-9 while the partial
        # transpose's least eigenvalue, -5e-10, is above NPT_THRESHOLD: the
        # state is PPT, so neither witness may fire
        out = tmp_path / "w.csv"
        argv = ("sweep", "--d", "0", "--samples", "3", "--p-grid", "0.333333334", "--workers", "1")
        assert run_cli(*argv, "--seed", "42", "--out", out) == 0
        assert out.read_text().splitlines()[1] == "0.333333334,0,0,0,3,42"


class TestGeometry:
    def test_row_count(self, tmp_path, capsys):
        out = tmp_path / "geometry.csv"
        assert run_cli("geometry", "--resolution", "5", "--q", "2", "--q", "4", "--out", out) == 0
        assert len(out.read_text().splitlines()) == 1 + 5**3 * 2
        assert "geometry: wrote 250 rows" in capsys.readouterr().out

    def test_bad_resolution_exits_2(self, tmp_path):
        assert run_cli("geometry", "--resolution", "1", "--out", tmp_path / "g.csv") == 2

    def test_unallocatable_resolution_exits_2(self, tmp_path, capsys):
        # 10**18 cells: numpy refuses the first grid array before touching memory
        out = tmp_path / "g.csv"
        assert run_cli("geometry", "--resolution", str(10**6), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: resolution 1000000 ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("resolution", [3_000_000, 10**19])
    def test_oversized_resolution_exits_2(self, tmp_path, capsys, resolution):
        # 2**63 cells or more: numpy refuses the first flag array's size with
        # a ValueError, before anything is allocated
        out = tmp_path / "g.csv"
        assert run_cli("geometry", "--resolution", str(resolution), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: resolution {resolution} needs too much memory") and err.count("\n") == 1
        assert not out.exists()


class TestDefaultOut:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (("sweep", "--samples", "5", "--p-grid", "0.5"), "sweep.csv"),
            (("sweep", "--samples", "5", "--p-grid", "0.5", "--format", "json"), "sweep.json"),
            (("geometry", "--resolution", "3"), "geometry.csv"),
            (("geometry", "--resolution", "3", "--format", "json"), "geometry.json"),
        ],
    )
    def test_default_out_follows_format(self, tmp_path, monkeypatch, capsys, argv, name):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == [name]
        if name.endswith(".json"):
            json.loads((tmp_path / name).read_text())
        assert f"rows to {name} " in capsys.readouterr().out


class TestWerner:
    def test_prints_thirds(self, capsys):
        assert run_cli("werner") == 0
        out = capsys.readouterr().out
        assert out.count("0.333333") == 3

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "werner.json"
        assert run_cli("werner", "--out", out) == 0
        payload = json.loads(out.read_text())
        for key in ("witness", "lur", "npt"):
            assert abs(payload[key] - 1 / 3) <= 1e-6


class TestJsonReport:
    def test_template_prints_what_json_dumps_prints(self):
        """The evaluate report's template against json.dumps(indent=2), the
        oracle, over generated lists of finite verdicts (every number a
        report holds is finite: test_report_numbers_are_finite)."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)
        q_text = st.sampled_from([0.5, 1e-05, 200.0, 1.0, 3.0]) | st.floats(min_value=1e-300, max_value=1e300)
        ids = st.sampled_from(CRITERION_CHOICES) | q_text.map(lambda q: f"bell_tsallis_q{q:g}")
        verdict = st.builds(criteria.CriterionVerdict, finite, finite, st.booleans(), ids)
        edge = [criteria.CriterionVerdict(v, 4.0, v < 0, "pauli_lur") for v in (-0.0, 5e-324, 1e308, 4.0)]

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
        @hypothesis.given(st.lists(verdict, min_size=1, max_size=9), st.booleans(), finite)
        @hypothesis.example(edge, False, -0.0)
        @hypothesis.example(edge, True, -5e-324)
        def check(verdicts, npt, min_pt):
            report = {
                "dims": [2, 2],
                "criteria": [
                    {"id": v.criterion_id, "value": v.value, "threshold": v.threshold, "detected": v.detected}
                    for v in verdicts
                ],
                "npt": npt,
                "min_pt_eigenvalue": min_pt,
            }
            assert cli._json_text((2, 2), verdicts, npt, min_pt) == json.dumps(report, indent=2) + "\n"

        check()

    def test_report_numbers_are_finite(self):
        """Every value, threshold and least partial-transpose eigenvalue that
        evaluate reports is finite, over Ginibre, random separable and noisy
        singlet states, |00> and |01>, at q across the accepted range: the
        template needs no fallback for a NaN or an infinity. A drawn q above
        BELL_Q_MAX is refused, not decided."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        seeds = st.integers(0, 2**32 - 1)
        product = [PureState(np.eye(4)[k], (2, 2)).density() for k in (0, 1)]
        state = st.one_of(
            seeds.map(lambda s: random_density_matrix((2, 2), np.random.default_rng(s))),
            st.builds(lambda k, s: random_separable_state(k, np.random.default_rng(s)), st.integers(1, 6), seeds),
            st.builds(
                lambda p, d, s: noisy_singlet(p, sample_noise_ball(d, np.random.default_rng(s))),
                st.floats(0.0, 1.0),
                st.floats(0.0, 0.5),
                seeds,
            ),
            st.sampled_from(product),
        )
        edges = [1e-300, 1e300, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 200.0, 1000.0, 1000.5]
        q = st.sampled_from(edges) | st.floats(min_value=1e-300, max_value=1e300)

        def refuse(constant):
            raise AssertionError(f"the report holds {constant}")

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
        @hypothesis.given(state, st.lists(q, min_size=1, max_size=4))
        @hypothesis.example(product[0], edges)
        @hypothesis.example(product[1], edges)
        def check(rho, q_values):
            accepted = [q for q in q_values if q <= criteria.BELL_Q_MAX]
            for q in set(q_values) - set(accepted):
                with pytest.raises(InvalidParameterError):
                    criteria.bell_tsallis_criterion(rho, q)
            verdicts = [v for name in CRITERION_CHOICES for v in criteria._CRITERIA[name](rho, accepted)]
            npt, min_pt = is_npt(rho)
            numbers = [min_pt, *(x for v in verdicts for x in (v.value, v.threshold))]
            assert all(map(math.isfinite, numbers)), verdicts
            json.loads(cli._json_text(rho.dims, verdicts, npt, min_pt), parse_constant=refuse)

        check()


class TestPinnedOutputs:
    """sha256 of outputs whose bytes must not move when the criterion
    kernels are reorganized; a deliberate change of output updates them."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("werner",), "be169002cb47843f0c7b7ea796207b1b3dd991297b013ed7df78eed1e7f7dceb"),
            (
                ("sweep", "--d", "0.2", "--samples", "200", "--seed", "7", "--workers", "1"),
                "d939f2fea3397b1c37512a9f76d5fbadf735e0fd1c10e6c52fddc9b584291a29",
            ),
            (
                ("geometry", "--resolution", "9", "--q", "1"),
                "3e01e9fc808c1499f40b2a9d1168d09aa4a929fb2c758fff237e0a4bd2fd3c2d",
            ),
            (
                ("evaluate", "STATE"),
                "59aa9619e7e086c7f5939620c447c90c378e007f277203b25477ac12f542ed85",
            ),
            (
                ("evaluate", "STATE", "--format", "csv"),
                "a196f9738d30acada07c36be1e6243243b4fc3a2f8a58cc49f40058766d1ac7b",
            ),
            (
                ("geometry", "--format", "json", "--resolution", "5"),
                "d63ba4833e5540004a0ad02581b85717890ad2a8e36d879f7aacb13a26478b35",
            ),
            (
                ("sweep", "--samples", "200", "--seed", "7", "--workers", "1", "--format", "json"),
                "f7ebacc58646d731ddc282282446765d80eba48673a7b0a274e0c16f5a2c7995",
            ),
            (
                # a repeated q gives one row per listed q, not per distinct q
                ("geometry", "--resolution", "11", "--q", "2", "--q", "2", "--q", "0.5"),
                "3e7f443bbf5795a1d8bab029dce9a880c2369f195369f2a38b17d65775890dc2",
            ),
            (
                ("geometry", "--resolution", "31"),
                "248e1559b7988a82cdbd5932f383c029c58b76f2090ad8f3a2ff339af35902c5",
            ),
            (
                ("geometry", "--format", "json", "--resolution", "13", "--q", "1", "--q", "200"),
                "48d0b0e810fd8229ba28e0a8e6438519a6f70022142ee4e4379355851ca585db",
            ),
            (
                # outside the separable ball: rejected first candidates are
                # redrawn, and NPT noise sends pairs to the per-p kernel
                ("sweep", "--d", "0.5", "--samples", "250", "--p-grid", "0,0.2,0.4,0.6,0.8,1")
                + ("--workers", "1", "--seed", "3"),
                "0824d8d52c029f738423529e18b099bec6a15e963ebda83159c5f262b09952b0",
            ),
            (
                # just inside the separable ball, with 1/3 on the grid
                ("sweep", "--d", "0.2886", "--samples", "500", "--p-grid", "0,0.1,0.3333333333333333,0.5,1")
                + ("--workers", "2", "--seed", "11", "--format", "json"),
                "f87c93edf43da55485de8bc2051fd4fdc874c17d36e5ed9315e8e6d548c8dd3b",
            ),
            (
                # the two outputs the geometry benchmark writes (CSV 47 MB)
                ("geometry", "--resolution", "71", "--q", "2", "--q", "4", "--q", "15"),
                "3a9addb7c8b921727f4384f74879ad9e3a0cbc56020ff9278f8319897834ee7f",
            ),
            (
                ("geometry", "--resolution", "31", "--q", "2", "--q", "4", "--q", "15", "--format", "json"),
                "adc100e841f2700c8b8f12eed6b6c98c13b6ec599a9a90029c1c863a134f61db",
            ),
            (
                # the evaluate-states benchmark's argv
                ("evaluate", "STATE", "--q", "2", "--q", "4", "--q", "15"),
                "78469945516b591daf6d61256a2b806882baefa9288fcb4d360cd0714691efc4",
            ),
            (
                ("evaluate", "SEP", "--q", "2", "--q", "4", "--q", "15"),
                "9abe638266c02a8cb639f974dfc7b2a3c6cbe4329fc4d72cf348886a5992b242",
            ),
            (
                ("evaluate", "STATE", "--q", "0.5", "--q", "1", "--q", "2", "--q", "200"),
                "43ee530a7e6885dbfc45f0373ec6bb8ba28b8b0eb1e1193b3b56e745c769d1dd",
            ),
            (
                ("evaluate", "SEP", "--q", "0.5", "--q", "1", "--q", "2", "--q", "200"),
                "409324401ff98a674be85a56fddc70e14b86bf6a650c1d19d8570ed8cb06096e",
            ),
            (
                ("evaluate", "STATE", "--criteria", "bell_tsallis,linear_witness", "--q", "3"),
                "16f71bc0c69708ed9f18878425fc056efff94ae2bfb590443e81da105cc8ea03",
            ),
            (
                ("evaluate", "SEP", "--criteria", "bell_tsallis,linear_witness", "--q", "3"),
                "fc717372838e8220e62399d3f9caf10880f1ec26397e4edab33fb07a1d562137",
            ),
            # state files: the Bell 2 and Bell 4 projectors hold mirrored
            # signed zeros, which DensityMatrix's (m + m^dagger)/2 normalizes
            (("gen-state", "bell", "1"), "c0c1b0b80c0735b6b6e814b28a87e37b7067b9b47d1575bedde6e12716665946"),
            (("gen-state", "bell", "2"), "e7d0c10d4e71eba84bb3c5e0338325f975485abb9792cd15ee71fa55f51649de"),
            (("gen-state", "bell", "3"), "c725748bb95f64c3d23899266deab2e79910e16ecaf34b1a7deaa3c65041cb41"),
            (("gen-state", "bell", "4"), "b36b08883a13e562985074b88ad09ebe7901cdae9a99cbb60690ee3acc324d08"),
            (("gen-state", "werner", "0.5"), "6644befe42fb1862078960c3d6f5b67f8aa76cce3152290c805822c0ba4087e4"),
            (
                ("gen-state", "bell-diagonal", "-0.5", "0.2", "-0.1"),
                "1f4b7880d8b06e183259970a5ae406d4e139238f18c59f724c00ed4e2b8957ca",
            ),
        ],
    )
    def test_output_digest(self, tmp_path, capsys, argv, digest):
        # STATE is a seeded noisy singlet, SEP a seeded random separable state
        state = tmp_path / "noisy.json"
        if "STATE" in argv:
            assert run_cli("gen-state", "noisy-singlet", "0.9", "0.2", "--seed", "5", "--out", state) == 0
        separable = tmp_path / "separable.json"
        if "SEP" in argv:
            assert run_cli("gen-state", "random-separable", "3", "--seed", "11", "--out", separable) == 0
        out = tmp_path / "out"
        argv = [separable if a == "SEP" else a for a in with_state(argv, state)]
        assert run_cli(*argv, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestGenState:
    def test_werner_below_threshold_is_undetected(self, tmp_path, capsys):
        state = tmp_path / "werner.json"
        assert run_cli("gen-state", "werner", "0.2", "--out", state) == 0
        capsys.readouterr()
        assert run_cli("evaluate", state) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["npt"] is False
        assert not any(c["detected"] for c in report["criteria"])

    def test_noisy_singlet_round_trips(self, tmp_path, capsys):
        state = tmp_path / "noisy.json"
        assert run_cli("gen-state", "noisy-singlet", "0.9", "0.2", "--seed", "5", "--out", state) == 0
        capsys.readouterr()
        assert run_cli("evaluate", state) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["npt"] is True

    def test_random_separable_round_trips(self, tmp_path, capsys):
        state = tmp_path / "sep.json"
        assert run_cli("gen-state", "random-separable", "3", "--seed", "11", "--out", state) == 0
        capsys.readouterr()
        assert run_cli("evaluate", state) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["npt"] is False
        assert not any(c["detected"] for c in report["criteria"])

    def test_bell_diagonal_outside_tetrahedron_exits_2(self, tmp_path):
        assert run_cli("gen-state", "bell-diagonal", "1", "1", "1", "--out", tmp_path / "x.json") == 2

    def test_bell_diagonal_valid(self, tmp_path, capsys):
        state = tmp_path / "bd.json"
        assert run_cli("gen-state", "bell-diagonal", "-0.9", "-0.9", "-0.9", "--out", state) == 0
        capsys.readouterr()
        assert run_cli("evaluate", state) == 0
        assert json.loads(capsys.readouterr().out)["npt"] is True

    def test_bad_bell_index_exits_2(self, tmp_path):
        assert run_cli("gen-state", "bell", "5", "--out", tmp_path / "x.json") == 2

    def test_bad_weight_exits_2(self, tmp_path):
        assert run_cli("gen-state", "werner", "1.5", "--out", tmp_path / "x.json") == 2

    def test_noise_radius_out_of_range_exits_2(self, tmp_path):
        assert run_cli("gen-state", "noisy-singlet", "0.5", "0.95", "--out", tmp_path / "x.json") == 2

    def test_wrong_arity_exits_2(self, tmp_path):
        assert run_cli("gen-state", "werner", "--out", tmp_path / "x.json") == 2


class TestParameterBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-state", "bell", "nan"),
            ("gen-state", "bell", "inf"),
            ("gen-state", "random-separable", "nan"),
            ("gen-state", "random-separable", "inf"),
            ("gen-state", "random-separable", str(states._MAX_SEPARABLE_COMPONENTS + 1)),
            ("evaluate", "STATE", "--q", "nan"),
            ("evaluate", "STATE", "--q", "inf"),
            ("geometry", "--resolution", "3", "--q", "nan"),
            ("geometry", "--resolution", "3", "--q", "inf"),
            ("evaluate", "STATE", "--q", "1000.5"),
            ("evaluate", "STATE", "--q", "2", "--q", "2000"),
            ("evaluate", "STATE", "--q", "1e300"),
            ("geometry", "--resolution", "3", "--q", "1000.5"),
            ("geometry", "--resolution", "3", "--q", "2000"),
            ("geometry", "--resolution", "3", "--q", "1e300"),
            ("sweep", "--samples", "5", "--p-grid", "abc"),
            ("sweep", "--samples", "5", "--p-grid", "nan"),
            ("sweep", "--samples", "5", "--p-grid", "0.5,inf"),
            ("sweep", "--samples", "5", "--workers", "0"),
            ("sweep", "--samples", "5", "--workers", "-3"),
        ],
    )
    def test_nonfinite_or_malformed_parameter_exits_2(self, tmp_path, capsys, argv):
        state = tmp_path / "singlet.json"
        assert run_cli("gen-state", "bell", "4", "--out", state) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(*with_state(argv, state), "--out", out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [("evaluate", "STATE", "--q", "1000"), ("geometry", "--resolution", "3", "--q", "1000")]
    )
    def test_q_at_the_bell_bound_exits_0(self, tmp_path, capsys, argv):
        state = tmp_path / "singlet.json"
        assert run_cli("gen-state", "bell", "4", "--out", state) == 0
        out = tmp_path / "out"
        assert run_cli(*with_state(argv, state), "--out", out) == 0
        assert "1000" in out.read_text()

    @pytest.mark.parametrize("command", [("evaluate", "STATE"), ("geometry", "--resolution", "3")])
    def test_q_above_the_bell_bound_is_a_usage_error(self, tmp_path, capsys, command):
        state = tmp_path / "singlet.json"
        assert run_cli("gen-state", "bell", "4", "--out", state) == 0
        capsys.readouterr()
        assert run_cli(*with_state(command, state), "--q", "2000") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uwit ") and "--q: invalid q in (0, 1000] value: '2000'" in err

    @pytest.mark.parametrize(
        "error, code",
        [
            (InvalidParameterError("bad"), 2),
            (StateInvariantError(["unit_trace"]), 3),
            (NumericalDefectError("bad"), 5),
            (ConvergenceError("bad"), 5),
        ],
    )
    def test_exit_code_table(self, monkeypatch, capsys, error, code):
        def fail():
            raise error

        monkeypatch.setattr(cli, "werner_thresholds", fail)
        assert run_cli("werner") == code
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("driver", ["eigh", "eigvalsh"])
    def test_eigensolver_failure_exits_5(self, tmp_path, monkeypatch, capsys, driver):
        """evaluate validates its state by eigvalsh and decides NPT by eigh;
        gen-state werner only validates, so it runs with eigvalsh failing."""
        state = tmp_path / "singlet.json"
        assert run_cli("gen-state", "bell", "4", "--out", state) == 0
        capsys.readouterr()

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, driver, fail)
        werner = tmp_path / "werner.json"
        argvs = [("evaluate", state)] + [("gen-state", "werner", "0.5", "--out", werner)] * (driver == "eigvalsh")
        for argv in argvs:
            assert run_cli(*argv) == 5
            captured = capsys.readouterr()
            assert captured.err.startswith("error: eigendecomposition did not converge") and captured.err.count("\n") == 1
            assert captured.out == ""
        assert not werner.exists()

    def test_bare_value_error_is_a_bug_and_propagates(self, monkeypatch):
        def fail():
            raise ValueError("not a uwit error")

        monkeypatch.setattr(cli, "werner_thresholds", fail)
        with pytest.raises(ValueError):
            run_cli("werner")


def run_python(*args, env=None, stdout=subprocess.PIPE):
    """A fresh interpreter that imports uwit from this checkout, installed or
    not, in ``env`` (default this process's environment), with its standard
    error captured and its standard output too, unless ``stdout`` is given."""
    env = os.environ if env is None else env
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**env, "PYTHONPATH": pythonpath},
    )


# the package's public names by submodule
PUBLIC_NAMES = {
    "errors": [
        "ConvergenceError", "DegenerateObservableError", "DimensionMismatchError",
        "InvalidParameterError", "InvalidWeightError", "NotHermitianError", "NotPositiveError",
        "NumericalDefectError", "RejectionOverflowError", "StateFormatError",
        "StateInvariantError", "UwitError",
    ],
    "linalg": [
        "ID2", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "expectation", "hermitian_eigen",
        "kron", "partial_transpose",
    ],
    "states": [
        "BellDiagonalCoords", "DensityMatrix", "NoiseBallConfig", "PureState",
        "bell_diagonal_state", "bell_populations_from_coords", "bell_state", "bell_states",
        "coords_of", "in_state_tetrahedron", "in_witness_octahedron", "is_npt", "load_state",
        "maximally_mixed", "noise_rng", "noisy_singlet", "random_density_matrix",
        "random_product_state", "random_separable_state", "sample_noise_ball", "save_state",
        "singlet_projector", "werner_state",
    ],
    "criteria": [
        "CriterionVerdict", "Observable", "bell_populations", "bell_tsallis_criterion",
        "bell_variance_criterion", "entropic_sum_criterion", "linear_witness_value",
        "lur_value", "maassen_bound", "measurement_distribution", "nonlinear_witness_value",
        "pauli_lur", "schmidt_entropy_bound", "shannon_entropy", "tsallis_entropy", "variance",
    ],
    "experiments": [
        "DetectionRow", "GeometryScan", "WernerThresholds", "default_p_grid",
        "evaluate_detection_flags", "run_detection_sweep", "run_geometry_scan",
        "werner_thresholds", "write_detection_csv", "write_geometry_csv",
    ],
}  # fmt: skip


class TestParser:
    def test_unknown_flag_exits_2(self):
        assert run_cli("sweep", "--frobnicate") == 2

    def test_module_entry_point(self, tmp_path):
        state = tmp_path / "singlet.json"
        result = run_python("-m", "uwit", "gen-state", "bell", "4", "--out", str(state))
        assert result.returncode == 0 and state.exists()

    def test_import_leaves_process_pool_out(self):
        # only a pooled sweep imports the pool module
        code = "import sys, uwit, uwit.cli; print('concurrent.futures.process' in sys.modules)"
        result = run_python("-c", code)
        assert result.returncode == 0 and result.stdout == "False\n"

    def test_import_loads_nothing(self):
        # the package is lazy: importing it, or reading an error class,
        # loads no numpy and leaves the environment as it was
        code = (
            "import os, sys; env = dict(os.environ); import uwit; a = 'numpy' in sys.modules; "
            "uwit.UwitError; print(a, 'numpy' in sys.modules, dict(os.environ) == env)"
        )
        result = run_python("-c", code)
        assert result.returncode == 0 and result.stdout == "False False True\n"

    def test_public_names(self):
        assert uwit.__all__ == sorted([*PUBLIC_NAMES, *(n for names in PUBLIC_NAMES.values() for n in names)])
        for module, names in PUBLIC_NAMES.items():
            submodule = importlib.import_module(f"uwit.{module}")
            assert getattr(uwit, module) is submodule
            for name in names:
                assert getattr(uwit, name) is getattr(submodule, name), name
        assert set(uwit.__all__) <= set(dir(uwit))
        with pytest.raises(AttributeError):
            uwit.no_such_name

    @pytest.mark.parametrize("preset", [None, "3"])
    @pytest.mark.parametrize("entry", ["python -m uwit", "uwit script"])
    def test_entry_point_pins_openblas_threads(self, entry, preset):
        # one OpenBLAS thread unless the caller chose a count, set before
        # numpy loads: the hook prints the value numpy's import sees
        if entry == "python -m uwit":
            run = "import runpy; runpy.run_module('uwit', run_name='__main__')"
        else:  # the function [project.scripts] names
            tomllib = pytest.importorskip("tomllib")
            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            module, func = tomllib.loads(pyproject.read_text())["project"]["scripts"]["uwit"].split(":")
            run = f"import {module}; sys.exit({module}.{func}())"
        code = (
            "import os, sys\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0] == 'numpy' and 'numpy' not in sys.modules:\n"
            "        print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.addaudithook(hook)\n"
            "sys.argv = ['uwit', '--version']\n" + run
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        result = run_python("-c", code, env=env)
        assert result.returncode == 0
        assert result.stdout.splitlines() == [preset or "1", f"uwit {uwit.__version__}"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("werner",), 0),
            (("evaluate", "STATE", "--q", "0.5", "--q", "200"), 0),
            (("sweep", "--frobnicate"), 2),
            (("evaluate", "BAD"), 3),
            (("werner", "--out", "MISSING/werner.txt"), 4),
        ],
    )
    def test_module_exit_keeps_codes_and_output(self, tmp_path, capsys, argv, code):
        # the command ends without interpreter teardown once its streams are
        # flushed: the exit code and every printed byte are as in process
        state, bad = tmp_path / "noisy.json", tmp_path / "bad.json"
        assert run_cli("gen-state", "noisy-singlet", "0.9", "0.2", "--seed", "5", "--out", state) == 0
        bad.write_text(json.dumps({"dims": [2, 2], "re": (0.5 * np.eye(4)).tolist(), "im": np.zeros((4, 4)).tolist()}))
        replace = {"STATE": str(state), "BAD": str(bad), "MISSING/werner.txt": str(tmp_path / "missing" / "w.txt")}
        argv = [replace.get(a, a) for a in argv]
        capsys.readouterr()
        assert run_cli(*argv) == code
        expected = capsys.readouterr()
        buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        result = run_python("-m", "uwit", *argv, env=buffered)
        assert (result.returncode, result.stdout, result.stderr) == (code, expected.out, expected.err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--samples", "20000", "--seed", "3", "--workers", "2"),
            ("geometry", "--resolution", "31", "--format", "json"),
            ("evaluate", "STATE", "--q", "0.5", "--q", "1", "--q", "200"),
        ],
    )
    def test_openblas_thread_count_moves_no_byte(self, tmp_path, argv):
        state = tmp_path / "noisy.json"
        assert run_cli("gen-state", "noisy-singlet", "0.9", "0.2", "--seed", "5", "--out", state) == 0
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            result = run_python("-m", "uwit", *with_state(argv, str(state)), "--out", str(out), env=env)
            assert result.returncode == 0, result.stderr
            if argv[0] == "sweep":
                assert "workers=2)" in result.stdout  # the pooled path
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# each command that prints to standard output, with "STATE" a state file and
# "OUT" an output path
PRINTING_COMMANDS = {
    "evaluate": ("evaluate", "STATE", "--q", "2", "--q", "200"),
    "sweep": ("sweep", "--samples", "20", "--seed", "1", "--workers", "1", "--out", "OUT"),
    "geometry": ("geometry", "--resolution", "5", "--out", "OUT"),
    "werner": ("werner",),
    "gen-state": ("gen-state", "bell", "4", "--out", "OUT"),
    # argparse prints these itself, and drops a failed write
    "help": ("evaluate", "--help"),
    "version": ("--version",),
}


def printing_argv(tmp_path, command) -> list[str]:
    state = tmp_path / "noisy.json"
    assert run_cli("gen-state", "noisy-singlet", "0.9", "0.2", "--seed", "5", "--out", state) == 0
    replace = {"STATE": str(state), "OUT": str(tmp_path / "out")}
    return [replace.get(a, a) for a in PRINTING_COMMANDS[command]]


class FailingStdout:
    """A standard output whose ``write`` or ``flush`` fails as a full disk does."""

    def __init__(self, failing: str):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


def assert_one_stdout_error(err: str):
    assert err.startswith("error: cannot write standard output: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestStdoutFailure:
    """A failed write to standard output is exit 4 with one error line, as
    an unwritable --out path is, in process and through the entry point."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("command", sorted(PRINTING_COMMANDS))
    def test_in_process(self, tmp_path, capsys, command, failing):
        argv = printing_argv(tmp_path, command)
        capsys.readouterr()
        with mock.patch.object(sys, "stdout", FailingStdout(failing)):
            assert run_cli(*argv) == 4
        assert_one_stdout_error(capsys.readouterr().err)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("command", sorted(PRINTING_COMMANDS))
    def test_dev_full(self, tmp_path, command, buffered):
        # unbuffered, the write fails; buffered, the final flush does
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            result = run_python("-m", "uwit", *printing_argv(tmp_path, command), env=env, stdout=full)
        assert result.returncode == 4
        assert_one_stdout_error(result.stderr)


@pytest.fixture
def fresh_parser():
    """main's shared parser, dropped before and after the test."""
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


@pytest.fixture
def singlet(tmp_path):
    state = tmp_path / "singlet.json"
    save_state(bell_states()[3].density(), state)
    return state


class TestSharedParser:
    """main reuses one parser per process; no call may leak into the next."""

    def test_flags_do_not_leak_into_next_call(self, fresh_parser, singlet, capsys):
        assert run_cli("evaluate", singlet) == 0
        first = capsys.readouterr().out
        assert run_cli("evaluate", singlet, "--q", "4", "--format", "csv") == 0
        assert "bell_tsallis_q4" in capsys.readouterr().out
        assert run_cli("evaluate", singlet) == 0
        again = capsys.readouterr().out
        assert again == first
        ids = [c["id"] for c in json.loads(again)["criteria"]]
        assert [i for i in ids if i.startswith("bell_tsallis")] == ["bell_tsallis_q2"]

    def test_criteria_selection_does_not_leak(self, fresh_parser, singlet, capsys):
        assert run_cli("evaluate", singlet, "--criteria", "pauli_lur") == 0
        assert [c["id"] for c in json.loads(capsys.readouterr().out)["criteria"]] == ["pauli_lur"]
        assert run_cli("evaluate", singlet) == 0
        ids = [c["id"] for c in json.loads(capsys.readouterr().out)["criteria"]]
        assert ids == ["linear_witness", "nonlinear_witness", "pauli_lur", "bell_variance", "bell_tsallis_q2"]

    def test_usage_error_then_valid_call(self, fresh_parser, singlet, capsys):
        assert run_cli("evaluate", singlet) == 0
        first = capsys.readouterr().out
        assert run_cli("evaluate", singlet, "--format", "xml") == 2
        assert "usage: uwit evaluate" in capsys.readouterr().err
        assert run_cli("evaluate", singlet) == 0
        assert capsys.readouterr().out == first

    def test_version_then_valid_call(self, fresh_parser, singlet, capsys):
        assert run_cli("--version") == 0
        assert capsys.readouterr().out == f"uwit {uwit.__version__}\n"
        assert run_cli("evaluate", singlet, "--format", "csv") == 0
        assert capsys.readouterr().out.startswith("id,value,threshold,detected\n")

    def test_env_seed_after_flag_seed(self, fresh_parser, tmp_path, monkeypatch):
        monkeypatch.setenv("UWIT_SEED", "123")
        argv = ("sweep", "--samples", "5", "--p-grid", "0.5", "--workers", "1")
        assert run_cli(*argv, "--seed", "7", "--out", tmp_path / "a.csv") == 0
        assert run_cli(*argv, "--out", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_text().splitlines()[1].endswith(",7")
        assert (tmp_path / "b.csv").read_text().splitlines()[1].endswith(",123")

    def test_parser_built_once(self, fresh_parser, singlet, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for argv in (("evaluate", singlet), ("evaluate", singlet, "--q", "nan"), ("--version",)):
            run_cli(*argv)
        assert len(built) == 1

    def test_changing_a_built_parser_leaves_main_alone(self, fresh_parser, capsys):
        assert cli.build_parser() is not cli.build_parser()
        parser = cli.build_parser()
        parser.add_argument("--extra", action="store_true")
        assert parser.parse_args(["--extra", "werner"]).extra
        assert run_cli("--extra", "werner") == 2
        assert "unrecognized arguments: --extra" in capsys.readouterr().err
