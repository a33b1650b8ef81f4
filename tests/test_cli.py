import hashlib
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
from uwit.linalg import HERMITICITY_TOL, hermiticity_defect
from uwit.states import (
    DensityMatrix,
    bell_states,
    is_npt,
    maximally_mixed,
    random_density_matrix,
    save_state,
    werner_state,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


def with_state(argv, state):
    """``argv`` with the placeholder "STATE" replaced by ``state``."""
    return [state if a == "STATE" else a for a in argv]


def count_calls(monkeypatch, module, names) -> dict:
    """Calls of ``module``'s functions ``names``, counted wherever a uwit
    module holds them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for holder in (uwit, uwit.linalg, states, criteria, experiments):
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
        make the only expectation call, which checks rho and the basis once
        each; the state's validation and is_npt make the other two
        Hermiticity checks."""
        state = tmp_path / "ginibre.json"
        save_state(random_density_matrix((2, 2), np.random.default_rng(31)), state)
        calls = count_calls(monkeypatch, uwit.linalg, ("expectation", "hermiticity_defect"))
        assert run_cli("evaluate", state, "--q", "2", "--q", "4", "--q", "15") == 0
        assert len(json.loads(capsys.readouterr().out)["criteria"]) == 7
        assert calls["expectation"] <= 1 and calls["hermiticity_defect"] <= 4, calls

    @pytest.mark.parametrize("q_args", [(), ("--q", "2"), ("--q", "0.5", "--q", "1", "--q", "2", "--q", "200")])
    def test_derived_values_are_computed_once(self, tmp_path, monkeypatch, capsys, q_args):
        """One evaluate makes one expectation call (the Pauli values), one
        witness-kernel call and one Bell-column call, whatever the q list."""
        state = tmp_path / "ginibre.json"
        save_state(random_density_matrix((2, 2), np.random.default_rng(32)), state)
        calls = count_calls(monkeypatch, states, ("expectation", "_witness_values", "_bell_columns"))
        assert run_cli("evaluate", state, *q_args) == 0
        assert len(json.loads(capsys.readouterr().out)["criteria"]) == 4 + max(1, len(q_args) // 2)
        assert calls == {"expectation": 1, "_witness_values": 1, "_bell_columns": 1}

    def test_malformed_file_exits_2(self, tmp_path):
        state = tmp_path / "broken.json"
        state.write_text("{oops")
        assert run_cli("evaluate", state) == 2

    def test_wrong_dims_exit_2(self, tmp_path):
        state = tmp_path / "qutrit.json"
        m = np.eye(6) / 6
        payload = {"dims": [2, 3], "re": m.tolist(), "im": np.zeros((6, 6)).tolist()}
        state.write_text(json.dumps(payload))
        assert run_cli("evaluate", state) == 2

    def test_criteria_selection_and_q(self, tmp_path, capsys):
        state = tmp_path / "singlet.json"
        run_cli("gen-state", "bell", "4", "--out", state)
        capsys.readouterr()
        assert run_cli("evaluate", state, "--criteria", "bell_tsallis", "--q", "4", "--q", "15") == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in report["criteria"]] == ["bell_tsallis_q4", "bell_tsallis_q15"]

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
            lo, hi = (mid, hi) if hermiticity_defect(rho + mid * k) <= HERMITICITY_TOL else (lo, mid)
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
        # so both run in process; 5000 samples do, and the pool really starts
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
        assert run_cli("sweep", "--samples", "5000", "--p-grid", "0.5", "--seed", "1", "--workers", "2", "--out", out) == 0
        assert "samples=5000, seed=1, workers=2)" in capsys.readouterr().out
        assert started == [2]

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

    def test_eigensolver_failure_exits_5(self, tmp_path, monkeypatch, capsys):
        # the sweep's one eigendecomposition per block goes through
        # hermitian_eigen; the cached collective Paulis are built first, so
        # that the failure comes from the sweep's own call
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        criteria.collective_paulis()
        monkeypatch.setattr(np.linalg, "eigh", fail)
        out = tmp_path / "e.csv"
        assert run_cli("sweep", "--workers", "1", "--samples", "20", "--out", out) == 5
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
        oracle, over generated verdict lists; a NaN or an infinity takes
        json.dumps itself."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        q_text = st.sampled_from([0.5, 1e-05, 200.0, 1.0, 3.0]) | st.floats(min_value=1e-300, max_value=1e300)
        ids = st.sampled_from(CRITERION_CHOICES) | q_text.map(lambda q: f"bell_tsallis_q{q:g}")
        verdict = st.builds(criteria.CriterionVerdict, st.floats(), st.floats(), st.booleans(), ids)
        edge = [criteria.CriterionVerdict(v, 4.0, v < 0, "pauli_lur") for v in (-0.0, 5e-324, 1e308, 4.0)]
        real_dumps = json.dumps

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
        @hypothesis.given(st.lists(verdict, min_size=1, max_size=9), st.booleans(), st.floats())
        @hypothesis.example(edge, False, -0.0)
        @hypothesis.example(edge, True, float("nan"))
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
            expected = real_dumps(report, indent=2) + "\n"
            fallbacks = []
            with mock.patch.object(cli.json, "dumps", lambda *a, **k: fallbacks.append(a) or real_dumps(*a, **k)):
                assert cli._json_text(report) == expected
            numbers = [min_pt, *(x for v in verdicts for x in (v.value, v.threshold))]
            assert len(fallbacks) == (not all(map(math.isfinite, numbers)))

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

    def test_eigensolver_failure_exits_5(self, tmp_path, monkeypatch, capsys):
        state = tmp_path / "singlet.json"
        assert run_cli("gen-state", "bell", "4", "--out", state) == 0

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert run_cli("evaluate", state) == 5
        assert capsys.readouterr().err.startswith("error: eigendecomposition did not converge")

    def test_bare_value_error_is_a_bug_and_propagates(self, monkeypatch):
        def fail():
            raise ValueError("not a uwit error")

        monkeypatch.setattr(cli, "werner_thresholds", fail)
        with pytest.raises(ValueError):
            run_cli("werner")


def run_python(*args):
    """A fresh interpreter that imports uwit from this checkout, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


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
