import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from uwit import experiments, states
from uwit.criteria import (
    WITNESS_TOL,
    _witness_detects,
    linear_witness_value,
    nonlinear_witness_value,
    pauli_lur,
)
from uwit.errors import InvalidParameterError, InvalidWeightError
from uwit.experiments import (
    DETECTION_CSV_HEADER,
    GEOMETRY_CSV_HEADER,
    WernerThresholds,
    _block_flags,
    default_p_grid,
    evaluate_detection_flags,
    geometry_scan_to_dicts,
    run_detection_sweep,
    run_geometry_scan,
    sweep_workers,
    werner_thresholds,
    write_detection_csv,
    write_detection_json,
    write_geometry_csv,
    write_geometry_json,
)
from uwit.states import (
    NPT_THRESHOLD,
    BellDiagonalCoords,
    NoiseBallConfig,
    is_npt,
    noise_rng,
    noisy_singlet,
    sample_noise_ball,
    werner_state,
)

SMALL = NoiseBallConfig(d=0.2, seed=7, samples=200)


def assert_writers_match_record_view(scan, tmp_path):
    """Both geometry writers against the record view, the oracle: a CSV line
    per record, and the JSON a json.dumps line per record."""
    records = list(geometry_scan_to_dicts(scan))
    assert len(records) == scan.resolution**3 * len(scan.q_values)
    fmt, flag = experiments._fmt, lambda b: "1" if b else "0"
    csv_text = GEOMETRY_CSV_HEADER + "\n" + "".join(
        f"{fmt(r['x'])},{fmt(r['y'])},{fmt(r['z'])},{flag(r['is_state'])},"
        f"{flag(r['in_octahedron'])},{flag(r['sphere_detected'])},{fmt(r['q'])},"
        f"{flag(r['tsallis_detected'])}\n"
        for r in records
    )
    json_text = "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"
    write_geometry_csv(scan, tmp_path / "geometry.csv")
    write_geometry_json(scan, tmp_path / "geometry.json")
    assert (tmp_path / "geometry.csv").read_bytes() == csv_text.encode()
    assert (tmp_path / "geometry.json").read_bytes() == json_text.encode()


def cells_by_coords(scan):
    """The scan's records grouped by cell: (x, y, z) -> a cell with its
    coords, its flags and tsallis_detected as a q -> flag dict."""
    cells = {}
    for record in geometry_scan_to_dicts(scan):
        key = (record["x"], record["y"], record["z"])
        if key not in cells:
            cells[key] = SimpleNamespace(
                coords=BellDiagonalCoords(*key),
                is_state=record["is_state"],
                in_octahedron=record["in_octahedron"],
                sphere_detected=record["sphere_detected"],
                tsallis_detected={},
            )
        cells[key].tsallis_detected[record["q"]] = record["tsallis_detected"]
    return cells


class TestDetectionSweep:
    def test_pure_singlet_row(self):
        rows = run_detection_sweep(NoiseBallConfig(d=0.2, seed=1, samples=50), [1.0])
        (row,) = rows
        assert row.fraction_witness == 1.0
        assert row.fraction_lur == 1.0
        assert row.fraction_npt == 1.0

    def test_white_noise_row(self):
        rows = run_detection_sweep(NoiseBallConfig(d=0.0, seed=1, samples=50), [0.0])
        (row,) = rows
        assert row.fraction_witness == 0.0
        assert row.fraction_lur == 0.0
        assert row.fraction_npt == 0.0

    def test_fraction_ordering(self):
        rows = run_detection_sweep(SMALL, [0.1, 0.25, 0.4, 0.6])
        for row in rows:
            assert row.fraction_witness <= row.fraction_lur <= row.fraction_npt

    def test_per_sample_inclusion_chain(self):
        for p_index, p in enumerate([0.2, 0.3, 0.45]):
            witness, lur, npt = evaluate_detection_flags(SMALL, p, p_index)
            assert not np.any(witness & ~lur)
            assert not np.any(lur & ~npt)
            assert not np.any(~npt & (witness | lur))

    def test_flags_match_fractions(self):
        p_grid = [0.25, 0.5]
        rows = run_detection_sweep(SMALL, p_grid)
        for p_index, row in enumerate(rows):
            witness, lur, npt = evaluate_detection_flags(SMALL, row.p, p_index)
            assert row.fraction_witness == witness.sum() / SMALL.samples
            assert row.fraction_lur == lur.sum() / SMALL.samples
            assert row.fraction_npt == npt.sum() / SMALL.samples

    def test_batch_path_matches_state_objects(self):
        # the vectorized evaluation must agree with the one-state route
        p, p_index = 0.3, 2
        witness, lur, npt = evaluate_detection_flags(SMALL, p, p_index)
        for i in range(0, SMALL.samples, 17):
            sigma = sample_noise_ball(SMALL.d, noise_rng(SMALL.seed, i))
            rho = noisy_singlet(p, sigma)
            assert (linear_witness_value(rho) < -1e-12) == witness[i]
            assert nonlinear_witness_value(rho).detected == lur[i]
            assert is_npt(rho)[0] == npt[i]

    @pytest.mark.parametrize("d, seed", [(0.0, 1), (0.2, 7), (0.5, 3)])
    def test_one_state_route_matches_batch_kernel_at_npt_edge(self, d, seed):
        # is_npt is the batch kernel on a batch of one, so the two agree at
        # the adjacent floats that bracket each sample's NPT weight and 1e-12
        # and 1e-9 either side of it (d = 0 is the Werner line)
        for i in range(6):
            sigma = sample_noise_ball(d, noise_rng(seed, i))
            if _block_flags(sigma.matrix[None], 0.0)[2][0]:
                continue  # NPT noise: no edge in (0, 1]
            lo, hi = 0.0, 1.0
            for _ in range(64):  # bisect the kernel's NPT weight to adjacent floats
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if _block_flags(sigma.matrix[None], mid)[2][0] else (mid, hi)
            probes = [(lo, False), (hi, True)]
            probes += [(min(hi * (1.0 + side), 1.0), side > 0) for side in (-1e-9, -1e-12, 1e-12, 1e-9)]
            for p, expected in probes:
                npt = _block_flags(sigma.matrix[None], p)[2][0]
                assert is_npt(noisy_singlet(p, sigma))[0] == npt == expected

    def test_noise_drawn_once_per_sample(self, monkeypatch):
        # every (seed, i) is keyed exactly once, by the batch keying; inside
        # the separable ball no first candidate is redrawn through noise_rng
        keys, rebuilt = [], []
        batch_keys = states._pcg64_states

        def counting_keys(seed, start, stop):
            keys.extend((seed, i) for i in range(start, stop))
            return batch_keys(seed, start, stop)

        monkeypatch.setattr(states, "_pcg64_states", counting_keys)
        monkeypatch.setattr(states, "noise_rng", lambda *key: rebuilt.append(key))
        monkeypatch.setattr(experiments, "_BLOCK", 64)
        run_detection_sweep(SMALL, [0.0, 0.25, 0.5, 0.75, 1.0], workers=1)
        assert len(keys) == SMALL.samples
        assert sorted(keys) == [(SMALL.seed, i) for i in range(SMALL.samples)]
        assert rebuilt == []

    def test_only_rejected_first_candidates_redrawn(self, monkeypatch):
        # outside the separable ball many first candidates fail the PSD check
        config = NoiseBallConfig(d=0.5, seed=7, samples=60)
        rejected = []
        for i in range(config.samples):
            # the first candidate, drawn as _draw_noise_matrix draws it
            rng = noise_rng(config.seed, i)
            normals = rng.standard_normal((1, 2, 4, 4))
            _, accepted = states._noise_candidates(config.d, normals, rng.uniform(size=1))
            if not accepted[0]:
                rejected.append(i)
        assert 0 < len(rejected) < config.samples

        redrawn = []
        draw = states._draw_noise_matrix

        def counting_draw(d, rng):
            redrawn.append(d)
            return draw(d, rng)

        monkeypatch.setattr(states, "_draw_noise_matrix", counting_draw)
        monkeypatch.setattr(experiments, "_BLOCK", 16)
        run_detection_sweep(config, [0.0, 0.5, 1.0], workers=1)
        assert len(redrawn) == len(rejected)

        # the batched first candidates and the redraws are the scalar sampler's bits
        sigma = states._draw_noise_block(config.seed, config.d, 0, config.samples)
        for i in range(config.samples):
            expected = sample_noise_ball(config.d, noise_rng(config.seed, i)).matrix
            assert sigma[i].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_block_size_does_not_change_rows(self, monkeypatch, workers):
        grid = [0.25, 0.35, 0.45]
        expected = run_detection_sweep(SMALL, grid)
        monkeypatch.setattr(experiments, "_BLOCK", 7)
        assert run_detection_sweep(SMALL, grid, workers=workers) == expected

    @pytest.mark.parametrize("d", [0.2, 0.2886])
    def test_per_sample_flags_monotone_in_p(self, d):
        # inside the separable ball each flag is a threshold in p
        config = NoiseBallConfig(d=d, seed=42, samples=200)
        flags = np.array(
            [evaluate_detection_flags(config, p, k) for k, p in enumerate(default_p_grid())]
        )
        assert not np.any(flags[:-1] & ~flags[1:])

    def test_pool_size_capped_at_block_count(self, monkeypatch):
        # a pool forks all its workers up front, so it gets at most one per block
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # outside the separable ball the pool runs whenever there are two blocks
        config = NoiseBallConfig(d=0.5, seed=7, samples=20)
        expected = run_detection_sweep(config, [0.3, 0.6], workers=1)
        monkeypatch.setattr(experiments, "_process_pool", InProcessPool)
        monkeypatch.setattr(experiments, "_BLOCK", 7)
        assert run_detection_sweep(config, [0.3, 0.6], workers=64) == expected
        assert requested == [3]

    def test_one_block_runs_in_process(self, monkeypatch):
        # a pool of one would only add its start-up to a single block's work
        def no_pool(max_workers):
            raise AssertionError("a one-block sweep started a process pool")

        config = NoiseBallConfig(d=0.5, seed=7, samples=20)
        expected = run_detection_sweep(config, [0.3, 0.6], workers=1)
        monkeypatch.setattr(experiments, "_process_pool", no_pool)
        assert run_detection_sweep(config, [0.3, 0.6], workers=64) == expected

    def test_pool_only_where_it_pays(self):
        # workers is a cap; inside the separable ball the pool needs enough
        # samples to repay its start-up, outside it two blocks suffice
        inside, outside = 0.2886, 0.2887  # 1/sqrt(12) = 0.288675...
        assert sweep_workers(NoiseBallConfig(d=0.2, samples=2000), 2) == 1
        assert sweep_workers(NoiseBallConfig(d=inside, samples=4000), 2) == 1
        assert sweep_workers(NoiseBallConfig(d=inside, samples=5000), 2) == 2
        assert sweep_workers(NoiseBallConfig(d=0.2, samples=5000), 64) == 20
        assert sweep_workers(NoiseBallConfig(d=0.2, samples=5000), 1) == 1
        assert sweep_workers(NoiseBallConfig(d=outside, samples=257), 2) == 2
        assert sweep_workers(NoiseBallConfig(d=outside, samples=256), 2) == 1

    def test_no_draw_share_at_d0(self):
        # at d = 0 nothing is drawn, so a sample costs only its flags and the
        # pool pays from about 25,000 samples instead of about 4,000
        assert sweep_workers(NoiseBallConfig(d=0.0, samples=6000), 2) == 1
        assert sweep_workers(NoiseBallConfig(d=0.0, samples=24000), 2) == 1
        assert sweep_workers(NoiseBallConfig(d=0.0, samples=26000), 2) == 2
        assert sweep_workers(NoiseBallConfig(d=0.2, samples=6000), 2) == 2

    @pytest.mark.parametrize("d, samples", [(0.2, 5000), (0.5, 300)])
    def test_real_pool_gives_in_process_bytes(self, tmp_path, monkeypatch, d, samples):
        # a ProcessPoolExecutor sweep that the rule chooses, against the same
        # sweep in process, in both output formats
        config = NoiseBallConfig(d=d, seed=-11, samples=samples)
        grid = [0.0, 0.3, 0.6, 1.0]
        assert sweep_workers(config, 2) == 2
        started = []
        real_pool = experiments._process_pool

        def spied_pool(workers):
            started.append(workers)
            return real_pool(workers)

        monkeypatch.setattr(experiments, "_process_pool", spied_pool)
        for name, workers in (("pooled", 2), ("in_process", 1)):
            rows = run_detection_sweep(config, grid, workers=workers)
            write_detection_csv(rows, tmp_path / f"{name}.csv")
            write_detection_json(rows, tmp_path / f"{name}.json")
        assert started == [2]
        for suffix in ("csv", "json"):
            assert (tmp_path / f"pooled.{suffix}").read_bytes() == (tmp_path / f"in_process.{suffix}").read_bytes()

    def test_empty_grid_raises_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("an empty grid drew samples")

        monkeypatch.setattr(experiments, "_draw_noise_block", no_draw)
        with pytest.raises(InvalidParameterError, match="p grid"):
            run_detection_sweep(SMALL, [])

    def test_rerun_is_identical(self):
        rows_a = run_detection_sweep(SMALL, [0.2, 0.6])
        rows_b = run_detection_sweep(SMALL, [0.2, 0.6])
        assert rows_a == rows_b

    def test_worker_count_does_not_change_rows(self):
        rows_a = run_detection_sweep(SMALL, [0.2, 0.6], workers=1)
        rows_b = run_detection_sweep(SMALL, [0.2, 0.6], workers=2)
        assert rows_a == rows_b

    def test_csv_bytes_deterministic(self, tmp_path):
        for name, workers in (("a.csv", 1), ("b.csv", 3)):
            rows = run_detection_sweep(SMALL, [0.0, 0.35, 1.0], workers=workers)
            write_detection_csv(rows, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_monotone_on_white_noise_line(self):
        config = NoiseBallConfig(d=0.0, seed=3, samples=20)
        rows = run_detection_sweep(config, [float(p) for p in np.linspace(1 / 3, 1.0, 9)])
        for a, b in zip(rows, rows[1:]):
            assert a.fraction_witness <= b.fraction_witness
            assert a.fraction_lur <= b.fraction_lur
            assert a.fraction_npt <= b.fraction_npt

    def test_default_grid(self):
        grid = default_p_grid()
        assert len(grid) == 21 and grid[0] == 0.0 and grid[-1] == 1.0

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidWeightError):
            run_detection_sweep(SMALL, [0.5, 1.2])

    def test_csv_format(self, tmp_path):
        rows = run_detection_sweep(NoiseBallConfig(d=0.2, seed=9, samples=3), [1 / 3])
        path = tmp_path / "sweep.csv"
        write_detection_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == DETECTION_CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "0.333333333"  # nine significant digits
        assert fields[4] == "3" and fields[5] == "9"


class TestWernerThresholds:
    def test_all_thirds(self):
        thresholds = werner_thresholds()
        for value in (thresholds.witness, thresholds.lur, thresholds.npt):
            assert abs(value - 1.0 / 3.0) <= 1e-6

    def test_closed_forms(self):
        # both witness values are 1 - 3p and lambda_min(rho^T) is (1 - 3p)/4
        witness = (1.0 + WITNESS_TOL) / 3.0
        assert werner_thresholds() == WernerThresholds(witness, witness, (1.0 - 4.0 * NPT_THRESHOLD) / 3.0)

    @pytest.mark.parametrize("side, detected", [(-1e-9, False), (1e-9, True)])
    def test_scalar_criteria_switch_at_the_weights(self, side, detected):
        thresholds = werner_thresholds()
        rho = werner_state(thresholds.witness * (1.0 + side))
        assert _witness_detects(linear_witness_value(rho)) == detected
        assert nonlinear_witness_value(rho).detected == detected
        assert pauli_lur(rho).detected == detected
        assert is_npt(werner_state(thresholds.npt * (1.0 + side)))[0] == detected

    def test_sweep_switches_at_the_weights(self):
        thresholds = werner_thresholds()
        grid = [w * (1.0 + side) for w in (thresholds.npt, thresholds.witness) for side in (-1e-9, 1e-9)]
        rows = run_detection_sweep(NoiseBallConfig(d=0.0, seed=1, samples=3), grid)
        fractions = [(row.fraction_witness, row.fraction_lur, row.fraction_npt) for row in rows]
        assert fractions == [(0, 0, 0), (0, 0, 1), (0, 0, 1), (1, 1, 1)]


class TestGeometryScan:
    def test_origin_cell(self):
        scan = run_geometry_scan(resolution=3, q_values=[2.0, 4.0])
        cells = cells_by_coords(scan)
        origin = cells[(0.0, 0.0, 0.0)]
        assert origin.is_state and origin.in_octahedron
        assert not origin.sphere_detected
        assert not any(origin.tsallis_detected.values())

    def test_singlet_corner_cell(self):
        scan = run_geometry_scan(resolution=3, q_values=[2.0, 4.0, 15.0])
        cells = cells_by_coords(scan)
        corner = cells[(-1.0, -1.0, -1.0)]
        assert corner.is_state and not corner.in_octahedron
        assert corner.sphere_detected
        assert all(corner.tsallis_detected.values())

    def test_non_state_corner(self):
        scan = run_geometry_scan(resolution=3, q_values=[2.0])
        cells = cells_by_coords(scan)
        outside = cells[(1.0, 1.0, 1.0)]
        assert not outside.is_state and not outside.in_octahedron
        assert not outside.sphere_detected and not outside.tsallis_detected[2.0]

    def test_q2_equals_sphere_on_state_cells(self):
        scan = run_geometry_scan(resolution=21, q_values=[2.0])
        assert np.array_equal(scan.tsallis_detected[2.0], scan.sphere_detected)

    def test_detections_only_on_state_cells(self):
        scan = run_geometry_scan(resolution=15, q_values=[0.5, 1.0, 2.0, 15.0])
        outside = ~scan.is_state
        assert not scan.sphere_detected[outside].any()
        assert not scan.in_octahedron[outside].any()
        for flags in scan.tsallis_detected.values():
            assert not flags[outside].any()

    def test_detection_grows_with_q(self):
        scan = run_geometry_scan(resolution=21, q_values=[2.0, 4.0, 15.0])
        d2, d4, d15 = (scan.tsallis_detected[q] for q in (2.0, 4.0, 15.0))
        assert not np.any(d2 & ~d4)
        assert not np.any(d4 & ~d15)

    def test_csv_row_count_and_header(self, tmp_path):
        scan = run_geometry_scan(resolution=5, q_values=[2.0, 4.0])
        path = tmp_path / "geometry.csv"
        write_geometry_csv(scan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == GEOMETRY_CSV_HEADER
        assert len(lines) == 1 + 5**3 * 2

    @pytest.mark.parametrize(
        "resolution, q_values",
        [
            (2, (0.3,)),
            (4, ()),
            (5, (2,)),
            (9, (1,)),
            (11, (2, 2, 0.5)),
            (12, (2, 4, 15)),
            (13, (1, 200)),
            (31, (2, 4, 15)),
        ],
    )
    def test_writers_match_record_view(self, tmp_path, resolution, q_values):
        assert_writers_match_record_view(run_geometry_scan(resolution, q_values), tmp_path)

    def test_writers_match_record_view_over_generated_scans(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
        @hypothesis.given(
            st.integers(2, 12),
            st.lists(st.sampled_from((0.3, 0.5, 1.0, 2.0, 4.0, 15.0, 200.0)), max_size=4),
        )
        def check(resolution, q_values):
            assert_writers_match_record_view(run_geometry_scan(resolution, q_values), tmp_path)

        check()

    def test_writers_hold_a_few_slabs(self, tmp_path):
        # each writer renders and writes one x-slab at a time, so its traced
        # peak is a few slabs' text (the rendered slab, the encoded bytes and
        # the reused pieces), not the file's 41 slabs
        scan = run_geometry_scan(41, (2.0, 4.0, 15.0))
        for writer in (write_geometry_csv, write_geometry_json):
            path = tmp_path / "geometry"
            tracemalloc.start()
            try:
                writer(scan, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * path.stat().st_size / 41, writer.__name__

    def test_shannon_scan_stays_in_columns(self):
        # q = 1 takes its terms column by column as the power sums do, so it
        # holds no (N, 4) copy of the populations
        def peak(q):
            tracemalloc.start()
            try:
                run_geometry_scan(41, (q,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1.0) <= 1.3 * peak(2.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            run_geometry_scan(resolution=1, q_values=[2.0])
        with pytest.raises(InvalidParameterError):
            run_geometry_scan(resolution=5, q_values=[-2.0])

    def test_matches_state_level_route(self):
        # coordinate formulas versus actual density matrices and verdicts
        from uwit.criteria import bell_tsallis_criterion, bell_variance_criterion
        from uwit.states import (
            bell_diagonal_state,
            in_state_tetrahedron,
            in_witness_octahedron,
        )

        scan = run_geometry_scan(resolution=7, q_values=[1.0, 2.0, 15.0])
        for cell in cells_by_coords(scan).values():
            assert cell.is_state == in_state_tetrahedron(cell.coords)
            assert cell.in_octahedron == in_witness_octahedron(cell.coords)
            if not cell.is_state:
                continue
            rho = bell_diagonal_state(cell.coords)
            assert cell.sphere_detected == bell_variance_criterion(rho).detected
            for q in (1.0, 2.0, 15.0):
                assert cell.tsallis_detected[q] == bell_tsallis_criterion(rho, q).detected
