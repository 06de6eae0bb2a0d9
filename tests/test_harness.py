import csv
import math
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from ultraloc import harness
from ultraloc import waveform as wf
from ultraloc.channel import N_TAPS, OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, SPEED_OF_SOUND, BeaconLayout
from ultraloc.config import default_config
from ultraloc.errors import ConfigError, SingularGeometryError


def fast_config(snr_db=None, taps=0, burst_bits=8, trials=3, seed=9, **kw):
    cfg = default_config()
    cfg = replace(
        cfg,
        waveform=replace(cfg.waveform, burst_bits=burst_bits),
        channel=replace(cfg.channel, snr_db=snr_db, taps_per_beacon=taps),
        run=replace(cfg.run, trials=trials, seed=seed, **kw),
    )
    return cfg


COPLANAR = BeaconLayout(
    positions=np.array([[0.5, 0.5, 2], [4.5, 0.5, 2], [4.5, 4.5, 2], [0.5, 4.5, 2]], dtype=float)
)


class TestRunFix:
    def test_noiseless_quantization_floor(self):
        cfg = fast_config(burst_bits=32)
        rec = harness.run_fix(cfg, np.array([2.0, 3.0, 1.2]), 4)
        assert not rec.failed
        floor = 2.0 * SPEED_OF_SOUND / wf.SAMPLE_RATE
        assert rec.err_3d <= floor
        assert np.all(np.abs(rec.range_errors) <= floor)

    def test_distance_attenuation_keeps_quantization_floor(self):
        cfg = fast_config(burst_bits=32)
        cfg = replace(cfg, channel=replace(cfg.channel, distance_attenuation=True))
        position = np.array([2.0, 3.0, 1.2])
        rec = harness.run_fix(cfg, position, 4)
        assert not rec.failed
        floor = 2.0 * SPEED_OF_SOUND / wf.SAMPLE_RATE
        assert rec.err_3d <= floor
        assert np.all(np.abs(rec.range_errors) <= floor)
        plain = harness.run_fix(fast_config(burst_bits=32), position, 4)
        assert rec.peak_samples == plain.peak_samples

    def test_deterministic_per_seed(self):
        cfg = fast_config(snr_db=10.0, taps=N_TAPS)
        a = harness.run_fix(cfg, np.array([1.5, 2.5, 1.0]), [3, 14])
        b = harness.run_fix(cfg, np.array([1.5, 2.5, 1.0]), [3, 14])
        assert np.array_equal(a.est_position, b.est_position)
        assert a.range_errors.tolist() == b.range_errors.tolist()
        assert a.peak_samples == b.peak_samples

    def test_zero_taps_is_a_channel_without_multipath(self, monkeypatch):
        # taps_per_beacon = 0 draws no tap and nothing from the fix's stream
        cfg, position = fast_config(snr_db=10.0), np.array([1.5, 2.5, 1.0])
        rec = harness.run_fix(cfg, position, 7)
        no_taps = np.zeros((4, 0))
        monkeypatch.setattr(harness, "sample_multipath", lambda *a, **kw: (no_taps, no_taps))
        skipped = harness.run_fix(cfg, position, 7)
        for f in fields(rec):
            np.testing.assert_array_equal(getattr(rec, f.name), getattr(skipped, f.name))

    def test_error_decomposition_identity(self):
        cfg = fast_config(snr_db=5.0, taps=N_TAPS)
        rec = harness.run_fix(cfg, np.array([3.0, 1.5, 2.0]), 8)
        assert rec.err_3d**2 == pytest.approx(rec.err_xy**2 + rec.err_z**2, rel=1e-9)

    def test_hostile_channel_still_completes(self):
        cfg = fast_config(snr_db=-10.0, taps=N_TAPS)
        rec = harness.run_fix(cfg, np.array([2.0, 2.0, 1.5]), 1)
        assert rec.failed or math.isfinite(rec.err_3d)

    def test_degenerate_layout_becomes_failed_record(self):
        cfg = fast_config()
        cfg = replace(cfg, scene=replace(cfg.scene, layout=COPLANAR, layout_name="file"))
        rec = harness.run_fix(cfg, np.array([2.0, 2.0, 1.0]), 2)
        assert rec.failed
        assert "SingularGeometryError" in rec.error
        assert math.isnan(rec.err_3d)

    def test_programming_error_propagates(self):
        # not a physical failure: Scene rejects the position, and run_fix
        # must not turn that into a failed record
        with pytest.raises(ValueError, match="not strictly inside the room"):
            harness.run_fix(fast_config(), np.array([2.0, 2.0, 9.0]), 2)

    def test_fusion_improves_height(self):
        base = fast_config(burst_bits=32)
        fused_cfg = replace(base, fusion=replace(base.fusion, enabled=True))
        pos = np.array([2.2, 2.8, 1.3])
        plain = harness.run_fix(base, pos, 5)
        fused = harness.run_fix(fused_cfg, pos, 5)
        assert fused.err_z <= plain.err_z + 1e-4

    def test_auto_weight_fusion_runs(self):
        cfg = fast_config(burst_bits=32)
        cfg = replace(cfg, fusion=replace(cfg.fusion, enabled=True, auto_weights=True))
        rec = harness.run_fix(cfg, np.array([2.2, 2.8, 1.3]), 5)
        assert not rec.failed
        assert rec.err_z < 0.01


class TestSimulateAndSweep:
    def test_simulate_count_and_determinism(self):
        cfg = fast_config()
        a = harness.simulate(cfg)
        b = harness.simulate(cfg)
        assert len(a.trial_id) == cfg.run.trials
        assert a.trial_id.tolist() == [0, 1, 2]
        assert np.array_equal(a.true_position, b.true_position)
        assert np.array_equal(a.est_position, b.est_position)

    def test_csv_bytes_deterministic(self, tmp_path):
        cfg = fast_config(snr_db=10.0, taps=N_TAPS)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_trials_csv(harness.simulate(cfg), p1)
        harness.write_trials_csv(harness.simulate(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_aggregates(self):
        cfg = fast_config(trials=2, snr_list=(0.0, 20.0))
        trials, table = harness.sweep_snr(cfg)
        assert len(trials.trial_id) == 4
        assert len(table) == 2
        assert table[0]["snr_db"] == 0.0
        assert table[1]["n_trials"] == 2
        assert table[0]["n_failed"] == 0
        assert math.isfinite(table[0]["mean_err_3d"])

    def test_fix_limit_counts_simulate_trials_before_any_job(self, monkeypatch):
        cfg = fast_config(trials=3)
        monkeypatch.setattr(harness, "MAX_FIXES", 3)
        assert len(harness.simulate(cfg).trial_id) == 3
        monkeypatch.setattr(harness, "MAX_FIXES", 2)
        monkeypatch.setattr(harness, "_trial_jobs", None)  # a job built would raise TypeError
        message = r"^the simulation would hold more than the 2 fixes allowed; lower \[run\] trials$"
        with pytest.raises(ConfigError, match=message):
            harness.simulate(cfg)

    def test_fix_limit_counts_every_sweep_fix_before_any_job(self, monkeypatch):
        # 2 trials at each of 2 SNRs: neither factor alone exceeds a limit of 3
        cfg = fast_config(trials=2, snr_list=(0.0, 20.0))
        monkeypatch.setattr(harness, "MAX_FIXES", 4)
        assert len(harness.sweep_snr(cfg)[0].trial_id) == 4
        monkeypatch.setattr(harness, "MAX_FIXES", 3)
        monkeypatch.setattr(harness, "_trial_jobs", None)
        message = (
            r"^the sweep would hold more than the 3 fixes allowed; "
            r"lower \[run\] trials or shorten \[run\] snr_list$"
        )
        with pytest.raises(ConfigError, match=message):
            harness.sweep_snr(cfg)

    def test_failed_trials_counted_not_dropped(self):
        cfg = fast_config(snr_list=(10.0,))
        cfg = replace(cfg, scene=replace(cfg.scene, layout=COPLANAR, layout_name="file"))
        trials, table = harness.sweep_snr(cfg)
        assert len(trials.trial_id) == 3
        assert table[0]["n_failed"] == 3
        assert trials.failed.all()

    def test_optimized_layout_shrinks_z_gap(self):
        # the placement-optimized layout narrows the vertical-vs-horizontal
        # error ratio relative to the baseline layout
        cfg = default_config()
        cfg = replace(cfg, run=replace(cfg.run, seed=5, snr_list=(15.0,), trials=60))
        ratios = {}
        for name, layout in (("original", cfg.scene.layout), ("optimized", OPTIMIZED_LAYOUT)):
            cfg_l = replace(cfg, scene=replace(cfg.scene, layout=layout, layout_name=name))
            _, table = harness.sweep_snr(cfg_l)
            ratios[name] = table[0]["mean_err_z"] / table[0]["mean_err_xy"]
        assert ratios["optimized"] < ratios["original"]


class TestTrialsTable:
    def test_partly_failed_table(self, tmp_path):
        # fixes from a working layout and from a coplanar one, interleaved
        good = fast_config()
        bad = replace(good, scene=replace(good.scene, layout=COPLANAR, layout_name="file"))
        position = np.array([2.0, 2.5, 1.5])
        records = [
            harness.run_fix(cfg, position, k) for k, cfg in enumerate([good, bad, good, good, bad])
        ]
        assert [r.failed for r in records] == [False, True, False, False, True]
        trials = harness.stack_records(records)
        row = harness.aggregate_records(trials, None)
        assert row["n_trials"] == 5
        assert row["n_failed"] == int(trials.failed.sum()) == 2
        # the means and deviations are those of the successful rows alone
        ok = [r for r in records if not r.failed]
        assert row == harness.aggregate_records(harness.stack_records(ok), None) | {
            "n_trials": 5,
            "n_failed": 2,
        }
        assert row["mean_err_3d"] == pytest.approx(np.mean([r.err_3d for r in ok]), rel=1e-12)
        assert row["std_err_z"] == pytest.approx(np.std([r.err_z for r in ok]), rel=1e-12)

        path = tmp_path / "trials.csv"
        harness.write_trials_csv(trials, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["trial_id"] for r in rows] == ["0", "1", "2", "3", "4"]
        assert [r["failed"] for r in rows] == ["0", "1", "0", "0", "1"]
        assert {r["snr_db"] for r in rows} == {""}  # noiseless
        for r in rows:
            estimates = [r[k] for k in ("est_x", "est_y", "est_z", "err_xy", "err_z", "err_3d")]
            peaks = [r[f"peak_{b}"] for b in range(4)]
            if r["failed"] == "1":
                assert peaks == ["-1"] * 4
                assert estimates == ["nan"] * 6
                assert r["error"].startswith("SingularGeometryError: ")
            else:
                assert all(int(p) > 0 for p in peaks)
                assert "nan" not in estimates
                assert r["error"] == ""


class TestLayoutComparison:
    def test_seven_random_trajectories_improve_with_optimized_layout(self):
        # on every trajectory both the height error and the total error
        # drop when the optimized beacon placement replaces the baseline
        base = default_config()
        base = replace(base, run=replace(base.run, fix_spacing=0.5, trajectory_waypoints=5))
        opt = replace(base, scene=replace(base.scene, layout=OPTIMIZED_LAYOUT, layout_name="optimized"))
        for k in range(7):
            traj = harness.make_trajectory(replace(base, run=replace(base.run, seed=100 + k)))
            _, s_orig = harness.run_trajectory(
                replace(base, run=replace(base.run, seed=100 + k)), traj
            )
            _, s_opt = harness.run_trajectory(
                replace(opt, run=replace(opt.run, seed=100 + k)), traj
            )
            assert s_opt["mean_err_z"] < s_orig["mean_err_z"]
            assert s_opt["mean_err_3d"] < s_orig["mean_err_3d"]

    def test_straight_line_with_fusion_under_15mm(self):
        # centerline pass at 15 dB with the optimized layout and the
        # ceiling rangefinder blended in
        cfg = default_config()
        cfg = replace(
            cfg,
            scene=replace(cfg.scene, layout=OPTIMIZED_LAYOUT, layout_name="optimized"),
            channel=replace(cfg.channel, snr_db=15.0),
            fusion=replace(cfg.fusion, enabled=True),
            run=replace(cfg.run, seed=3),
        )
        line = np.stack(
            [
                np.linspace(0.7, 4.3, 19),
                np.full(19, 2.5),
                np.full(19, 1.75),
            ],
            axis=1,
        )
        _, summary = harness.run_trajectory(cfg, line)
        assert summary["n_failed"] == 0
        assert summary["mean_err_3d"] <= 0.015


class TestTrajectory:
    def test_waypoints_inside_domain_and_spacing(self):
        cfg = fast_config(seed=3, trajectory_waypoints=5, fix_spacing=0.25)
        domain = cfg.drone_domain()
        traj = harness.make_trajectory(cfg)
        for p in traj:
            assert domain.contains(p)
        steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
        assert np.all(steps <= 0.25 + 1e-9)

    def test_single_waypoint_equals_run_fix(self):
        cfg = fast_config(trajectory_waypoints=1)
        traj = harness.make_trajectory(cfg)
        trials, summary = harness.run_trajectory(cfg, traj)
        assert len(trials.trial_id) == 1
        direct = harness.run_fix(cfg, traj[0], [cfg.run.seed, 2, 0])
        assert np.array_equal(trials.est_position[0], direct.est_position)
        assert summary["mean_err_3d"] == pytest.approx(trials.err_3d[0])

    @pytest.mark.parametrize("stream,s_idx", [(0, None), (1, 1)], ids=["simulate", "sweep"])
    def test_random_trial_equals_run_fix(self, stream, s_idx):
        # trial t of a stream runs with seed [run.seed, stream, *indices, t]
        # at the drone-domain position drawn from [*seed, 999]
        cfg = fast_config(snr_db=10.0, taps=N_TAPS, snr_list=(0.0, 10.0))
        t = 1
        if s_idx is None:
            trials = harness.simulate(cfg)
            seed = [cfg.run.seed, stream, t]
            trial_id = t
        else:
            trials, _ = harness.sweep_snr(cfg)
            seed = [cfg.run.seed, stream, s_idx, t]
            trial_id = s_idx * 3 + t
        assert trials.trial_id[trial_id] == trial_id
        position = harness.random_position(
            cfg.drone_domain(), np.random.default_rng([*seed, 999])
        )
        direct = harness.run_fix(cfg, position, seed)
        assert np.array_equal(trials.true_position[trial_id], position)
        # row trial_id of the table is run_fix's record on every other column
        for f in fields(harness.TrialRecord):
            if f.name != "trial_id":
                column = getattr(trials, f.name)
                assert np.array_equal(column[trial_id], getattr(direct, f.name)), f.name

    def test_out_of_domain_waypoint_rejected(self):
        cfg = fast_config()
        traj = np.array([[0.1, 0.1, 0.1]])
        with pytest.raises(ConfigError):
            harness.run_trajectory(cfg, traj)

    @pytest.mark.parametrize(
        "waypoints",
        [np.empty((0, 3)), np.ones((2, 2)), np.full((2, 3, 3), 2.0), np.array([])],
        ids=["none", "2-D points", "3-D array", "empty"],
    )
    def test_bad_waypoint_shape_rejected(self, waypoints):
        with pytest.raises(ValueError, match="at least one 3-D waypoint"):
            harness.run_trajectory(fast_config(), waypoints)

    def test_one_point_is_one_waypoint(self):
        cfg = fast_config()
        point = np.array([2.0, 2.5, 1.5])
        trials, _ = harness.run_trajectory(cfg, point)
        rows, _ = harness.run_trajectory(cfg, point[None, :])
        assert len(trials.trial_id) == len(rows.trial_id) == 1
        assert np.array_equal(trials.est_position, rows.est_position)

    def test_fix_limit_counts_the_path_exactly(self, monkeypatch):
        cfg = fast_config(seed=3, trajectory_waypoints=4)
        n = len(harness.make_trajectory(cfg))
        monkeypatch.setattr(harness, "MAX_FIXES", n)
        assert len(harness.make_trajectory(cfg)) == n
        monkeypatch.setattr(harness, "MAX_FIXES", n - 1)
        message = rf"more than the {n - 1} fixes allowed; raise \[run\] fix_spacing"
        with pytest.raises(ConfigError, match=message):
            harness.make_trajectory(cfg)
        # a spacing so small that length / fix_spacing overflows to inf
        monkeypatch.undo()
        tiny = fast_config(seed=3, trajectory_waypoints=4, fix_spacing=5e-324)
        with pytest.raises(ConfigError, match=r"raise \[run\] fix_spacing"):
            harness.make_trajectory(tiny)

    @pytest.mark.parametrize(
        "domain",
        [{}, dict(domain_x=(2.0, 2.0), domain_y=(2.0, 2.0), domain_z=(1.0, 1.0))],
        ids=["default", "zero-volume"],
    )
    def test_waypoint_limit_is_checked_before_any_corner(self, monkeypatch, domain):
        # one waypoint over the limit: on the default domain every leg adds a
        # fix; on a zero-volume one the path would be one point, rejected too
        cfg = fast_config(trajectory_waypoints=5, **domain)
        monkeypatch.setattr(harness, "MAX_FIXES", 4)
        monkeypatch.setattr(harness, "random_position", None)  # a corner drawn would raise TypeError
        message = (
            r"^the trajectory would hold more than the 4 fixes allowed; "
            r"lower \[run\] trajectory_waypoints$"
        )
        with pytest.raises(ConfigError, match=message):
            harness.make_trajectory(cfg)

    def test_trajectory_deterministic(self):
        cfg = fast_config(seed=3, trajectory_waypoints=4)
        a = harness.make_trajectory(cfg)
        b = harness.make_trajectory(cfg)
        assert np.array_equal(a, b)


class TestWorkerPool:
    """A command's fixes run on a thread pool; nothing it writes depends on
    how many threads there are, and no thread outlives the command."""

    COMMANDS = {
        "simulate": harness.simulate,
        "sweep": lambda cfg: harness.sweep_snr(cfg)[0],
        "trajectory": lambda cfg: harness.run_trajectory(cfg, harness.make_trajectory(cfg))[0],
    }

    @pytest.fixture
    def fast_switching(self):
        # threads trade the interpreter lock far more often than by default
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def trials_csv(command, cfg, workers, monkeypatch, tmp_path) -> bytes:
        monkeypatch.setattr(harness, "_worker_count", lambda: workers)
        path = tmp_path / f"{workers}.csv"
        harness.write_trials_csv(TestWorkerPool.COMMANDS[command](cfg), path)
        return path.read_bytes()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_trials_csv_does_not_depend_on_worker_count(
        self, command, monkeypatch, tmp_path, fast_switching
    ):
        cfg = fast_config(
            snr_db=10.0, taps=N_TAPS, trials=7, snr_list=(0.0, 10.0, 20.0),
            trajectory_waypoints=3, fix_spacing=0.5,
        )
        real = harness.Scene

        def east_half_fails(**kw):
            # a physical failure that only some fixes meet, whatever thread runs them
            if kw["receiver_position"][0] > 2.5:
                raise SingularGeometryError("stand-in for a degenerate fix")
            return real(**kw)

        monkeypatch.setattr(harness, "Scene", east_half_fails)
        serial = self.trials_csv(command, cfg, 1, monkeypatch, tmp_path)
        for workers in (2, 3):
            assert self.trials_csv(command, cfg, workers, monkeypatch, tmp_path) == serial

        # each fix's record, failed or not, is in its own row
        rows = list(csv.DictReader(serial.decode().splitlines()))
        failed = [r["failed"] == "1" for r in rows]
        assert any(failed) and not all(failed)
        assert failed == [float(r["true_x"]) > 2.5 for r in rows]
        for r, f in zip(rows, failed):
            assert r["error"] == ("SingularGeometryError: stand-in for a degenerate fix" if f else "")

    def test_programming_error_stops_the_command(self, monkeypatch):
        cfg = fast_config(trials=200)
        monkeypatch.setattr(harness, "_worker_count", lambda: 2)
        real, started = harness._run_fix_inner, []

        def broken_first_fix(config, position, seed):
            started.append(seed)
            if seed[-1] == 0:
                raise KeyError("a programming error in fix 0")
            return real(config, position, seed)

        monkeypatch.setattr(harness, "_run_fix_inner", broken_first_fix)
        threads = threading.active_count()
        with pytest.raises(KeyError, match="a programming error in fix 0"):
            harness.simulate(cfg)
        # the queued fixes were cancelled, not run, and the pool is gone
        assert len(started) < cfg.run.trials // 4
        assert threading.active_count() == threads


class TestWriters:
    def test_trials_csv_header_and_rows(self, tmp_path):
        cfg = fast_config()
        trials = harness.simulate(cfg)
        path = tmp_path / "trials.csv"
        harness.write_trials_csv(trials, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "trial_id,snr_db,true_x,true_y,true_z,est_x,est_y,est_z,err_xy,err_z,err_3d,"
            "range_err_0,range_err_1,range_err_2,range_err_3,peak_0,peak_1,peak_2,peak_3,"
            "failed,error"
        )
        assert len(lines) == 1 + len(trials.trial_id)

    def test_failed_five_beacon_fix_fills_a_column_per_beacon(self, tmp_path, monkeypatch):
        five = BeaconLayout(positions=np.vstack([ORIGINAL_LAYOUT.positions, [[2.5, 2.5, 4.0]]]))
        cfg = fast_config()
        cfg = replace(
            cfg,
            scene=replace(cfg.scene, layout=five),
            waveform=replace(cfg.waveform, walsh_order=8),
        )

        def singular(*args):
            raise SingularGeometryError("stand-in for a degenerate fix")

        monkeypatch.setattr(harness, "trilaterate", singular)
        record = harness.run_fix(cfg, np.array([2.0, 2.0, 1.0]), 0)
        assert record.failed and record.range_errors.shape == (5,)
        assert record.peak_samples == (-1,) * 5
        path = tmp_path / "trials.csv"
        harness.write_trials_csv(harness.stack_records([record, record]), path)
        header, *rows = path.read_text().splitlines()
        assert header.endswith("range_err_4,peak_0,peak_1,peak_2,peak_3,peak_4,failed,error")
        assert rows[0].split(",")[-7:-2] == ["-1"] * 5

    def test_summary_json_roundtrip(self, tmp_path):
        import json

        cfg = fast_config()
        trials = harness.simulate(cfg)
        summary = harness.aggregate_records(trials, None)
        path = tmp_path / "summary.json"
        harness.write_summary_json(summary, path)
        loaded = json.loads(path.read_text())
        assert loaded["n_trials"] == len(trials.trial_id)

    def test_summary_json_writes_non_finite_as_null(self, tmp_path):
        import json

        summary = {
            "mean": np.float64("nan"),
            "rows": [{"std": math.inf, "n": np.int64(3)}, {"std": -math.inf}],
            "point": np.array([0.5, np.nan]),
            "pair": (np.float32(0.25), None),
        }
        path = tmp_path / "summary.json"
        harness.write_summary_json(summary, path)

        def reject(token):
            raise ValueError(token)

        assert json.loads(path.read_text(), parse_constant=reject) == {
            "mean": None,
            "rows": [{"std": None, "n": 3}, {"std": None}],
            "point": [0.5, None],
            "pair": [0.25, None],
        }
