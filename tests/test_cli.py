import csv
import hashlib
import json
import math

import pytest

from ultraloc.cli import _build_parser, main

FAST_INI = """
[waveform]
burst_bits = 8

[channel]
snr_db = none
multipath = false

[placement]
population = 12
parents = 8
iterations = 5
beacon_grid = 0.5
max_restarts = 1

[run]
trials = 2
seed = 3
snr_list = 0, 20
domain_grid = 1.0
trajectory_waypoints = 2
fix_spacing = 0.5
"""


@pytest.fixture()
def fast_ini(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_INI)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def strict_json(path):
    """Parse a file as a strict JSON reader does: NaN and Infinity fail."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestCommands:
    def test_simulate(self, fast_ini, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", fast_ini, "--out", str(out)) == 0
        assert (out / "trials.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_trials"] == 2
        assert "mean err_3d" in capsys.readouterr().out

    def test_sweep(self, fast_ini, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", fast_ini, "--out", str(out)) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["snr_db"] for r in rows] == ["0", "20"]
        assert (out / "trials.csv").exists()

    def test_trajectory(self, fast_ini, tmp_path):
        out = tmp_path / "traj"
        assert run_cli("trajectory", "--config", fast_ini, "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_fixes"] >= 1

    def test_optimize(self, fast_ini, tmp_path):
        out = tmp_path / "opt"
        assert run_cli("optimize", "--config", fast_ini, "--out", str(out)) == 0
        record = json.loads((out / "placement.json").read_text())
        assert len(record["beacons"]) == 4
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5

    def test_dopmap(self, fast_ini, tmp_path):
        out = tmp_path / "dop"
        assert run_cli("dopmap", "--config", fast_ini, "--out", str(out)) == 0
        with open(out / "dopmap.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 5 * 3
        assert set(rows[0]) == {"x", "y", "z", "hdop", "vdop", "gdop"}

    def test_rangetest(self, fast_ini, tmp_path):
        out = tmp_path / "rt"
        assert run_cli("rangetest", "--config", fast_ini, "--out", str(out)) == 0
        with open(out / "rangetest.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4


# sha256 of each CSV the CLI writes from FAST_INI: the output format is
# pinned byte for byte, so any change to a cell's text fails here.
GOLDEN = {
    ("simulate", "trials.csv"): "235d1dc019da8ef334cd66e9a7163c16d0c3124f9d01840711c26710b0f9286b",
    ("sweep", "sweep.csv"): "bb1fb19097bacb3bff749640dee09cc8a2e4b94dd993f3287cfe22f659b8ff82",
    ("sweep", "trials.csv"): "229df507d7e08a2eb4921b67f6082de315d457738c41d3dcc4e792c4b906ec09",
    ("trajectory", "trajectory.csv"): "97ac0d008e5abb2fbf2d032c9b1b2138302fd29dead6da7b821c08402b6ef800",
    ("optimize", "history.csv"): "76bd991115a8f6e7ae92f1dfea8bb5816b0564334ac9d48930c5b337705eeb3c",
    ("rangetest", "rangetest.csv"): "5f71840b6dcb8f437481959d5e7c681679cfe840478077b19ae818ea9ce5189e",
    ("dopmap", "dopmap.csv"): "c47da92f458c6b9d479152245d6b7412e42bb94218c1f9974d77a3d46cd4002b",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("command,name", sorted(GOLDEN), ids="/".join)
    def test_csv_bytes(self, fast_ini, tmp_path, command, name):
        assert run_cli(command, "--config", fast_ini, "--out", str(tmp_path)) == 0
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDEN[command, name]

    def test_dopmap_beacon_on_lattice_point(self, fast_ini, tmp_path):
        layout = tmp_path / "layout.txt"
        layout.write_text("0 0 4\n5 0 3\n5 5 4\n2.5 2.5 2.5\n")
        code = run_cli(
            "dopmap", "--config", fast_ini, "--out", str(tmp_path), "--layout", str(layout)
        )
        assert code == 0
        data = (tmp_path / "dopmap.csv").read_bytes()
        assert b"\n2.5,2.5,2.5,nan,nan,nan\r\n" in data
        assert hashlib.sha256(data).hexdigest() == (
            "4be1f5440effa7ce09754f2a0f137630b864fb97849629322ebf9181387d62a8"
        )


class TestFlags:
    def test_layout_override(self, fast_ini, tmp_path):
        out = tmp_path / "opt_layout"
        code = run_cli(
            "simulate", "--config", fast_ini, "--out", str(out), "--layout", "optimized"
        )
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["layout"] == "optimized"

    def test_trials_and_seed_override(self, fast_ini, tmp_path):
        out = tmp_path / "ov"
        code = run_cli(
            "simulate",
            "--config",
            fast_ini,
            "--out",
            str(out),
            "--trials",
            "4",
            "--seed",
            "11",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_trials"] == 4
        assert summary["seed"] == 11

    def test_dense_multipath_taps_run(self, tmp_path):
        ini = tmp_path / "taps.ini"
        ini.write_text("[waveform]\nburst_bits = 8\n\n[channel]\ntaps_per_beacon = 14\n")
        code = run_cli(
            "simulate", "--config", str(ini), "--out", str(tmp_path), "--trials", "3"
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_trials"] == 3

    def test_defaults_without_config(self, tmp_path):
        out = tmp_path / "defaults"
        assert run_cli("dopmap", "--out", str(out)) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--trials", "3"],
            ["optimize", "--layout", "original"],
            ["dopmap", "--seed", "7"],
            ["dopmap", "--trials", "3"],
            ["trajectory", "--trials", "3"],
        ],
        ids=" ".join,
    )
    def test_flag_a_command_ignores_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.err.startswith("usage: ")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--config", "a.ini", "--seed", "1", "--out", "o", "--trials", "8"],
            ["optimize", "--seed", "1", "--out", "o"],
            ["simulate", "--config", "a.ini", "--seed", "1", "--out", "o", "--trials", "2",
             "--layout", "optimized"],
            ["trajectory", "--config", "a.ini", "--seed", "1", "--out", "o", "--layout", "x"],
            ["rangetest", "--config", "a.ini", "--seed", "1", "--out", "o", "--trials", "2",
             "--layout", "x"],
            ["dopmap", "--config", "a.ini", "--out", "o", "--layout", "original"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_read_flag_parses(self, argv):
        args = _build_parser().parse_args(argv)
        assert args.command == argv[0] and args.out == "o"


class TestErrorPaths:
    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nbogus_key = 1\n")
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code != 0
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_layout_nonzero_exit(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--layout", "missing-file.json", "--out", str(tmp_path)
        )
        assert code != 0

    @pytest.mark.parametrize(
        "ini",
        [
            "[run]\nfix_spacing = 0\n",
            "[run]\ndomain_grid = 0\n",
            "[placement]\npopulation = 3\n",
            "[channel]\ntaps_per_beacon = 40\n",
            "[fusion]\necho_noise_std = -1e-5\n",
            "[fusion]\nenabled = true\nauto_weights = true\necho_noise_std = 0\n",
            "[channel]\ndecay_time = 0\n",
            "[channel]\ndecay_time = -1e-3\n",
            "[channel]\ndecay_time = nan\n",
            "[waveform]\nwalsh_order = 5\n",
            "[waveform]\nchannel_bandwidth = 6000\n",
            "[waveform]\ncenter_frequencies =\n",
            "[waveform]\ncenter_frequencies = 22500\nhop_reuse_window = 2\n",
            "[scene]\nroom = 4.6, 4.6, 3.5\n",
            "[placement]\nmax_restarts = -1\n",
            "[placement]\nparents = 0\n",
            "[placement]\nmutation_rate = -0.5\n",
            "[run]\ntrajectory_waypoints = 0\n",
            "[run]\nseed = -1\n",
        ],
        ids=[
            "fix_spacing",
            "domain_grid",
            "population",
            "taps_per_beacon",
            "echo_noise_std_negative",
            "echo_noise_std_zero_auto_weights",
            "decay_time_zero",
            "decay_time_negative",
            "decay_time_nan",
            "walsh_order",
            "channel_bandwidth",
            "no_channels",
            "one_channel_reuse_window",
            "layout_outside_room",
            "max_restarts",
            "parents_zero",
            "mutation_rate",
            "trajectory_waypoints",
            "seed",
        ],
    )
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, ini):
        bad = tmp_path / "bad.ini"
        bad.write_text(ini)
        code = run_cli("trajectory", "--config", str(bad), "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "trajectory.csv").exists()

    def test_negative_seed_override_is_one_error_line(self, fast_ini, tmp_path, capsys):
        code = run_cli(
            "simulate", "--config", fast_ini, "--out", str(tmp_path), "--seed", "-1"
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: command line: seed must be non-negative\n"
        assert captured.out == ""
        assert not (tmp_path / "trials.csv").exists()

    @pytest.mark.parametrize("text", ["a b c\n", '{"a": 1}'], ids=["words", "json_object"])
    def test_unparsable_layout_file_is_one_error_line(self, tmp_path, capsys, text):
        layout = tmp_path / "bad-layout.txt"
        layout.write_text(text)
        code = run_cli("simulate", "--layout", str(layout), "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: layout file ")
        assert "bad-layout.txt" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command,name",
        [
            ("simulate", "trials.csv"),
            ("sweep", "trials.csv"),
            ("trajectory", "trajectory.csv"),
            ("rangetest", "rangetest.csv"),
        ],
    )
    def test_all_trials_failed_is_one_error_line(
        self, fast_ini, tmp_path, capsys, command, name
    ):
        layout = tmp_path / "coplanar.txt"
        layout.write_text("0.5 0.5 2\n4.5 0.5 2\n4.5 4.5 2\n0.5 4.5 2\n")
        code = run_cli(
            command, "--config", fast_ini, "--out", str(tmp_path), "--layout", str(layout)
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: all ")
        assert "SingularGeometryError" in captured.err
        assert captured.err.count("\n") == 1
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["failed"] == "1" for r in rows)

    @pytest.mark.parametrize("command", ["simulate", "sweep", "trajectory"])
    def test_all_trials_failed_summary_is_strict_json(self, fast_ini, tmp_path, command):
        layout = tmp_path / "coplanar.txt"
        layout.write_text("0.5 0.5 2\n4.5 0.5 2\n4.5 4.5 2\n0.5 4.5 2\n")
        code = run_cli(
            command, "--config", fast_ini, "--out", str(tmp_path), "--layout", str(layout)
        )
        assert code == 1
        summary = strict_json(tmp_path / "summary.json")
        rows = summary.get("rows", [summary])
        assert rows and all(row["mean_err_3d"] is None for row in rows)

    def test_placement_json_is_strict_json(self, fast_ini, tmp_path):
        assert run_cli("optimize", "--config", fast_ini, "--out", str(tmp_path)) == 0
        record = strict_json(tmp_path / "placement.json")
        assert math.isfinite(record["vdop_avg"]) and math.isfinite(record["hdop_avg"])

    def test_ceiling_only_layout_still_maps_dop(self, fast_ini, tmp_path):
        # coplanar beacons cannot trilaterate, yet their DOP is finite below
        # the ceiling, so dopmap must not reject the layout
        layout = tmp_path / "ceiling.txt"
        layout.write_text("0.5 0.5 4\n4.5 0.5 4\n4.5 4.5 4\n0.5 4.5 4\n")
        code = run_cli("dopmap", "--out", str(tmp_path), "--layout", str(layout))
        assert code == 0
        with open(tmp_path / "dopmap.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 486
        assert "nan" not in {r[k] for r in rows for k in ("hdop", "vdop", "gdop")}

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
    def test_out_naming_a_file_is_one_error_line(self, fast_ini, tmp_path, capsys, sub):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile / sub if sub else afile
        code = run_cli("dopmap", "--config", fast_ini, "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: cannot use {out} as output directory: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert afile.read_text() == "keep"

    def test_zero_trials_override_is_one_error_line(self, fast_ini, tmp_path, capsys):
        code = run_cli(
            "simulate", "--config", fast_ini, "--out", str(tmp_path), "--trials", "0"
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: command line: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "trials.csv").exists()
