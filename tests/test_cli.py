import csv
import hashlib
import json
import math

import numpy as np
import pytest

from ultraloc import harness
from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, SPEED_OF_SOUND
from ultraloc.cli import _build_parser, main
from ultraloc.config import MAX_FIX_SAMPLES, MAX_FIXES, MAX_LATTICE_POINTS
from ultraloc.placement import MAX_SEARCH_LAYOUTS
from ultraloc.waveform import SAMPLE_RATE

FAST_INI = """
[waveform]
burst_bits = 8

[channel]
snr_db = none
taps_per_beacon = 0

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
        assert summary["n_trials"] >= 1

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


FIVE_BEACONS = "2.5 0 1.5\n5 2.5 2.5\n2.5 5 2\n0 5 3\n2.5 2.5 4\n"  # original + mid-ceiling


def five_beacon_ini(tmp_path, walsh_order):
    """FAST_INI on the five-beacon layout at a walsh_order."""
    layout = tmp_path / "five.txt"
    layout.write_text(FIVE_BEACONS)
    path = tmp_path / f"five-{walsh_order}.ini"
    waveform = f"[waveform]\nwalsh_order = {walsh_order}\n"
    path.write_text(FAST_INI.replace("[waveform]\n", waveform) + f"\n[scene]\nlayout = {layout}\n")
    return str(path)


class TestFiveBeacons:
    """A layout's row count is its beacon count, from the config to every output."""

    @pytest.mark.parametrize(
        "command,name",
        [("simulate", "trials.csv"), ("sweep", "trials.csv"), ("trajectory", "trajectory.csv")],
    )
    def test_trial_commands_write_a_column_per_beacon(self, tmp_path, command, name):
        out = tmp_path / "out"
        assert run_cli(command, "--config", five_beacon_ini(tmp_path, 8), "--out", str(out)) == 0
        with open(out / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["failed"] == "0" for r in rows)
        assert [k for k in rows[0] if k.startswith(("range_err_", "peak_"))] == [
            *(f"range_err_{i}" for i in range(5)),
            *(f"peak_{i}" for i in range(5)),
        ]
        assert all(abs(float(r["range_err_4"])) < 0.01 for r in rows)

    def test_rangetest_writes_a_row_per_beacon(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("rangetest", "--config", five_beacon_ini(tmp_path, 8), "--out", str(out)) == 0
        with open(out / "rangetest.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["trial_id"], r["beacon"]) for r in rows] == [
            (str(k), str(i)) for k in range(2) for i in range(5)
        ]

    def test_dopmap_maps_five_beacons(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("dopmap", "--config", five_beacon_ini(tmp_path, 8), "--out", str(out)) == 0
        with open(out / "dopmap.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 5 * 3
        assert all(math.isfinite(float(r["gdop"])) for r in rows)

    @pytest.mark.parametrize("command", ["simulate", "dopmap"])
    def test_walsh_order_below_the_count_is_one_error_line(self, tmp_path, capsys, command):
        ini = five_beacon_ini(tmp_path, 4)
        out = tmp_path / "out"
        assert run_cli(command, "--config", ini, "--out", str(out)) == 1
        captured = capsys.readouterr()
        message = "[waveform] walsh_order must be at least 5 to separate the layout's 5 beacons"
        assert captured.err == f"error: {ini}: {message}\n"
        assert not out.exists()

    def test_three_beacon_layout_is_one_error_line(self, tmp_path, capsys):
        layout = tmp_path / "three.txt"
        layout.write_text("".join(FIVE_BEACONS.splitlines(keepends=True)[:3]))
        out = tmp_path / "out"
        assert run_cli("dopmap", "--layout", str(layout), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layout file ") and "at least 4 beacons" in err
        assert err.count("\n") == 1 and not out.exists()


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


# FAST_INI runs no taps and no noise; this run takes the default taps, noise
# at 15 dB and distance attenuation, so their bytes are pinned too.
CHANNEL_INI = """
[waveform]
burst_bits = 8

[channel]
snr_db = 15
distance_attenuation = true

[run]
trials = 4
seed = 3
"""

CHANNEL_GOLDEN = {
    "trials.csv": "666f005c327ba80f4f9a67898d6a28501024bd03133016290ca9f1d0048a66ef",
    "summary.json": "f1607f04da74c078ce023b87aeabf31477043176f22da5b95b07c9df1fa78e53",
}


class TestChannelGoldenBytes:
    def test_simulate_bytes_with_taps_noise_and_attenuation(self, tmp_path):
        ini = tmp_path / "channel.ini"
        ini.write_text(CHANNEL_INI)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(ini), "--out", str(out)) == 0
        for name, digest in CHANNEL_GOLDEN.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_plus_inf_snr_is_noiseless(self, tmp_path):
        # +inf and none name one noiseless channel: the same bytes, down to
        # the empty snr_db cells
        outputs = []
        for snr in ("none", "+inf"):
            ini = tmp_path / f"{snr}.ini"
            ini.write_text(FAST_INI.replace("snr_db = none", f"snr_db = {snr}"))
            out = tmp_path / snr
            assert run_cli("simulate", "--config", str(ini), "--out", str(out)) == 0
            outputs.append([(out / name).read_bytes() for name in ("trials.csv", "summary.json")])
        assert outputs[0] == outputs[1]


# Fused runs: the echo draw, the obstruction draw and both weight rules.
# A simulate with the fixed weight w1 and obstructed echoes, and a sweep
# with inverse-variance weights on the optimized layout.
FUSED_FIXED_INI = """
[waveform]
burst_bits = 8

[fusion]
enabled = true
obstruction_prob = 0.3

[run]
trials = 6
seed = 3
"""

FUSED_AUTO_INI = """
[waveform]
burst_bits = 8

[scene]
layout = optimized

[fusion]
enabled = true
auto_weights = true

[run]
trials = 3
seed = 3
snr_list = 0, 20
"""

FUSION_GOLDEN = {
    ("simulate", "trials.csv"): "cccacdeee83e2b0b08442d12da025fd53500de404789a680322968e62db2e14f",
    ("simulate", "summary.json"): "6e2bef2037c0a025e1a7d40404970ec94b1c40b31e4a2fe44d562a5405e13f8b",
    ("sweep", "trials.csv"): "9d8e3e61736b98427a507b23741bf107b4a8e025ee2ffe85f3e2e2084ed261e9",
    ("sweep", "sweep.csv"): "6c652cd644c231164648c3c30fa9fa3a4c24fa2ae905cf004b62f0aa0816c681",
}


class TestFusionGoldenBytes:
    @pytest.mark.parametrize(
        "command,ini", [("simulate", FUSED_FIXED_INI), ("sweep", FUSED_AUTO_INI)]
    )
    def test_fused_bytes(self, tmp_path, command, ini):
        path = tmp_path / "fused.ini"
        path.write_text(ini)
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path)) == 0
        for (cmd, name), digest in FUSION_GOLDEN.items():
            if cmd == command:
                assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_placement_json_bytes(self, fast_ini, tmp_path):
        assert run_cli("optimize", "--config", fast_ini, "--out", str(tmp_path)) == 0
        assert hashlib.sha256((tmp_path / "placement.json").read_bytes()).hexdigest() == (
            "de1d54103409d95c0864f1328ebbc0ffd6517d6a706b1cc2441c27963ea50747"
        )


# sha256 of (placement.json, history.csv) from `optimize --seed k` with no
# config: the default 50/40/100 search, whose generations (unlike FAST_INI's)
# often breed only copies of their survivors.
DEFAULT_SEARCH_GOLDEN = {
    0: (
        "6e874d4eff5f0e09b36fe4e342fd71ad6c442376367d3e8b2259f3802e0ca0b6",
        "fb1d06908afe834238bb2e5da31c727a0723b1f6185d2b5fe47a754836d8fa50",
    ),
    1: (
        "c4c3c56879cf595c52bd6cdc3986d511e15b1a2686f9bef91c1a4f6874317a79",
        "dbe44f26b04cea1c0426e51ca1ad31c70b772c2bbd489eb5715e5a8c8291e53d",
    ),
    2: (
        "fdf6c50fe24cb827751ff624acc5988f25fa483d409bfdc8b6858930e3738a93",
        "e3083c9b120b503917e2bb6d63b3963cfecd1f030f3847f2a6f01323da9f1a36",
    ),
    3: (
        "759981d2740c87e38fabc26f9284fa73223b15cac9d66810187750cb4abf2e5c",
        "c88a2c196efda384a98344ccb3f15e56d14790f20b80defcad7693bffe5e9eb6",
    ),
}


class TestDefaultSearchGoldenBytes:
    @pytest.mark.parametrize("seed", sorted(DEFAULT_SEARCH_GOLDEN))
    def test_optimize_bytes(self, tmp_path, seed):
        assert run_cli("optimize", "--seed", str(seed), "--out", str(tmp_path)) == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("placement.json", "history.csv")
        )
        assert got == DEFAULT_SEARCH_GOLDEN[seed]


class TestFlags:
    def test_layout_override(self, fast_ini, tmp_path):
        out = tmp_path / "opt_layout"
        code = run_cli(
            "simulate", "--config", fast_ini, "--out", str(out), "--layout", "optimized"
        )
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["layout"] == "optimized"

    def test_optimize_output_is_a_layout(self, tmp_path):
        # the paper's flow: search a placement, then localize with it
        ini = tmp_path / "search.ini"
        ini.write_text("[placement]\npopulation = 6\nparents = 4\niterations = 2\n")
        placement = tmp_path / "opt" / "placement.json"
        assert run_cli("optimize", "--config", str(ini), "--out", str(placement.parent)) == 0
        beacons = np.array(json.loads(placement.read_text())["beacons"])
        out = tmp_path / "sim"
        code = run_cli(
            "simulate", "--layout", str(placement), "--trials", "2", "--out", str(out)
        )
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["layout"] == str(placement)
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            # every correlation peak sits at the direct delay from an EA beacon
            true = np.array([float(row[f"true_{axis}"]) for axis in "xyz"])
            peaks = np.array([int(row[f"peak_{b}"]) for b in range(4)])
            samples = SAMPLE_RATE / SPEED_OF_SOUND
            assert np.all(abs(peaks - np.linalg.norm(beacons - true, axis=1) * samples) <= 1)
            from_original = np.linalg.norm(ORIGINAL_LAYOUT.positions - true, axis=1) * samples
            assert np.any(abs(peaks - from_original) > 1)

    def test_summary_records_the_beacons_that_ran(self, fast_ini, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        argv = ("simulate", "--config", fast_ini, "--trials", "3")
        assert run_cli(*argv, "--layout", "optimized", "--out", str(first)) == 0
        summary = json.loads((first / "summary.json").read_text())
        assert summary["layout"] == "optimized"
        assert summary["beacons"] == OPTIMIZED_LAYOUT.positions.tolist()
        # the summary is itself a layout file: the same placement runs again
        assert run_cli(*argv, "--layout", str(first / "summary.json"), "--out", str(again)) == 0

        def peaks(out):
            with open(out / "trials.csv", newline="") as fh:
                return [[row[f"peak_{b}"] for b in range(4)] for row in csv.DictReader(fh)]

        assert peaks(again) == peaks(first)
        assert json.loads((again / "summary.json").read_text())["beacons"] == summary["beacons"]

    def test_trajectory_summary_records_the_beacons(self, fast_ini, tmp_path):
        assert run_cli("trajectory", "--config", fast_ini, "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["beacons"] == ORIGINAL_LAYOUT.positions.tolist()

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
        # trajectory takes --seed (not --trials) and records it the same way
        code = run_cli("trajectory", "--config", fast_ini, "--out", str(out), "--seed", "11")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "trajectory.csv", newline="") as fh:
            assert summary["n_trials"] == len(list(csv.DictReader(fh))) >= 1
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

    def test_one_parser_serves_every_call_as_a_fresh_one_would(self, fast_ini, tmp_path, capsys):
        # main builds its parser once a process; no call may see another's flags
        calls = [
            ("optimize", "--config", fast_ini, "--seed", "5"),
            ("optimize", "--config", fast_ini),
            ("dopmap", "--config", fast_ini, "--layout", "optimized"),
            ("dopmap", "--config", fast_ini),
            ("simulate", "--config", fast_ini, "--trials", "1", "--seed", "4", "--layout", "optimized"),
            ("simulate", "--config", fast_ini),
        ]

        def run(k, argv):
            out = tmp_path / f"call-{k}"  # the same path each time: stdout names it
            assert run_cli(*argv, "--out", str(out)) == 0
            return capsys.readouterr().out, {f.name: f.read_bytes() for f in out.iterdir()}

        assert _build_parser() is _build_parser()
        together = [run(k, argv) for k, argv in enumerate(calls)]
        with pytest.raises(SystemExit) as exc:
            run_cli("optimize", "--trials", "3", "--out", str(tmp_path / "usage"))
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials 3" in capsys.readouterr().err
        assert run(1, calls[1]) == together[1]
        alone = []
        for k, argv in enumerate(calls):
            _build_parser.cache_clear()
            alone.append(run(k, argv))
        assert together == alone
        assert json.loads(together[0][1]["placement.json"])["seed"] == 5
        assert json.loads(together[1][1]["placement.json"])["seed"] == 3  # the config's
        assert together[2][1]["dopmap.csv"] != together[3][1]["dopmap.csv"]
        summary = json.loads(together[5][1]["summary.json"])
        assert (summary["n_trials"], summary["seed"], summary["layout"]) == (2, 3, "original")

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
            "[waveform]\nwalsh_order = 1048576\n",
            "[waveform]\nchannel_bandwidth = 6000\n",
            "[waveform]\ncenter_frequencies = 22500, 25000\nhop_reuse_window = 0\n",
            "[fusion]\nw2 = 0.8\n",
            "[fusion]\nw1 = 1.5\n",
            "[waveform]\ncenter_frequencies =\n",
            "[waveform]\ncenter_frequencies = 22500\nhop_reuse_window = 2\n",
            "[scene]\nroom = 4.6, 4.6, 3.5\n",
            "[placement]\nmax_restarts = -1\n",
            "[placement]\nparents = 0\n",
            "[placement]\nmutation_rate = -0.5\n",
            "[run]\ntrajectory_waypoints = 0\n",
            "[run]\nseed = -1\n",
            "[channel]\nexcess_delay_min = 1e-20\nexcess_delay_max = 1e-19\ntaps_per_beacon = 1\n",
            "[channel]\nsnr_db = 4000\n",
            "[channel]\nsnr_db = -4000\n",
            "[channel]\nsnr_db = -3100\n",
            "[run]\nsnr_list = 0, -4000\n",
            "[channel]\nfirst_tap_db = 4000\n",
            "[channel]\nspeed_of_sound = -1\n",
            "[channel]\nexcess_delay_min = 0.02\n",
            "[channel]\ntaps_per_beacon = -1\n",
            "[fusion]\nenabled = true\nauto_weights = true\necho_noise_std = 1e-200\n",
            "[fusion]\nenabled = true\nauto_weights = true\n\n[channel]\nspeed_of_sound = 1e300\n",
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
            "walsh_order_huge",
            "channel_bandwidth",
            "overlapping_channels",
            "w2",
            "w1_above_one",
            "no_channels",
            "one_channel_reuse_window",
            "layout_outside_room",
            "max_restarts",
            "parents_zero",
            "mutation_rate",
            "trajectory_waypoints",
            "seed",
            "excess_delay_below_one_sample",
            "snr_db_overflows",
            "snr_db_underflows",
            "snr_db_infinite_noise",
            "snr_list_entry",
            "first_tap_db_overflows",
            "speed_of_sound_negative",
            "excess_delay_min_above_max",
            "taps_per_beacon_negative",
            "auto_weights_echo_variance_underflows",
            "auto_weights_range_variance_overflows",
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

    @pytest.mark.parametrize(
        "command, ini, message",
        [
            ("simulate", "[channel]\nsnr_db = 4000\n", "[channel] snr_db must lie in [-1000, 1000] dB, got 4000"),
            ("simulate", "[channel]\nsnr_db = -4000\n", "[channel] snr_db must lie in [-1000, 1000] dB, got -4000"),
            ("simulate", "[channel]\nsnr_db = -3100\n", "[channel] snr_db must lie in [-1000, 1000] dB, got -3100"),
            (
                "sweep",
                "[run]\nsnr_list = 0, -4000\n",
                "[run] snr_list: snr_db must lie in [-1000, 1000] dB, got -4000",
            ),
        ],
        ids=["overflow", "underflow", "infinite_noise", "sweep_entry"],
    )
    def test_extreme_snr_is_one_error_line_naming_its_key(self, tmp_path, capsys, command, ini, message):
        # noise powers of 10**(snr_db / 10) that overflow or reach zero are
        # config errors, not a traceback from the first trial
        bad = tmp_path / "s.ini"
        bad.write_text(ini)
        code = run_cli(command, "--config", str(bad), "--trials", "2", "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {bad}: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "ini, std, square, keys",
        [
            (
                "[fusion]\nenabled = true\nauto_weights = true\necho_noise_std = 1e-200\n",
                "1.715e-198", "0", "[channel] speed_of_sound or [fusion] echo_noise_std",
            ),
        ],
        ids=["echo_noise_std"],
    )
    def test_auto_weight_variance_out_of_range_is_one_error_line(
        self, tmp_path, capsys, ini, std, square, keys
    ):
        # each square was a traceback from the first fused fix: a ValueError
        # from inverse_variance_weights, or an OverflowError
        bad = tmp_path / "fused.ini"
        bad.write_text(ini)
        code = run_cli("simulate", "--config", str(bad), "--trials", "2", "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: {bad}: [fusion] auto_weights squares a {std} m range error to {square}, "
            f"not a positive finite variance; change {keys}\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "ini",
        [
            "[channel]\nspeed_of_sound = 1e300\n",
            "[fusion]\nenabled = true\nauto_weights = true\n\n[channel]\nspeed_of_sound = 1e300\n",
        ],
        ids=["plain", "auto_weights"],
    )
    def test_speed_of_sound_above_any_gas_is_one_error_line(self, tmp_path, capsys, ini):
        # simulate used to run it to a 2.38 m mean error and exit 0; with
        # auto weights it overflowed the grid's squared range error
        bad = tmp_path / "fast.ini"
        bad.write_text(ini)
        code = run_cli("simulate", "--config", str(bad), "--trials", "2", "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: {bad}: [channel] speed of sound must be positive and at most 2000 m/s, "
            "got 1e+300\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_tiny_fix_spacing_is_one_error_line(self, tmp_path, capsys):
        # counted, not built: 1e-300 m steps used to append points until memory ran out
        bad = tmp_path / "dense.ini"
        bad.write_text("[run]\nfix_spacing = 1e-300\n")
        code = run_cli("trajectory", "--config", str(bad), "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: the trajectory would hold more than the {MAX_FIXES} fixes "
            "allowed; raise [run] fix_spacing\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "command,ini,run,keys",
        [
            ("simulate", "[run]\ntrials = 3\n", "simulation", "lower [run] trials"),
            ("rangetest", "[run]\ntrials = 3\n", "simulation", "lower [run] trials"),
            (
                "sweep",
                "[run]\ntrials = 1\nsnr_list = 0 5 10\n",
                "sweep",
                "lower [run] trials or shorten [run] snr_list",
            ),
            (
                "trajectory",
                "[run]\ntrajectory_waypoints = 3\n",
                "trajectory",
                "lower [run] trajectory_waypoints",
            ),
        ],
        ids=["simulate", "rangetest", "sweep", "trajectory"],
    )
    def test_fix_limit_is_one_error_line(self, tmp_path, capsys, monkeypatch, command, ini, run, keys):
        # one fix over a limit lowered to 2 stands for 10**9 trials or waypoints
        # at 2**16: rejected before a job or corner exists, so nothing is allocated
        monkeypatch.setattr(harness, "MAX_FIXES", 2)
        bad = tmp_path / "many.ini"
        bad.write_text(ini)
        code = run_cli(command, "--config", str(bad), "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: the {run} would hold more than the 2 fixes allowed; {keys}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "ini, layouts",
        [
            ("[placement]\npopulation = 1000000\n", 11 * (10**6 + 100 * 20)),
            ("[placement]\npopulation = 1000000000\n", 11 * (10**9 + 100 * 20)),
            (
                "[placement]\nmax_restarts = 1000000000\nhdop_tolerance = 0.01\n",
                (10**9 + 1) * (50 + 100 * 20),
            ),
        ],
        ids=["population_million", "population_billion", "max_restarts_billion"],
    )
    def test_search_limit_is_one_error_line(self, tmp_path, capsys, ini, layouts):
        # each ran past a timeout with no output: counted when [placement] is made
        bad = tmp_path / "search.ini"
        bad.write_text(ini)
        code = run_cli("optimize", "--config", str(bad), "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: {bad}: [placement] a search would breed and score up to {layouts} layouts, "
            f"more than the {MAX_SEARCH_LAYOUTS} allowed; lower max_restarts, population or "
            "iterations\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "ini",
        [
            "[channel]\nexcess_delay_max = 1e6\n",
            "[waveform]\nsymbol_duration = 1e4\n",
            "[waveform]\nburst_bits = 100000000\n",
        ],
        ids=["excess_delay_max", "symbol_duration", "burst_bits"],
    )
    def test_oversized_fix_is_one_error_line(self, tmp_path, capsys, ini):
        # rejected by its sample count before any array of that length is built
        bad = tmp_path / "big.ini"
        bad.write_text(ini)
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {bad}: one fix would receive ")
        assert f"samples, more than the {MAX_FIX_SAMPLES} allowed" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "trials.csv").exists()

    @pytest.mark.parametrize("grid, n_points", [("0.001", 4001 * 4001 * 2501), ("0.03", 1508304)])
    def test_oversized_drone_lattice_is_one_error_line(self, tmp_path, capsys, grid, n_points):
        # counted, not built: a 0.001 m lattice would need a 298 GiB meshgrid
        bad = tmp_path / "fine.ini"
        bad.write_text(f"[run]\ndomain_grid = {grid}\n")
        code = run_cli("dopmap", "--config", str(bad), "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {bad}: the drone-domain lattice would hold ")
        assert f" {n_points} points, more than the {MAX_LATTICE_POINTS} allowed" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "dopmap.csv").exists()

    def test_oversized_beacon_lattice_is_one_error_line(self, tmp_path, capsys):
        # counted, not built: a 0.0001 m beacon lattice would need a 55.9 GiB array
        bad = tmp_path / "fine.ini"
        bad.write_text("[placement]\nbeacon_grid = 0.0001\n")
        code = run_cli("optimize", "--config", str(bad), "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        n_points = 50001 * 50001 + 2 * 20001 * (50001 + 50001)
        assert captured.err == (
            f"error: {bad}: the beacon lattice would hold {n_points} points, more than the "
            f"{MAX_LATTICE_POINTS} allowed; raise [placement] beacon_grid\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "placement.json").exists()

    def test_symbol_shorter_than_one_sample_is_one_error_line(self, tmp_path, capsys):
        # 1e-15 s * 340 kHz rounds to 0 samples: a config error, not an empty burst
        bad = tmp_path / "short.ini"
        bad.write_text("[waveform]\nsymbol_duration = 1e-15\n")
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {bad}: [waveform] ")
        assert "shorter than one sample" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "trials.csv").exists()

    @pytest.mark.parametrize(
        "command", ["simulate", "sweep", "trajectory", "optimize", "dopmap", "rangetest"]
    )
    def test_huge_walsh_order_is_one_error_line(self, tmp_path, capsys, command):
        # rejected by its code length before a 2**20-square Walsh matrix (8 TiB) is built
        bad = tmp_path / "walsh.ini"
        bad.write_text("[waveform]\nwalsh_order = 1048576\n")
        code = run_cli(command, "--config", str(bad), "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: {bad}: [waveform] 680 samples/symbol not divisible by code length 1048576\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_negative_min_separation_is_one_error_line(self, tmp_path, capsys):
        # it searched as if 0 were given and wrote a layout
        bad = tmp_path / "sep.ini"
        bad.write_text("[placement]\nmin_separation = -1\n")
        code = run_cli("optimize", "--config", str(bad), "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {bad}: [placement] min_separation must be non-negative\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

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

    def test_non_utf8_config_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"\xff\xfe[run]\n")
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {bad}: not UTF-8 text")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command,name", [("simulate", "trials.csv"), ("optimize", "placement.json")]
    )
    def test_output_file_naming_a_directory_is_one_error_line(
        self, fast_ini, tmp_path, capsys, command, name
    ):
        (tmp_path / name).mkdir()
        code = run_cli(command, "--config", fast_ini, "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: cannot write {tmp_path / name}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_config_naming_a_directory_is_one_error_line(self, tmp_path, capsys):
        code = run_cli("dopmap", "--config", str(tmp_path), "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: config path is a directory, not a file: {tmp_path}\n"
        assert captured.out == ""

    def test_two_bad_overrides_report_the_first_rule_they_break(self, fast_ini, tmp_path, capsys):
        # the overrides are applied in one replace and checked once, in rule order
        code = run_cli(
            "simulate", "--config", fast_ini, "--out", str(tmp_path), "--seed", "-1", "--trials", "0"
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: command line: trials must be positive\n"
        assert captured.out == ""

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
