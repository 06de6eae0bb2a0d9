import math
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ultraloc import channel as channel_mod
from ultraloc import config as cfg_mod
from ultraloc import fusion, placement
from ultraloc import waveform as wf
from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT
from ultraloc.errors import ConfigError


def write(tmp_path, text, name="sim.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_default_config_is_valid(self):
        cfg = cfg_mod.SimConfig()
        assert cfg == cfg_mod.default_config()
        assert cfg.scene.layout is ORIGINAL_LAYOUT
        assert cfg.waveform.sample_rate == 340_000.0
        assert len(cfg.waveform.center_frequencies) == 6

    def test_drone_domain_from_config(self):
        domain = cfg_mod.default_config().drone_domain()
        assert domain.points().shape[0] == 486

    def test_module_sections_are_the_modules_own_objects(self):
        sections = get_type_hints(cfg_mod.SimConfig)
        assert sections["waveform"] is wf.WaveformConfig
        assert sections["channel"] is channel_mod.ChannelConfig
        assert sections["fusion"] is fusion.FusionConfig
        assert sections["placement"] is placement.PlacementConfig

    @pytest.mark.parametrize(
        "ini, match",
        [
            ("[waveform]\nwalsh_order = 2\n", "[waveform] walsh_order must be at least 4 to separate"),
            ("[waveform]\nburst_bits = 0\n", "[waveform] burst_bits must be positive"),
            ("[fusion]\nobstruction_prob = 1.5\n", "[fusion] obstruction_prob must be a probability"),
            ("[placement]\niterations = 0\n", "[placement] need at least one iteration"),
            ("[placement]\nbeacon_grid = 0\n", "[placement] beacon_grid must be positive"),
            ("[placement]\nvdop_tolerance = -1\n", "[placement] tolerances must be positive"),
        ],
        ids=["walsh_order", "burst_bits", "obstruction_prob", "iterations", "beacon_grid", "vdop"],
    )
    def test_section_rule_is_reported_with_its_section(self, tmp_path, ini, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            cfg_mod.load_config(write(tmp_path, ini))


class TestLoadConfig:
    def test_roundtrip_overrides(self, tmp_path):
        path = write(
            tmp_path,
            """
[scene]
layout = optimized

[waveform]
burst_bits = 8

[channel]
snr_db = none
taps_per_beacon = 0

[run]
trials = 3
seed = 77
snr_list = 0, 10, 20
""",
        )
        cfg = cfg_mod.load_config(path)
        assert np.array_equal(
            cfg.scene.layout.positions, OPTIMIZED_LAYOUT.positions
        )
        assert cfg.waveform.burst_bits == 8
        assert cfg.channel.snr_db is None
        assert cfg.channel.taps_per_beacon == 0
        assert cfg.run.trials == 3
        assert cfg.run.snr_list == (0.0, 10.0, 20.0)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[typo]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section \[typo\]"):
            cfg_mod.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[run]\ntrails = 5\n")
        with pytest.raises(ConfigError, match="unknown key 'trails'"):
            cfg_mod.load_config(path)

    def test_bad_value_reported_with_key(self, tmp_path):
        path = write(tmp_path, "[run]\ntrials = many\n")
        with pytest.raises(ConfigError, match="bad value for 'trials'"):
            cfg_mod.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            cfg_mod.load_config(tmp_path / "nope.ini")

    def test_nyquist_violation_rejected(self, tmp_path):
        path = write(tmp_path, "[waveform]\nsample_rate = 90000\n")
        with pytest.raises(ConfigError, match="Nyquist"):
            cfg_mod.load_config(path)

    def test_chip_misalignment_rejected(self, tmp_path):
        path = write(tmp_path, "[waveform]\nsymbol_duration = 0.0020001\n")
        with pytest.raises(ConfigError, match="whole number of samples"):
            cfg_mod.load_config(path)

    def test_long_walsh_order_validates_without_the_full_matrix(self, tmp_path):
        # 524288 samples a symbol, coded by the order-524288 matrix: its 2**38
        # entries would need 2 TiB; the one row validation codes with needs
        # 4 MiB, and the whole build peaked at 16.5 MiB on numpy 2.4
        path = write(
            tmp_path,
            "[waveform]\nsample_rate = 30000000\nsymbol_duration = 0.017476266666666667\n"
            "walsh_order = 524288\nburst_bits = 1\n",
        )
        wf.walsh_rows.cache_clear()
        tracemalloc.start()
        try:
            cfg_mod.load_config(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_domain_outside_room_rejected(self, tmp_path):
        path = write(tmp_path, "[run]\ndomain_z = 0.5, 4.5\n")
        with pytest.raises(ConfigError, match="inside the room"):
            cfg_mod.load_config(path)

    def test_lone_w1_loads(self, tmp_path):
        # the rangefinder height takes the rest of the weight, 1 - w1
        path = write(tmp_path, "[fusion]\nw1 = 0.5\n")
        assert cfg_mod.load_config(path).fusion.w1 == 0.5

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe[run]\n")
        with pytest.raises(ConfigError, match=r"bad\.ini: not UTF-8 text"):
            cfg_mod.load_config(path)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        # every value the example spells out is the default
        assert cfg_mod.load_config(write(tmp_path, block)) == cfg_mod.default_config()

    def test_max_doppler_is_an_unknown_key(self, tmp_path):
        # the channel has no Doppler model, so there is no such knob
        path = write(tmp_path, "[channel]\nmax_doppler = 50\n")
        with pytest.raises(ConfigError, match="unknown key 'max_doppler'"):
            cfg_mod.load_config(path)


# every recognized key, by section: the schema is derived from the section
# dataclasses, so a field added or renamed there shows up here
KEYS = {
    "scene": ["layout", "room"],
    "waveform": [
        "burst_bits",
        "carrier_phase",
        "center_frequencies",
        "hop_reuse_window",
        "sample_rate",
        "symbol_duration",
        "walsh_order",
    ],
    "channel": [
        "decay_time",
        "distance_attenuation",
        "excess_delay_max",
        "excess_delay_min",
        "first_tap_db",
        "snr_db",
        "speed_of_sound",
        "taps_per_beacon",
    ],
    "fusion": ["auto_weights", "echo_noise_std", "enabled", "obstruction_prob", "w1"],
    "placement": [
        "beacon_grid",
        "hdop_tolerance",
        "iterations",
        "max_restarts",
        "min_separation",
        "parents",
        "population",
        "vdop_tolerance",
    ],
    "run": [
        "domain_grid",
        "domain_x",
        "domain_y",
        "domain_z",
        "fix_spacing",
        "seed",
        "snr_list",
        "trajectory_waypoints",
        "trials",
    ],
}


def _sorted_pair(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(lambda p: tuple(sorted(p)))


@st.composite
def _waveform(draw):
    sample_rate = draw(st.floats(100_000.0, 1_000_000.0))
    walsh_order = draw(st.sampled_from([4, 8]))
    samples_per_symbol = 8 * draw(st.integers(10, 100))
    channels = tuple(
        draw(st.lists(st.sampled_from(wf.CENTER_FREQUENCIES), min_size=1, unique=True))
    )
    return {
        "sample_rate": sample_rate,
        "symbol_duration": samples_per_symbol / sample_rate,
        "center_frequencies": channels,
        "burst_bits": draw(st.integers(1, 64)),
        "carrier_phase": draw(st.floats(-math.pi, math.pi)),
        "walsh_order": walsh_order,
        "hop_reuse_window": draw(st.integers(0, max(len(channels) - 2, 0))),
    }


@st.composite
def _channel(draw):
    taps = draw(st.integers(0, 10))
    delay_min = draw(st.floats(1e-4, 5e-3))
    return {
        "snr_db": draw(st.none() | st.floats(-20.0, 40.0)),
        "taps_per_beacon": taps,
        "excess_delay_min": delay_min,
        "excess_delay_max": delay_min + 3e-4 * taps + draw(st.floats(1e-4, 1e-2)),
        "first_tap_db": draw(st.floats(-30.0, 0.0)),
        "decay_time": draw(st.floats(1e-4, 1e-2)),
        "speed_of_sound": draw(st.floats(300.0, 360.0)),
        "distance_attenuation": draw(st.booleans()),
    }


@st.composite
def _fusion(draw):
    return {
        "enabled": draw(st.booleans()),
        "w1": draw(st.floats(0.0, 1.0)),
        "echo_noise_std": draw(st.floats(1e-7, 1e-3)),
        "auto_weights": draw(st.booleans()),
        "obstruction_prob": draw(st.floats(0.0, 1.0)),
    }


@st.composite
def _placement(draw):
    parents = 2 * draw(st.integers(1, 30))
    return {
        "hdop_tolerance": draw(st.floats(0.1, 10.0)),
        "vdop_tolerance": draw(st.floats(0.1, 10.0)),
        "population": parents + draw(st.integers(0, 30)),
        "parents": parents,
        "iterations": draw(st.integers(1, 200)),
        "beacon_grid": draw(st.floats(0.1, 1.0)),
        "min_separation": draw(st.floats(0.0, 2.0)),
        "max_restarts": draw(st.integers(0, 10)),
    }


# in-range values of every key; the room holds both built-in layouts and
# the drone domain lies strictly inside it
IN_RANGE = st.fixed_dictionaries(
    {
        "scene": st.fixed_dictionaries(
            {
                "room": st.tuples(
                    st.floats(5.0, 10.0), st.floats(5.0, 10.0), st.floats(4.0, 10.0)
                ),
                "layout": st.sampled_from(["original", "optimized"]),
            }
        ),
        "waveform": _waveform(),
        "channel": _channel(),
        "fusion": _fusion(),
        "placement": _placement(),
        "run": st.fixed_dictionaries(
            {
                "trials": st.integers(1, 1000),
                "seed": st.integers(0, 2**32),
                "snr_list": st.lists(st.floats(-20.0, 40.0), min_size=1, max_size=6).map(
                    tuple
                ),
                "domain_x": _sorted_pair(0.1, 4.9),
                "domain_y": _sorted_pair(0.1, 4.9),
                "domain_z": _sorted_pair(0.1, 3.9),
                "domain_grid": st.floats(0.05, 2.0),
                "fix_spacing": st.floats(0.01, 1.0),
                "trajectory_waypoints": st.integers(1, 20),
            }
        ),
    }
)


def _ini_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


class TestSchema:
    def test_keys_of_each_section(self):
        assert {s: sorted(keys) for s, keys in cfg_mod._SCHEMA.items()} == KEYS
        assert sum(len(keys) for keys in KEYS.values()) == 39

    @settings(
        max_examples=60,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(values=IN_RANGE)
    def test_every_key_round_trips(self, tmp_path, values):
        assert {s: sorted(keys) for s, keys in values.items()} == KEYS
        text = "".join(
            f"[{section}]\n"
            + "".join(f"{key} = {_ini_value(v)}\n" for key, v in keys.items())
            for section, keys in values.items()
        )
        cfg = cfg_mod.load_config(write(tmp_path, text))
        for section, keys in values.items():
            for key, value in keys.items():
                name, _ = cfg_mod._SCHEMA[section][key]
                assert getattr(getattr(cfg, section), name) == value, (section, key)


# Edge values by a key's type: each must load, or stop at one ConfigError
EDGE_FLOATS = ("0", "-0.0", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf")
EDGE_INTS = ("0", "-1", str(2**31), str(10**12))
EDGE_OTHERS = {"bool": ("true", "off", "2"), "str": ("optimized", "no-such-layout")}


def _edge_cases():
    """(section, key, raw value) for every key of the schema: a float takes
    each edge float, an int each edge int, and a tuple its default with one
    entry swapped for each edge float, then no entry and a lone nan."""
    defaults = cfg_mod.SimConfig()
    cases = []
    for section, cls in get_type_hints(cfg_mod.SimConfig).items():
        annotations = {f.name: f.type for f in fields(cls)}
        for key, (name, _) in cfg_mod._SCHEMA[section].items():
            annotation = annotations[name]
            if annotation in ("float", "float | None"):
                values = EDGE_FLOATS
            elif annotation == "int":
                values = EDGE_INTS
            elif annotation in EDGE_OTHERS:
                values = EDGE_OTHERS[annotation]
            else:
                assert annotation.startswith("tuple["), annotation
                default = [repr(v) for v in getattr(getattr(defaults, section), name)]
                values = [
                    ", ".join(default[:i] + [edge] + default[i + 1 :])
                    for i in range(len(default))
                    for edge in EDGE_FLOATS
                ]
                values += ["", "nan"]
            cases += [(section, key, value) for value in values]
    return cases


EDGE_CASES = _edge_cases()


class TestEdgeValues:
    def test_every_key_has_edge_cases(self):
        covered = {(section, key) for section, key, _ in EDGE_CASES}
        assert covered == {(s, k) for s, keys in cfg_mod._SCHEMA.items() for k in keys}
        assert len(EDGE_CASES) == len(set(EDGE_CASES)) > 350

    @pytest.mark.parametrize(
        "section, key, value", EDGE_CASES, ids=[f"{s}.{k}={v}" for s, k, v in EDGE_CASES]
    )
    def test_loads_or_raises_one_config_error(self, tmp_path, section, key, value):
        path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
        try:
            cfg_mod.load_config(path)
        except ConfigError as exc:
            assert str(exc) and "\n" not in str(exc)


class TestFailLoud:
    """Values that used to crash or silently fail every trial later on."""

    def test_zero_fix_spacing_rejected(self, tmp_path):
        path = write(tmp_path, "[run]\nfix_spacing = 0\n")
        with pytest.raises(ConfigError, match="fix_spacing must be positive"):
            cfg_mod.load_config(path)

    def test_zero_domain_grid_rejected(self, tmp_path):
        path = write(tmp_path, "[run]\ndomain_grid = 0\n")
        with pytest.raises(ConfigError, match="domain_grid must be positive"):
            cfg_mod.load_config(path)

    def test_population_below_parents_rejected(self, tmp_path):
        path = write(tmp_path, "[placement]\npopulation = 3\n")
        with pytest.raises(ConfigError, match=r"\[placement\].*parents"):
            cfg_mod.load_config(path)

    def test_zero_parents_rejected(self, tmp_path):
        # with no parents the search would never breed
        path = write(tmp_path, "[placement]\nparents = 0\n")
        with pytest.raises(ConfigError, match=r"\[placement\] need at least 2 parents"):
            cfg_mod.load_config(path)

    def test_taps_that_cannot_be_spaced_rejected(self, tmp_path):
        path = write(tmp_path, "[channel]\ntaps_per_beacon = 40\n")
        with pytest.raises(ConfigError, match="40 taps .* excess delay range"):
            cfg_mod.load_config(path)

    def test_sub_sample_excess_delay_rejected(self, tmp_path):
        # a tap this close to its direct path lands on the direct path's sample
        taps = "excess_delay_min = 1e-20\nexcess_delay_max = 1e-19\ntaps_per_beacon = "
        with pytest.raises(ConfigError, match="excess_delay_min must be at least one sample"):
            cfg_mod.load_config(write(tmp_path, "[channel]\n" + taps + "1\n"))
        # with no taps no tap is drawn
        cfg = cfg_mod.load_config(write(tmp_path, "[channel]\n" + taps + "0\n"))
        assert cfg.channel.excess_delay_min == 1e-20

    def test_validation_draws_no_taps(self, tmp_path, monkeypatch):
        # the section states its own rules, so accepting dense taps costs no
        # draw (rejection would give up 1000 tries a beacon on these)
        def no_draw(*args):
            raise AssertionError("validation drew a multipath realization")

        monkeypatch.setattr(channel_mod, "sample_multipath", no_draw)
        path = write(tmp_path, "[channel]\ntaps_per_beacon = 15000\nexcess_delay_max = 4.6\n")
        cfg = cfg_mod.load_config(path)  # the SimConfig's own checks ran as it was made
        assert cfg.channel.taps_per_beacon == 15000

    def test_multipath_is_the_tap_count(self, tmp_path):
        # a channel without multipath is taps_per_beacon = 0; no second key says so
        path = write(tmp_path, "[channel]\nmultipath = false\n")
        with pytest.raises(ConfigError, match=r"unknown key 'multipath' in section \[channel\]"):
            cfg_mod.load_config(path)

    def test_negative_echo_noise_rejected(self, tmp_path):
        path = write(tmp_path, "[fusion]\necho_noise_std = -1e-5\n")
        with pytest.raises(ConfigError, match="echo_noise_std must be non-negative"):
            cfg_mod.load_config(path)

    def test_zero_echo_noise_with_auto_weights_rejected(self, tmp_path):
        path = write(
            tmp_path, "[fusion]\nenabled = true\nauto_weights = true\necho_noise_std = 0\n"
        )
        with pytest.raises(ConfigError, match="auto_weights needs a positive echo_noise_std"):
            cfg_mod.load_config(path)

    def test_zero_echo_noise_with_fixed_weights_accepted(self, tmp_path):
        path = write(tmp_path, "[fusion]\nenabled = true\necho_noise_std = 0\n")
        assert cfg_mod.load_config(path).fusion.echo_noise_std == 0.0

    @pytest.mark.parametrize(
        "ini",
        [
            "[channel]\ndecay_time = nan\n",
            "[channel]\nspeed_of_sound = nan\n",
            "[fusion]\necho_noise_std = inf\n",
            "[run]\nsnr_list = 0, nan\n",
        ],
        ids=["decay_time", "speed_of_sound", "echo_noise_std", "snr_list"],
    )
    def test_non_finite_float_rejected(self, tmp_path, ini):
        path = write(tmp_path, ini)
        with pytest.raises(ConfigError, match="not a finite number"):
            cfg_mod.load_config(path)

    @pytest.mark.parametrize("value", ["0", "-1e-3"])
    def test_nonpositive_decay_time_rejected(self, tmp_path, value):
        path = write(tmp_path, f"[channel]\ndecay_time = {value}\n")
        with pytest.raises(ConfigError, match="decay_time must be positive"):
            cfg_mod.load_config(path)


    @pytest.mark.parametrize(
        "ini,match",
        [
            ("[waveform]\nwalsh_order = 5\n", r"\[waveform\] .*power of two"),
            ("[waveform]\nwalsh_order = 16\n", r"\[waveform\] .*code length 16"),
            ("[waveform]\nchannel_bandwidth = 6000\n", "unknown key 'channel_bandwidth'"),
            (
                "[waveform]\ncenter_frequencies = 22500, 25000\nhop_reuse_window = 0\n",
                r"\[waveform\] .*overlap",
            ),
            ("[fusion]\nw2 = 0.8\n", "unknown key 'w2'"),
            ("[fusion]\nw1 = 1.5\n", r"\[fusion\] weight w1 must lie in \[0, 1\]"),
            ("[waveform]\ncenter_frequencies =\n", "at least one channel"),
            (
                "[waveform]\ncenter_frequencies = 22500\nhop_reuse_window = 2\n",
                r"reuse_window must be in \[0, 0\] for 1 channels",
            ),
            ("[channel]\nspeed_of_sound = 0\n", r"\[channel\] speed of sound"),
            ("[scene]\nroom = 4.6, 4.6, 3.5\n", r"\[scene\] beacon 1 .* outside the room"),
            ("[placement]\nmax_restarts = -1\n", r"\[placement\] max_restarts"),
            ("[run]\ndomain_x = 3, 1\n", r"\[run\] .*min <= max"),
            ("[run]\nseed = -1\n", "seed must be non-negative"),
            ("[run]\ntrajectory_waypoints = 0\n", "trajectory_waypoints must be at least 1"),
            ("[run]\nsnr_list =\n", "snr_list needs at least one SNR"),
            ("[placement]\nmutation_rate = 0.1\n", "unknown key 'mutation_rate'"),
            ("[run]\nworkers = 2\n", "unknown key 'workers'"),
            ("trials = 3\n", "no section headers"),
            ("[run]\ntrials = 3\ntrials = 4\n", "already exists"),
        ],
        ids=[
            "walsh_order_not_power_of_two",
            "walsh_order_chips",
            "channel_bandwidth",
            "overlapping_channels",
            "w2",
            "w1_above_one",
            "no_channels",
            "one_channel_reuse_window",
            "speed_of_sound",
            "layout_outside_room",
            "max_restarts",
            "domain_reversed",
            "seed",
            "trajectory_waypoints",
            "snr_list",
            "mutation_rate",
            "workers",
            "no_section",
            "duplicate_key",
        ],
    )
    def test_value_a_run_cannot_build_from_rejected(self, tmp_path, ini, match):
        path = write(tmp_path, ini)
        with pytest.raises(ConfigError, match=match):
            cfg_mod.load_config(path)

    def test_percent_sign_is_literal(self, tmp_path):
        path = write(tmp_path, "[scene]\nlayout = 50%\n")
        with pytest.raises(ConfigError, match="layout '50%' is neither built-in"):
            cfg_mod.load_config(path)

    @pytest.mark.parametrize("text", [None, "a b c\n"], ids=["missing", "unparsable"])
    def test_layout_file_error_names_the_config(self, tmp_path, text):
        layout = tmp_path / "layout.txt"
        if text is not None:
            layout.write_text(text)
        path = write(tmp_path, f"[scene]\nlayout = {layout}\n")
        with pytest.raises(ConfigError) as info:
            cfg_mod.load_config(path)
        message = str(info.value)
        assert message.startswith(f"{path}: layout ")
        assert message.count(str(layout)) == 1
        if text is None:
            assert message == f"{path}: layout '{layout}' is neither built-in nor an existing file"


class TestValidByConstruction:
    """A SimConfig checks itself when it is made, so replace cannot build one
    that a run would fail on; each case below once reached a run."""

    @pytest.mark.parametrize(
        "run, match",
        [
            # simulate returned an empty table that aggregate_records could not read
            (dict(trials=0), "trials must be positive"),
            # a ValueError traceback from the trial pool's scene
            (dict(domain_z=(0.5, 9.0)), "drone domain must lie strictly inside the room"),
            # sweep_snr returned no rows
            (dict(snr_list=()), "snr_list needs at least one SNR"),
            # make_trajectory divided by zero
            (dict(fix_spacing=0.0), "fix_spacing must be positive"),
        ],
        ids=["trials", "domain_above_ceiling", "empty_snr_list", "fix_spacing"],
    )
    def test_replace_with_a_bad_run_value_raises(self, run, match):
        cfg = cfg_mod.default_config()
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
            replace(cfg, run=replace(cfg.run, **run))

    def test_a_rule_joining_sections_is_checked_at_replace(self):
        # a 2 m ceiling puts the default drone domain's top (3 m) outside the room
        cfg = cfg_mod.default_config()
        with pytest.raises(ConfigError, match="drone domain must lie strictly inside the room"):
            replace(cfg, scene=replace(cfg.scene, room_dims=(5.0, 5.0, 2.0)))


class TestResolveLayout:
    def test_builtins(self):
        assert cfg_mod.resolve_layout("original") is ORIGINAL_LAYOUT
        assert cfg_mod.resolve_layout("optimized") is OPTIMIZED_LAYOUT

    def test_json_file(self, tmp_path):
        path = write(
            tmp_path,
            "[[1, 1, 3], [4, 1, 3.5], [4, 4, 3], [1, 4, 3.5]]",
            name="beacons.json",
        )
        layout = cfg_mod.resolve_layout(str(path))
        assert layout.positions.shape == (4, 3)
        assert layout.positions[1][2] == 3.5

    def test_placement_json_object(self, tmp_path):
        # the file `optimize` writes: the beacons key beside the search figures
        path = write(
            tmp_path,
            '{"beacons": [[1, 1, 3], [4, 1, 3.5], [4, 4, 3], [1, 4, 3.5]], "vdop_avg": 1.1}',
            name="placement.json",
        )
        layout = cfg_mod.resolve_layout(str(path))
        assert layout.positions.tolist() == [[1, 1, 3], [4, 1, 3.5], [4, 4, 3], [1, 4, 3.5]]

    def test_json_object_without_beacons_rejected(self, tmp_path):
        path = write(tmp_path, '{"vdop_avg": 1.1}', name="placement.json")
        with pytest.raises(ConfigError, match="placement.json': .* needs a 'beacons' key"):
            cfg_mod.resolve_layout(str(path))

    def test_text_file(self, tmp_path):
        path = write(
            tmp_path,
            "# beacon coordinates\n1 1 3\n4, 1, 3.5\n4 4 3\n1 4 3.5\n",
            name="beacons.txt",
        )
        layout = cfg_mod.resolve_layout(str(path))
        assert layout.positions.shape == (4, 3)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            cfg_mod.resolve_layout("no-such-layout-file.txt")

    def test_wrong_shape_rejected(self, tmp_path):
        path = write(tmp_path, "[[1, 1, 3], [4, 1, 3.5]]", name="two.json")
        with pytest.raises(ConfigError):
            cfg_mod.resolve_layout(str(path))

    @pytest.mark.parametrize(
        "text",
        ["a b c\n", '{"a": 1}', "1 1 3\n4 1\n4 4 3\n1 4 3.5\n"],
        ids=["words", "json_object", "ragged_rows"],
    )
    def test_unparsable_file_names_the_file(self, tmp_path, text):
        path = write(tmp_path, text, name="bad-layout.txt")
        with pytest.raises(ConfigError, match="layout file '.*bad-layout.txt'"):
            cfg_mod.resolve_layout(str(path))
