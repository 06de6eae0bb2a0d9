import numpy as np
import pytest

from ultraloc import config as cfg_mod
from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT
from ultraloc.errors import ConfigError


def write(tmp_path, text, name="sim.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_default_config_is_valid(self):
        cfg = cfg_mod.default_config()
        cfg_mod.validate_config(cfg)
        assert cfg.scene.layout is ORIGINAL_LAYOUT
        assert cfg.waveform.sample_rate == 340_000.0
        assert len(cfg.waveform.center_frequencies) == 6

    def test_drone_domain_from_config(self):
        domain = cfg_mod.default_config().drone_domain()
        assert domain.points().shape[0] == 486


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
multipath = false

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
        assert not cfg.channel.multipath
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

    def test_domain_outside_room_rejected(self, tmp_path):
        path = write(tmp_path, "[run]\ndomain_z = 0.5, 4.5\n")
        with pytest.raises(ConfigError, match="inside the room"):
            cfg_mod.load_config(path)

    def test_bad_fusion_weights_rejected(self, tmp_path):
        path = write(tmp_path, "[fusion]\nw1 = 0.5\nw2 = 0.6\n")
        with pytest.raises(ConfigError, match="sum to 1"):
            cfg_mod.load_config(path)

    def test_max_doppler_is_an_unknown_key(self, tmp_path):
        # the channel has no Doppler model, so there is no such knob
        path = write(tmp_path, "[channel]\nmax_doppler = 50\n")
        with pytest.raises(ConfigError, match="unknown key 'max_doppler'"):
            cfg_mod.load_config(path)


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

    def test_taps_that_cannot_be_spaced_rejected(self, tmp_path):
        path = write(tmp_path, "[channel]\ntaps_per_beacon = 40\n")
        with pytest.raises(ConfigError, match="40 taps .* excess delay range"):
            cfg_mod.load_config(path)

    def test_tap_count_ignored_without_multipath(self, tmp_path):
        path = write(tmp_path, "[channel]\nmultipath = false\ntaps_per_beacon = 40\n")
        assert cfg_mod.load_config(path).channel.taps_per_beacon == 40

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
