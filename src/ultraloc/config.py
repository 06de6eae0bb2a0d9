"""Simulation configuration: defaults, INI-style file loading, validation.

Config files use sections [scene], [waveform], [channel], [fusion],
[placement], [run]. Every key is optional and falls back to the defaults
below; unknown sections or keys fail loading immediately with the
offending name in the message.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import dop as dop_mod
from . import fusion as fusion_mod
from . import placement as placement_mod
from . import waveform as waveform_mod
from .channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, BeaconLayout
from .dop import DroneDomain
from .errors import ConfigError


@dataclass(frozen=True)
class SceneConfig:
    room_dims: tuple[float, float, float] = channel_mod.ROOM_DIMS
    layout_name: str = "original"
    layout: BeaconLayout = ORIGINAL_LAYOUT


@dataclass(frozen=True)
class WaveformConfigSection:
    sample_rate: float = waveform_mod.SAMPLE_RATE
    symbol_duration: float = waveform_mod.SYMBOL_DURATION
    center_frequencies: tuple[float, ...] = waveform_mod.CENTER_FREQUENCIES
    channel_bandwidth: float = waveform_mod.CHANNEL_BANDWIDTH
    burst_bits: int = waveform_mod.BURST_BITS
    carrier_phase: float = 0.0
    walsh_order: int = waveform_mod.WALSH_ORDER
    hop_reuse_window: int = 2


@dataclass(frozen=True)
class ChannelConfigSection:
    snr_db: float | None = 15.0
    multipath: bool = True
    taps_per_beacon: int = channel_mod.N_TAPS
    excess_delay_min: float = channel_mod.EXCESS_DELAY_RANGE[0]
    excess_delay_max: float = channel_mod.EXCESS_DELAY_RANGE[1]
    first_tap_db: float = channel_mod.FIRST_TAP_DB
    decay_time: float = channel_mod.TAP_DECAY_TIME
    speed_of_sound: float = channel_mod.SPEED_OF_SOUND
    distance_attenuation: bool = False


@dataclass(frozen=True)
class FusionConfigSection:
    enabled: bool = False
    w1: float = fusion_mod.DEFAULT_W1
    w2: float = fusion_mod.DEFAULT_W2
    echo_noise_std: float = fusion_mod.ECHO_NOISE_STD
    auto_weights: bool = False
    obstruction_prob: float = 0.0


@dataclass(frozen=True)
class PlacementConfigSection:
    hdop_tolerance: float = 2.0
    vdop_tolerance: float = 2.0
    population: int = placement_mod.POPULATION
    parents: int = placement_mod.PARENTS
    iterations: int = placement_mod.ITERATIONS
    beacon_grid: float = placement_mod.BEACON_GRID
    min_separation: float = placement_mod.MIN_SEPARATION
    max_restarts: int = placement_mod.MAX_RESTARTS
    mutation_rate: float = 0.0


@dataclass(frozen=True)
class RunConfigSection:
    trials: int = 200
    seed: int = 1
    snr_list: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    domain_x: tuple[float, float] = dop_mod.DOMAIN_XY
    domain_y: tuple[float, float] = dop_mod.DOMAIN_XY
    domain_z: tuple[float, float] = dop_mod.DOMAIN_Z
    domain_grid: float = dop_mod.DOMAIN_GRID
    fix_spacing: float = 0.25
    trajectory_waypoints: int = 8
    workers: int = 1


@dataclass(frozen=True)
class SimConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    waveform: WaveformConfigSection = field(default_factory=WaveformConfigSection)
    channel: ChannelConfigSection = field(default_factory=ChannelConfigSection)
    fusion: FusionConfigSection = field(default_factory=FusionConfigSection)
    placement: PlacementConfigSection = field(default_factory=PlacementConfigSection)
    run: RunConfigSection = field(default_factory=RunConfigSection)

    def drone_domain(self) -> DroneDomain:
        return DroneDomain(
            x_range=self.run.domain_x,
            y_range=self.run.domain_y,
            z_range=self.run.domain_z,
            grid_resolution=self.run.domain_grid,
        )

    def placement_problem(self) -> placement_mod.PlacementProblem:
        return placement_mod.PlacementProblem(
            drone_domain=self.drone_domain(),
            beacon_domain=placement_mod.BeaconDomain(
                room_dims=self.scene.room_dims,
                grid_resolution=self.placement.beacon_grid,
            ),
            hdop_tolerance=self.placement.hdop_tolerance,
            vdop_tolerance=self.placement.vdop_tolerance,
            population=self.placement.population,
            parents=self.placement.parents,
            iterations=self.placement.iterations,
            rng_seed=self.run.seed,
            min_separation=self.placement.min_separation,
            max_restarts=self.placement.max_restarts,
            mutation_rate=self.placement.mutation_rate,
        )


def default_config() -> SimConfig:
    return SimConfig()


def resolve_layout(name: str) -> BeaconLayout:
    """Map a layout argument to beacon coordinates.

    "original" and "optimized" are built in; anything else is read as a
    file path holding either a JSON list of four [x, y, z] triples or
    four whitespace/comma separated coordinate lines.
    """
    if name == "original":
        return ORIGINAL_LAYOUT
    if name == "optimized":
        return OPTIMIZED_LAYOUT
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"layout '{name}' is neither built-in nor an existing file")
    try:
        text = path.read_text()
        try:
            positions = np.asarray(json.loads(text), dtype=float)
        except json.JSONDecodeError:
            rows = []
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append([float(v) for v in line.replace(",", " ").split()])
            positions = np.asarray(rows, dtype=float)
        return BeaconLayout(positions=positions)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"layout file '{name}': {exc}") from exc


# (section, key) -> parser; the closed set of recognized options.
def _parse_float(s: str) -> float:
    # every range check below is written x <= 0, which NaN would pass
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_int(s: str) -> int:
    return int(s)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in s.replace(",", " ").split())


def _parse_pair(s: str) -> tuple[float, float]:
    vals = _parse_floats(s)
    if len(vals) != 2:
        raise ValueError(f"expected two numbers, got {len(vals)}")
    return (vals[0], vals[1])


def _parse_triple(s: str) -> tuple[float, float, float]:
    vals = _parse_floats(s)
    if len(vals) != 3:
        raise ValueError(f"expected three numbers, got {len(vals)}")
    return (vals[0], vals[1], vals[2])


def _parse_snr(s: str) -> float | None:
    low = s.strip().lower()
    if low in ("none", "inf", "infinite", "noiseless"):
        return None
    return float(s)


_SCHEMA: dict[str, dict[str, object]] = {
    "scene": {"room": _parse_triple, "layout": str},
    "waveform": {
        "sample_rate": _parse_float,
        "symbol_duration": _parse_float,
        "center_frequencies": _parse_floats,
        "channel_bandwidth": _parse_float,
        "burst_bits": _parse_int,
        "carrier_phase": _parse_float,
        "walsh_order": _parse_int,
        "hop_reuse_window": _parse_int,
    },
    "channel": {
        "snr_db": _parse_snr,
        "multipath": _parse_bool,
        "taps_per_beacon": _parse_int,
        "excess_delay_min": _parse_float,
        "excess_delay_max": _parse_float,
        "first_tap_db": _parse_float,
        "decay_time": _parse_float,
        "speed_of_sound": _parse_float,
        "distance_attenuation": _parse_bool,
    },
    "fusion": {
        "enabled": _parse_bool,
        "w1": _parse_float,
        "w2": _parse_float,
        "echo_noise_std": _parse_float,
        "auto_weights": _parse_bool,
        "obstruction_prob": _parse_float,
    },
    "placement": {
        "hdop_tolerance": _parse_float,
        "vdop_tolerance": _parse_float,
        "population": _parse_int,
        "parents": _parse_int,
        "iterations": _parse_int,
        "beacon_grid": _parse_float,
        "min_separation": _parse_float,
        "max_restarts": _parse_int,
        "mutation_rate": _parse_float,
    },
    "run": {
        "trials": _parse_int,
        "seed": _parse_int,
        "snr_list": _parse_floats,
        "domain_x": _parse_pair,
        "domain_y": _parse_pair,
        "domain_z": _parse_pair,
        "domain_grid": _parse_float,
        "fix_spacing": _parse_float,
        "trajectory_waypoints": _parse_int,
        "workers": _parse_int,
    },
}

_SECTION_FIELD = {"room": "room_dims", "layout": "layout_name"}


def load_config(path: str | Path) -> SimConfig:
    """Read and validate a config file, failing fast on unknown keys."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}] "
                f"(expected one of {sorted(_SCHEMA)})"
            )
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"{path}: unknown key '{key}' in section [{section}] "
                    f"(expected one of {sorted(_SCHEMA[section])})"
                )
            parse = _SCHEMA[section][key]
            try:
                values[section][_SECTION_FIELD.get(key, key)] = parse(raw)  # type: ignore[operator]
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for '{key}' in [{section}]: {raw!r} ({exc})"
                ) from exc

    scene_kwargs = values.get("scene", {})
    if "layout_name" in scene_kwargs:
        scene_kwargs["layout"] = resolve_layout(str(scene_kwargs["layout_name"]))
    try:
        cfg = SimConfig(
            scene=SceneConfig(**scene_kwargs),
            waveform=WaveformConfigSection(**values.get("waveform", {})),
            channel=ChannelConfigSection(**values.get("channel", {})),
            fusion=FusionConfigSection(**values.get("fusion", {})),
            placement=PlacementConfigSection(**values.get("placement", {})),
            run=RunConfigSection(**values.get("run", {})),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    validate_config(cfg, source=str(path))
    return cfg


def validate_config(cfg: SimConfig, source: str = "<config>") -> None:
    """Cross-field consistency checks beyond per-key parsing."""
    def fail(msg: str):
        raise ConfigError(f"{source}: {msg}")

    wf = cfg.waveform
    if wf.sample_rate < 2.0 * max(wf.center_frequencies):
        fail(
            f"sample_rate {wf.sample_rate} violates Nyquist for the "
            f"{max(wf.center_frequencies)} Hz channel"
        )
    sps = wf.symbol_duration * wf.sample_rate
    if abs(sps - round(sps)) > 1e-6:
        fail("symbol_duration * sample_rate must be a whole number of samples")
    if round(sps) % wf.walsh_order != 0:
        fail(
            f"{round(sps)} samples/symbol is not divisible by the "
            f"{wf.walsh_order}-chip code"
        )
    if wf.walsh_order < 4:
        fail("walsh_order must be at least 4 to separate four beacons")
    if wf.burst_bits < 1:
        fail("burst_bits must be positive")
    n_ch = len(wf.center_frequencies)
    if not 0 <= wf.hop_reuse_window <= max(n_ch - 2, 0):
        fail(
            f"hop_reuse_window must be in [0, {max(n_ch - 2, 0)}] "
            f"for {n_ch} channels"
        )
    ch = cfg.channel
    if not 0 < ch.excess_delay_min < ch.excess_delay_max:
        fail("excess delay range must satisfy 0 < min < max")
    if ch.taps_per_beacon < 0:
        fail("taps_per_beacon must be non-negative")
    tap_span = channel_mod.MIN_TAP_SPACING * (ch.taps_per_beacon - 1)
    if ch.multipath and tap_span >= ch.excess_delay_max - ch.excess_delay_min:
        fail(
            f"{ch.taps_per_beacon} taps spaced {channel_mod.MIN_TAP_SPACING} s apart "
            f"do not fit the excess delay range "
            f"[{ch.excess_delay_min}, {ch.excess_delay_max}] s"
        )
    if ch.decay_time <= 0:
        fail("decay_time must be positive")
    if ch.speed_of_sound <= 0:
        fail("speed_of_sound must be positive")
    if ch.snr_db is not None and not math.isfinite(ch.snr_db):
        fail("snr_db must be finite or 'none'")
    fu = cfg.fusion
    if abs(fu.w1 + fu.w2 - 1.0) > 1e-9 or not (0 <= fu.w1 <= 1):
        fail("fusion weights must be in [0,1] and sum to 1")
    if not 0.0 <= fu.obstruction_prob <= 1.0:
        fail("obstruction_prob must be a probability")
    if fu.echo_noise_std < 0:
        fail("echo_noise_std must be non-negative")
    if fu.auto_weights and fu.echo_noise_std == 0:
        fail("auto_weights needs a positive echo_noise_std to weight the echo by")
    rn = cfg.run
    if rn.trials < 1:
        fail("trials must be positive")
    for name, (lo, hi) in (
        ("domain_x", rn.domain_x),
        ("domain_y", rn.domain_y),
        ("domain_z", rn.domain_z),
    ):
        if lo > hi:
            fail(f"{name} range must have min <= max")
    if rn.domain_grid <= 0:
        fail("domain_grid must be positive")
    if rn.fix_spacing <= 0:
        fail("fix_spacing must be positive")
    room = cfg.scene.room_dims
    if (
        rn.domain_x[0] <= 0
        or rn.domain_x[1] >= room[0]
        or rn.domain_y[0] <= 0
        or rn.domain_y[1] >= room[1]
        or rn.domain_z[0] <= 0
        or rn.domain_z[1] >= room[2]
    ):
        fail("drone domain must lie strictly inside the room")
    if rn.workers < 1:
        fail("workers must be at least 1")
    try:
        cfg.placement_problem()
    except ValueError as exc:
        fail(f"[placement] {exc}")
