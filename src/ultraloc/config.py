"""Simulation configuration: defaults, INI-style file loading, validation.

Config files use sections [scene], [waveform], [channel], [fusion],
[placement], [run]. A section's keys are the fields of its dataclass
(the scene's room_dims and layout_name are spelled room and layout),
each parsed by its annotation. The four module sections are their
modules' own parameter objects, which state their sections' rules:
waveform.WaveformConfig, channel.ChannelConfig, fusion.FusionConfig and
placement.PlacementConfig. SimConfig checks the rules of [run] and those
that join sections when it is made, so replace with a bad value raises
ConfigError. Every key is optional and falls back to the field's
default; unknown sections or keys fail loading immediately with the
offending name in the message.
"""

from __future__ import annotations

import configparser
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import channel as channel_mod
from . import dop as dop_mod
from .channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, BeaconLayout, ChannelConfig, Scene
from .dop import DroneDomain
from .errors import ConfigError
from .fusion import FusionConfig
from .placement import PlacementConfig, PlacementProblem
from .waveform import WaveformConfig

# Most samples one fix may receive. A fix holds several (4, n) arrays of
# that length: at up to 2**21 samples one default-config fix peaked at
# 416 MB RSS (numpy 2.4, Python 3.11, Linux x86-64).
MAX_FIX_SAMPLES = 2**21
# Most points the drone-domain lattice, or the beacon lattice before its
# repeats are dropped, may hold. dopmap passes the whole drone lattice to
# one DOP kernel call, about 310 bytes a point: 1,030,376 points
# (domain_grid = 0.034, the finest default-domain grid allowed) peaked at
# 354 MB RSS in 7 s. A default optimize on 1,043,817 beacon points
# (beacon_grid = 0.0079, the finest default-room grid allowed) peaked at
# 190 MB RSS in 2.6 s. Both on numpy 2.4, Python 3.11, Linux x86-64.
MAX_LATTICE_POINTS = 2**20
# Most fixes one simulate, rangetest, sweep or trajectory may run. At about
# 5 ms a fix (BENCH_22.json's fix-stream) 2**16 fixes take over five
# minutes of one CPU.
MAX_FIXES = 2**16


@dataclass(frozen=True)
class SceneConfig:
    room_dims: tuple[float, float, float] = channel_mod.ROOM_DIMS
    layout_name: str = "original"
    layout: BeaconLayout = ORIGINAL_LAYOUT


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


@dataclass(frozen=True)
class SimConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    waveform: WaveformConfig = field(default_factory=WaveformConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    run: RunConfigSection = field(default_factory=RunConfigSection)

    def __post_init__(self):
        """Reject a config unless every object a run builds from it can be built.

        Each module section states its own rules when it is made; the rules
        here are [run]'s and those that join sections. Then what a run builds
        is built once, so a rule that shows only in a build (chip alignment,
        the hop window, the scene) is reported with its section or key.
        """
        rn, room = self.run, self.scene.room_dims
        ranges = (rn.domain_x, rn.domain_y, rn.domain_z)
        for broken, msg in (
            (rn.trials < 1, "trials must be positive"),
            (not rn.snr_list, "snr_list needs at least one SNR"),
            (rn.seed < 0, "seed must be non-negative"),
            (rn.trajectory_waypoints < 1, "trajectory_waypoints must be at least 1"),
            (rn.domain_grid <= 0, "domain_grid must be positive"),
            (rn.fix_spacing <= 0, "fix_spacing must be positive"),
            (
                not all(0 < lo and hi < side for (lo, hi), side in zip(ranges, room)),
                "drone domain must lie strictly inside the room",
            ),
        ):
            if broken:
                raise ConfigError(msg)
        # before any build: the received length, counting one hop draw per bit
        wf, ch = self.waveform, self.channel
        flight = (ch.taps_per_beacon > 0) * ch.excess_delay_max + math.hypot(*room) / ch.speed_of_sound
        bits = min(wf.burst_bits, sys.float_info.max)  # not every int converts to a float
        n_rx = max((flight + bits * wf.symbol_duration) * wf.sample_rate, bits)
        if n_rx > MAX_FIX_SAMPLES:
            raise ConfigError(
                f"one fix would receive {n_rx:.4g} samples, more than the {MAX_FIX_SAMPLES} allowed"
            )

        centre = np.mean(ranges, axis=1)
        for where, build in (
            ("[waveform]", lambda: wf.bursts(0, np.ones((1, 1), dtype=np.int64))),
            # a sweep runs the channel at each listed SNR in turn
            ("[run] snr_list:", lambda: [replace(ch, snr_db=snr) for snr in rn.snr_list]),
            ("[run]", self.drone_domain),
            ("[scene]", lambda: Scene(room, self.scene.layout, centre)),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{where} {exc}") from exc
        # counted, not built, after the sections and builds that reject an inverted range or a bad grid
        for name, n_points, key in (
            ("drone-domain", self.drone_domain().size, "[run] domain_grid"),
            ("beacon", self.placement_problem().beacon_domain.size, "[placement] beacon_grid"),
        ):
            if n_points > MAX_LATTICE_POINTS:
                raise ConfigError(
                    f"the {name} lattice would hold {n_points} points, more than the "
                    f"{MAX_LATTICE_POINTS} allowed; raise {key}"
                )
        if ch.taps_per_beacon > 0 and ch.excess_delay_min * wf.sample_rate < 1.0:
            raise ConfigError(
                f"excess_delay_min must be at least one sample period "
                f"({1.0 / wf.sample_rate:g} s), or a tap lands on its direct path's sample"
            )
        # auto weights square both FusionConfig.range_stds: neither may over- or underflow
        fu = self.fusion
        for keys, std in zip(
            ("[channel] speed_of_sound", "[channel] speed_of_sound or [fusion] echo_noise_std"),
            fu.range_stds(ch.speed_of_sound, wf.sample_rate),
        ):
            if fu.auto_weights and not 0.0 < std * std < math.inf:
                raise ConfigError(
                    f"[fusion] auto_weights squares a {std:g} m range error to {std * std:g}, "
                    f"not a positive finite variance; change {keys}"
                )

    def drone_domain(self) -> DroneDomain:
        rn = self.run
        return DroneDomain(rn.domain_x, rn.domain_y, rn.domain_z, rn.domain_grid)

    def placement_problem(self) -> PlacementProblem:
        room, seed = self.scene.room_dims, self.run.seed
        return PlacementProblem(self.placement, self.drone_domain(), room, seed)


def default_config() -> SimConfig:
    return SimConfig()


def resolve_layout(name: str) -> BeaconLayout:
    """Map a layout argument to beacon coordinates.

    "original" and "optimized" are built in; anything else is read as a
    file path holding a JSON list of four [x, y, z] triples, a JSON object
    whose "beacons" key holds that list (the placement.json `optimize`
    writes), or four whitespace/comma separated coordinate lines.
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
            data = json.loads(text)
        except json.JSONDecodeError:
            lines = [line.strip() for line in text.splitlines()]
            rows = [line.replace(",", " ").split() for line in lines if line and line[0] != "#"]
            data = [[float(v) for v in row] for row in rows]
        if isinstance(data, dict):
            if "beacons" not in data:
                raise ValueError("a JSON object needs a 'beacons' key")
            data = data["beacons"]
        return BeaconLayout(positions=np.asarray(data, dtype=float))
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"layout file '{name}': {exc}") from exc


def _parse_float(s: str) -> float:
    # every range check is written x <= 0, which NaN would pass
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in s.replace(",", " ").split())


def _parse_n_floats(n: int):
    def parse(s: str) -> tuple[float, ...]:
        vals = _parse_floats(s)
        if len(vals) != n:
            raise ValueError(f"expected {n} numbers, got {len(vals)}")
        return vals

    return parse


def _parse_snr(s: str) -> float | None:
    low = s.strip().lower()
    if low in ("none", "inf", "infinite", "noiseless"):
        return None
    return float(s)


# field annotation text -> parser of its key's value
_PARSERS = {
    "float": _parse_float,
    "int": int,
    "bool": _parse_bool,
    "str": str,
    "float | None": _parse_snr,
    "tuple[float, ...]": _parse_floats,
    "tuple[float, float]": _parse_n_floats(2),
    "tuple[float, float, float]": _parse_n_floats(3),
}

# field -> key where the two names differ
_KEY_NAMES = {"room_dims": "room", "layout_name": "layout"}

_SECTIONS = get_type_hints(SimConfig)

# section -> key -> (field, parser): the closed set of recognized options,
# one per section dataclass field except the layout that layout_name names
_SCHEMA = {
    section: {
        _KEY_NAMES.get(f.name, f.name): (f.name, _PARSERS[f.type])
        for f in fields(cls)
        if (section, f.name) != ("scene", "layout")
    }
    for section, cls in _SECTIONS.items()
}


def load_config(path: str | Path) -> SimConfig:
    """Read a config file, failing fast on unknown keys, with its path in every error."""
    if Path(path).is_dir():
        raise ConfigError(f"config path is a directory, not a file: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}".replace("\n", " ")) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    values: dict[str, dict[str, object]] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}] "
                f"(expected one of {sorted(_SCHEMA)})"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"{path}: unknown key '{key}' in section [{section}] "
                    f"(expected one of {sorted(_SCHEMA[section])})"
                )
            name, parse = _SCHEMA[section][key]
            try:
                values[section][name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for '{key}' in [{section}]: {raw!r} ({exc})"
                ) from exc

    scene = values["scene"]
    if "layout_name" in scene:
        try:
            scene["layout"] = resolve_layout(str(scene["layout_name"]))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**values[section])
        except ValueError as exc:  # a section that checks its own values
            raise ConfigError(f"{path}: [{section}] {exc}") from exc
    try:
        return SimConfig(**sections)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
