"""Monte Carlo experiment driver tying the whole pipeline together.

One fix: synthesize the four beacon bursts, push them through the
channel, estimate the four ranges by matched-filter correlation,
trilaterate, optionally fuse the ceiling-rangefinder height, and record
the errors. Sweeps and trajectories repeat that over seeded trials; a
trial's seed is derived from the master seed and the trial's indices so
results are reproducible and stable under trial-count changes.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import (
    ChannelModel,
    Scene,
    apply_channel,
    direct_delays,
    sample_multipath,
)
from .config import SimConfig
from .dop import DroneDomain, dop_components
from .errors import ConfigError, UltralocError
from .fusion import FusionWeights, fuse_height, inverse_variance_weights, simulate_ceiling_echo
from .ranging import estimate_ranges
from .solver import trilaterate
from .waveform import (
    WaveformConfig,
    generate_tx_signals,
    random_data_bits,
    random_hop_plan,
    walsh_hadamard,
)

# Stream labels keeping seed derivations of different experiment kinds apart.
_STREAM_SIMULATE = 0
_STREAM_SWEEP = 1
_STREAM_TRAJECTORY = 2


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single localization fix."""

    trial_id: int
    snr_db: float | None
    true_position: np.ndarray
    est_position: np.ndarray
    err_xy: float
    err_z: float
    err_3d: float
    range_errors: np.ndarray
    peak_samples: tuple[int, int, int, int]
    failed: bool
    error: str

    CSV_FIELDS = (
        "trial_id",
        "snr_db",
        "true_x",
        "true_y",
        "true_z",
        "est_x",
        "est_y",
        "est_z",
        "err_xy",
        "err_z",
        "err_3d",
        "range_err_0",
        "range_err_1",
        "range_err_2",
        "range_err_3",
        "peak_0",
        "peak_1",
        "peak_2",
        "peak_3",
        "failed",
        "error",
    )

    def csv_row(self) -> list:
        """Raw cell values in CSV_FIELDS order; write_csv formats them."""
        return [
            self.trial_id,
            self.snr_db,
            *self.true_position,
            *self.est_position,
            self.err_xy,
            self.err_z,
            self.err_3d,
            *self.range_errors,
            *self.peak_samples,
            self.failed,
            self.error,
        ]


def random_position(domain: DroneDomain, rng: np.random.Generator) -> np.ndarray:
    return np.array(
        [
            rng.uniform(*domain.x_range),
            rng.uniform(*domain.y_range),
            rng.uniform(*domain.z_range),
        ]
    )


def make_trajectory(
    domain: DroneDomain,
    seed: int,
    n_waypoints: int = 8,
    fix_spacing: float = 0.25,
) -> np.ndarray:
    """Seeded piecewise-linear random path resampled at fix_spacing, as (n, 3) fix points."""
    if n_waypoints < 1:
        raise ValueError("need at least one waypoint")
    rng = np.random.default_rng([seed, _STREAM_TRAJECTORY])
    corners = np.array([random_position(domain, rng) for _ in range(n_waypoints)])
    fixes = [corners[0]]
    for a, b in zip(corners[:-1], corners[1:]):
        seg = b - a
        length = float(np.linalg.norm(seg))
        if length == 0.0:
            continue
        n_steps = max(int(math.floor(length / fix_spacing)), 1)
        for k in range(1, n_steps + 1):
            fixes.append(a + seg * min(k * fix_spacing / length, 1.0))
    return np.array(fixes)


def run_fix(config: SimConfig, true_position: np.ndarray, rng_seed) -> TrialRecord:
    """Simulate one complete localization fix. A physical failure (an
    UltralocError) comes back as a failed record; anything else propagates."""
    true_position = np.asarray(true_position, dtype=float)
    try:
        return _run_fix_inner(config, true_position, rng_seed)
    except UltralocError as exc:
        nan3 = np.full(3, np.nan)
        return TrialRecord(
            trial_id=0,
            snr_db=config.channel.snr_db,
            true_position=true_position,
            est_position=nan3,
            err_xy=math.nan,
            err_z=math.nan,
            err_3d=math.nan,
            range_errors=np.full(4, np.nan),
            peak_samples=(-1, -1, -1, -1),
            failed=True,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_fix_inner(config: SimConfig, true_position: np.ndarray, rng_seed) -> TrialRecord:
    rng = np.random.default_rng(rng_seed)
    wf = config.waveform
    ch = config.channel
    scene = Scene(
        room_dims=config.scene.room_dims,
        beacons=config.scene.layout,
        receiver_position=true_position,
    )
    walsh = walsh_hadamard(wf.walsh_order)
    plan = random_hop_plan(
        n_symbols=wf.burst_bits,
        seed=int(rng.integers(2**31)),
        center_frequencies=wf.center_frequencies,
        channel_bandwidth=wf.channel_bandwidth,
        carrier_phase=wf.carrier_phase,
        reuse_window=wf.hop_reuse_window,
    )
    wconfig = WaveformConfig(
        sample_rate=wf.sample_rate,
        symbol_duration=wf.symbol_duration,
        data_bits=random_data_bits((4, wf.burst_bits), rng),
    )
    # the unscaled bursts double as the receiver's matched-filter references
    references = generate_tx_signals(wconfig, plan, walsh.rows[:4])
    tx = references
    if ch.distance_attenuation:
        c = ch.speed_of_sound
        divisors = np.maximum(direct_delays(scene, c) * c, 1.0)
        tx = replace(references, samples=references.samples / divisors[:, None])

    tap_delays = tap_gains = np.zeros((4, 0))
    if ch.multipath:
        tap_delays, tap_gains = sample_multipath(
            scene,
            rng,
            n_taps=ch.taps_per_beacon,
            excess_delay_range=(ch.excess_delay_min, ch.excess_delay_max),
            first_tap_db=ch.first_tap_db,
            decay_time=ch.decay_time,
            c=ch.speed_of_sound,
        )
    model = ChannelModel(
        tap_delays=tap_delays,
        tap_gains=tap_gains,
        snr_db=ch.snr_db,
        speed_of_sound=ch.speed_of_sound,
        rng_seed=int(rng.integers(2**31)),
    )
    received = apply_channel(tx, scene, model)

    estimates = estimate_ranges(received, references, ch.speed_of_sound)
    ranges = estimates.distances
    true_dists = np.linalg.norm(
        np.asarray(config.scene.layout.positions) - true_position[None, :], axis=1
    )
    fix = trilaterate(config.scene.layout, ranges)
    est = fix.position.copy()

    fu = config.fusion
    if fu.enabled:
        echo = simulate_ceiling_echo(
            true_height=float(true_position[2]),
            ceiling_height=config.scene.room_dims[2],
            c=ch.speed_of_sound,
            noise_std=fu.echo_noise_std,
            rng=rng,
            obstruction_prob=fu.obstruction_prob,
        )
        if fu.auto_weights:
            quant_std = ch.speed_of_sound / wf.sample_rate / math.sqrt(12.0)
            _, vdop, _ = dop_components(config.scene.layout, est[None, :])
            var_tri = (float(vdop[0]) * quant_std) ** 2 if np.isfinite(vdop[0]) else 1.0
            var_echo = (ch.speed_of_sound * fu.echo_noise_std / 2.0) ** 2
            weights = inverse_variance_weights(var_tri, var_echo)
        else:
            weights = FusionWeights(w1=fu.w1, w2=fu.w2)
        est[2] = fuse_height(est[2], echo.derived_height, weights)

    delta = est - true_position
    err_xy = float(np.hypot(delta[0], delta[1]))
    err_z = float(abs(delta[2]))
    return TrialRecord(
        trial_id=0,
        snr_db=ch.snr_db,
        true_position=true_position,
        est_position=est,
        err_xy=err_xy,
        err_z=err_z,
        err_3d=float(np.hypot(err_xy, err_z)),
        range_errors=ranges - true_dists,
        peak_samples=tuple(estimates.peak_samples.tolist()),
        failed=False,
        error="",
    )


def _run_trials(
    config: SimConfig,
    n: int,
    *stream: int,
    positions: np.ndarray | None = None,
    first_id: int = 0,
) -> list[TrialRecord]:
    """Run n fixes in trial-id order: fix k has seed [run.seed, *stream, k]
    and trial id first_id + k, and runs at positions[k] or, without
    positions, at a drone-domain position drawn from [*seed, 999]."""
    seeds = [[config.run.seed, *stream, k] for k in range(n)]
    if positions is None:
        domain = config.drone_domain()
        positions = [random_position(domain, np.random.default_rng([*s, 999])) for s in seeds]
    return [
        replace(run_fix(config, p, s), trial_id=first_id + k)
        for k, (p, s) in enumerate(zip(positions, seeds))
    ]


def simulate(config: SimConfig) -> list[TrialRecord]:
    """Run run.trials seeded fixes at random drone-domain positions at the config SNR."""
    return _run_trials(config, config.run.trials, _STREAM_SIMULATE)


def sweep_snr(
    config: SimConfig,
    snr_list: tuple[float, ...] | None = None,
    trials_per_point: int | None = None,
) -> tuple[list[TrialRecord], list[dict]]:
    """Monte Carlo localization error versus SNR.

    Returns all trial records plus one aggregate row per SNR with means
    and standard deviations of the per-axis and combined errors.
    """
    snrs = snr_list if snr_list is not None else config.run.snr_list
    n = trials_per_point if trials_per_point is not None else config.run.trials
    all_records: list[TrialRecord] = []
    table: list[dict] = []
    for s_idx, snr in enumerate(snrs):
        cfg_s = replace(config, channel=replace(config.channel, snr_db=snr))
        records = _run_trials(cfg_s, n, _STREAM_SWEEP, s_idx, first_id=s_idx * n)
        all_records.extend(records)
        table.append(aggregate_records(records, snr))
    return all_records, table


def aggregate_records(records: list[TrialRecord], snr_db: float | None) -> dict:
    ok = [r for r in records if not r.failed]
    row: dict = {
        "snr_db": snr_db,
        "n_trials": len(records),
        "n_failed": len(records) - len(ok),
    }
    if ok:
        dx = np.array([abs(r.est_position[0] - r.true_position[0]) for r in ok])
        dy = np.array([abs(r.est_position[1] - r.true_position[1]) for r in ok])
        for name, vals in (
            ("err_x", dx),
            ("err_y", dy),
            ("err_z", np.array([r.err_z for r in ok])),
            ("err_xy", np.array([r.err_xy for r in ok])),
            ("err_3d", np.array([r.err_3d for r in ok])),
        ):
            row[f"mean_{name}"] = float(vals.mean())
            row[f"std_{name}"] = float(vals.std())
    else:
        for name in ("err_x", "err_y", "err_z", "err_xy", "err_3d"):
            row[f"mean_{name}"] = math.nan
            row[f"std_{name}"] = math.nan
    return row


def run_trajectory(
    config: SimConfig, waypoints: np.ndarray
) -> tuple[list[TrialRecord], dict]:
    """One fix per trajectory point of the (n, 3) waypoints plus a mean-error summary."""
    waypoints = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if waypoints.ndim != 2 or waypoints.shape[0] < 1 or waypoints.shape[1] != 3:
        raise ValueError("trajectory needs at least one 3-D waypoint")
    domain = config.drone_domain()
    for i, p in enumerate(waypoints):
        if not domain.contains(p):
            raise ConfigError(f"trajectory waypoint {i} at {p} is outside the drone domain")
    records = _run_trials(config, len(waypoints), _STREAM_TRAJECTORY, positions=waypoints)
    ok = [r for r in records if not r.failed]
    summary = {
        "n_fixes": len(records),
        "n_failed": len(records) - len(ok),
        "mean_err_z": float(np.mean([r.err_z for r in ok])) if ok else math.nan,
        "mean_err_3d": float(np.mean([r.err_3d for r in ok])) if ok else math.nan,
    }
    return records, summary


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write one CSV table; every output table goes through here.

    Cell rule: None -> "", bool -> "1"/"0", float (numpy floats included)
    -> 12 significant digits, anything else -> str().
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def write_trials_csv(records: list[TrialRecord], path: str | Path) -> None:
    write_csv(path, TrialRecord.CSV_FIELDS, (rec.csv_row() for rec in records))


def write_sweep_csv(table: list[dict], path: str | Path) -> None:
    if not table:
        raise ValueError("empty sweep table")
    write_csv(path, list(table[0]), (row.values() for row in table))


def _strict_json(obj):
    """obj with numpy values made plain and each non-finite float made None."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_summary_json(summary: dict, path: str | Path) -> None:
    """Write summary as strict JSON: a mean with no sample is null, never NaN."""
    with open(path, "w") as fh:
        json.dump(_strict_json(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
