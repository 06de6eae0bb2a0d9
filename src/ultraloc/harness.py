"""Monte Carlo experiment driver tying the whole pipeline together.

One fix (run_fix): synthesize the four beacon bursts, push them through
the channel, estimate the four ranges by matched-filter correlation,
trilaterate, optionally fuse the ceiling-rangefinder height, and record
the errors in a TrialRecord. Simulations, sweeps and trajectories repeat
that over seeded trials and return one trials table: a TrialRecord whose
fields are columns with row k for trial k, from which the trials CSV and
the summary rows are read. A trial's seed is derived from the master
seed and the trial's indices so results are reproducible and stable
under trial-count changes.

A command's fixes run on a pool of one thread per CPU the process may
use (numpy's transforms and large array loops release the interpreter
lock). Each fix draws only from its own seeded generator and writes only
its own record and the correlation workspace lent to it; the shared
caches hold read-only tables, so a racing miss builds an equal table
twice. Records come back in job order, so every output is the same for
any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
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
from .fusion import fuse_height, inverse_variance_weights, simulate_ceiling_echo
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
    """One localization fix (run_fix: scalars, (3,) and (4,) arrays, a
    4-tuple of peaks) or a run's trials table (stack_records: the same
    fields as (n,), (n, 3) and (n, 4) columns, row k for trial k). The
    fields are in CSV order; CSV_FIELDS names their columns."""

    trial_id: int | np.ndarray
    snr_db: float | None | np.ndarray
    true_position: np.ndarray
    est_position: np.ndarray
    err_xy: float | np.ndarray
    err_z: float | np.ndarray
    err_3d: float | np.ndarray
    range_errors: np.ndarray
    peak_samples: tuple[int, int, int, int] | np.ndarray
    failed: bool | np.ndarray
    error: str | np.ndarray

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


def random_position(domain: DroneDomain, rng: np.random.Generator) -> np.ndarray:
    return np.array(
        [
            rng.uniform(*domain.x_range),
            rng.uniform(*domain.y_range),
            rng.uniform(*domain.z_range),
        ]
    )


def make_trajectory(config: SimConfig) -> np.ndarray:
    """Seeded piecewise-linear random path through run.trajectory_waypoints
    drone-domain corners, resampled at run.fix_spacing, as (n, 3) fix points."""
    run, domain = config.run, config.drone_domain()
    rng = np.random.default_rng([run.seed, _STREAM_TRAJECTORY])
    corners = np.array([random_position(domain, rng) for _ in range(run.trajectory_waypoints)])
    fixes = [corners[0]]
    for a, b in zip(corners[:-1], corners[1:]):
        seg = b - a
        length = float(np.linalg.norm(seg))
        if length == 0.0:
            continue
        n_steps = max(int(math.floor(length / run.fix_spacing)), 1)
        for k in range(1, n_steps + 1):
            fixes.append(a + seg * min(k * run.fix_spacing / length, 1.0))
    return np.array(fixes)


def run_fix(config: SimConfig, true_position: np.ndarray, rng_seed) -> TrialRecord:
    """Simulate one complete localization fix. A physical failure (an
    UltralocError) comes back as a failed record; anything else propagates."""
    true_position = np.asarray(true_position, dtype=float)
    try:
        return _run_fix_inner(config, true_position, rng_seed)
    except UltralocError as exc:
        return TrialRecord(
            trial_id=0,
            snr_db=config.channel.snr_db,
            true_position=true_position,
            est_position=np.full(3, np.nan),
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
        w1 = fu.w1
        if fu.auto_weights:
            quant_std = ch.speed_of_sound / wf.sample_rate / math.sqrt(12.0)
            _, vdop, _ = dop_components(config.scene.layout, est[None, :])
            var_tri = (float(vdop[0]) * quant_std) ** 2 if np.isfinite(vdop[0]) else 1.0
            var_echo = (ch.speed_of_sound * fu.echo_noise_std / 2.0) ** 2
            w1 = inverse_variance_weights(var_tri, var_echo)
        est[2] = fuse_height(est[2], echo.derived_height, w1)

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


def _trial_jobs(
    config: SimConfig, n: int, *stream: int, positions: np.ndarray | None = None
) -> list[tuple]:
    """n run_fix argument tuples: fix k has seed [run.seed, *stream, k] and
    runs at positions[k] or, without positions, at a drone-domain position
    drawn from [*seed, 999]."""
    seeds = [[config.run.seed, *stream, k] for k in range(n)]
    if positions is None:
        domain = config.drone_domain()
        positions = [random_position(domain, np.random.default_rng([*s, 999])) for s in seeds]
    return [(config, p, s) for p, s in zip(positions, seeds)]


def _worker_count() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_trials(jobs: list[tuple]) -> TrialRecord:
    """The trials table of run_fix over the jobs, row k from jobs[k], run on
    one thread per usable CPU. However the call ends, queued fixes are
    cancelled and every pool thread has exited before it returns."""
    # deferred: concurrent.futures loads logging (~7 ms, 0.6 MB), which a
    # lone run_fix or a placement search never needs
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=min(_worker_count(), len(jobs)) or 1)
    try:
        return stack_records(list(pool.map(run_fix, *zip(*jobs))))
    finally:
        pool.shutdown(cancel_futures=True)


def stack_records(records: list[TrialRecord]) -> TrialRecord:
    """The trials table of one-fix records: row k is records[k], with trial id k."""
    columns = {f.name: np.array([getattr(r, f.name) for r in records]) for f in fields(TrialRecord)}
    return TrialRecord(**{**columns, "trial_id": np.arange(len(records))})


def _rows(trials: TrialRecord, index) -> TrialRecord:
    """The table's rows at index, as a table."""
    return TrialRecord(**{f.name: getattr(trials, f.name)[index] for f in fields(TrialRecord)})


def simulate(config: SimConfig) -> TrialRecord:
    """Run run.trials seeded fixes at random drone-domain positions at the config SNR."""
    return _run_trials(_trial_jobs(config, config.run.trials, _STREAM_SIMULATE))


def sweep_snr(config: SimConfig) -> tuple[TrialRecord, list[dict]]:
    """Monte Carlo localization error versus SNR: run.trials fixes at each
    SNR of run.snr_list.

    Returns one trials table, SNR after SNR, plus one aggregate_records
    row per SNR over that SNR's own rows.
    """
    n, snr_list = config.run.trials, config.run.snr_list
    jobs = []
    for s_idx, snr in enumerate(snr_list):
        cfg_s = replace(config, channel=replace(config.channel, snr_db=snr))
        jobs += _trial_jobs(cfg_s, n, _STREAM_SWEEP, s_idx)
    # one pool over every SNR's fixes, so it never drains at an SNR boundary
    trials = _run_trials(jobs)
    table = [
        aggregate_records(_rows(trials, slice(s_idx * n, (s_idx + 1) * n)), snr)
        for s_idx, snr in enumerate(snr_list)
    ]
    return trials, table


def aggregate_records(trials: TrialRecord, snr_db: float | None) -> dict:
    """One summary row of a trials table: the trial and failure counts, and
    the mean and standard deviation of each error over the trials that did
    not fail (NaN when every trial failed)."""
    ok = ~trials.failed
    row: dict = {"snr_db": snr_db, "n_trials": ok.size, "n_failed": int(trials.failed.sum())}
    for name, vals in (
        ("err_x", np.abs(trials.est_position[ok, 0] - trials.true_position[ok, 0])),
        ("err_y", np.abs(trials.est_position[ok, 1] - trials.true_position[ok, 1])),
        ("err_z", trials.err_z[ok]),
        ("err_xy", trials.err_xy[ok]),
        ("err_3d", trials.err_3d[ok]),
    ):
        row[f"mean_{name}"] = float(vals.mean()) if vals.size else math.nan
        row[f"std_{name}"] = float(vals.std()) if vals.size else math.nan
    return row


def run_trajectory(config: SimConfig, waypoints: np.ndarray) -> tuple[TrialRecord, dict]:
    """One fix per trajectory point of the (n, 3) waypoints: the trials
    table plus its aggregate_records row at the config SNR."""
    waypoints = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if waypoints.ndim != 2 or waypoints.shape[0] < 1 or waypoints.shape[1] != 3:
        raise ValueError("trajectory needs at least one 3-D waypoint")
    domain = config.drone_domain()
    for i, p in enumerate(waypoints):
        if not domain.contains(p):
            raise ConfigError(f"trajectory waypoint {i} at {p} is outside the drone domain")
    jobs = _trial_jobs(config, len(waypoints), _STREAM_TRAJECTORY, positions=waypoints)
    trials = _run_trials(jobs)
    return trials, aggregate_records(trials, config.channel.snr_db)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@contextmanager
def _output_file(path: str | Path, **open_kw) -> Iterator:
    """Open an output file for writing; an OSError while opening or writing
    it becomes one UltralocError naming the file."""
    try:
        with open(path, "w", **open_kw) as fh:
            yield fh
    except OSError as exc:
        raise UltralocError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write one CSV table; every output table goes through here.

    Cell rule: None -> "", bool -> "1"/"0", float (numpy floats included)
    -> 12 significant digits, anything else -> str().
    """
    with _output_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def write_trials_csv(trials: TrialRecord, path: str | Path) -> None:
    """Write a trials table under CSV_FIELDS: each field's columns, in field order."""
    n = len(trials.trial_id)
    # .tolist() hands write_csv Python scalars: a bool, not a numpy bool, prints 1 or 0
    columns = [
        column
        for f in fields(TrialRecord)
        for column in np.reshape(getattr(trials, f.name), (n, -1)).T.tolist()
    ]
    write_csv(path, TrialRecord.CSV_FIELDS, zip(*columns))


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
    with _output_file(path) as fh:
        json.dump(_strict_json(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
