"""Monte Carlo experiment driver tying the whole pipeline together.

One fix (run_fix): synthesize one burst per beacon, push them through
the channel, estimate each range by matched-filter correlation,
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

from .channel import ChannelModel, Scene, apply_channel, sample_multipath
from .config import MAX_FIXES, SimConfig
from .dop import DroneDomain
from .errors import ConfigError, UltralocError
from .ranging import estimate_ranges
from .solver import trilaterate
from .waveform import random_data_bits

# Stream labels keeping seed derivations of different experiment kinds apart.
_STREAM_SIMULATE = 0
_STREAM_SWEEP = 1
_STREAM_TRAJECTORY = 2


@dataclass(frozen=True)
class TrialRecord:
    """One localization fix of N beacons (run_fix: scalars, (3,) and (N,)
    arrays, an N-tuple of peaks) or a run's trials table (stack_records:
    the same fields as (n,), (n, 3) and (n, N) columns, row k for trial k).
    The fields are in CSV order; csv_fields names their columns."""

    trial_id: int | np.ndarray
    snr_db: float | None | np.ndarray
    true_position: np.ndarray
    est_position: np.ndarray
    err_xy: float | np.ndarray
    err_z: float | np.ndarray
    err_3d: float | np.ndarray
    range_errors: np.ndarray
    peak_samples: tuple[int, ...] | np.ndarray
    failed: bool | np.ndarray
    error: str | np.ndarray

    @staticmethod
    def csv_fields(n_beacons: int) -> list[str]:
        """The CSV column names of a trials table of n_beacons beacons."""
        xyz = [f"{name}_{axis}" for name in ("true", "est") for axis in "xyz"]
        per_beacon = [f"{name}_{i}" for name in ("range_err", "peak") for i in range(n_beacons)]
        scalars = ["err_xy", "err_z", "err_3d"]
        return ["trial_id", "snr_db", *xyz, *scalars, *per_beacon, "failed", "error"]


def random_position(domain: DroneDomain, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw per axis, x then y then z, as three scalar draws give."""
    return rng.uniform(*zip(domain.x_range, domain.y_range, domain.z_range))


def _limit_fixes(n: int, what: str, fix: str) -> None:
    """A ConfigError, naming the keys to change, if n fixes exceed MAX_FIXES."""
    if n > MAX_FIXES:
        raise ConfigError(f"{what} would hold more than the {MAX_FIXES} fixes allowed; {fix}")


def make_trajectory(config: SimConfig) -> np.ndarray:
    """Seeded piecewise-linear random path through run.trajectory_waypoints
    drone-domain corners, resampled at run.fix_spacing, as (n, 3) fix points.
    More than MAX_FIXES points is a ConfigError, counted first. Each leg of
    nonzero length adds a point, so more than MAX_FIXES waypoints is
    rejected before any corner is drawn, even on a zero-volume drone
    domain, where every leg has zero length and the path is one point."""
    run, domain = config.run, config.drone_domain()
    _limit_fixes(run.trajectory_waypoints, "the trajectory", "lower [run] trajectory_waypoints")
    rng = np.random.default_rng([run.seed, _STREAM_TRAJECTORY])
    corners = np.array([random_position(domain, rng) for _ in range(run.trajectory_waypoints)])
    legs = []  # (start, vector, length, steps), the step count capped at the limit
    for a, b in zip(corners[:-1], corners[1:]):
        length = float(np.linalg.norm(b - a))
        if length > 0.0:
            steps = max(int(min(length / run.fix_spacing, MAX_FIXES)), 1)
            legs.append((a, b - a, length, steps))
    _limit_fixes(1 + sum(leg[3] for leg in legs), "the trajectory", "raise [run] fix_spacing")
    fixes = [corners[0]]
    for a, seg, length, n_steps in legs:
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
        n = len(config.scene.layout.positions)
        return TrialRecord(
            trial_id=0,
            snr_db=config.channel.snr_db,
            true_position=true_position,
            est_position=np.full(3, np.nan),
            err_xy=math.nan,
            err_z=math.nan,
            err_3d=math.nan,
            range_errors=np.full(n, np.nan),
            peak_samples=(-1,) * n,
            failed=True,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_fix_inner(config: SimConfig, true_position: np.ndarray, rng_seed) -> TrialRecord:
    rng = np.random.default_rng(rng_seed)
    wf, ch, layout = config.waveform, config.channel, config.scene.layout
    scene = Scene(room_dims=config.scene.room_dims, beacons=layout, receiver_position=true_position)
    n = len(layout.positions)
    # the plan seed is drawn before the data bits, the taps before the noise
    # seed; the bursts, unscaled, double as the matched-filter references
    references = wf.bursts(int(rng.integers(2**31)), random_data_bits((n, wf.burst_bits), rng))
    model = ChannelModel(ch, *sample_multipath(rng, ch, n), rng_seed=int(rng.integers(2**31)))
    received = apply_channel(references, scene, model)

    estimates = estimate_ranges(received, references, ch.speed_of_sound)
    ranges = estimates.distances
    true_dists = np.linalg.norm(layout.positions - true_position, axis=1)
    est = trilaterate(layout, ranges)

    # the echo, with fusion on, is drawn after the noise seed
    est[2] = config.fusion.fused_z(est, scene, ch.speed_of_sound, wf.sample_rate, rng)

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


def limit_simulation(config: SimConfig) -> None:
    """A ConfigError if simulate's run.trials fixes exceed MAX_FIXES."""
    _limit_fixes(config.run.trials, "the simulation", "lower [run] trials")


def limit_sweep(config: SimConfig) -> None:
    """A ConfigError if sweep_snr's run.trials fixes at each SNR of
    run.snr_list exceed MAX_FIXES in all."""
    n = config.run.trials * len(config.run.snr_list)
    _limit_fixes(n, "the sweep", "lower [run] trials or shorten [run] snr_list")


def simulate(config: SimConfig) -> TrialRecord:
    """Run run.trials seeded fixes at random drone-domain positions at the
    config SNR; more than MAX_FIXES is a ConfigError before any fix is made."""
    limit_simulation(config)
    return _run_trials(_trial_jobs(config, config.run.trials, _STREAM_SIMULATE))


def sweep_snr(config: SimConfig) -> tuple[TrialRecord, list[dict]]:
    """Monte Carlo localization error versus SNR: run.trials fixes at each
    SNR of run.snr_list.

    Returns one trials table, SNR after SNR, plus one aggregate_records
    row per SNR over that SNR's own rows. More than MAX_FIXES fixes in all
    is a ConfigError before any fix is made.
    """
    n, snr_list = config.run.trials, config.run.snr_list
    limit_sweep(config)
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
    """Write a trials table under csv_fields: each field's columns, in field order."""
    n, n_beacons = trials.range_errors.shape
    # .tolist() hands write_csv Python scalars: a bool, not a numpy bool, prints 1 or 0
    columns = [
        column
        for f in fields(TrialRecord)
        for column in np.reshape(getattr(trials, f.name), (n, -1)).T.tolist()
    ]
    write_csv(path, TrialRecord.csv_fields(n_beacons), zip(*columns))


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
