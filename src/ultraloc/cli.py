"""Command-line entry point.

Subcommands:
  simulate    seeded fixes at random positions, trials CSV + JSON summary
  sweep       localization error vs SNR, per-SNR aggregate CSV
  trajectory  fixes along a random flight path
  optimize    evolutionary beacon-placement search
  dopmap      HDOP/VDOP/GDOP lattice over the drone domain as CSV
  rangetest   ranging-only diagnostics (per-beacon range errors)
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness
from .config import SimConfig, default_config, load_config, resolve_layout, validate_config
from .dop import dop_components
from .errors import UltralocError
from .placement import optimize as run_placement


# The optional flags, each registered only on the commands that read it.
_FLAGS = {
    "seed": dict(type=int, help="master RNG seed"),
    "trials": dict(type=int, help="trial count override"),
    "layout": dict(type=str, help="'original', 'optimized', or a coordinate file"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraloc",
        description="Ultrasonic FH-CDMA indoor localization simulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, flags in (
        ("simulate", "run seeded fixes at random drone positions", "seed trials layout"),
        ("sweep", "sweep localization error over SNR values", "seed trials layout"),
        ("trajectory", "localize along a random piecewise-linear path", "seed layout"),
        ("optimize", "search for a beacon placement minimizing average VDOP", "seed"),
        ("dopmap", "emit the DOP lattice for a layout", "layout"),
        ("rangetest", "per-beacon ranging diagnostics", "seed trials layout"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="config file path")
        p.add_argument("--out", type=str, default=".", help="output directory")
        for flag in flags.split():
            p.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
    return parser


def _load(args: argparse.Namespace) -> SimConfig:
    cfg = load_config(args.config) if args.config else default_config()
    flags = vars(args)  # a command has only the flags it reads
    if flags.get("seed") is not None:
        cfg = replace(cfg, run=replace(cfg.run, seed=flags["seed"]))
    if flags.get("trials") is not None:
        cfg = replace(cfg, run=replace(cfg.run, trials=flags["trials"]))
    layout = flags.get("layout")
    if layout is not None:
        cfg = replace(
            cfg,
            scene=replace(cfg.scene, layout_name=layout, layout=resolve_layout(layout)),
        )
    validate_config(cfg, source="command line")
    return cfg


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UltralocError(f"cannot use {out} as output directory: {exc.strerror}") from exc
    return out


def _fail_if_all_failed(records: list[harness.TrialRecord]) -> None:
    """Stop a trial command whose files are written if every trial failed."""
    if all(r.failed for r in records):
        error, count = Counter(r.error for r in records).most_common(1)[0]
        raise UltralocError(
            f"all {len(records)} trials failed; most common cause ({count}x): {error}"
        )


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    records = harness.simulate(cfg)
    harness.write_trials_csv(records, out / "trials.csv")
    summary = harness.aggregate_records(records, cfg.channel.snr_db)
    summary["layout"] = cfg.scene.layout_name
    summary["seed"] = cfg.run.seed
    harness.write_summary_json(summary, out / "summary.json")
    _fail_if_all_failed(records)
    print(f"simulate: {len(records)} fixes -> {out/'trials.csv'}")
    print(
        f"mean err_3d = {summary['mean_err_3d']:.6f} m "
        f"({summary['n_failed']} failed trials)"
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    records, table = harness.sweep_snr(cfg)
    harness.write_trials_csv(records, out / "trials.csv")
    harness.write_sweep_csv(table, out / "sweep.csv")
    harness.write_summary_json({"rows": table, "seed": cfg.run.seed}, out / "summary.json")
    _fail_if_all_failed(records)
    print(f"sweep: {len(table)} SNR points x {cfg.run.trials} trials -> {out/'sweep.csv'}")
    for row in table:
        print(
            f"  snr={row['snr_db']} dB: mean err_xy={row['mean_err_xy']:.6f} m, "
            f"mean err_z={row['mean_err_z']:.6f} m"
        )
    return 0


def _cmd_trajectory(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    traj = harness.make_trajectory(
        cfg.drone_domain(),
        seed=cfg.run.seed,
        n_waypoints=cfg.run.trajectory_waypoints,
        fix_spacing=cfg.run.fix_spacing,
    )
    records, summary = harness.run_trajectory(cfg, traj)
    harness.write_trials_csv(records, out / "trajectory.csv")
    summary["layout"] = cfg.scene.layout_name
    harness.write_summary_json(summary, out / "summary.json")
    _fail_if_all_failed(records)
    print(
        f"trajectory: {summary['n_fixes']} fixes, mean err_z={summary['mean_err_z']:.6f} m, "
        f"mean err_3d={summary['mean_err_3d']:.6f} m"
    )
    return 0


def _cmd_optimize(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    result = run_placement(cfg.placement_problem())
    record = {
        "beacons": result.layout.positions.tolist(),
        "vdop_avg": result.vdop_avg,
        "hdop_avg": result.hdop_avg,
        "iterations": len(result.history),
        "restarts": result.restarts,
        "feasible": result.feasible,
        "seed": cfg.run.seed,
    }
    harness.write_summary_json(record, out / "placement.json")
    harness.write_csv(
        out / "history.csv", ["iteration", "best_fitness"], enumerate(result.history)
    )
    print(
        f"optimize: feasible={result.feasible} vdop_avg={result.vdop_avg:.4f} "
        f"hdop_avg={result.hdop_avg:.4f} after {result.restarts} restarts"
    )
    for b in result.layout.positions:
        print(f"  beacon at ({b[0]:.2f}, {b[1]:.2f}, {b[2]:.2f})")
    return 0


def _cmd_dopmap(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    points = cfg.drone_domain().points()
    hdop, vdop, _ = dop_components(cfg.scene.layout, points)
    gdop = np.sqrt(hdop**2 + vdop**2)
    harness.write_csv(
        out / "dopmap.csv",
        ["x", "y", "z", "hdop", "vdop", "gdop"],
        np.column_stack([points, hdop, vdop, gdop]),
    )
    print(f"dopmap: {points.shape[0]} lattice points -> {out/'dopmap.csv'}")
    return 0


def _cmd_rangetest(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    records = harness.simulate(cfg)
    harness.write_csv(
        out / "rangetest.csv",
        ["trial_id", "beacon", "range_error", "peak_sample", "failed"],
        (
            (rec.trial_id, b, rec.range_errors[b], rec.peak_samples[b], rec.failed)
            for rec in records
            for b in range(4)
        ),
    )
    _fail_if_all_failed(records)
    errs = np.abs([r.range_errors for r in records if not r.failed])
    print(
        f"rangetest: {len(errs)} fixes, mean |range error| per beacon = "
        + ", ".join(f"{e*1000:.3f} mm" for e in errs.mean(axis=0))
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "trajectory": _cmd_trajectory,
    "optimize": _cmd_optimize,
    "dopmap": _cmd_dopmap,
    "rangetest": _cmd_rangetest,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UltralocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
