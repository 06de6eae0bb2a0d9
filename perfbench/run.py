"""ultraloc benchmark: one workload per call, closed loop, one process at a time.

    python3 perfbench/run.py --workload fix-stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It measures the program in that
checkout's src/ and prints a readable report, then, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit code is nonzero when an output check fails. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fix-stream", "sweep-fused", "placement-search")
SETUP_PROCESSES = 4  # fresh processes per run whose set-up time is sampled
DEADLINE_S = 170.0
# Reference-kernel time of a nominal host; timings are rescaled to it.
NOMINAL_PROBE_S = 0.0003
PROBE_PAD_S = 0.5
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
END_TO_END_UNITS = {"setup_s": "s", "latency_ms": "ms", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def run_worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    result = workdir / f"result-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    subprocess.run(
        [*cmd, "--spawned", repr(spawned)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=max(deadline - spawned, 1.0),
    )
    return json.loads(result.read_text())


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Gated metrics, rescaled to a nominal-speed host (README.md), and report-only figures."""
    ops = main["ops"]
    scales = stats.host_scales(
        list(zip(ops["t0"], ops["t1"])),
        main["probe_times"],
        main["probe_durations"],
        NOMINAL_PROBE_S,
        PROBE_PAD_S,
    )
    norm = [b * s for b, s in zip(ops["busy"], scales)]
    setup = [s["setup_busy_s"] * NOMINAL_PROBE_S / s["setup_probe_s"] for s in setups]
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_ms": statistics.median(norm) * 1e3,
        "work_per_s": sum(ops["work"]) / sum(norm),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    extra = {
        "latency_ms_raw": statistics.median(ops["busy"]) * 1e3,
        "work_per_s_raw": sum(ops["work"]) / sum(ops["busy"]),
        "setup_s_raw": statistics.median(s["setup_s"] for s in setups),
        "probe_ms": statistics.median(main["probe_durations"]) * 1e3,
        "samples": len(norm),
    }
    tail = stats.tail_percentile(len(norm))  # the highest with ten samples beyond it
    for q in sorted({90.0, tail}) if tail is not None else ():
        if q <= tail:
            extra[f"latency_ms_p{q:g}"] = stats.percentile(norm, q) * 1e3
    return metrics, extra


def named_report(workload: str, metrics: dict, extra: dict, quality: float, failed_fraction: float):
    """The metrics in the terms of each workload, for the readable report."""
    lines = {"setup_s": (metrics["setup_s"], "s"), "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
             "failed_fraction": (failed_fraction, "1")}
    if workload == "fix-stream":
        lines["fix_ms_p50"] = (metrics["latency_ms"], "ms")
        if "latency_ms_p90" in extra:
            lines["fix_ms_p90"] = (extra["latency_ms_p90"], "ms")
        lines["fixes_per_s"] = (metrics["work_per_s"], "1/s")
        lines["err_3d_mean_mm"] = (quality * 1e3, "mm")
    elif workload == "sweep-fused":
        lines["sweep_s"] = (metrics["latency_ms"] / 1e3, "s")
        lines["fixes_per_s"] = (metrics["work_per_s"], "1/s")
        lines["err_3d_mean_mm"] = (quality * 1e3, "mm")
    else:
        lines["optimize_s"] = (metrics["latency_ms"] / 1e3, "s")
        lines["placement_vdop_avg"] = (quality, "1")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ultraloc" / "__init__.py").is_file():
        print(f"error: no ultraloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import tracer
    import workloads

    load_start = os.getloadavg()
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(run_worker(args, workdir, deadline, setup_only=True))
        main_res = run_worker(args, workdir, deadline, setup_only=False)
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark worker exited {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    load_end = os.getloadavg()

    ops = main_res["ops"]
    attempted = len(ops["busy"])
    failed = sum(ops["failed"])
    problems = list(ops["problems"])
    check_ops = main_res["check_ops"]
    got = workloads.prefix_digest(ops["digest"], check_ops)
    want = workloads.expected_digest(args.workload, args.seed)
    mismatch = []
    if want is not None and got != want:
        mismatch.append(f"digest of the first {check_ops} outputs is {got}, pinned {want}")
    if args.trace and main_res["plain_digests"] != ops["digest"]:
        mismatch.append("traced outputs differ from untraced outputs")
    if mismatch:  # a changed output invalidates every operation of the run
        failed = attempted
        problems += mismatch

    env = main_res["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"env python {env['python']} numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']}"
        f"  load {load_start[0]:.2f} -> {load_end[0]:.2f}"
    )
    print(f"check {'pinned' if want else 'unpinned'} digest {got[:16]}  problems {len(problems)}")
    for p in problems[:10]:
        print(f"  problem: {p}")

    if args.trace:
        layers = main_res["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracer.PER_LAYER.items()}
        for name, unit in tracer.PER_LAYER.items():
            print(f"  {name:36s} {layers[name]:14.6g} {unit}")
        for name in main_res["absent"]:
            print(f"  absent: {name} (reported as 0)")
    else:
        values, extra = end_to_end(main_res, [*setups, main_res])
        quality = statistics.fmean(ops["quality"][:check_ops])
        for name, (value, unit) in named_report(
            args.workload, values, extra, quality, failed / attempted
        ).items():
            print(f"  {name:22s} {value:14.6g} {unit}")
        for name, value in extra.items():
            print(f"  {name:22s} {value:14.6g}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
