"""One benchmark process: set up a workload, measure it, write a result file.

run.py starts this script with BLAS/OpenMP threads pinned to 1. With
--setup-only it stops once the workload is ready for its first timed
call. Otherwise it runs the workload closed loop (one caller, the next
operation starts when the previous one returns) and records each
operation's wall time, output digest and problems. With --trace 1 it
measures an untraced pass, then repeats the same operations under the
tracer and derives the per-layer metrics.

Only the standard library is imported at module level: the host probe
must be running before numpy, scipy and ultraloc load, so that set-up
time can be scaled like operation time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path


class HostProbe:
    """A fixed interpreted loop, timed 20 times a second, to track host speed.

    Its time inside an operation or inside set-up is subtracted from it.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i
        d = time.perf_counter() - t0
        self.times.append(t0)
        self.durations.append(d)
        self.spent += d

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def traced_run(wl, seconds: float) -> dict:
    """An untraced pass for half the time, then the same operations traced."""
    import tracer as tracing
    import workloads

    plain = workloads.measure(wl, seconds / 2)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = workloads.measure(wl, 0.0, n_ops=len(plain["busy"]), tracer=tr)
    finally:
        tr.uninstall()
    n = len(traced["busy"])
    wall, untraced = sum(traced["busy"]), sum(plain["busy"])
    summary = tracing.Summary(tr.spans)
    layers = tracing.layer_metrics(
        summary, n_ops=n, n_fixes=sum(traced["work"]) if wl.unit == "fix" else 0, wall=wall
    )
    program_self = sum(v for name, v in summary.self.items() if name != tracing.OP_SPAN)
    layers["trace.ops"] = n
    layers["trace.wall_ms_per_op"] = wall * 1e3 / n
    layers["trace.layer_self_share"] = program_self / wall
    layers["trace.overhead_ms_per_op"] = (wall - untraced) * 1e3 / n
    return {
        "ops": traced,
        "plain_digests": plain["digest"],
        "layers": layers,
        "absent": tracing.absent_metrics(tr),
    }


def main(argv=None) -> int:
    probe = HostProbe()
    probe.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    import numpy as np

    import workloads

    workloads.import_program()
    import scipy

    import_s = time.perf_counter() - t_import
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.warmup()
    setup_s = time.monotonic() - args.spawned
    res = {
        "setup_s": setup_s,
        "setup_busy_s": setup_s - probe.spent,
        "setup_probe_s": statistics.median(probe.durations),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if args.setup_only:
        probe.stop()
    elif args.trace:
        probe.stop()  # no samples inside traced spans
        res.update(traced_run(wl, args.seconds))
        res["layers"]["setup.import_ms"] = import_s * 1e3
        res["layers"]["host.probe_ms"] = res["setup_probe_s"] * 1e3
    else:
        try:
            res["ops"] = workloads.measure(wl, args.seconds, probe=probe)
        finally:
            probe.stop()
    res["check_ops"] = wl.check_ops
    res["probe_times"] = probe.times
    res["probe_durations"] = probe.durations
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
