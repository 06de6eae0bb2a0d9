"""Order statistics and host-speed normalization for the benchmark report."""

from __future__ import annotations

import bisect
import math
import statistics

# Percentiles the report may quote as its tail, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, candidates=TAIL_CANDIDATES, beyond: int = MIN_BEYOND):
    """Highest candidate percentile that leaves at least `beyond` of n samples above it.

    Returns None when no candidate qualifies; the median is then the only
    order statistic the sample supports.
    """
    for q in candidates:
        if n * (100.0 - q) / 100.0 >= beyond - 1e-9:
            return q
    return None


def host_scales(op_windows, probe_times, probe_durations, nominal: float, pad: float):
    """Per-operation factor that rescales a wall time to a nominal-speed host.

    The host's speed drifts by tens of percent within seconds, and it slows
    the program and a fixed reference kernel alike. Each operation is
    rescaled by nominal / (median reference-kernel time over the probes
    taken within `pad` seconds of the operation). probe_times must be
    sorted. An operation with fewer than five probes nearby falls back to
    the median of all probes.
    """
    overall = statistics.median(probe_durations)
    scales = []
    for t0, t1 in op_windows:
        lo = bisect.bisect_left(probe_times, t0 - pad)
        hi = bisect.bisect_right(probe_times, t1 + pad)
        near = probe_durations[lo:hi]
        ref = statistics.median(near) if len(near) >= 5 else overall
        scales.append(nominal / ref)
    return scales
