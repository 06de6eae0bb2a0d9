"""Span tracer that times the program's layers from outside.

It replaces every public function of each layer module (a function whose
name has no leading underscore and whose __module__ is that module) with
a wrapper that records a span, wherever the package binds that function.
Nothing in the program changes; uninstall() restores every binding.

A span is [id, parent id, name, start, end, tag]. The tag holds a value a
probe reads from the call (array sizes, a key for spotting repeated work).
Spans stay in memory; the per-layer metrics are computed from them after
the traced pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "waveform",
    "channel",
    "ranging",
    "solver",
    "dop",
    "placement",
    "fusion",
    "harness",
    "config",
    "cli",
)

OP_SPAN = "bench.op"

# name -> tag(args, kwargs, result). A probe that raises is dropped and
# the metrics built on it are reported absent. A burst is keyed by its
# length and every 61st sample, which tells apart any two distinct bursts
# of one fix at a fraction of the cost of hashing all of it.
PROBES = {
    "waveform.generate_tx_signal": lambda a, kw, r: hash(
        (r.samples.size, r.samples[::61].tobytes())
    ),
    "channel.apply_channel": lambda a, kw, r: int(r.samples.size),
    "ranging.cross_correlate": lambda a, kw, r: int(r.size),
    "dop.dop_components": lambda a, kw, r: len(r[0]),
    "placement.fitness": lambda a, kw, r: hash(a[0].beacons.tobytes()),
    "placement.optimize": lambda a, kw, r: int(r.restarts),
}


class Tracer:
    def __init__(self, package: str = "ultraloc", layers=LAYERS, probes=PROBES):
        self.package = package
        self.layers = layers
        self.probes = dict(probes)
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        prefix = self.package + "."
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]
        wrappers: dict[int, tuple] = {}
        for layer in self.layers:
            mod = sys.modules.get(prefix + layer)
            if mod is None:
                self.absent.add(layer)
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
                self.wrapped.add(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for name in self.probes:
            if name not in self.wrapped:
                self.absent.add(name)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), 0.0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][4] = time.perf_counter()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            probe = tracer.probes.get(name)
            if probe is not None:
                try:
                    tracer.spans[sid][5] = probe(args, kwargs, result)
                except Exception:  # the program changed shape; report, never crash
                    del tracer.probes[name]
                    tracer.absent.add(name)
            return result

        return wrapper

    def op(self, fn, *args, **kwargs):
        """Run one benchmark operation inside an OP_SPAN root span."""
        sid = self._open(OP_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for sid, parent, _name, t0, t1, _tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[4] - s[3]) - child[s[0]] for s in spans]


def enclosing(spans, sid: int, names) -> int:
    """Id of the nearest ancestor of span sid whose name is in names, or -1."""
    parent = spans[sid][1]
    while parent >= 0:
        if spans[parent][2] in names:
            return parent
        parent = spans[parent][1]
    return -1


class Summary:
    """Per-function call counts, inclusive and self seconds, and tags."""

    def __init__(self, spans):
        self.spans = spans
        selfs = self_times(spans)
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self: dict[str, float] = {}
        self.tags: dict[str, list] = {}
        self.ids: dict[str, list[int]] = {}
        for span, own in zip(spans, selfs):
            sid, _parent, name, t0, t1, tag = span
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0.0) + (t1 - t0)
            self.self[name] = self.self.get(name, 0.0) + own
            self.ids.setdefault(name, []).append(sid)
            if tag is not None:
                self.tags.setdefault(name, []).append(tag)

    def layer_self(self, layer: str, exclude=()) -> float:
        return sum(
            v
            for name, v in self.self.items()
            if name.startswith(layer + ".") and name not in exclude
        )

    def unique_fraction(self, name: str, group_names) -> float:
        """Distinct tags of `name` per enclosing group span, over all its calls."""
        groups: dict[int, set] = {}
        for sid in self.ids.get(name, []):
            tag = self.spans[sid][5]
            groups.setdefault(enclosing(self.spans, sid, group_names), set()).add(tag)
        calls = self.calls.get(name, 0)
        return sum(len(g) for g in groups.values()) / calls if calls else 0.0

    def incl_under(self, name: str, ancestor: str) -> float:
        return sum(
            self.spans[sid][4] - self.spans[sid][3]
            for sid in self.ids.get(name, [])
            if enclosing(self.spans, sid, (ancestor,)) >= 0
        )


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


# Metric name -> the traced functions it needs; a metric whose function
# was not found, or whose probe broke, is listed as absent.
NEEDS = {
    "waveform.synth_calls_per_fix": ("waveform.generate_tx_signal",),
    "waveform.unique_burst_fraction": ("waveform.generate_tx_signal",),
    "channel.apply_share": ("channel.apply_channel",),
    "channel.multipath_share": ("channel.sample_multipath",),
    "channel.rx_samples_per_fix": ("channel.apply_channel",),
    "ranging.correlate_share": ("ranging.cross_correlate",),
    "ranging.correlate_calls_per_fix": ("ranging.cross_correlate",),
    "ranging.lags_per_fix": ("ranging.cross_correlate",),
    "ranging.estimate_self_share": ("ranging.estimate_range",),
    "solver.trilaterate_share": ("solver.trilaterate",),
    "dop.fusion_share": ("dop.dop_components", "harness.run_fix"),
    "dop.calls": ("dop.dop_components",),
    "dop.points_per_call": ("dop.dop_components",),
    "dop.points_per_ms": ("dop.dop_components",),
    "placement.fitness_calls": ("placement.fitness",),
    "placement.unique_fitness_fraction": ("placement.fitness",),
    "placement.fitness_self_share": ("placement.fitness",),
    "placement.crossover_share": ("placement.crossover",),
    "placement.ea_self_share": ("placement.optimize",),
    "placement.restarts": ("placement.optimize",),
    "harness.fix_self_share": ("harness.run_fix",),
}

EMITTERS = ("harness.write_trials_csv", "harness.write_sweep_csv", "harness.write_summary_json")


def layer_metrics(s: Summary, n_ops: int, n_fixes: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of n_ops operations taking `wall` seconds.

    Times are shares of `wall`, so a layer a workload never calls reads 0
    without being a time that never changes; share x trace.wall_ms_per_op
    gives milliseconds per operation. See README.md for each metric.
    """
    m: dict[str, float] = {}
    synth = "waveform.generate_tx_signal"
    corr = "ranging.cross_correlate"
    dopc = "dop.dop_components"
    fit = "placement.fitness"
    m["waveform.synth_calls_per_fix"] = _div(s.calls.get(synth, 0), n_fixes)
    m["waveform.unique_burst_fraction"] = s.unique_fraction(synth, ("harness.run_fix", OP_SPAN))
    m["channel.apply_share"] = _div(s.incl.get("channel.apply_channel", 0.0), wall)
    m["channel.multipath_share"] = _div(s.incl.get("channel.sample_multipath", 0.0), wall)
    m["channel.rx_samples_per_fix"] = _div(sum(s.tags.get("channel.apply_channel", [])), n_fixes)
    m["ranging.correlate_share"] = _div(s.incl.get(corr, 0.0), wall)
    m["ranging.correlate_calls_per_fix"] = _div(s.calls.get(corr, 0), n_fixes)
    m["ranging.lags_per_fix"] = _div(sum(s.tags.get(corr, [])), n_fixes)
    m["ranging.estimate_self_share"] = _div(s.self.get("ranging.estimate_range", 0.0), wall)
    m["solver.trilaterate_share"] = _div(s.incl.get("solver.trilaterate", 0.0), wall)
    m["dop.fusion_share"] = _div(s.incl_under(dopc, "harness.run_fix"), wall)
    points = sum(s.tags.get(dopc, []))
    m["dop.calls"] = _div(s.calls.get(dopc, 0), n_ops)
    m["dop.points_per_call"] = _div(points, s.calls.get(dopc, 0))
    m["dop.points_per_ms"] = _div(points, s.incl.get(dopc, 0.0) * 1e3)
    m["placement.fitness_calls"] = _div(s.calls.get(fit, 0), n_ops)
    m["placement.unique_fitness_fraction"] = s.unique_fraction(fit, (OP_SPAN,))
    m["placement.fitness_self_share"] = _div(s.self.get(fit, 0.0), wall)
    m["placement.crossover_share"] = _div(s.incl.get("placement.crossover", 0.0), wall)
    m["placement.ea_self_share"] = _div(s.self.get("placement.optimize", 0.0), wall)
    m["placement.restarts"] = _div(sum(s.tags.get("placement.optimize", [])), n_ops)
    m["harness.fix_self_share"] = _div(s.self.get("harness.run_fix", 0.0), wall)
    m["harness.batch_self_share"] = _div(
        s.layer_self("harness", exclude=("harness.run_fix", *EMITTERS)), wall
    )
    m["harness.emit_share"] = _div(sum(s.incl.get(e, 0.0) for e in EMITTERS), wall)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _div(s.layer_self(layer), wall)
    return m


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics whose traced functions were missing or whose probe broke."""
    out = []
    for metric, needs in NEEDS.items():
        if any(n not in tracer.wrapped or n in tracer.absent for n in needs):
            out.append(metric)
    for layer in LAYERS:
        if layer in tracer.absent:
            out.append(f"{layer}.self_share")
    return out


# Every per-layer metric a traced run reports, with its unit. The worker
# adds the trace.*, setup.* and host.* entries.
PER_LAYER = {
    "waveform.synth_calls_per_fix": "count",
    "waveform.unique_burst_fraction": "ratio",
    "channel.apply_share": "ratio",
    "channel.multipath_share": "ratio",
    "channel.rx_samples_per_fix": "count",
    "ranging.correlate_share": "ratio",
    "ranging.correlate_calls_per_fix": "count",
    "ranging.lags_per_fix": "count",
    "ranging.estimate_self_share": "ratio",
    "solver.trilaterate_share": "ratio",
    "dop.fusion_share": "ratio",
    "dop.calls": "count",
    "dop.points_per_call": "count",
    "dop.points_per_ms": "1/ms",
    "placement.fitness_calls": "count",
    "placement.unique_fitness_fraction": "ratio",
    "placement.fitness_self_share": "ratio",
    "placement.crossover_share": "ratio",
    "placement.ea_self_share": "ratio",
    "placement.restarts": "count",
    "harness.fix_self_share": "ratio",
    "harness.batch_self_share": "ratio",
    "harness.emit_share": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.ops": "count",
    "trace.wall_ms_per_op": "ms",
    "trace.layer_self_share": "ratio",
    "trace.overhead_ms_per_op": "ms",
    "setup.import_ms": "ms",
    "host.probe_ms": "ms",
}
