"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracer
import workloads

workloads.import_program()


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(39) is None


def test_percentile_matches_numpy():
    xs = list(np.random.default_rng(3).exponential(size=37))
    for q in (0, 25, 50, 90, 99, 100):
        assert stats.percentile(xs, q) == pytest.approx(np.percentile(xs, q))


def test_host_scales_rescale_to_nominal():
    times = [i * 0.05 for i in range(100)]
    scales = stats.host_scales([(1.0, 2.0), (3.0, 3.01)], times, [0.002] * 100, 0.001, 0.5)
    assert scales == [0.5, 0.5]


def test_self_time_with_nested_spans():
    spans = [
        [0, -1, "a.f", 0.0, 10.0, None],
        [1, 0, "b.g", 1.0, 4.0, None],
        [2, 1, "c.h", 2.0, 3.0, None],
        [3, 0, "b.g", 5.0, 9.0, None],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    s = tracer.Summary(spans)
    assert s.calls["b.g"] == 2
    assert s.incl["b.g"] == 7.0
    assert s.self["b.g"] == 6.0
    assert s.layer_self("b") + s.layer_self("a") + s.layer_self("c") == 10.0
    assert tracer.enclosing(spans, 2, ("a.f",)) == 0


@pytest.fixture()
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.layer")
    code = (
        "def inner(x):\n    return [x] * 3\n"
        "def outer(x):\n    return inner(x) + inner(x)\n"
        "def _private(x):\n    return inner(x)\n"
    )
    exec(compile(code, "fakepkg/layer.py", "exec"), mod.__dict__)
    for fn in (mod.inner, mod.outer, mod._private):
        fn.__module__ = "fakepkg.layer"
    pkg.outer = mod.outer  # a re-export, as ultraloc/__init__.py does
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.layer", mod)
    return pkg, mod


def test_tracer_wraps_public_functions_and_restores(fake_package):
    pkg, mod = fake_package
    original = mod.outer
    probes = {"layer.inner": lambda a, kw, r: len(r), "layer.gone": lambda a, kw, r: 0}
    tr = tracer.Tracer(package="fakepkg", layers=("layer", "missing"), probes=probes)
    tr.install()
    try:
        assert pkg.outer is mod.outer is not original
        tr.op(pkg.outer, 1)
        mod._private(2)
    finally:
        tr.uninstall()
    assert pkg.outer is mod.outer is original
    names = [(s[2], s[1]) for s in tr.spans]
    assert names == [
        (tracer.OP_SPAN, -1), ("layer.outer", 0), ("layer.inner", 1), ("layer.inner", 1),
        ("layer.inner", -1),
    ]
    assert [s[5] for s in tr.spans if s[2] == "layer.inner"] == [3, 3, 3]
    assert tr.absent == {"missing", "layer.gone"}


def test_tracer_survives_a_probe_that_breaks(fake_package):
    _, mod = fake_package
    tr = tracer.Tracer(package="fakepkg", layers=("layer",),
                       probes={"layer.inner": lambda a, kw, r: r.size})
    tr.install()
    try:
        assert mod.outer(1) == [1] * 6
    finally:
        tr.uninstall()
    assert "layer.inner" in tr.absent
    assert tracer.Summary(tr.spans).calls["layer.inner"] == 2


def test_different_seeds_make_different_inputs(tmp_path):
    for cls in workloads.WORKLOADS.values():
        a, b, a2 = cls(1, tmp_path), cls(2, tmp_path), cls(1, tmp_path)
        inputs = (lambda w: w.positions) if cls is workloads.FixStream else (lambda w: w.seeds)
        assert not np.array_equal(inputs(a), inputs(b)), cls.name
        assert np.array_equal(inputs(a), inputs(a2)), cls.name


def test_perturbed_output_fails_the_digest_check(tmp_path):
    wl = workloads.FixStream(0, tmp_path)
    ops = workloads.measure(wl, 0.0, n_ops=wl.check_ops)
    assert not ops["problems"]
    good = workloads.prefix_digest(ops["digest"], wl.check_ops)
    assert good == workloads.expected_digest(wl.name, 0)
    rec = wl.run(7)
    text, _, _, _ = wl.inspect(7, rec)
    bad = text.replace(str(rec.peak_samples[0]).encode(), str(rec.peak_samples[0] + 1).encode(), 1)
    digests = list(ops["digest"])
    digests[7] = workloads.op_digest(bad)
    assert workloads.prefix_digest(digests, wl.check_ops) != good


def test_run_exits_nonzero_on_digest_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "expected_digest", lambda name, seed: "0" * 64)
    rc = run.main(["--workload", "fix-stream", "--seed", "0", "--seconds", "0.1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 100


def test_placement_check_recomputes_dop():
    from ultraloc import OPTIMIZED_LAYOUT
    from ultraloc.dop import DroneDomain, dop_average

    got = workloads.domain_dop_average(np.asarray(OPTIMIZED_LAYOUT.positions))
    assert got == pytest.approx(dop_average(OPTIMIZED_LAYOUT, DroneDomain()), rel=1e-12)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    computed = tracer.layer_metrics(tracer.Summary([]), n_ops=1, n_fixes=1, wall=1.0)
    assert set(computed) <= set(tracer.PER_LAYER)
    assert set(tracer.NEEDS) <= set(computed)
