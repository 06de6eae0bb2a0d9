"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (run with -s to see
them live; they also appear in captured output). Tolerances are pinned
here, not tuned at runtime.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np

from ultraloc import harness
from ultraloc import ranging as rg
from ultraloc import waveform as wf
from ultraloc.channel import (
    ORIGINAL_LAYOUT,
    OPTIMIZED_LAYOUT,
    SPEED_OF_SOUND,
    BeaconLayout,
    ChannelModel,
    Scene,
    apply_channel,
)
from ultraloc.config import default_config
from ultraloc.dop import DroneDomain, crb_2d, dop_at, dop_average
from ultraloc.placement import PlacementProblem, optimize
from ultraloc.solver import trilaterate

C = SPEED_OF_SOUND
FS = wf.SAMPLE_RATE
ROOM = (5.0, 5.0, 4.0)


def _report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    line = f"[criterion {criterion:2d}] {status}: {description}{suffix}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # reach the terminal even when pytest captures stdout
        print(line, file=sys.__stdout__)
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


def _gauss_newton(layout, ranges, x0, iters=50):
    positions = np.asarray(layout.positions, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iters):
        diff = x[None, :] - positions
        dists = np.linalg.norm(diff, axis=1)
        jac = -diff / dists[:, None]
        step, *_ = np.linalg.lstsq(jac, ranges - dists, rcond=None)
        x -= step
        if np.linalg.norm(step) < 1e-14:
            break
    return x


def test_criterion_1_walsh_orthogonality_and_despreading():
    t0 = time.perf_counter()
    walsh = wf.walsh_hadamard(4)
    gram = walsh.rows @ walsh.rows.T
    orthogonal = np.array_equal(gram, 4 * np.eye(4, dtype=np.int64))

    rng = np.random.default_rng(20)
    plan = wf.random_hop_plan(32, seed=77)
    config = wf.WaveformConfig(data_bits=wf.random_data_bits((4, 32), rng))
    signals = wf.generate_tx_signals(config, plan, walsh.rows[:4])
    composite = wf.SampledSignal(samples=signals.samples.sum(axis=0), sample_rate=FS)
    bit_errors = 0
    for i in range(4):
        decoded = rg.decode_bits(composite, walsh.row(i), plan, config)
        bit_errors += int(np.sum(decoded != config.data_bits[i]))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "four simultaneous beacons decode with zero bit errors, codes exactly orthogonal",
        orthogonal and bit_errors == 0 and elapsed < 1.0,
        f"bit_errors={bit_errors}, elapsed={elapsed:.2f}s",
    )


def test_criterion_2_ranging_quantization_floor():
    t0 = time.perf_counter()
    tol = 2.0 * C / FS  # about 2.02 mm
    walsh = wf.walsh_hadamard(4)
    beacon0 = np.array([0.05, 0.05, 0.05])
    direction = np.array([4.4, 4.4, 3.35])
    direction /= np.linalg.norm(direction)
    others = np.array([[4.9, 0.1, 3.9], [0.1, 4.9, 3.9], [4.9, 4.9, 0.1]])
    layout = BeaconLayout(positions=np.vstack([beacon0, others]))

    rng = np.random.default_rng(2024)
    distances = rng.uniform(0.5, 7.0, size=100)
    worst = 0.0
    for k, dist in enumerate(distances):
        scene = Scene(ROOM, layout, beacon0 + dist * direction)
        plan = wf.random_hop_plan(32, seed=1000 + k)
        config = wf.WaveformConfig(data_bits=wf.random_data_bits(32, rng))
        tx0 = wf.generate_tx_signals(config, plan, walsh.row(0))
        tx = wf.SampledSignal(
            samples=np.vstack([tx0.samples, np.zeros((3, len(tx0)))]), sample_rate=FS
        )
        received = apply_channel(tx, scene, ChannelModel())
        est = rg.estimate_ranges(received, tx0, C).distances[0]
        worst = max(worst, abs(est - dist))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        f"noiseless single-path ranging error <= {tol*1000:.2f} mm over 100 distances",
        worst <= tol and elapsed < 10.0,
        f"worst={worst*1000:.3f} mm, elapsed={elapsed:.1f}s",
    )


def test_criterion_3_frequency_hopping_rejects_multipath():
    cfg = default_config()
    cfg = replace(cfg, channel=replace(cfg.channel, snr_db=20.0))
    position = np.array([2.3, 1.7, 1.2])
    true_d = np.linalg.norm(np.asarray(ORIGINAL_LAYOUT.positions) - position, axis=1)
    noiseless_lags = np.round(true_d / C * FS).astype(int)

    hits = np.zeros(4, dtype=int)
    n_trials = 200
    for t in range(n_trials):
        rec = harness.run_fix(cfg, position, [31, t])
        assert not rec.failed
        hits += np.array(rec.peak_samples) == noiseless_lags
    rates = hits / n_trials
    _report(
        3,
        "correlation peak matches the noiseless lag in >= 95% of 200 multipath trials per beacon",
        bool(np.all(rates >= 0.95)),
        "rates=" + "/".join(f"{r:.3f}" for r in rates),
    )


def test_criterion_4_trilateration_exactness_and_nonlinear_agreement():
    rng = np.random.default_rng(40)
    worst_exact = 0.0
    for _ in range(100):
        while True:
            positions = rng.uniform([0, 0, 0], [5, 5, 4], size=(4, 3))
            if np.linalg.matrix_rank(positions[-1] - positions[:-1], tol=1e-3) == 3:
                break
        layout = BeaconLayout(positions=positions)
        target = rng.uniform([0.5, 0.5, 0.5], [4.5, 4.5, 3.5])
        ranges = np.linalg.norm(positions - target, axis=1)
        fix = trilaterate(layout, ranges)
        worst_exact = max(worst_exact, float(np.max(np.abs(fix.position - target))))

    target = np.array([2.0, 2.0, 1.0])
    ranges = np.linalg.norm(np.asarray(ORIGINAL_LAYOUT.positions) - target, axis=1) + 1e-3
    fix = trilaterate(ORIGINAL_LAYOUT, ranges)
    gn = _gauss_newton(ORIGINAL_LAYOUT, ranges, x0=target)
    err_module = np.linalg.norm(fix.position - target)
    err_oracle = np.linalg.norm(gn - target)
    agreement = err_module <= 1.1 * err_oracle and err_module < 0.01
    _report(
        4,
        "noiseless recovery <= 1e-9 m; error within 10% of the Gauss-Newton oracle's on +1 mm ranges",
        worst_exact <= 1e-9 and agreement,
        f"worst_exact={worst_exact:.2e} m, module={err_module*1000:.3f} mm, oracle={err_oracle*1000:.3f} mm",
    )


def test_criterion_5_dop_matches_adjugate_oracle():
    def adjugate_inverse(m):
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        adj = np.array(
            [
                [e * i - f * h, c * h - b * i, b * f - c * e],
                [f * g - d * i, a * i - c * g, c * d - a * f],
                [d * h - e * g, b * g - a * h, a * e - b * d],
            ]
        )
        return adj / det

    rng = np.random.default_rng(50)
    worst_rel = 0.0
    worst_identity = 0.0
    n_checked = 0
    while n_checked < 100:
        positions = rng.uniform([0, 0, 0], [5, 5, 4], size=(4, 3))
        target = rng.uniform([0.5, 0.5, 0.5], [4.5, 4.5, 3.5])
        diff = positions - target
        u = diff / np.linalg.norm(diff, axis=1)[:, None]
        eigs = np.linalg.eigvalsh(u.T @ u)
        if eigs[0] <= 1e-3:
            continue
        n_checked += 1
        q = adjugate_inverse(u.T @ u)
        expected = (
            math.sqrt(q[0, 0] + q[1, 1]),
            math.sqrt(q[2, 2]),
            math.sqrt(q[0, 0] + q[1, 1] + q[2, 2]),
        )
        r = dop_at(BeaconLayout(positions=positions), target)
        got = (r.hdop, r.vdop, r.gdop)
        worst_rel = max(
            worst_rel, max(abs(g - e) / e for g, e in zip(got, expected))
        )
        worst_identity = max(
            worst_identity,
            abs(r.gdop**2 - (r.hdop**2 + r.vdop**2)) / r.gdop**2,
        )
    _report(
        5,
        "DOP equals brute-force adjugate inversion (rel < 1e-9) and gdop^2 = hdop^2 + vdop^2",
        worst_rel < 1e-9 and worst_identity < 1e-9,
        f"worst_rel={worst_rel:.2e}, worst_identity={worst_identity:.2e}",
    )


def test_criterion_6_vertical_error_dominates_horizontal():
    cfg = default_config()  # original layout, multipath on, fusion off
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0)
    _, table = harness.sweep_snr(cfg, snr_list=snrs, trials_per_point=200)
    ratios = {row["snr_db"]: row["mean_err_z"] / row["mean_err_xy"] for row in table}
    failed_trials = sum(row["n_failed"] for row in table)
    _report(
        6,
        "mean err_z / mean err_xy > 1.5 at every SNR in {0,5,10,15,20} dB (original layout)",
        all(r > 1.5 for r in ratios.values()) and failed_trials == 0,
        "ratios=" + ", ".join(f"{s:g}dB:{r:.2f}" for s, r in ratios.items()),
    )


def test_criterion_7_placement_optimization_improves_vdop():
    domain = DroneDomain()
    _, v_orig = dop_average(ORIGINAL_LAYOUT, domain)
    _, v_opt = dop_average(OPTIMIZED_LAYOUT, domain)

    t0 = time.perf_counter()
    result = optimize(PlacementProblem(rng_seed=1))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "optimized layout beats original on average VDOP; EA (h=v=2) returns a feasible layout at least as good",
        v_opt < v_orig
        and result.feasible
        and result.vdop_avg <= v_orig
        and result.hdop_avg <= 2.0
        and result.vdop_avg <= 2.0
        and elapsed < 120.0,
        f"v_orig={v_orig:.4f}, v_opt={v_opt:.4f}, ea_v={result.vdop_avg:.4f}, "
        f"ea_h={result.hdop_avg:.4f}, restarts={result.restarts}, elapsed={elapsed:.1f}s",
    )


def test_criterion_8_end_to_end_accuracy_with_fusion():
    cfg = default_config()
    cfg = replace(
        cfg,
        scene=replace(cfg.scene, layout=OPTIMIZED_LAYOUT, layout_name="optimized"),
        channel=replace(cfg.channel, snr_db=15.0),
        fusion=replace(cfg.fusion, enabled=True),
        run=replace(cfg.run, trials=200, seed=8),
    )
    records = harness.simulate(cfg)
    ok = [r for r in records if not r.failed]
    mean_3d = float(np.mean([r.err_3d for r in ok]))
    _report(
        8,
        "optimized layout + fusion at 15 dB: mean 3-D error <= 1.5 cm over 200 fixes",
        len(ok) == 200 and mean_3d <= 0.015,
        f"mean_err_3d={mean_3d*1000:.2f} mm, failed={200-len(ok)}",
    )


def test_criterion_9_ea_invariants():
    t0 = time.perf_counter()
    problem = PlacementProblem(
        drone_domain=DroneDomain(grid_resolution=1.0),
        population=20,
        parents=12,
        iterations=15,
        rng_seed=12,
        max_restarts=1,
    )
    sizes = []
    result_a = optimize(problem, observer=lambda run, it, pop: sizes.append(len(pop)))
    result_b = optimize(problem)
    hist = result_a.history
    monotone = all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    constant_pop = set(sizes) == {problem.population}
    deterministic = (
        np.array_equal(result_a.layout.positions, result_b.layout.positions)
        and result_a.history == result_b.history
    )
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "EA best-fitness history non-increasing, population size constant, seed-deterministic",
        monotone and constant_pop and deterministic and elapsed < 60.0,
        f"iterations={len(hist)}, elapsed={elapsed:.1f}s",
    )


def test_criterion_10_crb_closed_form():
    angles = np.deg2rad([0.0, 120.0, 240.0])
    # independent closed form: three pairs, each |sin(+-120 deg)| = sqrt(3)/2
    expected = math.sqrt(3.0 / (3.0 * math.sqrt(3.0) / 2.0))
    got = crb_2d(angles, sigma_r=1.0)
    _report(
        10,
        "2-D bound for beacons at {0,120,240} degrees matches 1.0746*sigma_r",
        abs(got - expected) <= 1e-6,
        f"got={got:.7f}, closed_form={expected:.7f}",
    )
