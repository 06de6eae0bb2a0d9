"""The three benchmark workloads and the checks on their outputs.

Each workload turns the workload seed into inputs for the program, runs
one operation k through a public entry point (ultraloc.harness.run_fix or
ultraloc.cli.main), and inspects the result: canonical output bytes for
the digest, a list of problems, the work done and a quality figure.
Entry points are looked up on their module at call time, so the tracer's
wrappers are used when it is installed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# Default placement problem, as the benchmark defines it independently.
DOMAIN_AXES = ((0.5, 4.5), (0.5, 4.5), (0.5, 3.0))
DOMAIN_GRID = 0.5
MIN_SEPARATION = 0.5
EA_ITERATIONS = 100
DOP_TOLERANCE = 2.0


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ultraloc from this checkout's src/, and from nowhere else."""
    if not (SRC / "ultraloc" / "__init__.py").is_file():
        raise ProgramMissing(f"no ultraloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ultraloc
    import ultraloc.cli
    import ultraloc.harness

    if Path(ultraloc.__file__).resolve().parent != (SRC / "ultraloc").resolve():
        raise ProgramMissing(f"ultraloc was imported from {ultraloc.__file__}")
    return ultraloc


def op_digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def prefix_digest(op_digests, n: int) -> str:
    """Digest of the first n operations' outputs."""
    if len(op_digests) < n:
        raise ValueError(f"need {n} operations for the digest, have {len(op_digests)}")
    return hashlib.sha256("\n".join(op_digests[:n]).encode()).hexdigest()


def expected_digest(workload: str, seed: int, path: Path = EXPECTED):
    """Pinned prefix digest for (workload, seed), or None if not pinned."""
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get("seeds", {}).get(str(seed))


def measure(wl, seconds: float, n_ops: int | None = None, probe=None, tracer=None) -> dict:
    """Closed loop over operations 0, 1, ...: for `seconds` (and at least
    wl.min_ops), or exactly n_ops operations when n_ops is given."""
    ops = {"t0": [], "t1": [], "busy": [], "work": [], "quality": [], "digest": [], "failed": [],
           "problems": []}
    start = time.perf_counter()
    k = 0
    while (k < n_ops) if n_ops is not None else (
        k < wl.min_ops or time.perf_counter() - start < seconds
    ):
        wl.prepare(k)
        spent0 = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        result = tracer.op(wl.run, k) if tracer else wl.run(k)
        t1 = time.perf_counter()
        busy = (t1 - t0) - ((probe.spent - spent0) if probe else 0.0)
        output, problems, work, quality = wl.inspect(k, result)
        for key, value in (
            ("t0", t0), ("t1", t1), ("busy", busy), ("work", work), ("quality", quality),
            ("digest", op_digest(output)), ("failed", bool(problems)),
        ):
            ops[key].append(value)
        ops["problems"].extend(problems)
        k += 1
    return ops


def op_seeds(seed: int, stream: int, n: int = 4096) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


class FixStream:
    """run_fix back to back at random drone-domain positions, default config."""

    name = "fix-stream"
    unit = "fix"
    min_ops = 100  # ten fixes beyond p90
    check_ops = 100

    def __init__(self, seed: int, workdir: Path):
        from ultraloc import default_config, harness

        self.harness = harness
        self.seed = seed
        self.config = default_config()
        dom = self.config.drone_domain()
        self._lo = np.array([dom.x_range[0], dom.y_range[0], dom.z_range[0]])
        self._hi = np.array([dom.x_range[1], dom.y_range[1], dom.z_range[1]])
        self._rng = np.random.default_rng([seed, 0xF1])
        self.positions = self._rng.uniform(self._lo, self._hi, size=(4096, 3))

    def prepare(self, k: int) -> None:
        while k >= len(self.positions):
            more = self._rng.uniform(self._lo, self._hi, size=(4096, 3))
            self.positions = np.vstack([self.positions, more])

    def run(self, k: int):
        return self.harness.run_fix(self.config, self.positions[k], [self.seed, k])

    def warmup(self) -> None:
        self.run(0)

    def inspect(self, k: int, rec):
        text = " ".join(
            [str(k), *(str(p) for p in rec.peak_samples), *(f"{v:.12g}" for v in rec.est_position)]
        )
        problems = []
        if rec.failed:
            problems.append(f"fix {k} failed: {rec.error}")
        else:
            ch, wf = self.config.channel, self.config.waveform
            beacons = np.asarray(self.config.scene.layout.positions)
            ranges = np.asarray(rec.peak_samples) / wf.sample_rate * ch.speed_of_sound
            true = np.linalg.norm(beacons - self.positions[k], axis=1)
            if not (
                np.allclose(rec.range_errors, ranges - true, rtol=0.0, atol=1e-9)
                and np.allclose(rec.est_position, linear_fix(beacons, ranges), rtol=0.0, atol=1e-6)
            ):
                problems.append(f"fix {k}: range errors or position disagree with the peaks")
        if not np.array_equal(rec.true_position, self.positions[k]):
            problems.append(f"fix {k}: record holds another true position")
        return text.encode() + b"\n", problems, 1, rec.err_3d


def linear_fix(beacons: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Position from four ranges: sphere equations differenced against the last beacon."""
    ref, others = beacons[-1], beacons[:-1]
    a = 2.0 * (ref - others)
    b = ranges[:-1] ** 2 - ranges[-1] ** 2 - np.sum(others**2, axis=1) + np.sum(ref**2)
    return np.linalg.solve(a, b)


class SweepFused:
    """`ultraloc sweep` over the default SNR list, optimized layout, auto-weighted fusion."""

    name = "sweep-fused"
    unit = "fix"
    min_ops = 3
    check_ops = 3
    trials = 8
    snr_points = 5  # the default snr_list
    INI = "[scene]\nlayout = optimized\n\n[fusion]\nenabled = true\nauto_weights = true\n"

    def __init__(self, seed: int, workdir: Path):
        from ultraloc import cli

        self.cli = cli
        self.ini = workdir / "sweep-fused.ini"
        self.ini.write_text(self.INI)
        self.out = workdir / "sweep-out"
        self.seeds = op_seeds(seed, 0x5E)

    def prepare(self, k: int) -> None:
        while k >= len(self.seeds):
            self.seeds += op_seeds(self.seeds[-1], 0x5E)

    def run(self, k: int, trials: int | None = None) -> int:
        argv = ["sweep", "--config", str(self.ini), "--seed", str(self.seeds[k]),
                "--out", str(self.out), "--trials", str(trials or self.trials)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def warmup(self) -> None:
        self.run(0, trials=1)

    def inspect(self, k: int, rc: int):
        trials = (self.out / "trials.csv").read_bytes()
        sweep = (self.out / "sweep.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(trials.decode())))
        table = list(csv.DictReader(io.StringIO(sweep.decode())))
        problems = []
        if rc != 0:
            problems.append(f"sweep {k} exited {rc}")
        if len(rows) != self.trials * self.snr_points or len(table) != self.snr_points:
            problems.append(f"sweep {k}: {len(rows)} trial rows, {len(table)} SNR rows")
        errs = [float(r["err_3d"]) for r in rows]
        if any(r["failed"] != "0" for r in rows) or any(t["n_failed"] != "0" for t in table):
            problems.append(f"sweep {k}: failed trials")
        for i, t in enumerate(table):  # each SNR row aggregates its own trials
            own = errs[i * self.trials : (i + 1) * self.trials]
            if not own or not math.isclose(float(t["mean_err_3d"]), float(np.mean(own)), rel_tol=1e-9):
                problems.append(f"sweep {k}: SNR row {i} does not match its trials")
        quality = float(np.mean(errs)) if errs else math.nan
        return trials + sweep, problems, len(rows), quality


def domain_dop_average(beacons: np.ndarray) -> tuple[float, float]:
    """Mean HDOP and VDOP over the default 486-point drone-domain lattice."""
    axes = [np.arange(lo, hi + 1e-9, DOMAIN_GRID) for lo, hi in DOMAIN_AXES]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    diff = beacons[None, :, :] - pts[:, None, :]
    u = diff / np.linalg.norm(diff, axis=2, keepdims=True)
    q = np.linalg.inv(np.einsum("pij,pik->pjk", u, u))
    return float(np.sqrt(q[:, 0, 0] + q[:, 1, 1]).mean()), float(np.sqrt(q[:, 2, 2]).mean())


class PlacementSearch:
    """`ultraloc optimize` with the default problem (50/40/100 EA, 486 points)."""

    name = "placement-search"
    unit = "search"
    min_ops = 2
    check_ops = 2

    def __init__(self, seed: int, workdir: Path):
        from ultraloc import cli

        self.cli = cli
        self.out = workdir / "optimize-out"
        self.seeds = op_seeds(seed, 0x0B)

    def prepare(self, k: int) -> None:
        while k >= len(self.seeds):
            self.seeds += op_seeds(self.seeds[-1], 0x0B)

    def run(self, k: int) -> int:
        argv = ["optimize", "--seed", str(self.seeds[k]), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def warmup(self) -> None:
        pass  # one search takes seconds; its own warm-up cost is negligible

    def inspect(self, k: int, rc: int):
        placement = (self.out / "placement.json").read_bytes()
        history = (self.out / "history.csv").read_bytes()
        rec = json.loads(placement)
        best = [float(r["best_fitness"]) for r in csv.DictReader(io.StringIO(history.decode()))]
        beacons = np.asarray(rec["beacons"], dtype=float)
        problems = []
        if rc != 0 or not rec["feasible"]:
            problems.append(f"search {k}: exit {rc}, feasible={rec['feasible']}")
        if len(best) != EA_ITERATIONS or any(b > a for a, b in zip(best, best[1:])):
            problems.append(f"search {k}: history is not {EA_ITERATIONS} non-increasing values")
        gaps = [np.linalg.norm(beacons[i] - beacons[j]) for i in range(4) for j in range(i + 1, 4)]
        if beacons.shape != (4, 3) or min(gaps) < MIN_SEPARATION - 1e-9:
            problems.append(f"search {k}: beacons not {MIN_SEPARATION} m apart")
        else:
            hdop, vdop = domain_dop_average(beacons)
            if not (
                math.isclose(hdop, rec["hdop_avg"], rel_tol=1e-9)
                and math.isclose(vdop, rec["vdop_avg"], rel_tol=1e-9)
                and vdop <= DOP_TOLERANCE
                and hdop <= DOP_TOLERANCE
            ):
                problems.append(
                    f"search {k}: reported DOP ({rec['hdop_avg']}, {rec['vdop_avg']}) "
                    f"vs recomputed ({hdop}, {vdop})"
                )
        return placement + history, problems, 1, float(rec["vdop_avg"])


WORKLOADS = {w.name: w for w in (FixStream, SweepFused, PlacementSearch)}
