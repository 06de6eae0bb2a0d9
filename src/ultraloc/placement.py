"""Evolutionary search for beacon placements that minimize average VDOP.

A layout is a (BEACONS, 3) array of beacon positions drawn from a
lattice over the ceiling and the top half of the walls, and a generation
is one (P, BEACONS, 3) array of layouts. Fitness is the drone-domain
average VDOP, with a large constant penalty whenever the average HDOP
exceeds its tolerance so infeasible layouts always rank behind feasible
ones. Selection keeps the best 40 of 50, adjacent parents are crossed per
coordinate, and the worst 20 of the resulting 70 are culled. The whole
search restarts from a fresh population when the final best layout
misses either tolerance.

A generation is ranked on certified fitness bounds, and the DOP
kernel's 3x3 inverse runs only for the few layouts whose exact row an
output or a near-tie needs. The layouts of a generation not yet seen in
the run are bounded together (bound_layouts): the degeneracy rules run on
the whole batch at once, and the DOP kernel takes the rest in calls of at
most PAIR_BUDGET (layout, drone-lattice point) pairs, 33 layouts of the
default 486-point lattice. Each call asks the kernel for its closed-form
estimates, and each layout's fitness lies between the terms of those
estimates times 1 - ESTIMATE_SLACK and times 1 + ESTIMATE_SLACK; this
module alone owns the slack. A layout whose interval meets another
distinct layout's, and each generation's fittest layout, is scored
exactly (score_layouts); every other interval is disjoint from all the
others, so its place in the exact stable order is already known.

A generation pays only for what it changes. A child beacon that copies a
parent beacon is already a lattice point, so only mixed beacons are
snapped to the lattice, through scipy's k-d tree; the tree, and
scipy.spatial with it, loads on a domain's first snap rather than at
import, so commands that never search do not pay its import (_tree). The
ranking hashes only a generation's offspring, and when every offspring
copies a survivor, as in about two of three default generations, the
pool holds no new layout and the memo's fitness ranks it without the
cluster pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .channel import ROOM_DIMS, BeaconLayout, beacon_pairs, coincident_pairs, full_rank
from .dop import DroneDomain, _axis_size, _inclusive_arange, domain_mean, dop_components
from .errors import DomainDegeneracyError, InfeasibleDomainError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# Beacons in each layout the search seeds, and so in every layout it breeds.
BEACONS = 4
BEACON_GRID = 0.25
MIN_SEPARATION = 0.5
POPULATION = 50
PARENTS = 40
ITERATIONS = 100
MAX_RESTARTS = 10
HDOP_PENALTY = 1e6
MAX_DRAWS = 20
# (layout, lattice point) pairs per DOP kernel call while scoring a batch:
# 33 layouts of the default 486-point drone lattice. A lattice larger than
# this goes one layout a call, so a fine drone lattice never holds more
# than one layout's kernel temporaries at once; a full call's peak is about
# 2.4 MB (150 bytes a pair). On the streaming kernel, in two runs of 40
# alternating process pairs (20 default searches a process, median CPU ms;
# 2-vCPU x86-64, numpy 2.4), 16384 against 8192 read 0.952 and 0.984 of
# the time (30 and 26 wins of 40), and 4096 read 1.030 and 1.046 (14 and
# 13 wins): fewer, larger calls, whose streamed block (twelve rows of
# pairs, 1.5 MB) still fits a 2 MB L2. 32768 read 1.01 (8 of 24 wins).
PAIR_BUDGET = 16384
# Most layouts one search may seed and breed: each of the max_restarts + 1
# runs seeds a population and breeds parents / 2 children an iteration.
# On the default problem a layout costs 30-230 us to make and score, so
# 2**19 take between 16 s and 2 minutes of one CPU; one population of 2**17
# layouts took 17 s and peaked at 174 MB RSS (numpy 2.4, Python 3.11,
# Linux x86-64, one EPYC core).
MAX_SEARCH_LAYOUTS = 2**19
# Relative slack on either side of the DOP kernel's closed-form estimates
# that makes them certified bounds: times 1 - ESTIMATE_SLACK a lower bound,
# times 1 + ESTIMATE_SLACK an upper bound (bound_layouts). Over the 2367
# layouts the default searches of seeds 0-7 score, an estimated domain mean
# is within 2.2e-12 of the exact one, relative; the kernel's error bound is
# 1e-8.
ESTIMATE_SLACK = 1e-6


@dataclass(frozen=True)
class BeaconDomain:
    """Admissible beacon positions: ceiling plus the top half of each wall."""

    room_dims: tuple[float, float, float] = ROOM_DIMS
    grid_resolution: float = BEACON_GRID

    def __post_init__(self):
        if not self.grid_resolution > 0:  # NaN fails too
            raise ValueError("grid resolution must be positive")
        if not all(d > 0 for d in self.room_dims):
            raise ValueError("room dimensions must be positive")

    def candidates(self) -> np.ndarray:
        """Deduplicated lattice points on the ceiling and upper wall halves;
        built on the first call and shared, read-only, by every later one."""
        return self._lattice

    @property
    def size(self) -> int:
        """Lattice points before repeats are dropped, counted without building them."""
        w, d, h = self.room_dims
        nx, ny, nz = (
            _axis_size(lo, hi, self.grid_resolution) for lo, hi in ((0.0, w), (0.0, d), (h / 2.0, h))
        )
        return nx * ny + 2 * nz * (nx + ny)

    def snap(self, points: np.ndarray) -> np.ndarray:
        """The lattice candidate nearest to each point."""
        _, nearest = self._tree.query(points)
        return self._lattice[nearest]

    @functools.cached_property
    def _tree(self) -> cKDTree:
        # deferred: only a search snaps, and scipy.spatial takes 0.41-0.46 s to load after
        # numpy (python -X importtime, three fresh processes; Python 3.11, numpy 2.4,
        # scipy 1.17, 2-vCPU x86-64 VM)
        from scipy.spatial import cKDTree

        return cKDTree(self._lattice)

    @functools.cached_property
    def _lattice(self) -> np.ndarray:
        # Every point in loop order (the ceiling row by row, then per wall
        # height the x = 0 / x = w pairs along y and the y = 0 / y = d pairs
        # along x), rounded to 1e-9 m, with repeats dropped after their first.
        w, d, h = self.room_dims
        res = self.grid_resolution
        xs = np.round(_inclusive_arange(0.0, w, res), 9)
        ys = np.round(_inclusive_arange(0.0, d, res), 9)
        zs = np.round(_inclusive_arange(h / 2.0, h, res), 9)[:, None, None]
        ceiling = np.stack(np.broadcast_arrays(xs[:, None], ys, round(h, 9)), axis=-1)
        x_walls = np.stack(np.broadcast_arrays([0.0, round(w, 9)], ys[:, None], zs), axis=-1)
        y_walls = np.stack(np.broadcast_arrays(xs[:, None], [0.0, round(d, 9)], zs), axis=-1)
        walls = np.concatenate(
            [x_walls.reshape(len(zs), -1, 3), y_walls.reshape(len(zs), -1, 3)], axis=1
        )
        pts = np.concatenate([ceiling.reshape(-1, 3), walls.reshape(-1, 3)])
        _, first = np.unique(pts, axis=0, return_index=True)
        pts = pts[np.sort(first)]
        pts.flags.writeable = False
        return pts

    def on_ceiling(self, points: np.ndarray) -> np.ndarray:
        """Whether each point's z is np.isclose to the ceiling height."""
        z, h = np.atleast_2d(points)[:, 2], float(self.room_dims[2])
        # np.isclose(z, h)'s own expression, without the cost of its wrapper
        with np.errstate(invalid="ignore"):
            return (np.abs(z - h) <= 1e-8 + 1e-5 * abs(h)) & math.isfinite(h) | (z == h)


@dataclass(frozen=True)
class PlacementConfig:
    """The [placement] section: the average HDOP and VDOP a layout must meet,
    the EA's population, parents and generations, the beacon lattice spacing
    and least beacon distance (m), and the restarts after a missed tolerance."""

    hdop_tolerance: float = 2.0
    vdop_tolerance: float = 2.0
    population: int = POPULATION
    parents: int = PARENTS
    iterations: int = ITERATIONS
    beacon_grid: float = BEACON_GRID
    min_separation: float = MIN_SEPARATION
    max_restarts: int = MAX_RESTARTS

    def __post_init__(self):
        if not (self.hdop_tolerance > 0 and self.vdop_tolerance > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if self.parents < 2:
            raise ValueError("need at least 2 parents to breed")
        if self.parents > self.population:
            raise ValueError("cannot select more parents than the population holds")
        if self.parents % 2 != 0:
            raise ValueError("parents must pair up, so their count must be even")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not self.beacon_grid > 0:
            raise ValueError("beacon_grid must be positive")
        if not self.min_separation >= 0:  # NaN fails too
            raise ValueError("min_separation must be non-negative")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        layouts = (self.max_restarts + 1) * (self.population + self.iterations * (self.parents // 2))
        if layouts > MAX_SEARCH_LAYOUTS:
            raise ValueError(
                f"a search would breed and score up to {layouts} layouts, more than the "
                f"{MAX_SEARCH_LAYOUTS} allowed; lower max_restarts, population or iterations"
            )


@dataclass(frozen=True)
class PlacementProblem:
    """One search: its [placement] config, the drone domain it scores layouts
    over, the room whose ceiling and upper walls hold the beacons, the seed."""

    config: PlacementConfig = field(default_factory=PlacementConfig)
    drone_domain: DroneDomain = field(default_factory=DroneDomain)
    room_dims: tuple[float, float, float] = ROOM_DIMS
    rng_seed: int = 0

    @functools.cached_property
    def beacon_domain(self) -> BeaconDomain:
        """The room's beacon lattice at config.beacon_grid, built once."""
        return BeaconDomain(self.room_dims, self.config.beacon_grid)


@dataclass(frozen=True)
class PlacementResult:
    layout: BeaconLayout
    vdop_avg: float
    hdop_avg: float
    history: list[float]
    restarts: int
    feasible: bool


def _separated(points: np.ndarray, min_sep: float) -> np.ndarray:
    """Whether every beacon pair of each (..., N, 3) layout is min_sep apart.

    The result has the layouts' leading shape, a numpy bool for one layout.
    """
    i, j = beacon_pairs(points.shape[-2])
    d = points[..., i, :] - points[..., j, :]
    # vecdot runs the same ddot kernel as the scalar np.linalg.norm(d), so
    # near-threshold lattice pairs compare alike. norm(d, axis=-1) rounds
    # another way: it puts 0.1 m lattice points (0.4, 0, 4) and (0.7, 0.4, 4)
    # 0.5 apart, where the scalar norm gives 0.49999999999999994.
    return np.all(np.sqrt(np.vecdot(d, d)) >= min_sep, axis=-1)


def _draw_separated(
    pool: np.ndarray, rng: np.random.Generator, min_sep: float, max_tries: int = 200
) -> np.ndarray:
    """Pick BEACONS mutually separated points from a candidate pool."""
    if pool.shape[0] < BEACONS:
        raise InfeasibleDomainError(f"fewer than {BEACONS} candidate positions in group")
    for _ in range(max_tries):
        idx = rng.choice(pool.shape[0], size=BEACONS, replace=False)
        pts = pool[idx]
        if _separated(pts, min_sep):
            return pts
    raise InfeasibleDomainError(
        f"could not find {BEACONS} candidates separated by {min_sep} m in {max_tries} draws"
    )


def seed_population(problem: PlacementProblem, rng: np.random.Generator) -> np.ndarray:
    """Generate the initial (P, BEACONS, 3) population, stratified to escape local minima.

    Deterministic quotas split the population into all-ceiling, all-wall,
    and mixed groups so the search starts spread over the beacon domain.
    """
    candidates = problem.beacon_domain.candidates()
    ceiling_mask = problem.beacon_domain.on_ceiling(candidates)
    ceiling = candidates[ceiling_mask]
    wall = candidates[~ceiling_mask]

    p, min_sep = problem.config.population, problem.config.min_separation
    n_ceiling = (p + 2) // 3
    n_wall = (p + 1) // 3
    n_mixed = p - n_ceiling - n_wall

    population = [_draw_separated(ceiling, rng, min_sep) for _ in range(n_ceiling)]
    population += [_draw_separated(wall, rng, min_sep) for _ in range(n_wall)]
    for _ in range(n_mixed):
        for _ in range(200):
            pts = _draw_separated(candidates, rng, min_sep)
            on_ceil = problem.beacon_domain.on_ceiling(pts)
            if 0 < on_ceil.sum() < len(pts):
                break
        population.append(pts)
    return np.array(population)


def _kernel_chunks(layouts: np.ndarray, problem: PlacementProblem) -> list[np.ndarray]:
    """Indices of the (L, N, 3) layouts that pass BeaconLayout's degeneracy
    rules, in chunks of at most PAIR_BUDGET (layout, drone-lattice point)
    pairs and never less than one layout, for one DOP kernel call each."""
    valid = np.flatnonzero(~coincident_pairs(layouts).any(axis=-1) & full_rank(layouts))
    per_call = max(1, PAIR_BUDGET // len(problem.drone_domain.points()))
    return [valid[start : start + per_call] for start in range(0, len(valid), per_call)]


def _rejected(n: int) -> np.ndarray:
    """n rows of (inf, nan, nan), a degenerate layout's terms."""
    terms = np.full((n, 3), np.nan)
    terms[:, 0] = np.inf
    return terms


def score_layouts(layouts: np.ndarray, problem: PlacementProblem) -> np.ndarray:
    """(L, 3) rows of (fitness, hdop_avg, vdop_avg) for (L, N, 3) layouts.

    Fitness is the domain-averaged VDOP, penalized when average HDOP
    breaks tolerance. A degenerate layout scores (inf, nan, nan): one
    with a pair of coincident beacons or whose beacons are coplanar or
    collinear, by BeaconLayout's own rules (the downstream linearized
    trilateration cannot use these even when their DOP is finite), and
    one whose DOP is degenerate at more than 1% of the drone domain's
    lattice (domain_mean).

    The first two rules run on the whole batch at once. The remaining
    layouts go through the DOP kernel together, in calls of at most
    PAIR_BUDGET (layout, lattice point) pairs, and never less than one
    layout a call, so a fine drone lattice holds one layout's kernel
    temporaries at a time. Each chunk's rows come from one terms pass
    (_terms), not one per layout, and each equals the row that scoring
    its layout alone gives.
    """
    layouts = np.asarray(layouts, dtype=float)
    terms = _rejected(len(layouts))
    points = problem.drone_domain.points()
    for rows in _kernel_chunks(layouts, problem):
        dops = dop_components(layouts[rows], points)
        terms[rows] = _terms(*(a.reshape(len(rows), -1) for a in dops), problem)
    return terms


def bound_layouts(
    layouts: np.ndarray, problem: PlacementProblem
) -> tuple[np.ndarray, np.ndarray]:
    """(L, 3) lower and upper bounds on score_layouts' rows of (L, N, 3)
    layouts, from the DOP kernel's estimates (dop_components' estimate),
    which skip the 3x3 inverse wherever the kernel's trace screen allows.

    The lower rows are _terms of the estimates times 1 - ESTIMATE_SLACK,
    the upper rows _terms of them times 1 + ESTIMATE_SLACK. Each estimate
    is within ESTIMATE_SLACK / 1000 of the exact DOP, and fitness never
    falls when either average rises, so each layout's exact fitness lies
    between its two bounds. The estimates are positive, so the two fitness
    bounds differ, except for a layout the batch rules or domain_mean
    reject: both its bounds are (inf, nan, nan), as score_layouts scores it.
    """
    layouts = np.asarray(layouts, dtype=float)
    lower, upper = _rejected(len(layouts)), _rejected(len(layouts))
    points = problem.drone_domain.points()
    for rows in _kernel_chunks(layouts, problem):
        dops = dop_components(layouts[rows], points, estimate=True)
        hdop, vdop, degenerate = (a.reshape(len(rows), -1) for a in dops)
        for bound, k in ((lower, 1.0 - ESTIMATE_SLACK), (upper, 1.0 + ESTIMATE_SLACK)):
            bound[rows] = _terms(hdop * k, vdop * k, degenerate, problem)
    return lower, upper


def _terms(
    hdop: np.ndarray, vdop: np.ndarray, degenerate: np.ndarray, problem: PlacementProblem
) -> np.ndarray:
    """(L, 3) rows of (fitness, hdop_avg, vdop_avg) of L layouts' (L, P) DOP
    over the drone lattice, as domain_mean averages each row.

    The rows are averaged in one pass: numpy sums each contiguous row
    pairwise, exactly as domain_mean's 1-D mean does. A row with a
    degenerate point keeps domain_mean's own masked mean, since a mean over
    fewer points is summed in another order, and scores (inf, nan, nan)
    where domain_mean rejects it.
    """
    hdop_avg, vdop_avg = hdop.mean(axis=1), vdop.mean(axis=1)
    rejected = degenerate.any(axis=1)  # until domain_mean accepts the row
    for k in np.flatnonzero(rejected):
        try:
            hdop_avg[k], vdop_avg[k] = domain_mean(hdop[k], vdop[k], degenerate[k])
            rejected[k] = False
        except DomainDegeneracyError:
            hdop_avg[k] = vdop_avg[k] = math.nan
    # the penalty is exactly HDOP_PENALTY or 0.0, as in per-layout scoring
    fitness = vdop_avg + HDOP_PENALTY * (hdop_avg > problem.config.hdop_tolerance)
    fitness[rejected] = math.inf
    return np.column_stack([fitness, hdop_avg, vdop_avg])


def breed(parents: np.ndarray, problem: PlacementProblem, rng: np.random.Generator) -> np.ndarray:
    """Cross each adjacent pair of (2k, N, 3) parents into (k, N, 3) children.

    The parents are lattice layouts: every beacon is one of the beacon
    domain's candidates, as in every population seed_population starts and
    breed continues. Beacon k of a child takes each of x, y, z
    independently from either parent's beacon k with probability 1/2, then
    snaps to the nearest lattice candidate (coordinate mixing can leave the
    wall/ceiling planes). A child whose beacons break the separation
    constraint is redrawn; after MAX_DRAWS failed draws it is a copy of its
    first parent.

    Only mixed beacons go through the k-d tree. A child beacon equal to
    either parent's beacon (its three mask bits agree, its parent beacons
    are equal, or the coordinates it takes from the other parent match) is
    a lattice point; the lattice has no repeats, so that point's nearest
    candidate is itself, and snapping it would return its own bytes. Every
    child still takes the separation test.

    The masks form one queue consumed in child order, exactly as a loop
    drawing one (N, 3) mask per try would consume them. Each pass draws
    one mask per child still owed, snaps and tests them all at once, and
    accepts the children before the first rejected one; the rejected
    child takes the next mask in the queue. Each mask bit costs one
    32-bit draw that never rejects, so one (k, N, 3) draw equals k (N, 3)
    draws, and the children and the generator's final state equal the
    per-child loop's.
    """
    a, b = parents[0::2], parents[1::2]
    children = np.empty_like(a)
    masks = np.empty((0, *a.shape[1:]), dtype=bool)
    c = failed = 0
    while c < len(a):
        if not len(masks):
            masks = rng.integers(0, 2, size=(len(a) - c, *a.shape[1:])).astype(bool)
        k = len(masks)
        pa, pb = a[c : c + k], b[c : c + k]
        child_pts = np.where(masks, pa, pb)
        mixed = ~((child_pts == pa).all(axis=-1) | (child_pts == pb).all(axis=-1))
        if mixed.any():
            child_pts[mixed] = problem.beacon_domain.snap(child_pts[mixed])
        ok = _separated(child_pts, problem.config.min_separation)
        n_ok = k if ok.all() else int(ok.argmin())
        children[c : c + n_ok] = child_pts[:n_ok]
        c += n_ok
        masks = masks[n_ok + 1 :]
        if n_ok:
            failed = 0
        if n_ok < k:
            failed += 1
            if failed == MAX_DRAWS:
                children[c] = a[c]
                c += 1
                failed = 0
    return children


def _score_clusters(
    pool: np.ndarray, keys: list[bytes], bounds: dict[bytes, tuple], problem: PlacementProblem
) -> None:
    """_best's cluster pass: bound the pool's layouts the memo lacks, then
    score exactly each layout whose bounds leave its place in the exact
    order open, and the fittest one, writing both into the memo.

    Layouts not yet in the memo are bounded in one bound_layouts batch,
    repeats counted once. One sort by lower bound and a running max of the
    upper bounds split the distinct layouts into clusters of overlapping
    intervals. Every layout of a cluster that holds two or more is scored
    exactly, as is the fittest layout, whose row the caller reads, in one
    score_layouts batch. Each cluster's interval lies wholly below the
    next one's, so sorting on each layout's exact fitness where known and
    its lower bound elsewhere orders the layouts as their exact fitness
    does.
    """
    first: dict[bytes, int] = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    new = [key for key in first if key not in bounds]
    if new:
        lower, upper = bound_layouts(pool[[first[key] for key in new]], problem)
        bounds.update(zip(new, zip(lower[:, 0].tolist(), upper[:, 0].tolist(), lower)))
    distinct = list(first)
    lo, up = np.array([bounds[key][:2] for key in distinct]).T
    order = np.argsort(lo, kind="stable")
    opens = np.empty(len(order), dtype=bool)
    opens[0] = True
    opens[1:] = lo[order[1:]] > np.maximum.accumulate(up[order])[:-1]
    cluster = np.cumsum(opens)
    shared = np.empty(len(distinct), dtype=bool)
    shared[order] = (np.bincount(cluster) > 1)[cluster]
    shared[order[0]] = True  # the fittest, whose row the caller reads
    exact = np.flatnonzero(shared & (lo < up))  # equal bounds: rejected, or scored already
    if len(exact):
        rows = score_layouts(pool[[first[distinct[i]] for i in exact]], problem)
        for i, row in zip(exact, rows):
            bounds[distinct[i]] = (row[0], row[0], row)


def _best(
    pool: np.ndarray,
    kept: list[bytes],
    bounds: dict[bytes, tuple],
    n: int,
    problem: PlacementProblem,
) -> tuple[np.ndarray, list[bytes], np.ndarray]:
    """The n fittest of the (P, N, 3) pool, ties in creation order, their
    keys, and the fittest one's exact (fitness, hdop_avg, vdop_avg) row.

    kept holds the keys of the pool's leading layouts: the survivors the
    last call with this memo returned, or none. Only the layouts after them,
    the offspring, are hashed. A layout's key is its exact bytes: layouts
    are lattice copies, so equal layouts are equal bytes.

    bounds is the run's memo. It maps the key of each layout seen to its
    bound_layouts lower and upper fitness and lower row, or, once
    score_layouts has scored it, to its exact fitness twice and exact row.
    The order is the stable argsort of exact fitness, found with few exact
    rows (_score_clusters), and copies of one layout share a key and keep
    creation order.

    Every call leaves the memo with an exact row for each of its pool's
    distinct layouts whose interval meets another's, and for the fittest.
    When every offspring copies a survivor, the pool holds no distinct
    layout the last call's pool lacked, so the cluster pass would neither
    bound nor score anything, and it is skipped: the memo's fitness
    already ranks the pool.
    """
    offspring = [beacons.tobytes() for beacons in pool[len(kept) :]]
    keys = kept + offspring
    if not set(offspring) <= set(kept):
        _score_clusters(pool, keys, bounds, problem)
    keep = np.argsort([bounds[key][0] for key in keys], kind="stable")[:n]
    return pool[keep], [keys[k] for k in keep], bounds[keys[keep[0]]][2]


def optimize(problem: PlacementProblem, observer=None) -> PlacementResult:
    """Run the full placement search, restarting until tolerances are met.

    Each run: seed a stratified population, then for the configured
    iteration count breed the best 40 pairwise into 20 offspring in one
    array pass per generation, and cull the worst 20 of the pooled 70.
    A generation is one (P, BEACONS, 3) layout array, ranked as a stable sort on
    exact fitness alone ranks it, so ties stay in creation order. If the
    run's best layout misses either tolerance the search restarts with a
    fresh seeded population, up to max_restarts times; the best layout
    found anywhere is then returned flagged infeasible.

    Each distinct layout gets at most one pair of fitness bounds and one
    exact row per run (_best's memo), so surviving clones and children
    that snap back onto a seen layout reuse them. Most layouts are ranked
    on their bounds alone and never pay the DOP kernel's 3x3 inverse; the
    history and the result read only exact rows. A generation pays only for
    what it changes: breed snaps only the child beacons that copy neither
    parent's, _best hashes only the offspring, since each call hands back
    its survivors' keys, and a generation whose offspring all copy
    survivors (about two in three of a default search's) runs no cluster
    pass.

    observer, if given, is called as observer(run_idx, iteration,
    population) after every cull, for instrumentation; population is the
    generation's (P, BEACONS, 3) layout array, fittest first.
    """
    cfg = problem.config
    best = None  # (fitness, hdop_avg, vdop_avg, layout, history) of the fittest run yet
    for run_idx in range(cfg.max_restarts + 1):
        rng = np.random.default_rng([problem.rng_seed, run_idx])
        bounds: dict[bytes, tuple] = {}
        population, kept, row = _best(
            seed_population(problem, rng), [], bounds, cfg.population, problem
        )
        history: list[float] = []
        for iteration in range(cfg.iterations):
            offspring = breed(population[: cfg.parents], problem, rng)
            population, kept, row = _best(
                np.concatenate([population, offspring]), kept, bounds, cfg.population, problem
            )
            history.append(float(row[0]))
            if observer is not None:
                observer(run_idx, iteration, population)

        fit, hdop_avg, vdop_avg = row.tolist()
        met = vdop_avg <= cfg.vdop_tolerance and hdop_avg <= cfg.hdop_tolerance
        feasible = math.isfinite(fit) and met
        if feasible or best is None or fit < best[0]:
            best = (fit, hdop_avg, vdop_avg, population[0], history)
        if feasible:
            break

    _, hdop_avg, vdop_avg, layout, history = best
    return PlacementResult(
        layout=BeaconLayout(positions=layout),
        vdop_avg=vdop_avg,
        hdop_avg=hdop_avg,
        history=history,
        restarts=run_idx,
        feasible=feasible,
    )
