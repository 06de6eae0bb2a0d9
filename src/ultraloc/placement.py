"""Evolutionary search for beacon placements that minimize average VDOP.

Individuals are sets of four beacon positions drawn from a lattice over
the ceiling and the top half of the walls. Fitness is the drone-domain
average VDOP, with a large constant penalty whenever the average HDOP
exceeds its tolerance so infeasible individuals always rank behind
feasible ones. Selection keeps the best 40 of 50, adjacent parents are
crossed per coordinate, and the worst 20 of the resulting 70 are culled.
The whole search restarts from a fresh population when the final best
individual misses either tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
from scipy.spatial import cKDTree

from .channel import ROOM_DIMS, BeaconLayout
from .dop import DroneDomain, dop_average
from .errors import DomainDegeneracyError, InfeasibleDomainError, SingularGeometryError

BEACON_GRID = 0.25
MIN_SEPARATION = 0.5
POPULATION = 50
PARENTS = 40
ITERATIONS = 100
MAX_RESTARTS = 10
HDOP_PENALTY = 1e6
MAX_DRAWS = 20

# The six beacon pairs (i < j) of a four-beacon layout.
_PAIRS = np.triu_indices(4, 1)


@dataclass(frozen=True)
class BeaconDomain:
    """Admissible beacon positions: ceiling plus the top half of each wall."""

    room_dims: tuple[float, float, float] = ROOM_DIMS
    grid_resolution: float = BEACON_GRID

    def __post_init__(self):
        if self.grid_resolution <= 0:
            raise ValueError("grid resolution must be positive")
        if any(d <= 0 for d in self.room_dims):
            raise ValueError("room dimensions must be positive")

    def candidates(self) -> np.ndarray:
        """Deduplicated lattice points on the ceiling and upper wall halves;
        built on the first call and shared, read-only, by every later one."""
        return self._lattice

    def snap(self, points: np.ndarray) -> np.ndarray:
        """The lattice candidate nearest to each point."""
        _, nearest = self._tree.query(points)
        return self._lattice[nearest]

    @functools.cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self._lattice)

    @functools.cached_property
    def _lattice(self) -> np.ndarray:
        w, d, h = self.room_dims
        res = self.grid_resolution
        xs = _grid(0.0, w, res)
        ys = _grid(0.0, d, res)
        zs_wall = _grid(h / 2.0, h, res)
        seen: dict[tuple[float, float, float], None] = {}
        for x in xs:
            for y in ys:
                seen[(round(x, 9), round(y, 9), round(h, 9))] = None
        for z in zs_wall:
            for y in ys:
                seen[(0.0, round(y, 9), round(z, 9))] = None
                seen[(round(w, 9), round(y, 9), round(z, 9))] = None
            for x in xs:
                seen[(round(x, 9), 0.0, round(z, 9))] = None
                seen[(round(x, 9), round(d, 9), round(z, 9))] = None
        pts = np.array(list(seen.keys()), dtype=float)
        pts.flags.writeable = False
        return pts

    def on_ceiling(self, points: np.ndarray) -> np.ndarray:
        return np.isclose(np.atleast_2d(points)[:, 2], self.room_dims[2])


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(n + 1)


@dataclass
class Individual:
    """Candidate placement of four beacons with cached fitness terms."""

    beacons: np.ndarray
    fitness: float = math.inf
    hdop_avg: float = math.nan
    vdop_avg: float = math.nan


@dataclass(frozen=True)
class PlacementProblem:
    """Inputs of one placement search."""

    drone_domain: DroneDomain = field(default_factory=DroneDomain)
    beacon_domain: BeaconDomain = field(default_factory=BeaconDomain)
    hdop_tolerance: float = 2.0
    vdop_tolerance: float = 2.0
    population: int = POPULATION
    parents: int = PARENTS
    iterations: int = ITERATIONS
    rng_seed: int = 0
    min_separation: float = MIN_SEPARATION
    max_restarts: int = MAX_RESTARTS

    def __post_init__(self):
        if self.hdop_tolerance <= 0 or self.vdop_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.parents < 2:
            raise ValueError("need at least 2 parents to breed")
        if self.parents > self.population:
            raise ValueError("cannot select more parents than the population holds")
        if self.parents % 2 != 0:
            raise ValueError("parents must pair up, so their count must be even")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")

    @property
    def offspring(self) -> int:
        return self.parents // 2


@dataclass(frozen=True)
class PlacementResult:
    layout: BeaconLayout
    vdop_avg: float
    hdop_avg: float
    history: list[float]
    restarts: int
    feasible: bool


def _separated(points: np.ndarray, min_sep: float) -> np.ndarray:
    """Whether every beacon pair of each (..., 4, 3) layout is min_sep apart.

    The result has the layouts' leading shape, a numpy bool for one layout.
    """
    i, j = _PAIRS
    d = points[..., i, :] - points[..., j, :]
    # vecdot runs the same ddot kernel as the scalar np.linalg.norm(d), so
    # near-threshold lattice pairs compare alike. norm(d, axis=-1) rounds
    # another way: it puts 0.1 m lattice points (0.4, 0, 4) and (0.7, 0.4, 4)
    # 0.5 apart, where the scalar norm gives 0.49999999999999994.
    return np.all(np.sqrt(np.vecdot(d, d)) >= min_sep, axis=-1)


def _draw_separated(
    pool: np.ndarray, rng: np.random.Generator, min_sep: float, max_tries: int = 200
) -> np.ndarray:
    """Pick 4 mutually separated points from a candidate pool."""
    if pool.shape[0] < 4:
        raise InfeasibleDomainError("fewer than 4 candidate positions in group")
    for _ in range(max_tries):
        idx = rng.choice(pool.shape[0], size=4, replace=False)
        pts = pool[idx]
        if _separated(pts, min_sep):
            return pts
    raise InfeasibleDomainError(
        f"could not find 4 candidates separated by {min_sep} m in {max_tries} draws"
    )


def seed_population(problem: PlacementProblem, rng: np.random.Generator) -> list[Individual]:
    """Generate the initial population, stratified to escape local minima.

    Deterministic quotas split the population into all-ceiling, all-wall,
    and mixed groups so the search starts spread over the beacon domain.
    """
    candidates = problem.beacon_domain.candidates()
    ceiling_mask = problem.beacon_domain.on_ceiling(candidates)
    ceiling = candidates[ceiling_mask]
    wall = candidates[~ceiling_mask]

    p = problem.population
    n_ceiling = (p + 2) // 3
    n_wall = (p + 1) // 3
    n_mixed = p - n_ceiling - n_wall

    population: list[Individual] = []
    for _ in range(n_ceiling):
        population.append(Individual(beacons=_draw_separated(ceiling, rng, problem.min_separation)))
    for _ in range(n_wall):
        population.append(Individual(beacons=_draw_separated(wall, rng, problem.min_separation)))
    for _ in range(n_mixed):
        for _ in range(200):
            pts = _draw_separated(candidates, rng, problem.min_separation)
            on_ceil = problem.beacon_domain.on_ceiling(pts)
            if 0 < on_ceil.sum() < 4:
                break
        population.append(Individual(beacons=pts))
    return population


def fitness(individual: Individual, problem: PlacementProblem) -> float:
    """Domain-averaged VDOP, penalized when average HDOP breaks tolerance.

    Caches hdop_avg/vdop_avg on the individual. A degenerate layout gets
    an infinite sentinel; that covers both DOP degeneracy over the drone
    domain and coplanar beacon sets, which the downstream linearized
    trilateration cannot use even when their DOP is finite.
    """
    try:
        layout = BeaconLayout(positions=individual.beacons)
        if not layout.spans_3d:
            raise SingularGeometryError("beacons are coplanar or collinear")
        hdop_avg, vdop_avg = dop_average(layout, problem.drone_domain)
    except (DomainDegeneracyError, ValueError):
        individual.fitness = math.inf
        return individual.fitness
    individual.hdop_avg = hdop_avg
    individual.vdop_avg = vdop_avg
    individual.fitness = vdop_avg + (HDOP_PENALTY if hdop_avg > problem.hdop_tolerance else 0.0)
    return individual.fitness


def breed(
    parents: list[Individual], problem: PlacementProblem, rng: np.random.Generator
) -> list[Individual]:
    """Cross each adjacent pair of parents into one child, in array passes.

    Beacon k of a child takes each of x, y, z independently from either
    parent's beacon k with probability 1/2, then snaps to the nearest
    lattice candidate (coordinate mixing can leave the wall/ceiling
    planes). A child whose beacons break the separation constraint is
    redrawn; after MAX_DRAWS failed draws it is a copy of its first parent.

    The masks form one queue consumed in child order, exactly as a loop
    drawing one (4, 3) mask per try would consume them. Each pass draws
    one mask per child still owed, snaps and tests them all at once, and
    accepts the children before the first rejected one; the rejected
    child takes the next mask in the queue. Each mask bit costs one
    32-bit draw that never rejects, so one (k, 4, 3) draw equals k (4, 3)
    draws, and the children and the generator's final state equal the
    per-child loop's.
    """
    # reshape, not stack: np.stack rejects an empty parent list
    a = np.reshape([p.beacons for p in parents[0::2]], (-1, 4, 3))
    b = np.reshape([p.beacons for p in parents[1::2]], (-1, 4, 3))
    children: list[Individual] = []
    masks = np.empty((0, 4, 3), dtype=bool)
    failed = 0
    while len(children) < len(a):
        c = len(children)
        if not len(masks):
            masks = rng.integers(0, 2, size=(len(a) - c, 4, 3)).astype(bool)
        k = len(masks)
        child_pts = problem.beacon_domain.snap(np.where(masks, a[c : c + k], b[c : c + k]))
        ok = _separated(child_pts, problem.min_separation)
        n_ok = k if ok.all() else int(ok.argmin())
        children.extend(Individual(beacons=pts) for pts in child_pts[:n_ok])
        masks = masks[n_ok + 1 :]
        if n_ok:
            failed = 0
        if n_ok < k:
            failed += 1
            if failed == MAX_DRAWS:
                children.append(Individual(beacons=a[len(children)].copy()))
                failed = 0
    return children


_by_fitness = attrgetter("fitness")


def optimize(problem: PlacementProblem, observer=None) -> PlacementResult:
    """Run the full placement search, restarting until tolerances are met.

    Each run: seed a stratified population, then for the configured
    iteration count sort by fitness, breed the best 40 pairwise into 20
    offspring in one array pass per generation, and cull the worst 20 of
    the pooled 70. If the run's best
    individual misses either tolerance the search restarts with a fresh
    seeded population, up to max_restarts times; the best layout found
    anywhere is then returned flagged infeasible.

    Each distinct layout is scored once per search: fitness terms are
    memoized by the exact bytes of the beacon array (layouts are lattice
    copies, so equal layouts are equal bytes), and surviving clones or
    children that snap back onto a scored layout reuse them. Ranking is
    a stable sort on fitness alone, so ties stay in creation order.

    observer, if given, is called as observer(run_idx, iteration,
    population) after every cull, for instrumentation.
    """
    scores: dict[bytes, tuple[float, float, float]] = {}

    def score(individual: Individual) -> None:
        key = individual.beacons.tobytes()
        terms = scores.get(key)
        if terms is None:
            fitness(individual, problem)
            scores[key] = (individual.fitness, individual.hdop_avg, individual.vdop_avg)
        else:
            individual.fitness, individual.hdop_avg, individual.vdop_avg = terms

    best_overall: Individual | None = None
    best_history: list[float] = []
    for run_idx in range(problem.max_restarts + 1):
        rng = np.random.default_rng([problem.rng_seed, run_idx])
        population = seed_population(problem, rng)
        for ind in population:
            score(ind)
        history: list[float] = []
        for iteration in range(problem.iterations):
            population.sort(key=_by_fitness)
            offspring = breed(population[: problem.parents], problem, rng)
            for child in offspring:
                score(child)
            pool = population + offspring
            pool.sort(key=_by_fitness)
            population = pool[: problem.population]
            history.append(population[0].fitness)
            if observer is not None:
                observer(run_idx, iteration, population)

        population.sort(key=_by_fitness)
        best = population[0]
        if best_overall is None or best.fitness < best_overall.fitness:
            best_overall = best
            best_history = history
        if (
            math.isfinite(best.fitness)
            and best.vdop_avg <= problem.vdop_tolerance
            and best.hdop_avg <= problem.hdop_tolerance
        ):
            return PlacementResult(
                layout=BeaconLayout(positions=best.beacons),
                vdop_avg=best.vdop_avg,
                hdop_avg=best.hdop_avg,
                history=history,
                restarts=run_idx,
                feasible=True,
            )

    assert best_overall is not None
    return PlacementResult(
        layout=BeaconLayout(positions=best_overall.beacons),
        vdop_avg=best_overall.vdop_avg,
        hdop_avg=best_overall.hdop_avg,
        history=best_history,
        restarts=problem.max_restarts,
        feasible=False,
    )
