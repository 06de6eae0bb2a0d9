import copy
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ultraloc import placement
from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, BeaconLayout, full_rank
from ultraloc.config import default_config
from ultraloc.dop import DroneDomain, domain_mean, dop_average, dop_components
from ultraloc.errors import DomainDegeneracyError, InfeasibleDomainError, SingularGeometryError


# the scorer itself, for checks made while a test has patched it
placement_score_layouts = placement.score_layouts


def fast_problem(rng_seed=5, **overrides):
    """Small search that still exercises every mechanism."""
    defaults = dict(
        beacon_grid=0.5,
        population=12,
        parents=8,
        iterations=8,
        max_restarts=2,
    )
    defaults.update(overrides)
    config = placement.PlacementConfig(**defaults)
    return placement.PlacementProblem(config, DroneDomain(grid_resolution=1.0), rng_seed=rng_seed)


def old_grid_size(lo, hi, step):
    """The floor rule BeaconDomain counted an axis with before it shared
    the drone domain's rule."""
    return int(math.floor(min((hi - lo) / step, 2.0**62) + 1e-9)) + 1


def old_grid(lo, hi, step):
    return lo + step * np.arange(old_grid_size(lo, hi, step))


def point_loop_lattice(dom):
    """The per-point loop BeaconDomain's lattice replaced: each point in
    loop order, rounded with round(), the first of any repeat kept."""
    w, d, h = dom.room_dims
    res = dom.grid_resolution
    xs = old_grid(0.0, w, res)
    ys = old_grid(0.0, d, res)
    seen = {}
    for x in xs:
        for y in ys:
            seen[(round(x, 9), round(y, 9), round(h, 9))] = None
    for z in old_grid(h / 2.0, h, res):
        for y in ys:
            seen[(0.0, round(y, 9), round(z, 9))] = None
            seen[(round(w, 9), round(y, 9), round(z, 9))] = None
        for x in xs:
            seen[(round(x, 9), 0.0, round(z, 9))] = None
            seen[(round(x, 9), round(d, 9), round(z, 9))] = None
    return np.array(list(seen.keys()), dtype=float)


class TestBeaconDomain:
    @pytest.mark.parametrize(
        "room, grid",
        [((5, 5, 4), 0.25), ((5, 5, 4), 0.1), ((6.3, 4.1, 3.3), 0.3), ((5, 5, 4), 0.5)],
    )
    def test_lattice_matches_point_loop(self, room, grid):
        dom = placement.BeaconDomain(room_dims=room, grid_resolution=grid)
        got, want = dom.candidates(), point_loop_lattice(dom)
        np.testing.assert_array_equal(got, want)
        # same order and the same bits, sign of zero included
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("room", [(5.0, 5.0, 4.0), (6.3, 4.1, 3.3), (7.7, 2.9, 5.1)])
    def test_size_and_candidates_match_the_old_grid_rule(self, room):
        w, d, h = room
        for step in np.linspace(0.001, 2.0, 2000):
            dom = placement.BeaconDomain(room_dims=room, grid_resolution=step)
            nx, ny, nz = (old_grid_size(lo, hi, step) for lo, hi in ((0.0, w), (0.0, d), (h / 2.0, h)))
            assert dom.size == nx * ny + 2 * nz * (nx + ny)
        for step in np.linspace(0.1, 2.0, 40):  # coarse enough to build point by point
            dom = placement.BeaconDomain(room_dims=room, grid_resolution=step)
            assert dom.candidates().tobytes() == point_loop_lattice(dom).tobytes()

    def test_candidates_on_allowed_planes(self):
        dom = placement.BeaconDomain()
        pts = dom.candidates()
        w, d, h = dom.room_dims
        assert np.all(pts[:, 2] >= h / 2.0 - 1e-9)
        on_ceiling = np.isclose(pts[:, 2], h)
        on_wall = (
            np.isclose(pts[:, 0], 0.0)
            | np.isclose(pts[:, 0], w)
            | np.isclose(pts[:, 1], 0.0)
            | np.isclose(pts[:, 1], d)
        )
        assert np.all(on_ceiling | on_wall)

    def test_candidates_unique(self):
        pts = placement.BeaconDomain().candidates()
        assert len({tuple(p) for p in pts}) == pts.shape[0]

    def test_resolution_respected(self):
        pts = placement.BeaconDomain(grid_resolution=0.25).candidates()
        scaled = pts / 0.25
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_lattice_built_once_and_read_only(self):
        dom = placement.BeaconDomain()
        pts = dom.candidates()
        assert dom.candidates() is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0

    def test_snap_picks_nearest_candidate(self):
        dom = placement.BeaconDomain(grid_resolution=0.5)
        pts = dom.candidates()
        queries = np.random.default_rng(2).uniform([0, 0, 0], dom.room_dims, size=(50, 3))
        dists = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        np.testing.assert_array_equal(dom.snap(queries), pts[dists.argmin(axis=1)])

    @pytest.mark.parametrize(
        "room, grid",
        [
            ((5.0, 5.0, 4.0), 0.1),
            ((5.0, 5.0, 4.0), 0.25),
            ((5.0, 5.0, 4.0), 0.3),
            ((5.0, 5.0, 4.0), 0.5),
            ((5.1, 4.3, 3.7), 0.25),
        ],
    )
    def test_every_candidate_snaps_to_its_own_bytes(self, room, grid):
        # breed snaps no child beacon that copies a parent beacon: a lattice
        # point's nearest candidate must be that point, down to its bits
        dom = placement.BeaconDomain(room_dims=room, grid_resolution=grid)
        pts = dom.candidates()
        assert dom.snap(pts).tobytes() == pts.tobytes()

    @pytest.mark.parametrize(
        "room, grid",
        [
            ((5.0, 5.0, 4.0), 0.25),
            ((5.0, 5.0, 4.0), 0.1),
            ((6.3, 4.1, 3.3), 0.3),
            ((5.1, 4.3, 3.7), 0.25),
        ],
    )
    def test_on_ceiling_equals_np_isclose(self, room, grid):
        dom = placement.BeaconDomain(room_dims=room, grid_resolution=grid)
        h = room[2]
        near = h + h * np.array([0.0, 1e-9, -1e-9, 9.99e-6, 1.001e-5, -9.99e-6, -1.001e-5, 1.0])
        near = np.r_[near, 2.5e-9, np.nan, np.inf, -np.inf]
        points = np.concatenate([dom.candidates(), np.column_stack([near, near, near])])
        got = dom.on_ceiling(points)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, np.isclose(points[:, 2], h))
        assert got[: len(dom.candidates())].any() and not got.all()
        # one (3,) point is one row
        np.testing.assert_array_equal(dom.on_ceiling(points[0]), np.isclose(points[:1, 2], h))

    @pytest.mark.parametrize("h", [2.0**-27, 4.0, math.inf])
    def test_on_ceiling_equals_np_isclose_at_the_tolerance(self, h):
        # heights z exactly np.isclose's tolerance from h, one ulp either
        # side of it, and the non-finite ones; no lattice is built
        dom = placement.BeaconDomain(room_dims=(5.0, 5.0, h))
        tol = 1e-8 + 1e-5 * h
        z = [h, math.nan, math.inf, -math.inf, 0.0]
        for edge in (h + tol, h - tol):
            if abs(edge - h) == tol:  # exact at 2**-27 m, rounded at 4 m
                z += [edge]
            z += [np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf)]
        points = np.zeros((len(z), 3))
        points[:, 2] = z
        want = np.isclose(points[:, 2], h)
        assert want.any() and not want.all()
        np.testing.assert_array_equal(dom.on_ceiling(points), want)


class TestSeedPopulation:
    def test_size_and_membership(self):
        problem = placement.PlacementProblem(rng_seed=1)
        pop = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        assert len(pop) == problem.config.population
        candidates = {tuple(p) for p in problem.beacon_domain.candidates()}
        for ind in pop:
            assert ind.shape == (4, 3)
            for b in ind:
                assert tuple(b) in candidates
            assert placement._separated(ind, problem.config.min_separation)

    def test_stratified_groups(self):
        problem = placement.PlacementProblem(rng_seed=1)
        pop = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        dom = problem.beacon_domain
        h = dom.room_dims[2]
        n_ceiling = (problem.config.population + 2) // 3
        n_wall = (problem.config.population + 1) // 3
        for ind in pop[:n_ceiling]:
            assert np.all(np.isclose(ind[:, 2], h))
        for ind in pop[n_ceiling : n_ceiling + n_wall]:
            assert np.all(~np.isclose(ind[:, 2], h))
        for ind in pop[n_ceiling + n_wall :]:
            on_ceil = np.isclose(ind[:, 2], h)
            assert 0 < on_ceil.sum() < 4

    def test_deterministic(self):
        problem = placement.PlacementProblem(rng_seed=33)
        a = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        b = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        np.testing.assert_array_equal(a, b)

    def test_one_float_array(self):
        problem = fast_problem()
        pop = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        assert pop.shape == (problem.config.population, 4, 3)
        assert pop.dtype == np.float64

    def test_infeasible_separation(self):
        problem = fast_problem(min_separation=50.0)
        with pytest.raises(InfeasibleDomainError):
            placement.seed_population(problem, np.random.default_rng(problem.rng_seed))


def fitness(beacons, problem):
    """(fitness, hdop_avg, vdop_avg) of one (4, 3) layout: its score_layouts row."""
    return tuple(placement.score_layouts(np.asarray(beacons)[None], problem)[0].tolist())


class TestFitness:
    def test_reference_layouts_ordering(self):
        problem = placement.PlacementProblem(rng_seed=0)
        f_orig, _, _ = fitness(ORIGINAL_LAYOUT.positions, problem)
        f_opt, _, _ = fitness(OPTIMIZED_LAYOUT.positions, problem)
        assert math.isfinite(f_orig) and math.isfinite(f_opt)
        assert f_opt < f_orig

    def test_no_penalty_when_hdop_within_tolerance(self):
        problem = placement.PlacementProblem(rng_seed=0)
        fit, hdop_avg, vdop_avg = fitness(OPTIMIZED_LAYOUT.positions, problem)
        assert hdop_avg <= problem.config.hdop_tolerance
        assert fit == vdop_avg

    def test_penalty_when_hdop_breaks_tolerance(self):
        problem = placement.PlacementProblem(placement.PlacementConfig(hdop_tolerance=0.5), rng_seed=0)
        fit, _, _ = fitness(OPTIMIZED_LAYOUT.positions, problem)
        assert fit >= placement.HDOP_PENALTY

    def test_coplanar_layout_gets_sentinel(self):
        problem = placement.PlacementProblem(rng_seed=0)
        flat = np.array([[0, 0, 4], [5, 0, 4], [5, 5, 4], [0, 5, 4]], dtype=float)
        assert fitness(flat, problem)[0] == math.inf


    def test_coincident_layout_gets_sentinel(self):
        problem = placement.PlacementProblem(rng_seed=0)
        layout = np.array(OPTIMIZED_LAYOUT.positions)
        layout[1] = layout[0]
        fit, hdop_avg, vdop_avg = fitness(layout, problem)
        assert fit == math.inf
        assert math.isnan(hdop_avg) and math.isnan(vdop_avg)

    def test_pure_and_repeatable(self):
        problem = placement.PlacementProblem(rng_seed=0)
        layout = np.array(OPTIMIZED_LAYOUT.positions)
        before = layout.copy()
        first = fitness(layout, problem)
        assert fitness(layout, problem) == first
        assert isinstance(first, tuple) and len(first) == 3
        np.testing.assert_array_equal(layout, before)
        assert layout.flags.writeable

    def test_programming_error_propagates(self, monkeypatch):
        # only a degenerate geometry scores inf; any other ValueError is a bug
        def broken(layouts, points, estimate=False):
            raise ValueError("broken DOP path")

        monkeypatch.setattr(placement, "dop_components", broken)
        problem = placement.PlacementProblem(rng_seed=0)
        with pytest.raises(ValueError, match="broken DOP path"):
            fitness(np.array(OPTIMIZED_LAYOUT.positions), problem)
        with pytest.raises(ValueError, match="broken DOP path"):
            placement.optimize(fast_problem())


def per_layout_fitness(beacons, problem):
    """The one-layout scorer score_layouts replaced: a BeaconLayout, its
    spans_3d rank test, then dop_average over the drone domain."""
    try:
        layout = BeaconLayout(positions=beacons)
        if not layout.spans_3d:
            raise SingularGeometryError("beacons are coplanar or collinear")
        hdop_avg, vdop_avg = dop_average(layout, problem.drone_domain)
    except (DomainDegeneracyError, SingularGeometryError):
        return math.inf, math.nan, math.nan
    penalty = placement.HDOP_PENALTY if hdop_avg > problem.config.hdop_tolerance else 0.0
    return vdop_avg + penalty, hdop_avg, vdop_avg


def spanning_population(problem, seed):
    """A seeded population without its coplanar (all-ceiling) layouts."""
    pop = placement.seed_population(problem, np.random.default_rng(seed))
    return pop[[BeaconLayout(positions=layout).spans_3d for layout in pop]]


def mixed_batch():
    """40 layouts: seeded ones, and ones every degenerate rule rejects."""
    pop = spanning_population(placement.PlacementProblem(), 3)
    coincident = pop[1].copy()
    coincident[2] = coincident[0]
    coplanar = np.array([[0, 0, 4], [5, 0, 4], [5, 5, 4], [0, 5, 4]], dtype=float)
    # rank 3 at 1e-9 m, but the whole z = 2 lattice layer (81 of 486
    # points) sees the beacons edge on
    edge_on = np.array([[0, 0, 2], [5, 0, 2], [5, 5, 2], [0, 5, 2 + 1e-6]], dtype=float)
    layouts = [pop[0], coincident, pop[0], coplanar, edge_on, pop[1], coplanar, pop[2]]
    layouts += list(pop[3:])
    return np.array(layouts)


class TestScoreLayouts:
    @pytest.mark.parametrize("hdop_tolerance", [2.0, 1.0])
    def test_batch_equals_per_layout_scores(self, hdop_tolerance):
        problem = placement.PlacementProblem(placement.PlacementConfig(hdop_tolerance=hdop_tolerance))
        batch = mixed_batch()
        got = placement.score_layouts(batch, problem)
        assert got.shape == (len(batch), 3)
        for layout, row in zip(batch, got):
            np.testing.assert_array_equal(row, fitness(layout, problem))
            np.testing.assert_array_equal(row, per_layout_fitness(layout, problem))
        assert np.isinf(got[[1, 3, 4, 6], 0]).all()
        assert np.isfinite(got[[0, 2, 5, 7], 0]).all()
        if hdop_tolerance == 1.0:
            assert (got[:, 0] >= placement.HDOP_PENALTY).any()

    def test_edge_on_layout_is_domain_degenerate(self):
        edge_on = mixed_batch()[4]
        assert BeaconLayout(positions=edge_on).spans_3d
        with pytest.raises(DomainDegeneracyError):
            dop_average(BeaconLayout(positions=edge_on), DroneDomain())

    @pytest.mark.parametrize("grid, per_call", [(0.5, 33), (0.1, 1)])
    def test_kernel_calls_stay_within_pair_budget(self, grid, per_call, monkeypatch):
        problem = placement.PlacementProblem(drone_domain=DroneDomain(grid_resolution=grid))
        n_points = len(problem.drone_domain.points())
        calls = []

        def recording(layouts, points, estimate=False):
            calls.append(len(layouts))
            n = len(layouts) * n_points
            return np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)

        monkeypatch.setattr(placement, "dop_components", recording)
        # two populations, so the default lattice's batch takes more than one call
        pop = np.concatenate([spanning_population(problem, 4), spanning_population(problem, 5)])
        placement.score_layouts(pop, problem)
        assert sum(calls) == len(pop)
        assert len(calls) > 1 and max(calls) == per_call
        assert max(calls) * n_points <= max(placement.PAIR_BUDGET, n_points)

    def test_fine_lattice_memory_stays_one_layout_deep(self):
        problem = placement.PlacementProblem(drone_domain=DroneDomain(grid_resolution=0.1))
        points = problem.drone_domain.points()
        assert len(points) == 43706
        pop = placement.seed_population(problem, np.random.default_rng(5))
        tracemalloc.start()
        try:
            dop_components(pop[0], points)
            one_call = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            placement.score_layouts(pop, problem)
            batch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch <= 1.5 * one_call

    @pytest.mark.parametrize("hdop_tolerance", [2.0, 1.0])
    def test_rows_with_a_few_degenerate_points_keep_the_masked_mean(self, hdop_tolerance):
        # A drone lattice up to the 4 m ceiling: a ceiling beacon on one of its
        # 648 points is degenerate there alone, within domain_mean's 1%.
        problem = placement.PlacementProblem(
            placement.PlacementConfig(hdop_tolerance=hdop_tolerance),
            DroneDomain(z_range=(0.5, 4.0)),
        )
        points = problem.drone_domain.points()
        on_point = np.array([[1.0, 1.5, 4.0], [0.0, 2.5, 3.0], [5.0, 4.0, 2.5], [2.5, 5.0, 3.5]])
        edge_on = mixed_batch()[4]
        batch = np.concatenate([[on_point, edge_on], spanning_population(problem, 3)])
        n_bad = dop_components(batch, points)[2].reshape(len(batch), len(points)).sum(axis=1)
        masked = (n_bad > 0) & (n_bad <= 0.01 * len(points))
        assert n_bad[0] == 1 and n_bad[1] == 81
        assert masked.sum() >= 3 and (n_bad == 0).sum() >= 10

        exact = placement.score_layouts(batch, problem)
        for layout, row in zip(batch, exact):
            np.testing.assert_array_equal(row, per_layout_fitness(layout, problem))
        assert np.isfinite(exact[masked, 0]).all() and np.isinf(exact[1, 0])

        lower, upper = placement.bound_layouts(batch, problem)
        assert_bounds_hold(lower, upper, exact)
        # a masked row's bounds are the masked means of the kernel's bounds
        assert (lower[masked, 0] < upper[masked, 0]).all()


def estimates_and_exact(layouts, problem):
    """The DOP kernel's (hdop, vdop) estimates, its exact (hdop, vdop,
    degenerate), and the mask of the points whose estimates it took from
    the 3x3 inverse, each (L, P), for a stack of layouts."""
    points = problem.drone_domain.points()
    shape = (len(layouts), len(points))
    exact = [a.reshape(shape) for a in dop_components(layouts, points)]
    estimates = [a.reshape(shape) for a in dop_components(layouts, points, estimate=True)[:2]]
    with pytest.MonkeyPatch.context() as patched:  # an inverse of NaNs marks its points
        patched.setattr(np.linalg, "inv", lambda m: np.full(m.shape, np.nan))
        blind = dop_components(layouts, points, estimate=True)[0].reshape(shape)
    return estimates, exact, np.isnan(blind) & ~exact[2]


def near_coplanar_stack(rng, n, tilt):
    """n layouts of 4 beacons in one horizontal plane but the last, which
    sits tilt metres off it: rank 3, edge on to the lattice near the plane."""
    layouts = rng.uniform([0.0, 0.0, 1.0], [5.0, 5.0, 4.0], size=(n, 4, 3))
    layouts[:, :, 2] = layouts[:, :1, 2]
    layouts[:, 3, 2] += tilt * rng.choice([-1.0, 1.0], size=n)
    return layouts


def assert_bounds_hold(lower, upper, exact):
    """bound_layouts' contract against score_layouts' rows: each fitness,
    hdop_avg and vdop_avg lies between its bounds, and a row whose fitness
    bounds are equal is the exact row."""
    assert lower.shape == upper.shape == exact.shape
    point = lower[:, 0] == upper[:, 0]
    np.testing.assert_array_equal(lower[point], exact[point])
    np.testing.assert_array_equal(upper[point], exact[point])
    assert (lower[~point] <= exact[~point]).all() and (exact[~point] <= upper[~point]).all()
    assert np.isfinite(exact[~point]).all()


def every_offspring_exact(monkeypatch):
    """Make optimize bound every layout by its exact row: the reference
    search, which ranks each generation by a stable sort on exact fitness."""

    def exact_bounds(layouts, problem):
        rows = placement_score_layouts(layouts, problem)
        return rows, rows.copy()

    monkeypatch.setattr(placement, "bound_layouts", exact_bounds)


def traced_search(problem, monkeypatch):
    """optimize's result, every generation it observed, and the layouts it
    ranked on their bounds alone. Every bound row it is given is checked
    against the layout's exact row (assert_bounds_hold); each layout is
    bounded once a run and scored exactly at most once a run; and each
    history entry is the exact fitness of the generation's first layout."""
    generations, bounded, scored, history = [], {}, set(), {}
    run = [-1]
    bounder, scorer = placement.bound_layouts, placement.score_layouts
    seeder = placement.seed_population

    def seeding(problem, rng):
        run[0] += 1
        return seeder(problem, rng)

    def checking_bounds(layouts, problem):
        lower, upper = bounder(layouts, problem)
        assert_bounds_hold(lower, upper, placement_score_layouts(layouts, problem))
        for beacons in layouts:
            key = (run[0], beacons.tobytes())
            assert key not in bounded  # one interval per layout per run
            bounded[key] = beacons.copy()
        return lower, upper

    def counting_score(layouts, problem):
        for beacons in layouts:
            key = (run[0], beacons.tobytes())
            assert key in bounded and key not in scored  # at most one exact row
            scored.add(key)
        return scorer(layouts, problem)

    def observer(run_idx, iteration, pop):
        generations.append((run_idx, iteration, pop.tobytes()))
        history.setdefault(run_idx, []).append(placement_score_layouts(pop[:1], problem)[0, 0])

    monkeypatch.setattr(placement, "seed_population", seeding)
    monkeypatch.setattr(placement, "bound_layouts", checking_bounds)
    monkeypatch.setattr(placement, "score_layouts", counting_score)
    result = placement.optimize(problem, observer=observer)
    monkeypatch.setattr(placement, "seed_population", seeder)
    monkeypatch.setattr(placement, "bound_layouts", bounder)
    monkeypatch.setattr(placement, "score_layouts", scorer)
    # every history entry is the exact fitness of its generation's first layout
    assert result.history in history.values()
    skipped = [beacons for key, beacons in bounded.items() if key not in scored]
    return result, generations, skipped


def assert_same_search(got, want):
    (result, generations, _), (ref, ref_generations, _) = got, want
    assert generations == ref_generations
    assert result.history == ref.history
    assert result.layout.positions.tobytes() == ref.layout.positions.tobytes()
    assert (result.vdop_avg, result.hdop_avg, result.restarts, result.feasible) == (
        ref.vdop_avg,
        ref.hdop_avg,
        ref.restarts,
        ref.feasible,
    )


class TestCertifiedBound:
    def assert_bounds(self, layouts, problem):
        """Every estimate times 1 - ESTIMATE_SLACK is at most the exact value
        and times 1 + ESTIMATE_SLACK at least it, and the estimate is within
        ESTIMATE_SLACK / 1000 of it: the slack has a 1000x margin. Returns
        how many layouts were estimated with no 3x3 inverse."""
        slack = placement.ESTIMATE_SLACK
        estimates, (*exact, degenerate), inverted = estimates_and_exact(layouts, problem)
        for est, want in zip(estimates, exact):
            assert np.isnan(est[degenerate]).all()
            # the inverse's own values where the screen left a usable point to eigvalsh
            np.testing.assert_array_equal(est[inverted], want[inverted])
            est, want = est[~degenerate], want[~degenerate]
            low, up = est * (1 - slack), est * (1 + slack)
            assert (low <= want).all() and (want <= up).all()
            assert (low >= want * (1 - 2 * slack)).all()
            assert (np.abs(est - want) <= want * slack / 1000).all()
        return int((~inverted).all(axis=1).sum())

    def test_estimates_of_seed_populations(self):
        for seed in range(32):
            problem = placement.PlacementProblem(rng_seed=seed)
            pop = spanning_population(problem, [seed, 0])
            assert self.assert_bounds(pop, problem) >= len(pop) // 2

    @pytest.mark.parametrize("tilt", [1e-1, 1e-3, 1e-5])
    def test_estimates_of_near_coplanar_stacks(self, tilt):
        stack = near_coplanar_stack(np.random.default_rng(8), 48, tilt)
        assert self.assert_bounds(stack, placement.PlacementProblem()) >= len(stack) // 2

    @pytest.mark.parametrize("hdop_tolerance", [2.0, 1.0])
    def test_bounds_hold_the_exact_rows(self, hdop_tolerance):
        problem = placement.PlacementProblem(placement.PlacementConfig(hdop_tolerance=hdop_tolerance))
        batch = mixed_batch()
        exact = placement.score_layouts(batch, problem)
        lower, upper = placement.bound_layouts(batch, problem)
        assert_bounds_hold(lower, upper, exact)
        # only the degenerate layouts have a point interval: (inf, nan, nan)
        point = lower[:, 0] == upper[:, 0]
        np.testing.assert_array_equal(point, np.isinf(exact[:, 0]))
        # a repeat bounds alike, and one layout alone bounds as in the batch
        np.testing.assert_array_equal(lower[0], lower[2])
        for k in (0, 5, 9):
            alone = placement.bound_layouts(batch[k : k + 1], problem)
            np.testing.assert_array_equal(alone[0][0], lower[k])
            np.testing.assert_array_equal(alone[1][0], upper[k])

    @pytest.mark.parametrize("tilt", [1e-3, 1e-5])
    def test_bounds_hold_and_near_plane_points_are_exact(self, tilt):
        # near-coplanar beacons leave some usable points to eigvalsh: the
        # kernel inverts those alone, and their layouts' bounds hold as any do
        problem = placement.PlacementProblem()
        stack = near_coplanar_stack(np.random.default_rng(8), 48, tilt)
        lower, upper = placement.bound_layouts(stack, problem)
        exact = placement.score_layouts(stack, problem)
        assert_bounds_hold(lower, upper, exact)
        estimates, (*want, _), inverted = estimates_and_exact(stack, problem)
        for est, w in zip(estimates, want):
            np.testing.assert_array_equal(est[inverted], w[inverted])
        usable = np.isfinite(exact[:, 0])
        assert (inverted.any(axis=1) & usable).any()
        # only a rejected layout has a point interval
        np.testing.assert_array_equal(lower[:, 0] == upper[:, 0], ~usable)

    def test_a_wide_interval_joins_every_interval_it_meets(self, monkeypatch):
        # hand-set bounds around exact rows: A's interval spans B's and C's,
        # which are disjoint, and A's exact fitness lies inside C's interval
        problem = placement.PlacementProblem(rng_seed=0)
        pop = spanning_population(problem, 12)
        rows = placement_score_layouts(pop, problem)
        b, a, c = np.argsort(rows[:, 0])[[0, len(pop) // 2, -1]]
        fb, fa, fc = rows[[b, a, c], 0]
        eps = (fa - fb) / 10
        intervals = {b: (fb - eps, fb + eps), a: (fb - 3 * eps, fc + 3 * eps), c: (fa - eps, fc + eps)}
        layouts = pop[[c, a, b]]
        bounds = {pop[k].tobytes(): (*intervals[k], rows[k]) for k in (a, b, c)}
        scored = []

        def recording(layouts, problem):
            scored.extend(beacons.tobytes() for beacons in layouts)
            return placement_score_layouts(layouts, problem)

        monkeypatch.setattr(placement, "score_layouts", recording)
        best, keys, row = placement._best(layouts, [], bounds, 3, problem)
        assert best.tobytes() == pop[[b, a, c]].tobytes()
        assert keys == [pop[k].tobytes() for k in (b, a, c)]
        np.testing.assert_array_equal(row, rows[b])
        assert set(scored) == {pop[k].tobytes() for k in (a, b, c)}

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_search_equals_one_that_scores_every_offspring_exactly(self, seed, monkeypatch):
        problem = fast_problem(rng_seed=seed)
        got = traced_search(problem, monkeypatch)
        assert got[2]  # some layouts were ranked on their bounds alone
        every_offspring_exact(monkeypatch)
        assert_same_search(got, traced_search(problem, monkeypatch))

    @pytest.mark.parametrize(
        "overrides, domain",
        [
            (dict(hdop_tolerance=1.0), None),
            (dict(vdop_tolerance=0.5, max_restarts=2), None),
            (
                dict(hdop_tolerance=1.0, vdop_tolerance=0.5, max_restarts=1),
                DroneDomain(z_range=(0.5, 4.0)),
            ),
            ({}, DroneDomain(z_range=(0.5, 4.0))),
            (dict(beacon_grid=0.1), None),
        ],
        ids=[
            "penalized",
            "infeasible_restarts",
            "ceiling_lattice_penalized",
            "ceiling_lattice",
            "grid_0.1",
        ],
    )
    def test_search_kinds_equal_the_exact_reference(self, overrides, domain, monkeypatch):
        problem = fast_problem(rng_seed=3, iterations=20, **overrides)
        if domain is not None:  # a drone lattice up to the ceiling: degenerate points
            problem = dataclasses.replace(problem, drone_domain=domain)
        got = traced_search(problem, monkeypatch)
        assert got[2]
        every_offspring_exact(monkeypatch)
        assert_same_search(got, traced_search(problem, monkeypatch))

    def test_overlapping_mirror_images_keep_the_exact_stable_order(self, monkeypatch):
        # a layout and its mirror image across x = 2.5 have the same DOP means
        # up to rounding, so their intervals overlap and both are scored exactly
        problem = placement.PlacementProblem(rng_seed=0)
        pop = spanning_population(problem, 11)[:12]
        mirror = pop[:4].copy()
        mirror[..., 0] = 5.0 - mirror[..., 0]
        layouts = np.concatenate([pop[:6], mirror, pop[[1, 4]], pop[6:]])
        exact = placement_score_layouts(layouts, problem)
        scored = []

        def recording(layouts, problem):
            scored.extend(beacons.tobytes() for beacons in layouts)
            return placement_score_layouts(layouts, problem)

        monkeypatch.setattr(placement, "score_layouts", recording)
        bounds = {}
        lower, upper = placement.bound_layouts(layouts, problem)
        overlap = (lower[:4, 0] <= upper[6:10, 0]) & (lower[6:10, 0] <= upper[:4, 0])
        assert overlap.all()
        best, keys, row = placement._best(layouts, [], bounds, 10, problem)
        keep = np.argsort(exact[:, 0], kind="stable")[:10]
        assert best.tobytes() == layouts[keep].tobytes()
        assert keys == [beacons.tobytes() for beacons in layouts[keep]]
        np.testing.assert_array_equal(row, exact[keep[0]])
        assert {b.tobytes() for b in layouts[:4]} | {b.tobytes() for b in mirror} <= set(scored)
        assert len(scored) == len(set(scored)) < len(layouts)

    def test_survivor_copies_skip_the_cluster_pass(self, monkeypatch):
        # a default run a few generations in: survivors ranked on their bounds
        # alone, and a pool whose offspring all copy survivors
        problem = placement.PlacementProblem(rng_seed=2)
        cfg = problem.config
        rng = np.random.default_rng([2, 0])
        bounds = {}
        seeded = placement.seed_population(problem, rng)
        population, kept, _ = placement._best(seeded, [], bounds, cfg.population, problem)
        for _ in range(5):
            offspring = placement.breed(population[: cfg.parents], problem, rng)
            pool = np.concatenate([population, offspring])
            population, kept, _ = placement._best(pool, kept, bounds, cfg.population, problem)
        assert kept == [beacons.tobytes() for beacons in population]
        assert sum(lo < up for lo, up, _ in bounds.values()) > cfg.population // 2
        picks = np.random.default_rng(3).integers(0, cfg.population, cfg.parents // 2)
        picks[:2] = 0, cfg.population - 1  # the fittest and the last survivor too
        pool = np.concatenate([population, population[picks]])
        memo = copy.deepcopy(bounds)

        def unused(layouts, problem):
            raise AssertionError("the pool holds no layout the last call lacked")

        monkeypatch.setattr(placement, "bound_layouts", unused)
        monkeypatch.setattr(placement, "score_layouts", unused)
        got = placement._best(pool, kept, bounds, cfg.population, problem)
        # the uncarried call hashes the whole pool and runs the cluster pass:
        # it too bounds and scores nothing, and ranks the pool alike
        want = placement._best(pool, [], memo, cfg.population, problem)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1] == [beacons.tobytes() for beacons in got[0]]
        np.testing.assert_array_equal(got[2], want[2])
        assert bounds.keys() == memo.keys()
        for key, (lo, up, row) in bounds.items():
            assert (lo, up) == memo[key][:2] and row.tobytes() == memo[key][2].tobytes()

    def test_infeasible_search_across_a_restart(self, monkeypatch):
        # Each run has its own memo. Seeded with layouts the first run ranked
        # on their bounds alone, the restart must bound them again.
        problem = fast_problem(vdop_tolerance=0.01, max_restarts=1)
        first_run = fast_problem(vdop_tolerance=0.01, max_restarts=0)
        _, _, skipped = traced_search(first_run, monkeypatch)
        injected = np.array(skipped[: problem.config.population // 2])
        keys = {beacons.tobytes() for beacons in injected}
        plain_seed, bounder = placement.seed_population, placement.bound_layouts
        runs, bounded = [], []

        def seeding(problem, rng):
            pop = plain_seed(problem, rng)
            runs.append(len(runs))
            if len(runs) % 2 == 0:  # each search's restart
                pop[: len(injected)] = injected
            return pop

        def recording(layouts, problem):
            bounded.extend(runs[-1] for beacons in layouts if beacons.tobytes() in keys)
            return bounder(layouts, problem)

        monkeypatch.setattr(placement, "seed_population", seeding)
        monkeypatch.setattr(placement, "bound_layouts", recording)
        got = traced_search(problem, monkeypatch)
        assert not got[0].feasible and got[0].restarts == 1 and len(injected)
        # each bounded once in the first run and once in the restart
        assert bounded.count(0) == bounded.count(1) == len(injected) == len(bounded) // 2
        every_offspring_exact(monkeypatch)
        assert_same_search(got, traced_search(problem, monkeypatch))

    def test_default_search_skips_inverses(self, monkeypatch):
        problem = placement.PlacementProblem(rng_seed=3)
        n_points = len(problem.drone_domain.points())
        inverted, bounded = [], []
        inv, bounder = np.linalg.inv, placement.bound_layouts

        def counting_inv(m):
            inverted.append(len(m))
            return inv(m)

        def counting_bounds(layouts, problem):
            bounded.append(len(layouts))
            return bounder(layouts, problem)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(placement, "bound_layouts", counting_bounds)
        result = placement.optimize(problem)
        # a layout inverts at most n_points points, so this counts at least the inverted layouts
        assert sum(inverted) / n_points < 0.1 * sum(bounded)
        every_offspring_exact(monkeypatch)
        want = placement.optimize(problem)
        assert result.history == want.history
        assert result.layout.positions.tobytes() == want.layout.positions.tobytes()


class TestFullRankScreen:
    """channel.full_rank's determinant screen gives matrix_rank's mask, and
    decides a search's layouts without the SVD."""

    def assert_matches(self, layouts, monkeypatch):
        """full_rank equals matrix_rank(tol=1e-9) == 3; returns how many
        layouts the screen left to matrix_rank."""
        rank = np.linalg.matrix_rank
        want = rank(layouts[..., -1:, :] - layouts[..., :-1, :], tol=1e-9) == 3
        undecided = []

        def counting(diffs, tol):
            undecided.append(len(diffs))
            return rank(diffs, tol=tol)

        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "matrix_rank", counting)
            got = full_rank(layouts)
        np.testing.assert_array_equal(got, want)
        return sum(undecided)

    def test_seed_populations(self, monkeypatch):
        undecided = 0
        for seed in range(32):
            problem = placement.PlacementProblem(rng_seed=seed)
            pop = placement.seed_population(problem, np.random.default_rng([seed, 0]))
            undecided += self.assert_matches(pop, monkeypatch)
        # wall layouts on a slanted plane, whose LU det is rounding noise
        assert undecided <= 32 * len(pop) // 100

    @pytest.mark.parametrize("tilt", [10.0**-k for k in range(1, 13)])
    def test_near_coplanar_stacks(self, tilt, monkeypatch):
        stack = near_coplanar_stack(np.random.default_rng(8), 64, tilt)
        undecided = self.assert_matches(stack, monkeypatch)
        if tilt >= 1e-3:
            assert undecided == 0

    @pytest.mark.parametrize("grid", [0.25, 0.1])
    def test_exactly_coplanar_lattice_layouts(self, grid, monkeypatch):
        # on the ceiling, on one wall, and on the plane x = z - 2, which
        # crosses the x = 0 wall, both y walls and the ceiling
        candidates = placement.BeaconDomain(grid_resolution=grid).candidates()
        x, y, z = candidates.T
        planes = [z == 4.0, x == 0.0, np.isclose(x, z - 2.0)]
        rng = np.random.default_rng(4)
        picks = [rng.choice(np.flatnonzero(on), 4, replace=False) for on in planes for _ in range(20)]
        layouts = candidates[np.array(picks)]
        assert not full_rank(layouts).any()
        undecided = self.assert_matches(layouts[:40], monkeypatch)
        assert undecided == 0  # a zero column: an exact zero det
        self.assert_matches(layouts[40:], monkeypatch)

    @pytest.mark.parametrize("scale", [1e-6, 1e-7, 1e-8, 1e-9])
    def test_tiny_layouts_near_the_tolerance(self, scale, monkeypatch):
        # beacons metres apart are far from 1e-9 m; these test both margins
        layouts = np.random.default_rng(6).normal(size=(200, 4, 3)) * scale
        self.assert_matches(layouts, monkeypatch)

    def test_one_layout(self):
        tilted = np.array([[0, 0, 2], [5, 0, 2], [5, 5, 2], [0, 5, 2]], dtype=float)
        for tilt, spans in [(0.0, False), (1e-9, False), (2e-9, True), (1.0, True)]:
            tilted[3, 2] = 2.0 + tilt
            assert bool(full_rank(tilted)) is spans
            assert BeaconLayout(positions=tilted).spans_3d is spans


class TestCrossover:
    def test_equal_parents_reproduce_parent(self):
        problem = fast_problem()
        rng = np.random.default_rng(2)
        pop = placement.seed_population(problem, rng)
        parent = pop[0]
        child = placement.breed(pop[[0, 0]], problem, np.random.default_rng(3))[0]
        assert np.array_equal(child, parent)

    def test_coordinates_come_from_parents_when_lattice_aligned(self):
        # two all-ceiling parents: every mixed coordinate is already a
        # lattice coordinate, so projection must not move anything
        problem = fast_problem()
        rng = np.random.default_rng(4)
        h = problem.beacon_domain.room_dims[2]
        ceiling = problem.beacon_domain.candidates()
        ceiling = ceiling[np.isclose(ceiling[:, 2], h)]
        a = placement._draw_separated(ceiling, rng, 0.5)
        b = placement._draw_separated(ceiling, rng, 0.5)
        child = placement.breed(np.stack([a, b]), problem, np.random.default_rng(5))[0]
        for k in range(4):
            for c in range(3):
                assert child[k, c] in (a[k, c], b[k, c])

    def test_thousand_children_stay_valid(self):
        problem = fast_problem()
        rng = np.random.default_rng(6)
        pop = placement.seed_population(problem, rng)
        candidates = {tuple(p) for p in problem.beacon_domain.candidates()}
        child_rng = np.random.default_rng(7)
        for i in range(1000):
            pair = pop[[i % len(pop), (i * 7 + 3) % len(pop)]]
            child = placement.breed(pair, problem, child_rng)[0]
            assert placement._separated(child, problem.config.min_separation)
            for bcn in child:
                assert tuple(bcn) in candidates


def scalar_separated(points, min_sep):
    """The pair-by-pair scalar test _separated replaced."""
    return all(
        np.linalg.norm(points[i] - points[j]) >= min_sep
        for i, j in itertools.combinations(range(len(points)), 2)
    )


def per_child_breed(parents, problem, rng):
    """The per-child crossover loop breed replaced, with its branch counts."""
    children, redraws, fallbacks = [], 0, 0
    for a, b in zip(parents[0::2], parents[1::2]):
        for _ in range(20):
            mask = rng.integers(0, 2, size=(4, 3)).astype(bool)
            pts = problem.beacon_domain.snap(np.where(mask, a, b))
            if scalar_separated(pts, problem.config.min_separation):
                children.append(pts)
                break
            redraws += 1
        else:
            children.append(a.copy())
            fallbacks += 1
    return children, redraws, fallbacks


class TestBreed:
    @pytest.mark.parametrize(
        "grid, min_sep, falls_back",
        [(0.25, 0.5, False), (0.1, 0.5, False), (0.5, 1.5, False), (0.5, 2.0, True)],
    )
    def test_matches_per_child_loop(self, grid, min_sep, falls_back):
        problem = placement.PlacementProblem(
            placement.PlacementConfig(beacon_grid=grid, min_separation=min_sep)
        )
        redraws = fallbacks = 0
        for seed in range(8):
            # seed_population's choice() calls leave the generator mid-word
            rng = np.random.default_rng(seed)
            parents = placement.seed_population(problem, rng)[: problem.config.parents]
            oracle_rng = copy.deepcopy(rng)
            want, r, f = per_child_breed(parents, problem, oracle_rng)
            got = placement.breed(parents, problem, rng)
            assert len(got) == len(want) == problem.config.parents // 2
            np.testing.assert_array_equal(got, want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            redraws += r
            fallbacks += f
        assert redraws > 0
        if falls_back:
            assert fallbacks > 0

    def test_one_float_array(self):
        problem = fast_problem()
        rng = np.random.default_rng(13)
        parents = placement.seed_population(problem, rng)[: problem.config.parents]
        children = placement.breed(parents, problem, rng)
        assert children.shape == (problem.config.parents // 2, 4, 3)
        assert children.dtype == np.float64

    def test_falls_back_after_max_draws(self):
        # equal parents mix only into themselves, so an unseparated pair fails
        # every draw, while a separated pair accepts its first mask
        problem = fast_problem()
        good = placement.seed_population(problem, np.random.default_rng(10))[0]
        bad = good.copy()
        bad[1] = bad[0]
        parents = np.stack([bad, bad, good, good])
        rng = np.random.default_rng(11)
        children = placement.breed(parents, problem, rng)
        np.testing.assert_array_equal(children[0], bad)
        assert not np.shares_memory(children, parents)
        np.testing.assert_array_equal(children[1], good)
        spent = np.random.default_rng(11)
        spent.integers(0, 2, size=(placement.MAX_DRAWS + 1, 4, 3))
        assert rng.bit_generator.state == spent.bit_generator.state

    def test_equal_parents_make_no_snap_call(self, monkeypatch):
        # each child beacon copies its parents' beacon, already a lattice point
        problem = placement.PlacementProblem()
        pop = placement.seed_population(problem, np.random.default_rng(14))
        parents = np.repeat(pop[:20], 2, axis=0)
        assert len(parents) == 40 and placement._separated(parents, 0.5).all()

        def no_snap(self, points):
            raise AssertionError("snapped a copied beacon")

        monkeypatch.setattr(placement.BeaconDomain, "snap", no_snap)
        rng = np.random.default_rng(15)
        children = placement.breed(parents, problem, rng)
        assert children.tobytes() == pop[:20].tobytes()
        spent = np.random.default_rng(15)
        spent.integers(0, 2, size=(20, 4, 3))
        assert rng.bit_generator.state == spent.bit_generator.state

    @pytest.mark.parametrize("grid", [0.25, 0.5])
    def test_equal_and_unequal_pairs_match_per_child_loop(self, grid, monkeypatch):
        # equal pairs, an unseparated equal pair that falls back, pairs that
        # share beacons, and unequal pairs: every child beacon the loop snaps
        # through the tree is breed's, whether breed snapped it or not
        problem = placement.PlacementProblem(placement.PlacementConfig(beacon_grid=grid))
        snap, snapped = placement.BeaconDomain.snap, []

        def counting(self, points):
            snapped.append(len(points))
            return snap(self, points)

        for seed in range(4):
            rng = np.random.default_rng(seed)
            pop = placement.seed_population(problem, rng)
            bad = pop[0].copy()
            bad[1] = bad[0]
            shared = pop[7].copy()
            shared[[0, 2]] = pop[8][[0, 2]]
            parents = np.concatenate(
                [pop[:6], np.repeat(pop[6:9], 2, axis=0), [bad, bad, shared, pop[8]], pop[20:44]]
            )
            assert len(parents) == problem.config.parents
            oracle_rng = copy.deepcopy(rng)
            want, _, fallbacks = per_child_breed(parents, problem, oracle_rng)
            monkeypatch.setattr(placement.BeaconDomain, "snap", counting)
            got = placement.breed(parents, problem, rng)
            monkeypatch.setattr(placement.BeaconDomain, "snap", snap)
            assert got.tobytes() == np.array(want).tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert fallbacks >= 1  # the unseparated equal pair
        assert snapped  # the unequal pairs mixed some beacons

    def test_no_parents_breed_nothing(self):
        # a problem never has fewer than 2 parents, but breed stays total
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        assert placement.breed(np.empty((0, 4, 3)), fast_problem(), rng).shape == (0, 4, 3)
        assert rng.bit_generator.state == state

    def test_crossover_is_one_pair_breed(self):
        problem = fast_problem()
        pop = placement.seed_population(problem, np.random.default_rng(8))
        child = placement.breed(pop[[0, 5]], problem, np.random.default_rng(9))[0]
        (want,), _, _ = per_child_breed(pop[[0, 5]], problem, np.random.default_rng(9))
        np.testing.assert_array_equal(child, want)


class TestSeparated:
    @pytest.mark.parametrize("grid", [0.1, 0.3])
    def test_matches_scalar_norm_near_threshold(self, grid):
        lattice = placement.BeaconDomain(grid_resolution=grid).candidates()
        pairs = cKDTree(lattice).query_pairs(0.5 + 1e-9, output_type="ndarray")
        d = lattice[pairs[:, 0]] - lattice[pairs[:, 1]]
        pairs = pairs[np.abs(np.sqrt((d * d).sum(axis=1)) - 0.5) < 1e-9]
        assert len(pairs)
        far = np.array([[100.0, 100.0, 100.0], [-100.0, -100.0, -100.0]])
        layouts = np.concatenate(
            [lattice[pairs], np.broadcast_to(far, (len(pairs), 2, 3))], axis=1
        )
        want = [scalar_separated(layout, 0.5) for layout in layouts]
        np.testing.assert_array_equal(placement._separated(layouts, 0.5), want)

    def test_pins_offset_that_axis_norm_rounds_up(self):
        # vecdot, not norm(axis=-1): the axis norm rounds this offset up to 0.5
        dom = placement.BeaconDomain(grid_resolution=0.1)
        pair = dom.snap(np.array([[0.4, 0.0, 4.0], [0.7, 0.4, 4.0]]))
        layout = np.vstack([pair, [[100.0, 100.0, 100.0], [-100.0, -100.0, -100.0]]])
        assert placement._separated(layout, 0.5) == scalar_separated(layout, 0.5)


class TestOptimize:
    def test_history_non_increasing_and_population_constant(self):
        problem = fast_problem()
        sizes = []
        placement_result = placement.optimize(
            problem, observer=lambda run, it, pop: sizes.append(len(pop))
        )
        hist = placement_result.history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert set(sizes) == {problem.config.population}

    def test_deterministic(self):
        a = placement.optimize(fast_problem())
        b = placement.optimize(fast_problem())
        assert np.array_equal(a.layout.positions, b.layout.positions)
        assert a.history == b.history
        assert a.feasible == b.feasible

    def test_feasible_result_meets_tolerances(self):
        result = placement.optimize(fast_problem())
        if result.feasible:
            assert result.vdop_avg <= 2.0
            assert result.hdop_avg <= 2.0

    def test_infeasible_flagged_after_restarts(self):
        problem = fast_problem(vdop_tolerance=0.01, iterations=3, max_restarts=1)
        result = placement.optimize(problem)
        assert not result.feasible
        assert result.restarts == 1
        assert result.vdop_avg > 0.01

    def test_result_layout_valid(self):
        problem = fast_problem()
        result = placement.optimize(problem)
        assert placement._separated(result.layout.positions, problem.config.min_separation)
        candidates = {tuple(p) for p in problem.beacon_domain.candidates()}
        for b in result.layout.positions:
            assert tuple(b) in candidates

    @pytest.mark.parametrize("seed", range(4))
    def test_default_search_equals_the_per_child_reference(self, seed, monkeypatch):
        # Most default generations breed only copies of survivors, so they
        # snap few beacons and skip the cluster pass. The reference snaps
        # every child beacon through the tree (the per-child loop) and runs
        # the cluster pass every generation (_best carrying no keys).
        problem = placement.PlacementProblem(rng_seed=seed)
        cfg = problem.config
        rng = np.random.default_rng([seed, 0])
        bounds = {}
        seeded = placement.seed_population(problem, rng)
        population, _, row = placement._best(seeded, [], bounds, cfg.population, problem)
        want, history, copies_only = [], [], 0
        for _ in range(cfg.iterations):
            children, _, _ = per_child_breed(population[: cfg.parents], problem, rng)
            survivors = {beacons.tobytes() for beacons in population}
            copies_only += all(child.tobytes() in survivors for child in children)
            pool = np.concatenate([population, np.array(children)])
            population, _, row = placement._best(pool, [], bounds, cfg.population, problem)
            want.append(population.tobytes())
            history.append(float(row[0]))

        cluster_pass, passes = placement._score_clusters, []

        def counting(*args):
            passes.append(args)
            return cluster_pass(*args)

        monkeypatch.setattr(placement, "_score_clusters", counting)
        generations = []
        result = placement.optimize(
            problem, observer=lambda run, it, pop: generations.append(pop.tobytes())
        )
        assert result.restarts == 0 and result.feasible
        assert generations == want
        assert result.history == history
        assert result.layout.positions.tobytes() == population[0].tobytes()
        assert [result.hdop_avg, result.vdop_avg] == row[1:].tolist()
        # the seeding call and each generation that bred a new layout
        assert copies_only and len(passes) == 1 + cfg.iterations - copies_only

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_kernel_batch_size_cannot_change_a_search(self, seed, monkeypatch):
        problem = fast_problem(rng_seed=seed)
        kernel = placement.dop_components
        batch_sizes = []

        def recording(layouts, points, estimate=False):
            batch_sizes.append(len(layouts))
            return kernel(layouts, points, estimate=estimate)

        def search():
            batch_sizes.clear()
            generations = []
            result = placement.optimize(
                problem, observer=lambda run, it, pop: generations.append(pop.tobytes())
            )
            return result, generations, max(batch_sizes)

        monkeypatch.setattr(placement, "dop_components", recording)
        want, want_generations, widest = search()
        monkeypatch.setattr(placement, "PAIR_BUDGET", 1)  # one layout a kernel call
        got, generations, one = search()
        assert widest > 1 and one == 1
        assert generations == want_generations
        assert got.layout.positions.tobytes() == want.layout.positions.tobytes()
        assert got.history == want.history
        assert (got.vdop_avg, got.hdop_avg, got.restarts, got.feasible) == (
            want.vdop_avg,
            want.hdop_avg,
            want.restarts,
            want.feasible,
        )


class TestFitnessMemo:
    def test_each_distinct_layout_scored_once(self, monkeypatch):
        plain_seed, plain_bounds, plain_score = (
            placement.seed_population,
            placement.bound_layouts,
            placement.score_layouts,
        )
        runs, bounded, scored = [], [], []

        def seeding(problem, rng):
            runs.append(len(runs))
            return plain_seed(problem, rng)

        def counting_bounds(layouts, problem):
            bounded.extend((runs[-1], beacons.tobytes()) for beacons in layouts)
            return plain_bounds(layouts, problem)

        def counting_score(layouts, problem):
            scored.extend((runs[-1], beacons.tobytes()) for beacons in layouts)
            return plain_score(layouts, problem)

        monkeypatch.setattr(placement, "seed_population", seeding)
        monkeypatch.setattr(placement, "bound_layouts", counting_bounds)
        monkeypatch.setattr(placement, "score_layouts", counting_score)
        problem = fast_problem(vdop_tolerance=0.01)
        seen = set()
        best = {}

        def observer(run_idx, iteration, population):
            seen.update((run_idx, ind.tobytes()) for ind in population)
            best.setdefault(run_idx, []).append(plain_score(population[:1], problem)[0, 0])

        result = placement.optimize(problem, observer=observer)
        assert result.restarts == problem.config.max_restarts > 0
        # one interval per layout per run, and at most one exact row, of a bounded layout
        assert len(bounded) == len(set(bounded))
        assert len(scored) == len(set(scored)) and set(scored) <= set(bounded)
        # most layouts are ranked on their bounds alone
        assert len(scored) < len(bounded) / 2
        # every layout that survived a cull was bounded in its own run
        assert seen and seen <= set(bounded)
        # history[i] is the fresh fitness of the best layout observed at iteration i
        assert result.history in best.values()
        if result.feasible:
            assert result.history == best[result.restarts]

    def test_repeat_search_in_one_process_is_identical(self):
        first = placement.optimize(fast_problem())
        second = placement.optimize(fast_problem())
        assert first.history == second.history
        np.testing.assert_array_equal(first.layout.positions, second.layout.positions)
        assert (first.vdop_avg, first.hdop_avg, first.restarts) == (
            second.vdop_avg,
            second.hdop_avg,
            second.restarts,
        )


class TestProblemValidation:
    def test_rejects_more_parents_than_population(self):
        with pytest.raises(ValueError):
            placement.PlacementConfig(population=10, parents=12)

    @pytest.mark.parametrize("parents", [0, -2])
    def test_rejects_fewer_than_two_parents(self, parents):
        with pytest.raises(ValueError, match="at least 2 parents"):
            placement.PlacementConfig(population=10, parents=parents)

    def test_rejects_odd_parent_count(self):
        with pytest.raises(ValueError):
            placement.PlacementConfig(population=10, parents=7)

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            placement.PlacementConfig(hdop_tolerance=0.0)

    def test_rejects_negative_max_restarts(self):
        # with no run at all there would be no best layout to return
        with pytest.raises(ValueError, match="max_restarts must be non-negative"):
            placement.PlacementConfig(max_restarts=-1)

    def test_zero_restarts_runs_one_search(self):
        result = placement.optimize(fast_problem(max_restarts=0))
        assert result.restarts == 0
        assert len(result.history) == 8

    @pytest.mark.parametrize("key", ["hdop_tolerance", "vdop_tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_rejects_each_nonpositive_or_nan_tolerance(self, key, value):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            placement.PlacementConfig(**{key: value})

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_rejects_fewer_than_one_iteration(self, iterations):
        with pytest.raises(ValueError, match="need at least one iteration"):
            placement.PlacementConfig(iterations=iterations)

    @pytest.mark.parametrize("grid", [0.0, -0.25, math.nan])
    def test_rejects_nonpositive_or_nan_beacon_grid(self, grid):
        with pytest.raises(ValueError, match="beacon_grid must be positive"):
            placement.PlacementConfig(beacon_grid=grid)

    @pytest.mark.parametrize("separation", [-1.0, -1e-12, math.nan])
    def test_rejects_negative_or_nan_min_separation(self, separation):
        with pytest.raises(ValueError, match="min_separation must be non-negative"):
            placement.PlacementConfig(min_separation=separation)

    def test_layout_limit_counts_every_run_seed_and_child(self):
        # (max_restarts + 1) * (population + iterations * parents / 2) layouts
        limit = placement.MAX_SEARCH_LAYOUTS
        placement.PlacementConfig(population=limit - 100 * 20, max_restarts=0)
        with pytest.raises(ValueError, match=f"up to {limit + 1} layouts"):
            placement.PlacementConfig(population=limit - 100 * 20 + 1, max_restarts=0)
        with pytest.raises(ValueError, match=f"up to {2 * limit} layouts"):
            placement.PlacementConfig(population=limit - 100 * 20, max_restarts=1)
        with pytest.raises(ValueError, match=f"up to {limit + 20} layouts"):
            placement.PlacementConfig(population=limit - 100 * 20, iterations=101, max_restarts=0)

    def test_limits_are_accepted(self):
        config = placement.PlacementConfig(
            population=2, parents=2, iterations=1, max_restarts=0, min_separation=0.0
        )
        assert (config.population, config.parents) == (2, 2)


class TestPlacementProblem:
    def test_is_config_domain_room_and_seed(self):
        assert [f.name for f in dataclasses.fields(placement.PlacementProblem)] == [
            "config", "drone_domain", "room_dims", "rng_seed"
        ]
        problem = placement.PlacementProblem()
        assert problem.config == placement.PlacementConfig()
        assert problem.drone_domain == DroneDomain()
        assert problem.rng_seed == 0

    def test_beacon_domain_is_derived_once_from_room_and_grid(self):
        config = placement.PlacementConfig(beacon_grid=0.5)
        problem = placement.PlacementProblem(config, room_dims=(6.0, 5.0, 3.5))
        assert problem.beacon_domain == placement.BeaconDomain((6.0, 5.0, 3.5), 0.5)
        assert problem.beacon_domain is problem.beacon_domain

    def test_sim_config_builds_its_problem_in_one_call(self):
        cfg = default_config()
        cfg = dataclasses.replace(
            cfg,
            scene=dataclasses.replace(cfg.scene, room_dims=(6.0, 5.0, 4.0)),
            placement=dataclasses.replace(cfg.placement, beacon_grid=0.5, iterations=3),
            run=dataclasses.replace(cfg.run, seed=21, domain_grid=1.0),
        )
        problem = cfg.placement_problem()
        assert problem == placement.PlacementProblem(
            cfg.placement, DroneDomain(grid_resolution=1.0), (6.0, 5.0, 4.0), 21
        )
        assert problem.config is cfg.placement
        assert problem.beacon_domain.grid_resolution == 0.5
