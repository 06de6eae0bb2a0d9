import copy
import itertools
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ultraloc import placement
from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT
from ultraloc.dop import DroneDomain
from ultraloc.errors import InfeasibleDomainError


def fast_problem(**overrides):
    """Small search that still exercises every mechanism."""
    defaults = dict(
        drone_domain=DroneDomain(grid_resolution=1.0),
        beacon_domain=placement.BeaconDomain(grid_resolution=0.5),
        population=12,
        parents=8,
        iterations=8,
        rng_seed=5,
        max_restarts=2,
    )
    defaults.update(overrides)
    return placement.PlacementProblem(**defaults)


class TestBeaconDomain:
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


class TestSeedPopulation:
    def test_size_and_membership(self):
        problem = placement.PlacementProblem(rng_seed=1)
        pop = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        assert len(pop) == problem.population
        candidates = {tuple(p) for p in problem.beacon_domain.candidates()}
        for ind in pop:
            assert ind.beacons.shape == (4, 3)
            for b in ind.beacons:
                assert tuple(b) in candidates
            assert placement._separated(ind.beacons, problem.min_separation)

    def test_stratified_groups(self):
        problem = placement.PlacementProblem(rng_seed=1)
        pop = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        dom = problem.beacon_domain
        h = dom.room_dims[2]
        n_ceiling = (problem.population + 2) // 3
        n_wall = (problem.population + 1) // 3
        for ind in pop[:n_ceiling]:
            assert np.all(np.isclose(ind.beacons[:, 2], h))
        for ind in pop[n_ceiling : n_ceiling + n_wall]:
            assert np.all(~np.isclose(ind.beacons[:, 2], h))
        for ind in pop[n_ceiling + n_wall :]:
            on_ceil = np.isclose(ind.beacons[:, 2], h)
            assert 0 < on_ceil.sum() < 4

    def test_deterministic(self):
        problem = placement.PlacementProblem(rng_seed=33)
        a = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        b = placement.seed_population(problem, np.random.default_rng(problem.rng_seed))
        assert all(np.array_equal(x.beacons, y.beacons) for x, y in zip(a, b))

    def test_infeasible_separation(self):
        problem = fast_problem(min_separation=50.0)
        with pytest.raises(InfeasibleDomainError):
            placement.seed_population(problem, np.random.default_rng(problem.rng_seed))


class TestFitness:
    def test_reference_layouts_ordering(self):
        problem = placement.PlacementProblem(rng_seed=0)
        orig = placement.Individual(beacons=np.asarray(ORIGINAL_LAYOUT.positions))
        opt = placement.Individual(beacons=np.asarray(OPTIMIZED_LAYOUT.positions))
        f_orig = placement.fitness(orig, problem)
        f_opt = placement.fitness(opt, problem)
        assert math.isfinite(f_orig) and math.isfinite(f_opt)
        assert f_opt < f_orig

    def test_no_penalty_when_hdop_within_tolerance(self):
        problem = placement.PlacementProblem(rng_seed=0)
        ind = placement.Individual(beacons=np.asarray(OPTIMIZED_LAYOUT.positions))
        placement.fitness(ind, problem)
        assert ind.hdop_avg <= problem.hdop_tolerance
        assert ind.fitness == ind.vdop_avg

    def test_penalty_when_hdop_breaks_tolerance(self):
        problem = placement.PlacementProblem(rng_seed=0, hdop_tolerance=0.5)
        ind = placement.Individual(beacons=np.asarray(OPTIMIZED_LAYOUT.positions))
        placement.fitness(ind, problem)
        assert ind.fitness >= placement.HDOP_PENALTY

    def test_coplanar_layout_gets_sentinel(self):
        problem = placement.PlacementProblem(rng_seed=0)
        flat = placement.Individual(
            beacons=np.array([[0, 0, 4], [5, 0, 4], [5, 5, 4], [0, 5, 4]], dtype=float)
        )
        assert placement.fitness(flat, problem) == math.inf


class TestCrossover:
    def test_equal_parents_reproduce_parent(self):
        problem = fast_problem()
        rng = np.random.default_rng(2)
        pop = placement.seed_population(problem, rng)
        parent = pop[0]
        child = placement.breed([parent, parent], problem, np.random.default_rng(3))[0]
        assert np.array_equal(child.beacons, parent.beacons)

    def test_coordinates_come_from_parents_when_lattice_aligned(self):
        # two all-ceiling parents: every mixed coordinate is already a
        # lattice coordinate, so projection must not move anything
        problem = fast_problem()
        rng = np.random.default_rng(4)
        h = problem.beacon_domain.room_dims[2]
        ceiling = problem.beacon_domain.candidates()
        ceiling = ceiling[np.isclose(ceiling[:, 2], h)]
        a = placement.Individual(beacons=placement._draw_separated(ceiling, rng, 0.5))
        b = placement.Individual(beacons=placement._draw_separated(ceiling, rng, 0.5))
        child = placement.breed([a, b], problem, np.random.default_rng(5))[0]
        for k in range(4):
            for c in range(3):
                assert child.beacons[k, c] in (a.beacons[k, c], b.beacons[k, c])

    def test_thousand_children_stay_valid(self):
        problem = fast_problem()
        rng = np.random.default_rng(6)
        pop = placement.seed_population(problem, rng)
        candidates = {tuple(p) for p in problem.beacon_domain.candidates()}
        child_rng = np.random.default_rng(7)
        for i in range(1000):
            a, b = pop[i % len(pop)], pop[(i * 7 + 3) % len(pop)]
            child = placement.breed([a, b], problem, child_rng)[0]
            assert placement._separated(child.beacons, problem.min_separation)
            for bcn in child.beacons:
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
            pts = problem.beacon_domain.snap(np.where(mask, a.beacons, b.beacons))
            if scalar_separated(pts, problem.min_separation):
                children.append(pts)
                break
            redraws += 1
        else:
            children.append(a.beacons.copy())
            fallbacks += 1
    return children, redraws, fallbacks


class TestBreed:
    @pytest.mark.parametrize(
        "grid, min_sep, falls_back",
        [(0.25, 0.5, False), (0.1, 0.5, False), (0.5, 1.5, False), (0.5, 2.0, True)],
    )
    def test_matches_per_child_loop(self, grid, min_sep, falls_back):
        problem = placement.PlacementProblem(
            beacon_domain=placement.BeaconDomain(grid_resolution=grid),
            min_separation=min_sep,
        )
        redraws = fallbacks = 0
        for seed in range(8):
            # seed_population's choice() calls leave the generator mid-word
            rng = np.random.default_rng(seed)
            parents = placement.seed_population(problem, rng)[: problem.parents]
            oracle_rng = copy.deepcopy(rng)
            want, r, f = per_child_breed(parents, problem, oracle_rng)
            got = placement.breed(parents, problem, rng)
            assert len(got) == len(want) == problem.offspring
            for child, pts in zip(got, want):
                np.testing.assert_array_equal(child.beacons, pts)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            redraws += r
            fallbacks += f
        assert redraws > 0
        if falls_back:
            assert fallbacks > 0

    def test_falls_back_after_max_draws(self):
        # equal parents mix only into themselves, so an unseparated pair fails
        # every draw, while a separated pair accepts its first mask
        problem = fast_problem()
        good = placement.seed_population(problem, np.random.default_rng(10))[0]
        bad = placement.Individual(beacons=good.beacons.copy())
        bad.beacons[1] = bad.beacons[0]
        rng = np.random.default_rng(11)
        children = placement.breed([bad, bad, good, good], problem, rng)
        np.testing.assert_array_equal(children[0].beacons, bad.beacons)
        assert children[0].beacons is not bad.beacons
        np.testing.assert_array_equal(children[1].beacons, good.beacons)
        spent = np.random.default_rng(11)
        spent.integers(0, 2, size=(placement.MAX_DRAWS + 1, 4, 3))
        assert rng.bit_generator.state == spent.bit_generator.state

    def test_no_parents_breed_nothing(self):
        # a problem never has fewer than 2 parents, but breed stays total
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        assert placement.breed([], fast_problem(), rng) == []
        assert rng.bit_generator.state == state

    def test_crossover_is_one_pair_breed(self):
        problem = fast_problem()
        pop = placement.seed_population(problem, np.random.default_rng(8))
        child = placement.breed([pop[0], pop[5]], problem, np.random.default_rng(9))[0]
        (want,), _, _ = per_child_breed([pop[0], pop[5]], problem, np.random.default_rng(9))
        np.testing.assert_array_equal(child.beacons, want)


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
        assert set(sizes) == {problem.population}

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
        assert placement._separated(result.layout.positions, problem.min_separation)
        candidates = {tuple(p) for p in problem.beacon_domain.candidates()}
        for b in result.layout.positions:
            assert tuple(b) in candidates


class TestFitnessMemo:
    def test_each_distinct_layout_scored_once(self, monkeypatch):
        plain_fitness = placement.fitness
        scored = []

        def counting_fitness(individual, problem):
            scored.append(individual.beacons.tobytes())
            return plain_fitness(individual, problem)

        monkeypatch.setattr(placement, "fitness", counting_fitness)
        problem = fast_problem()
        seen = []

        def observer(run_idx, iteration, population):
            for ind in population:
                fresh = placement.Individual(beacons=ind.beacons.copy())
                plain_fitness(fresh, problem)
                seen.append(
                    (
                        ind.beacons.tobytes(),
                        (ind.fitness, ind.hdop_avg, ind.vdop_avg),
                        (fresh.fitness, fresh.hdop_avg, fresh.vdop_avg),
                    )
                )

        placement.optimize(problem, observer=observer)
        assert len(scored) == len(set(scored))
        assert seen
        for key, got, want in seen:
            assert key in scored
            np.testing.assert_array_equal(got, want)

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
            placement.PlacementProblem(population=10, parents=12)

    @pytest.mark.parametrize("parents", [0, -2])
    def test_rejects_fewer_than_two_parents(self, parents):
        with pytest.raises(ValueError, match="at least 2 parents"):
            placement.PlacementProblem(population=10, parents=parents)

    def test_rejects_odd_parent_count(self):
        with pytest.raises(ValueError):
            placement.PlacementProblem(population=10, parents=7)

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            placement.PlacementProblem(hdop_tolerance=0.0)

    def test_rejects_negative_max_restarts(self):
        # with no run at all there would be no best layout to return
        with pytest.raises(ValueError, match="max_restarts must be non-negative"):
            placement.PlacementProblem(max_restarts=-1)

    def test_zero_restarts_runs_one_search(self):
        result = placement.optimize(fast_problem(max_restarts=0))
        assert result.restarts == 0
        assert len(result.history) == 8

    def test_offspring_is_half_of_parents(self):
        assert placement.PlacementProblem(parents=40).offspring == 20
