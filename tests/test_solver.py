import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, BeaconLayout
from ultraloc.errors import SingularGeometryError
from ultraloc.solver import trilaterate


def true_ranges(layout, target):
    return np.linalg.norm(np.asarray(layout.positions) - np.asarray(target), axis=1)


def gauss_newton(layout, ranges, x0, iters=50):
    """Independent nonlinear least-squares oracle on the range residuals."""
    positions = np.asarray(layout.positions, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iters):
        diff = x[None, :] - positions
        dists = np.linalg.norm(diff, axis=1)
        residuals = ranges - dists
        jac = -diff / dists[:, None]
        step, *_ = np.linalg.lstsq(jac, residuals, rcond=None)
        x -= step
        if np.linalg.norm(step) < 1e-14:
            break
    return x


def random_layout_and_target(rng):
    """Random non-degenerate beacon set and interior target."""
    while True:
        positions = rng.uniform([0, 0, 0], [5, 5, 4], size=(4, 3))
        target = rng.uniform([0.5, 0.5, 0.5], [4.5, 4.5, 3.5])
        diffs = positions[-1] - positions[:-1]
        if np.linalg.matrix_rank(diffs, tol=1e-3) == 3:
            return BeaconLayout(positions=positions), target


class TestExactRecovery:
    def test_reference_layout_exact(self):
        target = np.array([2.0, 2.0, 1.0])
        fix = trilaterate(ORIGINAL_LAYOUT, true_ranges(ORIGINAL_LAYOUT, target))
        np.testing.assert_allclose(fix.position, target, atol=1e-9)
        assert fix.residual_norm < 1e-9

    def test_random_layouts_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            layout, target = random_layout_and_target(rng)
            fix = trilaterate(layout, true_ranges(layout, target))
            assert np.max(np.abs(fix.position - target)) <= 1e-9

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        layout, target = random_layout_and_target(rng)
        ranges = true_ranges(layout, target)
        shift = np.array([11.0, -4.0, 2.5])
        moved = BeaconLayout(positions=np.asarray(layout.positions) + shift)
        fix0 = trilaterate(layout, ranges)
        fix1 = trilaterate(moved, ranges)
        np.testing.assert_allclose(fix1.position, fix0.position + shift, atol=1e-8)

    def test_beacon_permutation_invariance_noiseless(self):
        rng = np.random.default_rng(5)
        layout, target = random_layout_and_target(rng)
        ranges = true_ranges(layout, target)
        base = trilaterate(layout, ranges).position
        for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]):
            permuted = BeaconLayout(positions=np.asarray(layout.positions)[perm])
            fix = trilaterate(permuted, ranges[perm])
            np.testing.assert_allclose(fix.position, base, atol=1e-9)

    def test_beacon_permutation_with_noise_bounded(self):
        # permuting the reference beacon changes the linear system; the
        # spread across permutations stays within 10x the gap to the
        # nonlinear oracle
        rng = np.random.default_rng(8)
        target = np.array([2.0, 2.0, 1.0])
        ranges = true_ranges(ORIGINAL_LAYOUT, target) + rng.normal(0, 1e-3, 4)
        solutions = []
        oracle_gaps = []
        for perm in ([0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]):
            permuted = BeaconLayout(positions=np.asarray(ORIGINAL_LAYOUT.positions)[perm])
            fix = trilaterate(permuted, ranges[perm])
            gn = gauss_newton(permuted, ranges[perm], x0=fix.position)
            solutions.append(fix.position)
            oracle_gaps.append(np.linalg.norm(fix.position - gn))
        spread = max(
            np.linalg.norm(a - b) for a in solutions for b in solutions
        )
        assert spread <= 10.0 * max(oracle_gaps)


class TestPerturbedRanges:
    def test_one_mm_uniform_offset(self):
        # the squared-range differencing cancels most of a common-mode
        # offset, so the module must stay within a tenth of the nonlinear
        # oracle's own error (it actually beats the oracle here)
        target = np.array([2.0, 2.0, 1.0])
        ranges = true_ranges(ORIGINAL_LAYOUT, target) + 1e-3
        fix = trilaterate(ORIGINAL_LAYOUT, ranges)
        assert np.linalg.norm(fix.position - target) < 0.01
        gn = gauss_newton(ORIGINAL_LAYOUT, ranges, x0=target)
        assert np.linalg.norm(fix.position - target) <= 1.1 * np.linalg.norm(gn - target)


class TestDegenerateGeometry:
    def test_coplanar_beacons_raise(self):
        coplanar = BeaconLayout(
            positions=np.array([[0, 0, 2], [5, 0, 2], [5, 5, 2], [0, 5, 2]], dtype=float)
        )
        with pytest.raises(SingularGeometryError):
            trilaterate(coplanar, np.array([3.0, 3.0, 3.0, 3.0]))

    def test_wrong_range_count(self):
        with pytest.raises(ValueError):
            trilaterate(ORIGINAL_LAYOUT, np.array([1.0, 2.0, 3.0]))

    def test_negative_range(self):
        with pytest.raises(ValueError):
            trilaterate(ORIGINAL_LAYOUT, np.array([1.0, 2.0, 3.0, -0.5]))


class TestRigidMotionProperty:
    """Noiseless trilateration commutes with relabelling the beacons and
    with moving the whole scene: the fix of the moved problem is the moved
    fix, to 1e-6 m."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        layout=st.sampled_from([ORIGINAL_LAYOUT, OPTIMIZED_LAYOUT]),
        target=st.tuples(
            st.floats(0.5, 4.5), st.floats(0.5, 4.5), st.floats(0.5, 3.0)
        ),
        perm=st.permutations(range(4)),
        angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        shift=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
    )
    def test_commutes_with_permutation_and_rigid_motion(
        self, layout, target, perm, angles, shift
    ):
        rot = Rotation.from_euler("zyx", angles).as_matrix()
        ranges = true_ranges(layout, target)
        fix = trilaterate(layout, ranges).position
        moved = BeaconLayout(positions=layout.positions[list(perm)] @ rot.T + shift)
        moved_fix = trilaterate(moved, ranges[list(perm)]).position
        np.testing.assert_allclose(moved_fix, rot @ fix + shift, rtol=0, atol=1e-6)
