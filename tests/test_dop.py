import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from ultraloc import dop
from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, BeaconLayout
from ultraloc.errors import DegenerateGeometryError, DomainDegeneracyError
from ultraloc.placement import BeaconDomain
from ultraloc.solver import trilaterate


def adjugate_inverse_3x3(m):
    """Brute-force cofactor inversion, independent of numpy.linalg.inv."""
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


def unit_rows(layout, target):
    diff = np.asarray(layout.positions) - np.asarray(target)
    return diff / np.linalg.norm(diff, axis=1)[:, None]


def random_layout_and_target(rng):
    while True:
        positions = rng.uniform([0, 0, 0], [5, 5, 4], size=(4, 3))
        target = rng.uniform([0.5, 0.5, 0.5], [4.5, 4.5, 3.5])
        u = unit_rows(BeaconLayout(positions=positions), target)
        eigs = np.linalg.eigvalsh(u.T @ u)
        if eigs[0] > 1e-3:
            return BeaconLayout(positions=positions), target


class TestDopAt:
    def test_hand_inverted_diagonal_case(self):
        # beacons offset (+1,0,0), (-1,0,0), (0,1,0), (0,0,1) from the
        # target: normal matrix diag(2,1,1), so hdop^2 = 1/2 + 1,
        # vdop = 1, gdop^2 = 2.5
        target = np.zeros(3)
        layout = BeaconLayout(
            positions=np.array(
                [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
            )
        )
        report = dop.dop_at(layout, target)
        assert report.hdop == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert report.vdop == pytest.approx(1.0, rel=1e-12)
        assert report.gdop == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert report.classification is dop.GdopClass.VERY_GOOD

    def test_gdop_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            layout, target = random_layout_and_target(rng)
            r = dop.dop_at(layout, target)
            assert r.gdop**2 == pytest.approx(r.hdop**2 + r.vdop**2, rel=1e-9)
            assert r.gdop >= max(r.hdop, r.vdop)

    def test_rotation_about_z_invariance(self):
        rng = np.random.default_rng(2)
        layout, target = random_layout_and_target(rng)
        base = dop.dop_at(layout, target)
        for angle in (0.3, 1.1, 2.7):
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            rotated = BeaconLayout(positions=np.asarray(layout.positions) @ rot.T)
            r = dop.dop_at(rotated, rot @ np.asarray(target))
            assert r.hdop == pytest.approx(base.hdop, rel=1e-9)
            assert r.vdop == pytest.approx(base.vdop, rel=1e-9)

    def test_degenerate_geometry_raises(self):
        # all beacons almost along one ray from the target
        positions = np.array(
            [[1, 0, 0], [2, 1e-9, 0], [3, 0, 1e-9], [4, 1e-9, 1e-9]], dtype=float
        )
        with pytest.raises(DegenerateGeometryError):
            dop.dop_at(BeaconLayout(positions=positions), np.zeros(3))

    def test_rejects_coincident_target(self):
        target = np.asarray(ORIGINAL_LAYOUT.positions)[0]
        with pytest.raises(DegenerateGeometryError):
            dop.dop_at(ORIGINAL_LAYOUT, target)


class TestClassification:
    @pytest.mark.parametrize(
        "gdop,expected",
        [
            (0.5, dop.GdopClass.MEASUREMENT_ERROR_OR_REDUNDANCY),
            (1.0, dop.GdopClass.IDEAL),
            (1.5, dop.GdopClass.VERY_GOOD),
            (2.0, dop.GdopClass.GOOD),
            (4.9, dop.GdopClass.GOOD),
            (7.0, dop.GdopClass.MEDIUM),
            (15.0, dop.GdopClass.SUFFICIENT),
            (20.0, dop.GdopClass.BAD),
            (25.0, dop.GdopClass.BAD),
        ],
    )
    def test_bands(self, gdop, expected):
        assert dop.classify_gdop(gdop) is expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dop.classify_gdop(-0.1)


class TestDopAverage:
    def test_single_point_domain_matches_dop_at(self):
        domain = dop.DroneDomain(
            x_range=(2.0, 2.0), y_range=(3.0, 3.0), z_range=(1.0, 1.0)
        )
        h_avg, v_avg = dop.dop_average(ORIGINAL_LAYOUT, domain)
        point_report = dop.dop_at(ORIGINAL_LAYOUT, np.array([2.0, 3.0, 1.0]))
        assert h_avg == pytest.approx(point_report.hdop, rel=1e-12)
        assert v_avg == pytest.approx(point_report.vdop, rel=1e-12)

    def test_optimized_layout_beats_original_vdop(self):
        domain = dop.DroneDomain()
        _, v_orig = dop.dop_average(ORIGINAL_LAYOUT, domain)
        _, v_opt = dop.dop_average(OPTIMIZED_LAYOUT, domain)
        assert v_opt < v_orig

    def test_symmetry_of_symmetric_layout(self):
        # layout invariant under 180-degree rotation about the room
        # center: a rotated domain must average identically
        layout = BeaconLayout(
            positions=np.array(
                [[1, 1, 3], [4, 1, 3.5], [4, 4, 3], [1, 4, 3.5]], dtype=float
            )
        )
        dom_a = dop.DroneDomain(x_range=(1.0, 2.0), y_range=(1.0, 2.0), z_range=(0.5, 1.0))
        dom_b = dop.DroneDomain(x_range=(3.0, 4.0), y_range=(3.0, 4.0), z_range=(0.5, 1.0))
        h_a, v_a = dop.dop_average(layout, dom_a)
        h_b, v_b = dop.dop_average(layout, dom_b)
        assert h_a == pytest.approx(h_b, rel=1e-9)
        assert v_a == pytest.approx(v_b, rel=1e-9)

    def test_domain_on_beacon_rejected(self):
        pos = np.asarray(ORIGINAL_LAYOUT.positions)[1]
        domain = dop.DroneDomain(
            x_range=(pos[0], pos[0]), y_range=(pos[1], pos[1]), z_range=(pos[2], pos[2])
        )
        with pytest.raises(DomainDegeneracyError):
            dop.dop_average(ORIGINAL_LAYOUT, domain)

    def test_lattice_point_count(self):
        domain = dop.DroneDomain()
        assert domain.points().shape == (9 * 9 * 6, 3)

    def test_lattice_built_once_and_read_only(self):
        domain = dop.DroneDomain()
        points = domain.points()
        assert domain.points() is points
        with pytest.raises(ValueError):
            points[0, 0] = 0.0
        axes = [np.arange(0.5, 4.51, 0.5), np.arange(0.5, 4.51, 0.5), np.arange(0.5, 3.01, 0.5)]
        fresh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        np.testing.assert_array_equal(points, fresh)


class TestOracleEquivalence:
    def test_against_adjugate_inversion(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            layout, target = random_layout_and_target(rng)
            u = unit_rows(layout, target)
            q = adjugate_inverse_3x3(u.T @ u)
            expected_h = math.sqrt(q[0, 0] + q[1, 1])
            expected_v = math.sqrt(q[2, 2])
            expected_g = math.sqrt(q[0, 0] + q[1, 1] + q[2, 2])
            r = dop.dop_at(layout, target)
            assert r.hdop == pytest.approx(expected_h, rel=1e-9)
            assert r.vdop == pytest.approx(expected_v, rel=1e-9)
            assert r.gdop == pytest.approx(expected_g, rel=1e-9)


def unscreened_dop_components(positions, points):
    """dop_components with eigvalsh at every point: the reference for the
    condition screen, which must reproduce it bit for bit."""
    positions = np.asarray(positions, dtype=float)
    diff = positions[None, :, :] - points[:, None, :]
    r = np.linalg.norm(diff, axis=2)
    coincident = np.any(r < 1e-12, axis=1)
    u = diff / np.where(r < 1e-12, 1.0, r)[:, :, None]
    m = np.einsum("pij,pik->pjk", u, u)
    eigs = np.linalg.eigvalsh(m)
    cond = eigs[:, -1] / np.maximum(eigs[:, 0], 1e-300)
    degenerate = coincident | (eigs[:, 0] <= 0) | (cond > dop.CONDITION_CAP)
    hdop = np.full(points.shape[0], np.nan)
    vdop = np.full(points.shape[0], np.nan)
    for k in np.flatnonzero(~degenerate):
        q = np.linalg.inv(m[k])
        hdop[k] = np.sqrt(q[0, 0] + q[1, 1])
        vdop[k] = np.sqrt(q[2, 2])
    return hdop, vdop, degenerate


def assert_same_as_unscreened(positions, points):
    got = dop.dop_components(positions, points)
    want = unscreened_dop_components(positions, points)
    np.testing.assert_array_equal(got[2], want[2])
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    return want[2]


class TestConditionScreen:
    def test_random_lattice_layouts(self):
        candidates = BeaconDomain().candidates()
        points = dop.DroneDomain().points()
        rng = np.random.default_rng(7)
        for _ in range(100):
            positions = candidates[rng.choice(candidates.shape[0], size=4, replace=False)]
            assert_same_as_unscreened(positions, points)

    @pytest.mark.parametrize("n_beacons", [3, 4])
    def test_targets_approaching_the_beacon_plane(self, n_beacons):
        # Beacons on the ceiling: the normal matrix loses rank as the
        # target rises into their plane, so cond sweeps through the cap.
        ceiling = np.array([[1.0, 1.0, 4.0], [4.0, 1.5, 4.0], [3.5, 4.0, 4.0], [1.0, 4.5, 4.0]])
        gaps = np.geomspace(1e-1, 1e-7, 600)
        points = np.column_stack([np.full(gaps.size, 2.2), np.full(gaps.size, 2.7), 4.0 - gaps])
        mask = assert_same_as_unscreened(ceiling[:n_beacons], points)
        assert mask.any() and not mask.all()

    def test_coincident_and_in_plane_targets(self):
        positions = ORIGINAL_LAYOUT.positions
        points = np.vstack([positions, [[2.5, 2.5, 1.5], [2.5, 2.5, 2.0]]])
        mask = assert_same_as_unscreened(positions, points)
        assert mask[:4].all() and not mask[4:].any()

    def test_one_point_call(self):
        for target in ([2.5, 2.5, 1.5], [0.7, 4.1, 2.9]):
            assert_same_as_unscreened(OPTIMIZED_LAYOUT.positions, np.array([target]))


class TestEmpiricalConsistency:
    @staticmethod
    def _gauss_newton_refine(layout, ranges, x0, iters=25):
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

    def _z_error_std(self, refine, n_trials=4000, sigma_r=1e-3):
        rng = np.random.default_rng(7)
        target = np.array([2.0, 2.0, 1.0])
        true_d = np.linalg.norm(np.asarray(ORIGINAL_LAYOUT.positions) - target, axis=1)
        z_errors = []
        for _ in range(n_trials):
            noisy = true_d + rng.normal(0.0, sigma_r, 4)
            x = trilaterate(ORIGINAL_LAYOUT, noisy).position
            if refine:
                x = self._gauss_newton_refine(ORIGINAL_LAYOUT, noisy, x)
            z_errors.append(x[2] - target[2])
        return np.std(z_errors) / sigma_r, target

    def test_vdop_predicts_efficient_estimator_z_scaling(self):
        # Monte Carlo link between the covariance analysis and estimator
        # errors: the nonlinear range-residual estimator's z-error std
        # over sigma_r approaches vdop
        ratio, target = self._z_error_std(refine=True)
        report = dop.dop_at(ORIGINAL_LAYOUT, target)
        assert ratio == pytest.approx(report.vdop, rel=0.2)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the one-shot squared-range-difference solver reweights range "
            "noise (measured z inflation ~2.5x at this geometry), so its "
            "error std does not approach vdop, which describes the "
            "efficient estimator"
        ),
    )
    def test_vdop_predicts_linearized_solver_z_scaling(self):
        ratio, target = self._z_error_std(refine=False, n_trials=2000)
        report = dop.dop_at(ORIGINAL_LAYOUT, target)
        assert ratio == pytest.approx(report.vdop, rel=0.2)


def hvg(positions, points):
    hdop, vdop, _ = dop.dop_components(positions, points)
    return hdop, vdop, np.sqrt(hdop**2 + vdop**2)


class TestInvarianceProperty:
    """HDOP and VDOP depend on the beacons only through their geometry seen
    from each point with z kept vertical: relabelling, translating and
    turning the scene about z leave them alone. GDOP is the root of the
    DOP matrix's trace, which any rotation leaves alone."""

    POINTS = dop.DroneDomain().points()[::37]

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        layout=st.sampled_from([ORIGINAL_LAYOUT, OPTIMIZED_LAYOUT]),
        perm=st.permutations(range(4)),
        yaw=st.floats(-np.pi, np.pi),
        shift=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
    )
    def test_hdop_vdop_invariant_under_relabelling_translation_and_yaw(
        self, layout, perm, yaw, shift
    ):
        rot = Rotation.from_euler("z", yaw).as_matrix()
        beacons = layout.positions[list(perm)] @ rot.T + shift
        points = self.POINTS @ rot.T + shift
        hdop, vdop, _ = hvg(layout.positions, self.POINTS)
        moved_hdop, moved_vdop, _ = hvg(beacons, points)
        np.testing.assert_allclose(moved_hdop, hdop, rtol=1e-9)
        np.testing.assert_allclose(moved_vdop, vdop, rtol=1e-9)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        layout=st.sampled_from([ORIGINAL_LAYOUT, OPTIMIZED_LAYOUT]),
        angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
    )
    def test_gdop_invariant_under_any_rotation(self, layout, angles):
        rot = Rotation.from_euler("zyx", angles).as_matrix()
        _, _, gdop = hvg(layout.positions, self.POINTS)
        _, _, moved_gdop = hvg(layout.positions @ rot.T, self.POINTS @ rot.T)
        np.testing.assert_allclose(moved_gdop, gdop, rtol=1e-9)


class TestCrb2d:
    def test_three_even_angles_closed_form(self):
        angles = np.deg2rad([0.0, 120.0, 240.0])
        # hand evaluation: three pairs each |sin(120 deg)| = sqrt(3)/2
        expected = math.sqrt(3.0 / (3.0 * math.sqrt(3.0) / 2.0))
        assert dop.crb_2d(angles, 1.0) == pytest.approx(expected, abs=1e-12)
        assert dop.crb_2d(angles, 1.0) == pytest.approx(1.0746, abs=1e-4)

    def test_linear_in_sigma(self):
        angles = np.deg2rad([0.0, 120.0, 240.0])
        assert dop.crb_2d(angles, 2.0) == pytest.approx(2.0 * dop.crb_2d(angles, 1.0))

    def test_four_cardinal_angles(self):
        # pairs: four at 90 deg (sin 1), two at 180 deg (sin 0) -> sum 4
        angles = np.deg2rad([0.0, 90.0, 180.0, 270.0])
        assert dop.crb_2d(angles, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_angles(self):
        with pytest.raises(DegenerateGeometryError):
            dop.crb_2d(np.array([0.3, 0.3, 0.3]), 1.0)

    def test_too_few_angles(self):
        with pytest.raises(ValueError):
            dop.crb_2d(np.array([0.0, 1.0]), 1.0)
