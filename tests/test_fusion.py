import numpy as np
import pytest

from ultraloc import fusion


class TestCeilingEcho:
    def test_round_trip_arithmetic(self):
        m = fusion.simulate_ceiling_echo(3.657, 4.0, c=343.0, noise_std=0.0)
        assert m.round_trip_time == pytest.approx(2.0 * 0.343 / 343.0, rel=1e-12)
        assert m.round_trip_time == pytest.approx(2e-3, rel=1e-12)
        assert m.derived_height == pytest.approx(3.657, abs=1e-12)

    def test_near_ceiling_limit(self):
        eps = 1e-9
        m = fusion.simulate_ceiling_echo(4.0 - eps, 4.0, noise_std=0.0)
        assert m.round_trip_time == pytest.approx(0.0, abs=1e-11)
        assert m.derived_height == pytest.approx(4.0, abs=1e-8)

    def test_noise_propagates_to_height_std(self):
        # height std is c * noise_std / 2, about 1.7 mm for 10 us jitter
        rng = np.random.default_rng(12)
        heights = [
            fusion.simulate_ceiling_echo(2.0, 4.0, noise_std=10e-6, rng=rng).derived_height
            for _ in range(1000)
        ]
        expected = 343.0 * 10e-6 / 2.0
        assert np.std(heights) == pytest.approx(expected, rel=0.15)

    def test_deterministic_given_rng(self):
        a = fusion.simulate_ceiling_echo(1.5, 4.0, rng=np.random.default_rng(5))
        b = fusion.simulate_ceiling_echo(1.5, 4.0, rng=np.random.default_rng(5))
        assert a == b

    def test_obstruction_shortens_echo(self):
        rng = np.random.default_rng(3)
        m = fusion.simulate_ceiling_echo(
            1.0, 4.0, noise_std=0.0, rng=rng, obstruction_prob=1.0
        )
        assert m.derived_height >= 1.0

    def test_rejects_height_outside_room(self):
        with pytest.raises(ValueError):
            fusion.simulate_ceiling_echo(4.5, 4.0)
        with pytest.raises(ValueError):
            fusion.simulate_ceiling_echo(0.0, 4.0)


class TestFuseHeight:
    def test_weighted_mean(self):
        assert fusion.fuse_height(1.0, 1.1, 0.2) == pytest.approx(1.08, abs=1e-12)

    def test_w1_identity(self):
        assert fusion.fuse_height(1.23, 9.9, 1.0) == 1.23

    def test_w2_identity(self):
        # w1 = 0 puts the whole weight, 1 - w1, on the rangefinder height
        assert fusion.fuse_height(1.23, 9.9, 0.0) == 9.9

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z, h = rng.uniform(0, 4, size=2)
            w1 = rng.uniform(0, 1)
            fused = fusion.fuse_height(z, h, w1)
            assert min(z, h) - 1e-12 <= fused <= max(z, h) + 1e-12

    def test_default_weight_blend_is_exact(self):
        # the default rangefinder weight 1 - w1 is exactly 0.8, so the
        # default blend is 0.2 z + 0.8 h to the last bit
        assert 1.0 - fusion.DEFAULT_W1 == 0.8
        z, h = 1.2345678901234, 1.3456789012345
        assert fusion.fuse_height(z, h, fusion.DEFAULT_W1) == 0.2 * z + 0.8 * h

    def test_weights_must_be_probabilities(self):
        for w1 in (-0.2, 1.2):
            with pytest.raises(ValueError, match=r"w1 must lie in \[0, 1\]"):
                fusion.fuse_height(1.0, 2.0, w1)


class TestInverseVarianceWeights:
    def test_values(self):
        w1 = fusion.inverse_variance_weights(1.0, 3.0)
        assert w1 == pytest.approx(0.75)
        assert 1.0 - w1 == pytest.approx(0.25)

    def test_fused_variance_below_both_inputs(self):
        # with weights proportional to 1/variance, the fused estimate
        # beats either input over many trials
        rng = np.random.default_rng(9)
        v1, v2 = 4e-6, 1e-6
        w1 = fusion.inverse_variance_weights(v1, v2)
        n = 10_000
        z = rng.normal(0.0, np.sqrt(v1), n)
        h = rng.normal(0.0, np.sqrt(v2), n)
        fused = fusion.fuse_height(z, h, w1)
        assert np.var(fused) <= min(v1, v2)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            fusion.inverse_variance_weights(0.0, 1.0)
