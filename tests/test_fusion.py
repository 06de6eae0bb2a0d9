import copy
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from ultraloc import fusion
from ultraloc.channel import OPTIMIZED_LAYOUT, ORIGINAL_LAYOUT, Scene
from ultraloc.config import default_config
from ultraloc.dop import dop_components


class TestCeilingEcho:
    def test_round_trip_arithmetic(self):
        # a 2 ms round trip at 343 m/s is a 0.343 m gap to the ceiling
        h = fusion.simulate_ceiling_echo(3.657, 4.0, c=343.0, noise_std=0.0)
        assert h == pytest.approx(3.657, abs=1e-12)

    def test_near_ceiling_limit(self):
        eps = 1e-9
        h = fusion.simulate_ceiling_echo(4.0 - eps, 4.0, noise_std=0.0)
        assert h == pytest.approx(4.0, abs=1e-8)

    def test_noise_propagates_to_height_std(self):
        # height std is c * noise_std / 2, about 1.7 mm for 10 us jitter
        rng = np.random.default_rng(12)
        heights = [
            fusion.simulate_ceiling_echo(2.0, 4.0, noise_std=10e-6, rng=rng)
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
        h = fusion.simulate_ceiling_echo(
            1.0, 4.0, noise_std=0.0, rng=rng, obstruction_prob=1.0
        )
        assert h >= 1.0

    def test_heavy_jitter_height_stays_in_the_room(self):
        # 1 s of timing jitter, about 170 m of gap, and every echo obstructed:
        # the clamp keeps every derived height within [0, H]
        rng = np.random.default_rng(7)
        heights = np.array([
            fusion.simulate_ceiling_echo(1.0, 4.0, noise_std=1.0, rng=rng, obstruction_prob=1.0)
            for _ in range(1000)
        ])
        assert ((0.0 <= heights) & (heights <= 4.0)).all()
        # both ends are reached, so both sides of the clamp ran
        assert (heights == 0.0).any() and (heights == 4.0).any()

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


class TestFusionConfig:
    def test_defaults_are_the_section_defaults(self):
        assert [f.name for f in fields(fusion.FusionConfig)] == [
            "enabled", "w1", "echo_noise_std", "auto_weights", "obstruction_prob"
        ]
        config = fusion.FusionConfig()
        assert (config.enabled, config.auto_weights) == (False, False)
        assert (config.w1, config.echo_noise_std) == (fusion.DEFAULT_W1, fusion.ECHO_NOISE_STD)
        assert config.obstruction_prob == 0.0

    @pytest.mark.parametrize("w1", [-0.2, 1.2, math.nan])
    def test_rejects_weight_outside_unit_interval(self, w1):
        with pytest.raises(ValueError, match=r"^weight w1 must lie in \[0, 1\]$"):
            fusion.FusionConfig(w1=w1)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_obstruction_prob_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="obstruction_prob must be a probability"):
            fusion.FusionConfig(obstruction_prob=p)

    @pytest.mark.parametrize("std", [-1e-5, math.nan])
    def test_rejects_negative_or_nan_echo_noise(self, std):
        with pytest.raises(ValueError, match="echo_noise_std must be non-negative"):
            fusion.FusionConfig(echo_noise_std=std)

    def test_auto_weights_need_echo_noise(self):
        with pytest.raises(ValueError, match="auto_weights needs a positive echo_noise_std"):
            fusion.FusionConfig(auto_weights=True, echo_noise_std=0.0)
        # a fixed weight blends a noiseless echo, and so do the unit weights
        assert fusion.FusionConfig(echo_noise_std=0.0).echo_noise_std == 0.0
        assert fusion.FusionConfig(w1=0.0).w1 == 0.0
        assert fusion.FusionConfig(w1=1.0, obstruction_prob=1.0).w1 == 1.0

    def test_range_stds_are_the_grid_and_echo_errors(self):
        # the sample grid's uniform rounding error, and half the echo's round-trip jitter
        grid_std, echo_std = fusion.FusionConfig(echo_noise_std=2e-5).range_stds(343.0, 340_000.0)
        assert grid_std == 343.0 / 340_000.0 / math.sqrt(12.0)
        assert echo_std == 343.0 * 2e-5 / 2.0


def parent_fusion_block(config, est, true_position, rng):
    """The fusion block run_fix held inline before FusionConfig.fused_z, kept
    word for word as the oracle of the moved step."""
    wf, ch = config.waveform, config.channel
    fu = config.fusion
    if fu.enabled:
        echo = fusion.simulate_ceiling_echo(
            true_height=float(true_position[2]),
            ceiling_height=config.scene.room_dims[2],
            c=ch.speed_of_sound,
            noise_std=fu.echo_noise_std,
            rng=rng,
            obstruction_prob=fu.obstruction_prob,
        )
        w1 = fu.w1
        if fu.auto_weights:
            quant_std = ch.speed_of_sound / wf.sample_rate / math.sqrt(12.0)
            _, vdop, _ = dop_components(config.scene.layout, est[None, :])
            var_tri = (float(vdop[0]) * quant_std) ** 2 if np.isfinite(vdop[0]) else 1.0
            var_echo = (ch.speed_of_sound * fu.echo_noise_std / 2.0) ** 2
            w1 = fusion.inverse_variance_weights(var_tri, var_echo)
        est[2] = fusion.fuse_height(est[2], echo, w1)


class TestFusedZ:
    @pytest.mark.parametrize("layout", [ORIGINAL_LAYOUT, OPTIMIZED_LAYOUT], ids=["original", "optimized"])
    @pytest.mark.parametrize("obstruction_prob", [0.0, 0.5])
    @pytest.mark.parametrize("auto_weights", [False, True], ids=["fixed_w1", "auto"])
    def test_matches_the_parent_harness_block(self, layout, obstruction_prob, auto_weights):
        cfg = default_config()
        cfg = replace(
            cfg,
            scene=replace(cfg.scene, layout=layout),
            fusion=replace(
                cfg.fusion, enabled=True, auto_weights=auto_weights, obstruction_prob=obstruction_prob
            ),
        )
        ch, wf = cfg.channel, cfg.waveform
        draw = np.random.default_rng(17)
        domain = cfg.drone_domain()
        lo = np.array([domain.x_range[0], domain.y_range[0], domain.z_range[0]])
        hi = np.array([domain.x_range[1], domain.y_range[1], domain.z_range[1]])
        for k in range(6):
            position = draw.uniform(lo, hi)
            est = position + draw.normal(0.0, 1e-3, 3)
            if k == 5:  # degenerate geometry at est: the trilateration variance is 1
                est = layout.positions[0].copy()
            scene = Scene(room_dims=cfg.scene.room_dims, beacons=layout, receiver_position=position)
            rng = np.random.default_rng([3, k])
            oracle_rng, want = copy.deepcopy(rng), est.copy()
            parent_fusion_block(cfg, want, position, oracle_rng)
            got = cfg.fusion.fused_z(est, scene, ch.speed_of_sound, wf.sample_rate, rng)
            assert np.float64(got).tobytes() == want[2].tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_disabled_is_the_trilateration_z_and_draws_nothing(self):
        cfg = default_config()
        est = np.array([2.0, 2.0, 1.234567])
        scene = Scene(room_dims=cfg.scene.room_dims, beacons=ORIGINAL_LAYOUT, receiver_position=est)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert cfg.fusion.fused_z(est, scene, 343.0, 340_000.0, rng) == est[2]
        assert rng.bit_generator.state == state
