import re

import numpy as np
import pytest

from ultraloc import channel as ch
from ultraloc import waveform as wf

from conftest import make_burst_config, single_channel_plan

FS = wf.SAMPLE_RATE
C = ch.SPEED_OF_SOUND
NOISELESS = ch.ChannelConfig(snr_db=None)
DEFAULT = ch.ChannelConfig()


def make_scene(receiver=(2.5, 2.5, 1.5), layout=None):
    return ch.Scene(
        room_dims=ch.ROOM_DIMS,
        beacons=layout or ch.ORIGINAL_LAYOUT,
        receiver_position=np.asarray(receiver, dtype=float),
    )


def beacon0_only(sig):
    """Four-row transmit signal: sig on beacon 0, the other beacons silent."""
    samples = np.zeros((4, len(sig)))
    samples[0] = sig.samples
    return wf.SampledSignal(samples=samples, sample_rate=sig.sample_rate)


def tone_burst(n_bits=1, seed=0):
    config, hops = single_channel_plan(n_bits)
    bits = np.ones(n_bits, dtype=np.int64)
    return wf.generate_tx_signals(config, hops, wf.walsh_rows(4, 4)[0], bits)


class TestSceneAndLayout:
    def test_layout_requires_four_beacons(self):
        with pytest.raises(ValueError):
            ch.BeaconLayout(positions=np.zeros((3, 3)))

    def test_layout_freezes_its_own_copy(self):
        pos = np.array(ch.ORIGINAL_LAYOUT.positions)
        layout = ch.BeaconLayout(positions=pos)
        assert pos.flags.writeable
        assert not layout.positions.flags.writeable
        pos[0, 0] = 0.1
        assert layout.positions[0, 0] == 2.5

    def test_layout_compares_by_identity(self):
        layout = ch.BeaconLayout(positions=ch.ORIGINAL_LAYOUT.positions)
        assert layout == layout
        assert layout != ch.ORIGINAL_LAYOUT
        assert hash(ch.ORIGINAL_LAYOUT) == hash(ch.ORIGINAL_LAYOUT)
        assert {ch.ORIGINAL_LAYOUT: 1}[ch.ORIGINAL_LAYOUT] == 1

    def test_layout_rejects_coincident_beacons(self):
        pos = np.array([[1, 1, 1], [1, 1, 1], [2, 2, 2], [3, 3, 3]], dtype=float)
        with pytest.raises(ValueError):
            ch.BeaconLayout(positions=pos)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 3), (2, 3)])
    def test_coincidence_error_names_the_pair(self, pair):
        pos = np.array([[1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4, 4]], dtype=float)
        pos[pair[1]] = pos[pair[0]] + 1e-12
        with pytest.raises(ValueError, match=f"beacons {pair[0]} and {pair[1]} coincide"):
            ch.BeaconLayout(positions=pos)

    def test_coincident_pairs_equal_np_isclose(self):
        # near-tolerance gaps on either side of atol + rtol * |y|, equal,
        # signed-zero, infinite and NaN coordinates, in every pair slot
        base = np.array([0.0, -0.0, 1e-9, 2.0, -3.5, 1e5, np.inf, -np.inf, np.nan])
        tol = 1e-8 + 1e-5 * np.abs(base[3:6])
        near = np.concatenate([base[3:6] + tol * k for k in (0.999999, 1.0, 1.000001)])
        values = np.concatenate([base, near, near - 2 * tol.repeat(3) / 3, [1e-8, -1e-8, 2e-8]])
        rng = np.random.default_rng(5)
        layouts = rng.choice(values, size=(4000, 4, 3))
        # half the layouts repeat a beacon's coordinates into another's, some exactly
        src, dst = rng.integers(0, 4, size=(2, 2000))
        layouts[np.arange(2000), dst] = layouts[np.arange(2000), src]
        i, j = ch.BEACON_PAIRS
        want = np.isclose(layouts[..., i, :], layouts[..., j, :]).all(axis=-1)
        got = ch.coincident_pairs(layouts)
        np.testing.assert_array_equal(got, want)
        assert want.any() and not want.all()

    def test_coincidence_error_names_first_pair_in_loop_order(self):
        # (0, 3) and (1, 2) both coincide; i-major order reports (0, 3)
        pos = np.array([[1, 1, 1], [2, 2, 2], [2, 2, 2], [1, 1, 1]], dtype=float)
        with pytest.raises(ValueError, match="beacons 0 and 3 coincide"):
            ch.BeaconLayout(positions=pos)

    @pytest.mark.parametrize(
        "positions,spans",
        [
            (ch.ORIGINAL_LAYOUT.positions, True),
            (ch.OPTIMIZED_LAYOUT.positions, True),
            ([[0.5, 0.5, 4], [4.5, 0.5, 4], [4.5, 4.5, 4], [0.5, 4.5, 4]], False),
            ([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], False),
        ],
        ids=["original", "optimized", "ceiling", "collinear"],
    )
    def test_spans_3d_computed_once(self, positions, spans):
        layout = ch.BeaconLayout(positions=np.array(positions, dtype=float))
        assert layout.spans_3d is spans
        assert layout.__dict__["spans_3d"] is spans

    def test_scene_rejects_receiver_outside(self):
        with pytest.raises(ValueError):
            make_scene(receiver=(6.0, 2.5, 1.5))

    def test_scene_rejects_receiver_on_wall(self):
        with pytest.raises(ValueError):
            make_scene(receiver=(0.0, 2.5, 1.5))

    def test_scene_accepts_wall_mounted_beacons(self):
        # the built-in layouts sit on walls/ceiling by design
        make_scene(layout=ch.ORIGINAL_LAYOUT)
        make_scene(layout=ch.OPTIMIZED_LAYOUT)

    def test_scene_rejects_beacon_outside_room(self):
        bad = ch.BeaconLayout(
            positions=np.array([[2.5, 0, 1.5], [5, 2.5, 2.5], [2.5, 5, 2], [0, 5, 4.5]])
        )
        with pytest.raises(ValueError):
            make_scene(layout=bad)

    def test_scene_error_names_first_beacon_outside(self):
        bad = ch.BeaconLayout(
            positions=np.array([[2.5, 0, 1.5], [5, 2.5, 4.5], [2.5, 5, 2], [-0.5, 5, 3]])
        )
        with pytest.raises(ValueError, match="beacon 1 at"):
            make_scene(layout=bad)

    @pytest.mark.parametrize("receiver", [(2.5, 5.0, 1.5), (2.5, 2.5, 4.0), (np.nan, 2.5, 1.5)])
    def test_scene_rejects_receiver_on_far_wall_or_nan(self, receiver):
        with pytest.raises(ValueError, match="not strictly inside"):
            make_scene(receiver=receiver)


class TestDirectDelay:
    def test_axis_aligned_distance(self):
        layout = ch.BeaconLayout(
            positions=np.array([[1.0, 1.0, 0.0], [5, 2.5, 2.5], [2.5, 5, 2], [0, 5, 3]])
        )
        scene = make_scene(receiver=(1.0, 1.0, 3.43), layout=layout)
        assert ch.direct_delays(scene, c=343.0)[0] == pytest.approx(0.01, abs=1e-15)

    def test_near_coincident_limit(self):
        eps = 1e-6
        layout = ch.BeaconLayout(
            positions=np.array([[1.0, 1.0, 1.0], [5, 2.5, 2.5], [2.5, 5, 2], [0, 5, 3]])
        )
        scene = make_scene(receiver=(1.0, 1.0, 1.0 + eps), layout=layout)
        assert ch.direct_delays(scene, c=343.0)[0] == pytest.approx(eps / 343.0)

    def test_reference_geometry_by_hand(self):
        # beacon (2.5, 0, 1.5) to receiver (2.5, 2.5, 1.5) is 2.5 m
        scene = make_scene(receiver=(2.5, 2.5, 1.5))
        assert ch.direct_delays(scene, c=343.0)[0] == pytest.approx(2.5 / 343.0)
        assert ch.direct_delays(scene, c=343.0)[0] == pytest.approx(7.289e-3, abs=1e-6)

    def test_equals_scalar_norm_bit_for_bit(self):
        # the per-beacon scalar norm fixed every pinned output; the (4,)
        # array must give the same last bits at every receiver position
        rng = np.random.default_rng(21)
        for layout in (ch.ORIGINAL_LAYOUT, ch.OPTIMIZED_LAYOUT):
            for rx in rng.uniform([0.01, 0.01, 0.01], [4.99, 4.99, 3.99], size=(500, 3)):
                scene = make_scene(receiver=rx, layout=layout)
                scalar = [np.linalg.norm(b - rx) / C for b in layout.positions]
                assert ch.direct_delays(scene, C).tolist() == scalar


class TestApplyChannel:
    def _delay_scene(self, delay_samples):
        """Scene whose beacon-0 direct delay rounds to delay_samples."""
        d = delay_samples * C / FS
        b0 = np.array([0.5, 0.5, 0.5])
        layout = ch.BeaconLayout(
            positions=np.vstack([b0, [[5, 2.5, 2.5], [2.5, 5, 2], [0, 5, 3]]])
        )
        return make_scene(receiver=b0 + np.array([d, 0.0, 0.0]), layout=layout)

    def test_pure_delay_shifts_and_zero_pads(self):
        sig = tone_burst()
        scene = self._delay_scene(500)
        model = ch.ChannelModel(NOISELESS)
        out = ch.apply_channel(beacon0_only(sig), scene, model)
        assert np.array_equal(out.samples[:500], np.zeros(500))
        np.testing.assert_allclose(out.samples[500 : 500 + len(sig)], sig.samples, atol=1e-12)

    def test_snr_calibration(self):
        rng = np.random.default_rng(0)
        long_sig = wf.SampledSignal(samples=rng.normal(0, 1, 200_000), sample_rate=FS)
        scene = self._delay_scene(100)
        clean = ch.apply_channel(beacon0_only(long_sig), scene, ch.ChannelModel(NOISELESS))
        model = ch.ChannelModel(ch.ChannelConfig(snr_db=10.0), rng_seed=5)
        noisy = ch.apply_channel(beacon0_only(long_sig), scene, model)
        noise = noisy.samples - clean.samples
        signal_power = np.mean(clean.samples**2)
        assert np.mean(noise**2) == pytest.approx(signal_power / 10.0, rel=0.05)

    def test_tap_lands_after_direct_symbol(self):
        # one 2 ms symbol, tap 3 ms beyond the direct path: the direct
        # copy is untouched and the echo starts after it ends
        sig = tone_burst(n_bits=1)
        scene = self._delay_scene(400)
        tau0 = ch.direct_delays(scene)[0]
        # every beacon has one tap 3 ms late; only beacon 0's is audible
        gains = np.array([[0.5], [0.0], [0.0], [0.0]])
        model = ch.ChannelModel(NOISELESS, excess_delays=np.full((4, 1), 0.003), tap_gains=gains)
        out = ch.apply_channel(beacon0_only(sig), scene, model)
        n0 = int(round(tau0 * FS))
        n_tap = int(round((tau0 + 0.003) * FS))
        assert n_tap >= n0 + len(sig)
        np.testing.assert_allclose(out.samples[n0 : n0 + len(sig)], sig.samples, atol=1e-12)
        np.testing.assert_allclose(
            out.samples[n_tap : n_tap + len(sig)], 0.5 * sig.samples, atol=1e-12
        )

    def test_linearity_without_noise(self):
        rng = np.random.default_rng(3)
        a = wf.SampledSignal(samples=rng.normal(0, 1, 2000), sample_rate=FS)
        b = wf.SampledSignal(samples=rng.normal(0, 1, 2000), sample_rate=FS)
        ab = wf.SampledSignal(samples=a.samples + b.samples, sample_rate=FS)
        scene = make_scene()
        delays, gains = ch.sample_multipath(np.random.default_rng(1), DEFAULT)
        model = ch.ChannelModel(NOISELESS, excess_delays=delays, tap_gains=gains)
        out_a = ch.apply_channel(beacon0_only(a), scene, model)
        out_b = ch.apply_channel(beacon0_only(b), scene, model)
        out_ab = ch.apply_channel(beacon0_only(ab), scene, model)
        np.testing.assert_allclose(
            out_ab.samples, out_a.samples + out_b.samples, atol=1e-9
        )

    def test_determinism_same_seed(self):
        sig = tone_burst(4)
        scene = make_scene()
        delays, gains = ch.sample_multipath(np.random.default_rng(8), DEFAULT)
        config = ch.ChannelConfig(snr_db=5.0)
        model = ch.ChannelModel(config, excess_delays=delays, tap_gains=gains, rng_seed=123)
        sigs = beacon0_only(sig)
        out1 = ch.apply_channel(sigs, scene, model)
        out2 = ch.apply_channel(sigs, scene, model)
        assert np.array_equal(out1.samples, out2.samples)

    def test_energy_conserved_without_taps_or_noise(self):
        hops = wf.random_hop_plan(8, seed=11)
        sigs = wf.generate_tx_signals(
            make_burst_config(), hops, wf.walsh_rows(4, 4), np.ones((4, 8), dtype=np.int64)
        )
        scene = make_scene(receiver=(1.7, 3.1, 1.2))
        out = ch.apply_channel(sigs, scene, ch.ChannelModel(NOISELESS))
        # distinct delays prevent cross terms from cancelling exactly, so
        # compare total output energy against the energy of each shifted
        # copy summed coherently
        direct = np.zeros(len(out))
        for i, s in enumerate(sigs.samples):
            n0 = int(round(ch.direct_delays(scene)[i] * FS))
            direct[n0 : n0 + s.size] += s
        np.testing.assert_allclose(out.samples, direct, atol=1e-12)

    def test_rejects_wrong_signal_count(self):
        three = wf.SampledSignal(samples=np.zeros((3, 680)), sample_rate=FS)
        with pytest.raises(ValueError):
            ch.apply_channel(three, make_scene(), ch.ChannelModel())

    def test_rejects_one_dimensional_signal(self):
        with pytest.raises(ValueError, match=r"\(4, n\), got \(680,\)"):
            ch.apply_channel(tone_burst(), make_scene(), ch.ChannelModel())

    def test_half_sample_lags_round_half_to_even(self):
        # beacon 0's taps arrive 100.5 and 101.5 samples in; like round(),
        # the channel puts them on the even samples 100 and 102
        scene = self._delay_scene(50)
        tau0 = ch.direct_delays(scene)
        halves = [k + 0.5 for k in (100, 101)]
        excess = np.tile([0.001, 0.002], (4, 1))
        excess[0] = [h / FS - tau0[0] for h in halves]
        # the sum apply_channel forms lands exactly on each half sample
        assert ((tau0[0] + excess[0]) * FS).tolist() == halves
        impulse = np.zeros((4, 1))
        impulse[0, 0] = 1.0
        model = ch.ChannelModel(excess_delays=excess, tap_gains=np.full((4, 2), 0.5))
        out = ch.apply_channel(wf.SampledSignal(samples=impulse, sample_rate=FS), scene, model)
        assert [out.samples[n] for n in (50, 100, 101, 102)] == [1.0, 0.5, 0.0, 0.5]


class TestSampleMultipath:
    def test_tap_properties(self):
        excess, gains = ch.sample_multipath(np.random.default_rng(2), DEFAULT)
        assert excess.shape == gains.shape == (4, ch.N_TAPS)
        assert np.all(excess >= ch.EXCESS_DELAY_RANGE[0])
        assert np.all(excess <= ch.EXCESS_DELAY_RANGE[1])
        assert np.all(np.abs(gains) < 1.0)

    def test_deterministic_given_rng(self):
        t1 = ch.sample_multipath(np.random.default_rng(7), DEFAULT)
        t2 = ch.sample_multipath(np.random.default_rng(7), DEFAULT)
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_mean_tap_power_below_direct(self):
        gains = []
        for seed in range(200):
            _, tap_gains = ch.sample_multipath(np.random.default_rng(seed), DEFAULT)
            gains.extend(tap_gains.ravel())
        mean_power = np.mean(np.square(gains))
        assert mean_power < 10.0 ** (ch.FIRST_TAP_DB / 10.0)


    @pytest.mark.parametrize("n_taps", [13, 20, 31])
    def test_dense_taps_stay_spaced_and_in_range(self, n_taps):
        # 31 taps is the most that MIN_TAP_SPACING fits into the default
        # range; rejection alone gives up from about 13 taps on. Shifted
        # sums carry rounding of a few ulps, hence the 1e-12 s slack.
        lo, hi = ch.EXCESS_DELAY_RANGE
        for seed in range(3):
            config = ch.ChannelConfig(taps_per_beacon=n_taps)
            delays, _ = ch.sample_multipath(np.random.default_rng(seed), config)
            for excess in delays:
                assert excess.size == n_taps
                assert np.all(excess >= lo - 1e-12) and np.all(excess <= hi + 1e-12)
                assert np.all(np.diff(excess) >= ch.MIN_TAP_SPACING - 1e-12)


class TestChannelConfig:
    """The noiseless default a bare ChannelModel carries, and the
    excess-delay range rule, checked where the section is built."""

    def test_default_model_is_noiseless_without_taps(self):
        model = ch.ChannelModel()
        assert model.config == NOISELESS
        assert model.excess_delays.shape == model.tap_gains.shape == (4, 0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.01), (-0.001, 0.01), (0.02, 0.012), (0.01, 0.01)])
    def test_rejects_an_empty_or_nonpositive_delay_range(self, lo, hi):
        with pytest.raises(ValueError, match="excess delay range must satisfy 0 < min < max"):
            ch.ChannelConfig(excess_delay_min=lo, excess_delay_max=hi)


class TestModelValidation:
    """A model's taps are checked by ChannelModel; the SNR, first-tap level,
    tap count and speed of sound by the ChannelConfig it carries."""

    def test_tap_rejects_gain_at_one(self):
        gains = np.full((4, 2), 0.5)
        gains[2, 1] = -1.0
        with pytest.raises(ValueError, match="gain"):
            ch.ChannelModel(excess_delays=np.full((4, 2), 0.005), tap_gains=gains)

    def test_tap_rejects_nonpositive_delay(self):
        delays = np.full((4, 2), 0.005)
        delays[1, 0] = 0.0
        with pytest.raises(ValueError, match="delay"):
            ch.ChannelModel(excess_delays=delays, tap_gains=np.full((4, 2), 0.5))

    def test_tap_rejects_nan(self):
        nan = np.full((4, 1), np.nan)
        with pytest.raises(ValueError, match="delay"):
            ch.ChannelModel(excess_delays=nan, tap_gains=np.zeros((4, 1)))
        with pytest.raises(ValueError, match="gain"):
            ch.ChannelModel(excess_delays=np.ones((4, 1)), tap_gains=nan)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3100.0, 1000.5, -np.inf, np.nan])
    def test_model_rejects_snr_outside_the_bound(self, snr_db):
        with pytest.raises(ValueError, match=r"snr_db must lie in \[-1000, 1000\] dB"):
            ch.ChannelConfig(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-ch.MAX_DB, ch.MAX_DB])
    def test_snr_at_the_bound_gives_finite_noise(self, snr_db):
        # 10**(snr_db / 10) neither overflows nor underflows at the bound
        tx = beacon0_only(tone_burst(n_bits=2))
        model = ch.ChannelModel(ch.ChannelConfig(snr_db=snr_db), rng_seed=3)
        out = ch.apply_channel(tx, make_scene(), model)
        assert np.isfinite(out.samples).all() and out.samples.any()

    def test_model_takes_none_and_inf_as_noiseless(self):
        tx = beacon0_only(tone_burst())
        assert ch.ChannelConfig(snr_db=np.inf) == NOISELESS
        quiet = ch.apply_channel(tx, make_scene(), ch.ChannelModel(NOISELESS))
        inf = ch.apply_channel(tx, make_scene(), ch.ChannelModel(ch.ChannelConfig(snr_db=np.inf)))
        assert np.array_equal(quiet.samples, inf.samples)

    @pytest.mark.parametrize("first_tap_db", [4000.0, -1000.5, np.nan])
    def test_multipath_rejects_first_tap_level_outside_the_bound(self, first_tap_db):
        with pytest.raises(ValueError, match=r"first_tap_db must lie in \[-1000, 1000\] dB"):
            ch.ChannelConfig(first_tap_db=first_tap_db)

    def test_multipath_rejects_taps_that_do_not_fit(self):
        with pytest.raises(
            ValueError,
            match=r"40 taps spaced 0\.0003 s apart do not fit the excess delay range \[0\.003, 0\.012\] s",
        ):
            ch.ChannelConfig(taps_per_beacon=40)

    def test_model_rejects_bad_speed(self):
        with pytest.raises(ValueError, match="speed of sound must be positive"):
            ch.ChannelConfig(speed_of_sound=-1.0)

    @pytest.mark.parametrize("speed", [ch.MAX_SPEED_OF_SOUND * (1 + 1e-15), 1e300, float("nan")])
    def test_model_rejects_speed_above_any_gas(self, speed):
        message = f"speed of sound must be positive and at most 2000 m/s, got {speed:g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ch.ChannelConfig(speed_of_sound=speed)
        assert ch.ChannelConfig(speed_of_sound=ch.MAX_SPEED_OF_SOUND).speed_of_sound == 2000.0

    def test_model_rejects_wrong_beacon_count(self):
        with pytest.raises(ValueError):
            ch.ChannelModel(excess_delays=np.zeros((2, 0)), tap_gains=np.zeros((2, 0)))

    @pytest.mark.parametrize(
        "delays,gains",
        [((4, 2), (4, 3)), ((4,), (4,)), ((4, 1, 1), (4, 1, 1))],
        ids=["mismatch", "1-D", "3-D"],
    )
    def test_model_rejects_bad_tap_shapes(self, delays, gains):
        with pytest.raises(ValueError, match=r"\(4, n_taps\)"):
            ch.ChannelModel(excess_delays=np.full(delays, 0.005), tap_gains=np.full(gains, 0.1))

    def test_model_compares_by_identity(self):
        model = ch.ChannelModel()
        assert model == model
        assert model != ch.ChannelModel()
        assert hash(model) == hash(model)

    def test_model_freezes_its_own_copies(self):
        delays, gains = np.full((4, 1), 0.005), np.full((4, 1), 0.1)
        model = ch.ChannelModel(excess_delays=delays, tap_gains=gains)
        assert delays.flags.writeable and gains.flags.writeable
        assert not model.excess_delays.flags.writeable
        assert not model.tap_gains.flags.writeable
        delays[0, 0] = 0.009
        assert model.excess_delays[0, 0] == 0.005


def old_spaced_uniform(rng, lo, hi, n, min_spacing):
    """_spaced_uniform as it was: numpy sort and gap test on every try."""
    for _ in range(1000):
        draws = np.sort(rng.uniform(lo, hi, size=n))
        if n < 2 or np.min(np.diff(draws)) >= min_spacing:
            return draws
    span = min_spacing * (n - 1)
    return np.sort(rng.uniform(lo, hi - span, size=n)) + min_spacing * np.arange(n)


def old_sample_multipath(scene, rng, n_taps=ch.N_TAPS, excess_delay_range=ch.EXCESS_DELAY_RANGE):
    """sample_multipath's draws with rng.choice for the tap signs and the
    magnitudes scaled inside rng.rayleigh, one beacon at a time, as
    absolute tap delays tau0[i] + excess."""
    lo, hi = excess_delay_range
    p0 = 10.0 ** (ch.FIRST_TAP_DB / 10.0)
    tau0 = ch.direct_delays(scene)
    delays, gains = np.empty((4, n_taps)), np.empty((4, n_taps))
    for i in range(4):
        excess = old_spaced_uniform(rng, lo, hi, n_taps, ch.MIN_TAP_SPACING)
        mean_power = p0 * np.exp(-(excess - lo) / ch.TAP_DECAY_TIME)
        mags = np.minimum(rng.rayleigh(scale=np.sqrt(mean_power / 2.0)), ch.MAX_TAP_GAIN)
        signs = rng.choice((-1.0, 1.0), size=n_taps)
        delays[i] = tau0[i] + excess
        gains[i] = signs * mags
    return delays, gains


def old_apply_channel(tx, scene, model):
    """apply_channel with a temporary per copy and rng.normal for the noise,
    without distance attenuation (the harness divided the rows before)."""
    fs = tx.sample_rate
    tau0 = ch.direct_delays(scene, model.config.speed_of_sound)
    delays = np.column_stack([tau0, tau0[:, None] + model.excess_delays])
    gains = np.column_stack([np.ones(4), model.tap_gains])
    lags = np.rint(delays * fs).astype(np.int64)
    clean = np.zeros(int(lags.max()) + len(tx))
    for row, row_lags, row_gains in zip(tx.samples, lags.tolist(), gains.tolist()):
        for n, g in zip(row_lags, row_gains):
            clean[n : n + row.size] += g * row
    if model.config.snr_db is None:
        return clean
    noise_power = float(np.mean(clean**2)) / 10.0 ** (model.config.snr_db / 10.0)
    rng = np.random.default_rng(model.rng_seed)
    return clean + rng.normal(0.0, np.sqrt(noise_power), size=clean.size)


class TestChannelBitIdentity:
    """The reused term buffers, in-place noise, indexed tap signs and
    batched tap magnitudes give the bits of the expressions they replaced."""

    @pytest.mark.parametrize("n_taps", [0, 1, 5, 12, 13])
    def test_tap_signs_match_rng_choice(self, n_taps):
        # indexed signs, the (4, n_taps) magnitude math after all draws and
        # the gap test on Python floats keep the stream, delays and gains;
        # 12 and 13 taps take hundreds of rejections a beacon (13 mostly end
        # in the fallback), so they run fewer seeds
        scene = make_scene(receiver=(1.2, 3.3, 0.9))
        tau0 = ch.direct_delays(scene)[:, None]
        config = ch.ChannelConfig(taps_per_beacon=n_taps)
        for seed in range(2000 if n_taps <= 5 else 100):
            rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            excess, gains = ch.sample_multipath(rng, config)
            old_delays, old_gains = old_sample_multipath(scene, old_rng, n_taps=n_taps)
            # the absolute delays apply_channel forms are the old ones, bit for bit
            assert (tau0 + excess).tobytes() == old_delays.tobytes()
            assert gains.tobytes() == old_gains.tobytes()
            assert rng.bit_generator.state == old_rng.bit_generator.state

    def test_fallback_draws_match_old_sample_multipath(self):
        # five taps 0.3 ms apart in a 1.21 ms range: a uniform try is spaced
        # with probability 5! (0.01 / 1.21)**5, about 5e-9, so every beacon
        # takes the shifted fallback after 1000 rejections
        scene = make_scene(receiver=(3.7, 0.8, 2.6))
        tight = (0.003, 0.003 + 4 * ch.MIN_TAP_SPACING + 1e-5)
        for seed in range(20):
            rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            config = ch.ChannelConfig(excess_delay_min=tight[0], excess_delay_max=tight[1])
            excess, gains = ch.sample_multipath(rng, config)
            old_delays, old_gains = old_sample_multipath(
                scene, old_rng, excess_delay_range=tight
            )
            assert (ch.direct_delays(scene)[:, None] + excess).tobytes() == old_delays.tobytes()
            assert gains.tobytes() == old_gains.tobytes()
            assert rng.bit_generator.state == old_rng.bit_generator.state
            assert np.all(np.diff(excess) >= ch.MIN_TAP_SPACING - 1e-12)

    @pytest.mark.parametrize("snr_db", [None, 30.0, 15.0, 0.0, -15.0])
    def test_channel_and_noise_match_old_expression(self, snr_db):
        walsh = wf.walsh_rows(4, 4)
        scene = make_scene(receiver=(3.1, 1.4, 1.1))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            hops = wf.random_hop_plan(8, seed=seed)
            bits = wf.random_data_bits((4, 8), rng)
            tx = wf.generate_tx_signals(make_burst_config(), hops, walsh, bits)
            config = ch.ChannelConfig(snr_db=snr_db)
            model = ch.ChannelModel(config, *ch.sample_multipath(rng, config), rng_seed=seed + 40)
            out = ch.apply_channel(tx, scene, model).samples
            assert out.tobytes() == old_apply_channel(tx, scene, model).tobytes()

    @pytest.mark.parametrize("snr_db", [None, 15.0])
    def test_distance_attenuation_matches_old_harness_expression(self, snr_db):
        # the harness divided the rows by max(path length, 1 m) before the
        # channel; receivers within 1 m of a beacon take the 1 m floor
        config = ch.ChannelConfig(snr_db=snr_db, distance_attenuation=True)
        walsh = wf.walsh_rows(4, 4)
        near = ch.ORIGINAL_LAYOUT.positions[0] + [0.1, 0.4, 0.2]  # 0.46 m from beacon 0
        for seed in range(6):
            rng = np.random.default_rng([seed, 5])
            rx = near if seed == 0 else rng.uniform([0.2, 0.2, 0.2], [4.8, 4.8, 3.8])
            scene = make_scene(receiver=rx)
            hops, bits = wf.random_hop_plan(8, seed), wf.random_data_bits((4, 8), rng)
            tx = wf.generate_tx_signals(make_burst_config(), hops, walsh, bits)
            model = ch.ChannelModel(config, *ch.sample_multipath(rng, config), rng_seed=seed + 7)
            divisors = np.maximum(ch.direct_delays(scene, C) * C, 1.0)
            assert (divisors[0] == 1.0) == (seed == 0)
            scaled = wf.SampledSignal(samples=tx.samples / divisors[:, None], sample_rate=FS)
            out = ch.apply_channel(tx, scene, model).samples
            assert out.tobytes() == old_apply_channel(scaled, scene, model).tobytes()

    def test_silent_input_noise_matches_old_expression(self):
        # zero signal power: a zero noise scale, where normal(0, 0) adds 0.0 + 0 * z
        tx = wf.SampledSignal(samples=np.zeros((4, 300)), sample_rate=FS)
        model = ch.ChannelModel(ch.ChannelConfig(snr_db=10.0), rng_seed=9)
        out = ch.apply_channel(tx, make_scene(), model).samples
        assert out.tobytes() == old_apply_channel(tx, make_scene(), model).tobytes()
