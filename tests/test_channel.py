import numpy as np
import pytest

from ultraloc import channel as ch
from ultraloc import waveform as wf

from conftest import make_burst_config, single_channel_plan

FS = wf.SAMPLE_RATE
C = ch.SPEED_OF_SOUND


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
    walsh = wf.walsh_hadamard(4)
    bits = np.ones(n_bits, dtype=np.int64)
    return wf.generate_tx_signals(
        make_burst_config(bits), single_channel_plan(n_bits), walsh.row(0)
    )


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
        model = ch.ChannelModel(snr_db=None)
        out = ch.apply_channel(beacon0_only(sig), scene, model)
        assert np.array_equal(out.samples[:500], np.zeros(500))
        np.testing.assert_allclose(out.samples[500 : 500 + len(sig)], sig.samples, atol=1e-12)

    def test_snr_calibration(self):
        rng = np.random.default_rng(0)
        long_sig = wf.SampledSignal(samples=rng.normal(0, 1, 200_000), sample_rate=FS)
        scene = self._delay_scene(100)
        clean = ch.apply_channel(beacon0_only(long_sig), scene, ch.ChannelModel(snr_db=None))
        noisy = ch.apply_channel(
            beacon0_only(long_sig), scene, ch.ChannelModel(snr_db=10.0, rng_seed=5)
        )
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
        delays = ch.direct_delays(scene)[:, None] + 0.003
        gains = np.array([[0.5], [0.0], [0.0], [0.0]])
        model = ch.ChannelModel(tap_delays=delays, tap_gains=gains, snr_db=None)
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
        delays, gains = ch.sample_multipath(scene, np.random.default_rng(1))
        model = ch.ChannelModel(tap_delays=delays, tap_gains=gains, snr_db=None)
        out_a = ch.apply_channel(beacon0_only(a), scene, model)
        out_b = ch.apply_channel(beacon0_only(b), scene, model)
        out_ab = ch.apply_channel(beacon0_only(ab), scene, model)
        np.testing.assert_allclose(
            out_ab.samples, out_a.samples + out_b.samples, atol=1e-9
        )

    def test_determinism_same_seed(self):
        sig = tone_burst(4)
        scene = make_scene()
        delays, gains = ch.sample_multipath(scene, np.random.default_rng(8))
        model = ch.ChannelModel(tap_delays=delays, tap_gains=gains, snr_db=5.0, rng_seed=123)
        sigs = beacon0_only(sig)
        out1 = ch.apply_channel(sigs, scene, model)
        out2 = ch.apply_channel(sigs, scene, model)
        assert np.array_equal(out1.samples, out2.samples)

    def test_energy_conserved_without_taps_or_noise(self):
        walsh = wf.walsh_hadamard(4)
        plan = wf.random_hop_plan(8, seed=11)
        sigs = wf.generate_tx_signals(
            make_burst_config(np.ones((4, 8), dtype=np.int64)), plan, walsh.rows[:4]
        )
        scene = make_scene(receiver=(1.7, 3.1, 1.2))
        out = ch.apply_channel(sigs, scene, ch.ChannelModel(snr_db=None))
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

    def test_rejects_tap_before_direct_path(self):
        scene = make_scene()
        delays = ch.direct_delays(scene)[:, None] + 0.003
        delays[0, 0] = 1e-6
        model = ch.ChannelModel(tap_delays=delays, tap_gains=np.full((4, 1), 0.3), snr_db=None)
        with pytest.raises(ValueError):
            ch.apply_channel(beacon0_only(tone_burst()), scene, model)

    def test_early_tap_error_names_first_beacon(self):
        # beacons 2 and 3 each have a tap at their direct path; 2 is named
        scene = make_scene()
        delays = ch.direct_delays(scene)[:, None] + [0.003, 0.004]
        delays[3, 0] = ch.direct_delays(scene)[3]
        delays[2, 1] = ch.direct_delays(scene)[2]
        model = ch.ChannelModel(tap_delays=delays, tap_gains=np.full((4, 2), 0.3))
        with pytest.raises(ValueError, match="beacon 2 tap delay"):
            ch.apply_channel(beacon0_only(tone_burst()), scene, model)

    def test_half_sample_lags_round_half_to_even(self):
        # beacon 0's taps arrive 100.5 and 101.5 samples in; like round(),
        # the channel puts them on the even samples 100 and 102
        scene = self._delay_scene(50)
        halves = [k + 0.5 for k in (100, 101)]
        assert all(h / FS * FS == h for h in halves)
        delays = ch.direct_delays(scene)[:, None] + [0.001, 0.002]
        delays[0] = [h / FS for h in halves]
        impulse = np.zeros((4, 1))
        impulse[0, 0] = 1.0
        model = ch.ChannelModel(tap_delays=delays, tap_gains=np.full((4, 2), 0.5))
        out = ch.apply_channel(wf.SampledSignal(samples=impulse, sample_rate=FS), scene, model)
        assert [out.samples[n] for n in (50, 100, 101, 102)] == [1.0, 0.5, 0.0, 0.5]


class TestSampleMultipath:
    def test_tap_properties(self):
        scene = make_scene()
        delays, gains = ch.sample_multipath(scene, np.random.default_rng(2))
        assert delays.shape == gains.shape == (4, ch.N_TAPS)
        excess = delays - ch.direct_delays(scene)[:, None]
        assert np.all(excess >= ch.EXCESS_DELAY_RANGE[0])
        assert np.all(excess <= ch.EXCESS_DELAY_RANGE[1])
        assert np.all(np.abs(gains) < 1.0)

    def test_deterministic_given_rng(self):
        scene = make_scene()
        t1 = ch.sample_multipath(scene, np.random.default_rng(7))
        t2 = ch.sample_multipath(scene, np.random.default_rng(7))
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_mean_tap_power_below_direct(self):
        scene = make_scene()
        gains = []
        for seed in range(200):
            _, tap_gains = ch.sample_multipath(scene, np.random.default_rng(seed))
            gains.extend(tap_gains.ravel())
        mean_power = np.mean(np.square(gains))
        assert mean_power < 10.0 ** (ch.FIRST_TAP_DB / 10.0)


    @pytest.mark.parametrize("n_taps", [13, 20, 31])
    def test_dense_taps_stay_spaced_and_in_range(self, n_taps):
        # 31 taps is the most that MIN_TAP_SPACING fits into the default
        # range; rejection alone gives up from about 13 taps on. Shifted
        # sums carry rounding of a few ulps, hence the 1e-12 s slack.
        lo, hi = ch.EXCESS_DELAY_RANGE
        scene = make_scene()
        for seed in range(3):
            delays, _ = ch.sample_multipath(scene, np.random.default_rng(seed), n_taps=n_taps)
            for excess in delays - ch.direct_delays(scene)[:, None]:
                assert excess.size == n_taps
                assert np.all(excess >= lo - 1e-12) and np.all(excess <= hi + 1e-12)
                assert np.all(np.diff(excess) >= ch.MIN_TAP_SPACING - 1e-12)


class TestModelValidation:
    def test_tap_rejects_gain_at_one(self):
        gains = np.full((4, 2), 0.5)
        gains[2, 1] = -1.0
        with pytest.raises(ValueError, match="gain"):
            ch.ChannelModel(tap_delays=np.full((4, 2), 0.005), tap_gains=gains)

    def test_tap_rejects_nonpositive_delay(self):
        delays = np.full((4, 2), 0.005)
        delays[1, 0] = 0.0
        with pytest.raises(ValueError, match="delay"):
            ch.ChannelModel(tap_delays=delays, tap_gains=np.full((4, 2), 0.5))

    def test_tap_rejects_nan(self):
        nan = np.full((4, 1), np.nan)
        with pytest.raises(ValueError, match="delay"):
            ch.ChannelModel(tap_delays=nan, tap_gains=np.zeros((4, 1)))
        with pytest.raises(ValueError, match="gain"):
            ch.ChannelModel(tap_delays=np.ones((4, 1)), tap_gains=nan)

    def test_model_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            ch.ChannelModel(speed_of_sound=-1.0)

    def test_model_rejects_wrong_beacon_count(self):
        with pytest.raises(ValueError):
            ch.ChannelModel(tap_delays=np.zeros((2, 0)), tap_gains=np.zeros((2, 0)))

    @pytest.mark.parametrize(
        "delays,gains",
        [((4, 2), (4, 3)), ((4,), (4,)), ((4, 1, 1), (4, 1, 1))],
        ids=["mismatch", "1-D", "3-D"],
    )
    def test_model_rejects_bad_tap_shapes(self, delays, gains):
        with pytest.raises(ValueError, match=r"\(4, n_taps\)"):
            ch.ChannelModel(tap_delays=np.full(delays, 0.005), tap_gains=np.full(gains, 0.1))

    def test_model_compares_by_identity(self):
        model = ch.ChannelModel()
        assert model == model
        assert model != ch.ChannelModel()
        assert hash(model) == hash(model)

    def test_model_freezes_its_own_copies(self):
        delays, gains = np.full((4, 1), 0.005), np.full((4, 1), 0.1)
        model = ch.ChannelModel(tap_delays=delays, tap_gains=gains)
        assert delays.flags.writeable and gains.flags.writeable
        assert not model.tap_delays.flags.writeable
        assert not model.tap_gains.flags.writeable
        delays[0, 0] = 0.009
        assert model.tap_delays[0, 0] == 0.005
