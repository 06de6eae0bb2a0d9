import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraloc import waveform as wf
from ultraloc.errors import ChipAlignmentError

from conftest import make_burst_config, single_channel_plan


class TestWalshHadamard:
    def test_order_one(self):
        m = wf.walsh_hadamard(1)
        assert m.rows.tolist() == [[1]]

    def test_order_two(self):
        m = wf.walsh_hadamard(2)
        assert m.rows.tolist() == [[1, 1], [1, -1]]

    def test_order_four_rows(self):
        m = wf.walsh_hadamard(4)
        assert m.rows.tolist() == [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_rows_exactly_orthogonal(self, order):
        m = wf.walsh_hadamard(order)
        gram = m.rows @ m.rows.T
        assert np.array_equal(gram, order * np.eye(order, dtype=np.int64))

    def test_first_row_all_ones(self):
        assert np.all(wf.walsh_hadamard(8).rows[0] == 1)

    @pytest.mark.parametrize("order", [0, -1, 3, 6, 12])
    def test_rejects_non_power_of_two(self, order):
        with pytest.raises(ValueError):
            wf.walsh_hadamard(order)


class TestEncodeSymbol:
    def test_identity_bit(self):
        code = np.array([1, -1, 1, -1])
        assert wf.encode_symbol(1, code).tolist() == [1, -1, 1, -1]

    def test_sign_flip(self):
        code = np.array([1, -1, 1, -1])
        assert wf.encode_symbol(-1, code).tolist() == [-1, 1, -1, 1]

    def test_all_ones_code(self):
        assert wf.encode_symbol(-1, np.ones(4, dtype=int)).tolist() == [-1, -1, -1, -1]

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            wf.encode_symbol(0, np.ones(4, dtype=int))

    def test_rejects_empty_code(self):
        with pytest.raises(ValueError):
            wf.encode_symbol(1, np.array([]))


class TestHopPlan:
    def test_rejects_out_of_band_center(self):
        with pytest.raises(ValueError):
            wf.HopPlan((19_000.0,), 5_000.0, np.zeros(1, dtype=int))
        with pytest.raises(ValueError):
            wf.HopPlan((51_000.0,), 5_000.0, np.zeros(1, dtype=int))

    def test_rejects_overlapping_channels(self):
        with pytest.raises(ValueError):
            wf.HopPlan((22_500.0, 26_000.0), 5_000.0, np.zeros(1, dtype=int))

    def test_rejects_bad_hop_index(self):
        with pytest.raises(ValueError):
            wf.HopPlan((22_500.0, 27_500.0), 5_000.0, np.array([0, 2]))

    def test_random_plan_deterministic(self):
        a = wf.random_hop_plan(64, seed=9)
        b = wf.random_hop_plan(64, seed=9)
        assert np.array_equal(a.hop_sequence, b.hop_sequence)

    def test_random_plan_respects_reuse_window(self):
        plan = wf.random_hop_plan(500, seed=3)
        seq = plan.hop_sequence
        assert np.all(seq[1:] != seq[:-1])
        assert np.all(seq[2:] != seq[:-2])
        assert seq.min() >= 0 and seq.max() < len(wf.CENTER_FREQUENCIES)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), n_symbols=st.integers(0, 200), seed=st.integers(0, 2**31 - 1))
    def test_no_channel_reused_within_window(self, data, n_symbols, seed):
        n_ch = data.draw(st.integers(1, len(wf.CENTER_FREQUENCIES)), label="n_channels")
        window = data.draw(st.integers(0, max(n_ch - 2, 0)), label="reuse_window")
        plan = wf.random_hop_plan(
            n_symbols, seed, center_frequencies=wf.CENTER_FREQUENCIES[:n_ch], reuse_window=window
        )
        seq = plan.hop_sequence.tolist()
        assert len(seq) == n_symbols
        assert all(0 <= ch < n_ch for ch in seq)
        for k, ch in enumerate(seq):
            assert ch not in seq[max(0, k - window) : k]

    def test_random_plan_unconstrained_window(self):
        plan = wf.random_hop_plan(500, seed=3, reuse_window=0)
        assert np.any(plan.hop_sequence[1:] == plan.hop_sequence[:-1])

    def test_reuse_window_must_leave_choices(self):
        with pytest.raises(ValueError):
            wf.random_hop_plan(8, seed=1, reuse_window=5)

    def test_random_plan_rejects_empty_channel_list(self):
        with pytest.raises(ValueError, match="hop plan needs at least one channel"):
            wf.random_hop_plan(8, seed=1, center_frequencies=())

    def test_one_channel_plan_takes_no_reuse_window(self):
        with pytest.raises(ValueError, match=r"reuse_window must be in \[0, 0\]"):
            wf.random_hop_plan(8, seed=1, center_frequencies=(22_500.0,), reuse_window=1)
        plan = wf.random_hop_plan(8, seed=1, center_frequencies=(22_500.0,), reuse_window=0)
        assert np.array_equal(plan.hop_sequence, np.zeros(8, dtype=np.int64))


class TestGenerateTxSignal:
    def test_single_tone_matches_sample_oracle(self, walsh4):
        # one +1 bit, all-ones code, single 22.5 kHz channel: the burst
        # must be exactly sin(2*pi*f*t) sample by sample
        config = make_burst_config([1])
        plan = single_channel_plan(1)
        sig = wf.generate_tx_signals(config, plan, walsh4.row(0))
        assert len(sig) == 680
        expected = np.array(
            [math.sin(2.0 * math.pi * 22_500.0 * k / 340_000.0) for k in range(680)]
        )
        np.testing.assert_allclose(sig.samples, expected, atol=1e-12)

    def test_bpsk_antipodality_single_bit(self, walsh4):
        plan = single_channel_plan(1)
        pos = wf.generate_tx_signals(make_burst_config([1]), plan, walsh4.row(0))
        neg = wf.generate_tx_signals(make_burst_config([-1]), plan, walsh4.row(0))
        assert np.array_equal(neg.samples, -pos.samples)

    def test_antipodality_full_burst(self, walsh4):
        rng = np.random.default_rng(4)
        bits = wf.random_data_bits(16, rng)
        plan = wf.random_hop_plan(16, seed=21)
        a = wf.generate_tx_signals(make_burst_config(bits), plan, walsh4.row(2))
        b = wf.generate_tx_signals(make_burst_config(-bits), plan, walsh4.row(2))
        assert np.array_equal(b.samples, -a.samples)

    def test_symbol_energy_lands_on_assigned_channel(self, walsh4):
        # two symbols hopping 0 -> 3: each symbol's spectrum must put more
        # energy in its own channel than in any other channel
        plan = wf.HopPlan(
            wf.CENTER_FREQUENCIES, wf.CHANNEL_BANDWIDTH, np.array([0, 3]), 0.0
        )
        config = make_burst_config([1, 1])
        sig = wf.generate_tx_signals(config, plan, walsh4.row(0))
        sps = config.samples_per_symbol
        for s, ch in enumerate([0, 3]):
            segment = sig.samples[s * sps : (s + 1) * sps]
            fractions = [
                wf.band_energy_fraction(
                    segment, sig.sample_rate, f - 2_500.0, f + 2_500.0
                )
                for f in wf.CENTER_FREQUENCIES
            ]
            assert np.argmax(fractions) == ch
            assert fractions[ch] > 0.9

    def test_signal_length_exact(self, walsh4):
        for n_bits in (1, 7, 32):
            bits = np.ones(n_bits, dtype=np.int64)
            plan = wf.random_hop_plan(n_bits, seed=1)
            sig = wf.generate_tx_signals(make_burst_config(bits), plan, walsh4.row(1))
            assert len(sig) == n_bits * round(wf.SYMBOL_DURATION * wf.SAMPLE_RATE)

    def test_unit_peak_amplitude(self, walsh4):
        plan = wf.random_hop_plan(8, seed=2)
        sig = wf.generate_tx_signals(
            make_burst_config(np.ones(8, dtype=np.int64)), plan, walsh4.row(3)
        )
        assert np.max(np.abs(sig.samples)) <= 1.0 + 1e-12
        assert np.max(np.abs(sig.samples)) > 0.99

    def test_rejects_short_hop_sequence(self, walsh4):
        plan = single_channel_plan(2)
        config = make_burst_config([1, 1, 1])
        with pytest.raises(ValueError):
            wf.generate_tx_signals(config, plan, walsh4.row(0))

    def test_rejects_chip_misalignment(self, walsh4):
        # 682 samples/symbol is not divisible by the 4-chip code
        config = make_burst_config([1], symbol_duration=682 / 340_000.0)
        plan = single_channel_plan(1)
        with pytest.raises(ChipAlignmentError):
            wf.generate_tx_signals(config, plan, walsh4.row(0))

    def test_rejects_fractional_symbol_samples(self, walsh4):
        config = make_burst_config([1], symbol_duration=680.5 / 340_000.0)
        plan = single_channel_plan(1)
        with pytest.raises(ChipAlignmentError):
            wf.generate_tx_signals(config, plan, walsh4.row(0))

    def test_rejects_sub_nyquist_rate(self, walsh4):
        config = make_burst_config([1], sample_rate=68_000.0, symbol_duration=0.002)
        plan = single_channel_plan(1, freq=47_500.0)
        with pytest.raises(ValueError):
            wf.generate_tx_signals(config, plan, walsh4.row(0))


class TestGenerateTxSignals:
    def test_equals_one_burst_per_beacon(self, walsh4):
        rng = np.random.default_rng(6)
        plan = wf.random_hop_plan(32, seed=9, carrier_phase=0.4)
        config = make_burst_config(wf.random_data_bits((4, 32), rng))
        together = wf.generate_tx_signals(config, plan, walsh4.rows[:4])
        assert together.samples.shape == (4, 32 * config.samples_per_symbol)
        assert len(together) == together.samples.shape[1]
        for i, row in enumerate(together.samples):
            alone = wf.generate_tx_signals(
                make_burst_config(config.data_bits[i]), plan, walsh4.row(i)
            )
            assert np.array_equal(row, alone.samples)
            assert together.sample_rate == alone.sample_rate

    def test_rejects_missing_code_row(self, walsh4):
        plan = wf.random_hop_plan(2, seed=1)
        config = make_burst_config([[1, 1], [1, -1]])
        with pytest.raises(ValueError):
            wf.generate_tx_signals(config, plan, walsh4.rows[:1])


class TestRandomDataBits:
    @pytest.mark.parametrize("n_bits", [1, 7, 16, 32, 33])
    def test_stacked_draw_equals_successive_draws(self, n_bits):
        # a (4, n) draw is four n-bit draws row for row, and it leaves the
        # generator where the four draws leave it
        stacked_rng = np.random.default_rng(n_bits)
        rows_rng = np.random.default_rng(n_bits)
        stacked = wf.random_data_bits((4, n_bits), stacked_rng)
        rows = [wf.random_data_bits(n_bits, rows_rng) for _ in range(4)]
        assert np.array_equal(stacked, np.stack(rows))
        assert stacked_rng.bit_generator.state == rows_rng.bit_generator.state


class TestSpectralOccupancy:
    """Fraction of a symbol's energy inside its assigned 5 kHz channel."""

    def _fraction(self, walsh4, row_index, freq=32_500.0):
        config = make_burst_config([1])
        plan = single_channel_plan(1, freq=freq)
        sig = wf.generate_tx_signals(config, plan, walsh4.row(row_index))
        return wf.band_energy_fraction(
            sig.samples, sig.sample_rate, freq - 2_500.0, freq + 2_500.0
        )

    @pytest.mark.parametrize("row_index", [0, 2])
    def test_occupancy_at_least_90_percent(self, walsh4, row_index):
        assert self._fraction(walsh4, row_index) >= 0.90

    @pytest.mark.parametrize("row_index", [1, 3])
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "code rows with 2 kHz chip-pattern harmonics put part of their "
            "energy beyond +/-2.5 kHz of the carrier at the 2 ms symbol "
            "default; the 90% target is unreachable for them"
        ),
    )
    def test_occupancy_structured_rows_known_shortfall(self, walsh4, row_index):
        assert self._fraction(walsh4, row_index) >= 0.90

    @pytest.mark.parametrize("row_index", [0, 1, 2, 3])
    def test_occupancy_floor_all_rows(self, walsh4, row_index):
        # every row keeps the bulk of its energy near its channel
        assert self._fraction(walsh4, row_index) >= 0.80


class TestValidation:
    def test_config_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            wf.WaveformConfig(data_bits=np.array([1, 0, -1]))

    def test_config_rejects_empty_bits(self):
        with pytest.raises(ValueError):
            wf.WaveformConfig(data_bits=np.array([], dtype=np.int64))

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_config_rejects_bits_neither_1d_nor_2d(self, shape):
        with pytest.raises(ValueError, match=r"\(n_bits,\) or \(k, n_bits\)"):
            wf.WaveformConfig(data_bits=np.ones(shape, dtype=np.int64))

    def test_stacked_signal_counts_samples_per_row(self):
        sig = wf.SampledSignal(samples=np.zeros((4, 680)), sample_rate=340_000.0)
        assert len(sig) == 680
        assert sig.duration == pytest.approx(0.002)

    def test_signal_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wf.SampledSignal(samples=np.array([1.0, np.nan]), sample_rate=10.0)

    def test_signal_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            wf.SampledSignal(samples=np.zeros(4), sample_rate=0.0)
