import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraloc import waveform as wf
from ultraloc.errors import ChipAlignmentError

from conftest import make_burst_config, single_channel_plan


def band_energy_fraction(samples, sample_rate, f_low, f_high):
    """Fraction of a segment's spectral energy inside [f_low, f_high], from
    the Fourier magnitude of the rectangular-windowed segment, zero-padded
    for fine frequency resolution."""
    n_fft = max(8 * samples.size, 1024)
    spectrum = np.abs(np.fft.rfft(samples, n=n_fft)) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    total = spectrum.sum()
    if total == 0.0:
        return 0.0
    return float(spectrum[(freqs >= f_low) & (freqs <= f_high)].sum() / total)


class TestWalshHadamard:
    def test_order_one(self):
        assert wf.walsh_rows(1, 1).tolist() == [[1]]

    def test_order_two(self):
        assert wf.walsh_rows(2, 2).tolist() == [[1, 1], [1, -1]]

    def test_order_four_rows(self):
        assert wf.walsh_rows(4, 4).tolist() == [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_rows_exactly_orthogonal(self, order):
        rows = wf.walsh_rows(order, order)
        gram = rows @ rows.T
        assert np.array_equal(gram, order * np.eye(order, dtype=np.int64))

    def test_first_row_all_ones(self):
        assert np.all(wf.walsh_rows(8, 8)[0] == 1)

    @pytest.mark.parametrize("order", [0, -1, 3, 6, 12])
    def test_rejects_non_power_of_two(self, order):
        with pytest.raises(ValueError):
            wf.walsh_rows(order, order)
        with pytest.raises(ValueError, match="power of two"):
            wf.walsh_rows(order, 1)

    def test_rows_match_sylvester_recursion(self):
        h = np.array([[1]], dtype=np.int64)
        for order in (2**e for e in range(11)):  # 1 .. 1024
            while h.shape[0] < order:
                h = np.block([[h, h], [h, -h]])
            rows = wf.walsh_rows(order, order)
            assert rows.dtype == np.int64 and np.array_equal(rows, h)
            for n_rows in {1, min(4, order), order}:
                assert np.array_equal(wf.walsh_rows(order, n_rows), h[:n_rows])

    @pytest.mark.parametrize("n_rows", [0, -1, 9])
    def test_rows_rejects_count_outside_the_order(self, n_rows):
        with pytest.raises(ValueError, match=f"cannot take {n_rows} rows"):
            wf.walsh_rows(8, n_rows)


class TestHopPlan:
    def test_rejects_out_of_band_center(self):
        with pytest.raises(ValueError):
            wf.WaveformConfig(center_frequencies=(19_000.0,))
        with pytest.raises(ValueError):
            wf.WaveformConfig(center_frequencies=(51_000.0,))

    def test_rejects_overlapping_channels(self):
        with pytest.raises(ValueError):
            wf.WaveformConfig(center_frequencies=(22_500.0, 26_000.0))

    @pytest.mark.parametrize("bank", [(np.nan,), (22_500.0, np.nan)])
    def test_rejects_nan_center(self, bank):
        with pytest.raises(ValueError, match=r"within \[20 kHz, 50 kHz\]"):
            wf.WaveformConfig(center_frequencies=bank)

    def test_rejected_bank_is_checked_again(self):
        # a rejected bank is rejected every time it is constructed
        for _ in range(2):
            with pytest.raises(ValueError, match="overlap"):
                wf.WaveformConfig(center_frequencies=(22_500.0, 26_000.0))

    def test_rejects_bad_hop_index(self):
        config = wf.WaveformConfig(center_frequencies=(22_500.0, 27_500.0))
        with pytest.raises(ValueError):
            wf.hop_carrier(config, np.array([0, 2]), 2)
        # numpy would wrap a negative index to the end of the bank
        with pytest.raises(ValueError, match="must index the channel list"):
            wf.hop_carrier(config, np.array([0, -1]), 2)

    def test_random_plan_deterministic(self):
        a = wf.random_hop_plan(64, seed=9)
        b = wf.random_hop_plan(64, seed=9)
        assert np.array_equal(a, b)

    def test_random_plan_respects_reuse_window(self):
        seq = wf.random_hop_plan(500, seed=3)
        assert seq.dtype == np.int64 and seq.shape == (500,)
        assert np.all(seq[1:] != seq[:-1])
        assert np.all(seq[2:] != seq[:-2])
        assert seq.min() >= 0 and seq.max() < len(wf.CENTER_FREQUENCIES)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), n_symbols=st.integers(0, 200), seed=st.integers(0, 2**31 - 1))
    def test_no_channel_reused_within_window(self, data, n_symbols, seed):
        n_ch = data.draw(st.integers(1, len(wf.CENTER_FREQUENCIES)), label="n_channels")
        window = data.draw(st.integers(0, max(n_ch - 2, 0)), label="reuse_window")
        seq = wf.random_hop_plan(n_symbols, seed, n_channels=n_ch, reuse_window=window).tolist()
        assert len(seq) == n_symbols
        assert all(0 <= ch < n_ch for ch in seq)
        for k, ch in enumerate(seq):
            assert ch not in seq[max(0, k - window) : k]

    def test_random_plan_unconstrained_window(self):
        hops = wf.random_hop_plan(500, seed=3, reuse_window=0)
        assert np.any(hops[1:] == hops[:-1])

    def test_reuse_window_must_leave_choices(self):
        with pytest.raises(ValueError):
            wf.random_hop_plan(8, seed=1, reuse_window=5)

    def test_random_plan_rejects_empty_channel_list(self):
        with pytest.raises(ValueError, match="hop plan needs at least one channel"):
            wf.random_hop_plan(8, seed=1, n_channels=0)
        with pytest.raises(ValueError, match="hop plan needs at least one channel"):
            wf.WaveformConfig(center_frequencies=())

    def test_one_channel_plan_takes_no_reuse_window(self):
        with pytest.raises(ValueError, match=r"reuse_window must be in \[0, 0\]"):
            wf.random_hop_plan(8, seed=1, n_channels=1, reuse_window=1)
        hops = wf.random_hop_plan(8, seed=1, n_channels=1, reuse_window=0)
        assert np.array_equal(hops, np.zeros(8, dtype=np.int64))

    def test_rejects_sub_nyquist_bank_at_construction(self):
        with pytest.raises(ValueError, match="below Nyquist for 47500.0 Hz carrier"):
            wf.WaveformConfig(sample_rate=90_000.0)
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            wf.WaveformConfig(sample_rate=0.0)

    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_nonpositive_walsh_order_at_construction(self, order):
        # an order below the beacon count is SimConfig's rule, which knows the layout
        with pytest.raises(ValueError, match="walsh_order must be positive"):
            wf.WaveformConfig(walsh_order=order)

    @pytest.mark.parametrize("bits", [0, -1])
    def test_rejects_burst_without_bits_at_construction(self, bits):
        with pytest.raises(ValueError, match="burst_bits must be positive"):
            wf.WaveformConfig(burst_bits=bits)
        assert wf.WaveformConfig(burst_bits=1, walsh_order=4).burst_bits == 1


class TestGenerateTxSignal:
    def test_single_tone_matches_sample_oracle(self, walsh4):
        # one +1 bit, all-ones code, single 22.5 kHz channel: the burst
        # must be exactly sin(2*pi*f*t) sample by sample
        config, hops = single_channel_plan(1)
        sig = wf.generate_tx_signals(config, hops, walsh4[0], [1])
        assert len(sig) == 680
        expected = np.array(
            [math.sin(2.0 * math.pi * 22_500.0 * k / 340_000.0) for k in range(680)]
        )
        np.testing.assert_allclose(sig.samples, expected, atol=1e-12)

    def test_bpsk_antipodality_single_bit(self, walsh4):
        config, hops = single_channel_plan(1)
        pos = wf.generate_tx_signals(config, hops, walsh4[0], [1])
        neg = wf.generate_tx_signals(config, hops, walsh4[0], [-1])
        assert np.array_equal(neg.samples, -pos.samples)

    def test_antipodality_full_burst(self, walsh4):
        rng = np.random.default_rng(4)
        bits = wf.random_data_bits(16, rng)
        hops = wf.random_hop_plan(16, seed=21)
        config = make_burst_config()
        a = wf.generate_tx_signals(config, hops, walsh4[2], bits)
        b = wf.generate_tx_signals(config, hops, walsh4[2], -bits)
        assert np.array_equal(b.samples, -a.samples)

    def test_symbol_energy_lands_on_assigned_channel(self, walsh4):
        # two symbols hopping 0 -> 3: each symbol's spectrum must put more
        # energy in its own channel than in any other channel
        config = make_burst_config()
        sig = wf.generate_tx_signals(config, np.array([0, 3]), walsh4[0], [1, 1])
        sps = config.samples_per_symbol
        for s, ch in enumerate([0, 3]):
            segment = sig.samples[s * sps : (s + 1) * sps]
            fractions = [
                band_energy_fraction(
                    segment, sig.sample_rate, f - 2_500.0, f + 2_500.0
                )
                for f in wf.CENTER_FREQUENCIES
            ]
            assert np.argmax(fractions) == ch
            assert fractions[ch] > 0.9

    def test_signal_length_exact(self, walsh4):
        for n_bits in (1, 7, 32):
            bits = np.ones(n_bits, dtype=np.int64)
            hops = wf.random_hop_plan(n_bits, seed=1)
            sig = wf.generate_tx_signals(make_burst_config(), hops, walsh4[1], bits)
            assert len(sig) == n_bits * round(wf.SYMBOL_DURATION * wf.SAMPLE_RATE)

    def test_unit_peak_amplitude(self, walsh4):
        hops = wf.random_hop_plan(8, seed=2)
        sig = wf.generate_tx_signals(
            make_burst_config(), hops, walsh4[3], np.ones(8, dtype=np.int64)
        )
        assert np.max(np.abs(sig.samples)) <= 1.0 + 1e-12
        assert np.max(np.abs(sig.samples)) > 0.99

    def test_rejects_short_hop_sequence(self, walsh4):
        config, hops = single_channel_plan(2)
        with pytest.raises(ValueError):
            wf.generate_tx_signals(config, hops, walsh4[0], [1, 1, 1])

    def test_rejects_chip_misalignment(self, walsh4):
        # 682 samples/symbol is not divisible by the 4-chip code
        config, hops = single_channel_plan(1, symbol_duration=682 / 340_000.0)
        with pytest.raises(ChipAlignmentError):
            wf.generate_tx_signals(config, hops, walsh4[0], [1])

    def test_rejects_fractional_symbol_samples(self, walsh4):
        config, hops = single_channel_plan(1, symbol_duration=680.5 / 340_000.0)
        with pytest.raises(ChipAlignmentError):
            wf.generate_tx_signals(config, hops, walsh4[0], [1])

    def test_rejects_sub_nyquist_rate(self, walsh4):
        # the bank is checked against the rate when the config is built
        with pytest.raises(ValueError):
            config, hops = single_channel_plan(
                1, freq=47_500.0, sample_rate=68_000.0, symbol_duration=0.002
            )
            wf.generate_tx_signals(config, hops, walsh4[0], [1])


class TestGenerateTxSignals:
    def test_equals_one_burst_per_beacon(self, walsh4):
        rng = np.random.default_rng(6)
        hops = wf.random_hop_plan(32, seed=9)
        config = make_burst_config(carrier_phase=0.4)
        bits = wf.random_data_bits((4, 32), rng)
        together = wf.generate_tx_signals(config, hops, walsh4[:4], bits)
        assert together.samples.shape == (4, 32 * config.samples_per_symbol)
        assert len(together) == together.samples.shape[1]
        for i, row in enumerate(together.samples):
            alone = wf.generate_tx_signals(config, hops, walsh4[i], bits[i])
            assert np.array_equal(row, alone.samples)
            assert together.sample_rate == alone.sample_rate

    def test_rejects_missing_code_row(self, walsh4):
        hops = wf.random_hop_plan(2, seed=1)
        with pytest.raises(ValueError):
            wf.generate_tx_signals(make_burst_config(), hops, walsh4[:1], [[1, 1], [1, -1]])


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
        config, hops = single_channel_plan(1, freq=freq)
        sig = wf.generate_tx_signals(config, hops, walsh4[row_index], [1])
        return band_energy_fraction(
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


def synthesize_bits(walsh4, bits):
    """Bursts of the given bits under the default config, one code row each."""
    hops = wf.random_hop_plan(3, seed=0)
    codes = walsh4[: len(bits)] if np.ndim(bits) == 2 else walsh4[0]
    return wf.generate_tx_signals(make_burst_config(), hops, codes, bits)


class TestValidation:
    def test_config_rejects_bad_bits(self, walsh4):
        with pytest.raises(ValueError):
            synthesize_bits(walsh4, np.array([1, 0, -1]))

    def test_config_rejects_empty_bits(self, walsh4):
        with pytest.raises(ValueError):
            synthesize_bits(walsh4, np.array([], dtype=np.int64))

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_config_rejects_bits_neither_1d_nor_2d(self, walsh4, shape):
        with pytest.raises(ValueError, match=r"\(n_bits,\) or \(k, n_bits\)"):
            synthesize_bits(walsh4, np.ones(shape, dtype=np.int64))

    @pytest.mark.parametrize("symbol_duration", [1e-15, 2e-12])
    def test_config_rejects_symbol_shorter_than_one_sample(self, symbol_duration):
        config = make_burst_config(symbol_duration=symbol_duration)
        with pytest.raises(ChipAlignmentError, match="shorter than one sample"):
            config.samples_per_symbol

    def test_stacked_signal_counts_samples_per_row(self):
        sig = wf.SampledSignal(samples=np.zeros((4, 680)), sample_rate=340_000.0)
        assert len(sig) == 680
        assert len(sig) / sig.sample_rate == pytest.approx(0.002)

    def test_signal_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wf.SampledSignal(samples=np.array([1.0, np.nan]), sample_rate=10.0)

    def test_signal_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            wf.SampledSignal(samples=np.zeros(4), sample_rate=0.0)


def old_hop_carrier(config, hops, n_symbols):
    """The per-call carrier expression that the cached table replaced."""
    freqs = np.asarray(config.center_frequencies, dtype=float)
    sps = config.samples_per_symbol
    f_per_sample = np.repeat(freqs[hops[:n_symbols]], sps)
    t = np.arange(n_symbols * sps) / config.sample_rate
    return np.sin(2.0 * np.pi * f_per_sample * t + config.carrier_phase)


def old_bursts(config, hops, codes, bits):
    """The np.repeat chip expansion that the broadcast chips replaced."""
    codes = np.asarray(codes, dtype=np.int64)
    sps = config.samples_per_symbol
    carrier = old_hop_carrier(config, hops, bits.shape[-1])
    chips = np.repeat(bits[..., None] * codes[..., None, :], sps // codes.shape[-1], axis=-1)
    return chips.reshape(*bits.shape[:-1], -1) * carrier


def old_hop_sequence(n_symbols, seed, n_ch, reuse_window):
    """One rng.integers call per symbol, as random_hop_plan drew before."""
    rng = np.random.default_rng(seed)
    seq = np.empty(n_symbols, dtype=np.int64)
    for k in range(n_symbols):
        blocked = set(seq[max(0, k - reuse_window) : k].tolist())
        choices = [c for c in range(n_ch) if c not in blocked]
        seq[k] = choices[rng.integers(0, len(choices))]
    return seq


def random_bits(shape, seed):
    return wf.random_data_bits(shape, np.random.default_rng(seed))


# channel banks inside [20, 50] kHz at least 5 kHz apart, one to seven channels
BANKS = [
    (41_000.0,),
    (21_000.0, 33_000.0),
    (25_000.0, 30_000.0, 45_000.0),
    wf.CENTER_FREQUENCIES,
    tuple(20_000.0 + 5_000.0 * k for k in range(7)),
]


class TestSharedWorkBitIdentity:
    """The cached carrier table, cached Walsh rows, broadcast chips and one
    hop-plan draw give the bits of the expressions they replaced."""

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: f"{len(b)}ch")
    @pytest.mark.parametrize("phase", [0.0, 0.7, -2.1])
    @pytest.mark.parametrize("n_symbols", [1, 5, 32])
    def test_carrier_and_bursts_match_old_expression(self, bank, phase, n_symbols):
        hops = wf.random_hop_plan(
            n_symbols, seed=n_symbols, n_channels=len(bank),
            reuse_window=min(2, max(len(bank) - 2, 0)),
        )
        bits = random_bits((4, n_symbols), seed=n_symbols)
        for sample_rate, symbol_duration in ((340_000.0, 0.002), (200_000.0, 0.0005)):
            config = wf.WaveformConfig(
                sample_rate=sample_rate,
                symbol_duration=symbol_duration,
                center_frequencies=bank,
                carrier_phase=phase,
            )
            carrier = wf.hop_carrier(config, hops, n_symbols)
            assert carrier.tobytes() == old_hop_carrier(config, hops, n_symbols).tobytes()
            codes = wf.walsh_rows(4, 4)
            burst = wf.generate_tx_signals(config, hops, codes, bits).samples
            assert burst.tobytes() == old_bursts(config, hops, codes, bits).tobytes()
            row = wf.generate_tx_signals(config, hops, codes[2], bits[2]).samples
            assert row.tobytes() == old_bursts(config, hops, codes[2], bits[2]).tobytes()

    def test_decode_bits_carrier_matches_old_expression(self, walsh4):
        # decode_bits asks for as many symbols as the received signal holds,
        # fewer than the plan here, and demodulates against that carrier
        from ultraloc import ranging as rg

        hops = wf.random_hop_plan(12, seed=4)
        config = make_burst_config(carrier_phase=0.3)
        sps = config.samples_per_symbol
        carrier = wf.hop_carrier(config, hops, 9)
        assert carrier.tobytes() == old_hop_carrier(config, hops, 9).tobytes()
        burst = wf.generate_tx_signals(config, hops, walsh4[1], random_bits(12, seed=4))
        received = wf.SampledSignal(burst.samples[: 9 * sps + 100], config.sample_rate)
        y = received.samples[: 9 * sps] * np.tile(np.repeat(walsh4[1], sps // 4), 9)
        old = (y * old_hop_carrier(config, hops, 9)).reshape(9, sps).sum(axis=1)
        expected = np.where(old >= 0, 1, -1)
        assert np.array_equal(rg.decode_bits(received, walsh4[1], hops, config), expected)

    def test_over_budget_bank_bypasses_the_cache_with_the_same_bits(self):
        bank = BANKS[-1]
        sps = 680
        n_symbols = wf.CARRIER_TABLE_BUDGET // (8 * len(bank) * sps) + 1
        assert wf._carrier_table(bank, wf.SAMPLE_RATE, sps, n_symbols, 0.4) is None
        hops = wf.random_hop_plan(n_symbols, seed=2, n_channels=len(bank))
        config = make_burst_config(center_frequencies=bank, carrier_phase=0.4)
        carrier = wf.hop_carrier(config, hops, n_symbols)
        expected = old_hop_carrier(config, hops, n_symbols)
        assert carrier.tobytes() == expected.tobytes()
        # one symbol fewer fits the budget and is served from a table
        assert wf._carrier_table(bank, wf.SAMPLE_RATE, sps, n_symbols - 2, 0.4) is not None

    def test_cached_table_and_walsh_rows_are_read_only(self):
        table = wf._carrier_table(wf.CENTER_FREQUENCIES, wf.SAMPLE_RATE, 680, 32, 0.0)
        assert table.shape == (6, 32, 680)
        assert not table.flags.writeable
        assert wf._carrier_table(wf.CENTER_FREQUENCIES, wf.SAMPLE_RATE, 680, 32, 0.0) is table
        rows = wf.walsh_rows(8, 8)
        assert not rows.flags.writeable
        assert wf.walsh_rows(8, 8) is rows
        with pytest.raises(ValueError):
            rows[0, 0] = -1

    def test_carrier_is_a_fresh_writeable_array(self):
        hops = wf.random_hop_plan(4, seed=1)
        config = make_burst_config()
        carrier = wf.hop_carrier(config, hops, 4)
        expected = carrier.copy()
        carrier[:] = 0.0
        assert wf.hop_carrier(config, hops, 4).tobytes() == expected.tobytes()

    def test_carrier_rejects_more_symbols_than_the_plan(self):
        with pytest.raises(ValueError, match="shorter than"):
            wf.hop_carrier(make_burst_config(), wf.random_hop_plan(3, seed=0), 4)

    @pytest.mark.parametrize("n_ch", [1, 2, 3, 4, 5, 6, 7])
    def test_hop_plan_matches_one_draw_per_symbol(self, n_ch):
        for window in range(max(n_ch - 2, 0) + 1):
            for seed in range(100):
                for n_symbols in (0, 1, 32, 100):
                    hops = wf.random_hop_plan(n_symbols, seed, n_channels=n_ch, reuse_window=window)
                    expected = old_hop_sequence(n_symbols, seed, n_ch, window)
                    assert np.array_equal(hops, expected)

    @pytest.mark.parametrize("bad", [0, 2, -3, np.iinfo(np.int64).min])
    def test_plus_minus_one_checks_reject_the_same_values(self, walsh4, bad):
        with pytest.raises(ValueError, match=r"\+1/-1"):
            synthesize_bits(walsh4, np.array([1, bad]))
        codes = np.array([1, -1, bad, 1])
        config, hops = single_channel_plan(1)
        with pytest.raises(ValueError, match=r"\+/-1"):
            wf.generate_tx_signals(config, hops, codes, [1])
