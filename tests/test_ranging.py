import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from ultraloc import channel as ch
from ultraloc import ranging as rg
from ultraloc import waveform as wf
from ultraloc.errors import NoPeakError

from conftest import make_burst_config

FS = wf.SAMPLE_RATE
C = 343.0


def coded_burst(walsh, row_index, bits=None, n_bits=16, seed=0, plan_seed=10):
    rng = np.random.default_rng(seed)
    if bits is None:
        bits = wf.random_data_bits(n_bits, rng)
    plan = wf.random_hop_plan(len(bits), seed=plan_seed)
    config = make_burst_config(bits)
    return config, plan, wf.generate_tx_signals(config, plan, walsh.row(row_index))


def shifted(sig, n, tail=0):
    return wf.SampledSignal(
        samples=np.concatenate([np.zeros(n), sig.samples, np.zeros(tail)]),
        sample_rate=sig.sample_rate,
    )


class TestDespread:
    def test_recovers_uncoded_waveform(self, walsh4):
        # despreading a beacon's own signal with its own code equals the
        # same bits spread with the all-ones row
        config, plan, sig = coded_burst(walsh4, row_index=2)
        uncoded = wf.generate_tx_signals(config, plan, walsh4.row(0))
        result = rg.despread(sig, walsh4.row(2), config)
        assert not result.truncated
        assert np.array_equal(result.signal.samples, uncoded.samples)

    def test_twice_is_identity(self, walsh4):
        config, plan, sig = coded_burst(walsh4, row_index=1)
        once = rg.despread(sig, walsh4.row(1), config).signal
        twice = rg.despread(once, walsh4.row(1), config).signal
        assert np.array_equal(twice.samples, sig.samples)

    def test_flags_trailing_partial_symbol(self, walsh4):
        config, plan, sig = coded_burst(walsh4, row_index=0, n_bits=3)
        padded = wf.SampledSignal(
            samples=np.concatenate([sig.samples, np.zeros(100)]),
            sample_rate=sig.sample_rate,
        )
        result = rg.despread(padded, walsh4.row(0), config)
        assert result.truncated
        assert len(result.signal) == len(sig)

    def test_cross_beacon_chip_sums_vanish(self, walsh4):
        # per symbol, a foreign beacon's chips despread to exact zero sum
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                chips_j = wf.encode_symbol(1, walsh4.row(j))
                despread_chips = chips_j * walsh4.row(i)
                assert despread_chips.sum() == 0

    def test_wrong_code_correlation_suppressed(self, walsh4):
        # time-aligned burst despread with a wrong code retains almost no
        # correlation with the beacon's uncoded waveform; chip alignment
        # matters, which is why ranging correlates against the coded
        # reference instead of despreading at a guessed grid
        rng = np.random.default_rng(11)
        plan = wf.random_hop_plan(32, seed=5)
        for i in range(4):
            config = make_burst_config(wf.random_data_bits(32, rng))
            sig = wf.generate_tx_signals(config, plan, walsh4.row(i))
            uncoded = wf.generate_tx_signals(config, plan, walsh4.row(0))
            matched = np.abs(
                rg.cross_correlate(
                    rg.despread(sig, walsh4.row(i), config).signal, uncoded
                )
            ).max()
            for j in range(4):
                if j == i:
                    continue
                wrong = np.abs(
                    rg.cross_correlate(
                        rg.despread(sig, walsh4.row(j), config).signal, uncoded
                    )
                ).max()
                assert wrong < 0.3 * matched
                assert wrong < 0.05 * matched  # measured headroom is ~0.01


class TestCrossCorrelate:
    def test_pure_delay_peak(self, walsh4):
        _, _, sig = coded_burst(walsh4, row_index=0, n_bits=4)
        received = shifted(sig, 500, tail=50)
        corr = rg.cross_correlate(received, sig)
        assert len(corr) == len(received) - len(sig) + 1
        assert int(np.argmax(np.abs(corr))) == 500

    def test_autocorrelation_peak_is_energy(self):
        rng = np.random.default_rng(1)
        noise = wf.SampledSignal(samples=rng.normal(0, 1, 5000), sample_rate=FS)
        corr = rg.cross_correlate(noise, noise)
        assert len(corr) == 1
        assert corr[0] == pytest.approx(noise.energy(), rel=1e-12)

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(2)
        received = wf.SampledSignal(samples=rng.normal(0, 1, 10_000), sample_rate=FS)
        reference = wf.SampledSignal(
            samples=rng.normal(0, 1, 6_000), sample_rate=FS
        )
        fast = rg.cross_correlate(received, reference)
        n_lags = len(received) - len(reference) + 1
        naive = np.array(
            [
                np.dot(
                    received.samples[lag : lag + len(reference)], reference.samples
                )
                for lag in range(n_lags)
            ]
        )
        np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-9)

    def test_rejects_reference_longer_than_received(self, walsh4):
        _, _, sig = coded_burst(walsh4, 0, n_bits=2)
        short = wf.SampledSignal(samples=sig.samples[:100], sample_rate=FS)
        with pytest.raises(ValueError):
            rg.cross_correlate(short, sig)

    def test_rejects_empty(self):
        empty = wf.SampledSignal(samples=np.array([]), sample_rate=FS)
        with pytest.raises(ValueError):
            rg.cross_correlate(empty, empty)

    def test_rejects_rate_mismatch(self, walsh4):
        _, _, sig = coded_burst(walsh4, 0, n_bits=2)
        other = wf.SampledSignal(samples=np.zeros(len(sig) + 10), sample_rate=FS / 2)
        with pytest.raises(ValueError):
            rg.cross_correlate(other, sig)


class TestStackedCrossCorrelate:
    def test_rows_match_naive_summation_oracle(self):
        rng = np.random.default_rng(3)
        received = wf.SampledSignal(samples=rng.normal(0, 1, 3_000), sample_rate=FS)
        refs = wf.SampledSignal(samples=rng.normal(0, 1, (4, 1_200)), sample_rate=FS)
        fast = rg.cross_correlate(received, refs)
        n_lags = len(received) - 1_200 + 1
        assert fast.shape == (4, n_lags)
        for row, ref in zip(fast, refs.samples):
            naive = np.array(
                [
                    np.dot(received.samples[lag : lag + ref.size], ref)
                    for lag in range(n_lags)
                ]
            )
            np.testing.assert_allclose(row, naive, rtol=1e-9, atol=1e-9)

    def test_single_reference_equals_its_stack_row(self):
        rng = np.random.default_rng(4)
        received = wf.SampledSignal(samples=rng.normal(0, 1, 2_000), sample_rate=FS)
        ref = wf.SampledSignal(samples=rng.normal(0, 1, 500), sample_rate=FS)
        single = rg.cross_correlate(received, ref)
        assert single.ndim == 1
        one_row = wf.SampledSignal(samples=ref.samples[None, :], sample_rate=FS)
        np.testing.assert_allclose(
            single, rg.cross_correlate(received, one_row)[0], rtol=0, atol=1e-9
        )

    def test_rejects_rate_mismatch_in_stack(self):
        received = wf.SampledSignal(samples=np.ones(2_000), sample_rate=FS)
        refs = wf.SampledSignal(samples=np.ones((2, 500)), sample_rate=FS / 2)
        with pytest.raises(ValueError, match="sample rates"):
            rg.cross_correlate(received, refs)


def channel_composite(seed, snr_db):
    """Four default bursts through multipath and AWGN at a random position."""
    rng = np.random.default_rng([seed, 77])
    walsh = wf.walsh_hadamard(4)
    position = rng.uniform([0.5, 0.5, 0.5], [4.5, 4.5, 3.0])
    scene = ch.Scene(ch.ROOM_DIMS, ch.ORIGINAL_LAYOUT, position)
    plan = wf.random_hop_plan(wf.BURST_BITS, seed=int(rng.integers(2**31)))
    config = make_burst_config(wf.random_data_bits((4, wf.BURST_BITS), rng))
    refs = wf.generate_tx_signals(config, plan, walsh.rows[:4])
    delays, gains = ch.sample_multipath(scene, rng)
    model = ch.ChannelModel(
        tap_delays=delays,
        tap_gains=gains,
        snr_db=snr_db,
        rng_seed=int(rng.integers(2**31)),
    )
    return ch.apply_channel(refs, scene, model), refs


class TestEstimateRanges:
    @pytest.mark.parametrize("snr_db", [0.0, 15.0])
    def test_peaks_match_scipy_signal_oracle(self, snr_db):
        # 2 x 25 seeded multipath composites: the one-pass receiver picks
        # the same peak lag as scipy.signal's "valid" correlation
        for seed in range(25):
            received, refs = channel_composite(seed, snr_db)
            estimates = rg.estimate_ranges(received, refs, C)
            assert estimates.peak_samples.shape == estimates.peak_values.shape == (4,)
            for i, ref in enumerate(refs.samples):
                oracle = sp_signal.correlate(received.samples, ref, mode="valid")
                peak = estimates.peak_samples[i]
                assert peak == int(np.argmax(np.abs(oracle)))
                assert estimates.peak_values[i] == pytest.approx(abs(oracle[peak]), rel=1e-9)

    def test_agrees_with_single_beacon_estimate(self, walsh4):
        rng = np.random.default_rng(8)
        plan = wf.random_hop_plan(16, seed=3)
        config = make_burst_config(wf.random_data_bits((4, 16), rng))
        refs = wf.generate_tx_signals(config, plan, walsh4.rows[:4])
        received = wf.SampledSignal(
            samples=np.sum(
                [
                    np.concatenate([np.zeros(100 * (i + 1)), r, np.zeros(400 - 100 * i)])
                    for i, r in enumerate(refs.samples)
                ],
                axis=0,
            ),
            sample_rate=FS,
        )
        together = rg.estimate_ranges(received, refs, C)
        for i in range(4):
            one_row = wf.SampledSignal(samples=refs.samples[i : i + 1], sample_rate=FS)
            alone = rg.estimate_ranges(received, one_row, C)
            assert alone.peak_samples.shape == (1,)
            assert alone.peak_samples[0] == together.peak_samples[i] == 100 * (i + 1)
            assert alone.distances[0] == together.distances[i]

    def test_distances_equal_per_peak_scalar_expression(self):
        # the (4,) expression gives the last bits of int(peak) / fs * c;
        # p * (c / fs) would differ on about one peak in four
        for seed in range(10):
            received, refs = channel_composite(seed, 15.0)
            estimates = rg.estimate_ranges(received, refs, C)
            scalar = [int(p) / FS * C for p in estimates.peak_samples]
            assert estimates.distances.tolist() == scalar

    def test_estimates_compare_by_identity(self):
        received, refs = channel_composite(0, 15.0)
        estimates = rg.estimate_ranges(received, refs, C)
        assert estimates == estimates
        assert estimates != rg.estimate_ranges(received, refs, C)


def scipy_correlation(received, reference):
    """The receiver's correlation written inline on scipy.fft, at the same n."""
    n = sp_fft.next_fast_len(len(received), real=True)
    rx_spec = sp_fft.rfft(received.samples, n)
    ref_spec = sp_fft.rfft(reference.samples, n, axis=-1)
    valid = len(received) - len(reference) + 1
    return sp_fft.irfft(rx_spec * ref_spec.conj(), n, axis=-1)[..., :valid]


class TestWorkspace:
    def test_grown_workspace_is_bit_identical_to_scipy(self):
        # a longer call first leaves stale samples past the shorter signal
        # and references, which the next call must overwrite with zeros
        received, refs = channel_composite(3, 15.0)
        longer = wf.SampledSignal(
            samples=np.concatenate([received.samples, np.ones(9_000)]), sample_rate=FS
        )
        one_row = wf.SampledSignal(samples=refs.samples[2], sample_rate=FS)
        for reference in (refs, one_row):
            tail = np.ones(reference.samples.shape[:-1] + (500,))
            longer_ref = wf.SampledSignal(
                samples=np.concatenate([reference.samples, tail], axis=-1), sample_rate=FS
            )
            rg.cross_correlate(longer, longer_ref)
            corr = rg.cross_correlate(received, reference)
            assert corr.shape == scipy_correlation(received, reference).shape
            assert np.array_equal(corr, scipy_correlation(received, reference))

    def test_result_survives_later_calls(self):
        received, refs = channel_composite(4, 15.0)
        first = rg.cross_correlate(received, refs)
        kept = first.copy()
        other, other_refs = channel_composite(5, 0.0)
        second = rg.cross_correlate(other, other_refs)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_threads_match_sequential_peaks(self):
        composites = [channel_composite(seed, 15.0) for seed in range(4)]
        expected = [rg.estimate_ranges(rx, refs, C).peak_samples for rx, refs in composites]
        got = {}

        def work(i):
            rx, refs = composites[i]
            got[i] = [rg.estimate_ranges(rx, refs, C).peak_samples for _ in range(5)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, peaks in enumerate(expected):
            assert all(np.array_equal(p, peaks) for p in got[i])

    def test_lent_workspaces_are_disjoint_and_reused(self):
        spaces = rg._Workspaces()
        with spaces.lend(4, 64) as a, spaces.lend(4, 64) as b:
            assert not any(np.shares_memory(x, y) for x, y in zip(a, b))
        # both came back; the next two lends get their buffers, a shorter n included
        sig_a, sig_b = a[0], b[0]
        with spaces.lend(4, 32) as (sig_c, *_), spaces.lend(4, 64) as (sig_d, *_):
            assert {id(sig_c.base), id(sig_d.base)} == {id(sig_a.base), id(sig_b.base)}

    def test_a_finished_thread_leaves_its_workspace(self):
        # a command's pool threads end with it; the next command's reuse their buffers
        spaces, lent = rg._Workspaces(), []

        def work():
            with spaces.lend(4, 64) as (signals, *_):
                lent.append(signals.base)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        with spaces.lend(4, 64) as (signals, *_):
            assert signals.base is lent[0]

    def test_steady_state_allocates_no_fft_temporaries(self):
        # correlating through scipy.fft, with its padding copies and fresh
        # spectra and products, peaks near 3 MB
        received, refs = channel_composite(0, 15.0)
        rg.estimate_ranges(received, refs, C)  # sizes the workspace it gets next
        tracemalloc.start()
        try:
            rg.estimate_ranges(received, refs, C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestFastLength:
    def test_equals_scipy_next_fast_len_up_to_2_17(self):
        got = [rg._fast_length(n) for n in range(1, 2**17 + 1)]
        want = [sp_fft.next_fast_len(n, real=True) for n in range(1, 2**17 + 1)]
        assert got == want

    def test_equals_scipy_next_fast_len_on_larger_lengths(self):
        sample = np.random.default_rng(12).integers(2**17, 10**6, size=3000, endpoint=True)
        for n in sample.tolist():
            assert rg._fast_length(n) == sp_fft.next_fast_len(n, real=True), n

    # received lengths whose fast length is a power of two, mixes all three
    # radices, is odd (3^5 * 5^3) or mostly fives (2 * 5^6), and one past each
    @pytest.mark.parametrize("n_rx", [32768, 30720, 30375, 31250, 30376, 31251])
    def test_grown_workspace_correlates_at_scipy_length(self, n_rx):
        received, refs = channel_composite(6, 15.0)
        rx = np.zeros(n_rx)
        rx[: min(n_rx, len(received))] = received.samples[:n_rx]
        received = wf.SampledSignal(samples=rx, sample_rate=FS)
        longer = wf.SampledSignal(samples=np.ones(40_000), sample_rate=FS)
        rg.cross_correlate(longer, refs)
        corr = rg.cross_correlate(received, refs)
        assert corr.shape == (4, n_rx - len(refs) + 1)
        assert np.array_equal(corr, scipy_correlation(received, refs))


def estimate_one(received, config, plan, code_row):
    """Range one beacon, its burst a one-row reference: (distance, peak sample)."""
    reference = wf.generate_tx_signals(config, plan, code_row)
    estimates = rg.estimate_ranges(received, reference, C)
    return estimates.distances[0], estimates.peak_samples[0]


class TestEstimateRange:
    def test_known_distance_within_one_sample(self, walsh4):
        config, plan, sig = coded_burst(walsh4, row_index=1)
        true_distance = 3.43
        delay = int(round(true_distance / C * FS))
        received = shifted(sig, delay, tail=100)
        distance, peak = estimate_one(received, config, plan, walsh4.row(1))
        assert abs(distance - true_distance) <= C / FS
        assert peak == delay

    def test_zero_delay_loopback(self, walsh4):
        config, plan, sig = coded_burst(walsh4, row_index=0)
        distance, peak = estimate_one(sig, config, plan, walsh4.row(0))
        assert distance == 0.0
        assert peak == 0

    def test_peak_sample_tracks_delay_exactly(self, walsh4):
        config, plan, sig = coded_burst(walsh4, row_index=3)
        _, base = estimate_one(shifted(sig, 300, tail=800), config, plan, walsh4.row(3))
        for extra in (1, 17, 500):
            _, more = estimate_one(
                shifted(sig, 300 + extra, tail=800 - extra), config, plan, walsh4.row(3)
            )
            assert more == base + extra

    def test_distance_identity(self, walsh4):
        config, plan, sig = coded_burst(walsh4, row_index=2)
        distance, peak = estimate_one(shifted(sig, 777), config, plan, walsh4.row(2))
        assert distance == pytest.approx(peak / FS * C, rel=1e-15)

    def test_all_zero_signal_raises(self, walsh4):
        config, plan, sig = coded_burst(walsh4, 0, n_bits=2)
        zeros = wf.SampledSignal(samples=np.zeros(len(sig) + 10), sample_rate=FS)
        with pytest.raises(NoPeakError):
            estimate_one(zeros, config, plan, walsh4.row(0))


class TestDecodeBits:
    def test_single_beacon_loopback(self, walsh4):
        config, plan, sig = coded_burst(walsh4, row_index=2, seed=3)
        bits = rg.decode_bits(sig, walsh4.row(2), plan, config)
        assert np.array_equal(bits, config.data_bits)

    def test_zero_tail_past_the_plan_is_ignored(self, walsh4):
        # a channel's output runs on past the burst; only the plan's symbols decode
        config, plan, sig = coded_burst(walsh4, row_index=1, n_bits=8, seed=4)
        padded = shifted(sig, 0, tail=6 * config.samples_per_symbol + 17)
        bits = rg.decode_bits(padded, walsh4.row(1), plan, config)
        assert np.array_equal(bits, config.data_bits)

    def test_four_beacon_composite_zero_errors(self, walsh4):
        rng = np.random.default_rng(9)
        plan = wf.random_hop_plan(32, seed=42)
        config = make_burst_config(wf.random_data_bits((4, 32), rng))
        sigs = wf.generate_tx_signals(config, plan, walsh4.rows[:4])
        composite = wf.SampledSignal(samples=sigs.samples.sum(axis=0), sample_rate=FS)
        for i in range(4):
            decoded = rg.decode_bits(composite, walsh4.row(i), plan, config)
            assert np.array_equal(decoded, config.data_bits[i])
