"""Hybrid FH-CDMA transmit waveform generation.

Each beacon transmits BPSK data bits spread by a Walsh-Hadamard code row
(walsh_order chips per bit) and carried on a sinusoid whose frequency
hops once per symbol over a bank of ultrasonic channels. All beacons
share one hop sequence; the orthogonal codes keep them separable at the
receiver, one code row per beacon.

WaveformConfig, the [waveform] config section, describes every burst. A
burst is built from it and three plain arrays: the hop indices
(random_hop_plan), the code rows (walsh_rows) and the data bits.

What every fix of a run shares is computed once and cached read-only:
the Walsh rows a burst codes with and a carrier table holding every
channel's sinusoid over the whole burst, (n_channels, n_symbols,
samples/symbol), from which hop_carrier gathers each symbol's dwell. The
table is built with the same elementwise expression as a per-fix
carrier, so its bits are the same. It is cached only while it fits
CARRIER_TABLE_BUDGET bytes (1 MB for the default bank); a larger bank
computes its carrier per call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ChipAlignmentError

# Ultrasonic band defaults: six 5-kHz channels between 20 and 50 kHz,
# sampled fast enough that every channel stays well below Nyquist.
SAMPLE_RATE = 340_000.0
CENTER_FREQUENCIES = (22_500.0, 27_500.0, 32_500.0, 37_500.0, 42_500.0, 47_500.0)
CHANNEL_BANDWIDTH = 5_000.0
SYMBOL_DURATION = 0.002
WALSH_ORDER = 4
BURST_BITS = 32
HOP_REUSE_WINDOW = 2

# Largest carrier table kept in the cache, in bytes; a bank and burst
# whose table would exceed it compute their carrier per call instead.
CARRIER_TABLE_BUDGET = 4 * 2**20


@functools.lru_cache(maxsize=8)
def walsh_rows(order: int, n_rows: int) -> np.ndarray:
    """The first n_rows rows of the Sylvester matrix of a power-of-two
    order, read-only and built once: row i, column j is
    (-1)^popcount(i & j), so distinct rows have exactly zero dot product,
    row 0 is all +1, and a burst's few codes of a long order cost
    n_rows * order entries, not order**2.

    Raises:
        ValueError: If order is not a positive power of two or n_rows is
            not in [1, order].
    """
    if order < 1 or order & (order - 1) != 0:
        raise ValueError(f"Walsh-Hadamard order must be a power of two, got {order}")
    if not 1 <= n_rows <= order:
        raise ValueError(f"cannot take {n_rows} rows of a Walsh-Hadamard matrix of order {order}")
    parity = np.bitwise_count(np.arange(n_rows)[:, None] & np.arange(order)) & 1
    rows = 1 - 2 * parity.astype(np.int64)
    rows.setflags(write=False)
    return rows


def random_hop_plan(
    n_symbols: int,
    seed: int,
    n_channels: int = len(CENTER_FREQUENCIES),
    reuse_window: int = HOP_REUSE_WINDOW,
) -> np.ndarray:
    """Draw a seeded pseudo-random (n_symbols,) int64 sequence of channel
    indices in [0, n_channels), one per symbol, shared by transmitter and
    receiver.

    reuse_window forbids a symbol from reusing any of the previous
    reuse_window symbols' channels. Echoes delayed by up to that many
    symbol durations then always land on a foreign-frequency dwell and
    cannot interfere with the direct path's correlation peak. The window
    must leave at least two admissible channels so the sequence stays
    random; with one channel there is nothing to block, so it must be 0.
    """
    if n_channels < 1:
        raise ValueError("hop plan needs at least one channel")
    if not 0 <= reuse_window <= max(n_channels - 2, 0):
        raise ValueError(
            f"reuse_window must be in [0, {max(n_channels - 2, 0)}] for {n_channels} channels"
        )
    rng = np.random.default_rng(seed)
    # symbol k picks among n_channels minus its min(k, window) distinct
    # blocked channels; one array draw consumes the stream as a draw per
    # symbol does
    picks = rng.integers(0, n_channels - np.minimum(np.arange(n_symbols), reuse_window))
    seq: list[int] = []
    for k, pick in enumerate(picks.tolist()):
        # the pick-th channel not blocked: step past each blocked channel at
        # or below it, lowest first (the blocked channels are distinct)
        for blocked in sorted(seq[max(0, k - reuse_window) : k]):
            if blocked <= pick:
                pick += 1
        seq.append(pick)
    return np.array(seq, dtype=np.int64)


@dataclass(frozen=True)
class WaveformConfig:
    """The [waveform] section: sampling, symbol, a channel bank in Hz (in
    [20 kHz, 50 kHz], CHANNEL_BANDWIDTH apart, below Nyquist), carrier
    phase in radians, code length in chips and hop reuse window."""

    sample_rate: float = SAMPLE_RATE
    symbol_duration: float = SYMBOL_DURATION
    center_frequencies: tuple[float, ...] = CENTER_FREQUENCIES
    burst_bits: int = BURST_BITS
    carrier_phase: float = 0.0
    walsh_order: int = WALSH_ORDER
    hop_reuse_window: int = HOP_REUSE_WINDOW

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.symbol_duration <= 0:
            raise ValueError("symbol_duration must be positive")
        if self.walsh_order < 1:
            raise ValueError("walsh_order must be positive")
        if self.burst_bits < 1:
            raise ValueError("burst_bits must be positive")
        bank = tuple(self.center_frequencies)
        freqs = np.asarray(bank, dtype=float)
        if freqs.size == 0:
            raise ValueError("hop plan needs at least one channel")
        if not ((20_000.0 <= freqs) & (freqs <= 50_000.0)).all():  # NaN fails too
            raise ValueError("channel centers must lie within [20 kHz, 50 kHz]")
        spacing = np.diff(np.sort(freqs))
        if spacing.size and spacing.min() < CHANNEL_BANDWIDTH - 1e-9:
            raise ValueError(
                f"adjacent channels overlap: centers must be at least {CHANNEL_BANDWIDTH:g} Hz apart"
            )
        f_max = float(freqs.max())
        if self.sample_rate < 2.0 * f_max:
            raise ValueError(f"sample rate {self.sample_rate} Hz below Nyquist for {f_max} Hz carrier")
        object.__setattr__(self, "center_frequencies", bank)

    @property
    def samples_per_symbol(self) -> int:
        n = self.symbol_duration * self.sample_rate
        n_int = int(round(n))
        if abs(n - n_int) > 1e-6:
            raise ChipAlignmentError(
                f"symbol_duration * sample_rate = {n} is not a whole number of samples"
            )
        if n_int < 1:
            raise ChipAlignmentError(
                f"symbol_duration * sample_rate = {n:g} is shorter than one sample"
            )
        return n_int

    def samples_per_chip(self, n_chips: int) -> int:
        """Samples in each chip of an n_chips code; ChipAlignmentError
        unless the chips split a symbol into whole samples."""
        sps = self.samples_per_symbol
        if sps % n_chips != 0:
            raise ChipAlignmentError(f"{sps} samples/symbol not divisible by code length {n_chips}")
        return sps // n_chips

    def bursts(self, plan_seed: int, data_bits: np.ndarray) -> SampledSignal:
        """The (k, n) bursts of (k, n_bits) data_bits, coded by the first k
        Walsh rows, under a hop plan of burst_bits symbols drawn from
        plan_seed. Chip alignment is checked before the Walsh rows are
        built, so a walsh_order that cannot code a symbol fails without
        allocating them."""
        hops = random_hop_plan(
            self.burst_bits, plan_seed, len(self.center_frequencies), self.hop_reuse_window
        )
        self.samples_per_chip(self.walsh_order)
        codes = walsh_rows(self.walsh_order, len(data_bits))
        return generate_tx_signals(self, hops, codes, data_bits)


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real-valued waveform: (n,) or one row per beacon."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        samples = np.asarray(self.samples, dtype=float)
        if not np.isfinite(samples).all():
            raise ValueError("signal samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[-1]


def hop_carrier(config: WaveformConfig, hops: np.ndarray, n_symbols: int) -> np.ndarray:
    """Unit sinusoid at each symbol's hop channel, sin(2*pi*f_m*t + phase),
    where symbol m dwells on channel hops[m] of the config's bank.

    The argument uses global time t = n / sample_rate, so the carrier is
    continuous in time but may jump in phase at a hop boundary. Each
    symbol's dwell is gathered from the cached carrier table of the bank;
    a table over CARRIER_TABLE_BUDGET is not cached, and the carrier is
    then computed here from the same expression. Either way the result is
    a fresh array with the same bits.

    Raises:
        ValueError: If hops is shorter than n_symbols or does not index the bank.
    """
    hops = np.asarray(hops)
    if hops.size < n_symbols:
        raise ValueError(f"hop sequence of {hops.size} symbols is shorter than {n_symbols}")
    hops = hops[:n_symbols]
    bank = config.center_frequencies
    if hops.size and (hops.min() < 0 or hops.max() >= len(bank)):
        raise ValueError("hop sequence entries must index the channel list")
    sps = config.samples_per_symbol
    table = _carrier_table(bank, config.sample_rate, sps, n_symbols, config.carrier_phase)
    if table is not None:
        return table[hops, np.arange(n_symbols)].reshape(-1)
    f_per_sample = np.repeat(np.asarray(bank, dtype=float)[hops], sps)
    t = np.arange(n_symbols * sps) / config.sample_rate
    return _sinusoid(f_per_sample, t, config.carrier_phase)


def _sinusoid(f: np.ndarray, t: np.ndarray, phase: float) -> np.ndarray:
    """sin(2*pi*f*t + phase), elementwise over broadcast f and t, so each
    sample's bits depend only on its own f, t and phase. The phase and the
    sine are applied in place, so a table build holds one table's worth of
    temporaries, not three."""
    arg = 2.0 * np.pi * f * t
    arg += phase
    return np.sin(arg, out=arg)


@functools.lru_cache(maxsize=4)
def _carrier_table(
    center_frequencies: tuple[float, ...],
    sample_rate: float,
    samples_per_symbol: int,
    n_symbols: int,
    carrier_phase: float,
) -> np.ndarray | None:
    """Every channel's carrier over the burst, read-only, shaped (n_channels,
    n_symbols, samples_per_symbol); None if it would exceed
    CARRIER_TABLE_BUDGET bytes."""
    n_samples = n_symbols * samples_per_symbol
    if len(center_frequencies) * n_samples * 8 > CARRIER_TABLE_BUDGET:
        return None
    freqs = np.asarray(center_frequencies, dtype=float)
    t = np.arange(n_samples) / sample_rate
    table = _sinusoid(freqs[:, None], t, carrier_phase)
    table = table.reshape(len(freqs), n_symbols, samples_per_symbol)
    table.setflags(write=False)
    return table


def generate_tx_signals(
    config: WaveformConfig, hops: np.ndarray, codes: np.ndarray, data_bits: np.ndarray
) -> SampledSignal:
    """Synthesize FH-CDMA bursts over one shared carrier.

    data_bits is (n_bits,) for one beacon or (k, n_bits) for k beacons,
    and codes has the bits' leading shape: one code row for (n_bits,) bits
    gives an (n_samples,) burst, k rows for (k, n_bits) bits a (k,
    n_samples) burst array. Every data bit is spread into len(code_row)
    chips; the chips of one symbol gate a unit-amplitude sinusoid at that
    symbol's hop channel, hops[m]. The carrier (hop_carrier) is built once
    and each burst row is exactly its chip sequence times that carrier.

    Raises:
        ChipAlignmentError: If chips do not align to whole samples.
        ValueError: If the bits or codes are not nonempty +/-1 arrays of
            one leading shape, or the hop sequence is shorter than the data.
    """
    bits = np.asarray(data_bits, dtype=np.int64)
    if bits.ndim not in (1, 2) or bits.size == 0:
        raise ValueError("data_bits must be a nonempty (n_bits,) or (k, n_bits) array")
    if not (np.abs(bits) == 1).all():
        raise ValueError("data_bits must be +1/-1 valued")
    codes = np.asarray(codes, dtype=np.int64)
    if codes.shape[:-1] != bits.shape[:-1] or codes.shape[-1] == 0:
        raise ValueError("need one nonempty code row per row of data bits")
    if not (np.abs(codes) == 1).all():
        raise ValueError("code rows must be +/-1 sequences")
    n_bits, n_chips = bits.shape[-1], codes.shape[-1]
    chip_len = config.samples_per_chip(n_chips)
    carrier = hop_carrier(config, hops, n_bits)
    # each chip (+/-1, so the products are exact) gates its slice of the
    # carrier, (..., n_bits, n_chips, 1) against (n_bits, n_chips, chip_len)
    chips = (bits[..., None] * codes[..., None, :]).astype(float)[..., None]
    samples = (chips * carrier.reshape(n_bits, n_chips, chip_len)).reshape(*bits.shape[:-1], -1)
    return SampledSignal(samples=samples, sample_rate=config.sample_rate)


def random_data_bits(shape: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Draw +/-1 data bits; one (k, n) draw equals k n-bit draws, state included."""
    return rng.choice(np.array([-1, 1], dtype=np.int64), size=shape)
