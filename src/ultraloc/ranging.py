"""Receiver chain: despreading, cross-correlation, and range estimation.

Ranging correlates the raw composite signal against each beacon's known
transmitted burst (code and hop plan included). Sliding the full coded
reference is the same computation as despreading each candidate alignment
and integrating, but stays exact for delays that are not chip-aligned.
All beacons are ranged in one pass: the received signal is transformed
once, the (4, n) burst array the transmitter made is the reference, and
one batched real-FFT correlation yields every beacon's lags. The
standalone despread operation serves data recovery and diagnostics, where
the receiver clock defines the chip grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .channel import SPEED_OF_SOUND
from .errors import NoPeakError
from .waveform import HopPlan, SampledSignal, WaveformConfig, hop_carrier


@dataclass(frozen=True)
class RangeEstimate:
    """One beacon's estimated distance and the correlation peak behind it."""

    beacon_index: int
    distance: float
    peak_sample: int
    peak_value: float


@dataclass(frozen=True)
class DespreadResult:
    """Despread waveform plus a flag for a discarded trailing partial symbol."""

    signal: SampledSignal
    truncated: bool


def despread(
    received: SampledSignal, code_row: np.ndarray, config: WaveformConfig
) -> DespreadResult:
    """Multiply each chip interval of the received signal by its code chip.

    The chip grid starts at sample 0 of the received signal (the shared
    receiver clock). A trailing partial symbol is dropped and flagged.
    """
    code_row = np.asarray(code_row, dtype=np.int64)
    sps = config.samples_per_symbol
    if sps % code_row.size != 0:
        raise ValueError(
            f"code length {code_row.size} does not divide {sps} samples/symbol"
        )
    chip_len = sps // code_row.size
    samples = received.samples
    n_whole = (samples.size // sps) * sps
    truncated = n_whole != samples.size
    n_symbols = n_whole // sps
    code_track = np.tile(np.repeat(code_row, chip_len), n_symbols)
    out = samples[:n_whole] * code_track
    return DespreadResult(
        signal=SampledSignal(samples=out, sample_rate=received.sample_rate),
        truncated=truncated,
    )


def cross_correlate(received: SampledSignal, reference: SampledSignal) -> np.ndarray:
    """Sliding inner product of each reference row against the received signal.

    Returns one value per lag L in [0, len(received) - len(reference)]:
    sum_k received[k+L] * reference[..., k], with the reference's leading
    shape: a 1-D reference gives a 1-D array, a (k, m) burst array one row
    per beacon. The received signal is transformed once, all reference
    rows in one batched real FFT, both at the fast length
    n >= len(received); a circular correlation of that length does not
    wrap on these lags.
    """
    m = len(reference)
    if len(received) == 0 or m == 0:
        raise ValueError("signals must be nonempty")
    if m > len(received):
        raise ValueError("reference must not be longer than the received signal")
    if reference.sample_rate != received.sample_rate:
        raise ValueError("sample rates differ between received and reference")
    n = sp_fft.next_fast_len(len(received), real=True)
    rx_spec = sp_fft.rfft(received.samples, n)
    ref_spec = sp_fft.rfft(reference.samples, n, axis=-1)
    return sp_fft.irfft(rx_spec * ref_spec.conj(), n, axis=-1)[..., : len(received) - m + 1]


def estimate_ranges(
    received: SampledSignal,
    references: SampledSignal,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> list[RangeEstimate]:
    """Estimate the distance to every beacon from the composite signal.

    Row i of references is beacon i's transmitted burst; a 1-D reference
    counts as one row. One correlation pass covers all of them; each
    beacon's peak is the global maximum of its correlation magnitude,
    converted to meters via
    distance = peak_sample / sample_rate * speed_of_sound.

    Raises:
        NoPeakError: If the received signal is identically zero.
    """
    if not np.any(received.samples):
        raise NoPeakError("received signal is all zeros; no correlation peak")
    corr = np.atleast_2d(cross_correlate(received, references))
    peaks = np.argmax(np.abs(corr), axis=1)
    return [
        RangeEstimate(
            beacon_index=i,
            distance=int(peak) / received.sample_rate * speed_of_sound,
            peak_sample=int(peak),
            peak_value=float(abs(corr[i, peak])),
        )
        for i, peak in enumerate(peaks)
    ]


def decode_bits(
    received: SampledSignal,
    code_row: np.ndarray,
    plan: HopPlan,
    config: WaveformConfig,
) -> np.ndarray:
    """Recover one beacon's data bits from a time-aligned composite signal.

    Despreads with the beacon's code, demodulates each symbol against the
    known hopped carrier, and slices the sign of the integral. Walsh
    orthogonality cancels the other beacons' contributions per symbol.
    """
    result = despread(received, code_row, config)
    y = result.signal.samples
    sps = config.samples_per_symbol
    n_symbols = y.size // sps
    carrier = hop_carrier(plan, config.sample_rate, sps, n_symbols)
    per_symbol = (y[: n_symbols * sps] * carrier).reshape(n_symbols, sps).sum(axis=1)
    bits = np.where(per_symbol >= 0, 1, -1).astype(np.int64)
    return bits
