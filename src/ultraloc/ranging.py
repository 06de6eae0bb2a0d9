"""Receiver chain: despreading, cross-correlation, and range estimation.

Ranging correlates the raw composite signal against each beacon's known
transmitted burst (code and hop plan included). Sliding the full coded
reference is the same computation as despreading each candidate alignment
and integrating, but stays exact for delays that are not chip-aligned.
All beacons are ranged in one pass: the received signal and the (4, n)
burst array the transmitter made go through one batched real FFT, and
one inverse transform yields every beacon's lags. Both are numpy's, at
scipy's real-transform fast length for the received signal, which
`_fast_length` computes so that the receiver loads no scipy. They run in
a workspace of zero-padded signal, spectrum and lag buffers per
reference-row count, grown only for a longer signal. Workspaces are lent
from a free list, one to each correlation running at a time, and outlive
the threads that use them: a command's pool threads end with the
command, and buffers owned by a thread would be allocated again by every
command. So a stream of fixes allocates the correlation's padded
buffers once, where the allocator would otherwise hand them back to the
kernel and fault them in again on every fix. Only those buffers are
reused: a fix's other signal-length arrays (its bursts, the channel sum
and noise, and the copy of the valid lags that callers get, never a view
of the workspace) are allocated afresh each time. The standalone
despread operation serves data recovery and diagnostics, where the
receiver clock defines the chip grid.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_SOUND
from .errors import NoPeakError
from .waveform import SampledSignal, WaveformConfig, hop_carrier


@dataclass(frozen=True, eq=False)  # compared by identity, as arrays have no single truth value
class RangeEstimates:
    """Every beacon's estimated distance and the correlation peak behind it.

    Entry i of each array belongs to reference row i: distance in meters,
    peak lag in samples, and the peak's correlation magnitude.
    """

    distances: np.ndarray
    peak_samples: np.ndarray
    peak_values: np.ndarray


def despread(
    received: SampledSignal, code_row: np.ndarray, config: WaveformConfig
) -> SampledSignal:
    """Multiply each chip interval of the received signal by its code chip.

    The chip grid starts at sample 0 of the received signal (the shared
    receiver clock). A trailing partial symbol is dropped, which leaves the
    result shorter than the received signal. A code whose chips do not
    split a symbol into whole samples raises ChipAlignmentError.
    """
    code_row = np.asarray(code_row, dtype=np.int64)
    chip_len = config.samples_per_chip(code_row.size)
    sps = config.samples_per_symbol
    samples = received.samples
    n_symbols = samples.size // sps
    code_track = np.tile(np.repeat(code_row, chip_len), n_symbols)
    out = samples[: n_symbols * sps] * code_track
    return SampledSignal(samples=out, sample_rate=received.sample_rate)


def _fast_length(n: int) -> int:
    """The smallest 2^a · 3^b · 5^c >= n, for n >= 1.

    These are the lengths pocketfft's real transforms split into radix-2,
    3 and 5 passes, so this is scipy.fft.next_fast_len(n, real=True)
    without loading scipy.
    """
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the smallest power-of-two multiple of f35 that reaches n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


class _Workspaces:
    """The correlation workspaces not lent out, each one set of buffers per
    reference-row count k."""

    def __init__(self):
        self._free: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
        self._lock = threading.Lock()

    @contextmanager
    def lend(self, k: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(k+1, n) signal, (k+1, n//2+1) spectrum and (k, n) lag buffers,
        the caller's alone until the block ends.

        Row 0 of the first two is the received signal, rows 1..k the
        references. They are views of one set of buffers per k in a
        workspace, replaced only by a longer n, so a stream of varying
        lengths allocates once.
        """
        with self._lock:
            by_rows = self._free.pop() if self._free else {}
        try:
            buffers = by_rows.get(k)
            if buffers is None or buffers[0].shape[1] < n:
                buffers = by_rows[k] = (
                    np.empty((k + 1, n)),
                    np.empty((k + 1, n // 2 + 1), dtype=complex),
                    np.empty((k, n)),
                )
            signals, spectra, lags = buffers
            yield signals[:, :n], spectra[:, : n // 2 + 1], lags[:, :n]
        finally:
            with self._lock:
                self._free.append(by_rows)


_workspaces = _Workspaces()


def cross_correlate(received: SampledSignal, reference: SampledSignal) -> np.ndarray:
    """Sliding inner product of each reference row against the received signal.

    Returns one value per lag L in [0, len(received) - len(reference)]:
    sum_k received[k+L] * reference[..., k], with the reference's leading
    shape: a 1-D reference gives a 1-D array, a (k, m) burst array one row
    per beacon. The received signal and all reference rows are zero-padded
    to the fast length n >= len(received) and transformed in one batched
    real FFT; a circular correlation of that length does not wrap on these
    lags. The work runs in a reused workspace lent to this call alone,
    and the result is a fresh array.
    """
    m = len(reference)
    if len(received) == 0 or m == 0:
        raise ValueError("signals must be nonempty")
    if m > len(received):
        raise ValueError("reference must not be longer than the received signal")
    if reference.sample_rate != received.sample_rate:
        raise ValueError("sample rates differ between received and reference")
    refs = np.atleast_2d(reference.samples)
    k, n_rx = len(refs), len(received)
    n = _fast_length(n_rx)
    with _workspaces.lend(k, n) as (signals, spectra, lags):
        signals[0, :n_rx] = received.samples
        signals[0, n_rx:] = 0.0
        signals[1:, :m] = refs
        signals[1:, m:] = 0.0
        np.fft.rfft(signals, axis=-1, out=spectra)
        products = np.conjugate(spectra[1:], out=spectra[1:])
        # rx · conj(ref), as written; conj(ref) · rx moves the last bits
        np.multiply(spectra[0], products, out=products)
        np.fft.irfft(products, n, axis=-1, out=lags)
        valid = lags[:, : n_rx - m + 1]
        return valid[0].copy() if reference.samples.ndim == 1 else valid.copy()


def estimate_ranges(
    received: SampledSignal,
    references: SampledSignal,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> RangeEstimates:
    """Estimate the distance to every beacon from the composite signal.

    Row i of references is beacon i's transmitted burst; a 1-D reference
    counts as one row. One correlation pass covers all of them; each
    beacon's peak is the global maximum of its correlation magnitude,
    converted to meters via
    distance = peak_sample / sample_rate * speed_of_sound.

    Raises:
        NoPeakError: If the received signal is identically zero.
    """
    if not received.samples.any():
        raise NoPeakError("received signal is all zeros; no correlation peak")
    # cross_correlate returns a fresh array, so its magnitude is taken in place
    magnitude = np.atleast_2d(cross_correlate(received, references))
    np.abs(magnitude, out=magnitude)
    peaks = np.argmax(magnitude, axis=1)
    return RangeEstimates(
        distances=peaks / received.sample_rate * speed_of_sound,
        peak_samples=peaks,
        peak_values=magnitude[np.arange(len(peaks)), peaks],
    )


def decode_bits(
    received: SampledSignal,
    code_row: np.ndarray,
    hops: np.ndarray,
    config: WaveformConfig,
) -> np.ndarray:
    """Recover one beacon's data bits from a time-aligned composite signal.

    Despreads with the beacon's code, demodulates each symbol against the
    known hopped carrier (hop indices hops over the config's bank), and
    slices the sign of the integral. Walsh orthogonality cancels the other
    beacons' contributions per symbol. Only the hopped symbols are
    decoded: a received signal runs on past the burst (a channel's delays
    and echoes lengthen it), and a short one gives the whole symbols it
    holds.
    """
    y = despread(received, code_row, config).samples
    sps = config.samples_per_symbol
    n_symbols = min(y.size // sps, len(hops))
    carrier = hop_carrier(config, hops, n_symbols)
    per_symbol = (y[: n_symbols * sps] * carrier).reshape(n_symbols, sps).sum(axis=1)
    bits = np.where(per_symbol >= 0, 1, -1).astype(np.int64)
    return bits
