"""Indoor acoustic propagation model.

Sums the four beacon signals at the receiver with their direct-path
delays, adds Rayleigh-faded multipath taps per beacon, and injects white
Gaussian noise at a prescribed SNR. Everything is deterministic given the
model's RNG seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .waveform import SampledSignal

SPEED_OF_SOUND = 343.0
ROOM_DIMS = (5.0, 5.0, 4.0)

# Default multipath profile for a furnished room at desk scale: five taps
# per beacon, excess delays beyond the direct path of 3..12 ms, mean tap
# power starting 6 dB below the direct path and decaying with delay. The
# decay constant reflects how fast ultrasound reverberation dies in a
# furnished room (air absorption above 1 dB/m at 40 kHz plus lossy
# bounces), so only the earliest reflections carry real energy.
# Rayleigh gain draws are capped: an echo is a full delayed replica of
# the burst and correlates at gain * burst energy at its own lag, so a
# reflection within 4 dB of the direct path would defeat any
# time-of-arrival scheme that picks the global maximum; ultrasound loses
# more than that on any wall or object bounce. Tap delays keep a minimum
# spacing so two reflections never merge into one super-unity arrival on
# the sample grid.
N_TAPS = 5
EXCESS_DELAY_RANGE = (0.003, 0.012)
FIRST_TAP_DB = -6.0
TAP_DECAY_TIME = 0.0015
MAX_TAP_GAIN = 0.6
MIN_TAP_SPACING = 0.0003


@dataclass(frozen=True)
class BeaconLayout:
    """Positions of the four ultrasonic transmitter beacons, in meters."""

    positions: np.ndarray

    def __post_init__(self):
        # a copy, so freezing the layout's array leaves the caller's writeable
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (4, 3):
            raise ValueError(f"expected 4 beacons with xyz coordinates, got shape {pos.shape}")
        close = np.isclose(pos[:, None, :], pos[None, :, :]).all(axis=2)
        pairs = np.argwhere(np.triu(close, k=1))
        if pairs.size:
            i, j = pairs[0]
            raise ValueError(f"beacons {i} and {j} coincide")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    def __iter__(self):
        return iter(self.positions)

    @functools.cached_property
    def spans_3d(self) -> bool:
        """Whether p_n - p_i have rank 3 (1e-9 m), as a 3-D fix needs; computed once."""
        diffs = self.positions[-1] - self.positions[:-1]
        return bool(np.linalg.matrix_rank(diffs, tol=1e-9) == 3)


# Baseline beacon coordinates used by the preliminary-stage experiments,
# and the placement-optimized coordinates that the default experiments
# compare against.
ORIGINAL_LAYOUT = BeaconLayout(
    positions=np.array(
        [[2.5, 0.0, 1.5], [5.0, 2.5, 2.5], [2.5, 5.0, 2.0], [0.0, 5.0, 3.0]]
    )
)
OPTIMIZED_LAYOUT = BeaconLayout(
    positions=np.array(
        [[4.5, 0.0, 2.5], [5.0, 4.0, 3.5], [1.0, 5.0, 2.0], [1.5, 2.0, 4.0]]
    )
)


@dataclass(frozen=True)
class Scene:
    """Room box, beacon layout, and receiver position."""

    room_dims: tuple[float, float, float]
    beacons: BeaconLayout
    receiver_position: np.ndarray

    def __post_init__(self):
        dims = tuple(float(d) for d in self.room_dims)
        if any(d <= 0 for d in dims):
            raise ValueError("room dimensions must be positive")
        rx = np.asarray(self.receiver_position, dtype=float)
        if rx.shape != (3,):
            raise ValueError("receiver position must be a 3-vector")
        if not np.all((0.0 < rx) & (rx < dims)):
            raise ValueError(f"receiver {rx} is not strictly inside the room {dims}")
        beacons = self.beacons.positions
        outside = ~np.all((0.0 <= beacons) & (beacons <= dims), axis=1)
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"beacon {i} at {beacons[i]} lies outside the room {dims}")
        object.__setattr__(self, "room_dims", dims)
        object.__setattr__(self, "receiver_position", rx)


@dataclass(frozen=True, eq=False)  # compared by identity, as arrays have no single truth value
class ChannelModel:
    """Per-beacon multipath taps plus the AWGN level.

    Row i of tap_delays and tap_gains holds beacon i's reflected paths:
    absolute arrival delays (s, positive) and amplitude gains (|g| < 1),
    both float (4, n_taps) arrays, stored as read-only copies. snr_db of
    None (or +inf) disables noise. The seed makes the noise realization
    reproducible; the taps are carried explicitly so a trial's channel is
    fully pinned down by this object.
    """

    tap_delays: np.ndarray = field(default_factory=lambda: np.zeros((4, 0)))
    tap_gains: np.ndarray = field(default_factory=lambda: np.zeros((4, 0)))
    snr_db: float | None = None
    speed_of_sound: float = SPEED_OF_SOUND
    rng_seed: int = 0

    def __post_init__(self):
        if self.speed_of_sound <= 0:
            raise ValueError("speed of sound must be positive")
        delays = np.array(self.tap_delays, dtype=float)
        gains = np.array(self.tap_gains, dtype=float)
        if delays.ndim != 2 or delays.shape[0] != 4 or gains.shape != delays.shape:
            raise ValueError(
                f"expected (4, n_taps) tap delays and gains, got {delays.shape} and {gains.shape}"
            )
        if not np.all(delays > 0):
            raise ValueError("tap delays must be positive")
        if not np.all(np.abs(gains) < 1.0):
            raise ValueError("tap gain magnitudes must be below 1")
        delays.setflags(write=False)
        gains.setflags(write=False)
        object.__setattr__(self, "tap_delays", delays)
        object.__setattr__(self, "tap_gains", gains)


def direct_delays(scene: Scene, c: float = SPEED_OF_SOUND) -> np.ndarray:
    """One-way propagation delay from each beacon to the receiver, in seconds, shape (4,)."""
    d = scene.beacons.positions - scene.receiver_position
    # vecdot runs the same ddot kernel as the scalar np.linalg.norm(d[i]);
    # norm(d, axis=-1) rounds another way on about one pair in ten
    return np.sqrt(np.vecdot(d, d)) / c


def sample_multipath(
    scene: Scene,
    rng: np.random.Generator,
    n_taps: int = N_TAPS,
    excess_delay_range: tuple[float, float] = EXCESS_DELAY_RANGE,
    first_tap_db: float = FIRST_TAP_DB,
    decay_time: float = TAP_DECAY_TIME,
    c: float = SPEED_OF_SOUND,
    min_spacing: float = MIN_TAP_SPACING,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one Rayleigh-faded multipath realization for every beacon.

    Returns (tap_delays, tap_gains), each (4, n_taps), as ChannelModel
    takes them. Excess delays are uniform over excess_delay_range with
    pairwise spacing of at least min_spacing; the mean tap power starts
    first_tap_db below the direct path and decays exponentially with
    excess delay (time constant decay_time). Gain magnitudes are Rayleigh
    draws around that profile, clipped at MAX_TAP_GAIN, with random sign.
    """
    lo, hi = excess_delay_range
    if not 0 < lo < hi:
        raise ValueError("excess delay range must satisfy 0 < min < max")
    if min_spacing * (n_taps - 1) >= (hi - lo):
        raise ValueError("excess delay range too narrow for the tap spacing")
    p0 = 10.0 ** (first_tap_db / 10.0)
    tau0 = direct_delays(scene, c)
    delays = np.empty((4, n_taps))
    gains = np.empty((4, n_taps))
    # one beacon after another: delays, magnitudes, signs; that order fixes the stream
    for i in range(4):
        excess = _spaced_uniform(rng, lo, hi, n_taps, min_spacing)
        mean_power = p0 * np.exp(-(excess - lo) / decay_time)
        # Rayleigh scale sigma gives E[g^2] = 2 sigma^2 = mean_power
        mags = rng.rayleigh(scale=np.sqrt(mean_power / 2.0))
        mags = np.minimum(mags, MAX_TAP_GAIN)
        signs = rng.choice((-1.0, 1.0), size=n_taps)
        delays[i] = tau0[i] + excess
        gains[i] = signs * mags
    return delays, gains


def _spaced_uniform(
    rng: np.random.Generator, lo: float, hi: float, n: int, min_spacing: float
) -> np.ndarray:
    """Sorted uniform draws on [lo, hi] with a minimum pairwise gap.

    Rejection first, so seeded draws that it finds stay as they are. If
    1000 draws miss (tight ranges), draw n sorted uniforms on the shrunk
    range [lo, hi - (n-1)*min_spacing] and shift the k-th by
    k*min_spacing: that translation maps the shrunk ordered simplex onto
    the spaced set, so it samples the same distribution as rejection.
    The caller guarantees (n-1)*min_spacing < hi - lo.
    """
    for _ in range(1000):
        draws = np.sort(rng.uniform(lo, hi, size=n))
        if n < 2 or np.min(np.diff(draws)) >= min_spacing:
            return draws
    span = min_spacing * (n - 1)
    return np.sort(rng.uniform(lo, hi - span, size=n)) + min_spacing * np.arange(n)


def apply_channel(tx: SampledSignal, scene: Scene, model: ChannelModel) -> SampledSignal:
    """Propagate the four beacons' bursts to the receiver and add noise.

    tx holds one burst row per beacon, shape (4, n). Each beacon
    contributes its row delayed by the direct-path delay plus one
    attenuated copy per multipath tap; all delays are rounded to the
    nearest sample. The output is long enough that no delayed copy is
    truncated. White Gaussian noise is scaled so that
    total-signal-power / noise-power equals 10^(snr_db/10).

    Raises:
        ValueError: If tx does not have 4 rows, or a tap arrives no later
            than its beacon's direct path.
    """
    if tx.samples.shape[:-1] != (4,):
        raise ValueError(f"expected one burst row per beacon (4, n), got {tx.samples.shape}")
    fs = tx.sample_rate
    tau0 = direct_delays(scene, model.speed_of_sound)
    early = model.tap_delays <= tau0[:, None]
    if early.any():
        i, k = np.argwhere(early)[0]
        raise ValueError(
            f"beacon {i} tap delay {model.tap_delays[i, k]}s not beyond direct path {tau0[i]}s"
        )

    # per beacon row: the direct path first, then its taps in order
    delays = np.column_stack([tau0, model.tap_delays])
    gains = np.column_stack([np.ones(4), model.tap_gains])
    lags = np.rint(delays * fs).astype(np.int64)
    clean = np.zeros(int(lags.max()) + len(tx))
    for row, row_lags, row_gains in zip(tx.samples, lags.tolist(), gains.tolist()):
        for n, g in zip(row_lags, row_gains):
            clean[n : n + row.size] += g * row

    noisy = clean
    if model.snr_db is not None and not math.isinf(model.snr_db):
        signal_power = float(np.mean(clean**2))
        noise_power = signal_power / 10.0 ** (model.snr_db / 10.0)
        rng = np.random.default_rng(model.rng_seed)
        noisy = clean + rng.normal(0.0, math.sqrt(noise_power), size=clean.size)
    return SampledSignal(samples=noisy, sample_rate=fs)
