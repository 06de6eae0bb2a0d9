"""Indoor acoustic propagation model.

Sums the four beacon signals at the receiver with their direct-path
delays, adds Rayleigh-faded multipath taps per beacon, and injects white
Gaussian noise at a prescribed SNR. ChannelConfig, the [channel] config
section, describes the channel; a fix's ChannelModel carries it with the
taps sample_multipath draws from it and a noise seed. Everything is
deterministic given the model's RNG seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularGeometryError
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

# Largest magnitude of a level in dB that the channel takes (an SNR, the
# first tap's mean power): far outside any physical level and far inside
# where 10**(db / 10) overflows or underflows a float.
MAX_DB = 1000.0
# Fastest speed of sound the channel takes (m/s). No gas carries sound
# faster than hydrogen, about 1300 m/s at room temperature (air: 343 m/s),
# so more is a typo or a unit slip. Unchecked, 1e300 m/s put every flight
# time under one sample period, and simulate ran to a 2.38 m mean error.
MAX_SPEED_OF_SOUND = 2000.0

# Tap signs, indexed by a 0/1 draw as rng.choice((-1.0, 1.0)) indexes them.
_SIGNS = np.array([-1.0, 1.0])

# The six beacon pairs (i < j) of a four-beacon layout, in loop order.
BEACON_PAIRS = np.triu_indices(4, 1)


def coincident_pairs(layouts: np.ndarray) -> np.ndarray:
    """Whether each beacon pair of (..., 4, 3) layouts coincides (np.isclose
    on every coordinate), as (..., 6) in BEACON_PAIRS order."""
    i, j = BEACON_PAIRS
    x, y = layouts[..., i, :], layouts[..., j, :]
    # np.isclose(x, y)'s own expression, without the cost of its wrapper
    with np.errstate(invalid="ignore"):
        close = (np.abs(x - y) <= 1e-8 + 1e-5 * np.abs(y)) & np.isfinite(y) | (x == y)
    return close.all(axis=-1)


def full_rank(layouts: np.ndarray) -> np.ndarray:
    """Whether p_4 - p_i of (..., 4, 3) layouts have rank 3 (1e-9 m), as a
    3-D fix needs: np.linalg.matrix_rank(diffs, tol=1e-9) == 3.

    The determinant of the 3x3 difference rows A decides a layout where it
    is certain; only the rest reach matrix_rank's SVD. A's least singular
    value s3 lies between 2 |det A| / ||A||_F^2 and |det A|^(1/3). numpy's
    LU det is within 1e-13 relative of the exact det of A + E, with
    ||E|| < 2e-14 ||A||_F (partial pivoting grows a 3x3 by at most 4), and
    the SVD's s3 is within a small multiple of eps ||A||_F of A's, so
    slop = 1e-13 ||A||_F covers both. So A is rank 3 where |det| >
    ||A||_F^2 (1e-9 + slop), s3 over twice the tolerance, and below rank 3
    where |det|^(1/3) < 1e-9 / 2 - slop, s3 under half of it: a layout on
    the ceiling or on one wall, whose A has a zero column, has det exactly 0.
    """
    diffs = layouts[..., -1:, :] - layouts[..., :-1, :]
    det = np.abs(np.linalg.det(diffs))
    norm2 = np.add.reduce(diffs * diffs, axis=(-2, -1))
    slop = 1e-13 * np.sqrt(norm2)
    rank3 = np.asarray(det > norm2 * (1e-9 + slop))  # 0-d for one layout, still assignable
    undecided = ~rank3 & (det >= np.maximum(5e-10 - slop, 0.0) ** 3)
    if undecided.any():
        rank3[undecided] = np.linalg.matrix_rank(diffs[undecided], tol=1e-9) == 3
    return rank3


@dataclass(frozen=True, eq=False)  # compared by identity, as arrays have no single truth value
class BeaconLayout:
    """Positions of the four ultrasonic transmitter beacons, in meters."""

    positions: np.ndarray

    def __post_init__(self):
        # a copy, so freezing the layout's array leaves the caller's writeable
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (4, 3):
            raise ValueError(f"expected 4 beacons with xyz coordinates, got shape {pos.shape}")
        pairs = np.flatnonzero(coincident_pairs(pos))
        if pairs.size:
            i, j = np.transpose(BEACON_PAIRS)[pairs[0]]
            raise SingularGeometryError(f"beacons {i} and {j} coincide")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @functools.cached_property
    def spans_3d(self) -> bool:
        """Whether p_n - p_i have rank 3 (1e-9 m), as a 3-D fix needs; computed once."""
        return bool(full_rank(self.positions))


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
        if not ((0.0 < rx) & (rx < dims)).all():
            raise ValueError(f"receiver {rx} is not strictly inside the room {dims}")
        beacons = self.beacons.positions
        outside = ~((0.0 <= beacons) & (beacons <= dims)).all(axis=1)
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"beacon {i} at {beacons[i]} lies outside the room {dims}")
        object.__setattr__(self, "room_dims", dims)
        object.__setattr__(self, "receiver_position", rx)


@dataclass(frozen=True)
class ChannelConfig:
    """The [channel] section: the SNR in dB (None is noiseless, and +inf
    is stored as None), multipath taps per beacon with their excess-delay
    range (s), the first tap's mean power (dB) and its decay time (s), the
    speed of sound (m/s) and whether each beacon's row is divided by its
    path length (at least 1 m). Every rule on these values is stated
    here, once."""

    snr_db: float | None = 15.0
    taps_per_beacon: int = N_TAPS
    excess_delay_min: float = EXCESS_DELAY_RANGE[0]
    excess_delay_max: float = EXCESS_DELAY_RANGE[1]
    first_tap_db: float = FIRST_TAP_DB
    decay_time: float = TAP_DECAY_TIME
    speed_of_sound: float = SPEED_OF_SOUND
    distance_attenuation: bool = False

    def __post_init__(self):
        if not 0 < self.speed_of_sound <= MAX_SPEED_OF_SOUND:  # NaN fails too
            raise ValueError(
                f"speed of sound must be positive and at most {MAX_SPEED_OF_SOUND:g} m/s, "
                f"got {self.speed_of_sound:g}"
            )
        if self.snr_db == math.inf:
            object.__setattr__(self, "snr_db", None)  # one spelling of noiseless
        if self.snr_db is not None:
            _check_db("snr_db", self.snr_db)
        if self.taps_per_beacon < 0:
            raise ValueError("taps_per_beacon must be non-negative")
        if self.decay_time <= 0:
            raise ValueError("decay_time must be positive")
        lo, hi, n = self.excess_delay_min, self.excess_delay_max, self.taps_per_beacon
        if not 0 < lo < hi:
            raise ValueError("excess delay range must satisfy 0 < min < max")
        if MIN_TAP_SPACING * (n - 1) >= hi - lo:
            raise ValueError(
                f"{n} taps spaced {MIN_TAP_SPACING} s apart do not fit the excess delay range "
                f"[{lo}, {hi}] s"
            )
        _check_db("first_tap_db", self.first_tap_db)


def _check_db(name: str, level: float) -> None:
    if not -MAX_DB <= level <= MAX_DB:  # NaN fails too
        raise ValueError(f"{name} must lie in [{-MAX_DB:g}, {MAX_DB:g}] dB, got {level:g}")


@dataclass(frozen=True, eq=False)  # compared by identity, as arrays have no single truth value
class ChannelModel:
    """One fix's channel: its [channel] config and the realization drawn
    from it.

    Row i of excess_delays and tap_gains holds beacon i's reflected paths:
    delays beyond beacon i's own direct path (s, positive, so no tap
    arrives at or before it) and amplitude gains (|g| < 1), both float
    (4, n_taps) arrays, stored as read-only copies. The seed makes the
    noise realization reproducible; the taps are carried explicitly so a
    trial's channel is fully pinned down by this object. The default is a
    noiseless channel without taps.
    """

    config: ChannelConfig = ChannelConfig(snr_db=None)
    excess_delays: np.ndarray = field(default_factory=lambda: np.zeros((4, 0)))
    tap_gains: np.ndarray = field(default_factory=lambda: np.zeros((4, 0)))
    rng_seed: int = 0

    def __post_init__(self):
        delays = np.array(self.excess_delays, dtype=float)
        gains = np.array(self.tap_gains, dtype=float)
        if delays.ndim != 2 or delays.shape[0] != 4 or gains.shape != delays.shape:
            raise ValueError(
                f"expected (4, n_taps) excess delays and gains, got {delays.shape} and {gains.shape}"
            )
        if not (delays > 0).all():
            raise ValueError("excess delays must be positive")
        if not (np.abs(gains) < 1.0).all():
            raise ValueError("tap gain magnitudes must be below 1")
        delays.setflags(write=False)
        gains.setflags(write=False)
        object.__setattr__(self, "excess_delays", delays)
        object.__setattr__(self, "tap_gains", gains)


def direct_delays(scene: Scene, c: float = SPEED_OF_SOUND) -> np.ndarray:
    """One-way propagation delay from each beacon to the receiver, in seconds, shape (4,)."""
    d = scene.beacons.positions - scene.receiver_position
    # vecdot runs the same ddot kernel as the scalar np.linalg.norm(d[i]);
    # norm(d, axis=-1) rounds another way on about one pair in ten
    return np.sqrt(np.vecdot(d, d)) / c


def sample_multipath(
    rng: np.random.Generator, config: ChannelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one Rayleigh-faded multipath realization for every beacon.

    Returns (excess_delays, tap_gains), each (4, config.taps_per_beacon),
    as ChannelModel takes them. Excess delays are uniform over the
    config's excess-delay range with pairwise spacing of at least
    MIN_TAP_SPACING; the mean tap power starts first_tap_db below the
    direct path and decays exponentially with excess delay (time constant
    decay_time). Gain magnitudes are Rayleigh draws around that profile,
    clipped at MAX_TAP_GAIN, with random sign.
    """
    lo, hi, n_taps = config.excess_delay_min, config.excess_delay_max, config.taps_per_beacon
    p0 = 10.0 ** (config.first_tap_db / 10.0)
    delays = np.empty((4, n_taps))
    unit = np.empty((4, n_taps))
    picks = np.empty((4, n_taps), dtype=np.int64)
    # one beacon after another: delays, magnitudes, signs; that order fixes the stream
    for i in range(4):
        delays[i] = _spaced_uniform(rng, lo, hi, n_taps, MIN_TAP_SPACING)
        unit[i] = rng.rayleigh(size=n_taps)
        picks[i] = rng.integers(0, 2, n_taps)
    mean_power = p0 * np.exp(-(delays - lo) / config.decay_time)
    # Rayleigh scale sigma gives E[g^2] = 2 sigma^2 = mean_power; numpy draws
    # rayleigh(sigma) as sigma * sqrt(2 E), so sigma * rayleigh(1.0) has its bits
    mags = np.minimum(np.sqrt(mean_power / 2.0) * unit, MAX_TAP_GAIN)
    return delays, _SIGNS[picks] * mags


def _spaced_uniform(
    rng: np.random.Generator, lo: float, hi: float, n: int, min_spacing: float
) -> np.ndarray:
    """Sorted uniform draws on [lo, hi] with a minimum pairwise gap.

    Rejection first, so seeded draws that it finds stay as they are. If
    1000 draws miss (tight ranges), draw n sorted uniforms on the shrunk
    range [lo, hi - (n-1)*min_spacing] and shift the k-th by
    k*min_spacing: that translation maps the shrunk ordered simplex onto
    the spaced set, so it samples the same distribution as rejection.
    ChannelConfig guarantees (n-1)*min_spacing < hi - lo.
    """
    for _ in range(1000):
        # a few taps: Python floats test the gaps faster than numpy calls do
        draws = sorted(rng.uniform(lo, hi, size=n).tolist())
        if all(b - a >= min_spacing for a, b in zip(draws, draws[1:])):
            return np.array(draws)
    span = min_spacing * (n - 1)
    return np.sort(rng.uniform(lo, hi - span, size=n)) + min_spacing * np.arange(n)


def apply_channel(tx: SampledSignal, scene: Scene, model: ChannelModel) -> SampledSignal:
    """Propagate the four beacons' bursts to the receiver and add noise.

    tx holds one burst row per beacon, shape (4, n). Each beacon
    contributes its row delayed by the direct-path delay plus one
    attenuated copy per multipath tap, delayed by the direct-path delay
    plus the tap's excess delay; all delays are rounded to the nearest
    sample. With the config's distance_attenuation, each row is first
    divided by its direct path length, at least 1 m. The output is long
    enough that no delayed copy is truncated. White Gaussian noise is
    scaled so that total-signal-power / noise-power equals
    10^(snr_db/10). The SNR, the speed of sound and the attenuation are
    read from model.config.

    The copies are summed in place and in the order above: the direct row
    as it is, each tap through one reused term buffer. The noise is a
    standard-normal draw scaled in place. These are the same bits as
    adding 1.0 * row, g * row and rng.normal(0, sigma) one temporary at a
    time. tx's rows come from generate_tx_signals, whose carrier is
    gathered from the cached carrier table (see waveform).

    Raises:
        ValueError: If tx does not have 4 rows.
    """
    if tx.samples.shape[:-1] != (4,):
        raise ValueError(f"expected one burst row per beacon (4, n), got {tx.samples.shape}")
    cfg, fs, rows = model.config, tx.sample_rate, tx.samples
    tau0 = direct_delays(scene, cfg.speed_of_sound)
    if cfg.distance_attenuation:
        rows = rows / np.maximum(tau0 * cfg.speed_of_sound, 1.0)[:, None]
    # per beacon row: the direct path first, then its taps in order
    delays = np.column_stack([tau0, tau0[:, None] + model.excess_delays])
    lags = np.rint(delays * fs).astype(np.int64)
    clean = np.zeros(int(lags.max()) + len(tx))
    term = np.empty(len(tx))
    for row, (n0, *tap_lags), tap_gains in zip(rows, lags.tolist(), model.tap_gains.tolist()):
        clean[n0 : n0 + row.size] += row
        for n, g in zip(tap_lags, tap_gains):
            np.multiply(g, row, out=term)
            clean[n : n + row.size] += term

    noisy = clean
    if cfg.snr_db is not None:
        signal_power = float(np.mean(clean**2))
        noise_power = signal_power / 10.0 ** (cfg.snr_db / 10.0)
        rng = np.random.default_rng(model.rng_seed)
        # normal(0, sigma) draws the same standard normals and returns 0.0 + sigma * z
        noisy = rng.standard_normal(clean.size)
        noisy *= math.sqrt(noise_power)
        noisy += clean
    return SampledSignal(samples=noisy, sample_rate=fs)
