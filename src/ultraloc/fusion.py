"""Height refinement from a ceiling-facing rangefinder.

A transceiver on the drone pings the ceiling; half the round-trip time
times the speed of sound is the gap to the ceiling, and the room height
minus that gap is an independent height estimate. A convex blend with
one weight w1 on the trilateration z coordinate and 1 - w1 on that
height fuses the two. FusionConfig, the [fusion] section, runs a fix's
whole fusion step: the echo draw, the weight and the blend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_SOUND, Scene
from .dop import dop_components

DEFAULT_W1 = 0.2  # trilateration z weight; the ceiling channel is the cleaner one
ECHO_NOISE_STD = 10e-6  # seconds of round-trip timing jitter


@dataclass(frozen=True)
class FusionConfig:
    """The [fusion] section: whether a fix blends in the ceiling echo, the weight
    w1 of the trilateration z, the echo's timing jitter (s), whether inverse
    variances set the weight, and the chance an obstruction returns the echo early."""

    enabled: bool = False
    w1: float = DEFAULT_W1
    echo_noise_std: float = ECHO_NOISE_STD
    auto_weights: bool = False
    obstruction_prob: float = 0.0

    def __post_init__(self):
        _check_weight(self.w1)
        if not 0.0 <= self.obstruction_prob <= 1.0:  # NaN fails too
            raise ValueError("obstruction_prob must be a probability")
        if not self.echo_noise_std >= 0:
            raise ValueError("echo_noise_std must be non-negative")
        if self.auto_weights and self.echo_noise_std == 0:
            raise ValueError("auto_weights needs a positive echo_noise_std to weight the echo by")

    def range_stds(self, c: float, fs: float) -> tuple[float, float]:
        """The two range errors (m) auto_weights weighs by: the sample grid's,
        c / fs / sqrt(12), which the VDOP at a fix scales into the
        trilateration's, and the ceiling echo's, c * echo_noise_std / 2."""
        return c / fs / math.sqrt(12.0), c * self.echo_noise_std / 2.0

    def fused_z(self, est: np.ndarray, scene: Scene, c: float, fs: float, rng) -> float:
        """est's z with fusion off, else its blend with one ceiling echo from
        rng. auto_weights weighs by inverse variance, the range_stds squared
        with the grid's scaled by the VDOP at est (variance 1 where degenerate)."""
        if not self.enabled:
            return est[2]
        h, ceiling = float(scene.receiver_position[2]), scene.room_dims[2]
        h_echo = simulate_ceiling_echo(h, ceiling, c, self.echo_noise_std, rng, self.obstruction_prob)
        w1 = self.w1
        if self.auto_weights:
            _, vdop, _ = dop_components(scene.beacons, est[None, :])
            grid_std, echo_std = self.range_stds(c, fs)
            range_std = float(vdop[0]) * grid_std
            var_tri = range_std**2 if np.isfinite(vdop[0]) else 1.0
            w1 = inverse_variance_weights(var_tri, echo_std**2)
        return fuse_height(est[2], h_echo, w1)


def inverse_variance_weights(var1: float, var2: float) -> float:
    """The weight w1 of the first estimate, proportional to 1/variance of each."""
    if var1 <= 0 or var2 <= 0:
        raise ValueError("variances must be positive")
    return (1.0 / var1) / (1.0 / var1 + 1.0 / var2)


def simulate_ceiling_echo(
    true_height: float,
    ceiling_height: float,
    c: float = SPEED_OF_SOUND,
    noise_std: float = ECHO_NOISE_STD,
    rng: np.random.Generator | None = None,
    obstruction_prob: float = 0.0,
) -> float:
    """The height derived from one round trip of the upward-facing rangefinder.

    The noiseless round-trip time is 2 * (H - h) / c; Gaussian timing
    jitter of noise_std seconds is added when an RNG is supplied. With
    probability obstruction_prob an object between drone and ceiling
    returns the echo early. The derived height is clamped into [0, H].
    """
    if not 0.0 < true_height < ceiling_height:
        raise ValueError("true height must lie strictly between floor and ceiling")
    t = 2.0 * (ceiling_height - true_height) / c
    if rng is not None and obstruction_prob > 0 and rng.random() < obstruction_prob:
        t = rng.uniform(0.0, t)
    if rng is not None and noise_std > 0:
        t += rng.normal(0.0, noise_std)
    t = max(t, 0.0)
    gap = c * t / 2.0
    return min(max(ceiling_height - gap, 0.0), ceiling_height)


def fuse_height(z_stage1: float, h_drone: float, w1: float) -> float:
    """Blend of the trilateration z, weighted w1, and the rangefinder height, 1 - w1."""
    _check_weight(w1)
    return w1 * z_stage1 + (1.0 - w1) * h_drone


def _check_weight(w1: float) -> None:
    if not 0.0 <= w1 <= 1.0:  # NaN fails too
        raise ValueError("weight w1 must lie in [0, 1]")
