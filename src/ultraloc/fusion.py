"""Height refinement from a ceiling-facing rangefinder.

A transceiver on the drone pings the ceiling; half the round-trip time
times the speed of sound is the gap to the ceiling, and the room height
minus that gap is an independent height estimate. A convex blend with
one weight w1 on the trilateration z coordinate and 1 - w1 on that
height fuses the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_SOUND

DEFAULT_W1 = 0.2  # trilateration z weight; the ceiling channel is the cleaner one
ECHO_NOISE_STD = 10e-6  # seconds of round-trip timing jitter


@dataclass(frozen=True)
class HeightMeasurement:
    """One ceiling-echo reading and the height derived from it."""

    round_trip_time: float
    ceiling_height: float
    derived_height: float

    def __post_init__(self):
        if not 0.0 <= self.derived_height <= self.ceiling_height:
            raise ValueError("derived height must lie within [0, ceiling height]")


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
) -> HeightMeasurement:
    """Simulate one round trip of the upward-facing rangefinder.

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
    derived = min(max(ceiling_height - gap, 0.0), ceiling_height)
    return HeightMeasurement(
        round_trip_time=t, ceiling_height=ceiling_height, derived_height=derived
    )


def fuse_height(z_stage1: float, h_drone: float, w1: float) -> float:
    """Blend of the trilateration z, weighted w1, and the rangefinder height, 1 - w1."""
    if not 0.0 <= w1 <= 1.0:
        raise ValueError("weight w1 must lie in [0, 1]")
    return w1 * z_stage1 + (1.0 - w1) * h_drone
