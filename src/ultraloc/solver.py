"""Linearized least-squares trilateration.

Differencing the squared-range sphere equations against a reference
beacon removes the quadratic unknowns and leaves a linear system in the
receiver coordinates, solved by an orthogonal-factorization least-squares
routine rather than explicit normal equations.
"""

from __future__ import annotations

import numpy as np

from .channel import BeaconLayout
from .errors import SingularGeometryError


def trilaterate(beacons: BeaconLayout, ranges: np.ndarray) -> np.ndarray:
    """Solve for the (3,) receiver position from beacon distances.

    Uses the last beacon as the reference row. For beacon i with position
    p_i and measured range d_i, the rows are

        a_i = 2 * (p_n - p_i)
        b_i = d_i^2 - d_n^2 - |p_i|^2 + |p_n|^2

    and the returned position is the least-squares solution of A x = b.
    N beacons give N - 1 rows: four make A 3x3 and exactly determined,
    more an overdetermined least-squares fit. How well the ranges agree
    shows in the range residuals d_i - |x - p_i|: N - 3 degrees of freedom.

    Raises:
        SingularGeometryError: If the beacons are collinear/coplanar so A
            loses column rank (BeaconLayout.spans_3d).
        ValueError: If the ranges are not one per beacon or any is negative.
    """
    positions = np.asarray(beacons.positions, dtype=float)
    d = np.asarray(ranges, dtype=float)
    if d.shape != (positions.shape[0],):
        raise ValueError(
            f"expected {positions.shape[0]} ranges, got shape {d.shape}"
        )
    if (d < 0).any():
        raise ValueError("ranges must be nonnegative")
    if not beacons.spans_3d:
        raise SingularGeometryError(
            "beacon geometry is rank-deficient (coplanar or collinear layout)"
        )

    ref = positions[-1]
    others = positions[:-1]
    a_mat = 2.0 * (ref - others)
    b_vec = (
        d[:-1] ** 2
        - d[-1] ** 2
        - np.sum(others**2, axis=1)
        + np.sum(ref**2)
    )
    x, _, _, _ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    return x
