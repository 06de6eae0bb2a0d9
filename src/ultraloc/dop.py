"""Dilution-of-precision analysis of beacon/receiver geometry.

The unit vectors from the receiver to each beacon form a matrix whose
normal-matrix inverse maps unit range noise onto position covariance;
its diagonal yields HDOP (x-y), VDOP (z), and GDOP. One kernel,
dop_components, serves every caller. It streams the beacons one at a
time through one reused block, adding each beacon's products into the
normal matrix's six distinct entries; asked to estimate, it returns the
closed form of that diagonal from those entries wherever the matrix's
condition is certified, and inverts only the rest. A closed-form 2-D
Cramer-Rao expression is provided for cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channel import BeaconLayout
from .errors import DegenerateGeometryError, DomainDegeneracyError

CONDITION_CAP = 1e8
# (beacon, layout, point) terms up to which dop_components takes every
# beacon in one pass; a larger call streams one beacon a pass.
ONE_PASS_TERMS = 4096

# Default flight volume for desk-scale experiments: half a meter away
# from every wall, ceiling clearance of one meter, half-meter lattice.
DOMAIN_XY = (0.5, 4.5)
DOMAIN_Z = (0.5, 3.0)
DOMAIN_GRID = 0.5


@dataclass(frozen=True)
class DopReport:
    hdop: float
    vdop: float
    gdop: float


@dataclass(frozen=True)
class DroneDomain:
    """Axis-aligned flight volume discretized on a regular lattice."""

    x_range: tuple[float, float] = DOMAIN_XY
    y_range: tuple[float, float] = DOMAIN_XY
    z_range: tuple[float, float] = DOMAIN_Z
    grid_resolution: float = DOMAIN_GRID

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range, self.z_range):
            if not lo <= hi:  # NaN fails too
                raise ValueError("domain range must have min <= max")
        if not self.grid_resolution > 0:
            raise ValueError("grid resolution must be positive")

    def points(self) -> np.ndarray:
        """Lattice points covering the box, inclusive of both ends; built on
        the first call and shared, read-only, by every later one."""
        return self._lattice

    @property
    def size(self) -> int:
        """How many points points() holds, counted without building them."""
        return math.prod(
            _axis_size(lo, hi, self.grid_resolution)
            for lo, hi in (self.x_range, self.y_range, self.z_range)
        )

    @functools.cached_property
    def _lattice(self) -> np.ndarray:
        axes = [
            _inclusive_arange(lo, hi, self.grid_resolution)
            for lo, hi in (self.x_range, self.y_range, self.z_range)
        ]
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
        pts.flags.writeable = False
        return pts

    def contains(self, p: np.ndarray) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(
            self.x_range[0] <= p[0] <= self.x_range[1]
            and self.y_range[0] <= p[1] <= self.y_range[1]
            and self.z_range[0] <= p[2] <= self.z_range[1]
        )


def _inclusive_arange(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(_axis_size(lo, hi, step))


def _axis_size(lo: float, hi: float, step: float) -> int:
    """How many of lo, lo + step, lo + 2 * step, ... lie within hi + 1e-9:
    up to the step count nearest (hi - lo) / step, whose last point may
    overshoot. The cap keeps the count finite for any positive step."""
    n = round(min((hi - lo) / step, 2.0**62))
    return n + 1 if lo + step * n <= hi + 1e-9 else n


def dop_at(beacons: BeaconLayout, target: np.ndarray) -> DopReport:
    """Compute HDOP/VDOP/GDOP of the layout at one target point.

    Raises:
        DegenerateGeometryError: If the target coincides with a beacon, or
            the normal matrix is singular or its condition number exceeds
            CONDITION_CAP.
    """
    hdop, vdop, degenerate = dop_components(beacons, target)
    if degenerate[0]:
        raise DegenerateGeometryError(
            f"geometry at {np.asarray(target)} is degenerate (on a beacon or cond too high)"
        )
    h, v = float(hdop[0]), float(vdop[0])
    return DopReport(hdop=h, vdop=v, gdop=math.hypot(h, v))


def dop_components(
    beacons: BeaconLayout | np.ndarray,
    points: np.ndarray,
    estimate: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized HDOP/VDOP of one or many layouts over many points.

    beacons is one (N, 3) layout or an (L, N, 3) stack of layouts, and
    points is (P, 3). Returns (hdop, vdop, degenerate_mask), each flat
    and layout-major: (P,) for one layout, (L * P,) for a stack, with
    entry l * P + p for layout l at point p. hdop/vdop are NaN where the
    geometry is degenerate. Used by domain averaging, the placement
    optimizer's batch scoring and the fusion weights' one-point calls.

    The normal matrix M = sum_i u_i u_i^T is summed beacon by beacon in
    beacon order, so each point's M, and every result, does not depend
    on how many layouts or points share the call. Only its six distinct
    entries are kept; the full 3x3 matrices are assembled only for the
    points eigvalsh or the inverse takes.

    A point is degenerate when a beacon coincides with it or M has
    cond(M) > CONDITION_CAP. M is symmetric PSD, so
    cond(M) <= trace(M)^3 / det(M); eigvalsh therefore runs only where
    det(M) * CONDITION_CAP <= 10 * trace(M)^3. Every other point is
    well-conditioned by a factor of 10 to spare, so the mask equals the
    one eigvalsh would give at every point.

    With estimate, the 3x3 inverse runs only at the usable points the
    trace screen leaves to eigvalsh, and hdop/vdop hold the inverse's values
    there. At every other usable point they hold the closed form from M's
    entries and det(M): hdop^2 = ((bc - f^2) + (ac - e^2)) / det,
    vdop^2 = (ab - d^2) / det. There cond(M) < CONDITION_CAP / 10, so the
    closed form's relative error, like the inverse's, is a small multiple
    of 1e-16 * cond(M) < 1e-8. The degenerate mask does not change.

    A large call peaks at about 150 bytes a (layout, point) pair with
    estimate and about 290 without, where every usable point is inverted
    (tracemalloc, one layout over 173,225 points).
    """
    positions = np.asarray(
        beacons.positions if isinstance(beacons, BeaconLayout) else beacons, dtype=float
    )
    points = np.atleast_2d(np.asarray(points, dtype=float))
    layouts = positions.reshape(-1, *positions.shape[-2:])
    n_beacons = layouts.shape[1]
    n_pairs = len(layouts) * len(points)
    # One block holds a pass's unit vectors and their products, laid out
    # point-last (beacon, axis, layout-major point), and M's six distinct
    # entries. A large call streams one beacon a pass, so the block stays
    # twelve rows of n_pairs floats (cache-resident at PAIR_BUDGET) however
    # many beacons there are; a small one takes every beacon in one pass,
    # so a one-point call pays one pass's ufunc calls, not one a beacon.
    # One allocation rather than one a buffer also lets the allocator hand
    # the same pages back call after call: a default search takes about
    # 1,900 page faults, against 3,600 with three separate buffers
    # (glibc 2.36, Linux x86-64).
    per_pass = n_beacons if n_beacons * n_pairs <= ONE_PASS_TERMS else 1
    block = np.empty((6 * per_pass + 6, n_pairs))
    units = block[: 3 * per_pass].reshape(per_pass, 3, n_pairs)
    terms = block[3 * per_pass : -6].reshape(per_pass, 3, n_pairs)
    entries = block[-6:]  # rows a, b, c, d, f, e: xx, yy, zz, xy, yz, zx
    # the differences land in the unit vectors' rows, (layout, point) split
    diffs = units.reshape(per_pass, 3, len(layouts), len(points))
    beacon_cols = layouts.transpose(1, 2, 0)[..., None]
    # contiguous point rows: strided ones made the subtraction a third slower
    point_rows = np.ascontiguousarray(points.T)[:, None, :]
    r = terms[:, 0]
    on_beacon = np.empty(r.shape, dtype=bool)
    coincident = np.zeros(n_pairs, dtype=bool)
    for start in range(0, n_beacons, per_pass):
        np.subtract(beacon_cols[start : start + per_pass], point_rows, out=diffs)
        # (dx^2 + dy^2) + dz^2, the sum np.linalg.norm takes
        np.multiply(units, units, out=terms)
        r += terms[:, 1]
        r += terms[:, 2]
        np.sqrt(r, out=r)
        np.less(r, 1e-12, out=on_beacon)
        if on_beacon.any():
            coincident |= on_beacon.any(axis=0)
            r[on_beacon] = 1.0
        units /= r[:, None]
        np.multiply(units, units, out=terms)
        _add_in_order(entries[:3], terms, start)
        np.multiply(units[:, :2], units[:, 1:], out=terms[:, :2])
        np.multiply(units[:, 2], units[:, 0], out=terms[:, 2])
        _add_in_order(entries[3:], terms, start)
    a, b, c, d, f, e = entries
    # into the freed pass rows: bc - f^2, for det and the closed form, and det
    bc_ff, det = block[0], block[1]
    np.subtract(b * c, f * f, out=bc_ff)
    np.add(a * bc_ff - d * (d * c - f * e), e * (d * f - b * e), out=det)
    sure = det * CONDITION_CAP > 10.0 * (a + b + c) ** 3
    unsure = ~(coincident | sure)
    degenerate = coincident.copy()
    if unsure.any():
        eigs = np.linalg.eigvalsh(_normal_matrices(entries, unsure))
        degenerate[unsure] = (eigs[:, 0] <= 0) | (
            eigs[:, -1] / np.maximum(eigs[:, 0], 1e-300) > CONDITION_CAP
        )

    ok = ~degenerate
    if estimate:
        # the closed form at every point, then NaN where it is not certified:
        # a divide masked to the certified points took twice as long
        with np.errstate(divide="ignore", invalid="ignore"):
            hdop = (bc_ff + (a * c - e * e)) / det
            vdop = (a * b - d * d) / det
            np.sqrt(hdop, out=hdop)
            np.sqrt(vdop, out=vdop)
        uncertified = coincident | unsure
        hdop[uncertified] = vdop[uncertified] = np.nan
        ok &= unsure
    else:
        hdop = np.full(n_pairs, np.nan)
        vdop = hdop.copy()
    if ok.any():
        q = np.linalg.inv(_normal_matrices(entries, ok))
        hdop[ok] = np.sqrt(q[:, 0, 0] + q[:, 1, 1])
        vdop[ok] = np.sqrt(q[:, 2, 2])
    return hdop, vdop, degenerate


def _add_in_order(total: np.ndarray, terms: np.ndarray, first: int) -> None:
    """Add the (beacon, ...) terms of beacons first, first + 1, ... into
    total, each sum in beacon order, ((t0 + t1) + t2) + ...: a pass holds
    every beacon (first == 0) or one. Reducing the outermost axis, numpy
    adds whole rows in order; it sums pairwise only along the innermost."""
    if first:
        total += terms[0]
    else:
        np.add.reduce(terms, axis=0, out=total)


# M's nine entries, row by row, as rows of dop_components' six distinct ones
_FULL_ENTRIES = np.array([0, 3, 5, 3, 1, 4, 5, 4, 2])[:, None]


def _normal_matrices(entries: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(k, 3, 3) normal matrices of the k masked points, from the (6, n)
    rows xx, yy, zz, xy, yz, zx."""
    return entries[_FULL_ENTRIES, mask].T.reshape(-1, 3, 3)


def dop_average(beacons: BeaconLayout, domain: DroneDomain) -> tuple[float, float]:
    """Arithmetic mean of HDOP and VDOP over the domain lattice.

    Degenerate lattice points are excluded if they make up less than 1%
    of the domain, otherwise the whole domain is rejected.

    Returns:
        (hdop_avg, vdop_avg)
    """
    return domain_mean(*dop_components(beacons, domain.points()))


def domain_mean(
    hdop: np.ndarray, vdop: np.ndarray, degenerate: np.ndarray
) -> tuple[float, float]:
    """Mean HDOP and VDOP of one layout's dop_components over a lattice.

    Degenerate points are excluded if they make up at most 1% of the
    lattice; more than that rejects the layout.

    Raises:
        ValueError: If the lattice has no points.
        DomainDegeneracyError: If more than 1% of the points are degenerate.
    """
    if degenerate.size == 0:
        raise ValueError("drone domain has no lattice points")
    n_bad = int(degenerate.sum())
    if n_bad > 0.01 * degenerate.size:
        raise DomainDegeneracyError(
            f"{n_bad}/{degenerate.size} domain points have degenerate geometry"
        )
    ok = ~degenerate
    return float(hdop[ok].mean()), float(vdop[ok].mean())


def crb_2d(beacon_angles: np.ndarray, sigma_r: float) -> float:
    """Closed-form 2-D position-error bound for angular beacon geometry.

    For ranging noise sigma_r and beacons seen from the target at angles
    theta_i, evaluates sigma_r * sqrt(N_b / sum_{i<j} |sin(theta_i - theta_j)|).

    Raises:
        DegenerateGeometryError: If all pairwise angle sines vanish.
        ValueError: If fewer than 3 beacon angles are given.
    """
    angles = np.asarray(beacon_angles, dtype=float)
    if angles.size < 3:
        raise ValueError("need at least 3 beacon angles")
    pair_sum = sum(abs(np.sin(a - b)) for a, b in combinations(angles, 2))
    if pair_sum <= 0:
        raise DegenerateGeometryError("all beacon angles coincide; bound diverges")
    return float(sigma_r * np.sqrt(angles.size / pair_sum))
