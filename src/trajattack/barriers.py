"""Soft trajectory constraints as log barriers.

Two distance notions between a perturbed trajectory and its reference:
the time distance compares positions at matched time indices; the
trajectory distance is the distance to the reference polyline (minimum
over its segments), which permits longitudinal sliding along the path.
A barrier term is -ln(d_max - d), finite only while d < d_max; reaching
d_max is an infeasibility the optimizer must handle by shrinking its
step.

The time_traj observed form bounds the whole past by the trajectory
distance and additionally pins the prediction point (the last observed
position) by the time distance, so the target still reaches the turn
entry on time.

A BarrierSide holds one form against one reference, with the reference
polyline's segment geometry derived once.  Its measure takes a stack of
trajectories and returns their constrained distances together with the
arrays they came from (offsets to every reference point, the
point-to-segment table); its pullback forms the barrier term and its
gradient from one trajectory's slice of that measurement.  The attack
measures the halving candidates once and hands the accepted candidate's
slice to the gradient, so the step-size control and the barrier read the
same table.  constraint_distances and barrier_grad are the one-trajectory
use of the same two methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, check_numeric_fields, hypot_grad

OBSERVED_MODES = ("time", "time_traj")
FUTURE_MODES = ("none", "traj")
MODES = ("time", "traj", "time_traj")


class InfeasibleError(RuntimeError):
    """A constrained distance reached d_max; the current step is unusable."""


@dataclass(frozen=True)
class BarrierConfig:
    """Barrier threshold and which constraint form applies to each side."""

    d_max: float = 0.9
    observed_mode: str = "time"
    future_mode: str = "none"

    def __post_init__(self):
        check_numeric_fields(self)
        if not (self.d_max > 0.0):
            raise ConfigError(f"d_max must be positive, got {self.d_max}")
        if self.observed_mode not in OBSERVED_MODES:
            raise ConfigError(
                f"observed_mode {self.observed_mode!r} not in {OBSERVED_MODES}")
        if self.future_mode not in FUTURE_MODES:
            raise ConfigError(
                f"future_mode {self.future_mode!r} not in {FUTURE_MODES}")


class BarrierSide:
    """One barrier form against one reference trajectory.

    rows selects the constrained points from the x, y rows measure is
    given (all of them by default).  For the polyline forms the segment
    geometry is derived here, once: segment j runs from reference point j
    (its start b) to j + 1 (its end c); it keeps the direction (ux, uy) =
    b - c, the squared length, the squared length with degenerate segments
    set to 1, the length and the degenerate mask.
    n_parts is the number of arrays measure hands the pullback.
    """

    def __init__(self, mode, ref_pts, rows=slice(None)):
        if mode not in MODES:
            raise ConfigError(f"unknown barrier mode {mode!r}")
        ref = np.asarray(ref_pts, dtype=float)
        self.mode = mode
        self.rows = rows
        self.n_parts = 4 if mode == "time_traj" else 3
        if mode == "time":
            self.ref_x, self.ref_y = ref[..., 0], ref[..., 1]
            return
        if ref.ndim != 2 or ref.shape[1] != 2 or len(ref) < 2:
            raise DataError("reference polyline needs shape (N>=2, 2)")
        self.ref_x, self.ref_y = ref[:, 0].copy(), ref[:, 1].copy()
        self.ux = self.ref_x[:-1] - self.ref_x[1:]
        self.uy = self.ref_y[:-1] - self.ref_y[1:]
        self.seg2 = self.ux * self.ux + self.uy * self.uy
        self.degenerate = self.seg2 == 0.0
        self.safe2 = np.where(self.degenerate, 1.0, self.seg2)
        self.seg = np.sqrt(self.safe2)

    def measure(self, x, y):
        """Constrained distances (..., M) of trajectories given as x, y rows
        (..., N), and the parts the pullback reads.

        "time": the matched-index displacement per point; parts are the
        offsets and the distances.  "traj": the polyline distance per
        point; parts are the offsets (..., N, R) to every reference point
        and the point-to-segment table (..., N, S).  "time_traj": the
        polyline distances and then the final point's matched
        displacement, which is also the fourth part.
        """
        x = x[..., self.rows]
        y = y[..., self.rows]
        if self.mode == "time":
            if x.shape[-1] != self.ref_x.shape[-1]:
                raise DataError("matched distances: trajectories differ in length")
            ox = x - self.ref_x
            oy = y - self.ref_y
            d = np.hypot(ox, oy)
            return d, (ox, oy, d)
        ox = x[..., None] - self.ref_x
        oy = y[..., None] - self.ref_y
        table = self._segment_table(ox, oy)
        d = table.min(axis=-1)
        if self.mode == "traj":
            return d, (ox, oy, table)
        pinned = np.hypot(ox[..., -1:, -1], oy[..., -1:, -1])
        return np.concatenate([d, pinned], axis=-1), (ox, oy, table, pinned)

    def _segment_table(self, ox, oy):
        """Distance of each point to every segment, from its offsets to every
        reference point.  The nearest point of segment j is its end c = ref
        j + 1 where r <= 0 (or the segment is degenerate), its start b where
        r >= 1, and the foot of the perpendicular in between."""
        norm = np.hypot(ox, oy)
        wx, wy = ox[..., 1:], oy[..., 1:]
        r = (wx * self.ux + wy * self.uy) / self.safe2
        d_perp = np.abs(wx * self.uy - wy * self.ux) / self.seg
        low = (r <= 0.0) | self.degenerate
        return np.where(low, norm[..., 1:], np.where(r < 1.0, d_perp, norm[..., :-1]))

    def pullback(self, parts, d_max):
        """Barrier term and its gradient wrt the side's points, (N, 2), from
        one trajectory's parts.

        The nearest segment is the table's first minimizer; r and the cross
        product are formed again at that entry only, and the gradient
        follows its active branch, with the zero subgradient at a norm or
        absolute-value kink.
        """
        if self.mode == "time":
            ox, oy, d = parts
            return _mean_log_barrier(d, np.column_stack(hypot_grad(ox, oy, d)), d_max)
        ox, oy, table = parts[:3]
        rows = np.arange(len(table))
        j = np.argmin(table, axis=1)
        dist = table[rows, j]
        wx, wy = ox[rows, j + 1], oy[rows, j + 1]
        bx, by = ox[rows, j], oy[rows, j]
        ux, uy = self.ux[j], self.uy[j]
        r = (wx * ux + wy * uy) / self.safe2[j]
        kind = np.where((r <= 0.0) | self.degenerate[j], 0, np.where(r < 1.0, 1, 2))
        gcx, gcy = hypot_grad(wx, wy, dist)
        gbx, gby = hypot_grad(bx, by, dist)
        s = np.sign(wx * uy - wy * ux) / self.seg[j]
        grad_d = np.column_stack([np.choose(kind, (gcx, s * uy, gbx)),
                                  np.choose(kind, (gcy, -s * ux, gby))])
        total, grad = _mean_log_barrier(dist, grad_d, d_max)
        if self.mode == "traj":
            return total, grad
        pinned = parts[3]
        pin, g_last = _mean_log_barrier(
            pinned, np.column_stack(hypot_grad(ox[-1:, -1], oy[-1:, -1], pinned)), d_max)
        grad[-1] += g_last[0]
        return total + pin, grad


def _mean_log_barrier(d, grad_d, d_max):
    """Mean of -ln(d_max - d) and its gradient, from per-point gradients of d."""
    if d.max() >= d_max:
        raise InfeasibleError(f"constrained distance {d.max():.6g} >= d_max {d_max:.6g}")
    gap = d_max - d
    n = len(d)
    return -np.log(gap).sum() / n, grad_d / (gap * n)[:, None]


def _xy(points):
    pts = np.asarray(points, dtype=float)
    return pts[..., 0], pts[..., 1]


def constraint_distances(points, ref_pts, mode):
    """All distances a barrier form constrains, along the last axis.

    points may stack several trajectories, (..., N, 2); the result is
    (..., M).  mode "time": matched-index displacement per point.  mode
    "time_traj": polyline distance per point plus the matched displacement
    of the final point.  mode "traj": polyline distance per point.
    """
    return BarrierSide(mode, ref_pts).measure(*_xy(points))[0]


def barrier_grad(mode, points, ref_pts, d_max):
    """A barrier form on (N, 2) arrays; returns (loss, d/dpoints).

    Reads the distances constraint_distances checks, so an iterate the
    step-size control accepts always gives a finite barrier.
    """
    side = BarrierSide(mode, ref_pts)
    return side.pullback(side.measure(*_xy(points))[1], d_max)
