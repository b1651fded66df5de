"""Soft trajectory constraints as log barriers.

Two distance notions between a perturbed trajectory and its reference:
the time distance compares positions at matched time indices; the
trajectory distance is the distance to the reference polyline (minimum
over its segments), which permits longitudinal sliding along the path.
A barrier term is -ln(d_max - d), finite only while d < d_max; reaching
d_max is an infeasibility the optimizer must handle by shrinking its
step.

A BarrierSide applies one notion to some rows of a trajectory against
their reference.  BarrierConfig.sides composes the configured forms from
them: the time_traj observed form is a traj side over the whole past and
a time side on the prediction point (the last observed position), so the
target still reaches the turn entry on time.

A side's measure takes a stack of trajectories and returns their
constrained distances together with three arrays they came from (the
offsets to the reference points, and the distances or the
point-to-segment table); its pullback forms the barrier term and its
gradient from one trajectory's slice of that measurement.  The attack
measures the halving candidates once and hands the accepted candidate's
slice to the gradient, so the barrier reads the very table the step-size
control accepted.  A pullback of a distance at or past d_max raises
InfeasibleError; the attack never forms one, so the raise guards that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, check_numeric_fields, hypot_grad, offsets

OBSERVED_MODES = ("time", "time_traj")
FUTURE_MODES = ("none", "traj")
MODES = ("time", "traj")


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

    def sides(self, past_ref, future_ref):
        """The BarrierSides over trajectories of past_ref's points followed
        by future_ref's, in the order the loss adds their terms: the
        observed side (for time_traj, a traj side over the past and then a
        time side on its last point), then the future side unless it is
        free."""
        n = len(past_ref)
        past = slice(0, n)
        if self.observed_mode == "time":
            sides = [BarrierSide("time", past_ref, past)]
        else:
            sides = [BarrierSide("traj", past_ref, past),
                     BarrierSide("time", past_ref[-1:], slice(n - 1, n))]
        if self.future_mode == "traj":
            sides.append(BarrierSide("traj", future_ref, slice(n, None)))
        return tuple(sides)


class BarrierSide:
    """One distance notion, "time" or "traj", against one reference.

    rows selects the constrained points from the x, y rows measure is
    given (all of them by default).  For a traj side the polyline's segment
    geometry is derived here, once: segment j runs from reference point j
    (its start b) to j + 1 (its end c); it keeps the direction (ux, uy) =
    b - c, the squared length, the squared length with degenerate segments
    set to 1, the length and the degenerate mask.
    """

    def __init__(self, mode, ref_pts, rows=slice(None)):
        if mode not in MODES:
            raise ConfigError(f"unknown barrier mode {mode!r}")
        ref = np.asarray(ref_pts, dtype=float)
        self.mode = mode
        self.rows = rows
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
        """Constrained distances (..., M) of the side's rows of trajectories
        given as x, y rows (..., N), and the three parts the pullback reads.

        "time": the matched-index displacement per point; parts are the
        offsets and the distances.  "traj": the polyline distance per
        point; parts are the offsets (..., M, R) to every reference point
        and the point-to-segment table (..., M, S).
        """
        x = x[..., self.rows]
        y = y[..., self.rows]
        if self.mode == "time":
            if x.shape[-1] != self.ref_x.shape[-1]:
                raise DataError("matched distances: trajectories differ in length")
            parts = offsets(x, y, self.ref_x, self.ref_y)
            return parts[2], parts
        ox, oy, norm = offsets(x[..., None], y[..., None], self.ref_x, self.ref_y)
        table = self._segment_table(ox, oy, norm)
        return table.min(axis=-1), (ox, oy, table)

    def _segment_table(self, ox, oy, norm):
        """Distance of each point to every segment, from its offsets to every
        reference point and their norms.  The nearest point of segment j is
        its end c = ref j + 1 where r <= 0 (or the segment is degenerate),
        its start b where r >= 1, and the foot of the perpendicular in
        between."""
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
        ox, oy, table = parts
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
        return _mean_log_barrier(dist, grad_d, d_max)


def _mean_log_barrier(d, grad_d, d_max):
    """Mean of -ln(d_max - d) and its gradient, from per-point gradients of d."""
    if d.max() >= d_max:
        raise InfeasibleError(f"constrained distance {d.max():.6g} >= d_max {d_max:.6g}")
    gap = d_max - d
    n = len(d)
    return -np.log(gap).sum() / n, grad_d / (gap * n)[:, None]
