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

The step-size control (constraint_distances) and the attack's gradient
(barrier_grad) read the same distance arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, check_numeric_fields, hypot_grad

OBSERVED_MODES = ("time", "time_traj")
FUTURE_MODES = ("none", "traj")


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


def _matched_distances(pts, ref):
    """Displacement of each point from its reference point; (offsets, (..., N))."""
    if pts.shape[-2] != len(ref):
        raise DataError("matched distances: trajectories differ in length")
    off = pts - ref
    return off, np.hypot(off[..., 0], off[..., 1])


def _segment_table(points, ref):
    """Distances of points (..., N, 2) to every segment of a reference polyline.

    Returns (d, branch, parts): d is (..., N, S); branch is 0 where the
    nearest point of the segment is its end c (or the segment is
    degenerate), 1 where it is interior, 2 where it is the start b; parts
    holds the offsets from c and b and the signed cross product the
    pullback needs.  Segment j runs from reference point j to j + 1, so the
    offsets and their norms are formed once per reference point and shared.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if ref.ndim != 2 or ref.shape[1] != 2 or len(ref) < 2:
        raise DataError("reference polyline needs shape (N>=2, 2)")
    ux = ref[:-1, 0] - ref[1:, 0]
    uy = ref[:-1, 1] - ref[1:, 1]
    seg2 = ux * ux + uy * uy
    safe2 = np.where(seg2 == 0.0, 1.0, seg2)
    seg = np.sqrt(safe2)
    ox = pts[..., 0:1] - ref[:, 0]
    oy = pts[..., 1:2] - ref[:, 1]
    norm = np.hypot(ox, oy)
    wx, wy, d_c = ox[..., 1:], oy[..., 1:], norm[..., 1:]
    bx, by, d_b = ox[..., :-1], oy[..., :-1], norm[..., :-1]
    r = (wx * ux + wy * uy) / safe2
    cross = wx * uy - wy * ux
    d_perp = np.abs(cross) / seg
    low = (r <= 0.0) | (seg2 == 0.0)
    interior = r < 1.0
    d = np.where(low, d_c, np.where(interior, d_perp, d_b))
    branch = np.where(low, 0, np.where(interior, 1, 2))
    return d, branch, (wx, wy, bx, by, cross, ux, uy, seg)


def _polyline_distances(points, ref):
    """Distance from each point (..., N, 2) to a reference polyline; (..., N)."""
    return _segment_table(points, ref)[0].min(axis=-1)


def _polyline_distances_grad(points, ref):
    """Polyline distance per point and its gradient wrt the point, (N, 2).

    The nearest segment is the first minimizer; the gradient follows that
    segment's active branch, with the zero subgradient at a norm or
    absolute-value kink.
    """
    d, branch, (wx, wy, bx, by, cross, ux, uy, seg) = _segment_table(points, ref)
    rows = np.arange(len(d))
    j = np.argmin(d, axis=1)
    dist = d[rows, j]
    kind = branch[rows, j]
    gcx, gcy = hypot_grad(wx[rows, j], wy[rows, j], dist)
    gbx, gby = hypot_grad(bx[rows, j], by[rows, j], dist)
    s = np.sign(cross[rows, j]) / seg[j]
    gx = np.choose(kind, (gcx, s * uy[j], gbx))
    gy = np.choose(kind, (gcy, -s * ux[j], gby))
    return dist, np.column_stack([gx, gy])


def constraint_distances(points, ref_pts, mode):
    """All distances a barrier form constrains, along the last axis.

    points may stack several trajectories, (..., N, 2); the result is
    (..., M).  mode "time": matched-index displacement per point.  mode
    "time_traj": polyline distance per point plus the matched displacement
    of the final point.  mode "traj": polyline distance per point.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref_pts, dtype=float)
    if mode == "time":
        return _matched_distances(pts, ref)[1]
    if mode == "traj":
        return _polyline_distances(pts, ref)
    if mode == "time_traj":
        final = _matched_distances(pts[..., -1:, :], ref[-1:])[1]
        return np.concatenate([_polyline_distances(pts, ref), final], axis=-1)
    raise ConfigError(f"unknown barrier mode {mode!r}")


def _mean_log_barrier(d, grad_d, d_max):
    """Mean of -ln(d_max - d) and its gradient, from per-point gradients of d."""
    if d.max() >= d_max:
        raise InfeasibleError(f"constrained distance {d.max():.6g} >= d_max {d_max:.6g}")
    gap = d_max - d
    n = len(d)
    return -np.log(gap).sum() / n, grad_d / (gap * n)[:, None]


def barrier_grad(mode, points, ref_pts, d_max):
    """A barrier form on (N, 2) arrays; returns (loss, d/dpoints).

    Reads the distances constraint_distances checks, so an iterate the
    step-size control accepts always gives a finite barrier.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref_pts, dtype=float)
    if mode == "time":
        off, d = _matched_distances(pts, ref)
        return _mean_log_barrier(d, np.column_stack(hypot_grad(off[:, 0], off[:, 1], d)),
                                 d_max)
    if mode == "traj":
        return _mean_log_barrier(*_polyline_distances_grad(pts, ref), d_max)
    if mode == "time_traj":
        total, grad = barrier_grad("traj", pts, ref, d_max)
        pinned, g_last = barrier_grad("time", pts[-1:], ref[-1:], d_max)
        grad[-1] += g_last[0]
        return total + pinned, grad
    raise ConfigError(f"unknown barrier mode {mode!r}")
