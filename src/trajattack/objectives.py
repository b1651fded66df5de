"""Attack objectives, written to be minimized.

ade / fde are negated prediction errors (descending on them maximizes
the predictor's error).  collision_fp pulls the predicted samples toward
the ego's future so the victim anticipates a collision that never
happens.  collision_fn drives the target's perturbed future into the
ego's path while pinning the predictions near their unperturbed values,
so the victim does not anticipate the collision that does happen.

Each loss takes the K predicted samples as (T, K) coordinate arrays and
returns the loss with its gradient, for the attack's hand-written
adjoint.  Hard min selections go to the first minimizer over time, and a
norm at its apex has the zero subgradient.
"""

from __future__ import annotations

import numpy as np

from .core import DataError, hypot_grad

OBJECTIVES = ("ade", "fde", "collision_fp", "collision_fn")


def _check_horizon(n_pred, n_ref, name):
    if n_pred != n_ref:
        raise DataError(f"{name}: prediction horizon {n_pred} != reference horizon {n_ref}")


def _offsets(xs, ys, pts):
    """Per-step offsets of (T, K) samples from T points, and their norms."""
    dx = xs - pts[:, 0:1]
    dy = ys - pts[:, 1:2]
    return dx, dy, np.hypot(dx, dy)


def ade_grad(xs, ys, ref_pts):
    """Negated mean displacement of the samples from the reference future.

    Returns (loss, d/dxs, d/dys).
    """
    _check_horizon(len(xs), len(ref_pts), "ade")
    dx, dy, d = _offsets(xs, ys, ref_pts)
    scale = 1.0 / d.size
    gx, gy = hypot_grad(dx, dy, d)
    return -(d.sum() * scale), -scale * gx, -scale * gy


def fde_grad(xs, ys, ref_pts):
    """Negated mean final displacement of the samples from the reference.

    Returns (loss, d/dxs, d/dys).
    """
    _check_horizon(len(xs), len(ref_pts), "fde")
    dx, dy, d = _offsets(xs[-1:], ys[-1:], ref_pts[-1:])
    scale = 1.0 / d.size
    gx = np.zeros_like(xs)
    gy = np.zeros_like(ys)
    gx[-1:], gy[-1:] = hypot_grad(dx, dy, d)
    return -(d.sum() * scale), -scale * gx, -scale * gy


def collision_fp_grad(xs, ys, ego_pts):
    """Mean over samples of each sample's closest approach to the ego future.

    Returns (loss, d/dxs, d/dys).  Each sample's closest step is its first
    minimizer over time.
    """
    _check_horizon(len(xs), len(ego_pts), "collision_fp")
    dx, dy, d = _offsets(xs, ys, ego_pts)
    k = d.shape[1]
    first = np.argmin(d, axis=0)
    cols = np.arange(k)
    closest = d[first, cols]
    gx = np.zeros_like(xs)
    gy = np.zeros_like(ys)
    gx[first, cols], gy[first, cols] = hypot_grad(dx[first, cols], dy[first, cols],
                                                  closest)
    return closest.sum() / k, gx / k, gy / k


def collision_fn_grad(y_pts, xs, ys, ego_pts, clean_mean_pts):
    """Closest approach of the perturbed (T, 2) future to the ego, plus the
    mean displacement of the (T, K) samples' mean from the clean mean.

    Returns (loss, d/dy_pts, d/dxs, d/dys).  The closest approach is the
    first minimizer over time.  The sample mean is sum / K per step, the
    reduction AttackProblem.clean_mean uses, so the drift is exactly 0 for
    unperturbed samples.
    """
    _check_horizon(len(y_pts), len(ego_pts), "collision_fn")
    _check_horizon(len(xs), len(clean_mean_pts), "collision_fn")
    gap = y_pts - ego_pts
    approach = np.hypot(gap[:, 0], gap[:, 1])
    first = int(np.argmin(approach))
    g_y = np.zeros_like(y_pts)
    g_y[first] = hypot_grad(gap[first, 0], gap[first, 1], approach[first])
    k = xs.shape[1]
    ex = xs.sum(axis=1) / k - clean_mean_pts[:, 0]
    ey = ys.sum(axis=1) / k - clean_mean_pts[:, 1]
    drift = np.hypot(ex, ey)
    gx, gy = hypot_grad(ex, ey, drift)
    scale = 1.0 / (len(xs) * k)
    gxs = np.broadcast_to((gx * scale)[:, None], xs.shape)
    gys = np.broadcast_to((gy * scale)[:, None], ys.shape)
    return approach[first] + drift.sum() / len(xs), g_y, gxs, gys
