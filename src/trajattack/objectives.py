"""Attack objectives, written to be minimized.

ade / fde are negated prediction errors (descending on them maximizes
the predictor's error).  collision_fp pulls the predicted samples toward
the ego's future so the victim anticipates a collision that never
happens.  collision_fn drives the target's perturbed future into the
ego's path while pinning the predictions near their unperturbed values,
so the victim does not anticipate the collision that does happen.

Every loss has a typed wrapper over concrete trajectory/prediction types
and an *_xy core over raw per-step coordinates that also accepts tape
nodes; both run identical arithmetic.  The *_grad forms take the samples
as (T, K) coordinate arrays and return the loss with its gradient, for
the attack's hand-written adjoint.
"""

from __future__ import annotations

import numpy as np

from .core import DataError, hypot_grad
from .gradtape import fold_min, norm2, value, vmean, vsum

OBJECTIVES = ("ade", "fde", "collision_fp", "collision_fn")


def _n_samples(coord):
    v = value(coord)
    return v.shape[0] if isinstance(v, np.ndarray) else 1


def _check_horizon(n_pred, n_ref, name):
    if n_pred != n_ref:
        raise DataError(f"{name}: prediction horizon {n_pred} != reference horizon {n_ref}")


def _pred_to_xy(pred):
    return [(pred.samples[:, t, 0], pred.samples[:, t, 1])
            for t in range(pred.horizon)]


def ade_xy(pred_xy, ref_pts):
    """Negated mean displacement between samples and the reference future."""
    _check_horizon(len(pred_xy), len(ref_pts), "ade")
    k = _n_samples(pred_xy[0][0])
    total = 0.0
    for (px, py), ref in zip(pred_xy, ref_pts):
        total = total + vsum(norm2(px - ref[0], py - ref[1]))
    return -(total / (k * len(pred_xy)))


def fde_xy(pred_xy, ref_pts):
    """Negated mean final displacement between samples and the reference."""
    _check_horizon(len(pred_xy), len(ref_pts), "fde")
    px, py = pred_xy[-1]
    ref = ref_pts[-1]
    k = _n_samples(px)
    return -(vsum(norm2(px - ref[0], py - ref[1])) / k)


def collision_fp_xy(pred_xy, ego_pts):
    """Mean over samples of each sample's closest approach to the ego future."""
    _check_horizon(len(pred_xy), len(ego_pts), "collision_fp")
    per_step = [norm2(px - e[0], py - e[1]) for (px, py), e in zip(pred_xy, ego_pts)]
    return vmean(fold_min(per_step))


def collision_fn_xy(y_xy, pred_xy, ego_pts, clean_mean_pts):
    """Closest approach of the perturbed future to the ego, plus the mean
    displacement of the perturbed predictions from the frozen clean ones."""
    _check_horizon(len(y_xy), len(ego_pts), "collision_fn")
    _check_horizon(len(pred_xy), len(clean_mean_pts), "collision_fn")
    approach = fold_min([norm2(x - e[0], y - e[1])
                         for (x, y), e in zip(y_xy, ego_pts)])
    drift = 0.0
    for (px, py), ref in zip(pred_xy, clean_mean_pts):
        drift = drift + norm2(vmean(px) - ref[0], vmean(py) - ref[1])
    return approach + drift / len(pred_xy)


def _offsets(xs, ys, pts):
    """Per-step offsets of (T, K) samples from T points, and their norms."""
    dx = xs - pts[:, 0:1]
    dy = ys - pts[:, 1:2]
    return dx, dy, np.hypot(dx, dy)


def ade_grad(xs, ys, ref_pts):
    """ade_xy on (T, K) arrays; returns (loss, d/dxs, d/dys)."""
    _check_horizon(len(xs), len(ref_pts), "ade")
    dx, dy, d = _offsets(xs, ys, ref_pts)
    scale = 1.0 / d.size
    gx, gy = hypot_grad(dx, dy, d)
    return -(d.sum() * scale), -scale * gx, -scale * gy


def fde_grad(xs, ys, ref_pts):
    """fde_xy on (T, K) arrays; returns (loss, d/dxs, d/dys)."""
    _check_horizon(len(xs), len(ref_pts), "fde")
    dx, dy, d = _offsets(xs[-1:], ys[-1:], ref_pts[-1:])
    scale = 1.0 / d.size
    gx = np.zeros_like(xs)
    gy = np.zeros_like(ys)
    gx[-1:], gy[-1:] = hypot_grad(dx, dy, d)
    return -(d.sum() * scale), -scale * gx, -scale * gy


def collision_fp_grad(xs, ys, ego_pts):
    """collision_fp_xy on (T, K) arrays; returns (loss, d/dxs, d/dys).

    Each sample's closest step is its first minimizer over time.
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
    """collision_fn_xy on a (T, 2) future and (T, K) samples.

    Returns (loss, d/dy_pts, d/dxs, d/dys).  The closest approach is the
    first minimizer over time.
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


def loss_ade(y_tar, pred):
    """ade_xy over a target future Trajectory and a PredictionSet."""
    return float(ade_xy(_pred_to_xy(pred), y_tar.points))


def loss_fde(y_tar, pred):
    """fde_xy over a target future Trajectory and a PredictionSet."""
    return float(fde_xy(_pred_to_xy(pred), y_tar.points))


def loss_collision_fp(y_ego, pred):
    """collision_fp_xy over an ego future Trajectory and a PredictionSet."""
    return float(collision_fp_xy(_pred_to_xy(pred), y_ego.points))


def loss_collision_fn(y_ego, y_pert, pred_pert, pred_clean):
    """collision_fn_xy over concrete types; pred_clean enters via its mean."""
    clean_mean = pred_clean.samples.mean(axis=0)
    return float(collision_fn_xy(
        [(x, y) for x, y in y_pert.points],
        _pred_to_xy(pred_pert),
        y_ego.points,
        clean_mean,
    ))


def compose_total_loss(objective, barrier_terms, weights=None):
    """objective + sum of weighted barrier terms (weights default to 1)."""
    if weights is None:
        weights = [1.0] * len(barrier_terms)
    if len(weights) != len(barrier_terms):
        raise DataError("compose_total_loss: one weight per barrier term")
    total = objective
    for w, term in zip(weights, barrier_terms):
        total = total + w * term
    return total
