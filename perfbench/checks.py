"""Output checks written apart from the package, with plain numpy.

Nothing here imports trajattack.  The workload process converts the
package's results into plain arrays and dicts; these functions recompute
what the results must satisfy and return a list of failure messages (an
empty list means the output passed).

* The unicycle model is re-implemented from the forward equations in the
  docstring of ``trajattack/dynamics.py``:
      v' = v + a dt,  theta' = theta + v kappa dt,
      p' = p + v' [cos theta', sin theta'] dt,
  with the initial state taken from the first displacement, and the
  inverse model that recovers controls from positions (speed keeps its
  sign through a reversal, curvature is 0 below a 1e-6 m/s dead band).
* Polyline distances are brute force: dense sampling of every segment,
  refined around the best sample, which is exact to roundoff because the
  distance along a segment is convex.
* The sampling predictor is re-implemented from the docstring of
  ``trajattack/predictor.py``: nominal control = mean of the last window
  of extracted controls, K offsets drawn once from the seeded generator
  and clipped at three sigma, each sample rolled from the last observed
  state.
"""

from __future__ import annotations

import math

import numpy as np

V_EPS = 1e-6
POS_TOL = 1e-9      # m; positions agree to roundoff
BOUND_TOL = 1e-9    # slack on control bounds for roundoff in the reference
REL_TOL = 1e-9      # relative agreement of recomputed scalar metrics


def _wrap(angle):
    r = math.remainder(angle, 2.0 * math.pi)
    return r + 2.0 * math.pi if r <= -math.pi else r


def initial_state(points, dt):
    """(theta, v) at the first point, from the first displacement."""
    vx = (points[1, 0] - points[0, 0]) / dt
    vy = (points[1, 1] - points[0, 1]) / dt
    if vx == 0.0 and vy == 0.0:
        return 0.0, 0.0
    return math.atan2(vy, vx), math.hypot(vx, vy)


def inverse(points, dt):
    """Controls (n-1, 2) that reproduce points, and the terminal (theta, v)."""
    th, v = initial_state(points, dt)
    controls = np.empty((len(points) - 1, 2))
    for t in range(len(points) - 1):
        vx = (points[t + 1, 0] - points[t, 0]) / dt
        vy = (points[t + 1, 1] - points[t, 1]) / dt
        if vx == 0.0 and vy == 0.0:
            v_next, th_next = 0.0, th
        else:
            sign = 1.0 if abs(_wrap(math.atan2(vy, vx) - th)) <= 0.5 * math.pi else -1.0
            v_next = math.hypot(vx, vy) * sign
            th_next = math.atan2(vy * sign, vx * sign)
        kappa = 0.0 if abs(v) < V_EPS else _wrap(th_next - th) / (v * dt)
        controls[t] = (v_next - v) / dt, kappa
        th, v = th_next, v_next
    return controls, (th, v)


def roll(start, theta, v, controls, dt):
    """Positions generated by the forward model; start point excluded.

    controls has shape (n, 2) or (n, 2, K); a trailing K axis rolls K
    samples at once.
    """
    x, y = start
    out = []
    for a, kappa in controls:
        v_next = v + a * dt
        theta = theta + v * kappa * dt
        x = x + v_next * np.cos(theta) * dt
        y = y + v_next * np.sin(theta) * dt
        v = v_next
        out.append((x, y))
    return np.array(out, dtype=float)


def polyline_distances(points, ref, n0=129, rounds=10, m=33):
    """Distance from each point to the polyline ref, by refined sampling."""
    pts = np.asarray(points, dtype=float)[:, None, :]           # (n, 1, 2)
    b = np.asarray(ref[:-1], dtype=float)[None, :, :]           # (1, s, 2)
    c = np.asarray(ref[1:], dtype=float)[None, :, :]
    shape = (pts.shape[0], b.shape[1])
    lo = np.zeros(shape)
    hi = np.ones(shape)
    best = np.full(shape, np.inf)
    for n in [n0] + [m] * rounds:
        ts = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, n)
        px = b[..., 0:1] + ts * (c[..., 0:1] - b[..., 0:1])
        py = b[..., 1:2] + ts * (c[..., 1:2] - b[..., 1:2])
        d = np.hypot(pts[..., 0:1] - px, pts[..., 1:2] - py)
        i = np.argmin(d, axis=-1)
        best = np.minimum(best, np.take_along_axis(d, i[..., None], -1)[..., 0])
        step = (hi - lo) / (n - 1)
        t_best = lo + i * step
        lo = np.clip(t_best - step, 0.0, 1.0)
        hi = np.clip(t_best + step, 0.0, 1.0)
    return best.min(axis=1)


def predictor_offsets(cfg):
    """(K, 2) control offsets of the sampling predictor."""
    eps = np.random.default_rng(cfg["seed"]).standard_normal((cfg["n_samples"], 2))
    eps = np.clip(eps, -3.0, 3.0)
    return np.column_stack([eps[:, 0] * cfg["noise_scale_a"],
                            eps[:, 1] * cfg["noise_scale_kappa"]])


def predict(past, dt, horizon, cfg):
    """(K, horizon, 2) predicted samples from an observed past."""
    controls, (th, v) = inverse(past, dt)
    w = min(cfg["smoothing_window"], len(controls))
    a_star = sum(controls[-w:, 0].tolist()) / w
    k_star = sum(controls[-w:, 1].tolist()) / w
    off = predictor_offsets(cfg)
    sample_controls = np.broadcast_to(
        np.array([a_star, k_star])[:, None] + off.T, (horizon, 2, len(off)))
    steps = roll(past[-1], th, v, sample_controls, dt)         # (T, 2, K)
    return np.transpose(steps, (2, 0, 1))


def ade_fde(samples, future):
    """(ADE, FDE) of prediction samples against the ground-truth future."""
    d = np.hypot(samples[..., 0] - future[:, 0], samples[..., 1] - future[:, 1])
    return float(d.mean()), float(d[:, -1].mean())


def accel_bounds(episodes, dt):
    """Lowest and highest extracted acceleration over whole episodes."""
    accels = np.concatenate([inverse(ep, dt)[0][:, 0] for ep in episodes])
    return float(accels.min()), float(accels.max())


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_attack(rec):
    """Failures of one attack.

    rec holds the scenario (target_past, target_future, dt), the attack
    configuration (objective, observed/future mode, d_max, bounds), the
    predictor configuration, and the returned arrays (x_pert, y_pert,
    u_pert, v_pert, pred_pert, pred_clean).
    """
    fails = []
    dt = rec["dt"]
    past_ref = rec["target_past"]
    fut_ref = rec["target_future"]
    x_pert = rec["x_pert"]
    y_pert = rec["y_pert"]

    # 1. the returned controls reproduce the returned positions
    theta0, v0 = initial_state(np.vstack([past_ref, fut_ref]), dt)
    controls = np.vstack([rec["u_pert"], rec["v_pert"]])
    rolled = np.vstack([past_ref[:1], roll(past_ref[0], theta0, v0, controls, dt)])
    err = np.abs(rolled - np.vstack([x_pert, y_pert])).max()
    if not err <= POS_TOL:
        fails.append(f"re-rolled controls miss returned positions by {err:.3g} m")

    # 2. perturbed controls inside the relative and absolute bounds
    ref_controls, _ = inverse(np.vstack([past_ref, fut_ref]), dt)
    delta = controls - ref_controls
    over_rel = max(np.abs(delta[:, 0]).max() - rec["rel_bound_a"],
                   np.abs(delta[:, 1]).max() - rec["rel_bound_kappa"])
    over_abs = max(rec["a_min"] - controls[:, 0].min(),
                   controls[:, 0].max() - rec["a_max"],
                   np.abs(controls[:, 1]).max() - rec["abs_bound_kappa"])
    if over_rel > BOUND_TOL:
        fails.append(f"control perturbation exceeds its relative bound by {over_rel:.3g}")
    if over_abs > BOUND_TOL:
        fails.append(f"perturbed control exceeds the absolute bound by {over_abs:.3g}")

    # 3. every constrained distance below d_max
    d_max = rec["d_max"]
    matched = np.hypot(*(x_pert - past_ref).T)
    if rec["observed_mode"] == "time":
        dists = matched
    else:
        dists = np.append(polyline_distances(x_pert, past_ref), matched[-1])
    if rec["future_mode"] == "traj":
        dists = np.append(dists, polyline_distances(y_pert, fut_ref))
    if not dists.max() < d_max:
        fails.append(f"constrained distance {dists.max():.6f} >= d_max {d_max}")

    # 4. predictions equal an independent predictor run on the perturbed past
    horizon = len(fut_ref)
    for name, past in (("pred_pert", x_pert), ("pred_clean", past_ref)):
        expect = predict(past, dt, horizon, rec["predictor"])
        got = rec[name]
        if got.shape != expect.shape:
            fails.append(f"{name} has shape {got.shape}, expected {expect.shape}")
            continue
        err = np.abs(got - expect).max()
        if not err <= POS_TOL:
            fails.append(f"{name} differs from the reference predictor by {err:.3g} m")
    return fails


def check_row(row, rec):
    """Failures of one CLI attack row against its attack's arrays."""
    fails = []
    ade, fde = ade_fde(rec["pred_pert"], rec["target_future"])
    disp = np.hypot(*(rec["x_pert"] - rec["target_past"]).T)
    expect = {"ADE": ade, "FDE": fde, "D_max": float(disp.max()),
              "D_mean": float(disp.mean()),
              "a_mag": float(np.abs(rec["u_pert"][:, 0]).mean()),
              "k_mag": float(np.abs(rec["u_pert"][:, 1]).mean())}
    for key, val in expect.items():
        if not close(row[key], val):
            fails.append(f"row {key} {row[key]!r} != recomputed {val!r}")
    fails += _row_values(row)
    if row["max_box_excess"] != 0:
        fails.append(f"max_box_excess {row['max_box_excess']} != 0")
    if not row["max_accepted_distance"] < rec["d_max"]:
        fails.append(f"max_accepted_distance {row['max_accepted_distance']} >= d_max")
    if row["obs_constraint"] == "time" and not row["D_max"] < rec["d_max"]:
        fails.append(f"D_max {row['D_max']} >= d_max on a time row")
    return fails


def check_baseline_row(row, rec):
    """Failures of one CLI baseline row against the clean predictions."""
    fails = _row_values(row)
    ade, fde = ade_fde(rec["pred_clean"], rec["target_future"])
    controls, _ = inverse(rec["target_past"], rec["dt"])
    expect = {"ADE": ade, "FDE": fde, "D_max": 0.0, "D_mean": 0.0,
              "a_mag": float(np.abs(controls[:, 0]).mean()),
              "k_mag": float(np.abs(controls[:, 1]).mean())}
    for key, val in expect.items():
        if not close(row[key], val):
            fails.append(f"baseline {key} {row[key]!r} != recomputed {val!r}")
    return fails


_METRIC_KEYS = ("ADE", "FDE", "CR_pred", "D_max", "D_mean", "a_mag", "k_mag")


def _row_values(row):
    fails = []
    for key in _METRIC_KEYS:
        val = row.get(key)
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            fails.append(f"{key} is not a finite number: {val!r}")
    fnc = row.get("CR_FNC")
    if (fnc is None) != (row["objective"] != "collision_fn"):
        fails.append(f"CR_FNC {fnc!r} on a {row['objective']} row")
    for key in ("CR_pred", "CR_FNC"):
        val = row.get(key)
        if isinstance(val, (int, float)) and not 0.0 <= val <= 1.0:
            fails.append(f"{key} {val} outside [0, 1]")
    return fails


def check_report(report_rows, attack_rows):
    """The report's group means equal the means of the attack rows."""
    fails = []
    groups = {}
    for row in attack_rows:
        key = (row["objective"], row["obs_constraint"], row["fut_constraint"])
        groups.setdefault(key, []).append(row)
    if len(report_rows) != len(groups):
        fails.append(f"report has {len(report_rows)} rows for {len(groups)} groups")
    for rep in report_rows:
        key = ("unperturbed", "-", "-") if rep["id"] == "unperturbed" \
            else tuple(rep["id"].split("/"))
        rows = groups.get(key)
        if rows is None:
            fails.append(f"report group {rep['id']!r} has no attack rows")
            continue
        for metric in ("ADE", "FDE", "D_max"):
            mean = float(np.mean([r[metric] for r in rows]))
            if not close(rep[metric], mean):
                fails.append(f"report {rep['id']} {metric} {rep[metric]!r} != {mean!r}")
    return fails
