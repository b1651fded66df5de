"""Kinematic single-track model, its inverse, and trajectory rollouts.

Forward step:
    v(t+1)     = v(t) + a(t) dt
    theta(t+1) = theta(t) + v(t) kappa(t) dt
    p(t+1)     = p(t) + v(t+1) [cos theta(t+1), sin theta(t+1)] dt

The inverse recovers controls from positions.  Because the initial state
is estimated from the first displacement (motion is assumed constant over
the first two steps), the first recovered control of any trajectory is
identically zero; position roundtrips are exact regardless.  Speed keeps
its sign through reversals: a displacement pointing against the current
heading flips the speed sign rather than the heading.  The heading cannot
change at zero speed, so a vehicle at rest faces where it next moves; a
start at rest or a stop mid-run round-trips too.  A step slower than the
V_EPS dead band counts as a stop, so a speed that misses zero by roundoff
round-trips as well.

Both directions run on arrays: unicycle_scan is the forward model and
inverse_states the inverse, and each has its reverse-mode derivative
(pullback) beside it for the attack's gradient.  rollout and
extract_controls are the same computations on the typed containers.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AgentState, ControlSequence, DataError, Trajectory, hypot_grad, wrap_angle

# Speed dead-band (m/s) below which curvature extraction returns 0 instead
# of dividing by a vanishing speed.
V_EPS = 1e-6

_HALF_PI = 0.5 * math.pi


def extract_controls(traj):
    """Controls that reproduce a trajectory under the forward model.

    Returns (initial AgentState, ControlSequence of len(traj) - 1 entries).
    rollout(state, controls) recovers the input positions exactly up to
    floating-point roundoff.
    """
    xs = traj.points[:, 0]
    ys = traj.points[:, 1]
    theta, v, *_ = inverse_states(xs, ys, traj.dt)
    accels, kappas = state_controls(theta, v, traj.dt)
    s0 = AgentState(float(xs[0]), float(ys[0]), float(theta[0]), float(v[0]))
    return s0, ControlSequence(np.column_stack([accels, kappas]), traj.dt)


def rollout(s0, controls, t0_index=0):
    """Forward-simulate a control sequence; the result includes the start point."""
    x, y, _, _ = unicycle_scan(s0.x, s0.y, s0.theta, s0.v, controls.a, controls.kappa,
                               controls.dt)
    return Trajectory(np.column_stack([x, y]), controls.dt, t0_index)


# ---------------------------------------------------------------------------
# array forms with hand-written pullbacks


def _suffix_sum(a):
    """out[i] = a[i] + a[i + 1] + ... along axis 0."""
    return np.cumsum(a[::-1], axis=0)[::-1]


def unicycle_scan(x0, y0, theta0, v0, accels, kappas, dt):
    """The forward model over the leading axis of (accels, kappas).

    accels and kappas share one shape (N, ...); the scalar start state
    applies to every trailing entry.  Returns x, y, theta, v of shape
    (N + 1, ...) with the start state in row 0.  Every running sum is a
    cumulative sum in step order, so each row is bitwise the state that
    stepping the model one control at a time reaches.
    """
    first = (1,) + accels.shape[1:]
    v = np.cumsum(np.concatenate([np.full(first, v0), accels * dt]), axis=0)
    theta = np.cumsum(np.concatenate([np.full(first, theta0), v[:-1] * kappas * dt]),
                      axis=0)
    x = np.cumsum(np.concatenate([np.full(first, x0), v[1:] * np.cos(theta[1:]) * dt]),
                  axis=0)
    y = np.cumsum(np.concatenate([np.full(first, y0), v[1:] * np.sin(theta[1:]) * dt]),
                  axis=0)
    return x, y, theta, v


def unicycle_scan_pullback(theta, v, kappas, dt, gx, gy):
    """Reverse-mode derivative of unicycle_scan.

    theta and v are the scan's outputs, gx and gy the adjoints of its x and
    y rows.  Returns the adjoints of (x0, y0, theta0, v0), one per trailing
    entry, and of accels and kappas.
    """
    cos = np.cos(theta[1:])
    sin = np.sin(theta[1:])
    # Row s >= 1 of x and y adds v[s] * (cos, sin)(theta[s]) * dt, which
    # every later row carries: its adjoint is the suffix sum from s.
    gx_s = _suffix_sum(gx[1:])
    gy_s = _suffix_sum(gy[1:])
    g_v = np.zeros_like(v)
    g_v[1:] = (gx_s * cos + gy_s * sin) * dt
    g_theta = _suffix_sum(v[1:] * (gy_s * cos - gx_s * sin) * dt)
    g_kappa = g_theta * v[:-1] * dt
    g_v[:-1] += g_theta * kappas * dt
    g_v_later = _suffix_sum(g_v[1:])
    return (gx.sum(axis=0), gy.sum(axis=0), g_theta[0], g_v[0] + g_v_later[0],
            g_v_later * dt, g_kappa)


def inverse_states(xs, ys, dt):
    """Heading and signed speed at every point of a position sequence.

    Returns (theta, v, vx, vy, sign): theta and v have one entry per point;
    vx, vy are the step velocities and sign the direction of travel per
    step.  A step slower than V_EPS is stationary (sign 0), so a speed that
    misses zero by roundoff does not read a direction from its rounding
    error.  The start state reads the first step.
    A step is forward when it lies within a quarter turn of the current
    heading; otherwise the speed turns negative and the heading stays on
    the vehicle's axis, so a reversal never inflates the extracted
    curvature.  The forward model cannot turn at zero speed, so a state at
    rest faces the next moving step, judged ahead or reverse against the
    heading before the stop; a start at rest faces that step, and only a
    trailing stop keeps the heading it stopped with.
    """
    n = len(xs)
    if n < 2:
        raise DataError("extraction needs at least 2 points")
    vx = (xs[1:] - xs[:-1]) / dt
    vy = (ys[1:] - ys[:-1]) / dt
    theta = [0.0] * n
    v = [0.0] * n
    sign = [0.0] * (n - 1)
    th = None      # the heading before the current stop; none before the start
    rest = 0       # the first state that waits for the next moving step
    for t, (sx, sy) in enumerate(zip(vx.tolist(), vy.tolist())):
        speed = math.hypot(sx, sy)
        if speed < V_EPS:
            continue
        ahead = th is None or abs(wrap_angle(math.atan2(sy, sx) - th)) <= _HALF_PI
        d = 1.0 if ahead else -1.0
        th = math.atan2(sy * d, sx * d)
        theta[rest:t + 2] = [th] * (t + 2 - rest)
        v[t + 1] = speed * d
        sign[t] = d
        rest = t + 2
    if th is not None:
        theta[rest:] = [th] * (n - rest)
    v[0] = v[1]
    return np.array(theta), np.array(v), vx, vy, np.array(sign)


def state_controls(theta, v, dt):
    """Controls between consecutive states: a = dv / dt, kappa = dtheta / (v dt).

    The heading change is wrapped to (-pi, pi]; below the V_EPS speed
    dead-band the curvature is 0.  Returns (accels, kappas), one entry per
    step.
    """
    accels = (v[1:] - v[:-1]) / dt
    turn = np.array([wrap_angle(d) for d in (theta[1:] - theta[:-1]).tolist()])
    moving = np.abs(v[:-1]) >= V_EPS
    return accels, np.divide(turn, v[:-1] * dt, out=np.zeros_like(accels), where=moving)


def inverse_states_pullback(vx, vy, sign, dt, g_theta, g_v):
    """Reverse-mode derivative of inverse_states.

    g_theta and g_v are adjoints of the per-point states.  Returns the
    adjoints of xs and ys.  Constant states (the speed of a stationary
    step, a start at rest) take no adjoint; the heading of a start at rest
    takes none either, because the curvature that reads it lies in the
    V_EPS dead band.  A later state at rest hands its heading adjoint to the
    next moving step, or, in a trailing stop, to the state before it.
    """
    g_theta = np.array(g_theta, dtype=float)
    # a stationary step moves by at most roundoff, and nothing reads it
    moving = sign != 0.0
    vx = np.where(moving, vx, 0.0)
    vy = np.where(moving, vy, 0.0)
    for t in np.flatnonzero(~moving)[::-1].tolist():
        ahead = np.flatnonzero(sign[t:])
        g_theta[t + ahead[0] + 1 if ahead.size else t] += g_theta[t + 1]
    dir_x, dir_y = hypot_grad(vx, vy, np.hypot(vx, vy))
    r2 = vx * vx + vy * vy
    inv_r2 = np.divide(1.0, r2, out=np.zeros_like(r2), where=r2 != 0.0)
    # State t + 1 reads step t: v = |step| * sign, theta = atan2 of the step,
    # whose derivative does not depend on the sign.  A stationary step has
    # sign 0 and a zeroed step, so both terms vanish there.
    g_speed = g_v[1:] * sign
    g_head = g_theta[1:] * inv_r2
    g_vx = g_speed * dir_x - g_head * vy
    g_vy = g_speed * dir_y + g_head * vx
    # the start state reads the first step as well, without the sign
    g_vx[0] += g_v[0] * dir_x[0] - g_theta[0] * inv_r2[0] * vy[0]
    g_vy[0] += g_v[0] * dir_y[0] + g_theta[0] * inv_r2[0] * vx[0]
    inv_dt = 1.0 / dt
    g_xs = np.zeros(len(vx) + 1)
    g_ys = np.zeros(len(vx) + 1)
    g_xs[1:] += g_vx * inv_dt
    g_xs[:-1] -= g_vx * inv_dt
    g_ys[1:] += g_vy * inv_dt
    g_ys[:-1] -= g_vy * inv_dt
    return g_xs, g_ys
