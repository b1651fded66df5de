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
heading flips the speed sign rather than the heading.

The *_xy functions operate on raw coordinates that may be plain floats or
gradtape nodes; the typed API wraps them for float use.  unicycle_scan and
inverse_states are the array forms the attack's gradient runs on; each has
its reverse-mode derivative (pullback) beside it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (AgentState, ControlSequence, DataError, Trajectory, hypot_grad,
                   wrap_angle)
from .gradtape import Var, atan2, cos, norm2, sin, value

# Speed dead-band (m/s) below which curvature extraction returns 0 instead
# of dividing by a vanishing speed.
V_EPS = 1e-6

_HALF_PI = 0.5 * math.pi


def _wrap(x):
    """Wrap an angle (possibly a tape node) to (-pi, pi]; gradient is identity."""
    if isinstance(x, Var):
        return Var(wrap_angle(x.value), ((x, 1.0),))
    return wrap_angle(x)


def step_xy(x, y, theta, v, a, kappa, dt):
    """One forward model step on raw coordinates; returns (x', y', theta', v')."""
    v1 = v + a * dt
    th1 = theta + v * kappa * dt
    x1 = x + v1 * cos(th1) * dt
    y1 = y + v1 * sin(th1) * dt
    return x1, y1, th1, v1


def phi_forward(s, u, dt):
    """Advance an AgentState by one control input.

    The direction flag becomes sign(v'); an exactly zero speed keeps the
    incoming flag.
    """
    x1, y1, th1, v1 = step_xy(s.x, s.y, s.theta, s.v, u.a, u.kappa, dt)
    if v1 > 0.0:
        d1 = 1
    elif v1 < 0.0:
        d1 = -1
    else:
        d1 = s.direction
    return AgentState(x1, y1, th1, v1, d1)


def extract_initial_state(p0, p1, dt):
    """State at the first trajectory point, from the first displacement.

    Speed and heading assume constant motion over the first two steps;
    coincident points give v = 0, theta = 0.  Direction starts at +1.
    """
    vx = (p1[0] - p0[0]) / dt
    vy = (p1[1] - p0[1]) / dt
    if vx == 0.0 and vy == 0.0:
        return AgentState(p0[0], p0[1], 0.0, 0.0, 1)
    return AgentState(p0[0], p0[1], math.atan2(vy, vx), math.hypot(vx, vy), 1)


def direction_of_travel(vx, vy, s):
    """Direction flag for the step with observed velocity (vx, vy) from state s.

    +1 when the displacement is within a quarter turn of the current
    heading, else -1.  The flag is absolute, not relative to the previous
    speed sign; a sustained reversal keeps the flag at -1 step after step,
    which keeps the extracted heading continuous and the extracted
    curvature bounded.  Zero velocity returns sign(v), with sign(0) = +.
    """
    if vx == 0.0 and vy == 0.0:
        return 1 if s.v >= 0.0 else -1
    diff = wrap_angle(math.atan2(vy, vx) - s.theta)
    return 1 if abs(diff) <= _HALF_PI else -1


def extract_xy(xs, ys, dt):
    """Inverse model over raw coordinate sequences (floats or tape nodes).

    Returns (initial state tuple, accelerations, curvatures, terminal state
    tuple); state tuples are (x, y, theta, v).  Branch decisions (direction
    of travel, dead-bands, angle wrapping) follow primal values.
    """
    n = len(xs)
    if n < 2:
        raise DataError("extraction needs at least 2 points")
    vx0 = (xs[1] - xs[0]) / dt
    vy0 = (ys[1] - ys[0]) / dt
    if value(vx0) == 0.0 and value(vy0) == 0.0:
        v = 0.0
        th = 0.0
    else:
        v = norm2(vx0, vy0)
        th = atan2(vy0, vx0)
    state0 = (xs[0], ys[0], th, v)
    accels = []
    kappas = []
    for t in range(n - 1):
        vx = (xs[t + 1] - xs[t]) / dt
        vy = (ys[t + 1] - ys[t]) / dt
        if value(vx) == 0.0 and value(vy) == 0.0:
            v_next = 0.0
            th_next = th  # stationary: heading carries over
        else:
            ahead = abs(wrap_angle(math.atan2(value(vy), value(vx)) - value(th))) <= _HALF_PI
            d = 1.0 if ahead else -1.0
            v_next = norm2(vx, vy) * d
            th_next = atan2(vy * d, vx * d)
        a_t = (v_next - v) / dt
        if abs(value(v)) < V_EPS:
            k_t = 0.0
        else:
            k_t = _wrap(th_next - th) / (v * dt)
        accels.append(a_t)
        kappas.append(k_t)
        v = v_next
        th = th_next
    return state0, accels, kappas, (xs[-1], ys[-1], th, v)


def extract_controls(traj):
    """Controls that reproduce a trajectory under the forward model.

    Returns (initial AgentState, ControlSequence of len(traj) - 1 entries).
    rollout(state, controls) recovers the input positions exactly up to
    floating-point roundoff.
    """
    xs = traj.points[:, 0].tolist()
    ys = traj.points[:, 1].tolist()
    (x0, y0, th0, v0), accels, kappas, _ = extract_xy(xs, ys, traj.dt)
    s0 = AgentState(x0, y0, th0, v0, 1)
    seq = ControlSequence(np.column_stack([accels, kappas]), traj.dt)
    return s0, seq


def rollout_xy(x, y, theta, v, accels, kappas, dt):
    """Iterate step_xy; returns the list of generated (x, y) pairs."""
    out = []
    for a_t, k_t in zip(accels, kappas):
        x, y, theta, v = step_xy(x, y, theta, v, a_t, k_t, dt)
        out.append((x, y))
    return out


def rollout(s0, controls, t0_index=0):
    """Forward-simulate a control sequence; the result includes the start point."""
    pts = [(s0.x, s0.y)]
    pts.extend(rollout_xy(s0.x, s0.y, s0.theta, s0.v,
                          controls.a.tolist(), controls.kappa.tolist(), controls.dt))
    return Trajectory(np.array(pts, dtype=float), controls.dt, t0_index)


def joint_rollout(s0, u_past, v_future):
    """Roll the past controls, then the future controls from the reached state.

    Returns (X, Y): X has len(u_past) + 1 points at time indices
    -len(u_past)..0, Y has len(v_future) points at indices 1..T.  Future
    controls never influence X.
    """
    if u_past.dt != v_future.dt:
        raise DataError("joint_rollout: control sequences disagree on dt")
    dt = u_past.dt
    x, y, th, v = s0.x, s0.y, s0.theta, s0.v
    past_pts = [(x, y)]
    for a_t, k_t in zip(u_past.a.tolist(), u_past.kappa.tolist()):
        x, y, th, v = step_xy(x, y, th, v, a_t, k_t, dt)
        past_pts.append((x, y))
    fut_pts = []
    for a_t, k_t in zip(v_future.a.tolist(), v_future.kappa.tolist()):
        x, y, th, v = step_xy(x, y, th, v, a_t, k_t, dt)
        fut_pts.append((x, y))
    X = Trajectory(np.array(past_pts, dtype=float), dt, t0_index=-len(u_past))
    Y = Trajectory(np.array(fut_pts, dtype=float), dt, t0_index=1)
    return X, Y


# ---------------------------------------------------------------------------
# array forms with hand-written pullbacks


def _suffix_sum(a):
    """out[i] = a[i] + a[i + 1] + ... along axis 0."""
    return np.cumsum(a[::-1], axis=0)[::-1]


def unicycle_scan(x0, y0, theta0, v0, accels, kappas, dt):
    """Iterate step_xy over the leading axis of (accels, kappas).

    accels and kappas share one shape (N, ...); the scalar start state
    applies to every trailing entry.  Returns x, y, theta, v of shape
    (N + 1, ...) with the start state in row 0.  Every running sum is a
    cumulative sum in step order over the same products step_xy forms,
    so the rows are bitwise equal to the scalar loop.
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
    """Heading and signed speed at every point, the states extract_xy passes.

    Returns (theta, v, vx, vy, sign): theta and v have one entry per point;
    vx, vy are the step velocities and sign the direction of travel per
    step (0 for a stationary step, whose heading carries over).  The
    arithmetic mirrors extract_xy on tape nodes, which divide by a constant
    as a product with its reciprocal, so the states are bitwise equal to
    the ones the tape records.
    """
    n = len(xs)
    if n < 2:
        raise DataError("extraction needs at least 2 points")
    inv_dt = 1.0 / dt
    vx = (xs[1:] - xs[:-1]) * inv_dt
    vy = (ys[1:] - ys[:-1]) * inv_dt
    vxl = vx.tolist()
    vyl = vy.tolist()
    theta = np.empty(n)
    v = np.empty(n)
    sign = np.zeros(n - 1)
    if vxl[0] == 0.0 and vyl[0] == 0.0:
        th = sp = 0.0
    else:
        th = math.atan2(vyl[0], vxl[0])
        sp = math.hypot(vxl[0], vyl[0])
    theta[0] = th
    v[0] = sp
    for t in range(n - 1):
        if vxl[t] == 0.0 and vyl[t] == 0.0:
            sp = 0.0
        else:
            ahead = abs(wrap_angle(math.atan2(vyl[t], vxl[t]) - th)) <= _HALF_PI
            d = 1.0 if ahead else -1.0
            sp = math.hypot(vxl[t], vyl[t]) * d
            th = math.atan2(vyl[t] * d, vxl[t] * d)
            sign[t] = d
        theta[t + 1] = th
        v[t + 1] = sp
    return theta, v, vx, vy, sign


def inverse_states_pullback(vx, vy, sign, dt, g_theta, g_v):
    """Reverse-mode derivative of inverse_states.

    g_theta and g_v are adjoints of the per-point states.  Returns the
    adjoints of xs and ys.  Constant states (the speed of a stationary
    step, a start at rest) take no adjoint; a stationary step hands its
    heading adjoint to the state before it.
    """
    g_theta = np.array(g_theta, dtype=float)
    for t in np.flatnonzero(sign == 0.0)[::-1]:
        g_theta[t] += g_theta[t + 1]
    dir_x, dir_y = hypot_grad(vx, vy, np.hypot(vx, vy))
    r2 = vx * vx + vy * vy
    inv_r2 = np.divide(1.0, r2, out=np.zeros_like(r2), where=r2 != 0.0)
    # State t + 1 reads step t: v = |step| * sign, theta = atan2 of the step,
    # whose derivative does not depend on the sign.  A stationary step has
    # sign 0 and a zero step, so both terms vanish there.
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
