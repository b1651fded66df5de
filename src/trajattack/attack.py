"""Projected gradient descent over control perturbations.

The decision variable is one additive perturbation per control step of
the target's past and future (columns a, kappa).  Each iteration evaluates
the total loss and its gradient at the current iterate, takes a
gradient step with a geometrically decaying step size, projects onto the
per-step control box, and then enforces the trajectory barriers by
construction: while any constrained distance of the candidate reaches
d_max, the step is halved in place (the decay sequence itself is not
affected); if the halving budget runs out, the iterate stays put.  The
halved candidates are checked a block at a time in one stacked rollout,
so the cost of an iteration hardly depends on how many halvings it takes.
That check measures every barrier side of the stacked candidates once; the
accepted candidate's rollout and its slice of each side's measurement
(offsets and point-to-segment table) feed the next gradient.  So an
iteration rolls the target out once and builds each distance table once,
and the barrier reads the very table the feasibility check accepted.

The control box combines relative bounds around the unperturbed control
with absolute bounds (dataset acceleration range, curvature magnitude).
Boxes are fixed by the unperturbed controls, so projection is an exact
per-component clamp.

The gradient is a hand-written reverse-mode adjoint: the forward pass runs
the array form of each layer (rollout, predictor, objective, barriers) and
the backward pass runs their pullbacks in reverse order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .barriers import BarrierConfig, BarrierSide
from .core import ConfigError, ControlSequence, Trajectory, check_numeric_fields
from .dynamics import extract_controls, unicycle_scan, unicycle_scan_pullback
from .objectives import (OBJECTIVES, ade_grad, collision_fn_grad, collision_fp_grad,
                         fde_grad)
from .predictor import check_deterministic

# Step-size candidates checked per stacked feasibility call: the full step
# and its first seven halvings.  On generated scenarios more than 99% of
# iterations accept one of these, so one call per iteration is the rule.
HALVING_BLOCK = 8
# A block's step sizes are its first step times these; halving is exact.
_HALVINGS = 0.5 ** np.arange(HALVING_BLOCK)


@dataclass(frozen=True)
class AttackConfig:
    """Attack objective, constraint configuration, and PGD hyperparameters.

    Relative bounds limit each perturbation entry; absolute bounds limit
    the perturbed control itself (acceleration against the dataset range
    a_min..a_max, curvature against +-abs_bound_kappa).  Iteration m
    (0-based) uses step size alpha0 * gamma**m.
    """

    objective: str = "ade"
    barrier: BarrierConfig = field(default_factory=BarrierConfig)
    alpha0: float = 0.01
    gamma: float = 0.99
    max_iterations: int = 100
    rel_bound_a: float = 2.0          # m/s^2
    rel_bound_kappa: float = 0.05     # 1/m
    abs_bound_kappa: float = 0.2      # 1/m
    a_min: float = -9.81              # m/s^2
    a_max: float = 9.81               # m/s^2
    max_halvings: int = 30

    def __post_init__(self):
        check_numeric_fields(self)
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective {self.objective!r} not in {OBJECTIVES}")
        if not (self.alpha0 > 0.0):
            raise ConfigError(f"alpha0 must be positive, got {self.alpha0}")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.rel_bound_a <= 0.0 or self.rel_bound_kappa <= 0.0 or self.abs_bound_kappa <= 0.0:
            raise ConfigError("perturbation bounds must be positive")
        if self.a_min > self.a_max:
            raise ConfigError(f"a_min {self.a_min} > a_max {self.a_max}")
        if self.max_halvings < 0:
            raise ConfigError(f"max_halvings must be >= 0, got {self.max_halvings}")


@dataclass(frozen=True)
class AttackResult:
    """Perturbed trajectories and controls, and run statistics.

    The predictions are not stored: pred_pert and pred_clean run the
    predictor on x_pert and on the clean past each time they are read, so
    a result costs a few kilobytes however many samples the predictor
    draws.  The predictor is deterministic (the attack checks it), so every
    read gives the same samples.
    """

    x_pert: Trajectory
    y_pert: Trajectory
    u_pert: ControlSequence
    v_pert: ControlSequence
    predictor: object
    past_clean: Trajectory
    loss_trace: tuple
    halving_events: int
    iterations_run: int
    diagnostics: dict

    @property
    def pred_pert(self):
        """Predictions from the perturbed past x_pert."""
        return self.predictor.predict(self.x_pert, horizon=len(self.y_pert))

    @property
    def pred_clean(self):
        """Predictions from the unperturbed past."""
        return self.predictor.predict(self.past_clean, horizon=len(self.y_pert))


def control_box(controls, cfg):
    """Per-entry clamp bounds (lo, hi) for a perturbation of these controls.

    An empty box (unperturbed control already outside the absolute range
    by more than the relative bound) collapses to its midpoint; the second
    return value flags such entries.
    """
    a = controls.a
    k = controls.kappa
    lo = np.column_stack([
        np.maximum(-cfg.rel_bound_a, cfg.a_min - a),
        np.maximum(-cfg.rel_bound_kappa, -cfg.abs_bound_kappa - k),
    ])
    hi = np.column_stack([
        np.minimum(cfg.rel_bound_a, cfg.a_max - a),
        np.minimum(cfg.rel_bound_kappa, cfg.abs_bound_kappa - k),
    ])
    empty = lo > hi
    if empty.any():
        mid = 0.5 * (lo + hi)
        lo = np.where(empty, mid, lo)
        hi = np.where(empty, mid, hi)
    return lo, hi, empty


def dataset_accel_bounds(trajectories):
    """Lowest and highest acceleration recovered from a set of trajectories."""
    if not trajectories:
        raise ConfigError("dataset_accel_bounds: empty trajectory set")
    a_min = np.inf
    a_max = -np.inf
    for traj in trajectories:
        _, seq = extract_controls(traj)
        a_min = min(a_min, seq.a.min())
        a_max = max(a_max, seq.a.max())
    return float(a_min), float(a_max)


@dataclass
class PGDState:
    """Mutable loop state threaded through pgd_iteration.

    states is what the feasibility check measured at delta: the target's
    rollout (x, y, theta, v) followed by each barrier side's parts; or None
    (at the start, until a step is accepted), and then the gradient
    measures delta itself.
    """

    delta: np.ndarray
    alpha: float
    states: tuple = None
    halving_events: int = 0
    rejections: int = 0
    max_accepted_distance: float = 0.0
    max_box_excess: float = 0.0


def pgd_iteration(problem, state):
    """One PGD step; returns (next state, loss at the incoming iterate).

    problem.feasibility takes a stack of candidates (M, N, 2) and returns
    (ok, worst distance, measured states), one entry per candidate along
    the leading axis of each.  The first feasible candidate of the halving
    sequence is accepted, and its states feed the next call of
    problem.loss_and_grad(delta, states).
    """
    loss, g = problem.loss_and_grad(state.delta, state.states)
    n_steps = problem.max_halvings + 1
    for first in range(0, n_steps, HALVING_BLOCK):
        block = (state.alpha * 0.5 ** first) * _HALVINGS[:n_steps - first]
        cands = np.clip(state.delta - block[:, None, None] * g, problem.lo, problem.hi)
        ok, worst, states = problem.feasibility(cands)
        if ok.any():
            k = int(np.argmax(ok))
            # A candidate clipped into a box with lo <= hi has no box excess.
            # Contiguous copies: the layout of a measurement of it alone.
            return replace(
                state,
                delta=cands[k],
                alpha=state.alpha * problem.gamma,
                states=tuple(np.ascontiguousarray(s[k]) for s in states),
                halving_events=state.halving_events + first + k,
                max_accepted_distance=max(state.max_accepted_distance, float(worst[k])),
            ), loss
    excess = float(np.max(np.maximum(state.delta - problem.hi, problem.lo - state.delta)))
    return replace(
        state,
        alpha=state.alpha * problem.gamma,
        halving_events=state.halving_events + problem.max_halvings,
        rejections=state.rejections + 1,
        max_box_excess=max(state.max_box_excess, excess),
    ), loss


class AttackProblem:
    """Loss, gradient, box, and feasibility oracle for one scenario."""

    def __init__(self, scenario, cfg, predictor):
        self.cfg = cfg
        self.predictor = predictor
        self.dt = scenario.dt
        self.horizon_future = scenario.horizon_future
        tp = scenario.target_past
        tf = scenario.target_future
        s0, ref = extract_controls(Trajectory(np.vstack([tp.points, tf.points]), self.dt))
        self.s0 = (s0.x, s0.y, s0.theta, s0.v)
        n_past = len(tp) - 1
        self.u_ref = ControlSequence(ref.inputs[:n_past], self.dt)
        self.v_ref = ControlSequence(ref.inputs[n_past:], self.dt)
        self.ego_pts = scenario.ego_future.points
        self.y_ref_pts = tf.points
        self.lo, self.hi, empty = control_box(ref, cfg)
        self.empty_box_entries = int(empty.sum())
        self.ref_controls = ref.inputs
        # Barrier distances are measured against the re-rolled reference, not
        # the stored points.  The two agree to roundoff, but only the rolled
        # reference is bitwise equal to the delta = 0 rollout; that puts the
        # initial iterate exactly at the distance cone's apex, where the norm
        # gradient is the zero subgradient instead of roundoff-direction noise.
        self.x_ref, self.y_ref = self.positions(np.zeros_like(ref.inputs))
        # The barrier's sides: the observed side always, then the future side
        # unless it is free.  The loss adds their terms in this order.
        sides = [BarrierSide(cfg.barrier.observed_mode, self.x_ref, slice(0, n_past + 1))]
        if cfg.barrier.future_mode != "none":
            sides.append(BarrierSide(cfg.barrier.future_mode, self.y_ref,
                                     slice(n_past + 1, None)))
        self.sides = tuple(sides)
        self.max_halvings = cfg.max_halvings
        self.gamma = cfg.gamma
        check_deterministic(predictor, tp, scenario.horizon_future)
        # collision_fn pins the predictions at delta = 0, which is the rolled
        # reference; with the loss's own forward and reduction the drift
        # starts exactly at its apex.
        (xs, ys), _ = predictor.predict_vjp(self.x_ref, self.dt, self.horizon_future)
        k = xs.shape[1]
        self.clean_mean = np.column_stack([xs.sum(axis=1) / k, ys.sum(axis=1) / k])

    @property
    def n_controls(self):
        return len(self.ref_controls)

    def loss_and_grad(self, delta, states=None):
        """Total loss at an (N, 2) perturbation and its gradient.

        states is what feasibility measured at delta when the caller has
        it; otherwise delta is measured here.
        """
        cfg = self.cfg
        n_past = len(self.u_ref)
        x, y, theta, v, *parts = self.measure(delta)[1] if states is None else states
        pts = np.column_stack([x, y])
        past = pts[:n_past + 1]
        fut = pts[n_past + 1:]
        (xs, ys), predictor_pullback = self.predictor.predict_vjp(
            past, self.dt, self.horizon_future)
        g_pts = np.zeros_like(pts)
        name = cfg.objective
        if name == "ade":
            loss, g_xs, g_ys = ade_grad(xs, ys, self.y_ref_pts)
        elif name == "fde":
            loss, g_xs, g_ys = fde_grad(xs, ys, self.y_ref_pts)
        elif name == "collision_fp":
            loss, g_xs, g_ys = collision_fp_grad(xs, ys, self.ego_pts)
        elif name == "collision_fn":
            loss, g_pts[n_past + 1:], g_xs, g_ys = collision_fn_grad(
                fut, xs, ys, self.ego_pts, self.clean_mean)
        else:
            raise ConfigError(f"unknown objective {name!r}")
        for side in self.sides:
            term, g = side.pullback(parts[:side.n_parts], cfg.barrier.d_max)
            del parts[:side.n_parts]
            loss = loss + term
            g_pts[side.rows] += g
        g_pts[:n_past + 1] += predictor_pullback(g_xs, g_ys)
        *_, g_a, g_k = unicycle_scan_pullback(theta, v, self.ref_controls[:, 1] + delta[:, 1],
                                              self.dt, g_pts[:, 0], g_pts[:, 1])
        return float(loss), np.column_stack([g_a, g_k])

    def rollout(self, delta):
        """The target's states (x, y, theta, v), each (..., N + 1), for
        perturbations (..., N, 2)."""
        # the scan runs over the leading axis: transpose the step axis there
        # and back (the order of the candidate axes does not matter)
        controls = (self.ref_controls + delta).T
        states = unicycle_scan(*self.s0, controls[0], controls[1], self.dt)
        return tuple(s.T for s in states)

    def positions(self, delta):
        """Perturbed past/future positions as arrays, for checks and results."""
        x, y, _, _ = self.rollout(delta)
        pts = np.stack([x, y], axis=-1)
        n_past = len(self.u_ref)
        return pts[:n_past + 1], pts[n_past + 1:]

    def measure(self, delta):
        """(largest constrained distance, states) for perturbations (..., N, 2).

        states is the rollout (x, y, theta, v), each (..., N + 1), followed
        by the parts of every side's measurement, which loss_and_grad reads
        for one perturbation.
        """
        states = self.rollout(delta)
        worst = 0.0   # distances are >= 0, so the first side's maximum passes exactly
        for side in self.sides:
            d, parts = side.measure(states[0], states[1])
            worst = np.maximum(worst, d.max(axis=-1))
            states += parts
        return worst, states

    def feasibility(self, delta):
        """(all constrained distances < d_max, largest distance seen, states)
        as measure gives them; delta may stack candidates, (..., N, 2), and
        the first two results then have the leading shape."""
        worst, states = self.measure(delta)
        return worst < self.cfg.barrier.d_max, worst, states


def run_attack(scenario, cfg, predictor):
    """Attack one scenario; returns the perturbed artifacts and statistics."""
    problem = AttackProblem(scenario, cfg, predictor)
    state = PGDState(delta=np.zeros((problem.n_controls, 2)), alpha=cfg.alpha0)
    trace = []
    for _ in range(cfg.max_iterations):
        state, loss = pgd_iteration(problem, state)
        trace.append(loss)
    final_loss, _ = problem.loss_and_grad(state.delta, state.states)
    past, fut = problem.positions(state.delta)
    n_past = len(problem.u_ref)
    x_pert = Trajectory(past, scenario.dt, t0_index=-n_past)
    y_pert = Trajectory(fut, scenario.dt, t0_index=1)
    u_pert = ControlSequence(problem.u_ref.inputs + state.delta[:n_past], scenario.dt)
    v_pert = ControlSequence(problem.v_ref.inputs + state.delta[n_past:], scenario.dt)
    diagnostics = {
        "rejections": state.rejections,
        "max_accepted_distance": state.max_accepted_distance,
        "max_box_excess": state.max_box_excess,
        "empty_box_entries": problem.empty_box_entries,
        "final_loss": final_loss,
    }
    return AttackResult(
        x_pert=x_pert,
        y_pert=y_pert,
        u_pert=u_pert,
        v_pert=v_pert,
        predictor=predictor,
        past_clean=scenario.target_past,
        loss_trace=tuple(trace),
        halving_events=state.halving_events,
        iterations_run=len(trace),
        diagnostics=diagnostics,
    )
