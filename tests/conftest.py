import numpy as np
import pytest

from trajattack.barriers import BarrierSide
from trajattack.core import AgentState, ControlSequence, Scenario, Trajectory
from trajattack.dynamics import rollout
from trajattack.predictor import KinematicPredictor, PredictorConfig
from trajattack.scenario_io import generate_left_turn, sample_left_turn_params


def make_trajectory(points, dt=0.1, t0_index=0):
    return Trajectory(np.asarray(points, dtype=float), dt, t0_index=t0_index)


def straight_trajectory(n, v=5.0, dt=0.1, theta=0.0, start=(0.0, 0.0),
                        t0_index=0):
    """Constant-velocity rollout; controls are exactly zero."""
    s0 = AgentState(start[0], start[1], theta, v)
    controls = ControlSequence(np.zeros((n - 1, 2)), dt)
    traj = rollout(s0, controls)
    return Trajectory(traj.points, dt, t0_index=t0_index)


def positions(problem, delta):
    """The perturbed past and future points, (N, 2) each, that
    problem.rollout gives for one perturbation."""
    x, y, _, _ = problem.rollout(delta)
    pts = np.column_stack([x, y])
    n_past = len(problem.u_ref)
    return pts[:n_past + 1], pts[n_past + 1:]


def constraint_distances(points, ref_pts, mode):
    """Every distance one barrier form constrains, along the last axis, for
    (..., N, 2) points: BarrierSide(mode, ref_pts).measure on their x, y."""
    pts = np.asarray(points, dtype=float)
    return BarrierSide(mode, ref_pts).measure(pts[..., 0], pts[..., 1])[0]


def barrier_grad(mode, points, ref_pts, d_max):
    """(loss, d/dpoints) of one barrier form on (N, 2) points: the pullback
    of the side's measurement of them."""
    side = BarrierSide(mode, ref_pts)
    pts = np.asarray(points, dtype=float)
    return side.pullback(side.measure(pts[..., 0], pts[..., 1])[1], d_max)


DEGENERATE_KINDS = ("stopping", "reversing", "short-past", "starts-at-rest",
                    "stops-and-departs", "roundoff-stop")


def _scenario_from_controls(accels, kappas, v0, h=12, theta0=0.3):
    """Target rolled from the given controls, ego at constant speed nearby."""
    n = len(accels) + 1
    target = rollout(AgentState(0.0, 0.0, theta0, v0),
                     ControlSequence(np.column_stack([accels, kappas]), 0.1)).points
    ego = rollout(AgentState(-3.0, 5.0, -1.0, 5.0),
                  ControlSequence(np.zeros((n - 1, 2)), 0.1)).points
    return Scenario(Trajectory(ego[:h], 0.1, 1 - h), Trajectory(ego[h:], 0.1, 1),
                    Trajectory(target[:h], 0.1, 1 - h), Trajectory(target[h:], 0.1, 1))


def degenerate_scenario(kind):
    """A scenario whose target past moves in one of DEGENERATE_KINDS."""
    rng = np.random.default_rng(5)
    kappas = rng.uniform(-0.1, 0.1, 23)
    if kind == "stopping":
        # speed 1.0 - 4 * 0.25 reaches exactly 0: the last two past steps
        # are stationary, so the terminal heading is carried over
        accels = np.r_[np.zeros(6), np.full(4, -2.5), np.zeros(2), np.full(11, 2.0)]
        return _scenario_from_controls(accels, kappas, 1.0)
    if kind == "reversing":
        accels = np.r_[rng.uniform(-6.0, -4.0, 10), rng.uniform(-1.0, 1.0, 13)]
        return _scenario_from_controls(accels, kappas, 2.0)
    if kind == "starts-at-rest":
        # states 0 and 1 at rest face the first moving step; the short past
        # puts the start inside the predictor's window
        return _scenario_from_controls(np.r_[0.0, np.full(14, 2.0)], kappas[:15], 0.0, h=4)
    if kind == "stops-and-departs":
        # speed 1.0 - 4 * 0.25 reaches exactly 0 at state 8; states 8 and 9,
        # inside the predictor's window, face the departure at step 9
        accels = np.r_[np.zeros(4), np.full(4, -2.5), 0.0, np.full(14, 2.0)]
        return _scenario_from_controls(accels, kappas, 1.0)
    if kind == "roundoff-stop":
        # controls 6-8 bring the speed to -1.1e-16 m/s, not 0: step 8, inside
        # the predictor's window, moves 2e-19 m and counts as a stop
        accels = np.r_[np.zeros(6), -10.0, 2.0, 9.0, np.full(14, 2.0)]
        kappas[:10] = 0.0
        kappas[7] = 0.125
        return _scenario_from_controls(accels, kappas, -0.1, theta0=0.0)
    # a past shorter than the predictor's window reaches the start state
    return _scenario_from_controls(np.zeros(15), kappas[:15], 5.0, h=4)


@pytest.fixture(scope="session")
def left_turn():
    params = sample_left_turn_params(np.random.default_rng(11), preset="default")
    return generate_left_turn(params, seed=11)


@pytest.fixture(scope="session")
def predictor():
    return KinematicPredictor(PredictorConfig())


@pytest.fixture(scope="session")
def small_predictor():
    """Few samples, zero noise: predictions equal the nominal extrapolation."""
    return KinematicPredictor(PredictorConfig(n_samples=3, noise_scale_a=0.0,
                                              noise_scale_kappa=0.0))
