"""Forward kinematics, control extraction, and their roundtrip."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_trajectory, positions
from trajattack.attack import AttackConfig, AttackProblem
from trajattack.core import AgentState, ControlSequence, Scenario, Trajectory
from trajattack.dynamics import extract_controls, inverse_states, rollout, unicycle_scan
from trajattack.predictor import KinematicPredictor, PredictorConfig


def random_rollout(rng, n=None, v_lo=-5.0, v_hi=15.0, a_bound=4.0,
                   k_bound=0.2, dt=0.1):
    if n is None:
        n = int(rng.integers(2, 25))
    s0 = AgentState(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                    float(rng.uniform(-math.pi, math.pi)),
                    float(rng.uniform(v_lo, v_hi)))
    inputs = np.column_stack([rng.uniform(-a_bound, a_bound, n - 1),
                              rng.uniform(-k_bound, k_bound, n - 1)])
    return s0, ControlSequence(inputs, dt)


def one_step(s, a, kappa, dt=0.1):
    """State (x, y, theta, v) after one control step of the forward model."""
    x, y, theta, v = unicycle_scan(s.x, s.y, s.theta, s.v, np.array([a]),
                                   np.array([kappa]), dt)
    return x[1], y[1], theta[1], v[1]


class TestPhiForward:
    def test_zero_control_straight(self):
        assert one_step(AgentState(0, 0, 0, 1), 0, 0) == (0.1, 0.0, 0.0, 1.0)

    def test_acceleration(self):
        x, y, theta, v = one_step(AgentState(0, 0, 0, 2), 2, 0)
        assert math.isclose(v, 2.2, abs_tol=1e-15)
        assert math.isclose(x, 0.22, abs_tol=1e-15)
        assert y == 0.0 and theta == 0.0

    def test_quarter_turn_in_one_step(self):
        x, y, theta, _ = one_step(AgentState(0, 0, 0, 1), 0, 5 * math.pi)
        assert math.isclose(theta, math.pi / 2, abs_tol=1e-12)
        assert abs(x) < 1e-12
        assert math.isclose(y, 0.1, abs_tol=1e-12)

    def test_direction_follows_speed_sign(self):
        # a negative speed moves the vehicle backwards along its heading
        fwd = one_step(AgentState(0, 0, 0, 1), 0, 0)
        rev = one_step(AgentState(0, 0, 0, 1), -30, 0)
        assert fwd[0] > 0.0
        assert rev[3] < 0 and rev[0] < 0.0 and rev[2] == 0.0

    def test_zero_speed_keeps_direction(self):
        x, y, theta, v = one_step(AgentState(0, 0, 0.4, 1), -10, 0)
        assert v == 0.0
        assert (x, y, theta) == (0.0, 0.0, 0.4)


class TestExtractInitialState:
    def test_speed_and_heading(self):
        s, _ = extract_controls(make_trajectory([(0.0, 0.0), (0.3, 0.4)]))
        assert math.isclose(s.v, 5.0, abs_tol=1e-12)
        assert math.isclose(s.theta, math.atan2(4.0, 3.0), abs_tol=1e-12)
        assert (s.x, s.y) == (0.0, 0.0)

    def test_stationary(self):
        s, _ = extract_controls(make_trajectory([(0.0, 0.0), (0.0, 0.0)]))
        assert s.v == 0.0 and s.theta == 0.0

    def test_backward_motion_encoded_in_heading(self):
        s, _ = extract_controls(make_trajectory([(0.0, 0.0), (-0.1, 0.0)]))
        assert math.isclose(s.v, 1.0, abs_tol=1e-12)
        assert math.isclose(s.theta, math.pi, abs_tol=1e-12)


def travel_signs(points):
    """Direction of travel per step that the inverse model extracts."""
    pts = np.asarray(points, dtype=float)
    theta, v, _, _, sign = inverse_states(pts[:, 0], pts[:, 1], 0.1)
    return sign.tolist(), theta, v


class TestDirectionOfTravel:
    def test_aligned_forward(self):
        assert travel_signs([(0, 0), (0.1, 0), (0.3, 0.01)])[0] == [1.0, 1.0]

    def test_opposed(self):
        assert travel_signs([(0, 0), (0.1, 0), (0.05, 0)])[0] == [1.0, -1.0]

    def test_reversal_to_forward_flips_flag(self):
        # backing up (v < 0) and then moving along the heading again: the
        # flag is absolute, so the aligned displacement reads as forward
        signs, theta, v = travel_signs([(0, 0), (0, 0.1), (0, -0.1), (0, 0.0)])
        assert signs == [1.0, -1.0, 1.0]
        assert v[2] < 0.0 and v[3] > 0.0
        np.testing.assert_allclose(theta, math.pi / 2, atol=1e-12)

    def test_sustained_reversal_keeps_flag(self):
        signs, theta, _ = travel_signs([(0, 0), (0, 0.1), (0, -0.1), (0, -0.4)])
        assert signs == [1.0, -1.0, -1.0]
        np.testing.assert_allclose(theta, math.pi / 2, atol=1e-12)

    def test_zero_velocity_uses_speed_sign(self):
        # a stationary step has no direction: zero speed, heading carried over
        signs, theta, v = travel_signs([(0, 0), (0, 0.1), (0, 0.1)])
        assert signs == [1.0, 0.0]
        assert v[2] == 0.0 and theta[2] == theta[1]


class TestExtractControls:
    def test_uniform_straight(self):
        traj = make_trajectory([(0, 0), (0.1, 0), (0.2, 0)])
        s0, seq = extract_controls(traj)
        assert math.isclose(s0.v, 1.0, abs_tol=1e-12)
        assert s0.theta == 0.0
        np.testing.assert_allclose(seq.inputs, 0.0, atol=1e-12)

    def test_first_control_is_zero_by_convention(self):
        traj = make_trajectory([(0, 0), (0.1, 0), (0.25, 0), (0.45, 0)])
        _, seq = extract_controls(traj)
        assert seq.a[0] == 0.0 and seq.kappa[0] == 0.0
        assert seq.a[1] > 0.0

    def test_reversal_fixture(self):
        traj = make_trajectory([(0.0, 0.0), (0.1, 0.0), (0.05, 0.0)])
        _, seq = extract_controls(traj)
        np.testing.assert_allclose(seq.a, [0.0, -15.0], atol=1e-9)
        np.testing.assert_allclose(seq.kappa, [0.0, 0.0], atol=1e-9)

    def test_reversal_never_inflates_curvature(self):
        rng = np.random.default_rng(5)
        found = 0
        while found < 50:
            s0, seq = random_rollout(rng, n=12, v_lo=1.0, v_hi=6.0)
            inputs = seq.inputs.copy()
            inputs[:, 0] = rng.uniform(-8.0, -3.0, len(inputs))
            traj = rollout(s0, ControlSequence(inputs, seq.dt))
            _, back = extract_controls(traj)
            speeds = np.array([s0.v + inputs[: t + 1, 0].sum() * seq.dt
                               for t in range(len(inputs))])
            if not (speeds[:-1] * speeds[1:] < 0).any():
                continue
            found += 1
            assert np.abs(back.kappa).max() <= 0.2 + 1e-9


class TestRollout:
    def test_straight_line(self):
        traj = rollout(AgentState(0, 0, 0, 1), ControlSequence(np.zeros((5, 2)), 0.1))
        np.testing.assert_allclose(traj.points[:, 0],
                                   [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-15)
        np.testing.assert_allclose(traj.points[:, 1], 0.0, atol=1e-15)

    def test_from_rest(self):
        inputs = np.array([[1.0, 0.0]] * 3)
        traj = rollout(AgentState(0, 0, 0, 0), ControlSequence(inputs, 0.1))
        np.testing.assert_allclose(traj.points[:, 0], [0.0, 0.01, 0.03, 0.06],
                                   atol=1e-15)

    def test_speed_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s0, seq = random_rollout(rng)
            traj = rollout(s0, seq)
            steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
            v = s0.v + np.cumsum(seq.a) * seq.dt
            np.testing.assert_allclose(steps, np.abs(v) * seq.dt, atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            s0, seq = random_rollout(rng)
            traj = rollout(s0, seq)
            s0e, back = extract_controls(traj)
            again = rollout(s0e, back)
            err = np.abs(again.points - traj.points).max()
            assert err < 1e-6


def _problem(scenario):
    cfg = AttackConfig(a_min=-9.0, a_max=9.0)
    return AttackProblem(scenario, cfg, KinematicPredictor(PredictorConfig(n_samples=2)))


def _straight_scenario(theta=0.0, v=5.0, inputs=None):
    """11 past and 11 future points rolled from the given 21 controls."""
    inputs = np.zeros((21, 2)) if inputs is None else inputs
    pts = rollout(AgentState(0, 0, theta, v), ControlSequence(inputs, 0.1)).points
    ego = pts + (0.0, 20.0)
    return Scenario(Trajectory(ego[:11], 0.1, -10), Trajectory(ego[11:], 0.1, 1),
                    Trajectory(pts[:11], 0.1, -10), Trajectory(pts[11:], 0.1, 1))


class TestJointRollout:
    """AttackProblem.rollout rolls the past controls, then the future ones."""

    def test_zero_perturbation_identity(self, left_turn):
        problem = _problem(left_turn)
        xs, ys = positions(problem, np.zeros((problem.n_controls, 2)))
        assert np.abs(xs - left_turn.target_past.points).max() < 1e-6
        assert np.abs(ys - left_turn.target_future.points).max() < 1e-6

    def test_last_past_control_moves_every_future_point(self):
        problem = _problem(_straight_scenario())
        delta = np.zeros((problem.n_controls, 2))
        _, y_ref = positions(problem, delta)
        delta[len(problem.u_ref) - 1, 0] = 1.0
        _, y_new = positions(problem, delta)
        moved = np.linalg.norm(y_new - y_ref, axis=1)
        assert (moved > 1e-9).all()

    def test_future_controls_leave_past_untouched(self):
        problem = _problem(_straight_scenario(theta=0.2, inputs=np.full((21, 2), 0.01)))
        delta = np.zeros((problem.n_controls, 2))
        x_ref, _ = positions(problem, delta)
        delta[len(problem.u_ref):, 0] = 2.0
        x_new, _ = positions(problem, delta)
        assert np.array_equal(x_ref, x_new)

    def test_future_starts_at_index_one(self):
        problem = _problem(_straight_scenario(v=1.0))
        xs, ys = positions(problem, np.zeros((problem.n_controls, 2)))
        assert len(xs) == 11 and len(ys) == 11
        assert math.isclose(ys[0, 0], xs[-1, 0] + 0.1, abs_tol=1e-12)


@pytest.mark.parametrize("v0", [-5.0, -0.5, 0.0])
def test_roundtrip_with_backward_initial_motion(v0):
    rng = np.random.default_rng(abs(hash(v0)) % 2**32)
    s0 = AgentState(1.0, -2.0, 0.7, v0)
    inputs = np.column_stack([rng.uniform(-4, 4, 10), rng.uniform(-0.2, 0.2, 10)])
    traj = rollout(s0, ControlSequence(inputs, 0.1))
    s0e, back = extract_controls(traj)
    again = rollout(s0e, back)
    assert np.abs(again.points - traj.points).max() < 1e-6


def _roundtrip_miss(s0, controls):
    """Largest position distance between a rollout and the rollout of the
    controls extracted from it."""
    traj = rollout(s0, controls)
    again = rollout(*extract_controls(traj))
    return np.linalg.norm(again.points - traj.points, axis=1).max()


GRID_DT = 0.125


@st.composite
def grid_motions(draw):
    """A start state and controls whose speeds lie on a binary-exact grid
    (multiples of 1/8 m/s at dt = 1/8 s), so that exact stops, departures
    from rest and reversals through a stop all occur."""
    n = draw(st.integers(2, 24))
    ticks = draw(st.lists(st.one_of(st.just(0), st.integers(-40, 40)), min_size=n, max_size=n))
    speeds = np.array(ticks, dtype=float) * GRID_DT
    kappas = draw(st.lists(st.floats(-0.5, 0.5), min_size=n - 1, max_size=n - 1))
    coord = st.floats(-10.0, 10.0)
    s0 = AgentState(draw(coord), draw(coord), draw(st.floats(-math.pi, math.pi)), speeds[0])
    return s0, ControlSequence(np.column_stack([np.diff(speeds) / GRID_DT, kappas]), GRID_DT)


# a car at rest facing north pulls away: its start heading is that of the
# first moving step, not 0
_DEPARTURE = (AgentState(0.0, 0.0, 0.5 * math.pi, 0.0),
              ControlSequence(np.column_stack([np.r_[0.0, 0.0, np.ones(21)], np.zeros(23)]),
                              0.1))


@settings(derandomize=True, max_examples=400, deadline=None)
@example(motion=_DEPARTURE)
@given(motion=grid_motions())
def test_roundtrip_property_with_stops_and_reversals(motion):
    assert _roundtrip_miss(*motion) < 1e-9


def test_roundtrip_through_a_roundoff_speed():
    # the speed after the third step is -1.1e-16 m/s, not 0; the 1e-17 m step
    # that follows is a stop, not a reversal with kappa = -17.3 1/m
    controls = ControlSequence(np.array([[-10.0, 0.0], [2.0, 0.125], [9.0, 0.0], [1.0, 0.0]]),
                               0.1)
    assert _roundtrip_miss(AgentState(0.0, 0.0, 0.0, -0.1), controls) < 1e-9
