"""PGD attack loop: projection, step control, feasibility, determinism."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEGENERATE_KINDS, degenerate_scenario, make_trajectory, positions,
                      straight_trajectory)
from tape_reference import Var, grad, reference_loss, value
from trajattack.attack import (AttackConfig, AttackProblem, PGDState,
                               control_box, dataset_accel_bounds,
                               pgd_iteration, run_attack)
from trajattack.barriers import BarrierConfig
from trajattack.cli import GRID
from trajattack.core import ConfigError, ControlSequence
from trajattack.dynamics import extract_controls, rollout
from trajattack.objectives import OBJECTIVES, collision_fn_grad
from trajattack.predictor import KinematicPredictor, PredictorConfig
from trajattack.scenario_io import PRESETS, generate_left_turn, sample_left_turn_params


def seq(rows, dt=0.1):
    return ControlSequence(np.asarray(rows, dtype=float), dt)


class TestAttackConfig:
    def test_defaults(self):
        cfg = AttackConfig()
        assert cfg.alpha0 == 0.01
        assert cfg.gamma == 0.99
        assert cfg.max_iterations == 100
        assert cfg.rel_bound_a == 2.0
        assert cfg.rel_bound_kappa == 0.05
        assert cfg.abs_bound_kappa == 0.2
        assert cfg.max_halvings == 30
        assert cfg.barrier.d_max == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"objective": "mde"},
        {"alpha0": 0.0},
        {"gamma": 0.0},
        {"gamma": 1.5},
        {"max_iterations": -1},
        {"rel_bound_a": 0.0},
        {"a_min": 1.0, "a_max": -1.0},
        {"max_halvings": -2},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            AttackConfig(**kwargs)


@pytest.mark.parametrize("config, kwargs", [
    (AttackConfig, {"a_min": math.nan}),
    (AttackConfig, {"max_iterations": 2.5}),
    (AttackConfig, {"max_iterations": True}),
    (AttackConfig, {"alpha0": "0.01"}),
    (BarrierConfig, {"d_max": math.inf}),
    (PredictorConfig, {"noise_scale_a": math.nan}),
])
def test_config_rejects_non_finite_and_mistyped_numbers(config, kwargs):
    with pytest.raises(ConfigError):
        config(**kwargs)


class TestControlBox:
    def test_relative_bound_when_far_from_limits(self):
        cfg = AttackConfig(a_min=-9.0, a_max=9.0)
        lo, hi, empty = control_box(seq([[0.0, 0.0]]), cfg)
        assert lo[0, 0] == -2.0 and hi[0, 0] == 2.0
        assert lo[0, 1] == -0.05 and hi[0, 1] == 0.05
        assert not empty.any()

    def test_absolute_bound_tightens_curvature(self):
        cfg = AttackConfig(a_min=-9.0, a_max=9.0)
        lo, hi, _ = control_box(seq([[0.0, 0.18]]), cfg)
        assert lo[0, 1] == -0.05
        assert math.isclose(hi[0, 1], 0.02, abs_tol=1e-15)

    def test_absolute_bound_tightens_acceleration(self):
        cfg = AttackConfig(a_min=-1.0, a_max=1.0)
        lo, hi, _ = control_box(seq([[0.5, 0.0]]), cfg)
        assert lo[0, 0] == -1.5
        assert hi[0, 0] == 0.5

    def test_empty_box_collapses_to_midpoint(self):
        cfg = AttackConfig(a_min=-1.0, a_max=1.0)
        lo, hi, empty = control_box(seq([[5.0, 0.0]]), cfg)
        assert empty[0, 0]
        assert lo[0, 0] == hi[0, 0] == -3.0
        assert not empty[0, 1]

    def test_project_inside_is_identity(self):
        # pgd_iteration projects its step onto the box: a step inside stays
        cfg = AttackConfig(a_min=-9.0, a_max=9.0)
        lo, hi, _ = control_box(seq([[0.0, 0.0]]), cfg)
        problem = _StubProblem(grad=[[-100.0, 3.0]], lo=lo, hi=hi)
        state, _ = pgd_iteration(problem, PGDState(delta=np.zeros((1, 2)), alpha=0.01))
        np.testing.assert_array_equal(state.delta, [[1.0, -0.03]])

    def test_project_clips_to_box(self):
        cfg = AttackConfig(a_min=-9.0, a_max=9.0)
        lo, hi, _ = control_box(seq([[0.0, 0.18]]), cfg)
        problem = _StubProblem(grad=[[-300.0, -5.0]], lo=lo, hi=hi)
        state, _ = pgd_iteration(problem, PGDState(delta=np.zeros((1, 2)), alpha=0.01))
        assert state.delta[0, 0] == 2.0
        assert math.isclose(state.delta[0, 1], 0.02, abs_tol=1e-15)


class TestDatasetAccelBounds:
    def test_constant_velocity_gives_zero(self):
        bounds = dataset_accel_bounds([straight_trajectory(10)])
        assert bounds == (0.0, 0.0)

    def test_braking_fixture(self):
        traj = make_trajectory([(0.0, 0.0), (0.1, 0.0), (0.05, 0.0)])
        lo, hi = dataset_accel_bounds([traj])
        assert math.isclose(lo, -15.0, abs_tol=1e-9)
        assert math.isclose(hi, 0.0, abs_tol=1e-9)

    def test_union_over_trajectories(self):
        brake = make_trajectory([(0.0, 0.0), (0.1, 0.0), (0.05, 0.0)])
        cruise = straight_trajectory(8, v=3.0)
        lo, hi = dataset_accel_bounds([cruise, brake])
        assert math.isclose(lo, -15.0, abs_tol=1e-9)
        assert math.isclose(hi, 0.0, abs_tol=1e-9)

    def test_empty_set(self):
        with pytest.raises(ConfigError):
            dataset_accel_bounds([])


class _StubProblem:
    """Minimal loss/feasibility oracle for exercising pgd_iteration.

    Its "rollout" of a candidate is the candidate itself and its one
    barrier measurement is the candidate's magnitude, so a test can see
    which candidate's states the loop carries.
    """

    def __init__(self, grad, lo, hi, feasible=lambda d: True,
                 gamma=0.99, max_halvings=30, loss=0.0):
        self._grad = np.asarray(grad, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self._feasible = feasible
        self.gamma = gamma
        self.max_halvings = max_halvings
        self._loss = loss

    def loss_and_grad(self, delta, states=None):
        assert states is None or (np.array_equal(states[0], delta)
                                  and np.array_equal(states[1], np.abs(delta)))
        return self._loss, self._grad.copy()

    def feasibility(self, deltas):
        ok = np.array([bool(self._feasible(d)) for d in deltas])
        return ok, np.abs(deltas).max(axis=(1, 2)), (deltas.copy(), np.abs(deltas))


class TestPgdIteration:
    def test_single_step_hits_box_edge(self):
        problem = _StubProblem(grad=[[2.0, 0.0]],
                               lo=[[-0.01, -0.01]], hi=[[0.01, 0.01]])
        state = PGDState(delta=np.zeros((1, 2)), alpha=0.01)
        state, loss = pgd_iteration(problem, state)
        assert loss == 0.0
        assert state.delta[0, 0] == -0.01
        assert state.delta[0, 1] == 0.0

    def test_zero_gradient_leaves_iterate_and_decays_alpha(self):
        problem = _StubProblem(grad=[[0.0, 0.0]], lo=[[-1, -1]], hi=[[1, 1]])
        start = np.array([[0.3, -0.2]])
        state = PGDState(delta=start.copy(), alpha=0.01)
        state, _ = pgd_iteration(problem, state)
        np.testing.assert_array_equal(state.delta, start)
        assert state.alpha == 0.01 * 0.99

    def test_alpha_schedule_ignores_halvings(self):
        calls = []

        def feasible(d):
            calls.append(1)
            return len(calls) > 2   # first two candidates rejected

        problem = _StubProblem(grad=[[1.0, 0.0]], lo=[[-1, -1]], hi=[[1, 1]],
                               feasible=feasible)
        state = PGDState(delta=np.zeros((1, 2)), alpha=0.08)
        state, _ = pgd_iteration(problem, state)
        assert state.halving_events == 2
        assert math.isclose(state.delta[0, 0], -0.02, abs_tol=1e-15)
        assert math.isclose(state.alpha, 0.08 * 0.99, abs_tol=1e-15)
        # the accepted candidate's rollout and measurement are carried to the
        # next gradient
        np.testing.assert_array_equal(state.states[0], state.delta)
        np.testing.assert_array_equal(state.states[1], np.abs(state.delta))

    def test_exhausted_halvings_keep_previous_iterate(self):
        problem = _StubProblem(grad=[[1.0, 0.0]], lo=[[-1, -1]], hi=[[1, 1]],
                               feasible=lambda d: False, max_halvings=3)
        start = np.array([[0.5, 0.5]])
        state = PGDState(delta=start.copy(), alpha=0.01)
        state, _ = pgd_iteration(problem, state)
        np.testing.assert_array_equal(state.delta, start)
        assert state.rejections == 1
        assert state.halving_events == 3
        assert state.states is None   # a rejected step keeps the old states

    def test_linear_descent_matches_closed_form(self):
        g = np.array([[0.7, -0.3]])
        problem = _StubProblem(grad=g, lo=[[-10, -10]], hi=[[10, 10]], gamma=0.5)
        state = PGDState(delta=np.zeros((1, 2)), alpha=0.01)
        for _ in range(10):
            state, _ = pgd_iteration(problem, state)
        # delta = -g * alpha0 * sum of gamma^m
        total = 0.01 * sum(0.5 ** m for m in range(10))
        np.testing.assert_allclose(state.delta, -g * total, atol=1e-12)
        assert math.isclose(state.alpha, 0.01 * 0.5 ** 10, rel_tol=1e-12)

    def test_halving_past_the_first_block(self):
        calls = []

        def feasible(d):
            calls.append(1)
            return len(calls) > 10   # candidates 0-9 rejected

        problem = _StubProblem(grad=[[1.0, 0.0]], lo=[[-1, -1]], hi=[[1, 1]],
                               feasible=feasible)
        state = PGDState(delta=np.zeros((1, 2)), alpha=0.5)
        state, _ = pgd_iteration(problem, state)
        assert state.halving_events == 10
        assert state.rejections == 0
        assert state.delta[0, 0] == -0.5 * 0.5 ** 10

    def test_max_accepted_distance_tracks_worst(self):
        problem = _StubProblem(grad=[[1.0, 0.0]], lo=[[-1, -1]], hi=[[1, 1]])
        state = PGDState(delta=np.zeros((1, 2)), alpha=0.25)
        state, _ = pgd_iteration(problem, state)
        assert state.max_accepted_distance == 0.25
        state, _ = pgd_iteration(problem, state)
        assert state.max_accepted_distance > 0.25


class TestRunAttack:
    def test_zero_iterations_is_identity(self, left_turn, small_predictor):
        cfg = AttackConfig(max_iterations=0, a_min=-4.0, a_max=4.0)
        res = run_attack(left_turn, cfg, small_predictor)
        assert res.iterations_run == 0
        assert res.loss_trace == ()
        np.testing.assert_allclose(res.x_pert.points, left_turn.target_past.points,
                                   atol=1e-9)
        np.testing.assert_allclose(res.y_pert.points, left_turn.target_future.points,
                                   atol=1e-9)

    def test_loss_descends(self, left_turn):
        cfg = AttackConfig(objective="ade", max_iterations=20,
                           a_min=-4.0, a_max=4.0)
        res = run_attack(left_turn, cfg, KinematicPredictor(PredictorConfig(n_samples=10)))
        assert res.loss_trace[-1] < res.loss_trace[0]
        assert res.iterations_run == 20

    def test_bitwise_determinism(self, left_turn):
        cfg = AttackConfig(objective="fde", max_iterations=6,
                           a_min=-4.0, a_max=4.0)
        p = KinematicPredictor(PredictorConfig(n_samples=8))
        a = run_attack(left_turn, cfg, p)
        b = run_attack(left_turn, cfg, p)
        assert a.loss_trace == b.loss_trace
        assert np.array_equal(a.x_pert.points, b.x_pert.points)
        assert np.array_equal(a.y_pert.points, b.y_pert.points)
        assert np.array_equal(a.pred_pert.samples, b.pred_pert.samples)

    @pytest.mark.parametrize("objective,observed,future", GRID)
    def test_predictions_are_derived_on_access(self, left_turn, objective, observed, future):
        """pred_pert and pred_clean are bitwise the predictions from x_pert and
        from the scenario's own past; the attack itself never calls predict."""
        calls = []

        class Counting(KinematicPredictor):
            def predict(self, past_target, *, horizon):
                calls.append(past_target)
                return super().predict(past_target, horizon=horizon)

        cfg = AttackConfig(objective=objective, a_min=-4.0, a_max=4.0,
                           barrier=BarrierConfig(observed_mode=observed, future_mode=future))
        result = run_attack(left_turn, cfg, Counting(PredictorConfig()))
        assert len(calls) == 0
        assert result.past_clean is left_turn.target_past
        fresh = KinematicPredictor(PredictorConfig())
        horizon = left_turn.horizon_future
        assert np.array_equal(result.pred_pert.samples,
                              fresh.predict(result.x_pert, horizon=horizon).samples)
        assert np.array_equal(result.pred_clean.samples,
                              fresh.predict(left_turn.target_past, horizon=horizon).samples)

    def test_result_keeps_no_samples(self, left_turn, predictor):
        """A result retains at most 8 KB at K=100, T=12: its predictions are
        derived on access, not stored."""
        assert (predictor.config.n_samples, left_turn.horizon_future) == (100, 12)
        cfg = AttackConfig(a_min=-4.0, a_max=4.0)
        tracemalloc.start()
        try:
            results = [run_attack(left_turn, cfg, predictor) for _ in range(3)]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del results
            gc.collect()
            per_result = (held - tracemalloc.get_traced_memory()[0]) / 3
        finally:
            tracemalloc.stop()
        assert per_result <= 8000

    def test_accepted_iterates_stay_feasible_and_boxed(self, left_turn):
        cfg = AttackConfig(objective="collision_fp", max_iterations=30,
                           a_min=-4.0, a_max=4.0)
        res = run_attack(left_turn, cfg, KinematicPredictor(PredictorConfig(n_samples=10)))
        assert res.diagnostics["max_accepted_distance"] < cfg.barrier.d_max
        assert res.diagnostics["max_box_excess"] == 0.0
        problem = AttackProblem(left_turn, cfg,
                                KinematicPredictor(PredictorConfig(n_samples=10)))
        delta = np.vstack([
            res.u_pert.inputs - problem.u_ref.inputs,
            res.v_pert.inputs - problem.v_ref.inputs,
        ])
        assert np.all(delta >= problem.lo - 1e-12)
        assert np.all(delta <= problem.hi + 1e-12)

    def test_diagnostics_keys(self, left_turn, small_predictor):
        cfg = AttackConfig(max_iterations=2, a_min=-4.0, a_max=4.0)
        res = run_attack(left_turn, cfg, small_predictor)
        for key in ("rejections", "max_accepted_distance", "max_box_excess",
                    "empty_box_entries", "final_loss"):
            assert key in res.diagnostics

    def test_perturbed_controls_reproduce_positions(self, left_turn, small_predictor):
        cfg = AttackConfig(objective="ade", max_iterations=10,
                           a_min=-4.0, a_max=4.0)
        res = run_attack(left_turn, cfg, small_predictor)
        s0, _ = extract_controls(left_turn.target_past)
        rolled = rollout(s0, ControlSequence(np.vstack([res.u_pert.inputs,
                                                        res.v_pert.inputs]), left_turn.dt))
        n = len(res.x_pert)
        np.testing.assert_allclose(rolled.points[:n], res.x_pert.points, atol=1e-9)
        np.testing.assert_allclose(rolled.points[n:], res.y_pert.points, atol=1e-9)

    def test_final_loss_is_loss_at_returned_perturbation(self):
        scenario = generate_left_turn(
            sample_left_turn_params(np.random.default_rng(7)), seed=7)
        cfg = AttackConfig(max_iterations=3)
        predictor = KinematicPredictor(PredictorConfig())
        res = run_attack(scenario, cfg, predictor)
        problem = AttackProblem(scenario, cfg, predictor)
        controls = np.vstack([res.u_pert.inputs, res.v_pert.inputs])
        delta = controls - problem.ref_controls
        assert np.array_equal(problem.ref_controls + delta, controls)
        assert res.diagnostics["final_loss"] == problem.loss_and_grad(delta)[0]

    def test_collision_fn_drift_is_zero_at_the_start(self):
        # the unperturbed predictions are the clean ones: the drift term and
        # its gradient vanish exactly, at the apex of the norm
        scenario = generate_left_turn(
            sample_left_turn_params(np.random.default_rng(7)), seed=7)
        problem = AttackProblem(scenario, AttackConfig(objective="collision_fn"),
                                KinematicPredictor(PredictorConfig()))
        past, fut = positions(problem, np.zeros((problem.n_controls, 2)))
        (xs, ys), _ = problem.predictor.predict_vjp(past, problem.dt,
                                                    problem.horizon_future)
        loss, _, g_xs, g_ys = collision_fn_grad(fut, xs, ys, problem.ego_pts,
                                                problem.clean_mean)
        gap = fut - problem.ego_pts
        assert loss - np.hypot(gap[:, 0], gap[:, 1]).min() == 0.0
        assert not g_xs.any() and not g_ys.any()


BARRIER_FORMS = (("time", "none"), ("time_traj", "none"), ("time", "traj"))


def test_future_none_constrains_nothing():
    """A free future adds no constrained distance: moving only the future
    keeps every candidate feasible, while the traj future rejects it."""
    scenario = generate_left_turn(sample_left_turn_params(np.random.default_rng(21)),
                                  seed=21)
    predictor = KinematicPredictor(PredictorConfig(n_samples=4))
    problems = {fut: AttackProblem(scenario, AttackConfig(
                    a_min=-4.0, a_max=4.0, barrier=BarrierConfig(future_mode=fut)), predictor)
                for fut in ("none", "traj")}
    n_past = len(problems["none"].u_ref)
    cands = np.zeros((3, problems["none"].n_controls, 2))
    cands[:, n_past:, 1] = np.array([0.1, 0.2, 0.3])[:, None]
    ok, worst, _ = problems["none"].feasibility(cands)
    assert ok.all() and not worst.any()
    assert not problems["traj"].feasibility(cands)[0].any()


@pytest.mark.parametrize("barrier", [("time", "none"), ("time_traj", "traj")])
def test_stacked_feasibility_equals_one_at_a_time(barrier):
    """The step search checks candidates as a stack; each answer, the
    rollout and every side's measurement the gradient reads, is bitwise
    the one a single-candidate check gives."""
    rng = np.random.default_rng(21)
    scenario = generate_left_turn(sample_left_turn_params(rng), seed=21)
    cfg = AttackConfig(a_min=-4.0, a_max=4.0,
                       barrier=BarrierConfig(observed_mode=barrier[0], future_mode=barrier[1]))
    problem = AttackProblem(scenario, cfg, KinematicPredictor(PredictorConfig(n_samples=4)))
    direction = np.column_stack([rng.uniform(1.0, 2.0, problem.n_controls),
                                 rng.uniform(0.02, 0.05, problem.n_controls)])
    cands = np.clip(direction * 0.5 ** np.arange(12)[:, None, None], problem.lo, problem.hi)
    ok, worst, states = problem.feasibility(cands)
    assert ok.shape == worst.shape == (12,)
    assert all(s.shape == (12, problem.n_controls + 1) for s in states[:4])
    assert len(states) == 4 + sum(side.n_parts for side in problem.sides)
    assert not ok[0] and ok[-1]
    for k, cand in enumerate(cands):
        one_ok, one_worst, one_states = problem.feasibility(cand)
        assert one_ok == ok[k] and one_worst == worst[k]
        assert len(one_states) == len(states)
        assert all(np.array_equal(one, s[k]) for one, s in zip(one_states, states))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), preset=st.sampled_from(sorted(PRESETS)),
       config=st.sampled_from(GRID), alpha0=st.sampled_from([0.01, 0.1, 1.0]),
       max_halvings=st.integers(0, 30), iterations=st.integers(1, 6))
def test_accepted_iterates_are_boxed_and_feasible(seed, preset, config, alpha0, max_halvings,
                                                  iterations):
    """Over drawn scenarios, configurations, step sizes and halving budgets,
    every accepted iterate lies in [lo, hi], where the clamp leaves it
    unchanged, and has every constrained distance below d_max."""
    objective, observed, future = config
    scenario = generate_left_turn(
        sample_left_turn_params(np.random.default_rng(seed), preset=preset), seed=seed)
    cfg = AttackConfig(objective=objective, alpha0=alpha0, max_halvings=max_halvings,
                       a_min=-4.0, a_max=4.0,
                       barrier=BarrierConfig(observed_mode=observed, future_mode=future))
    problem = AttackProblem(scenario, cfg, KinematicPredictor(PredictorConfig(n_samples=8)))
    state = PGDState(delta=np.zeros((problem.n_controls, 2)), alpha=alpha0)
    for _ in range(iterations):
        state, _ = pgd_iteration(problem, state)
        assert np.all(problem.lo <= state.delta) and np.all(state.delta <= problem.hi)
        assert np.array_equal(np.clip(state.delta, problem.lo, problem.hi), state.delta)
        ok, worst, _ = problem.feasibility(state.delta)
        assert ok and worst < cfg.barrier.d_max
    assert state.max_accepted_distance < cfg.barrier.d_max


class _Remeasuring:
    """An AttackProblem whose gradient rolls out and measures every iterate
    afresh instead of reading the states the feasibility check carried."""

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def loss_and_grad(self, delta, states=None):
        return self._problem.loss_and_grad(delta)


@pytest.mark.parametrize("max_halvings", [30, 2])
@pytest.mark.parametrize("objective,observed,future", GRID)
def test_carried_states_equal_a_fresh_rollout(left_turn, objective, observed, future,
                                              max_halvings):
    """Reading the accepted candidate's rollout and barrier measurement from
    the feasibility check changes no bit: every iterate, the loss trace, the
    halvings and the diagnostics equal those of a loop that re-measures each
    iterate, and the carried states equal a fresh measurement.  Two halvings
    leave the traj configurations with rejected steps."""
    cfg = AttackConfig(objective=objective, a_min=-4.0, a_max=4.0, max_halvings=max_halvings,
                       barrier=BarrierConfig(observed_mode=observed, future_mode=future))
    predictor = KinematicPredictor(PredictorConfig())
    problem = AttackProblem(left_turn, cfg, predictor)
    carried = PGDState(delta=np.zeros((problem.n_controls, 2)), alpha=cfg.alpha0)
    fresh = PGDState(delta=carried.delta, alpha=cfg.alpha0)
    trace = []
    for _ in range(cfg.max_iterations):
        carried, _ = pgd_iteration(problem, carried)
        fresh, loss = pgd_iteration(_Remeasuring(problem), fresh)
        assert np.array_equal(carried.delta, fresh.delta)
        if carried.states is not None:
            measured = problem.feasibility(carried.delta)[2]
            assert len(carried.states) == len(measured)
            assert all(np.array_equal(s, m) for s, m in zip(carried.states, measured))
        trace.append(loss)
    result = run_attack(left_turn, cfg, predictor)
    assert result.loss_trace == tuple(trace)
    assert result.halving_events == fresh.halving_events
    assert np.array_equal(np.vstack([result.u_pert.inputs, result.v_pert.inputs]),
                          problem.ref_controls + fresh.delta)
    assert result.diagnostics == {
        "rejections": fresh.rejections,
        "max_accepted_distance": fresh.max_accepted_distance,
        "max_box_excess": fresh.max_box_excess,
        "empty_box_entries": problem.empty_box_entries,
        "final_loss": problem.loss_and_grad(fresh.delta)[0],
    }


def _assert_adjoint_matches_tape(problem, probes):
    for delta in probes:
        leaves = [Var(float(v)) for v in delta.ravel()]
        tape_loss = reference_loss(problem, leaves)
        tape_grad = np.array(grad(tape_loss, leaves)).reshape(delta.shape)
        loss, g = problem.loss_and_grad(delta)
        assert abs(loss - value(tape_loss)) <= 1e-9 * abs(value(tape_loss))
        assert np.max(np.abs(g - tape_grad)) <= 1e-9 * np.max(np.abs(tape_grad))


def _feasible_probes(problem, rng, n=2):
    """The unperturbed controls (every barrier distance at its cone apex)
    and n random feasible perturbations."""
    probes = [np.zeros((problem.n_controls, 2))]
    while len(probes) < n + 1:
        delta = np.clip(np.column_stack([rng.uniform(-0.1, 0.1, problem.n_controls),
                                         rng.uniform(-0.002, 0.002, problem.n_controls)]),
                        problem.lo, problem.hi)
        if problem.feasibility(delta)[0]:
            probes.append(delta)
    return probes


@pytest.mark.parametrize("objective,barrier",
                         list(itertools.product(OBJECTIVES, BARRIER_FORMS)))
def test_adjoint_matches_tape(objective, barrier):
    """The hand-written adjoint against the tape reference, to 1e-9 relative."""
    rng = np.random.default_rng(3 * OBJECTIVES.index(objective)
                                + BARRIER_FORMS.index(barrier))
    scenario = generate_left_turn(sample_left_turn_params(rng), seed=int(rng.integers(1000)))
    cfg = AttackConfig(objective=objective, a_min=-4.0, a_max=4.0,
                       barrier=BarrierConfig(observed_mode=barrier[0],
                                             future_mode=barrier[1]))
    problem = AttackProblem(scenario, cfg, KinematicPredictor(PredictorConfig()))
    _assert_adjoint_matches_tape(problem, _feasible_probes(problem, rng))


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("kind", DEGENERATE_KINDS)
def test_adjoint_matches_tape_on_degenerate_motion(kind, objective):
    """Stationary steps, a reversal, a short past, a start at rest, a stop
    with a departure and a speed that misses zero by roundoff in the
    extracted states."""
    cfg = AttackConfig(objective=objective, a_min=-9.0, a_max=9.0,
                       barrier=BarrierConfig(observed_mode="time_traj", future_mode="traj"))
    problem = AttackProblem(degenerate_scenario(kind), cfg,
                            KinematicPredictor(PredictorConfig()))
    _assert_adjoint_matches_tape(problem, _feasible_probes(problem, np.random.default_rng(0)))
