"""Kinematic surrogate predictor: extrapolation fidelity and determinism."""

import numpy as np
import pytest

from conftest import degenerate_scenario, make_trajectory, straight_trajectory
from trajattack.attack import AttackConfig, AttackProblem
from trajattack.core import ConfigError, DataError, Trajectory
from trajattack.dynamics import extract_controls, inverse_states, unicycle_scan
from trajattack.predictor import KinematicPredictor, PredictorConfig
from trajattack.scenario_io import generate_left_turn, sample_left_turn_params


def arc_points(n, v, kappa, dt, x0=0.0, y0=0.0, theta0=0.0):
    """Closed form of the constant-control recursion with a = 0."""
    thetas = theta0 + v * kappa * dt * np.arange(n)
    xs = x0 + np.concatenate([[0.0], np.cumsum(v * np.cos(thetas[1:]) * dt)])
    ys = y0 + np.concatenate([[0.0], np.cumsum(v * np.sin(thetas[1:]) * dt)])
    return np.column_stack([xs, ys])


class TestPredictorConfig:
    def test_defaults(self):
        cfg = PredictorConfig()
        assert cfg.n_samples == 100
        assert cfg.noise_scale_a == 0.5
        assert cfg.noise_scale_kappa == 0.01
        assert cfg.smoothing_window == 4

    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0},
        {"noise_scale_a": -0.1},
        {"noise_scale_kappa": -1e-9},
        {"smoothing_window": 1},
        {"seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PredictorConfig(**kwargs)


class TestExtrapolation:
    def test_straight_line_continues_at_constant_velocity(self, small_predictor):
        past = straight_trajectory(12, v=5.0, theta=0.3)
        pred = small_predictor.predict(past, horizon=12)
        last = past.points[-1]
        step = 5.0 * 0.1 * np.array([np.cos(0.3), np.sin(0.3)])
        for t in range(12):
            expected = last + (t + 1) * step
            np.testing.assert_allclose(
                pred.samples[:, t], np.broadcast_to(expected, (3, 2)), atol=1e-9)

    def test_arc_continues_with_same_curvature(self, small_predictor):
        v, kappa, dt = 5.0, 0.05, 0.1
        full = arc_points(24, v, kappa, dt)
        past = make_trajectory(full[:12], dt)
        pred = small_predictor.predict(past, horizon=12)
        for t in range(12):
            np.testing.assert_allclose(
                pred.samples[:, t], np.broadcast_to(full[12 + t], (3, 2)),
                atol=1e-6)

    def test_nominal_averages_trailing_window(self):
        # Last 4 controls are (0, 0) even though earlier ones turn, so the
        # zero-noise prediction is a pure straight-line continuation.
        v, dt = 4.0, 0.1
        bend = arc_points(8, v, 0.1, dt)
        theta_end = v * 0.1 * dt * 7
        tail_dirs = theta_end + np.zeros(5)
        tail = bend[-1] + np.cumsum(
            v * dt * np.column_stack([np.cos(tail_dirs), np.sin(tail_dirs)]),
            axis=0)
        past = make_trajectory(np.vstack([bend, tail]), dt)
        p = KinematicPredictor(PredictorConfig(n_samples=1, noise_scale_a=0.0,
                                               noise_scale_kappa=0.0))
        pred = p.predict(past, horizon=3)
        expected = tail[-1] + np.cumsum(
            v * dt * np.column_stack([np.cos([theta_end] * 3),
                                      np.sin([theta_end] * 3)]), axis=0)
        np.testing.assert_allclose(pred.samples[0], expected, atol=1e-9)

    def test_sample_count_and_shape(self, predictor, left_turn):
        pred = predictor.predict(left_turn.target_past, horizon=7)
        assert pred.samples.shape == (100, 7, 2)

    def test_offsets_are_clipped_to_three_sigma(self):
        p = KinematicPredictor(PredictorConfig(n_samples=5000))
        assert np.max(np.abs(p._offset_a)) <= 3 * 0.5 + 1e-12
        assert np.max(np.abs(p._offset_kappa)) <= 3 * 0.01 + 1e-12

    def test_acceleration_noise_spreads_along_track_only(self):
        p = KinematicPredictor(PredictorConfig(n_samples=20,
                                               noise_scale_kappa=0.0))
        past = straight_trajectory(12, v=5.0)
        pred = p.predict(past, horizon=5)
        np.testing.assert_allclose(pred.samples[:, :, 1], 0.0, atol=1e-12)
        assert np.std(pred.samples[:, -1, 0]) > 0.03

    def test_horizon_must_be_positive(self, predictor, left_turn):
        with pytest.raises(ConfigError):
            predictor.predict(left_turn.target_past, horizon=0)

    def test_short_past_is_rejected(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(straight_trajectory(2), horizon=5)


def _past(kind):
    if kind in ("default", "near-miss"):
        rng = np.random.default_rng(4)
        return generate_left_turn(sample_left_turn_params(rng, preset=kind),
                                  seed=4).target_past
    return degenerate_scenario(kind).target_past


@pytest.mark.parametrize("kind", ["default", "near-miss", "stopping", "reversing",
                                  "starts-at-rest", "roundoff-stop"])
@pytest.mark.parametrize("n_samples", [1, 100])
@pytest.mark.parametrize("horizon", [1, 12, 20])
def test_closed_form_matches_the_forward_model(kind, n_samples, horizon):
    """The samples' closed-form speed and heading roll out the positions that
    the forward model reaches on each sample's constant control."""
    past = _past(kind)
    p = KinematicPredictor(PredictorConfig(n_samples=n_samples))
    (xs, ys), _ = p.predict_vjp(past.points, past.dt, horizon)
    _, controls = extract_controls(past)
    w = min(p.config.smoothing_window, len(controls))
    a = controls.a[-w:].sum() / w + p._offset_a
    kappa = controls.kappa[-w:].sum() / w + p._offset_kappa
    theta, v, *_ = inverse_states(past.points[:, 0], past.points[:, 1], past.dt)
    shape = (horizon, n_samples)
    x, y, _, _ = unicycle_scan(*past.points[-1], theta[-1], v[-1], np.broadcast_to(a, shape),
                               np.broadcast_to(kappa, shape), past.dt)
    scale = np.abs(np.vstack([past.points, np.column_stack([xs.ravel(), ys.ravel()])])).max()
    assert np.abs(xs - x[1:]).max() <= 1e-12 * scale
    assert np.abs(ys - y[1:]).max() <= 1e-12 * scale


class TestDeterminism:
    def test_repeated_calls_are_bitwise_identical(self, predictor, left_turn):
        a = predictor.predict(left_turn.target_past, horizon=12)
        b = predictor.predict(left_turn.target_past, horizon=12)
        assert np.array_equal(a.samples, b.samples)

    def test_check_deterministic_passes(self, predictor, left_turn):
        """The contract the attack relies on: a past predicts bitwise the same
        K = 100 samples whatever was predicted in between."""
        first = predictor.predict(left_turn.target_past, horizon=12)
        predictor.predict(straight_trajectory(8), horizon=12)
        second = predictor.predict(left_turn.target_past, horizon=12)
        assert np.array_equal(first.samples, second.samples)
        assert first.samples.shape[0] == 100

    def test_fresh_instance_same_seed_matches(self, left_turn):
        a = KinematicPredictor(PredictorConfig(seed=5)).predict(
            left_turn.target_past, horizon=12)
        b = KinematicPredictor(PredictorConfig(seed=5)).predict(
            left_turn.target_past, horizon=12)
        assert np.array_equal(a.samples, b.samples)


class TestPredictMean:
    """AttackProblem.clean_mean: the mean prediction on the rolled reference."""

    def test_single_sample_identity(self, left_turn):
        p = KinematicPredictor(PredictorConfig(n_samples=1))
        problem = AttackProblem(left_turn, AttackConfig(), p)
        past = Trajectory(problem.x_ref, left_turn.dt)
        sample = p.predict(past, horizon=left_turn.horizon_future).samples[0]
        np.testing.assert_array_equal(problem.clean_mean, sample)

    def test_matches_bruteforce_average(self, predictor, left_turn):
        problem = AttackProblem(left_turn, AttackConfig(), predictor)
        pred = predictor.predict(Trajectory(problem.x_ref, left_turn.dt), horizon=12)
        brute = sum(pred.samples[k] for k in range(100)) / 100.0
        np.testing.assert_allclose(problem.clean_mean, brute, atol=1e-12)
