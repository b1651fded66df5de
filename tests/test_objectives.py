"""Attack objectives: hand-computed values and invariances."""

import math

import numpy as np
import pytest

from conftest import barrier_grad, make_trajectory, positions, straight_trajectory
from tape_reference import ade_xy, collision_fp_xy, fde_xy, value
from trajattack.attack import AttackConfig, AttackProblem
from trajattack.barriers import BarrierConfig
from trajattack.core import DataError, PredictionSet
from trajattack.objectives import (OBJECTIVES, ade_grad, collision_fn_grad,
                                   collision_fp_grad, fde_grad)
from trajattack.predictor import KinematicPredictor, PredictorConfig


# The hand-value tests read the array losses through these adapters over
# PredictionSet and Trajectory.


def _xy(pred):
    """(T, K) sample coordinates of a PredictionSet."""
    return pred.samples[:, :, 0].T, pred.samples[:, :, 1].T


def loss_ade(y_tar, pred):
    return float(ade_grad(*_xy(pred), y_tar.points)[0])


def loss_fde(y_tar, pred):
    return float(fde_grad(*_xy(pred), y_tar.points)[0])


def loss_collision_fp(y_ego, pred):
    return float(collision_fp_grad(*_xy(pred), y_ego.points)[0])


def loss_collision_fn(y_ego, y_pert, pred_pert, pred_clean):
    clean_mean = pred_clean.samples.mean(axis=0)
    return float(collision_fn_grad(y_pert.points, *_xy(pred_pert), y_ego.points,
                                   clean_mean)[0])


def pred_from_offsets(ref_pts, offsets):
    """One sample per offset vector, each the reference shifted rigidly."""
    ref = np.asarray(ref_pts, dtype=float)
    samples = np.stack([ref + np.asarray(o, dtype=float) for o in offsets])
    return PredictionSet(samples, 0.1)


class TestAde:
    def test_uniform_unit_offset(self):
        ref = [(0.0, 0.0), (1.0, 0.0)]
        pred = pred_from_offsets(ref, [(1.0, 0.0)])
        assert loss_ade(make_trajectory(ref), pred) == -1.0

    def test_two_samples_average(self):
        ref = [(0.0, 0.0), (1.0, 0.0)]
        pred = pred_from_offsets(ref, [(0.0, 1.0), (0.0, 3.0)])
        assert loss_ade(make_trajectory(ref), pred) == -2.0

    def test_zero_error(self):
        ref = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        pred = pred_from_offsets(ref, [(0.0, 0.0)])
        assert loss_ade(make_trajectory(ref), pred) == 0.0

    def test_horizon_mismatch(self):
        ref = [(0.0, 0.0), (1.0, 0.0)]
        pred = pred_from_offsets(ref, [(1.0, 0.0)])
        with pytest.raises(DataError):
            loss_ade(straight_trajectory(3), pred)


class TestFde:
    def test_only_final_step_counts(self):
        ref = [(0.0, 0.0), (1.0, 0.0)]
        samples = np.array([[[9.0, 9.0], [4.0, 4.0]]])
        pred = PredictionSet(samples, 0.1)
        assert loss_fde(make_trajectory(ref), pred) == -5.0

    def test_fde_attack_bound(self):
        # |fde| >= |ade| whenever the final error is the largest per-step error
        ref = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        pred = pred_from_offsets(ref, [(0.5, 0.0)])
        growing = PredictionSet(
            np.asarray(ref, dtype=float)[None, :, :]
            + np.array([[0.0, 0.0], [0.5, 0.0], [1.5, 0.0]])[None, :, :], 0.1)
        tr = make_trajectory(ref)
        assert loss_fde(tr, growing) <= loss_ade(tr, growing)
        assert loss_fde(tr, pred) == loss_ade(tr, pred)


class TestCollisionFp:
    def test_closest_approach(self):
        ego = [(0.0, 0.0), (10.0, 0.0)]
        samples = np.array([[[0.0, 5.0], [10.0, 2.0]]])
        pred = PredictionSet(samples, 0.1)
        assert loss_collision_fp(make_trajectory(ego), pred) == 2.0

    def test_mean_over_samples(self):
        ego = [(0.0, 0.0), (10.0, 0.0)]
        samples = np.array([
            [[0.0, 1.0], [10.0, 4.0]],
            [[0.0, 3.0], [10.0, 3.0]],
        ])
        pred = PredictionSet(samples, 0.1)
        assert loss_collision_fp(make_trajectory(ego), pred) == 2.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        ego = rng.normal(size=(6, 2))
        samples = rng.normal(size=(4, 6, 2))
        base = loss_collision_fp(make_trajectory(ego), PredictionSet(samples, 0.1))
        scaled = loss_collision_fp(make_trajectory(3.0 * ego),
                                   PredictionSet(3.0 * samples, 0.1))
        assert math.isclose(scaled, 3.0 * base, rel_tol=1e-12)


class TestCollisionFn:
    def test_zero_when_touching_and_unmoved(self):
        ego = make_trajectory([(0.0, 0.0), (1.0, 0.0)])
        y_pert = make_trajectory([(0.0, 0.0), (5.0, 5.0)])
        pred = pred_from_offsets([(2.0, 2.0), (3.0, 3.0)], [(0.0, 0.0)])
        assert loss_collision_fn(ego, y_pert, pred, pred) == 0.0

    def test_constant_separation(self):
        ego = make_trajectory([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        y_pert = make_trajectory([(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)])
        pred = pred_from_offsets([(9.0, 9.0), (8.0, 8.0), (7.0, 7.0)], [(0.0, 0.0)])
        assert loss_collision_fn(ego, y_pert, pred, pred) == 3.0

    def test_prediction_drift_term(self):
        ego = make_trajectory([(0.0, 0.0), (1.0, 0.0)])
        y_pert = make_trajectory([(0.0, 0.0), (9.0, 9.0)])  # touches ego at t=1
        ref = [(5.0, 5.0), (6.0, 5.0)]
        clean = pred_from_offsets(ref, [(0.0, 0.0)])
        drifted = pred_from_offsets(ref, [(0.3, 0.4)])
        assert math.isclose(loss_collision_fn(ego, y_pert, drifted, clean), 0.5,
                            abs_tol=1e-12)

    def test_mean_drift_uses_sample_average(self):
        # Two samples drifting in opposite directions cancel in the mean.
        ego = make_trajectory([(0.0, 0.0), (1.0, 0.0)])
        y_pert = make_trajectory([(0.0, 0.0), (9.0, 9.0)])
        ref = [(5.0, 5.0), (6.0, 5.0)]
        clean = pred_from_offsets(ref, [(0.0, 0.0), (0.0, 0.0)])
        pair = pred_from_offsets(ref, [(0.0, 2.0), (0.0, -2.0)])
        assert loss_collision_fn(ego, y_pert, pair, clean) == 0.0


class TestCompose:
    def test_sum_with_default_weights(self, left_turn):
        # the attack's total loss is the objective plus each barrier term
        cfg = AttackConfig(objective="ade", a_min=-4.0, a_max=4.0,
                           barrier=BarrierConfig(observed_mode="time_traj",
                                                 future_mode="traj"))
        problem = AttackProblem(left_turn, cfg,
                                KinematicPredictor(PredictorConfig(n_samples=5)))
        delta = np.zeros((problem.n_controls, 2))
        delta[:, 0] = 0.05
        past, fut = positions(problem, delta)
        (xs, ys), _ = problem.predictor.predict_vjp(past, problem.dt,
                                                    problem.horizon_future)
        total = (ade_grad(xs, ys, problem.y_ref_pts)[0]
                 + barrier_grad("time_traj", past, problem.x_ref, 0.9)[0]
                 + barrier_grad("traj", fut, problem.y_ref, 0.9)[0])
        assert problem.loss_and_grad(delta)[0] == total

    def test_objective_names(self):
        assert OBJECTIVES == ("ade", "fde", "collision_fp", "collision_fn")


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        shift = np.array([13.0, -7.0])
        for _ in range(20):
            ref = rng.normal(size=(5, 2))
            ego = rng.normal(size=(5, 2))
            samples = rng.normal(size=(3, 5, 2))
            pred = PredictionSet(samples, 0.1)
            pred_s = PredictionSet(samples + shift, 0.1)
            t_ref = make_trajectory(ref)
            t_ref_s = make_trajectory(ref + shift)
            t_ego = make_trajectory(ego)
            t_ego_s = make_trajectory(ego + shift)
            assert abs(loss_ade(t_ref, pred) - loss_ade(t_ref_s, pred_s)) < 1e-12
            assert abs(loss_fde(t_ref, pred) - loss_fde(t_ref_s, pred_s)) < 1e-12
            assert abs(loss_collision_fp(t_ego, pred)
                       - loss_collision_fp(t_ego_s, pred_s)) < 1e-12
            assert abs(loss_collision_fn(t_ego, t_ref, pred, pred)
                       - loss_collision_fn(t_ego_s, t_ref_s, pred_s, pred_s)) < 1e-12

    def test_xy_core_matches_typed_wrapper(self):
        # the array losses against the tape reference's scalar cores
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(6, 2))
        samples = rng.normal(size=(5, 6, 2))
        pred = PredictionSet(samples, 0.1)
        pred_xy = [(samples[:, t, 0], samples[:, t, 1]) for t in range(6)]
        ref_pts = [tuple(p) for p in ref]
        assert loss_ade(make_trajectory(ref), pred) == pytest.approx(
            float(value(ade_xy(pred_xy, ref_pts))), rel=1e-15)
        assert loss_fde(make_trajectory(ref), pred) == pytest.approx(
            float(value(fde_xy(pred_xy, ref_pts))), rel=1e-15)
        assert loss_collision_fp(make_trajectory(ref), pred) == pytest.approx(
            float(value(collision_fp_xy(pred_xy, ref_pts))), rel=1e-15)
