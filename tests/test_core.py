"""Domain types and the planar geometry kernels."""

import math

import numpy as np
import pytest

from conftest import constraint_distances
from oracles import box_overlap_oracle, segment_distance_bruteforce
from trajattack.core import (AgentState, ControlSequence,
                             DataError, PredictionSet, Scenario, Trajectory,
                             box_overlap_mask, wrap_angle)


def point_segment_distance(a, b, c):
    """Distance from point a to the segment [b, c], through the barriers'
    segment table: a two-point reference polyline from b to c."""
    return float(constraint_distances([a], [b, c], "traj")[0])


def oriented_box_overlap(center1, heading1, center2, heading2, length, width):
    """box_overlap_mask on a single box pair, as 0 or 1."""
    return int(box_overlap_mask(np.asarray(center1, dtype=float), heading1,
                                np.asarray(center2, dtype=float), heading2,
                                length, width))


class TestWrapAngle:
    def test_interval_is_half_open_at_minus_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = float(rng.uniform(-20.0, 20.0))
            w = wrap_angle(x)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)
            assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)


class TestTrajectory:
    def test_needs_two_points(self):
        with pytest.raises(DataError):
            Trajectory(np.zeros((1, 2)), 0.1)

    def test_rejects_bad_shape_and_dt(self):
        with pytest.raises(DataError):
            Trajectory(np.zeros((3, 3)), 0.1)
        with pytest.raises(DataError):
            Trajectory(np.zeros((3, 2)), 0.0)
        with pytest.raises(DataError):
            Trajectory(np.array([[0.0, 0.0], [np.nan, 0.0]]), 0.1)

    def test_points_are_frozen_and_copied(self):
        src = np.zeros((3, 2))
        traj = Trajectory(src, 0.1, t0_index=-2)
        src[0, 0] = 99.0
        assert traj.points[0, 0] == 0.0
        with pytest.raises(ValueError):
            traj.points[0, 0] = 1.0
        assert len(traj) == 3
        assert traj.t0_index == -2


class TestControlSequence:
    def test_views_and_indexing(self):
        seq = ControlSequence(np.array([[1.0, 0.1], [2.0, -0.2]]), 0.1)
        assert seq.a.tolist() == [1.0, 2.0]
        assert seq.kappa.tolist() == [0.1, -0.2]
        assert len(seq) == 2


class TestScenario:
    def test_invariants(self, left_turn):
        s = left_turn
        assert len(s.ego_past) == len(s.target_past)
        assert len(s.ego_future) == len(s.target_future)
        assert s.vehicle_length == 4.2
        assert s.vehicle_width == 1.7
        assert s.dt == s.ego_past.dt

    def test_mismatched_dt_rejected(self, left_turn):
        bad = Trajectory(left_turn.ego_past.points, 0.2,
                         t0_index=left_turn.ego_past.t0_index)
        with pytest.raises(DataError):
            Scenario(bad, left_turn.ego_future, left_turn.target_past,
                     left_turn.target_future)

    def test_mismatched_past_length_rejected(self, left_turn):
        bad = Trajectory(left_turn.ego_past.points[:-1], left_turn.dt,
                         t0_index=left_turn.ego_past.t0_index)
        with pytest.raises(DataError):
            Scenario(bad, left_turn.ego_future, left_turn.target_past,
                     left_turn.target_future)


class TestPredictionSet:
    def test_shape_accessors(self):
        pred = PredictionSet(np.zeros((5, 7, 2)), 0.1)
        assert pred.n_samples == 5
        assert pred.horizon == 7

    def test_rejects_bad_shape(self):
        with pytest.raises(DataError):
            PredictionSet(np.zeros((5, 7)), 0.1)


class TestPointSegmentDistance:
    def test_perpendicular_branch(self):
        assert point_segment_distance((0.5, 1.0), (1.0, 0.0), (0.0, 0.0)) == 1.0

    def test_endpoint_branch(self):
        assert point_segment_distance((2.0, 0.0), (1.0, 0.0), (0.0, 0.0)) == 1.0

    def test_point_on_endpoint(self):
        assert point_segment_distance((3.0, 4.0), (3.0, 4.0), (0.0, 0.0)) == 0.0

    def test_degenerate_segment_is_point_distance(self):
        assert point_segment_distance((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == 5.0

    def test_symmetric_in_segment_endpoints(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b, c = rng.uniform(-10.0, 10.0, (3, 2))
            d1 = point_segment_distance(tuple(a), tuple(b), tuple(c))
            d2 = point_segment_distance(tuple(a), tuple(c), tuple(b))
            assert abs(d1 - d2) <= 1e-12

    def test_against_dense_sampling(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(-10.0, 10.0, (100, 2))
        b = rng.uniform(-10.0, 10.0, (100, 2))
        c = rng.uniform(-10.0, 10.0, (100, 2))
        ref = segment_distance_bruteforce(a, b, c, n0=100001, rounds=8)
        for i in range(100):
            d = point_segment_distance(tuple(a[i]), tuple(b[i]), tuple(c[i]))
            assert abs(d - ref[i]) <= 1e-9


class TestOrientedBoxOverlap:
    def test_coincident(self):
        assert oriented_box_overlap((0, 0), 0.3, (0, 0), 0.3, 4.2, 1.7) == 1

    def test_far_apart(self):
        assert oriented_box_overlap((0, 0), 0.0, (10, 0), 0.0, 4.2, 1.7) == 0

    def test_edge_touching_counts(self):
        assert oriented_box_overlap((0, 0), 0.0, (4.2, 0), 0.0, 4.2, 1.7) == 1

    def test_symmetric_and_rigid_invariant(self):
        rng = np.random.default_rng(23)
        rotations = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.6, 0.8),
                     (0.8, -0.6)]
        for _ in range(300):
            c1 = rng.uniform(-4.0, 4.0, 2)
            c2 = rng.uniform(-4.0, 4.0, 2)
            h1, h2 = rng.uniform(-math.pi, math.pi, 2)
            r = oriented_box_overlap(c1, h1, c2, h2, 4.2, 1.7)
            assert oriented_box_overlap(c2, h2, c1, h1, 4.2, 1.7) == r
            cos_r, sin_r = rotations[int(rng.integers(len(rotations)))]
            ang = math.atan2(sin_r, cos_r)
            shift = rng.uniform(-5.0, 5.0, 2)
            rot = np.array([[cos_r, -sin_r], [sin_r, cos_r]])
            assert oriented_box_overlap(rot @ c1 + shift, h1 + ang,
                                        rot @ c2 + shift, h2 + ang,
                                        4.2, 1.7) == r

    def test_against_containment_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            c1 = rng.uniform(-4.0, 4.0, 2)
            c2 = rng.uniform(-4.0, 4.0, 2)
            h1, h2 = rng.uniform(-math.pi, math.pi, 2)
            got = oriented_box_overlap(c1, h1, c2, h2, 4.2, 1.7)
            want = box_overlap_oracle(c1, h1, c2, h2, 4.2, 1.7, grid_n=21)
            assert got == int(want)

    def test_mask_matches_scalar(self):
        # a batch of pairs gives the answers of the pairs one at a time
        rng = np.random.default_rng(31)
        n = 500
        c1 = rng.uniform(-4.0, 4.0, (n, 2))
        c2 = rng.uniform(-4.0, 4.0, (n, 2))
        h1 = rng.uniform(-math.pi, math.pi, n)
        h2 = rng.uniform(-math.pi, math.pi, n)
        mask = box_overlap_mask(c1, h1, c2, h2, 4.2, 1.7)
        for i in range(n):
            assert int(mask[i]) == oriented_box_overlap(
                c1[i], h1[i], c2[i], h2[i], 4.2, 1.7)


class TestAgentState:
    def test_heading_normalized(self):
        s = AgentState(0.0, 0.0, 3.0 * math.pi, 1.0)
        assert -math.pi < s.theta <= math.pi
        assert math.isclose(s.theta, math.pi, abs_tol=1e-12)
