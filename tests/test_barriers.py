"""Log-barrier constraints: distances, hand values, infeasibility."""

import math

import numpy as np
import pytest

import tape_reference
from conftest import barrier_grad, barrier_sides, constraint_distances
from tape_reference import Var, d_traj, grad, value
from trajattack.barriers import (FUTURE_MODES, OBSERVED_MODES, BarrierConfig, BarrierSide,
                                 InfeasibleError)
from trajattack.core import ConfigError, DataError

STRAIGHT = [(float(i), 0.0) for i in range(11)]


def d_time(p_pert, p_ref):
    return float(constraint_distances([p_pert], [p_ref], "time")[0])


def d_traj_array(p_pert, ref_pts):
    return float(constraint_distances([p_pert], ref_pts, "traj")[0])


def barrier_point(d, d_max):
    """The barrier of one point at distance d from its reference."""
    return barrier_grad("time", [(d, 0.0)], [(0.0, 0.0)], d_max)[0]


def barrier_time(pert_pts, ref_pts, d_max):
    return barrier_grad("time", pert_pts, ref_pts, d_max)[0]


def barrier_traj(pert_pts, ref_pts, d_max):
    return barrier_grad("traj", pert_pts, ref_pts, d_max)[0]


def barrier_time_traj(pert_pts, ref_pts, d_max):
    return barrier_grad("time_traj", pert_pts, ref_pts, d_max)[0]


class TestBarrierConfig:
    def test_defaults(self):
        cfg = BarrierConfig()
        assert cfg.d_max == 0.9
        assert cfg.observed_mode == "time"
        assert cfg.future_mode == "none"
        assert OBSERVED_MODES == ("time", "time_traj")
        assert FUTURE_MODES == ("none", "traj")

    @pytest.mark.parametrize("kwargs", [
        {"d_max": 0.0},
        {"d_max": -1.0},
        {"observed_mode": "traj"},
        {"observed_mode": "none"},
        {"future_mode": "time"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            BarrierConfig(**kwargs)

    def test_sides_compose_time_traj_from_the_two_notions(self):
        past, future = np.asarray(STRAIGHT[:6]), np.asarray(STRAIGHT[6:])
        config = BarrierConfig(observed_mode="time_traj", future_mode="traj")
        sides = config.sides(past, future)
        assert [(s.mode, s.rows) for s in sides] == [
            ("traj", slice(0, 6)), ("time", slice(5, 6)), ("traj", slice(6, None))]
        assert np.array_equal(sides[1].ref_x, past[-1:, 0])
        only_time = BarrierConfig().sides(past, None)
        assert [(s.mode, s.rows) for s in only_time] == [("time", slice(0, 6))]
        with pytest.raises(ConfigError):
            BarrierSide("time_traj", STRAIGHT)


class TestDistances:
    def test_d_time(self):
        assert math.isclose(d_time((1.3, 2.4), (1.0, 2.0)), 0.5, abs_tol=1e-12)
        assert d_time((4.0, 6.0), (1.0, 2.0)) == 5.0

    def test_d_traj_perpendicular(self):
        assert math.isclose(d_traj_array((5.0, 0.4), STRAIGHT), 0.4,
                            abs_tol=1e-12)

    def test_d_traj_invariant_under_longitudinal_slide(self):
        a = d_traj_array((5.0, 0.4), STRAIGHT)
        b = d_traj_array((7.0, 0.4), STRAIGHT)
        assert math.isclose(a, b, abs_tol=1e-12)

    def test_d_traj_beyond_endpoint(self):
        assert math.isclose(d_traj_array((13.0, 4.0), STRAIGHT), 5.0,
                            abs_tol=1e-12)

    def test_d_traj_short_reference_rejected(self):
        with pytest.raises(DataError):
            d_traj_array((0.0, 0.0), [(0.0, 0.0)])


class TestBarrierPoint:
    def test_zero_distance(self):
        v = barrier_point(0.0, 0.9)
        assert math.isclose(v, 0.1053605, abs_tol=1e-7)
        assert v == -math.log(0.9)

    def test_unit_margin_is_zero(self):
        assert barrier_point(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("d", [0.9, 0.95, 2.0])
    def test_infeasible_at_threshold(self, d):
        with pytest.raises(InfeasibleError):
            barrier_point(d, 0.9)

    def test_monotone_in_distance(self):
        ds = np.linspace(0.0, 0.89, 30)
        vals = [barrier_point(float(d), 0.9) for d in ds]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestTrajectoryBarriers:
    def test_time_zero_offsets(self):
        pts = STRAIGHT
        assert math.isclose(barrier_time(pts, pts, 0.9), -math.log(0.9),
                            abs_tol=1e-12)

    def test_time_uniform_half_meter(self):
        moved = [(x, y + 0.5) for x, y in STRAIGHT]
        v = barrier_time(moved, STRAIGHT, 0.9)
        assert math.isclose(v, -math.log(0.4), abs_tol=1e-12)
        assert math.isclose(v, 0.9163, abs_tol=1e-4)

    def test_time_length_mismatch(self):
        with pytest.raises(DataError):
            barrier_time(STRAIGHT[:-1], STRAIGHT, 0.9)

    def test_traj_allows_slide_that_time_forbids(self):
        # One interior point slides 2 m along the line: far from its matched
        # index but still on the polyline.
        slid = list(STRAIGHT)
        slid[5] = (7.0, 0.0)
        with pytest.raises(InfeasibleError):
            barrier_time(slid, STRAIGHT, 0.9)
        assert math.isclose(barrier_traj(slid, STRAIGHT, 0.9),
                            -math.log(0.9), abs_tol=1e-12)

    def test_time_traj_zero_offsets(self):
        v = barrier_time_traj(STRAIGHT, STRAIGHT, 0.9)
        assert math.isclose(v, 2.0 * -math.log(0.9), abs_tol=1e-12)
        assert math.isclose(v, 0.2107, abs_tol=1e-4)

    def test_time_traj_pins_final_point(self):
        # Compressing the trajectory toward its start keeps every point on
        # the polyline but leaves the final point a meter short of its
        # reference: fine for traj, infeasible once the pin applies.
        squeezed = [(0.9 * x, y) for x, y in STRAIGHT]
        assert barrier_traj(squeezed, STRAIGHT, 0.9) == pytest.approx(
            -math.log(0.9), abs=1e-12)
        with pytest.raises(InfeasibleError):
            barrier_time_traj(squeezed, STRAIGHT, 0.9)

    def test_observed_dispatch(self):
        assert math.isclose(barrier_grad("time", STRAIGHT, STRAIGHT, 0.9)[0],
                            -math.log(0.9), abs_tol=1e-12)
        assert barrier_grad("time_traj", STRAIGHT, STRAIGHT, 0.9)[0] == \
            barrier_traj(STRAIGHT, STRAIGHT, 0.9) + barrier_point(0.0, 0.9)
        with pytest.raises(ConfigError):
            barrier_grad("none", STRAIGHT, STRAIGHT, 0.9)

    def test_barrier_grows_toward_threshold(self):
        offsets = np.linspace(0.0, 0.85, 12)
        vals = [barrier_time([(x, y + o) for x, y in STRAIGHT],
                                   STRAIGHT, 0.9) for o in offsets]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestConstraintDistances:
    def test_time_matches_pointwise(self):
        moved = [(x + 0.3, y + 0.4) for x, y in STRAIGHT]
        d = constraint_distances(moved, STRAIGHT, "time")
        np.testing.assert_allclose(d, 0.5, atol=1e-12)
        assert d.shape == (len(STRAIGHT),)

    def test_traj_matches_d_traj(self):
        rng = np.random.default_rng(5)
        pts = np.asarray(STRAIGHT) + rng.uniform(-0.3, 0.3, (len(STRAIGHT), 2))
        d = constraint_distances(pts, STRAIGHT, "traj")
        expected = [value(d_traj((float(x), float(y)), STRAIGHT)) for x, y in pts]
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_traj_before_the_start_measures_to_the_first_point(self):
        d = constraint_distances([(-0.3, 0.4), (10.6, -0.8)], STRAIGHT, "traj")
        np.testing.assert_allclose(d, [0.5, 1.0], atol=1e-12)

    def test_time_traj_appends_final_pin(self):
        slid = [(x - 0.6, y) for x, y in STRAIGHT]
        d = constraint_distances(slid, STRAIGHT, "time_traj")
        assert d.shape == (len(STRAIGHT) + 1,)
        assert math.isclose(d[-1], 0.6, abs_tol=1e-12)
        np.testing.assert_allclose(d[1:-1], 0.0, atol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            constraint_distances(STRAIGHT, STRAIGHT, "future")

    @pytest.mark.parametrize("mode", ["time", "traj", "time_traj"])
    def test_stacked_equals_one_at_a_time(self, mode):
        rng = np.random.default_rng(11)
        stack = np.asarray(STRAIGHT) + rng.uniform(-0.5, 0.5, (3, 4, len(STRAIGHT), 2))
        d = constraint_distances(stack, STRAIGHT, mode)
        assert d.shape[:2] == (3, 4)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(d[idx], constraint_distances(stack[idx], STRAIGHT, mode))


# A reference with a repeated point (segment 2 is degenerate).
KINKED = np.array([(0.0, 0.0), (1.0, 0.2), (2.0, 0.1), (2.0, 0.1), (3.0, 0.5),
                   (4.0, 0.4), (5.0, 1.0)])


@pytest.mark.parametrize("mode", ["time", "traj", "time_traj"])
def test_one_trajectory_grad_equals_the_carried_slice(mode):
    """barrier_grad on one trajectory is bitwise the pullback of that
    trajectory's slice of a stacked measurement, which is what the attack
    carries from its feasibility check to its gradient; both match the tape
    reference.  The first point lies before the polyline's start, where the
    nearest point is the start of segment 0; others sit on the repeated
    reference point, exactly at a segment end (bitwise on vertex 4) and on
    their matched reference."""
    rng = np.random.default_rng(7)
    stack = KINKED + rng.uniform(-0.4, 0.4, (6, len(KINKED), 2))
    stack[:, 0] = KINKED[0] - rng.uniform(0.1, 0.3, (6, 1)) * (KINKED[1] - KINKED[0])
    stack[:, 1] = KINKED[3]
    stack[:, 2] = KINKED[4]
    stack[:, 5] = KINKED[5]
    sides = barrier_sides(mode, KINKED)
    measured = [side.measure(stack[..., 0], stack[..., 1]) for side in sides]
    assert all(len(parts) == 3 for _, parts in measured)
    d = np.concatenate([side_d for side_d, _ in measured], axis=-1)
    tape_form = getattr(tape_reference, f"barrier_{mode}")
    for k, points in enumerate(stack):
        carried = [0.0, np.zeros_like(points)]
        for side, (_, parts) in zip(sides, measured):
            term, g = side.pullback([np.ascontiguousarray(p[k]) for p in parts], 2.0)
            carried[0] = carried[0] + term
            carried[1][side.rows] += g
        loss, g = barrier_grad(mode, points, KINKED, 2.0)
        assert carried[0] == loss and np.array_equal(carried[1], g)
        assert np.array_equal(d[k], constraint_distances(points, KINKED, mode))
        leaves = [[Var(float(x)), Var(float(y))] for x, y in points]
        tape_loss = tape_form(leaves, KINKED, 2.0)
        tape_g = np.array(grad(tape_loss, [v for p in leaves for v in p])).reshape(g.shape)
        assert abs(loss - value(tape_loss)) <= 1e-12 * abs(value(tape_loss))
        assert np.max(np.abs(g - tape_g)) <= 1e-12 * np.max(np.abs(tape_g))
