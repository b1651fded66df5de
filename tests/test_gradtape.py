"""The tests' reverse-mode tape: value fidelity, exact gradients, selection rules."""

import math

import numpy as np
import pytest

import tape_reference as gt
from tape_reference import Var, finite_diff_check, grad, record, value


class TestRecord:
    def test_square(self):
        val, g = record(lambda xs: xs[0] * xs[0], [3.0])
        assert val == 9.0
        assert g.tolist() == [6.0]

    def test_barrier_value(self):
        val, _ = record(lambda xs: -gt.log(0.9 - xs[0]), [0.0])
        assert math.isclose(val, 0.1053605, abs_tol=1e-7)
        assert val == -math.log(0.9)

    def test_value_matches_plain_evaluation_bitwise(self):
        def f(xs):
            a, b = xs[0], xs[1]
            return gt.sin(a) * gt.cos(b) + gt.sqrt(a * a + b * b + 1.0) \
                + gt.atan2(a, b) / (1.0 + gt.absolute(b))

        x0 = [0.37, -1.22]
        val, _ = record(f, x0)
        assert val == value(f(x0))

    def test_constant_function(self):
        val, g = record(lambda xs: 7.5, [1.0, 2.0])
        assert val == 7.5
        assert g.tolist() == [0.0, 0.0]


class TestGradients:
    def test_kappa_through_one_model_step(self):
        # s = (0, 0, theta=0, v=1), a = 0, dt = 0.1: the y coordinate after
        # one step responds to curvature with v' * cos(theta') * dt * (v*dt)
        def f(xs):
            kappa = xs[0]
            dt = 0.1
            v1 = 1.0 + 0.0 * dt
            th1 = 0.0 + 1.0 * kappa * dt
            return v1 * gt.sin(th1) * dt

        val, g = record(f, [0.0])
        assert val == 0.0
        assert math.isclose(g[0], 0.01, abs_tol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1, 1, 4).tolist()

        def f1(xs):
            return gt.sin(xs[0]) * xs[1]

        def f2(xs):
            return gt.sqrt(xs[2] * xs[2] + 1.0) * xs[3]

        _, g1 = record(f1, x0)
        _, g2 = record(f2, x0)
        _, gs = record(lambda xs: f1(xs) + f2(xs), x0)
        np.testing.assert_allclose(gs, g1 + g2, atol=1e-12)

    def test_division_and_rdiv(self):
        err = finite_diff_check(lambda xs: 3.0 / (xs[0] + 2.0) + xs[0] / xs[1],
                                [0.5, 1.7])
        assert err < 1e-9

    def test_atan2_quadrants(self):
        for y0, x0 in [(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)]:
            err = finite_diff_check(lambda xs: gt.atan2(xs[0], xs[1]), [y0, x0])
            assert err < 1e-9

    def test_atan2_origin_gradient_is_zero(self):
        _, g = record(lambda xs: gt.atan2(xs[0], xs[1]), [0.0, 0.0])
        assert g.tolist() == [0.0, 0.0]

    def test_norm2_origin_gradient_is_zero(self):
        _, g = record(lambda xs: gt.norm2(xs[0], xs[1]), [0.0, 0.0])
        assert g.tolist() == [0.0, 0.0]


class TestSelections:
    def test_min_routes_to_unique_minimizer(self):
        def f(xs):
            return gt.fold_min([xs[0] * 2.0, xs[1] + 5.0, xs[2]])

        _, g = record(f, [3.0, 1.0, 4.0])
        assert g.tolist() == [0.0, 0.0, 1.0]

    def test_tie_breaks_to_lowest_index(self):
        _, g = record(lambda xs: gt.minimum(xs[0], xs[1]), [2.0, 2.0])
        assert g.tolist() == [1.0, 0.0]
        _, g = record(lambda xs: gt.maximum(xs[0], xs[1]), [2.0, 2.0])
        assert g.tolist() == [1.0, 0.0]

    def test_reduce_min_over_array_node(self):
        def f(xs):
            arr = Var(np.array([x.value for x in xs]),
                      tuple((x, np.eye(3)[i]) for i, x in enumerate(xs)))
            return gt.reduce_min(arr)

        _, g = record(f, [5.0, 1.0, 2.0])
        assert g.tolist() == [0.0, 1.0, 0.0]

    def test_where_mask(self):
        def f(xs):
            return gt.where(True, xs[0], xs[1]) + gt.where(False, xs[0], xs[1])

        _, g = record(f, [3.0, 4.0])
        assert g.tolist() == [1.0, 1.0]


class TestArrayNodes:
    def test_array_arithmetic_reduces_to_scalars(self):
        def f(xs):
            base = np.array([1.0, 2.0, 3.0])
            scaled = xs[0] * base          # array-valued node
            return gt.vsum(scaled * scaled)

        val, g = record(f, [2.0])
        assert val == 56.0
        assert math.isclose(g[0], 56.0, abs_tol=1e-12)

    def test_vmean(self):
        def f(xs):
            return gt.vmean(xs[0] + np.array([0.0, 1.0, 2.0]))

        val, g = record(f, [1.0])
        assert val == 2.0
        assert g.tolist() == [1.0]

    def test_array_reduce_min_gradient_one_hot(self):
        def f(xs):
            arr = xs[0] * np.array([3.0, 1.0, 2.0])
            return gt.reduce_min(arr)

        _, g = record(f, [1.0])
        assert g.tolist() == [1.0]


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        err = finite_diff_check(
            lambda xs: xs[0] * xs[0] + 3.0 * xs[1] * xs[0], [1.3, -0.4])
        assert err < 1e-9

    def test_barrier_near_singularity(self):
        d_max = 0.9
        d0 = 0.85 * d_max

        def f(xs):
            return -gt.log(d_max - (d0 + xs[0]))

        assert finite_diff_check(f, [0.0]) < 1e-4

    def test_float_conversion_is_refused(self):
        with pytest.raises(TypeError):
            float(Var(1.0))


def test_grad_handles_constant_root():
    leaves = [Var(1.0)]
    assert grad(5.0, leaves) == [0.0]
