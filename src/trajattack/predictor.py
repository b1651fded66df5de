"""The sampling kinematic predictor that the attack differentiates.

The surrogate is a sampling-based kinematic extrapolator: it inverts the
observed past to controls, estimates a nominal (a, kappa) as the mean
over the last few control steps, perturbs that nominal with K fixed
Gaussian offsets (clipped at three sigma, so sampled controls stay
dynamically plausible), and rolls each sample forward from the state at
the prediction point.  The offsets are constants of the computation, so
the samples are a differentiable function of the observed positions:
predict_vjp returns them with their pullback, and predict is its forward
half on the typed containers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, PredictionSet, PredictorError, check_numeric_fields
from .dynamics import (V_EPS, inverse_states, inverse_states_pullback, state_controls,
                       unicycle_scan, unicycle_scan_pullback)


@dataclass(frozen=True)
class PredictorConfig:
    """Sampling parameters of the kinematic surrogate.

    n_samples is the sample count K; noise scales are the standard
    deviations of the control offsets (m/s^2 and 1/m); smoothing_window
    is the number of trailing control steps averaged into the nominal
    control.
    """

    n_samples: int = 100
    noise_scale_a: float = 0.5
    noise_scale_kappa: float = 0.01
    smoothing_window: int = 4
    seed: int = 0

    def __post_init__(self):
        check_numeric_fields(self)
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.noise_scale_a < 0.0 or self.noise_scale_kappa < 0.0:
            raise ConfigError("noise scales must be >= 0")
        if self.smoothing_window < 2:
            raise ConfigError(f"smoothing_window must be >= 2, got {self.smoothing_window}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class KinematicPredictor:
    """Constant-control extrapolation with sampled control offsets."""

    name = "kinematic"

    def __init__(self, config=None):
        self.config = config or PredictorConfig()
        rng = np.random.default_rng(self.config.seed)
        eps = np.clip(rng.standard_normal((self.config.n_samples, 2)), -3.0, 3.0)
        self._offset_a = eps[:, 0] * self.config.noise_scale_a
        self._offset_kappa = eps[:, 1] * self.config.noise_scale_kappa
        self._offset_a.setflags(write=False)
        self._offset_kappa.setflags(write=False)

    def predict_vjp(self, past, dt, horizon):
        """Sampled future positions from an (H, 2) past, with their pullback.

        Returns ((xs, ys), pullback): xs and ys are (horizon, K) sample
        coordinates, and pullback(g_xs, g_ys) returns the (H, 2) adjoint of
        the past.  Only the last smoothing_window controls and the terminal
        state enter the samples, so the adjoint is nonzero on the last few
        past points only.
        """
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        if len(past) < 3:
            raise DataError("prediction needs at least 3 past points")
        theta, v, vx, vy, sign = inverse_states(past[:, 0], past[:, 1], dt)
        m = len(past) - 1
        w = min(self.config.smoothing_window, m)
        lo = m - w
        # the nominal control sums the window in step order
        accels, kappas = state_controls(theta[lo:], v[lo:], dt)
        a_k = np.cumsum(accels)[-1] / w + self._offset_a
        k_k = np.cumsum(kappas)[-1] / w + self._offset_kappa
        shape = (horizon, len(a_k))
        k_steps = np.broadcast_to(k_k, shape)
        x, y, th, sp = unicycle_scan(past[-1, 0], past[-1, 1], theta[-1], v[-1],
                                     np.broadcast_to(a_k, shape), k_steps, dt)

        def pullback(g_xs, g_ys):
            top = np.zeros((1, shape[1]))
            g_x0, g_y0, g_th0, g_v0, g_a, g_k = unicycle_scan_pullback(
                th, sp, k_steps, dt, np.concatenate([top, g_xs]),
                np.concatenate([top, g_ys]))
            g_a_t = g_a.sum() / w     # adjoint of each window control
            g_k_t = g_k.sum() / w
            k_scale = np.divide(1.0, v[lo:m] * dt, out=np.zeros(w),
                                where=np.abs(v[lo:m]) >= V_EPS)
            g_theta = np.zeros(m + 1)
            g_v = np.zeros(m + 1)
            g_theta[-1] = g_th0.sum()
            g_v[-1] = g_v0.sum()
            g_v[lo + 1:] += g_a_t / dt
            g_v[lo:m] -= g_a_t / dt
            g_theta[lo + 1:] += g_k_t * k_scale
            g_theta[lo:m] -= g_k_t * k_scale
            g_v[lo:m] -= g_k_t * kappas * k_scale * dt
            g_px, g_py = inverse_states_pullback(vx, vy, sign, dt, g_theta, g_v)
            g_px[-1] += g_x0.sum()
            g_py[-1] += g_y0.sum()
            return np.column_stack([g_px, g_py])

        return (x[1:], y[1:]), pullback

    def predict(self, past_target, *, horizon):
        """Predict a PredictionSet for the target from its observed past.

        Deterministic: same inputs and seed give bitwise identical samples.
        """
        (xs, ys), _ = self.predict_vjp(past_target.points, past_target.dt, horizon)
        return PredictionSet(np.stack([xs.T, ys.T], axis=-1), past_target.dt)


def check_deterministic(predictor, past_target, horizon):
    """Call the predictor twice and require bitwise identical output."""
    first = predictor.predict(past_target, horizon=horizon)
    second = predictor.predict(past_target, horizon=horizon)
    if not np.array_equal(first.samples, second.samples):
        raise PredictorError(f"predictor {predictor.name!r} is not deterministic")
    return first

