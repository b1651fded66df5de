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

A sample holds its control over the whole horizon, so its speed and
heading after t steps have closed forms in t (see _horizon_constants);
only the positions are a running sum, taken in step order as the forward
model would.  The samples then depend on six scalars: the start point,
heading and speed at the prediction point and the nominal (a, kappa).
The pullback reduces the samples' adjoint to those six and hands them
to the inverse model's pullback.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, PredictionSet, check_numeric_fields
from .dynamics import V_EPS, inverse_states, inverse_states_pullback, state_controls

# Fewest observed points a prediction reads.  The start state copies its
# first step's velocity, so the first control that carries information
# needs two steps.
MIN_PAST_POINTS = 3


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


@functools.lru_cache(maxsize=8)
def _horizon_constants(horizon, dt):
    """The vectors t dt and t (t - 1) / 2 dt^2 over the steps t = 1..horizon,
    and the (horizon, horizon) upper triangle of ones that forms suffix sums.

    A sample holds its control (a, kappa) over the whole horizon, so its
    speed after t steps is v0 + (t dt) a and its heading
    theta0 + (t dt v0) kappa + (t (t - 1) / 2 dt^2) kappa a.
    """
    t = np.arange(1, horizon + 1, dtype=float)
    tdt = t * dt
    c2 = (t * (t - 1.0) / 2.0) * (dt * dt)
    suffix = np.triu(np.ones((horizon, horizon)))
    for a in (tdt, c2, suffix):
        a.setflags(write=False)
    return tdt, c2, suffix


class KinematicPredictor:
    """Constant-control extrapolation with sampled control offsets."""

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
        if len(past) < MIN_PAST_POINTS:
            raise DataError(f"prediction needs at least {MIN_PAST_POINTS} past points")
        theta, v, vx, vy, sign = inverse_states(past[:, 0], past[:, 1], dt)
        m = len(past) - 1
        w = min(self.config.smoothing_window, m)
        lo = m - w
        # the nominal control sums the window in step order
        accels, kappas = state_controls(theta[lo:], v[lo:], dt)
        a_k = np.cumsum(accels)[-1] / w + self._offset_a
        k_k = np.cumsum(kappas)[-1] / w + self._offset_kappa
        x0, y0, th0, v0 = past[-1, 0], past[-1, 1], theta[-1], v[-1]
        tdt, c2, suffix = _horizon_constants(horizon, dt)
        k = len(a_k)
        sp = v0 + tdt[:, None] * a_k
        th = th0 + (tdt[:, None] * v0) * k_k + c2[:, None] * (k_k * a_k)
        cos = np.cos(th)
        sin = np.sin(th)
        # x and y side by side, so one running sum in step order rolls both
        steps = np.empty((horizon + 1, 2 * k))
        steps[0, :k] = x0
        steps[0, k:] = y0
        steps[1:, :k] = sp * cos * dt
        steps[1:, k:] = sp * sin * dt
        xy = np.cumsum(steps, axis=0)

        def pullback(g_xs, g_ys):
            # Step s adds sp * (cos, sin) * dt to every later position: its
            # adjoint is the suffix sum of the position adjoints from s.
            s = suffix @ np.concatenate([g_xs, g_ys], axis=1)
            sx = s[:, :k]
            sy = s[:, k:]
            # adjoints of the speeds (summed over the samples) and headings
            q1 = ((sx * cos + sy * sin) * dt).sum(axis=1)
            q2 = (sy * cos - sx * sin) * (sp * dt)
            # per step, the sample sums of q2, q2 kappa and q2 a
            r0, rk, ra = (q2 @ np.column_stack([np.ones(k), k_k, a_k])).T
            # the six scalars: x0 and y0 (below), theta0, v0 and the nominal
            # (a, kappa), whose adjoint each window control shares
            g_th0 = r0.sum()
            g_v0 = q1.sum() + tdt @ rk
            g_a_t = (tdt @ q1 + c2 @ rk) / w
            g_k_t = (v0 * (tdt @ r0) + c2 @ ra) / w
            k_scale = np.divide(1.0, v[lo:m] * dt, out=np.zeros(w),
                                where=np.abs(v[lo:m]) >= V_EPS)
            g_theta = np.zeros(m + 1)
            g_v = np.zeros(m + 1)
            g_theta[-1] = g_th0
            g_v[-1] = g_v0
            g_v[lo + 1:] += g_a_t / dt
            g_v[lo:m] -= g_a_t / dt
            g_theta[lo + 1:] += g_k_t * k_scale
            g_theta[lo:m] -= g_k_t * k_scale
            g_v[lo:m] -= g_k_t * kappas * k_scale * dt
            g_px, g_py = inverse_states_pullback(vx, vy, sign, dt, g_theta, g_v)
            g_px[-1] += sx[0].sum()
            g_py[-1] += sy[0].sum()
            return np.column_stack([g_px, g_py])

        return (xy[1:, :k], xy[1:, k:]), pullback

    def predict(self, past_target, *, horizon):
        """Predict a PredictionSet for the target from its observed past.

        Deterministic: same inputs and seed give bitwise identical samples.
        """
        (xs, ys), _ = self.predict_vjp(past_target.points, past_target.dt, horizon)
        return PredictionSet(np.stack([xs.T, ys.T], axis=-1), past_target.dt)
