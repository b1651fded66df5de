"""Domain types and geometry kernels shared by all modules.

Conventions: positions in meters, speeds in m/s, accelerations in m/s^2,
curvature in 1/m, headings in radians measured counterclockwise from +x.
A trajectory of H observed points uses time indices -H+1..0 (index 0 is
the prediction point); a future of T points uses indices 1..T.  All types
are immutable after construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

TAU = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Invalid or unusable input data (CLI exit code 3)."""


class GenerationError(ConfigError):
    """Scenario parameters that cannot produce a valid scenario."""


def check_numeric_fields(config):
    """Require every int/float field of a config dataclass to hold a finite
    number of its kind; a bool is neither, and an int field takes no float."""
    for f in fields(config):
        if f.type not in ("int", "float"):
            continue
        value = getattr(config, f.name)
        kind = numbers.Integral if f.type == "int" else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind) \
                or not math.isfinite(value):
            raise ConfigError(f"{type(config).__name__}.{f.name} must be a finite "
                              f"{f.type}, got {value!r}")


def wrap_angle(theta):
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(theta, TAU)
    if r <= -math.pi:
        r += TAU
    return r


def _as_points(points, name):
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError(f"{name}: expected (N, 2) points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name}: non-finite coordinates")
    return arr


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled 2-D position sequence.

    t0_index is the time index of the first point (-H+1 for an observed
    trajectory, 1 for a future).
    """

    points: np.ndarray
    dt: float
    t0_index: int = 0

    def __post_init__(self):
        pts = _as_points(self.points, "Trajectory.points")
        if len(pts) < 2:
            raise DataError("Trajectory needs at least 2 points")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DataError(f"Trajectory.dt must be positive, got {self.dt}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class AgentState:
    """Kinematic state (x, y, heading, signed speed).

    A negative speed is reverse travel; heading is normalized to (-pi, pi]
    on construction.
    """

    x: float
    y: float
    theta: float
    v: float

    def __post_init__(self):
        for name in ("x", "y", "theta", "v"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"AgentState.{name} is not finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class ControlSequence:
    """Ordered control inputs as an (N, 2) array of columns (a, kappa)."""

    inputs: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.asarray(self.inputs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DataError(f"ControlSequence: expected (N, 2), got {arr.shape}")
        if len(arr) < 1:
            raise DataError("ControlSequence needs at least 1 entry")
        if not np.all(np.isfinite(arr)):
            raise DataError("ControlSequence: non-finite entries")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DataError(f"ControlSequence.dt must be positive, got {self.dt}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "inputs", arr)

    def __len__(self):
        return len(self.inputs)

    @property
    def a(self):
        return self.inputs[:, 0]

    @property
    def kappa(self):
        return self.inputs[:, 1]


@dataclass(frozen=True)
class Scenario:
    """One attack instance: ego and target, split at the prediction point."""

    ego_past: Trajectory
    ego_future: Trajectory
    target_past: Trajectory
    target_future: Trajectory
    vehicle_length: float = 4.2
    vehicle_width: float = 1.7
    id: str = ""

    def __post_init__(self):
        dts = {self.ego_past.dt, self.ego_future.dt,
               self.target_past.dt, self.target_future.dt}
        if len(dts) != 1:
            raise DataError(f"Scenario {self.id!r}: trajectories disagree on dt: {sorted(dts)}")
        if len(self.ego_past) != len(self.target_past):
            raise DataError(f"Scenario {self.id!r}: past horizons differ")
        if len(self.ego_future) != len(self.target_future):
            raise DataError(f"Scenario {self.id!r}: future horizons differ")
        if not (0.0 < self.vehicle_length < math.inf and 0.0 < self.vehicle_width < math.inf):
            raise DataError(f"Scenario {self.id!r}: vehicle footprint must be finite, > 0")

    @property
    def dt(self):
        return self.target_past.dt

    @property
    def horizon_past(self):
        return len(self.target_past)

    @property
    def horizon_future(self):
        return len(self.target_future)


@dataclass(frozen=True)
class PredictionSet:
    """K sampled future trajectories, shape (K, T, 2)."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise DataError(f"PredictionSet: expected (K, T, 2), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError("PredictionSet: empty sample set")
        if not np.all(np.isfinite(arr)):
            raise DataError("PredictionSet: non-finite samples")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DataError(f"PredictionSet.dt must be positive, got {self.dt}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def horizon(self):
        return self.samples.shape[1]


# ---------------------------------------------------------------------------
# geometry kernels


def hypot_grad(dx, dy, n):
    """Gradient of n = hypot(dx, dy) with respect to (dx, dy), as arrays.

    n == 0 only where dx == dy == 0; there the result is the zero
    subgradient.
    """
    safe = np.where(n == 0.0, 1.0, n)
    return dx / safe, dy / safe


def box_overlap_mask(centers1, headings1, centers2, headings2, length, width):
    """Whether oriented boxes of one footprint overlap, per box pair.

    centers (..., 2) and headings (...) describe the pairs; returns a bool
    array of the leading shape.  Separating-axis test over the four face
    normals.  Boxes are closed sets: touching boundaries count as overlap.
    """
    c1 = np.cos(headings1)
    s1 = np.sin(headings1)
    c2 = np.cos(headings2)
    s2 = np.sin(headings2)
    dxw = centers2[..., 0] - centers1[..., 0]
    dyw = centers2[..., 1] - centers1[..., 1]
    dx1 = dxw * c1 + dyw * s1
    dy1 = -dxw * s1 + dyw * c1
    dx2 = dxw * c2 + dyw * s2
    dy2 = -dxw * s2 + dyw * c2
    cd = np.abs(c1 * c2 + s1 * s2)
    sd = np.abs(s1 * c2 - c1 * s2)
    hl = 0.5 * length
    hw = 0.5 * width
    ra = hl + hl * cd + hw * sd
    rb = hw + hl * sd + hw * cd
    sep = (np.abs(dx1) > ra) | (np.abs(dy1) > rb) \
        | (np.abs(dx2) > ra) | (np.abs(dy2) > rb)
    return ~sep
