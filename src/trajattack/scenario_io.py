"""Synthetic left-turn scenarios and scenario file I/O.

Geometry of a generated scenario: a four-way intersection at the origin
with lane centers 1.75 m from the road axis.  The target drives north in
the x = +1.75 lane, brakes on approach, and executes a constant-curvature
left turn that crosses the oncoming x = -1.75 lane shortly after the
prediction point.  The ego drives south in that oncoming lane at constant
speed; gap_s is the signed time between the target crossing the ego lane
and the ego reaching the crossing point (positive: target cuts in front).
Both trajectories are produced by rolling out the forward model, so
control extraction recovers them exactly.

Scenario files are JSON lines (one scenario per record, full fidelity) or
long-format CSV (one point per row; vehicle footprint falls back to the
defaults).  Floats serialize via repr, so roundtrips are bit-exact.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (AgentState, ConfigError, ControlSequence, DataError,
                   GenerationError, Scenario, Trajectory)
from .dynamics import rollout
from .predictor import MIN_PAST_POINTS

log = logging.getLogger(__name__)

LANE_HALF_WIDTH = 1.75

# Speed-adjustment burst on approach: the target corrects its entry speed
# by at most ADJUST_SPEED_RANGE m/s at up to ADJUST_ACCEL_CAP m/s^2 during
# the earliest observed steps, then holds the turn speed.  Most observed
# controls stay zero while the dataset still spans accelerations of both
# signs.
ADJUST_SPEED_RANGE = 0.6
ADJUST_ACCEL_CAP = 2.0


@dataclass(frozen=True)
class LeftTurnParams:
    """Parameters of one synthetic left-turn scenario.

    cross_fraction places the nominal lane crossing at that fraction of
    the future horizon; it must leave room for the ego to arrive within
    the window when gap_s is positive.
    """

    v_target: float
    v_ego: float
    turn_radius: float
    gap_s: float
    H: int = 12
    T: int = 12
    dt: float = 0.1
    cross_fraction: float = 0.55


# Sampling ranges per suite.  The near-miss suite uses fast agents, a
# longer future window with an earlier crossing, and a small positive
# gap: the unperturbed target clears the crossing before the ego arrives,
# but delaying the turn within the control bounds closes the gap.
PRESETS = {
    "default": {"v_target": (4.5, 9.0), "v_ego": (5.0, 10.0),
                "turn_radius": (5.5, 8.0), "gap_s": (0.9, 2.5),
                "gap_sign_random": True, "T": 12, "cross_fraction": 0.55},
    "near-miss": {"v_target": (7.5, 9.0), "v_ego": (8.5, 10.0),
                  "turn_radius": (6.0, 7.5), "gap_s": (0.88, 0.97),
                  "gap_sign_random": False, "T": 20, "cross_fraction": 0.45},
}


# Physical limits of the sweep ranges: speeds up to 60 m/s (216 km/h),
# turns of at most 1 km radius, crossing gaps within a minute either way.
SWEEP_LIMITS = {"v_target": (0.0, 60.0), "v_ego": (0.0, 60.0),
                "turn_radius": (0.0, 1000.0), "gap_s": (-60.0, 60.0)}

# Plausibility limits of scenario data: a sampling interval from 1 ms to 10 s,
# and no vehicle faster than 100 m/s (360 km/h) over any step.  Coordinates
# are not capped: map-frame positions (UTM northings near 5e6 m) are real.
DT_LIMITS = (1e-3, 10.0)
MAX_STEP_SPEED = 100.0


def sweep_range(key, pair):
    """A validated sweep range (LO, HI) for one of the SWEEP_LIMITS keys."""
    if key not in SWEEP_LIMITS:
        raise ConfigError(f"unknown sweep range {key!r}")
    low, high = SWEEP_LIMITS[key]
    try:
        lo, hi = map(float, pair)
    except (TypeError, ValueError):
        lo = hi = math.nan
    if not low <= lo <= hi <= high:   # false for NaN
        raise ConfigError(f"sweep range {key!r} must be two numbers "
                          f"{low:g} <= LO <= HI <= {high:g}, got {pair!r}")
    return lo, hi


def sample_left_turn_params(rng, preset="default", H=12, T=None, dt=0.1,
                            ranges=None):
    """Draw scenario parameters uniformly from a preset's ranges.

    ranges overrides individual preset entries, e.g. {"gap_s": (1.0, 2.0)},
    each a pair of finite numbers LO <= HI within the SWEEP_LIMITS.  T
    defaults to the preset's future horizon.
    """
    if preset not in PRESETS:
        raise ConfigError(f"unknown scenario preset {preset!r}; "
                          f"choose from {sorted(PRESETS)}")
    spec = dict(PRESETS[preset])
    for key, pair in (ranges or {}).items():
        spec[key] = sweep_range(key, pair)
    draw = {key: float(rng.uniform(*spec[key])) for key in SWEEP_LIMITS}
    if spec["gap_sign_random"] and rng.uniform() < 0.5:
        draw["gap_s"] = -draw["gap_s"]
    return LeftTurnParams(H=H, T=spec["T"] if T is None else T, dt=dt,
                          cross_fraction=spec["cross_fraction"], **draw)


def _constant_ego(params, y_at_zero, n_points):
    """Ego episode points: constant speed south along x = -1.75."""
    start = AgentState(-LANE_HALF_WIDTH,
                       y_at_zero + params.v_ego * (params.H - 1) * params.dt,
                       -0.5 * math.pi, params.v_ego)
    controls = ControlSequence(np.zeros((n_points - 1, 2)), params.dt)
    return rollout(start, controls).points


def _split(points, params, scenario_id, vehicle=()):
    h, t, dt = params.H, params.T, params.dt
    tgt, ego = points
    return Scenario(
        ego_past=Trajectory(ego[:h], dt, t0_index=-(h - 1)),
        ego_future=Trajectory(ego[h:], dt, t0_index=1),
        target_past=Trajectory(tgt[:h], dt, t0_index=-(h - 1)),
        target_future=Trajectory(tgt[h:], dt, t0_index=1),
        id=scenario_id,
        **dict(vehicle),
    )


def generate_left_turn(params, seed=0):
    """Build one left-turn Scenario by forward-model rollout.

    The seed jitters the turn onset by up to half a step, decorrelating
    grid-snapping across scenarios with similar parameters.  Identical
    params and seed give a bitwise identical scenario.
    """
    p = params
    if not DT_LIMITS[0] <= p.dt <= DT_LIMITS[1]:   # false for NaN
        raise ConfigError(f"dt must be in [{DT_LIMITS[0]:g}, {DT_LIMITS[1]:g}] s, got {p.dt}")
    if p.H < MIN_PAST_POINTS or p.T < 2:
        raise ConfigError(f"horizons must be at least H={MIN_PAST_POINTS}, T=2, "
                          f"got H={p.H}, T={p.T}")
    if p.v_target < 0.0 or p.v_ego < 0.0:
        raise ConfigError("speeds must be nonnegative")
    scenario_id = f"lt-{seed:08d}"
    n = p.H + p.T
    t_pred = (p.H - 1) * p.dt  # prediction point, measured from episode start

    if not (0.0 < p.cross_fraction < 1.0):
        raise ConfigError(f"cross_fraction must be in (0, 1), got {p.cross_fraction}")

    if p.v_target == 0.0:
        tgt = np.tile((LANE_HALF_WIDTH, -2.0), (n, 1)).astype(float)
        tau_cross = p.cross_fraction * p.T * p.dt
        ego = _constant_ego(p, LANE_HALF_WIDTH + p.v_ego * (tau_cross + p.gap_s), n)
        return _split((tgt, ego), p, scenario_id)

    if p.turn_radius < 1.0 / 0.2:
        raise GenerationError(
            f"turn radius {p.turn_radius} m needs curvature above the 0.2 1/m bound")
    kappa = 1.0 / p.turn_radius
    # arc length from turn onset to the oncoming lane center
    phi_cross = math.acos(1.0 - 2.0 * LANE_HALF_WIDTH / p.turn_radius)
    arc_cross = p.turn_radius * phi_cross

    rng = np.random.default_rng(seed)
    jitter = float(rng.uniform(-0.5, 0.5)) * p.dt
    t_turn = t_pred + p.cross_fraction * p.T * p.dt - arc_cross / p.v_target + jitter
    k_turn = min(max(int(round(t_turn / p.dt)), 0), n - 2)

    dv = float(rng.uniform(-ADJUST_SPEED_RANGE, ADJUST_SPEED_RANGE))
    n_adj = min(int(math.ceil(abs(dv) / (ADJUST_ACCEL_CAP * p.dt))), k_turn)
    dv = math.copysign(min(abs(dv), n_adj * p.dt * ADJUST_ACCEL_CAP), dv)
    v_start = p.v_target + dv
    controls = np.zeros((n - 1, 2))
    if n_adj:
        controls[:n_adj, 0] = -dv / (n_adj * p.dt)
    controls[k_turn:, 1] = kappa
    start = AgentState(LANE_HALF_WIDTH, 0.0, 0.5 * math.pi, v_start)
    tgt = rollout(start, ControlSequence(controls, p.dt)).points.copy()
    # pin the turn-entry point so the arc crosses the ego lane near y = +1.75
    tgt[:, 1] += (LANE_HALF_WIDTH - p.turn_radius * math.sin(phi_cross)
                  - tgt[k_turn, 1])

    crossing = None
    for j in range(n - 1):
        if tgt[j, 0] > -LANE_HALF_WIDTH >= tgt[j + 1, 0]:
            frac = (tgt[j, 0] + LANE_HALF_WIDTH) / (tgt[j, 0] - tgt[j + 1, 0])
            crossing = ((j + frac) * p.dt - t_pred,
                        tgt[j, 1] + frac * (tgt[j + 1, 1] - tgt[j, 1]))
            break
    if crossing is None:
        raise GenerationError(
            f"left turn does not reach the oncoming lane within {n} steps "
            f"(v_target={p.v_target}, turn_radius={p.turn_radius})")
    tau_cross, y_cross = crossing
    if tau_cross <= 0.0:
        raise GenerationError("turn crosses the oncoming lane before the prediction point")

    ego = _constant_ego(p, y_cross + p.v_ego * (tau_cross + p.gap_s), n)
    return _split((tgt, ego), p, scenario_id)


# ---------------------------------------------------------------------------
# serialization

_ROLES = (("target", "past"), ("target", "future"),
          ("ego", "past"), ("ego", "future"))


def _traj_of(scenario, agent, role):
    return getattr(scenario, f"{agent}_{role}")


def _infer_format(path, fmt):
    if fmt is not None:
        if fmt not in ("jsonl", "csv"):
            raise ConfigError(f"unknown scenario format {fmt!r}")
        return fmt
    name = str(path)
    if name.endswith(".jsonl"):
        return "jsonl"
    if name.endswith(".csv"):
        return "csv"
    raise ConfigError(f"cannot infer format from {path!r}; pass fmt")


def write_scenarios(path, scenarios, fmt=None):
    """Write scenarios as JSON lines (full fidelity) or long-format CSV."""
    fmt = _infer_format(path, fmt)
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for s in scenarios:
                record = {"id": s.id, "dt": s.dt,
                          "H": s.horizon_past, "T": s.horizon_future}
                for agent, role in _ROLES:
                    record[f"{agent}_{role}"] = _traj_of(s, agent, role).points.tolist()
                record["vehicle_length"] = s.vehicle_length
                record["vehicle_width"] = s.vehicle_width
                fh.write(json.dumps(record) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "agent", "role", "t_index", "x", "y", "dt"))
        for s in scenarios:
            for agent, role in _ROLES:
                traj = _traj_of(s, agent, role)
                for i, (x, y) in enumerate(traj.points):
                    writer.writerow((s.id, agent, role, traj.t0_index + i,
                                     repr(float(x)), repr(float(y)), repr(s.dt)))


def _scenario_from_record(record, where):
    try:
        h = int(record["H"])
        t = int(record["T"])
        dt = float(record["dt"])
        scenario_id = str(record["id"])
        arrays = {}
        for agent, role in _ROLES:
            arr = np.asarray(record[f"{agent}_{role}"], dtype=float)
            expect = h if role == "past" else t
            if arr.shape != (expect, 2):
                raise DataError(f"{agent}_{role} has shape {arr.shape}, "
                                f"expected ({expect}, 2)")
            arrays[(agent, role)] = arr
        vehicle = {key: float(record[key]) for key in ("vehicle_length", "vehicle_width")
                   if key in record}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: malformed record: {exc}") from None
    if h < MIN_PAST_POINTS:
        raise DataError(f"{where}: a past of {h} points; prediction needs at least "
                        f"{MIN_PAST_POINTS}")
    try:
        scenario = Scenario(
            ego_past=Trajectory(arrays[("ego", "past")], dt, t0_index=-(h - 1)),
            ego_future=Trajectory(arrays[("ego", "future")], dt, t0_index=1),
            target_past=Trajectory(arrays[("target", "past")], dt, t0_index=-(h - 1)),
            target_future=Trajectory(arrays[("target", "future")], dt, t0_index=1),
            id=scenario_id, **vehicle)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    _check_plausible(scenario, where)
    return scenario


def _check_plausible(scenario, where):
    """Refuse a sampling interval outside DT_LIMITS and a step faster than
    MAX_STEP_SPEED, before any attack reads the scenario."""
    dt = scenario.dt
    if not DT_LIMITS[0] <= dt <= DT_LIMITS[1]:
        raise DataError(f"{where}: dt {dt!r} s outside the plausible range "
                        f"[{DT_LIMITS[0]:g}, {DT_LIMITS[1]:g}] s")
    for agent in ("target", "ego"):
        episode = np.vstack([_traj_of(scenario, agent, "past").points,
                             _traj_of(scenario, agent, "future").points])
        with np.errstate(over="ignore"):   # finite coordinates can differ by more than 1.8e308
            step = np.diff(episode, axis=0)
            fastest = float(np.max(np.hypot(step[:, 0], step[:, 1]))) / dt
        if not fastest <= MAX_STEP_SPEED:
            raise DataError(f"{where}: {agent} moves {fastest:.3g} m/s over one step, "
                            f"above the plausible {MAX_STEP_SPEED:g} m/s")


def _ingest_jsonl(path):
    """Scenarios of a JSON lines file and the reasons of its skipped rows."""
    out = []
    skipped = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                skipped.append(f"{path}:{lineno}: invalid JSON ({exc})")
                log.warning("%s; row skipped", skipped[-1])
                continue
            try:
                out.append(_scenario_from_record(record, f"{path}:{lineno}"))
            except DataError as exc:
                skipped.append(str(exc))
                log.warning("%s; row skipped", exc)
    return out, skipped


def _ingest_csv(path):
    """Scenarios of a long-format CSV file and the reasons of its skipped
    scenarios."""
    groups = {}
    first_line = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if header[:7] != ["id", "agent", "role", "t_index", "x", "y", "dt"]:
            raise DataError(f"{path}: unexpected CSV header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                sid, agent, role, t_index, x, y, dt = row[:7]
                key = (agent, role)
                if key not in _ROLES:
                    raise ValueError(f"unknown agent/role {key}")
                entry = groups.setdefault(sid, {k: [] for k in _ROLES})
                entry[key].append((int(t_index), float(x), float(y), float(dt), lineno))
                first_line.setdefault(sid, lineno)
            except ValueError as exc:
                log.warning("%s:%d: malformed row (%s); skipped", path, lineno, exc)
    out = []
    skipped = []
    for sid, entry in groups.items():
        where = f"{path}:{first_line[sid]}"
        try:
            dts = {dt for rows in entry.values() for _, _, _, dt, _ in rows}
            if len(dts) != 1:
                raise DataError(f"{where}: scenario {sid!r} mixes dt values")
            dt = dts.pop()
            record = {"id": sid, "dt": dt,
                      "H": len(entry[("target", "past")]),
                      "T": len(entry[("target", "future")])}
            for key in _ROLES:
                rows = sorted(entry[key])
                for prev, row in zip(rows, rows[1:]):
                    if row[0] != prev[0] + 1:
                        raise DataError(
                            f"{path}:{row[4]}: scenario {sid!r} {'_'.join(key)} "
                            f"t_index {row[0]} follows {prev[0]}; indices must be "
                            f"consecutive and unique")
                record["_".join(key)] = [(x, y) for _, x, y, _, _ in rows]
            out.append(_scenario_from_record(record, where))
        except DataError as exc:
            skipped.append(str(exc))
            log.warning("%s; scenario skipped", exc)
    return out, skipped


def ingest_scenarios(path, fmt=None):
    """Read and validate a scenario file.

    Invalid rows, implausible ones among them (see _check_plausible), are
    skipped with a logged diagnostic carrying the line number; a file
    yielding no valid scenario raises DataError, naming the first row's
    defect.
    """
    fmt = _infer_format(path, fmt)
    try:
        out, skipped = _ingest_jsonl(path) if fmt == "jsonl" else _ingest_csv(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read scenario file: {exc}") from None
    if not out:
        if skipped:
            raise DataError(f"{path}: all {len(skipped)} scenario rows invalid; "
                            f"first: {skipped[0]}")
        raise DataError(f"{path}: no scenarios found")
    return out
