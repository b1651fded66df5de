"""Evaluation metrics and report tables.

Prediction quality (ADE/FDE) is measured against the unperturbed ground
truth future.  Collision rates test oriented vehicle footprints at
matched time indices; box headings come from finite position differences,
the first future step using the segment from the last observed point.
Perturbation magnitude is reported as displacement of the observed
trajectory (D_max, D_mean) and as mean absolute perturbed past controls
(a_mag, k_mag).

A report row carries one metric set per scenario/configuration; rows
serialize to CSV or JSON lines with a fixed column order and aggregate
by arithmetic column means (CR_FNC only over rows that have it).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .core import DataError, box_overlap_mask
from .dynamics import extract_controls

COLUMNS = ("id", "objective", "obs_constraint", "fut_constraint",
           "ADE", "FDE", "CR_pred", "CR_FNC", "D_max", "D_mean",
           "a_mag", "k_mag")


def metric_ade(pred, y_tar):
    """Mean displacement of all samples from the ground-truth future."""
    if pred.horizon != len(y_tar):
        raise DataError("metric_ade: horizon mismatch")
    d = np.linalg.norm(pred.samples - y_tar.points[None, :, :], axis=2)
    return float(d.mean())


def metric_fde(pred, y_tar):
    """Mean final displacement of all samples from the ground-truth future."""
    if pred.horizon != len(y_tar):
        raise DataError("metric_fde: horizon mismatch")
    d = np.linalg.norm(pred.samples[:, -1, :] - y_tar.points[-1], axis=1)
    return float(d.mean())


def _headings(points, prev_point=None):
    """Finite-difference headings of position sequences (..., T, 2); (..., T).

    The first step runs from prev_point when given, else along the first
    segment; a stationary step keeps the previous heading.
    """
    pts = np.asarray(points, dtype=float)
    d = np.empty_like(pts)
    if prev_point is not None:
        d[..., 0, :] = pts[..., 0, :] - np.asarray(prev_point, dtype=float)
    elif pts.shape[-2] > 1:
        d[..., 0, :] = pts[..., 1, :] - pts[..., 0, :]
    else:
        d[..., 0, :] = (1.0, 0.0)
    d[..., 1:, :] = pts[..., 1:, :] - pts[..., :-1, :]
    head = np.arctan2(d[..., 1], d[..., 0])
    still = (d[..., 0] == 0.0) & (d[..., 1] == 0.0)
    if still.any():
        for t in range(1, head.shape[-1]):
            head[..., t] = np.where(still[..., t], head[..., t - 1], head[..., t])
    return head


def metric_cr_pred(pred, y_ego, length, width, target_prev=None, ego_prev=None):
    """Fraction of samples whose footprint ever overlaps the ego footprint.

    Overlap is tested at matched time indices.  target_prev / ego_prev are
    the last observed positions, used for the first-step headings.
    """
    if pred.horizon != len(y_ego):
        raise DataError("metric_cr_pred: horizon mismatch")
    k, t = pred.samples.shape[:2]
    sample_head = _headings(pred.samples, target_prev)
    ego_head = _headings(y_ego.points, ego_prev)
    ego_centers = np.broadcast_to(y_ego.points, (k, t, 2))
    ego_heads = np.broadcast_to(ego_head, (k, t))
    hit = box_overlap_mask(pred.samples.reshape(-1, 2), sample_head.ravel(),
                           ego_centers.reshape(-1, 2), ego_heads.ravel(),
                           length, width).reshape(k, t)
    return float(hit.any(axis=1).mean())


def metric_cr_fnc(y_pert, y_ego, length, width, target_prev=None, ego_prev=None):
    """1.0 if the perturbed future ever overlaps the ego footprint, else 0.0."""
    if len(y_pert) != len(y_ego):
        raise DataError("metric_cr_fnc: horizon mismatch")
    head_t = _headings(y_pert.points, target_prev)
    head_e = _headings(y_ego.points, ego_prev)
    hit = box_overlap_mask(y_pert.points, head_t, y_ego.points, head_e,
                           length, width)
    return float(hit.any())


def metric_dmax(x_pert, x_tar):
    """Largest displacement of the observed trajectory."""
    return float(np.linalg.norm(x_pert.points - x_tar.points, axis=1).max())


def metric_dmean(x_pert, x_tar):
    """Mean displacement of the observed trajectory."""
    return float(np.linalg.norm(x_pert.points - x_tar.points, axis=1).mean())


def metric_accel(u_pert):
    """Mean absolute perturbed past acceleration."""
    return float(np.abs(u_pert.a).mean())


def metric_curv(u_pert):
    """Mean absolute perturbed past curvature."""
    return float(np.abs(u_pert.kappa).mean())


@dataclass(frozen=True)
class MetricRow:
    """One report line; CR_FNC is None for rows it does not apply to."""

    id: str
    objective: str
    obs_constraint: str
    fut_constraint: str
    ADE: float
    FDE: float
    CR_pred: float
    CR_FNC: float | None
    D_max: float
    D_mean: float
    a_mag: float
    k_mag: float

    def to_dict(self):
        return {name: getattr(self, name) for name in COLUMNS}


def compute_attack_row(scenario, result, objective, obs_constraint, fut_constraint):
    """Metric row for one finished attack."""
    tgt_prev = result.x_pert.points[-1]
    ego_prev = scenario.ego_past.points[-1]
    cr_fnc = None
    if objective == "collision_fn":
        cr_fnc = metric_cr_fnc(result.y_pert, scenario.ego_future,
                               scenario.vehicle_length, scenario.vehicle_width,
                               target_prev=tgt_prev, ego_prev=ego_prev)
    return MetricRow(
        id=scenario.id,
        objective=objective,
        obs_constraint=obs_constraint,
        fut_constraint=fut_constraint,
        ADE=metric_ade(result.pred_pert, scenario.target_future),
        FDE=metric_fde(result.pred_pert, scenario.target_future),
        CR_pred=metric_cr_pred(result.pred_pert, scenario.ego_future,
                               scenario.vehicle_length, scenario.vehicle_width,
                               target_prev=tgt_prev, ego_prev=ego_prev),
        CR_FNC=cr_fnc,
        D_max=metric_dmax(result.x_pert, scenario.target_past),
        D_mean=metric_dmean(result.x_pert, scenario.target_past),
        a_mag=metric_accel(result.u_pert),
        k_mag=metric_curv(result.u_pert),
    )


def compute_baseline_row(scenario, pred_clean):
    """Metric row of the identity perturbation (clean predictions)."""
    _, u_tar = extract_controls(scenario.target_past)
    return MetricRow(
        id=scenario.id,
        objective="unperturbed",
        obs_constraint="-",
        fut_constraint="-",
        ADE=metric_ade(pred_clean, scenario.target_future),
        FDE=metric_fde(pred_clean, scenario.target_future),
        CR_pred=metric_cr_pred(pred_clean, scenario.ego_future,
                               scenario.vehicle_length, scenario.vehicle_width,
                               target_prev=scenario.target_past.points[-1],
                               ego_prev=scenario.ego_past.points[-1]),
        CR_FNC=None,
        D_max=0.0,
        D_mean=0.0,
        a_mag=metric_accel(u_tar),
        k_mag=metric_curv(u_tar),
    )


def _common(values):
    vals = set(values)
    return vals.pop() if len(vals) == 1 else "-"


def aggregate(rows):
    """Column means over rows; CR_FNC averages only the rows that carry it."""
    if not rows:
        raise DataError("aggregate: no rows")
    fnc = [r.CR_FNC for r in rows if r.CR_FNC is not None]
    return MetricRow(
        id="mean",
        objective=_common(r.objective for r in rows),
        obs_constraint=_common(r.obs_constraint for r in rows),
        fut_constraint=_common(r.fut_constraint for r in rows),
        ADE=float(np.mean([r.ADE for r in rows])),
        FDE=float(np.mean([r.FDE for r in rows])),
        CR_pred=float(np.mean([r.CR_pred for r in rows])),
        CR_FNC=float(np.mean(fnc)) if fnc else None,
        D_max=float(np.mean([r.D_max for r in rows])),
        D_mean=float(np.mean([r.D_mean for r in rows])),
        a_mag=float(np.mean([r.a_mag for r in rows])),
        k_mag=float(np.mean([r.k_mag for r in rows])),
    )


def _cell(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_rows_csv(path, dicts):
    """Write row dicts as CSV; extra keys beyond COLUMNS are appended."""
    if not dicts:
        raise DataError("write_rows_csv: no rows")
    extras = [k for k in dicts[0] if k not in COLUMNS]
    header = [*COLUMNS, *extras]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for d in dicts:
            writer.writerow([_cell(d.get(k)) for k in header])


def write_rows_jsonl(path, dicts):
    with open(path, "w") as fh:
        for d in dicts:
            fh.write(json.dumps(d) + "\n")


def read_rows_jsonl(path):
    """Read report rows back; returns (MetricRow list, extras dict list)."""
    rows = []
    extras = []
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"{path}: cannot read report file: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                rows.append(MetricRow(**{k: d[k] for k in COLUMNS}))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: bad report row: {exc}") from None
            extras.append({k: v for k, v in d.items() if k not in COLUMNS})
    if not rows:
        raise DataError(f"{path}: no report rows")
    return rows, extras
