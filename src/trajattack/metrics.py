"""Evaluation metrics and the report row format.

Prediction quality (ADE/FDE) is measured against the unperturbed ground
truth future.  Collision rates test oriented vehicle footprints at
matched time indices; box headings come from finite position differences,
the first future step using the segment from the last observed point.
CR_pred runs the collision kernel on the K predicted samples and CR_FNC
on the perturbed future as a single sample.  Perturbation magnitude is
reported as displacement of the observed trajectory (D_max, D_mean) and
as mean absolute perturbed past controls (a_mag, k_mag).

This module owns the row format.  A row is a dict: the COLUMNS (labels,
then metrics) and, for an attack row, the attack's DIAGNOSTICS after
them.  Rows serialize to JSON lines and to CSV, whose header is every
key of every row, COLUMNS first, and aggregate by arithmetic column
means (CR_FNC only over rows that have it).
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .core import DataError, box_overlap_mask
from .dynamics import extract_controls

COLUMNS = ("id", "objective", "obs_constraint", "fut_constraint",
           "ADE", "FDE", "CR_pred", "CR_FNC", "D_max", "D_mean",
           "a_mag", "k_mag")
DIAGNOSTICS = ("final_loss", "iterations", "halvings", "rejections",
               "max_accepted_distance", "max_box_excess", "empty_box_entries")
_METRICS = COLUMNS[4:]


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


def collision_rate(samples, ego, length, width, target_prev=None, ego_prev=None):
    """Fraction of the (K, T, 2) samples whose footprint ever overlaps the
    footprint of the (T, 2) ego positions.

    Overlap is tested at matched time indices.  target_prev / ego_prev are
    the last observed positions, used for the first-step headings.
    """
    if samples.shape[1] != len(ego):
        raise DataError("collision_rate: horizon mismatch")
    hit = box_overlap_mask(samples, _headings(samples, target_prev),
                           ego, _headings(ego, ego_prev), length, width)
    return float(hit.any(axis=1).mean())


def _row(scenario, labels, pred, x, u, y_fnc):
    """The COLUMNS of one row: labels, then the metrics of predictions pred
    from the observed past x with past controls u; CR_FNC tests the future
    y_fnc, None where it does not apply."""
    ego = scenario.ego_future.points
    box = (scenario.vehicle_length, scenario.vehicle_width,
           x.points[-1], scenario.ego_past.points[-1])
    shift = np.linalg.norm(x.points - scenario.target_past.points, axis=1)
    return {
        "id": scenario.id,
        **dict(zip(COLUMNS[1:4], labels)),
        "ADE": metric_ade(pred, scenario.target_future),
        "FDE": metric_fde(pred, scenario.target_future),
        "CR_pred": collision_rate(pred.samples, ego, *box),
        "CR_FNC": None if y_fnc is None else collision_rate(y_fnc.points[None], ego, *box),
        "D_max": float(shift.max()),
        "D_mean": float(shift.mean()),
        "a_mag": float(np.abs(u.a).mean()),
        "k_mag": float(np.abs(u.kappa).mean()),
    }


def compute_attack_row(scenario, result, cfg):
    """Row of one finished attack: its metrics, then its DIAGNOSTICS."""
    barrier = cfg.barrier
    row = _row(scenario, (cfg.objective, barrier.observed_mode, barrier.future_mode),
               result.pred_pert, result.x_pert, result.u_pert,
               result.y_pert if cfg.objective == "collision_fn" else None)
    diagnostics = {**result.diagnostics, "iterations": result.iterations_run,
                   "halvings": result.halving_events}
    return {**row, **{key: diagnostics[key] for key in DIAGNOSTICS}}


def compute_baseline_row(scenario, pred_clean):
    """Row of the identity perturbation (clean predictions): metrics only."""
    _, u_tar = extract_controls(scenario.target_past)
    return _row(scenario, ("unperturbed", "-", "-"), pred_clean, scenario.target_past,
                u_tar, None)


def _common(values):
    vals = set(values)
    return vals.pop() if len(vals) == 1 else "-"


def aggregate(rows):
    """COLUMNS means over rows; CR_FNC averages only the rows that carry it."""
    if not rows:
        raise DataError("aggregate: no rows")
    out = {"id": "mean"}
    for key in COLUMNS[1:4]:
        out[key] = _common(r[key] for r in rows)
    for key in _METRICS:
        values = [r[key] for r in rows if r[key] is not None]
        out[key] = float(np.mean(values)) if values else None
    return out


def _cell(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_rows_csv(path, dicts):
    """Write row dicts as CSV; the header is COLUMNS, then every other key
    in order of appearance, and a row without a key gets "-"."""
    if not dicts:
        raise DataError("write_rows_csv: no rows")
    header = list(dict.fromkeys([*COLUMNS, *(k for d in dicts for k in d)]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for d in dicts:
            writer.writerow([_cell(d.get(k)) for k in header])


def write_rows_jsonl(path, dicts):
    """Write row dicts as strict JSON lines.

    A row with a non-finite number is a DataError naming its id and column,
    raised before the file is opened.
    """
    lines = []
    for d in dicts:
        try:
            lines.append(json.dumps(d, allow_nan=False) + "\n")
        except ValueError:
            key, value = next((k, v) for k, v in d.items()
                              if isinstance(v, float) and not math.isfinite(v))
            raise DataError(f"row {d.get('id')!r}: {key} is not a finite number: "
                            f"{value!r}") from None
    with open(path, "w") as fh:
        fh.writelines(lines)


def _row_error(d):
    """Why d is not a report row, or None."""
    if not isinstance(d, dict):
        return "not a JSON object"
    missing = [k for k in COLUMNS if k not in d]
    if missing:
        return f"missing columns {missing}"
    if not all(isinstance(d[k], str) for k in COLUMNS[:4]):
        return f"labels {list(COLUMNS[:4])} must be strings"
    for key in _METRICS:
        v = d[key]
        if v is None and key == "CR_FNC":
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"{key} is not a finite number: {v!r}"
    return None


def read_rows_jsonl(path):
    """Read report rows back as dicts, with every key each line holds.

    A line must hold every column, and every metric a finite number
    (CR_FNC may be null); anything else is a DataError at path:line.
    """
    rows = []
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
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: bad report row: {exc}") from None
            error = _row_error(d)
            if error:
                raise DataError(f"{path}:{lineno}: bad report row: {error}")
            rows.append(d)
    if not rows:
        raise DataError(f"{path}: no report rows")
    return rows
