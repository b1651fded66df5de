"""Checks a measured run's outputs with perfbench/checks.py.

Converts the package's results to plain arrays, runs the per-attack checks
and the per-round checks, and counts attacks as passed or failed.  An
attack fails when its own checks fail; a failed round-level check (row
counts, group means, directional efficacy, determinism across rounds, the
acceleration bounds) makes the whole run incorrect instead, since no single
attack owns it.
"""

import hashlib
import json

import numpy as np

import checks

DRIFT_CAP = 2.0   # criterion 7: attacked ADE at most twice the baseline's
MAX_MESSAGES = 20


def _record(scenario, cfg, predictor, result):
    bar = cfg.barrier
    pc = predictor.config
    return {
        "id": scenario.id, "dt": scenario.dt,
        "target_past": np.asarray(scenario.target_past.points),
        "target_future": np.asarray(scenario.target_future.points),
        "objective": cfg.objective, "observed_mode": bar.observed_mode,
        "future_mode": bar.future_mode, "d_max": bar.d_max,
        "rel_bound_a": cfg.rel_bound_a, "rel_bound_kappa": cfg.rel_bound_kappa,
        "abs_bound_kappa": cfg.abs_bound_kappa,
        "a_min": cfg.a_min, "a_max": cfg.a_max,
        "predictor": {"seed": pc.seed, "n_samples": pc.n_samples,
                      "noise_scale_a": pc.noise_scale_a,
                      "noise_scale_kappa": pc.noise_scale_kappa,
                      "smoothing_window": pc.smoothing_window},
        "x_pert": np.asarray(result.x_pert.points),
        "y_pert": np.asarray(result.y_pert.points),
        "u_pert": np.asarray(result.u_pert.inputs),
        "v_pert": np.asarray(result.v_pert.inputs),
        "pred_pert": np.asarray(result.pred_pert.samples),
        "pred_clean": np.asarray(result.pred_clean.samples),
    }


def _bounds_check(scenarios, recs):
    """The configured acceleration bounds equal the independent dataset range."""
    episodes = [np.vstack([p.points, f.points]) for s in scenarios
                for p, f in ((s.target_past, s.target_future),
                             (s.ego_past, s.ego_future))]
    lo, hi = checks.accel_bounds(episodes, scenarios[0].dt)
    got = {(r["a_min"], r["a_max"]) for r in recs}
    if len(got) != 1:
        return [f"attacks disagree on acceleration bounds: {sorted(got)}"]
    a_min, a_max = got.pop()
    if not (checks.close(a_min, lo) and checks.close(a_max, hi)):
        return [f"acceleration bounds [{a_min!r}, {a_max!r}] != dataset "
                f"range [{lo!r}, {hi!r}]"]
    return []


def _array_digest(recs):
    h = hashlib.sha256()
    for rec in sorted(recs, key=lambda r: (r["id"], r["objective"],
                                           r["observed_mode"], r["future_mode"])):
        h.update(json.dumps([rec["id"], rec["objective"], rec["observed_mode"],
                             rec["future_mode"]]).encode())
        for key in ("x_pert", "y_pert", "pred_pert"):
            h.update(np.ascontiguousarray(rec[key]).tobytes())
    return h.hexdigest()


def _rows_digest(rows_text):
    return hashlib.sha256("".join(sorted(rows_text.splitlines(True))).encode()).hexdigest()


def _cli_round(workload, recs, rows_text, report_text, n_scenarios, n_configs):
    """(per-attack failure lists aligned with recs, round failures)."""
    rows = [json.loads(line) for line in rows_text.splitlines() if line.strip()]
    report = [json.loads(line) for line in report_text.splitlines() if line.strip()]
    round_fails = []
    if len(rows) != n_scenarios * (1 + n_configs):
        round_fails.append(f"{len(rows)} rows for {n_scenarios} scenarios x "
                           f"{n_configs} configurations")
    by_key = {(r["id"], r["objective"], r["obs_constraint"], r["fut_constraint"]): r
              for r in rows}
    per_attack = []
    first_rec = {}
    for rec in recs:
        first_rec.setdefault(rec["id"], rec)
        row = by_key.get((rec["id"], rec["objective"], rec["observed_mode"],
                          rec["future_mode"]))
        fails = checks.check_attack(rec)
        fails += (["no result row"] if row is None else checks.check_row(row, rec))
        per_attack.append(fails)
    baselines = [r for r in rows if r["objective"] == "unperturbed"]
    if sorted(r["id"] for r in baselines) != sorted(first_rec):
        round_fails.append("baseline rows do not match the attacked scenarios")
    for row in baselines:
        if row["id"] in first_rec:
            round_fails += checks.check_baseline_row(row, first_rec[row["id"]])
    attacked = [r for r in rows if r["objective"] != "unperturbed"]
    round_fails += checks.check_report(report, rows)
    base_ade = float(np.mean([r["ADE"] for r in baselines]))
    if workload == "grid":
        ade = float(np.mean([r["ADE"] for r in attacked if r["objective"] == "ade"]))
        if not ade > base_ade:
            round_fails.append(f"mean ADE on ade rows {ade} <= baseline {base_ade}")
    else:
        rate = float(np.mean([r["CR_FNC"] for r in attacked]))
        drift = float(np.mean([r["ADE"] for r in attacked])) / base_ade
        if not rate > 0.0:
            round_fails.append("collision_fn attack collision rate is 0")
        if not drift <= DRIFT_CAP:
            round_fails.append(f"prediction drift x{drift:.3f} above cap {DRIFT_CAP}")
    return per_attack, round_fails


def _single_round(recs):
    per_attack = [checks.check_attack(rec) for rec in recs]
    ade = [checks.ade_fde(r["pred_pert"], r["target_future"])[0]
           for r in recs if r["objective"] == "ade"]
    clean = [checks.ade_fde(r["pred_clean"], r["target_future"])[0]
             for r in recs if r["objective"] == "ade"]
    round_fails = []
    if not np.mean(ade) > np.mean(clean):
        round_fails.append(f"mean attacked ADE {np.mean(ade)} <= clean {np.mean(clean)}")
    return per_attack, round_fails


def verify(workload, calls, outputs, n_scenarios, n_configs):
    """Checks every attack of every round; returns counts, messages, digest.

    Each round must hold n_scenarios x n_configs attacks.
    """
    attempted = failed = 0
    messages = []
    round_fails = []
    first = None
    for index, (rows_text, report_text) in enumerate(outputs):
        round_calls = [c for c in calls if c[0] == index]
        recs = [_record(*c[3:7]) for c in round_calls]
        if workload == "single":
            per_attack, fails = _single_round(recs)
            digest = _array_digest(recs)
        else:
            per_attack, fails = _cli_round(workload, recs, rows_text, report_text,
                                           n_scenarios, n_configs)
            digest = _rows_digest(rows_text)
        if len(recs) != n_scenarios * n_configs:
            fails.append(f"{len(recs)} attacks, expected {n_scenarios * n_configs}")
        scenarios = list({c[3].id: c[3] for c in round_calls}.values())
        fails += _bounds_check(scenarios, recs)
        if first is None:
            first = digest
        elif digest != first:
            fails.append(f"round {index} results differ from round 0")
        round_fails += [f"round {index}: {m}" for m in fails]
        for rec, attack_fails in zip(recs, per_attack):
            attempted += 1
            if attack_fails:
                failed += 1
                messages += [f"round {index} {rec['id']} {rec['objective']}/"
                             f"{rec['observed_mode']}/{rec['future_mode']}: {m}"
                             for m in attack_fails]
    return {"attempted": attempted, "failed": failed,
            "failures": messages[:MAX_MESSAGES],
            "round_failures": round_fails[:MAX_MESSAGES],
            "rows_sha256": first}
