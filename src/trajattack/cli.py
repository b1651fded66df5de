"""Command-line experiment runner.

Three subcommands: generate writes a synthetic scenario file, attack runs
the objective/constraint grid over a scenario file and writes per-row
metrics, report aggregates metric rows into a summary table.  Every run
writes a manifest (flags, seeds, version) next to its outputs; outputs
contain no timestamps, so fixed seeds give bitwise identical files.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .attack import AttackConfig, dataset_accel_bounds, run_attack
from .barriers import BarrierConfig
from .core import ConfigError, DataError, Trajectory
from .metrics import (COLUMNS, aggregate, compute_attack_row,
                      compute_baseline_row, read_rows_jsonl, write_rows_csv,
                      write_rows_jsonl)
from .predictor import KinematicPredictor, PredictorConfig
from .scenario_io import (PRESETS, generate_left_turn, ingest_scenarios,
                          sample_left_turn_params, write_scenarios)

PARALLEL_ENV = "TRAJATTACK_PARALLEL"

# Experiment grid: every objective against both observed-constraint forms,
# with and without the future-trajectory constraint; the false-negative
# collision attack runs with a free future only, since pinning the future
# to its reference would fight the attack itself.
GRID = tuple(
    (objective, obs, fut)
    for objective in ("ade", "fde", "collision_fp", "collision_fn")
    for obs in ("time", "time_traj")
    for fut in ("none", "traj")
    if not (objective == "collision_fn" and fut == "traj")
)


def _stable_seed(base, index):
    digest = hashlib.blake2b(f"{base}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _write_manifest(out_prefix, payload):
    path = f"{out_prefix}.manifest.json"
    payload = {"version": __version__, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_generate(args):
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    ranges = {}
    for key in ("v_target", "v_ego", "turn_radius", "gap_s"):
        pair = getattr(args, key)
        if pair is not None:
            ranges[key] = tuple(pair)
    scenarios = []
    seeds = {}
    for i in range(args.n):
        seed_i = _stable_seed(args.seed, i)
        params = sample_left_turn_params(
            np.random.default_rng(seed_i), preset=args.preset,
            H=args.horizon_past, T=args.horizon_future, dt=args.dt,
            ranges=ranges or None)
        scenario = dataclasses.replace(generate_left_turn(params, seed=seed_i),
                                       id=f"lt-{i:04d}")
        scenarios.append(scenario)
        seeds[scenario.id] = seed_i
    write_scenarios(args.out, scenarios)
    manifest = _write_manifest(args.out, {
        "command": "generate", "n": args.n, "seed": args.seed,
        "preset": args.preset, "ranges": {k: list(v) for k, v in ranges.items()},
        "dt": args.dt, "horizon_past": args.horizon_past,
        "horizon_future": args.horizon_future, "scenario_seeds": seeds,
        "out": args.out,
    })
    print(f"wrote {len(scenarios)} scenarios to {args.out} ({manifest})")
    return 0


def _attack_rows(scenario, grid, base, d_max):
    """All metric rows (baseline first) for one scenario; runs in workers."""
    predictor = KinematicPredictor(PredictorConfig(seed=base["seed"]))
    rows = []
    baseline = None
    for objective, obs, fut in grid:
        cfg = AttackConfig(objective=objective,
                           barrier=BarrierConfig(d_max=d_max, observed_mode=obs,
                                                 future_mode=fut),
                           **base)
        result = run_attack(scenario, cfg, predictor)
        if baseline is None:
            baseline = compute_baseline_row(scenario, result.pred_clean).to_dict()
        row = compute_attack_row(scenario, result, objective, obs, fut).to_dict()
        row.update(
            final_loss=result.diagnostics["final_loss"],
            iterations=result.iterations_run,
            halvings=result.halving_events,
            rejections=result.diagnostics["rejections"],
            max_accepted_distance=result.diagnostics["max_accepted_distance"],
            max_box_excess=result.diagnostics["max_box_excess"],
            empty_box_entries=result.diagnostics["empty_box_entries"],
        )
        rows.append(row)
    return [baseline] + rows if baseline is not None else rows


def _row_order(row):
    objectives = ("unperturbed", "ade", "fde", "collision_fp", "collision_fn")
    return (row["id"], objectives.index(row["objective"]),
            row["obs_constraint"], row["fut_constraint"])


_CFG_KEYS = ("alpha0", "gamma", "max_iterations", "rel_bound_a",
             "rel_bound_kappa", "abs_bound_kappa", "a_min", "a_max",
             "max_halvings", "seed")
_BARRIER_KEYS = ("d_max", "observed_mode", "future_mode")


def _load_attack_config(path):
    """Structured config file; keys mirror AttackConfig fields."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(_CFG_KEYS) - {"objective", "barrier"}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    barrier = data.get("barrier", {})
    if not isinstance(barrier, dict) or set(barrier) - set(_BARRIER_KEYS):
        raise ConfigError(f"{path}: barrier must be an object with keys "
                          f"{list(_BARRIER_KEYS)}")
    return data


def _norm_mode(mode):
    return mode.replace("-", "_") if mode is not None else None


def _pick(*values):
    for v in values:
        if v is not None:
            return v
    return None


def cmd_attack(args):
    if args.parallel < 1:
        raise ConfigError(f"--parallel (or ${PARALLEL_ENV}) must be at least 1, "
                          f"got {args.parallel}")
    scenarios = ingest_scenarios(args.scenarios)
    file_cfg = _load_attack_config(args.config) if args.config else {}
    barrier_cfg = file_cfg.get("barrier", {})

    amin = _pick(args.amin, file_cfg.get("a_min"))
    amax = _pick(args.amax, file_cfg.get("a_max"))
    if amin is None or amax is None:
        episodes = []
        for s in scenarios:
            for past, future in ((s.target_past, s.target_future),
                                 (s.ego_past, s.ego_future)):
                episodes.append(Trajectory(
                    np.vstack([past.points, future.points]), s.dt,
                    t0_index=past.t0_index))
        ds_lo, ds_hi = dataset_accel_bounds(episodes)
        a_lo = ds_lo if amin is None else amin
        a_hi = ds_hi if amax is None else amax
        bounds_source = "dataset"
    else:
        a_lo, a_hi = amin, amax
        bounds_source = "explicit"
    if a_lo >= a_hi:
        raise ConfigError(f"acceleration bounds collapsed: [{a_lo}, {a_hi}]")

    base = {
        "alpha0": _pick(args.alpha0, file_cfg.get("alpha0"), 0.01),
        "gamma": _pick(args.gamma, file_cfg.get("gamma"), 0.99),
        "max_iterations": _pick(args.iters, file_cfg.get("max_iterations"), 100),
        "rel_bound_a": file_cfg.get("rel_bound_a", 2.0),
        "rel_bound_kappa": file_cfg.get("rel_bound_kappa", 0.05),
        "abs_bound_kappa": file_cfg.get("abs_bound_kappa", 0.2),
        "max_halvings": file_cfg.get("max_halvings", 30),
        "seed": _pick(args.seed, file_cfg.get("seed"), 0),
        "a_min": a_lo, "a_max": a_hi,
    }
    d_max = _pick(args.dmax, barrier_cfg.get("d_max"), 0.9)

    objective = _pick(args.objective, file_cfg.get("objective"))
    if args.grid and objective is not None:
        raise ConfigError("--grid conflicts with a single-objective selection")
    if args.grid or objective is None:
        grid = GRID
    else:
        grid = ((objective,
                 _norm_mode(_pick(args.observed,
                                  barrier_cfg.get("observed_mode"), "time")),
                 _pick(args.future, barrier_cfg.get("future_mode"), "none")),)

    jobs = [(s, grid, base, d_max) for s in scenarios]
    if args.parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.parallel) as pool:
            per_scenario = list(pool.map(_attack_rows_job, jobs))
    else:
        per_scenario = [_attack_rows_job(job) for job in jobs]
    rows = sorted((row for rows in per_scenario for row in rows), key=_row_order)

    jsonl_path = f"{args.out}.jsonl"
    csv_path = f"{args.out}.csv"
    write_rows_jsonl(jsonl_path, rows)
    write_rows_csv(csv_path, rows)
    manifest = _write_manifest(args.out, {
        "command": "attack", "scenarios": args.scenarios,
        "config_file": args.config,
        "grid": [list(g) for g in grid], "attack_config": base,
        "d_max": d_max, "accel_bounds_source": bounds_source,
        "parallel": args.parallel, "n_scenarios": len(scenarios),
        "outputs": [jsonl_path, csv_path],
    })
    print(f"wrote {len(rows)} rows to {jsonl_path} and {csv_path} ({manifest})")
    return 0


def _attack_rows_job(job):
    return _attack_rows(*job)


def _format_table(dicts):
    cells = [[str(k) for k in COLUMNS]]
    for d in dicts:
        cells.append(["-" if d[k] is None
                      else (f"{d[k]:.3f}" if isinstance(d[k], float) else str(d[k]))
                      for k in COLUMNS])
    widths = [max(len(row[i]) for row in cells) for i in range(len(COLUMNS))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths))
                     for row in cells)


def cmd_report(args):
    rows, _ = read_rows_jsonl(args.results)
    groups = {}
    for row in rows:
        groups.setdefault((row.objective, row.obs_constraint, row.fut_constraint),
                          []).append(row)
    order = [("unperturbed", "-", "-")] + [g for g in GRID]
    keys = [k for k in order if k in groups]
    keys += sorted(k for k in groups if k not in order)
    out_rows = []
    for key in keys:
        agg = aggregate(groups[key])
        label = "unperturbed" if key[0] == "unperturbed" else "/".join(key)
        out_rows.append(dataclasses.replace(agg, id=label).to_dict())
    jsonl_path = f"{args.out}.jsonl"
    csv_path = f"{args.out}.csv"
    write_rows_jsonl(jsonl_path, out_rows)
    write_rows_csv(csv_path, out_rows)
    manifest = _write_manifest(args.out, {
        "command": "report", "results": args.results,
        "groups": ["/".join(k) for k in keys], "n_rows": len(rows),
        "outputs": [jsonl_path, csv_path],
    })
    print(_format_table(out_rows))
    print(f"wrote {len(out_rows)} aggregate rows to {jsonl_path} and {csv_path} "
          f"({manifest})")
    return 0


def _range_flag(parser, name, help_text):
    parser.add_argument(name, nargs=2, type=float, metavar=("LO", "HI"),
                        default=None, help=help_text)


def _parallel_default():
    raw = os.environ.get(PARALLEL_ENV, "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"${PARALLEL_ENV} must be an integer, got {raw!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trajattack",
        description="Adversarial control-space attacks on trajectory prediction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic left-turn scenario file")
    gen.add_argument("--n", type=int, required=True, help="number of scenarios")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path (.jsonl or .csv)")
    gen.add_argument("--dt", type=float, default=0.1)
    gen.add_argument("--horizon-past", type=int, default=12, dest="horizon_past")
    gen.add_argument("--horizon-future", type=int, default=None, dest="horizon_future",
                     help="future steps (default: preset value)")
    gen.add_argument("--preset", choices=sorted(PRESETS), default="default")
    _range_flag(gen, "--v-target", "target speed range (m/s)")
    _range_flag(gen, "--v-ego", "ego speed range (m/s)")
    _range_flag(gen, "--turn-radius", "turn radius range (m)")
    _range_flag(gen, "--gap-s", "crossing gap range (s)")
    gen.set_defaults(func=cmd_generate)

    att = sub.add_parser("attack", help="run the attack grid over a scenario file")
    att.add_argument("--scenarios", required=True)
    att.add_argument("--out", required=True, help="output prefix")
    att.add_argument("--grid", action="store_true",
                     help="run the full objective/constraint grid (the default)")
    att.add_argument("--objective", choices=("ade", "fde", "collision_fp",
                                             "collision_fn"), default=None,
                     help="single objective instead of the full grid")
    att.add_argument("--observed", choices=("time", "time-traj", "time_traj"),
                     default=None, help="observed constraint for --objective runs")
    att.add_argument("--future", choices=("none", "traj"), default=None,
                     help="future constraint for --objective runs")
    att.add_argument("--config", default=None,
                     help="JSON config file with AttackConfig fields")
    att.add_argument("--alpha0", type=float, default=None)
    att.add_argument("--gamma", type=float, default=None)
    att.add_argument("--iters", type=int, default=None)
    att.add_argument("--dmax", type=float, default=None)
    att.add_argument("--amin", type=float, default=None,
                     help="override dataset-derived lower acceleration bound")
    att.add_argument("--amax", type=float, default=None,
                     help="override dataset-derived upper acceleration bound")
    att.add_argument("--seed", type=int, default=None, help="predictor noise seed")
    att.add_argument("--parallel", type=int,
                     default=_parallel_default(),
                     help=f"worker processes (default ${PARALLEL_ENV} or 1)")
    att.set_defaults(func=cmd_attack)

    rep = sub.add_parser("report", help="aggregate metric rows into a summary table")
    rep.add_argument("--results", required=True, help="attack output .jsonl")
    rep.add_argument("--out", required=True, help="output prefix")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
