"""Command-line experiment runner.

Three subcommands: generate writes a synthetic scenario file, attack runs
the objective/constraint grid over a scenario file and writes per-row
metrics, report aggregates metric rows into a summary table.  Every run
writes a manifest (flags, seeds, version) next to its outputs; outputs
contain no timestamps, so fixed seeds give bitwise identical files.

Every attack setting is a field of AttackConfig, BarrierConfig or
PredictorConfig, which define its name, default and valid range.  attack
resolves each config in three layers, later ones winning: the dataclass
defaults (with a_min/a_max from the scenario file's acceleration range),
the --config file, the flags.  The file holds AttackConfig fields, a
"barrier" object of BarrierConfig fields and "seed", the predictor seed.
The constraint modes (--observed, --future) pick one configuration, so
they need a single objective.

Exit codes: 0 success, 2 configuration error (any invalid or conflicting
setting), 3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import logging
import sys

import numpy as np

from . import __version__
from .attack import AttackConfig, dataset_accel_bounds, run_attack
from .barriers import FUTURE_MODES, OBSERVED_MODES, BarrierConfig
from .core import ConfigError, DataError, Trajectory
from .metrics import (COLUMNS, aggregate, compute_attack_row,
                      compute_baseline_row, read_rows_jsonl, write_rows_csv,
                      write_rows_jsonl)
from .objectives import OBJECTIVES
from .predictor import KinematicPredictor, PredictorConfig
from .scenario_io import (PRESETS, SWEEP_LIMITS, generate_left_turn, ingest_scenarios,
                          sample_left_turn_params, sweep_range, write_scenarios)

# Experiment grid: every objective against both observed-constraint forms,
# with and without the future-trajectory constraint; the false-negative
# collision attack runs with a free future only, since pinning the future
# to its reference would fight the attack itself.
GRID = tuple(
    (objective, obs, fut)
    for objective in OBJECTIVES
    for obs in OBSERVED_MODES
    for fut in FUTURE_MODES
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
    for key in SWEEP_LIMITS:
        pair = getattr(args, key)
        if pair is not None:
            try:
                ranges[key] = sweep_range(key, pair)
            except ConfigError as exc:
                raise ConfigError(f"--{key.replace('_', '-')}: {exc}") from None
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


def _attack_rows(scenario, configs, predictor_cfg):
    """All rows (baseline first) for one scenario; runs in workers."""
    predictor = KinematicPredictor(predictor_cfg)
    rows = []
    for cfg in configs:
        result = run_attack(scenario, cfg, predictor)
        if not rows:
            rows.append(compute_baseline_row(scenario, result.pred_clean))
        rows.append(compute_attack_row(scenario, result, cfg))
    return rows


def _row_order(row):
    objectives = ("unperturbed",) + OBJECTIVES
    return (row["id"], objectives.index(row["objective"]),
            row["obs_constraint"], row["fut_constraint"])


def _load_config(path):
    """The config file's (AttackConfig, BarrierConfig, PredictorConfig) settings."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    barrier = data.pop("barrier", {})
    if not isinstance(barrier, dict):
        raise ConfigError(f"{path}: barrier must be an object of BarrierConfig fields")
    predictor = {"seed": data.pop("seed")} if "seed" in data else {}
    return data, barrier, predictor


def _resolve(cfg, from_file, from_flags, path):
    """cfg with the file's settings and then the flags' applied, each layer
    validated by the dataclass."""
    unknown = set(from_file) - {f.name for f in dataclasses.fields(cfg)}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return dataclasses.replace(dataclasses.replace(cfg, **from_file), **from_flags)


def _given(**flags):
    return {name: value for name, value in flags.items() if value is not None}


def cmd_attack(args):
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")
    scenarios = ingest_scenarios(args.scenarios)
    file_attack, file_barrier, file_predictor = (
        _load_config(args.config) if args.config else ({}, {}, {}))
    flag_attack = _given(objective=args.objective, alpha0=args.alpha0, gamma=args.gamma,
                         max_iterations=args.iters, a_min=args.amin, a_max=args.amax)
    flag_barrier = _given(d_max=args.dmax, observed_mode=args.observed,
                          future_mode=args.future)

    base = AttackConfig(barrier=_resolve(BarrierConfig(), file_barrier, flag_barrier,
                                         args.config))
    given_bounds = {"a_min", "a_max"} & (set(file_attack) | set(flag_attack))
    if len(given_bounds) == 2:
        bounds_source = "explicit"
    else:
        episodes = [Trajectory(np.vstack([past.points, future.points]), s.dt,
                               t0_index=past.t0_index)
                    for s in scenarios
                    for past, future in ((s.target_past, s.target_future),
                                         (s.ego_past, s.ego_future))]
        a_min, a_max = dataset_accel_bounds(episodes)
        base = dataclasses.replace(base, a_min=a_min, a_max=a_max)
        bounds_source = "dataset"
    cfg = _resolve(base, file_attack, flag_attack, args.config)
    if cfg.a_min >= cfg.a_max:
        if not given_bounds:
            # a property of the data (every vehicle at constant speed), not a setting
            raise DataError(f"{args.scenarios}: the acceleration range recovered from the "
                            f"scenarios collapsed to [{cfg.a_min}, {cfg.a_max}]; "
                            "set it with --amin/--amax")
        raise ConfigError(f"acceleration bounds collapsed: [{cfg.a_min}, {cfg.a_max}]")
    predictor_cfg = _resolve(PredictorConfig(), file_predictor, _given(seed=args.seed),
                             args.config)

    if "objective" in file_attack or "objective" in flag_attack:
        if args.grid:
            raise ConfigError("--grid conflicts with a single-objective selection")
        configs = [cfg]
    else:
        modes = {"observed_mode", "future_mode"} & (set(file_barrier) | set(flag_barrier))
        if modes:
            raise ConfigError(f"{', '.join(sorted(modes))} picks one grid configuration "
                              "and needs a single objective (--objective)")
        configs = [dataclasses.replace(cfg, objective=objective, barrier=dataclasses.replace(
                       cfg.barrier, observed_mode=obs, future_mode=fut))
                   for objective, obs, fut in GRID]

    # a pool starts all its workers up front: no more than there are scenarios
    workers = min(args.parallel, len(scenarios))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_scenario = list(pool.map(_attack_rows, scenarios, itertools.repeat(configs),
                                         itertools.repeat(predictor_cfg)))
    else:
        per_scenario = [_attack_rows(s, configs, predictor_cfg) for s in scenarios]
    rows = sorted((row for rows in per_scenario for row in rows), key=_row_order)

    jsonl_path = f"{args.out}.jsonl"
    csv_path = f"{args.out}.csv"
    write_rows_jsonl(jsonl_path, rows)
    write_rows_csv(csv_path, rows)
    manifest = _write_manifest(args.out, {
        "command": "attack", "scenarios": args.scenarios,
        "config_file": args.config,
        "grid": [[c.objective, c.barrier.observed_mode, c.barrier.future_mode]
                 for c in configs],
        "attack_config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                          if f.name not in ("objective", "barrier")},
        "d_max": cfg.barrier.d_max, "predictor_seed": predictor_cfg.seed,
        "accel_bounds_source": bounds_source,
        "parallel": args.parallel, "n_scenarios": len(scenarios),
        "outputs": [jsonl_path, csv_path],
    })
    print(f"wrote {len(rows)} rows to {jsonl_path} and {csv_path} ({manifest})")
    return 0


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
    rows = read_rows_jsonl(args.results)
    groups = {}
    for row in rows:
        groups.setdefault((row["objective"], row["obs_constraint"], row["fut_constraint"]),
                          []).append(row)
    order = [("unperturbed", "-", "-"), *GRID]
    keys = [k for k in order if k in groups]
    keys += sorted(k for k in groups if k not in order)
    out_rows = [{**aggregate(groups[key]),
                 "id": "unperturbed" if key[0] == "unperturbed" else "/".join(key)}
                for key in keys]
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
    _range_flag(gen, "--v-target", "target speed range (m/s), within [0, 60]")
    _range_flag(gen, "--v-ego", "ego speed range (m/s), within [0, 60]")
    _range_flag(gen, "--turn-radius", "turn radius range (m), within [0, 1000]")
    _range_flag(gen, "--gap-s", "crossing gap range (s), within [-60, 60]")
    gen.set_defaults(func=cmd_generate)

    att = sub.add_parser("attack", help="run the attack grid over a scenario file")
    att.add_argument("--scenarios", required=True)
    att.add_argument("--out", required=True, help="output prefix")
    att.add_argument("--grid", action="store_true",
                     help="run the full objective/constraint grid (the default)")
    att.add_argument("--objective", choices=OBJECTIVES, default=None,
                     help="single objective instead of the full grid")
    att.add_argument("--observed", choices=OBSERVED_MODES, default=None,
                     help="observed constraint for --objective runs")
    att.add_argument("--future", choices=FUTURE_MODES, default=None,
                     help="future constraint for --objective runs")
    att.add_argument("--config", default=None,
                     help="JSON file: AttackConfig fields, a 'barrier' object of "
                          "BarrierConfig fields and the predictor 'seed'")
    att.add_argument("--alpha0", type=float, default=None)
    att.add_argument("--gamma", type=float, default=None)
    att.add_argument("--iters", type=int, default=None)
    att.add_argument("--dmax", type=float, default=None)
    att.add_argument("--amin", type=float, default=None,
                     help="override dataset-derived lower acceleration bound")
    att.add_argument("--amax", type=float, default=None,
                     help="override dataset-derived upper acceleration bound")
    att.add_argument("--seed", type=int, default=None, help="predictor noise seed")
    att.add_argument("--parallel", type=int, default=1,
                     help="worker processes, at most one per scenario")
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
