"""Benchmark of the trajattack attack pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 25 --trace 0

Workloads (see perfbench/README.md): grid, nearmiss-fn, single.  The
program is imported from the checkout's ``src`` directory, so nothing needs
installing; a directory without ``src/trajattack`` is an error (exit 2).

Each run starts SETUP_PROBES fresh interpreters that stop at the first PGD
iteration (set-up time), then one workload process that measures whole
rounds for --seconds and checks every attack's output.  The last line of
standard output is one JSON object: correct, attempted, failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Scratch files go to .perfbench-out/ in the checkout; the spans of the last
traced run of each workload stay there as trace-<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid", "nearmiss-fn", "single")
SETUP_PROBES = 3
DEADLINE_S = 170.0   # every run ends within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "attacks_per_s": "1/s",
              "attack_p50_s": "s", "attack_p90_s": "s", "peak_rss_mib": "MiB"}
SETUP_LAYERS = ("cli.import", "scenario_io.generate", "scenario_io.ingest",
                "attack.bounds")
LAYER_UNITS = {
    "gradtape.backward_s": "s/attack", "gradtape.grad_calls": "count/attack",
    "attack.loss_and_grad_s": "s/attack", "attack.eval_loss_self_s": "s/attack",
    "dynamics.rollout_s": "s/attack", "objectives.forward_s": "s/attack",
    "predictor.forward_s": "s/attack", "predictor.calls": "count/attack",
    "barriers.forward_s": "s/attack", "barriers.distances_s": "s/attack",
    "attack.feasibility_s": "s/attack", "attack.feasibility_calls": "count/attack",
    "attack.halvings": "count/attack", "attack.rejections": "count/attack",
    "attack.step_accept_ratio": "ratio", "attack.problem_init_s": "s/attack",
    "attack.iterations": "count/round", "metrics.rows_s": "s/round",
    "metrics.write_s": "s/round", "cli.report_s": "s/round",
    "trace.attacks": "count", "trace.overhead_pct": "%",
}


class ChildFailed(RuntimeError):
    pass


def _child(args, mode, out, env, deadline):
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--out", out]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process did not finish in time") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description="trajattack attack benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trajattack", "__init__.py")):
        print(f"no trajattack package under {src}; run from the root of a "
              "trajattack checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("TRAJATTACK_PARALLEL", None)   # the workloads run serially
    scratch = os.path.join(root, ".perfbench-out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        probes = [_child(args, "setup", os.path.join(scratch, f"setup{i}"), env, deadline)
                  for i in range(SETUP_PROBES)]
        run = _child(args, "run", os.path.join(scratch, "run"), env, deadline)
        if args.trace:
            os.replace(os.path.join(scratch, "run", "spans.jsonl"),
                       os.path.join(root, ".perfbench-out", f"trace-{args.workload}.jsonl"))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for message in run["failures"] + run["round_failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"rows_sha256 {run['rows_sha256']}")
    if args.trace:
        metrics = {}
        for layer in SETUP_LAYERS:
            values = [p["layers"].get(layer, 0.0) for p in probes]
            metrics[f"{layer}_s"] = _metric(statistics.median(values), "s")
        for name, unit in LAYER_UNITS.items():
            metrics[name] = _metric(run["layers"][name], unit)
        if run["absent"]:
            print(f"absent layers (reported as 0): {', '.join(run['absent'])}")
    else:
        values = dict(run, setup_s=statistics.median(p["setup_s"] for p in probes))
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        print(f"{len(run['rounds'])} rounds; latency percentiles over "
              f"{run['n_latencies']} distinct attacks")
    print(json.dumps({"correct": not run["round_failures"],
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
