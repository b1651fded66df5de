"""One benchmark process: a set-up probe or a measured run of one workload.

perfbench/run.py starts this script from the root of a checkout, with
``src`` on PYTHONPATH:

    python3 perfbench/workload.py --workload grid --seed 0 --seconds 25 \
        --trace 0 --mode run --out DIR

--mode setup times a fresh interpreter from the start of ``import
trajattack`` through generating and ingesting the workload's scenarios and
deriving the acceleration bounds, and stops at the first PGD iteration.
--mode run repeats whole rounds of the workload until the next round would
end after --seconds, then checks every attack of every round against
perfbench/checks.py.  Both write result.json into DIR.

With --trace 1 the run alternates untraced and traced rounds, starting
untraced: the traced rounds give the per-layer figures and the ratio of
the two kinds of round gives the tracing overhead.  Untraced rounds time
each ``run_attack`` call with one clock read on either side and nothing
else.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import tracer as tracing

# The paper's grid: 4 objectives x observed {time, time_traj} x future
# {none, traj}, without the collision_fn runs that pin the future.
GRID = tuple((objective, obs, fut)
             for objective in ("ade", "fde", "collision_fp", "collision_fn")
             for obs in ("time", "time_traj")
             for fut in ("none", "traj")
             if not (objective == "collision_fn" and fut == "traj"))

# Scenarios per round.  grid: one scenario through all 14 configurations;
# nearmiss-fn: 8 scenarios of one configuration; single: 14 scenarios,
# attack k runs configuration k on scenario k.
SCENARIOS = {"grid": 1, "nearmiss-fn": 8, "single": len(GRID)}
ATTACKS_PER_SCENARIO = {"grid": len(GRID), "nearmiss-fn": 1, "single": 1}

# Where set-up ends: the first call of the first name the package has.
# run_attack is the fallback for a package without a per-iteration step.
FIRST_ITERATION = (("trajattack.attack", "pgd_iteration"),
                   ("trajattack.attack", "run_attack"))


class FirstIteration(BaseException):
    """Raised at the first PGD iteration of a set-up probe.

    A BaseException, so the CLI's exit-code handler lets it through.
    """


def _import_package(root, workload):
    start = perf_counter()
    if workload == "single":
        import trajattack.attack  # noqa: F401  (the README's library path)
        import trajattack.predictor  # noqa: F401
        import trajattack.scenario_io  # noqa: F401
    else:
        import trajattack.cli  # noqa: F401
    elapsed = perf_counter() - start
    import trajattack
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(trajattack.__file__).startswith(src):
        raise SystemExit(f"trajattack imported from {trajattack.__file__}, "
                         f"not from {src}")
    return start, elapsed


class Attacks:
    """Timed and captured run_attack calls, in call order."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls = []         # (round, start, end, scenario, cfg, predictor, result)
        self.round = 0

    def run(self, fn, scenario, cfg, predictor):
        tracer = self.tracer
        token = None
        if tracer.active:
            tracer.request = len(self.calls)
            token = tracer.begin(tracing.ATTACK)
        start = perf_counter()
        try:
            result = fn(scenario, cfg, predictor)
        finally:
            end = perf_counter()
            if token is not None:
                tracer.end(token)
                tracer.request = -1
        self.calls.append((self.round, start, end, scenario, cfg, predictor, result))
        return result

    def wrap(self, fn):
        def run_attack(scenario, cfg, predictor):
            return self.run(fn, scenario, cfg, predictor)
        return run_attack


# ---------------------------------------------------------------------------
# workloads


def _cli_args(workload, seed, out):
    scenes = os.path.join(out, "scenes.jsonl")
    attack = os.path.join(out, "attack")
    preset = "near-miss" if workload == "nearmiss-fn" else "default"
    generate = ["generate", "--n", str(SCENARIOS[workload]), "--seed", str(seed),
                "--preset", preset, "--out", scenes]
    if workload == "grid":
        choice = ["--grid"]
    else:
        choice = ["--objective", "collision_fn", "--observed", "time",
                  "--future", "none"]
    return (generate, ["attack", "--scenarios", scenes, "--out", attack, *choice],
            ["report", "--results", f"{attack}.jsonl",
             "--out", os.path.join(out, "report")])


def _cli_step(main, argv):
    code = main(argv)
    if code != 0:
        raise SystemExit(f"trajattack {argv[0]} exited with {code}")


class CliWorkload:
    """generate -> attack -> report through trajattack.cli.main."""

    def __init__(self, workload, seed, out, attacks):
        import trajattack.cli as cli
        self.cli = cli
        self.out = out
        self.argv = _cli_args(workload, seed, out)
        cli.run_attack = attacks.wrap(cli.run_attack)
        self.attacks = attacks

    def setup(self):
        """Nothing to prepare: every round generates and ingests its inputs."""

    def round(self):
        """Returns (round seconds, seconds from first attack to rows written)."""
        generate, attack, report = self.argv
        first = len(self.attacks.calls)
        start = perf_counter()
        _cli_step(self.cli.main, generate)
        _cli_step(self.cli.main, attack)
        rows_written = perf_counter()
        _cli_step(self.cli.main, report)
        end = perf_counter()
        return end - start, rows_written - self.attacks.calls[first][1]

    def outputs(self):
        with open(os.path.join(self.out, "attack.jsonl")) as fh:
            rows = fh.read()
        with open(os.path.join(self.out, "report.jsonl")) as fh:
            report = fh.read()
        return rows, report


class SingleWorkload:
    """The README's library path: one run_attack call per attack."""

    def __init__(self, workload, seed, out, attacks):
        self.seed = seed
        self.out = out
        self.attacks = attacks

    def setup(self):
        import numpy as np
        from trajattack.attack import AttackConfig, dataset_accel_bounds, run_attack
        from trajattack.barriers import BarrierConfig
        from trajattack.core import Trajectory
        from trajattack.predictor import KinematicPredictor, PredictorConfig
        from trajattack.scenario_io import (generate_left_turn, ingest_scenarios,
                                            sample_left_turn_params, write_scenarios)
        rng = np.random.default_rng(self.seed)
        path = os.path.join(self.out, "scenes.jsonl")
        write_scenarios(path, [
            generate_left_turn(sample_left_turn_params(rng), seed=self.seed * 1000 + i)
            for i in range(SCENARIOS["single"])])
        self.scenarios = ingest_scenarios(path)
        episodes = [Trajectory(np.vstack([past.points, future.points]), s.dt)
                    for s in self.scenarios
                    for past, future in ((s.target_past, s.target_future),
                                         (s.ego_past, s.ego_future))]
        a_min, a_max = dataset_accel_bounds(episodes)
        self.configs = [
            AttackConfig(objective=objective, a_min=a_min, a_max=a_max,
                         barrier=BarrierConfig(observed_mode=obs, future_mode=fut))
            for objective, obs, fut in GRID]
        self.predictor = KinematicPredictor(PredictorConfig())
        self.run_attack = run_attack

    def round(self):
        start = perf_counter()
        for scenario, cfg in zip(self.scenarios, self.configs):
            self.attacks.run(self.run_attack, scenario, cfg, self.predictor)
        end = perf_counter()
        return end - start, end - start

    def outputs(self):
        return None, None


def make_workload(workload, seed, out, attacks):
    cls = SingleWorkload if workload == "single" else CliWorkload
    return cls(workload, seed, out, attacks)


# ---------------------------------------------------------------------------
# modes


def setup_probe(args, root):
    start, import_s = _import_package(root, args.workload)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    stopped = []

    def stop(*_args, **_kwargs):
        stopped.append(perf_counter())
        raise FirstIteration

    for module_name, attr in FIRST_ITERATION:
        found = tracing.resolve(module_name, attr)
        if found is not None:
            tracing.rebind(found[2], stop)
            break
    work = make_workload(args.workload, args.seed, args.out, Attacks(tracer))
    try:
        work.setup()
        work.round()
    except FirstIteration:
        pass
    if not stopped:
        raise SystemExit("set-up probe never reached the first PGD iteration")
    layers = {name: incl for name, (incl, _, _) in tracer.totals().items()}
    layers["cli.import"] = import_s
    return {"setup_s": stopped[0] - start, "layers": layers}


def _attack_latencies(calls, round_ids):
    """Latency of each distinct attack of a round: its median over rounds.

    Rounds repeat identical inputs, so the k-th attack of every round is
    the same attack.  The median over repetitions keeps a burst of load
    from other processes, which slows a few consecutive calls by 20-40%,
    from moving the percentiles taken across attacks.
    """
    by_position = {}
    for rnd in round_ids:
        for k, call in enumerate(c for c in calls if c[0] == rnd):
            by_position.setdefault(k, []).append(call[2] - call[1])
    return [statistics.median(v) for v in by_position.values()]


def _layer_metrics(tracer, attacks, rounds):
    """Per-layer figures from the traced rounds; see BENCHMARK.json."""
    traced_rounds = [r for r in rounds if r["traced"]]
    traced = [c for c in attacks.calls
              if c[0] in {r["index"] for r in traced_rounds}]
    n_att = len(traced)
    n_rounds = len(traced_rounds)
    in_attack = tracer.totals(lambda req: req >= 0)
    in_round = tracer.totals()

    def per_attack(layer, field=0):
        return in_attack.get(layer, (0.0, 0, 0.0))[field] / n_att

    def per_round(layer):
        return in_round.get(layer, (0.0, 0, 0.0))[0] / n_rounds

    iterations = sum(c[6].iterations_run for c in traced)
    rejections = sum(c[6].diagnostics["rejections"] for c in traced)
    feas_calls = in_attack.get("attack.feasibility", (0.0, 0, 0.0))[1]
    plain = statistics.median(r["duration"] for r in rounds if not r["traced"])
    with_trace = statistics.median(r["duration"] for r in traced_rounds)
    return {
        "gradtape.backward_s": per_attack("gradtape.backward"),
        "gradtape.grad_calls": per_attack("gradtape.backward", 1),
        "attack.loss_and_grad_s": per_attack("attack.loss_and_grad"),
        "attack.eval_loss_self_s": per_attack("attack.eval_loss", 2),
        "dynamics.rollout_s": per_attack("dynamics.rollout"),
        "objectives.forward_s": per_attack("objectives.forward"),
        "predictor.forward_s": per_attack("predictor.forward"),
        "predictor.calls": per_attack("predictor.forward", 1),
        "barriers.forward_s": per_attack("barriers.forward"),
        "barriers.distances_s": per_attack("barriers.distances"),
        "attack.feasibility_s": per_attack("attack.feasibility"),
        "attack.feasibility_calls": per_attack("attack.feasibility", 1),
        "attack.halvings": sum(c[6].halving_events for c in traced) / n_att,
        "attack.rejections": rejections / n_att,
        "attack.step_accept_ratio": ((iterations - rejections) / feas_calls
                                     if feas_calls else 0.0),
        "attack.problem_init_s": per_attack("attack.problem_init"),
        "attack.iterations": iterations / n_rounds,
        "metrics.rows_s": per_round("metrics.rows"),
        "metrics.write_s": per_round("metrics.write"),
        "cli.report_s": per_round("cli.report"),
        "trace.attacks": float(n_att),
        "trace.overhead_pct": 100.0 * (with_trace / plain - 1.0),
    }


def measured_run(args, root):
    _import_package(root, args.workload)
    tracer = tracing.Tracer()
    attacks = Attacks(tracer)
    work = make_workload(args.workload, args.seed, args.out, attacks)
    work.setup()
    rounds = []
    outputs = []
    began = perf_counter()
    while True:
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        attacks.round = index
        if traced:
            tracer.install()
            token = tracer.begin(tracing.ROUND)
        duration, attack_span = work.round()
        if traced:
            tracer.end(token)
            tracer.uninstall()
        rounds.append({"index": index, "traced": traced, "duration": duration,
                       "attack_span": attack_span,
                       "attacks": sum(1 for c in attacks.calls if c[0] == index)})
        outputs.append(work.outputs())
        elapsed = perf_counter() - began
        if args.trace and len(rounds) < 2:
            continue
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import verify
    report = verify.verify(args.workload, attacks.calls, outputs,
                           SCENARIOS[args.workload], ATTACKS_PER_SCENARIO[args.workload])
    plain = [r for r in rounds if not r["traced"]]
    latencies = _attack_latencies(attacks.calls, [r["index"] for r in plain])
    result = {
        **report,
        "rounds": rounds,
        "run_s": statistics.median(r["duration"] for r in plain),
        "attacks_per_s": (sum(r["attacks"] for r in plain)
                          / sum(r["attack_span"] for r in plain)),
        "attack_p50_s": statistics.median(latencies),
        "attack_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "n_latencies": len(latencies),
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }
    if args.trace:
        result["layers"] = _layer_metrics(tracer, attacks, rounds)
        result["absent"] = tracer.absent_layers()
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SCENARIOS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    root = os.getcwd()
    result = (setup_probe if args.mode == "setup" else measured_run)(args, root)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
