"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist.  The
canonical 100-scenario attack grid (criteria 4 and 6) and the collision
suite (criterion 7) dominate the runtime; both are session fixtures so the
rows are computed once and shared.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (box_overlap_oracle, central_difference_error,
                     segment_distance_bruteforce)
from tape_reference import finite_diff_check, reference_loss
from trajattack.attack import AttackConfig, AttackProblem
from trajattack.barriers import BarrierConfig, BarrierSide, constraint_distances
from trajattack.cli import main
from trajattack.core import AgentState, ControlSequence, Trajectory, box_overlap_mask
from trajattack.dynamics import extract_controls, rollout
from trajattack.metrics import collision_rate
from trajattack.predictor import KinematicPredictor, PredictorConfig
from trajattack.scenario_io import (generate_left_turn, ingest_scenarios,
                                    sample_left_turn_params)

SEED = 20260825


def _report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\nCRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def grid_rows(workdir):
    """Rows of the canonical run: 100 scenarios x the full config grid."""
    scenes = workdir / "scenes.jsonl"
    prefix = workdir / "grid"
    assert main(["generate", "--n", "100", "--seed", "0", "--out", str(scenes)]) == 0
    assert main(["attack", "--scenarios", str(scenes), "--out", str(prefix),
                 "--grid"]) == 0
    with open(f"{prefix}.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 1500  # 100 baselines + 100 x 14 attack configs
    return rows


def test_criterion_1_dynamics_roundtrip():
    rng = np.random.default_rng(SEED)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 41))
        s0 = AgentState(x=float(rng.uniform(-50.0, 50.0)),
                        y=float(rng.uniform(-50.0, 50.0)),
                        theta=float(rng.uniform(-math.pi, math.pi)),
                        v=float(rng.uniform(-12.0, 12.0)))
        seq = ControlSequence(np.column_stack([rng.uniform(-2.0, 2.0, n),
                                               rng.uniform(-0.2, 0.2, n)]), 0.1)
        traj = rollout(s0, seq)
        s_hat, seq_hat = extract_controls(traj)
        rebuilt = rollout(s_hat, seq_hat)
        err = float(np.hypot(*(traj.points - rebuilt.points).T).max())
        worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 5.0
    _report(1, "dynamics roundtrip", ok,
            f"worst position error {worst:.2e} m over 1000 rolls, {elapsed:.2f}s")


def test_criterion_2_reversal_handling():
    fixture = Trajectory(np.array([[0.0, 0.0], [0.1, 0.0], [0.05, 0.0]]), 0.1)
    _, seq = extract_controls(fixture)
    fixture_ok = (np.allclose(seq.a, [0.0, -15.0], atol=1e-9)
                  and np.allclose(seq.kappa, [0.0, 0.0], atol=1e-9))
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        v0 = float(rng.uniform(0.5, 2.5))
        accels = rng.uniform(-5.0, -2.0, 20)
        kappas = rng.uniform(-0.2, 0.2, 20)
        assert v0 + accels.sum() * 0.1 < 0.0  # the roll really reverses
        s0 = AgentState(x=float(rng.uniform(-20.0, 20.0)),
                        y=float(rng.uniform(-20.0, 20.0)),
                        theta=float(rng.uniform(-math.pi, math.pi)), v=v0)
        traj = rollout(s0, ControlSequence(np.column_stack([accels, kappas]), 0.1))
        _, extracted = extract_controls(traj)
        worst = max(worst, float(np.abs(extracted.kappa).max()))
    ok = fixture_ok and worst <= 0.2 + 1e-9
    _report(2, "reversal handling", ok,
            f"fixture controls {'exact' if fixture_ok else 'WRONG'}, "
            f"max |curvature| over 100 reversals {worst:.6f}")


OBJECTIVES = ("ade", "fde", "collision_fp", "collision_fn")
BARRIER_FORMS = (("time", "none"), ("time_traj", "none"), ("time", "traj"))


def _segment_gap(points, ref):
    """Margin between best and second-best segment for each probe point."""
    if len(ref) < 3:
        return math.inf
    _, (_, _, table) = BarrierSide("traj", ref).measure(points[:, 0], points[:, 1])
    d = np.sort(table, axis=1)
    return float((d[:, 1] - d[:, 0]).min())


def _min_positive(values):
    pos = values[values > 0.0]
    return math.inf if pos.size == 0 else float(pos.min())


def _probe_is_smooth(problem, delta, gap_tol=5e-4, apex_tol=1e-3):
    """Reject probes near selection ties or distance-cone apexes.

    The loss is piecewise smooth; finite differences only agree with the
    tape where the active min selection is locally constant and no norm
    argument sits near its apex.  Points bitwise equal to their reference
    are fine: the symmetric difference stays at zero on both sides, which
    matches the zero-subgradient convention.
    """
    past, fut = problem.positions(delta)
    x_ref = np.asarray(problem.x_ref)
    y_ref = np.asarray(problem.y_ref)
    gaps, apexes = [], []
    apexes.append(_min_positive(np.hypot(past[:, 0] - x_ref[:, 0],
                                         past[:, 1] - x_ref[:, 1])))
    apexes.append(_min_positive(np.hypot(fut[:, 0] - y_ref[:, 0],
                                         fut[:, 1] - y_ref[:, 1])))
    if problem.cfg.barrier.observed_mode == "time_traj":
        gaps.append(_segment_gap(past, x_ref))
    if problem.cfg.barrier.future_mode == "traj":
        gaps.append(_segment_gap(fut, y_ref))
    (xs, ys), _ = problem.predictor.predict_vjp(past, problem.dt, problem.horizon_future)
    samples = np.stack([xs, ys], axis=2)  # (T, K, 2)
    name = problem.cfg.objective
    if name in ("ade", "fde"):
        ref = np.asarray(problem.y_ref_pts)
        apexes.append(_min_positive(np.hypot(samples[:, :, 0] - ref[:, None, 0],
                                             samples[:, :, 1] - ref[:, None, 1])))
    elif name == "collision_fp":
        ego = np.asarray(problem.ego_pts)
        d = np.hypot(samples[:, :, 0] - ego[:, None, 0],
                     samples[:, :, 1] - ego[:, None, 1])  # (T, K)
        apexes.append(_min_positive(d))
        closest = np.sort(d, axis=0)  # per-sample time ranking
        gaps.append(float((closest[1] - closest[0]).min()))
    elif name == "collision_fn":
        ego = np.asarray(problem.ego_pts)
        d = np.sort(np.hypot(fut[:, 0] - ego[:, 0], fut[:, 1] - ego[:, 1]))
        apexes.append(float(d[0]))
        gaps.append(float(d[1] - d[0]))
        mean_pred = samples.mean(axis=1)
        clean = np.asarray(problem.clean_mean)
        apexes.append(_min_positive(np.hypot(mean_pred[:, 0] - clean[:, 0],
                                             mean_pred[:, 1] - clean[:, 1])))
    return all(g > gap_tol for g in gaps) and all(a > apex_tol for a in apexes)


def _draw_smooth_probe(rng, problem, attempts=20):
    """Constant-sign control perturbation passing the smoothness filter.

    A shared sign per scenario keeps displacements from cancelling along
    the roll, so no trajectory point drifts back onto its reference.
    """
    for _ in range(attempts):
        sign_a = float(rng.choice([-1.0, 1.0]))
        sign_k = float(rng.choice([-1.0, 1.0]))
        delta = np.stack([sign_a * rng.uniform(0.05, 0.2, problem.n_controls),
                          sign_k * rng.uniform(0.00125, 0.005, problem.n_controls)],
                         axis=1)
        delta = np.clip(delta, problem.lo, problem.hi)
        feasible, worst, _ = problem.feasibility(delta)
        if not feasible or worst >= 0.85 * problem.cfg.barrier.d_max:
            continue
        if _probe_is_smooth(problem, delta):
            return delta
    return None


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(SEED)
    start = time.time()
    worst = {}
    worst_adjoint = 0.0
    done = 0
    while done < 100:
        params = sample_left_turn_params(rng, preset="default")
        scenario = generate_left_turn(params, seed=int(rng.integers(2 ** 31)))
        objective = OBJECTIVES[done % 4]
        observed, future = BARRIER_FORMS[(done // 4) % 3]
        cfg = AttackConfig(objective=objective,
                           barrier=BarrierConfig(observed_mode=observed,
                                                 future_mode=future),
                           a_min=-4.0, a_max=4.0)
        problem = AttackProblem(scenario, cfg,
                                KinematicPredictor(PredictorConfig(seed=done)))
        delta = _draw_smooth_probe(rng, problem)
        if delta is None:
            continue
        def loss(flat):
            return reference_loss(problem, flat)

        err = finite_diff_check(loss, delta.ravel().tolist())
        key = (objective, observed, future)
        worst[key] = max(worst.get(key, 0.0), err)
        _, g = problem.loss_and_grad(delta)
        worst_adjoint = max(worst_adjoint, central_difference_error(
            g.ravel(), loss, delta.ravel().tolist()))
        done += 1
    elapsed = time.time() - start
    peak = max(worst.values())
    ok = (peak < 1e-4 and worst_adjoint < 1e-4 and elapsed < 60.0
          and len(worst) == 12)
    _report(3, "gradient correctness", ok,
            f"worst rel error {peak:.2e} (tape), {worst_adjoint:.2e} (adjoint) "
            f"over 100 scenarios covering {len(worst)} objective/barrier combos, "
            f"{elapsed:.1f}s")


def test_criterion_4_constraint_soundness(grid_rows):
    attacked = [r for r in grid_rows if r["objective"] != "unperturbed"]
    assert len(attacked) == 1400
    box_violations = sum(1 for r in attacked if r["max_box_excess"] != 0.0)
    worst = max(r["max_accepted_distance"] for r in attacked)
    ok = box_violations == 0 and worst < 0.9
    _report(4, "constraint soundness", ok,
            f"box violations {box_violations}/1400, "
            f"worst accepted distance {worst:.6f} m (bound 0.9)")


def test_criterion_5_default_hyperparameters():
    cfg = AttackConfig()
    checks = {
        "alpha0=0.01": cfg.alpha0 == 0.01,
        "gamma=0.99": cfg.gamma == 0.99,
        "iterations=100": cfg.max_iterations == 100,
        "d_max=0.9": cfg.barrier.d_max == 0.9,
        "rel accel bound=2.0": cfg.rel_bound_a == 2.0,
        "rel curvature bound=0.05": cfg.rel_bound_kappa == 0.05,
        "abs curvature bound=0.2": cfg.abs_bound_kappa == 0.2,
        "samples=100": PredictorConfig().n_samples == 100,
    }
    scenario = generate_left_turn(
        sample_left_turn_params(np.random.default_rng(0)), seed=0)
    checks["past horizon=12"] = len(scenario.target_past) == 12
    checks["future horizon=12"] = len(scenario.target_future) == 12
    checks["dt=0.1"] = scenario.dt == 0.1
    bad = [k for k, v in checks.items() if not v]
    _report(5, "default hyperparameters", not bad,
            "all defaults match" if not bad else f"mismatched: {bad}")


def test_criterion_6_directional_efficacy(grid_rows):
    base = {r["id"]: r for r in grid_rows if r["objective"] == "unperturbed"}
    rows = {}
    for r in grid_rows:
        if r["objective"] != "unperturbed":
            key = (r["objective"], r["obs_constraint"], r["fut_constraint"])
            rows.setdefault(key, {})[r["id"]] = r

    ade_rows = rows[("ade", "time", "none")]
    wins = sum(1 for sid, r in ade_rows.items() if r["ADE"] > base[sid]["ADE"])
    win_frac = wins / len(ade_rows)

    fde_agg = float(np.mean([r["FDE"] for (o, _, _), d in rows.items()
                             if o == "fde" for r in d.values()]))
    ade_agg = float(np.mean([r["FDE"] for (o, _, _), d in rows.items()
                             if o == "ade" for r in d.values()]))

    shrink_ok = True
    shrink = []
    for obj in ("ade", "fde"):
        for metric in ("D_max", "a_mag"):
            unconstrained = float(np.mean(
                [r[metric] for (o, _, f), d in rows.items()
                 if o == obj and f == "none" for r in d.values()]))
            constrained = float(np.mean(
                [r[metric] for (o, _, f), d in rows.items()
                 if o == obj and f == "traj" for r in d.values()]))
            shrink_ok = shrink_ok and constrained < unconstrained
            shrink.append(f"{obj}/{metric} {unconstrained:.3f}->{constrained:.3f}")

    ok = win_frac >= 0.9 and fde_agg >= ade_agg and shrink_ok
    _report(6, "directional efficacy", ok,
            f"(a) ADE raised on {wins}/{len(ade_rows)}; "
            f"(b) aggregate FDE {fde_agg:.3f} (final-step attack) vs "
            f"{ade_agg:.3f} (average attack); (c) {', '.join(shrink)}")


SLOW_STEPS = tuple(0.25 * i for i in range(1, 9))
BURST_FRACTIONS = (1.0, 0.75, 0.5)
CURVATURE_SHIFTS = (0.0, -0.01, -0.02, -0.03, 0.01, 0.02)


def _colliding_future_exists(scenario):
    """True if a braking/steering burst yields a real collision while every
    perturbed-future point stays < 0.9 m from the reference polyline and the
    perturbation respects the relative/absolute control box."""
    cfg = AttackConfig(objective="collision_fn", a_min=-100.0, a_max=100.0)
    problem = AttackProblem(scenario, cfg,
                            KinematicPredictor(PredictorConfig(n_samples=1)))
    n_past = len(scenario.target_past) - 1
    horizon = len(scenario.target_future)
    t_prev = scenario.target_past.points[-1]
    e_prev = scenario.ego_past.points[-1]
    for slow in SLOW_STEPS:
        for fraction in BURST_FRACTIONS:
            burst = max(1, int(round(fraction * horizon)))
            for shift in CURVATURE_SHIFTS:
                delta = np.zeros_like(problem.lo)
                delta[n_past:n_past + burst, 0] = -slow
                delta[n_past:, 1] = shift
                if np.any(delta < problem.lo) or np.any(delta > problem.hi):
                    continue
                _, future = problem.positions(delta)
                dists = constraint_distances(future, np.asarray(problem.y_ref),
                                             "traj")
                if max(dists) >= 0.9:
                    continue
                if collision_rate(future[None], scenario.ego_future.points,
                                  scenario.vehicle_length, scenario.vehicle_width,
                                  target_prev=t_prev, ego_prev=e_prev) == 1.0:
                    return True
    return False


@pytest.fixture(scope="session")
def collision_suite(workdir):
    scenes = workdir / "near.jsonl"
    prefix = workdir / "fnc"
    assert main(["generate", "--preset", "near-miss", "--n", "100", "--seed", "0",
                 "--out", str(scenes)]) == 0
    assert main(["attack", "--scenarios", str(scenes), "--objective",
                 "collision_fn", "--out", str(prefix)]) == 0
    scenarios = ingest_scenarios(str(scenes))
    with open(f"{prefix}.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    return scenarios, rows


def test_criterion_7_false_negative_attack(collision_suite):
    scenarios, rows = collision_suite
    clean_hits = sum(
        collision_rate(s.target_future.points[None], s.ego_future.points,
                       s.vehicle_length, s.vehicle_width,
                       target_prev=s.target_past.points[-1],
                       ego_prev=s.ego_past.points[-1]) == 1.0
        for s in scenarios)
    constructed = sum(_colliding_future_exists(s) for s in scenarios)
    attacked = [r for r in rows if r["objective"] == "collision_fn"]
    baseline = [r for r in rows if r["objective"] == "unperturbed"]
    attack_rate = float(np.mean([r["CR_FNC"] for r in attacked]))
    ade_ratio = float(np.mean([r["ADE"] for r in attacked])
                      / np.mean([r["ADE"] for r in baseline]))
    ok = (clean_hits == 0 and constructed == len(scenarios)
          and attack_rate >= 0.5 and ade_ratio <= 2.0)
    _report(7, "false-negative collision attack", ok,
            f"clean futures colliding {clean_hits}/100, colliding future exists "
            f"{constructed}/100, attack collision rate {attack_rate:.2f} "
            f"(floor 0.5), prediction drift x{ade_ratio:.2f} (cap 2.0)")


def test_criterion_8_determinism(workdir):
    def pipeline(tag, parallel):
        run = workdir / f"run_{tag}"
        run.mkdir()
        scenes = run / "scenes.jsonl"
        attack = run / "attack"
        report = run / "report"
        assert main(["generate", "--n", "6", "--seed", "123",
                     "--out", str(scenes)]) == 0
        cmd = ["attack", "--scenarios", str(scenes), "--out", str(attack),
               "--grid", "--iters", "15"]
        if parallel > 1:
            cmd += ["--parallel", str(parallel)]
        assert main(cmd) == 0
        assert main(["report", "--results", f"{attack}.jsonl",
                     "--out", str(report)]) == 0
        return {p.name: p.read_bytes() for p in sorted(run.iterdir())}

    first = pipeline("a", parallel=1)
    second = pipeline("b", parallel=1)
    third = pipeline("c", parallel=2)
    # manifests record the invocation (paths, parallelism), so determinism
    # is judged on the result files alone
    names = [n for n in first if not n.endswith(".manifest.json")]
    serial_ok = all(first[n] == second[n] for n in names)
    parallel_ok = all(first[n] == third[n] for n in names)
    ok = serial_ok and parallel_ok
    _report(8, "determinism", ok,
            f"serial rerun identical on {len(names)} result files: {serial_ok}; "
            f"parallel degree 2 identical: {parallel_ok}")


def test_criterion_9_geometry_oracles():
    rng = np.random.default_rng(SEED)
    n = 10_000
    a = rng.uniform(-10, 10, (n, 2))
    b = rng.uniform(-10, 10, (n, 2))
    c = rng.uniform(-10, 10, (n, 2))
    degenerate = rng.random(n) < 0.1
    c[degenerate] = b[degenerate]
    got = np.array([constraint_distances([p], [q, r], "traj")[0]
                    for p, q, r in zip(a, b, c)])
    ref = segment_distance_bruteforce(a, b, c)
    seg_worst = float(np.max(np.abs(got - ref)))

    hard = band = 0
    for _ in range(1_000):
        c1 = rng.uniform(-5.0, 5.0, 2)
        c2 = c1 + rng.uniform(-6.0, 6.0, 2)
        h1 = float(rng.uniform(-math.pi, math.pi))
        h2 = float(rng.uniform(-math.pi, math.pi))
        got_b = bool(box_overlap_mask(c1, h1, c2, h2, 4.2, 1.7))
        ref_b = box_overlap_oracle(tuple(c1), h1, tuple(c2), h2, 4.2, 1.7,
                                   grid_n=25)
        if got_b != ref_b:
            shrunk = box_overlap_oracle(tuple(c1), h1, tuple(c2), h2, 4.2, 1.7,
                                        grow=-5e-10, grid_n=25)
            grown = box_overlap_oracle(tuple(c1), h1, tuple(c2), h2, 4.2, 1.7,
                                       grow=5e-10, grid_n=25)
            if shrunk != grown:
                band += 1  # genuinely within the boundary tolerance band
            else:
                hard += 1
    ok = seg_worst < 1e-9 and hard == 0
    _report(9, "geometry oracles", ok,
            f"segment worst error {seg_worst:.2e} over {n}, "
            f"box disagreements {hard}/1000 ({band} boundary-band)")
