"""Report metrics: hand values, invariances, row aggregation, round trips."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import make_trajectory
from trajattack.attack import AttackConfig, AttackResult
from trajattack.core import ControlSequence, DataError, PredictionSet, Scenario
from trajattack.dynamics import extract_controls
from trajattack.metrics import (COLUMNS, DIAGNOSTICS, aggregate, collision_rate,
                                compute_attack_row, compute_baseline_row, metric_ade,
                                metric_fde, read_rows_jsonl, write_rows_csv,
                                write_rows_jsonl)
from trajattack.objectives import ade_grad, fde_grad

LEN, WID = 4.2, 1.7


def row(**overrides):
    base = dict(id="s0", objective="ade", obs_constraint="time",
                fut_constraint="none", ADE=1.0, FDE=2.0, CR_pred=0.0,
                CR_FNC=None, D_max=0.5, D_mean=0.1, a_mag=0.3, k_mag=0.01)
    base.update(overrides)
    return base


def stub_scenario(past, future=None, ego=None):
    """Scenario with the given target past; the target goes on straight and
    the ego stands far away unless given."""
    past = np.asarray(past, dtype=float)
    if future is None:
        future = past[-1] + np.arange(1.0, 7.0)[:, None] * (past[-1] - past[-2])
    if ego is None:
        ego = np.full((len(past) + len(future), 2), 500.0)
    h = len(past)
    return Scenario(make_trajectory(ego[:h]), make_trajectory(ego[h:]),
                    make_trajectory(past), make_trajectory(future), id="s0")


class FixedPredictor:
    """Stand-in predictor whose prediction is the given PredictionSet."""

    def __init__(self, pred):
        self.pred = pred

    def predict(self, past_target, *, horizon):
        return self.pred


def stub_result(scenario, predictor, **parts):
    """AttackResult of the identity perturbation with the given parts replaced."""
    result = AttackResult(
        x_pert=scenario.target_past, y_pert=scenario.target_future,
        u_pert=extract_controls(scenario.target_past)[1], v_pert=None,
        predictor=predictor, past_clean=scenario.target_past, loss_trace=(),
        halving_events=3, iterations_run=5,
        diagnostics={"final_loss": -1.5, "rejections": 1, "max_accepted_distance": 0.25,
                     "max_box_excess": 0.0, "empty_box_entries": 2})
    return dataclasses.replace(result, **parts)


class TestDisplacementMetrics:
    def test_uniform_offset(self):
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        pred = PredictionSet((ref + [0.0, 1.0])[None, :, :], 0.1)
        y = make_trajectory(ref)
        assert metric_ade(pred, y) == 1.0
        assert metric_fde(pred, y) == 1.0

    def test_matches_negated_losses(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(7, 2))
        pred = PredictionSet(rng.normal(size=(4, 7, 2)), 0.1)
        y = make_trajectory(ref)
        xs, ys = pred.samples[:, :, 0].T, pred.samples[:, :, 1].T
        assert abs(metric_ade(pred, y) + ade_grad(xs, ys, ref)[0]) < 1e-12
        assert abs(metric_fde(pred, y) + fde_grad(xs, ys, ref)[0]) < 1e-12

    def test_horizon_mismatch(self):
        pred = PredictionSet(np.zeros((1, 3, 2)), 0.1)
        with pytest.raises(DataError):
            metric_ade(pred, make_trajectory(np.zeros((4, 2))))

    def test_dmax_dmean_single_moved_point(self, predictor):
        clean = np.column_stack([np.arange(12.0), np.zeros(12)])
        moved = clean.copy()
        moved[5, 1] += 0.6
        scenario = stub_scenario(clean)
        r = compute_attack_row(scenario, stub_result(scenario, predictor,
                                                     x_pert=make_trajectory(moved)),
                               AttackConfig())
        assert r["D_max"] == 0.6
        assert math.isclose(r["D_mean"], 0.05, abs_tol=1e-12)


class TestControlMetrics:
    def test_mean_absolute_values(self, predictor):
        seq = ControlSequence(np.array([[2.0, 0.01], [-2.0, -0.03]]), 0.1)
        scenario = stub_scenario(np.column_stack([np.arange(12.0), np.zeros(12)]))
        r = compute_attack_row(scenario, stub_result(scenario, predictor, u_pert=seq),
                               AttackConfig())
        assert r["a_mag"] == 2.0
        assert math.isclose(r["k_mag"], 0.02, abs_tol=1e-15)


class TestCollisionRates:
    def test_quarter_of_samples_collide(self):
        ego = np.array([(0.0, 0.0), (1.0, 0.0)])
        samples = np.empty((100, 2, 2))
        samples[:25] = [[0.2, 0.0], [1.2, 0.0]]      # on top of the ego
        samples[25:] = [[200.0, 200.0], [201.0, 200.0]]
        cr = collision_rate(samples, ego, LEN, WID,
                            target_prev=(-1.0, 0.0), ego_prev=(-1.0, 0.0))
        assert cr == 0.25

    def test_clearance_gives_zero(self):
        ego = np.array([(0.0, 0.0), (1.0, 0.0)])
        samples = np.broadcast_to(np.array([[0.0, 50.0], [1.0, 50.0]]),
                                  (10, 2, 2)).copy()
        assert collision_rate(samples, ego, LEN, WID) == 0.0

    def test_fnc_detects_matched_time_crossing(self):
        # Both reach the intersection of their paths at the same index; the
        # perturbed future is a stack of one sample.
        ego = np.array([(-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        tgt = np.array([(0.0, -2.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0)])
        assert collision_rate(tgt[None], ego, LEN, WID) == 1.0

    def test_fnc_zero_when_passage_times_differ(self):
        # Same crossing point, reached 40 steps apart.
        n = 80
        xs = np.linspace(-40.0, 39.0, n)
        ego = np.column_stack([xs, np.zeros(n)])
        tgt = np.column_stack([np.zeros(n), xs - 40.0])
        assert collision_rate(tgt[None], ego, LEN, WID) == 0.0

    def test_fnc_horizon_mismatch(self):
        ego = np.array([(0.0, 0.0), (1.0, 0.0)])
        tgt = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        with pytest.raises(DataError):
            collision_rate(tgt[None], ego, LEN, WID)


class TestRigidInvariance:
    def test_all_position_metrics(self):
        """Moving the whole scene rigidly leaves every metric of a row as it is."""
        rng = np.random.default_rng(14)
        target = rng.normal(scale=5.0, size=(18, 2))
        ego = rng.normal(scale=5.0, size=(18, 2))
        x_pert = rng.normal(scale=5.0, size=(12, 2))
        y_pert = rng.normal(scale=5.0, size=(6, 2))
        samples = rng.normal(scale=5.0, size=(3, 6, 2))

        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        shift = np.array([40.0, -3.0])

        def move(pts):
            return pts @ rot.T + shift

        cfg = AttackConfig(objective="collision_fn")
        rows = []
        for f in (lambda pts: pts, move):
            scenario = stub_scenario(f(target[:12]), f(target[12:]), f(ego))
            result = stub_result(scenario, FixedPredictor(PredictionSet(f(samples), 0.1)),
                                 x_pert=make_trajectory(f(x_pert)),
                                 y_pert=make_trajectory(f(y_pert)))
            rows.append(compute_attack_row(scenario, result, cfg))
        row_a, row_m = rows
        for key in ("ADE", "FDE", "D_max", "D_mean"):
            assert abs(row_a[key] - row_m[key]) < 1e-9
        assert row_a["CR_pred"] == row_m["CR_pred"]
        assert row_a["CR_FNC"] == row_m["CR_FNC"]


class TestBaselineRow:
    def test_identity_has_zero_displacement(self, left_turn, predictor):
        pred = predictor.predict(left_turn.target_past,
                                 horizon=left_turn.horizon_future)
        base = compute_baseline_row(left_turn, pred)
        assert base["objective"] == "unperturbed"
        assert base["D_max"] == 0.0
        assert base["D_mean"] == 0.0
        assert base["CR_FNC"] is None
        assert base["ADE"] > 0.0
        assert tuple(base) == COLUMNS


class TestAttackRow:
    def test_metrics_then_diagnostics(self, left_turn, predictor):
        r = compute_attack_row(left_turn, stub_result(left_turn, predictor),
                               AttackConfig(objective="collision_fn"))
        assert tuple(r) == COLUMNS + DIAGNOSTICS
        assert (r["objective"], r["obs_constraint"], r["fut_constraint"]) == \
            ("collision_fn", "time", "none")
        assert r["CR_FNC"] in (0.0, 1.0)
        assert (r["final_loss"], r["iterations"], r["halvings"], r["empty_box_entries"]) == \
            (-1.5, 5, 3, 2)

    def test_cr_fnc_only_for_the_collision_fn_objective(self, left_turn, predictor):
        r = compute_attack_row(left_turn, stub_result(left_turn, predictor), AttackConfig())
        assert r["CR_FNC"] is None


class TestAggregate:
    def test_single_row_is_itself(self):
        r = row()
        agg = aggregate([r])
        assert agg == {**r, "id": "mean"}

    def test_numeric_mean(self):
        agg = aggregate([row(D_max=0.0), row(D_max=2.0)])
        assert agg["D_max"] == 1.0

    def test_cr_fnc_ignores_missing(self):
        agg = aggregate([row(CR_FNC=None), row(CR_FNC=1.0), row(CR_FNC=0.0)])
        assert agg["CR_FNC"] == 0.5

    def test_all_missing_stays_missing(self):
        agg = aggregate([row(), row()])
        assert agg["CR_FNC"] is None

    def test_mixed_labels_dash(self):
        agg = aggregate([row(objective="ade"), row(objective="fde")])
        assert agg["objective"] == "-"
        assert agg["obs_constraint"] == "time"

    def test_diagnostics_are_not_aggregated(self):
        agg = aggregate([row(final_loss=-1.0), row(final_loss=-3.0)])
        assert tuple(agg) == COLUMNS

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate([])


class TestRoundTrip:
    def test_jsonl_bitwise(self, tmp_path):
        rows = [row(ADE=math.pi, D_max=1.0 / 3.0),
                row(id="s1", objective="collision_fn", CR_FNC=1.0)]
        path = tmp_path / "rows.jsonl"
        write_rows_jsonl(path, rows)
        back = read_rows_jsonl(path)
        assert back == rows
        assert [tuple(d) for d in back] == [COLUMNS, COLUMNS]

    def test_jsonl_preserves_extras(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        d = row()
        d["final_loss"] = -1.25
        write_rows_jsonl(path, [d])
        back = read_rows_jsonl(path)
        assert back == [d]
        assert back[0]["final_loss"] == -1.25
        assert back[0]["ADE"] == 1.0

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "rows.csv"
        d = row()
        d["iterations"] = 100
        write_rows_csv(path, [d])
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:4] == list(COLUMNS[:4])
        assert lines[0].split(",")[-1] == "iterations"
        cells = lines[1].split(",")
        assert cells[COLUMNS.index("CR_FNC")] == "-"
        assert cells[-1] == "100"

    def test_csv_header_from_every_row(self, tmp_path, left_turn, predictor):
        """A baseline row first still gives the attack rows' diagnostics columns."""
        base = compute_baseline_row(left_turn, predictor.predict(
            left_turn.target_past, horizon=left_turn.horizon_future))
        attacked = compute_attack_row(left_turn, stub_result(left_turn, predictor),
                                      AttackConfig())
        path = tmp_path / "rows.csv"
        write_rows_csv(path, [base, attacked])
        header, base_cells, attack_cells = [line.split(",") for line in
                                            path.read_text().strip().splitlines()]
        assert header == list(COLUMNS + DIAGNOSTICS)
        assert base_cells[len(COLUMNS):] == ["-"] * len(DIAGNOSTICS)
        assert attack_cells[len(COLUMNS):] == ["-1.5", "5", "3", "1", "0.25", "0.0", "2"]

    def test_csv_float_cells_reparse_exactly(self, tmp_path):
        path = tmp_path / "rows.csv"
        d = row(ADE=math.pi, D_mean=2.0 / 3.0)
        write_rows_csv(path, [d])
        cells = path.read_text().strip().splitlines()[1].split(",")
        assert float(cells[COLUMNS.index("ADE")]) == math.pi
        assert float(cells[COLUMNS.index("D_mean")]) == 2.0 / 3.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_rows_jsonl(tmp_path / "absent.jsonl")

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "s0"}\n')
        with pytest.raises(DataError):
            read_rows_jsonl(path)

    @pytest.mark.parametrize("bad", [
        {"ADE": "x"}, {"ADE": None}, {"FDE": float("nan")}, {"CR_pred": True},
        {"objective": 5}, {"k_mag": [0.1]},
    ], ids=["string", "null", "nan", "bool", "label-not-string", "list"])
    def test_bad_cell_names_its_line(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        # by hand: write_rows_jsonl refuses the NaN
        path.write_text("".join(json.dumps(d) + "\n" for d in [row(), row(**bad)]))
        with pytest.raises(DataError, match=re.escape(f"{path}:2: bad report row")):
            read_rows_jsonl(path)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_writer_refuses_non_finite(self, tmp_path, value):
        path = tmp_path / "rows.jsonl"
        with pytest.raises(DataError, match="'s1': D_mean is not a finite number"):
            write_rows_jsonl(path, [row(), row(id="s1", D_mean=value)])
        assert not path.exists()

    def test_missing_column_names_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        d = row()
        del d["k_mag"]
        write_rows_jsonl(path, [d])
        with pytest.raises(DataError, match=re.escape(f"{path}:1: ") + ".*k_mag"):
            read_rows_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            read_rows_jsonl(path)
