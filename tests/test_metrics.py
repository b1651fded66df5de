"""Report metrics: hand values, invariances, row aggregation, round trips."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_trajectory
from trajattack.core import ControlSequence, DataError, PredictionSet
from trajattack.metrics import (COLUMNS, MetricRow, aggregate,
                                compute_baseline_row, metric_accel,
                                metric_ade, metric_cr_fnc, metric_cr_pred,
                                metric_curv, metric_dmax, metric_dmean,
                                metric_fde, read_rows_jsonl, write_rows_csv,
                                write_rows_jsonl)
from trajattack.objectives import ade_grad, fde_grad

LEN, WID = 4.2, 1.7


def row(**overrides):
    base = dict(id="s0", objective="ade", obs_constraint="time",
                fut_constraint="none", ADE=1.0, FDE=2.0, CR_pred=0.0,
                CR_FNC=None, D_max=0.5, D_mean=0.1, a_mag=0.3, k_mag=0.01)
    base.update(overrides)
    return MetricRow(**base)


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

    def test_dmax_dmean_single_moved_point(self):
        clean = np.column_stack([np.arange(12.0), np.zeros(12)])
        moved = clean.copy()
        moved[5, 1] += 0.6
        x_pert = make_trajectory(moved)
        x_tar = make_trajectory(clean)
        assert metric_dmax(x_pert, x_tar) == 0.6
        assert math.isclose(metric_dmean(x_pert, x_tar), 0.05, abs_tol=1e-12)


class TestControlMetrics:
    def test_mean_absolute_values(self):
        seq = ControlSequence(np.array([[2.0, 0.01], [-2.0, -0.03]]), 0.1)
        assert metric_accel(seq) == 2.0
        assert math.isclose(metric_curv(seq), 0.02, abs_tol=1e-15)


class TestCollisionRates:
    def test_quarter_of_samples_collide(self):
        ego = make_trajectory([(0.0, 0.0), (1.0, 0.0)])
        samples = np.empty((100, 2, 2))
        samples[:25] = [[0.2, 0.0], [1.2, 0.0]]      # on top of the ego
        samples[25:] = [[200.0, 200.0], [201.0, 200.0]]
        pred = PredictionSet(samples, 0.1)
        cr = metric_cr_pred(pred, ego, LEN, WID,
                            target_prev=(-1.0, 0.0), ego_prev=(-1.0, 0.0))
        assert cr == 0.25

    def test_clearance_gives_zero(self):
        ego = make_trajectory([(0.0, 0.0), (1.0, 0.0)])
        samples = np.broadcast_to(np.array([[0.0, 50.0], [1.0, 50.0]]),
                                  (10, 2, 2)).copy()
        pred = PredictionSet(samples, 0.1)
        assert metric_cr_pred(pred, ego, LEN, WID) == 0.0

    def test_fnc_detects_matched_time_crossing(self):
        # Both reach the intersection of their paths at the same index.
        ego = make_trajectory([(-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        tgt = make_trajectory([(0.0, -2.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0)])
        assert metric_cr_fnc(tgt, ego, LEN, WID) == 1.0

    def test_fnc_zero_when_passage_times_differ(self):
        # Same crossing point, reached 40 steps apart.
        n = 80
        xs = np.linspace(-40.0, 39.0, n)
        ego = make_trajectory(np.column_stack([xs, np.zeros(n)]))
        tgt = make_trajectory(np.column_stack([np.zeros(n), xs - 40.0]))
        assert metric_cr_fnc(tgt, ego, LEN, WID) == 0.0

    def test_fnc_horizon_mismatch(self):
        ego = make_trajectory([(0.0, 0.0), (1.0, 0.0)])
        tgt = make_trajectory([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        with pytest.raises(DataError):
            metric_cr_fnc(tgt, ego, LEN, WID)


class TestRigidInvariance:
    def test_all_position_metrics(self):
        rng = np.random.default_rng(14)
        ref = rng.normal(scale=5.0, size=(6, 2))
        ego = rng.normal(scale=5.0, size=(6, 2))
        samples = rng.normal(scale=5.0, size=(3, 6, 2))
        tgt_prev = rng.normal(scale=5.0, size=2)
        ego_prev = rng.normal(scale=5.0, size=2)

        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        shift = np.array([40.0, -3.0])

        def move(pts):
            return pts @ rot.T + shift

        pred = PredictionSet(samples, 0.1)
        pred_m = PredictionSet(samples @ rot.T + shift, 0.1)
        y, y_m = make_trajectory(ref), make_trajectory(move(ref))
        e, e_m = make_trajectory(ego), make_trajectory(move(ego))

        assert abs(metric_ade(pred, y) - metric_ade(pred_m, y_m)) < 1e-9
        assert abs(metric_fde(pred, y) - metric_fde(pred_m, y_m)) < 1e-9
        assert abs(metric_dmax(y, e) - metric_dmax(y_m, e_m)) < 1e-9
        assert abs(metric_dmean(y, e) - metric_dmean(y_m, e_m)) < 1e-9
        assert metric_cr_pred(pred, e, LEN, WID, tgt_prev, ego_prev) == \
            metric_cr_pred(pred_m, e_m, LEN, WID, move(tgt_prev[None])[0],
                           move(ego_prev[None])[0])
        assert metric_cr_fnc(y, e, LEN, WID, tgt_prev, ego_prev) == \
            metric_cr_fnc(y_m, e_m, LEN, WID, move(tgt_prev[None])[0],
                          move(ego_prev[None])[0])


class TestBaselineRow:
    def test_identity_has_zero_displacement(self, left_turn, predictor):
        pred = predictor.predict(left_turn.target_past,
                                 horizon=left_turn.horizon_future)
        base = compute_baseline_row(left_turn, pred)
        assert base.objective == "unperturbed"
        assert base.D_max == 0.0
        assert base.D_mean == 0.0
        assert base.CR_FNC is None
        assert base.ADE > 0.0


class TestAggregate:
    def test_single_row_is_itself(self):
        r = row()
        agg = aggregate([r])
        assert agg == dataclasses.replace(r, id="mean")

    def test_numeric_mean(self):
        agg = aggregate([row(D_max=0.0), row(D_max=2.0)])
        assert agg.D_max == 1.0

    def test_cr_fnc_ignores_missing(self):
        agg = aggregate([row(CR_FNC=None), row(CR_FNC=1.0), row(CR_FNC=0.0)])
        assert agg.CR_FNC == 0.5

    def test_all_missing_stays_missing(self):
        agg = aggregate([row(), row()])
        assert agg.CR_FNC is None

    def test_mixed_labels_dash(self):
        agg = aggregate([row(objective="ade"), row(objective="fde")])
        assert agg.objective == "-"
        assert agg.obs_constraint == "time"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate([])


class TestRoundTrip:
    def test_jsonl_bitwise(self, tmp_path):
        rows = [row(ADE=math.pi, D_max=1.0 / 3.0),
                row(id="s1", objective="collision_fn", CR_FNC=1.0)]
        path = tmp_path / "rows.jsonl"
        write_rows_jsonl(path, [r.to_dict() for r in rows])
        back, extras = read_rows_jsonl(path)
        assert back == rows
        assert extras == [{}, {}]

    def test_jsonl_preserves_extras(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        d = row().to_dict()
        d["final_loss"] = -1.25
        write_rows_jsonl(path, [d])
        back, extras = read_rows_jsonl(path)
        assert extras == [{"final_loss": -1.25}]
        assert back[0].ADE == 1.0

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "rows.csv"
        d = row().to_dict()
        d["iterations"] = 100
        write_rows_csv(path, [d])
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:4] == list(COLUMNS[:4])
        assert lines[0].split(",")[-1] == "iterations"
        cells = lines[1].split(",")
        assert cells[COLUMNS.index("CR_FNC")] == "-"
        assert cells[-1] == "100"

    def test_csv_float_cells_reparse_exactly(self, tmp_path):
        path = tmp_path / "rows.csv"
        d = row(ADE=math.pi, D_mean=2.0 / 3.0).to_dict()
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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            read_rows_jsonl(path)
