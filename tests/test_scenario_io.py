"""Scenario generation and scenario files."""

import dataclasses
import logging
import re

import numpy as np
import pytest

from conftest import make_trajectory
from trajattack.core import ConfigError, DataError, GenerationError
from trajattack.dynamics import extract_controls
from trajattack.scenario_io import (MAX_STEP_SPEED, PRESETS, LeftTurnParams,
                                    generate_left_turn, ingest_scenarios,
                                    sample_left_turn_params, write_scenarios)


def default_params(**overrides):
    base = dict(v_target=7.0, v_ego=8.0, turn_radius=6.5, gap_s=1.2,
                H=12, T=12, dt=0.1)
    base.update(overrides)
    return LeftTurnParams(**base)


class TestSampling:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            sample_left_turn_params(np.random.default_rng(0), preset="merge")

    def test_presets_available(self):
        assert set(PRESETS) == {"default", "near-miss"}

    def test_same_seed_same_params(self):
        a = sample_left_turn_params(np.random.default_rng(42))
        b = sample_left_turn_params(np.random.default_rng(42))
        assert a == b

    def test_draw_within_ranges(self):
        spec = PRESETS["default"]
        for seed in range(30):
            p = sample_left_turn_params(np.random.default_rng(seed))
            assert spec["v_target"][0] <= p.v_target <= spec["v_target"][1]
            assert spec["v_ego"][0] <= p.v_ego <= spec["v_ego"][1]
            assert spec["turn_radius"][0] <= p.turn_radius <= spec["turn_radius"][1]
            assert spec["gap_s"][0] <= abs(p.gap_s) <= spec["gap_s"][1]

    def test_near_miss_gap_is_positive(self):
        for seed in range(30):
            p = sample_left_turn_params(np.random.default_rng(seed),
                                        preset="near-miss")
            assert p.gap_s > 0.0
            assert p.T == 20

    def test_range_override(self):
        p = sample_left_turn_params(np.random.default_rng(1),
                                    ranges={"gap_s": (3.0, 3.0)})
        assert abs(p.gap_s) == 3.0

    def test_unknown_range_key(self):
        with pytest.raises(ConfigError):
            sample_left_turn_params(np.random.default_rng(1),
                                    ranges={"speed": (1.0, 2.0)})


class TestGeneration:
    def test_same_seed_bitwise(self):
        p = default_params()
        a = generate_left_turn(p, seed=3)
        b = generate_left_turn(p, seed=3)
        assert np.array_equal(a.target_past.points, b.target_past.points)
        assert np.array_equal(a.target_future.points, b.target_future.points)
        assert np.array_equal(a.ego_future.points, b.ego_future.points)

    def test_horizons_and_dt(self):
        s = generate_left_turn(default_params(H=10, T=15), seed=0)
        assert s.horizon_past == 10
        assert s.horizon_future == 15
        assert s.dt == 0.1

    def test_target_controls_respect_bounds(self):
        for seed in range(25):
            p = sample_left_turn_params(np.random.default_rng(seed))
            s = generate_left_turn(p, seed=seed)
            pts = np.vstack([s.target_past.points, s.target_future.points])
            _, seq = extract_controls(make_trajectory(pts, s.dt))
            assert np.max(np.abs(seq.kappa)) <= 0.2 + 1e-9
            assert np.max(np.abs(seq.a)) <= 2.0 + 1e-9

    def test_target_turns_left_across_oncoming_lane(self):
        s = generate_left_turn(default_params(), seed=5)
        pts = np.vstack([s.target_past.points, s.target_future.points])
        assert pts[0, 0] == 1.75           # starts in its own lane
        assert pts[:, 0].min() < -1.75     # ends across the oncoming lane

    def test_ego_southbound_constant_speed(self):
        s = generate_left_turn(default_params(), seed=7)
        ego = np.vstack([s.ego_past.points, s.ego_future.points])
        np.testing.assert_allclose(ego[:, 0], -1.75, atol=1e-12)
        steps = np.diff(ego[:, 1])
        np.testing.assert_allclose(steps, steps[0], atol=1e-9)
        assert steps[0] < 0.0

    def test_stationary_target(self):
        s = generate_left_turn(default_params(v_target=0.0), seed=0)
        pts = np.vstack([s.target_past.points, s.target_future.points])
        assert np.all(pts == pts[0])
        _, seq = extract_controls(make_trajectory(pts, s.dt))
        assert np.all(seq.inputs == 0.0)

    @pytest.mark.parametrize("overrides,err", [
        ({"H": 1}, ConfigError),
        ({"dt": 0.0}, ConfigError),
        ({"v_target": -1.0}, ConfigError),
        ({"cross_fraction": 1.0}, ConfigError),
        ({"turn_radius": 4.0}, GenerationError),
        ({"dt": 20.0}, ConfigError),
        ({"dt": 1e-4}, ConfigError),
        ({"H": 2}, ConfigError),
    ])
    def test_rejects_bad_params(self, overrides, err):
        with pytest.raises(err):
            generate_left_turn(default_params(**overrides), seed=0)


class TestFiles:
    @staticmethod
    def scenarios(n=3):
        out = []
        for seed in range(n):
            p = sample_left_turn_params(np.random.default_rng(seed))
            out.append(generate_left_turn(p, seed=seed))
        return out

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_roundtrip_bitwise(self, tmp_path, fmt):
        scenarios = self.scenarios()
        path = tmp_path / f"scenes.{fmt}"
        write_scenarios(path, scenarios)
        back = ingest_scenarios(path)
        assert [s.id for s in back] == [s.id for s in scenarios]
        for a, b in zip(scenarios, back):
            assert np.array_equal(a.target_past.points, b.target_past.points)
            assert np.array_equal(a.target_future.points, b.target_future.points)
            assert np.array_equal(a.ego_past.points, b.ego_past.points)
            assert np.array_equal(a.ego_future.points, b.ego_future.points)
            assert a.dt == b.dt
            assert a.vehicle_length == b.vehicle_length

    def test_format_inferred_from_suffix(self, tmp_path):
        with pytest.raises(ConfigError):
            write_scenarios(tmp_path / "scenes.parquet", self.scenarios(1))

    def test_explicit_format_overrides_suffix(self, tmp_path):
        path = tmp_path / "scenes.dat"
        write_scenarios(path, self.scenarios(1), fmt="jsonl")
        back = ingest_scenarios(path, fmt="jsonl")
        assert len(back) == 1

    def test_bad_row_skipped_with_diagnostic(self, tmp_path, caplog):
        path = tmp_path / "scenes.jsonl"
        write_scenarios(path, self.scenarios(2))
        lines = path.read_text().splitlines()
        for old, new in (('"H": 12', '"H": 11'), ('"H": 12', '"H": 1e400'),
                         ('"vehicle_length": 4.2', '"vehicle_length": "abc"'),
                         ('"vehicle_length": 4.2', '"vehicle_length": null'),
                         ('"vehicle_length": 4.2', '"vehicle_length": Infinity'),
                         ('"vehicle_width": 1.7', '"vehicle_width": [1.0]')):
            assert old in lines[0]
            path.write_text("\n".join([lines[0].replace(old, new), lines[1]]) + "\n")
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                back = ingest_scenarios(path)
            assert len(back) == 1
            assert any("skipped" in rec.message for rec in caplog.records)
            assert any(":1" in rec.getMessage() for rec in caplog.records)

    def test_invalid_json_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "scenes.jsonl"
        write_scenarios(path, self.scenarios(1))
        path.write_text("{not json}\n" + path.read_text())
        with caplog.at_level(logging.WARNING):
            back = ingest_scenarios(path)
        assert len(back) == 1

    def test_empty_file_is_hard_error(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            ingest_scenarios(path)

    def test_all_rows_invalid_is_hard_error(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text('{"id": "x"}\n{"id": "y"}\n')
        with pytest.raises(DataError):
            ingest_scenarios(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_scenarios(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("edit", ["gap", "duplicate"])
    def test_csv_nonconsecutive_t_index_skipped(self, tmp_path, caplog, edit):
        path = tmp_path / "scenes.csv"
        write_scenarios(path, self.scenarios(2))
        lines = path.read_text().splitlines()
        # line 3 holds the first scenario's second target-past point
        fields = lines[2].split(",")
        fields[3] = "50" if edit == "gap" else lines[1].split(",")[3]
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            back = ingest_scenarios(path)
        assert [s.id for s in back] == [self.scenarios(2)[1].id]
        messages = [rec.getMessage() for rec in caplog.records]
        assert any(re.search(r"scenes\.csv:\d+: .*t_index.*scenario skipped", m)
                   for m in messages), messages

    def test_csv_vehicle_defaults(self, tmp_path):
        path = tmp_path / "scenes.csv"
        scenarios = [dataclasses.replace(self.scenarios(1)[0],
                                         vehicle_length=5.0)]
        write_scenarios(path, scenarios)
        back = ingest_scenarios(path)
        assert back[0].vehicle_length == 4.2   # CSV stores positions only


class TestPlausibility:
    def test_map_frame_coordinates_are_accepted(self, tmp_path):
        """Coordinates are not capped: a scene shifted to UTM-like
        northings and eastings ingests unchanged."""
        s = TestFiles.scenarios(1)[0]
        shift = np.array([6.9e5, 5.3e6])
        moved = dataclasses.replace(s, **{
            f"{agent}_{role}": dataclasses.replace(
                getattr(s, f"{agent}_{role}"),
                points=getattr(s, f"{agent}_{role}").points + shift)
            for agent in ("target", "ego") for role in ("past", "future")})
        path = tmp_path / "utm.jsonl"
        write_scenarios(path, [moved])
        (back,) = ingest_scenarios(path)
        assert np.array_equal(back.target_past.points, moved.target_past.points)

    @pytest.mark.parametrize("dt", [1e-4, 11.0])
    def test_implausible_dt_skipped(self, tmp_path, caplog, dt):
        good = TestFiles.scenarios(2)
        bad = dataclasses.replace(good[0], **{
            f"{agent}_{role}": dataclasses.replace(getattr(good[0], f"{agent}_{role}"), dt=dt)
            for agent in ("target", "ego") for role in ("past", "future")})
        path = tmp_path / "s.jsonl"
        write_scenarios(path, [bad, good[1]])
        with caplog.at_level(logging.WARNING):
            out = ingest_scenarios(path)
        assert [x.id for x in out] == [good[1].id]
        assert "s.jsonl:1" in caplog.text and "plausible range" in caplog.text

    def test_a_step_faster_than_the_limit_is_refused(self, tmp_path):
        s = TestFiles.scenarios(1)[0]
        pts = s.ego_future.points.copy()
        pts[-1] += (MAX_STEP_SPEED * s.dt * 1.01, 0.0)
        fast = dataclasses.replace(s, ego_future=dataclasses.replace(s.ego_future, points=pts))
        path = tmp_path / "fast.jsonl"
        write_scenarios(path, [fast])
        with pytest.raises(DataError, match=r"fast.jsonl:1: ego moves .* m/s over one step"):
            ingest_scenarios(path)
