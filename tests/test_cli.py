"""Command line interface: exit codes, artifacts, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import trajattack
from trajattack import cli
from trajattack.attack import AttackConfig
from trajattack.barriers import BarrierConfig
from trajattack.cli import GRID, _stable_seed, main
from trajattack.metrics import COLUMNS, DIAGNOSTICS, read_rows_jsonl
from trajattack.predictor import PredictorConfig
from trajattack import scenario_io
from trajattack.scenario_io import LeftTurnParams, generate_left_turn, write_scenarios


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "scenes.jsonl"
    assert run("generate", "--n", 3, "--seed", 7, "--out", path) == 0
    return path


class TestGenerate:
    def test_writes_scenarios_and_manifest(self, scene_file):
        lines = scene_file.read_text().strip().splitlines()
        assert len(lines) == 3
        manifest = json.loads((scene_file.parent / "scenes.jsonl.manifest.json")
                              .read_text())
        assert manifest["command"] == "generate"
        assert manifest["n"] == 3
        assert len(manifest["scenario_seeds"]) == 3
        assert not any("time" in k or "date" in k for k in manifest)

    def test_same_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run("generate", "--n", 4, "--seed", 9, "--out", a) == 0
        assert run("generate", "--n", 4, "--seed", 9, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run("generate", "--n", 2, "--seed", 1, "--out", a)
        run("generate", "--n", 2, "--seed", 2, "--out", b)
        assert a.read_bytes() != b.read_bytes()

    def test_zero_scenarios_is_config_error(self, tmp_path):
        assert run("generate", "--n", 0, "--seed", 1,
                   "--out", tmp_path / "x.jsonl") == 2

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "nm.jsonl"
        assert run("generate", "--n", 1, "--seed", 3, "--preset", "near-miss",
                   "--out", out) == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["T"] == 20

    @pytest.mark.parametrize("flag, pair", [
        ("--gap-s", ["3", "1"]), ("--v-target", ["nan", "5"]), ("--turn-radius", ["6", "inf"]),
        ("--v-target", ["1e300", "1e300"]), ("--v-target", ["1e3", "1e3"]),
        ("--v-ego", ["-1", "5"]), ("--turn-radius", ["6", "1e4"]), ("--gap-s", ["-61", "1"]),
    ], ids=["lo-above-hi", "nan", "inf", "1e300", "1e3", "reverse", "straight", "gap"])
    def test_bad_range_flag_is_config_error(self, tmp_path, capsys, flag, pair):
        """A range that is not two finite numbers LO <= HI within the
        physical limits is refused up front, naming its flag."""
        out = tmp_path / "g.jsonl"
        assert run("generate", "--n", 1, "--seed", 0, flag, *pair, "--out", out) == 2
        err = capsys.readouterr().err
        assert "sweep range" in err and flag in err
        assert not out.exists()

    def test_range_flag(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert run("generate", "--n", 1, "--seed", 3,
                   "--gap-s", 2.0, 2.0, "--out", out) == 0
        manifest = json.loads((tmp_path / "r.jsonl.manifest.json").read_text())
        assert manifest["ranges"]["gap_s"] == [2.0, 2.0]


class TestAttack:
    def test_single_objective_run(self, scene_file, tmp_path):
        out = tmp_path / "res"
        assert run("attack", "--scenarios", scene_file, "--out", out,
                   "--objective", "ade", "--iters", 1) == 0
        rows = read_rows_jsonl(f"{out}.jsonl")
        # one baseline row plus one attack row per scenario
        assert len(rows) == 6
        assert sum(r["objective"] == "unperturbed" for r in rows) == 3
        assert all("final_loss" in r for r in rows if r["objective"] != "unperturbed")

    def test_csv_carries_the_diagnostics(self, scene_file, tmp_path):
        """The CSV has every JSONL key, though each scenario's baseline row,
        which has no diagnostics, comes first."""
        out = tmp_path / "res"
        assert run("attack", "--scenarios", scene_file, "--out", out,
                   "--objective", "ade", "--iters", 1) == 0
        rows = read_rows_jsonl(f"{out}.jsonl")
        lines = (tmp_path / "res.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == list(COLUMNS + DIAGNOSTICS)
        for r, line in zip(rows, lines[1:]):
            cells = dict(zip(header, line.split(",")))
            for key in DIAGNOSTICS:
                assert cells[key] == ("-" if r["objective"] == "unperturbed" else str(r[key]))

    def test_grid_emits_all_configurations(self, scene_file, tmp_path):
        out = tmp_path / "grid"
        assert run("attack", "--scenarios", scene_file, "--out", out,
                   "--grid", "--iters", 2, "--dmax", 0.8) == 0
        rows = read_rows_jsonl(f"{out}.jsonl")
        assert json.loads((tmp_path / "grid.manifest.json").read_text())["d_max"] == 0.8
        assert len(GRID) == 14
        assert len(rows) == 3 * (len(GRID) + 1)
        combos = {(r["objective"], r["obs_constraint"], r["fut_constraint"])
                  for r in rows if r["objective"] != "unperturbed"}
        assert combos == set(GRID)

    def test_serial_parallel_identical(self, scene_file, tmp_path):
        a = tmp_path / "serial"
        b = tmp_path / "parallel"
        assert run("attack", "--scenarios", scene_file, "--out", a,
                   "--objective", "fde", "--iters", 3) == 0
        assert run("attack", "--scenarios", scene_file, "--out", b,
                   "--objective", "fde", "--iters", 3, "--parallel", 2) == 0
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "parallel.jsonl").read_bytes()
        assert (tmp_path / "serial.csv").read_bytes() == \
            (tmp_path / "parallel.csv").read_bytes()

    @pytest.mark.parametrize("value", [0, -3])
    def test_parallel_below_one_is_config_error(self, scene_file, tmp_path, value):
        assert run("attack", "--scenarios", scene_file, "--out", tmp_path / "x",
                   "--objective", "ade", "--iters", 1, "--parallel", value) == 2
        assert not (tmp_path / "x.manifest.json").exists()

    def test_parallel_starts_at_most_one_worker_per_scenario(self, scene_file, tmp_path,
                                                              monkeypatch):
        """--parallel 64 over 3 scenarios asks the pool for 3 workers.  The
        stand-in pool records the request and maps serially, so no process
        starts; the rows equal a serial run's."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        for name, parallel in (("serial", 1), ("wide", 64)):
            assert run("attack", "--scenarios", scene_file, "--out", tmp_path / name,
                       "--objective", "fde", "--iters", 2, "--parallel", parallel) == 0
        assert sizes == [3]
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "wide.jsonl").read_bytes()

    def test_malformed_records_are_skipped(self, scene_file, tmp_path, caplog):
        """Records with a non-numeric footprint or an overflowing horizon are
        skipped with a warning naming their lines; the valid record runs."""
        lines = scene_file.read_text().splitlines()
        footprint = json.loads(lines[1])
        footprint["vehicle_length"] = "abc"
        horizon = json.loads(lines[2])
        horizon["H"] = 1e400
        scenes = tmp_path / "mixed.jsonl"
        scenes.write_text("\n".join([lines[0], json.dumps(footprint), json.dumps(horizon)])
                          + "\n")
        with caplog.at_level("WARNING"):
            assert run("attack", "--scenarios", scenes, "--out", tmp_path / "x",
                       "--objective", "ade", "--iters", 1) == 0
        warned = [rec.getMessage() for rec in caplog.records]
        for line in (2, 3):
            assert any(f"{scenes}:{line}:" in m and "skipped" in m for m in warned)
        assert len(read_rows_jsonl(tmp_path / "x.jsonl")) == 2

    @pytest.mark.parametrize("target", ["scenarios-jsonl", "scenarios-csv", "config",
                                        "results"])
    def test_undecodable_file_is_named(self, scene_file, results, tmp_path, capsys, target):
        """Bytes that do not decode are a data error (exit 3) in a scenario or
        results file and a configuration error (exit 2) in a config file; the
        message names the file and nothing is written."""
        scenes = scene_file
        if target == "scenarios-csv":
            scenes = tmp_path / "scenes.csv"
            assert run("generate", "--n", 2, "--seed", 7, "--out", scenes) == 0
        bad = tmp_path / f"bad{Path(scenes).suffix}"
        if target == "config":
            bad = tmp_path / "bad.json"
            bad.write_bytes(b'{"alpha0": 0.02, "seed": "\xff"}')
            argv = ["attack", "--scenarios", scene_file, "--config", bad,
                    "--objective", "ade", "--iters", 1]
        elif target == "results":
            bad = tmp_path / "bad.jsonl"
            bad.write_bytes(Path(f"{results}.jsonl").read_bytes() + b"\xff\xfe\n")
            argv = ["report", "--results", bad]
        else:
            bad.write_bytes(Path(scenes).read_bytes() + b"\xff\xfe\n")
            argv = ["attack", "--scenarios", bad, "--objective", "ade", "--iters", 1]
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "x") == (2 if target == "config" else 3)
        assert str(bad) in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_missing_scenario_file_is_data_error(self, tmp_path):
        assert run("attack", "--scenarios", tmp_path / "absent.jsonl",
                   "--out", tmp_path / "x") == 3

    def test_grid_conflicts_with_objective(self, scene_file, tmp_path):
        assert run("attack", "--scenarios", scene_file, "--out", tmp_path / "x",
                   "--grid", "--objective", "ade") == 2

    def test_config_file_applies(self, scene_file, tmp_path):
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps({
            "objective": "fde",
            "alpha0": 0.02,
            "max_iterations": 2,
            "barrier": {"d_max": 0.8, "observed_mode": "time_traj"},
        }))
        out = tmp_path / "cfg"
        assert run("attack", "--scenarios", scene_file, "--out", out,
                   "--config", cfg) == 0
        manifest = json.loads((tmp_path / "cfg.manifest.json").read_text())
        assert manifest["attack_config"]["alpha0"] == 0.02
        assert manifest["attack_config"]["max_iterations"] == 2
        assert manifest["d_max"] == 0.8
        assert manifest["grid"] == [["fde", "time_traj", "none"]]

    def test_flag_overrides_config_file(self, scene_file, tmp_path):
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps({"objective": "ade", "max_iterations": 50}))
        out = tmp_path / "over"
        assert run("attack", "--scenarios", scene_file, "--out", out,
                   "--config", cfg, "--iters", 1) == 0
        manifest = json.loads((tmp_path / "over.manifest.json").read_text())
        assert manifest["attack_config"]["max_iterations"] == 1

    @pytest.mark.parametrize("flags, file_cfg", [
        (["--amin", "nan", "--iters", 2], None),
        (["--dmax", "inf", "--iters", 2], None),
        (["--alpha0", "inf", "--iters", 2], None),
        ([], {"alpha0": "x"}),
        ([], {"max_halvings": 2.0}),
        ([], {"seed": 1.5}),
        ([], {"barrier": {"d_max": "0.5"}}),
        ([], {"max_iterations": "5"}),
        ([], {"max_iterations": True}),
    ], ids=["amin-nan", "dmax-inf", "alpha0-inf", "file-alpha0-str", "file-halvings-float",
            "file-seed-float", "file-dmax-str", "file-iterations-str", "file-iterations-bool"])
    def test_invalid_setting_is_config_error(self, scene_file, tmp_path, flags, file_cfg):
        if file_cfg is not None:
            (tmp_path / "attack.json").write_text(json.dumps(file_cfg))
            flags = [*flags, "--config", tmp_path / "attack.json"]
        assert run("attack", "--scenarios", scene_file, "--out", tmp_path / "x",
                   "--objective", "ade", *flags) == 2
        assert not (tmp_path / "x.manifest.json").exists()

    @pytest.mark.parametrize("flags, barrier", [
        (["--observed", "time_traj"], None),
        (["--future", "traj"], None),
        (["--grid", "--observed", "time"], None),
        ([], {"observed_mode": "time_traj"}),
        ([], {"future_mode": "none"}),
    ], ids=["observed", "future", "grid-observed", "file-observed", "file-future"])
    def test_constraint_mode_without_objective_is_config_error(
            self, scene_file, tmp_path, flags, barrier):
        if barrier is not None:
            (tmp_path / "attack.json").write_text(json.dumps({"barrier": barrier}))
            flags = [*flags, "--config", tmp_path / "attack.json"]
        assert run("attack", "--scenarios", scene_file, "--out", tmp_path / "x",
                   "--iters", 1, *flags) == 2
        assert not (tmp_path / "x.manifest.json").exists()

    def test_manifest_of_flagless_run_holds_the_defaults(self, scene_file, tmp_path):
        assert run("attack", "--scenarios", scene_file, "--out", tmp_path / "d",
                   "--objective", "ade") == 0
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        defaults = dataclasses.asdict(AttackConfig())
        for key in ("objective", "barrier", "a_min", "a_max"):
            del defaults[key]
        recorded = manifest["attack_config"]
        assert set(recorded) == set(defaults) | {"a_min", "a_max"}
        assert {k: recorded[k] for k in defaults} == defaults
        assert manifest["accel_bounds_source"] == "dataset"
        barrier = BarrierConfig()
        assert manifest["d_max"] == barrier.d_max
        assert manifest["grid"] == [["ade", barrier.observed_mode, barrier.future_mode]]
        assert manifest["predictor_seed"] == PredictorConfig().seed

    def test_unknown_config_key_is_config_error(self, scene_file, tmp_path):
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps({"objective": "ade", "step": 0.5}))
        assert run("attack", "--scenarios", scene_file,
                   "--out", tmp_path / "x", "--config", cfg) == 2

    def test_collapsed_accel_bounds(self, scene_file, tmp_path):
        assert run("attack", "--scenarios", scene_file, "--out", tmp_path / "x",
                   "--objective", "ade", "--amin", 2.0, "--amax", -2.0) == 2

    def test_collapsed_dataset_accel_range_is_data_error(self, tmp_path, capsys):
        """Scenarios in which every vehicle stands still recover the range
        [0, 0]: a property of the data, named with the file and the flags
        that set the range, not a configuration error.  Equal bounds given
        by flag or config file stay a configuration error."""
        still = tmp_path / "still.jsonl"
        assert run("generate", "--n", 2, "--seed", 0, "--v-target", 0, 0,
                   "--v-ego", 0, 0, "--out", still) == 0
        capsys.readouterr()
        assert run("attack", "--scenarios", still, "--out", tmp_path / "x",
                   "--objective", "ade", "--iters", 1) == 3
        err = capsys.readouterr().err
        assert str(still) in err and "--amin/--amax" in err
        assert not list(tmp_path.glob("x*"))
        assert run("attack", "--scenarios", still, "--out", tmp_path / "y",
                   "--objective", "ade", "--iters", 1, "--amin", -3, "--amax", 3) == 0
        assert run("attack", "--scenarios", still, "--out", tmp_path / "z",
                   "--objective", "ade", "--iters", 1, "--amin", 1, "--amax", 1) == 2
        cfg = tmp_path / "equal.json"
        cfg.write_text(json.dumps({"a_min": 0.5, "a_max": 0.5}))
        assert run("attack", "--scenarios", still, "--out", tmp_path / "z",
                   "--objective", "ade", "--iters", 1, "--config", cfg) == 2
        assert "configuration error: acceleration bounds collapsed" in capsys.readouterr().err
        assert not list(tmp_path.glob("z*"))

    @pytest.mark.parametrize("edit", ["coordinates", "dt-large", "dt-small"])
    def test_implausible_scenario_file_is_data_error(self, tmp_path, capsys, edit):
        """Hand-edited copies of a generated scene, coordinates scaled by
        1e150 or dt set to 1e300 or 1e-300, are refused at ingest: exit 3
        naming the file and the record, no output file, no RuntimeWarning
        from the attack's arithmetic."""
        base = tmp_path / "base.jsonl"
        assert run("generate", "--n", 1, "--seed", 0, "--out", base) == 0
        record = json.loads(base.read_text())
        if edit == "coordinates":
            for agent in ("target", "ego"):
                for role in ("past", "future"):
                    key = f"{agent}_{role}"
                    record[key] = [[x * 1e150, y * 1e150] for x, y in record[key]]
        else:
            record["dt"] = 1e300 if edit == "dt-large" else 1e-300
        scenes = tmp_path / "edited.jsonl"
        scenes.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("attack", "--scenarios", scenes, "--out", tmp_path / "x",
                       "--objective", "ade") == 3
        err = capsys.readouterr().err
        assert f"{scenes}:1:" in err
        assert ("m/s over one step" if edit == "coordinates" else "dt") in err
        assert not list(tmp_path.glob("x*"))

    def test_unwritable_output_is_reported(self, scene_file, tmp_path):
        code = run("attack", "--scenarios", scene_file,
                   "--out", tmp_path / "nodir" / "x",
                   "--objective", "ade", "--iters", 1)
        assert code == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row_is_data_error(self, tmp_path, capsys, monkeypatch):
        """An attack whose rows overflow names the row and column, exits 3
        and writes nothing.  Ingest refuses such a speed, so the row check
        behind it is reached with the plausibility limit lifted."""
        monkeypatch.setattr(scenario_io, "MAX_STEP_SPEED", math.inf)
        scenes = tmp_path / "huge.jsonl"
        # generate refuses such speeds; the file is written through the library
        params = LeftTurnParams(v_target=1e300, v_ego=8.0, turn_radius=6.5, gap_s=1.2)
        write_scenarios(scenes, [dataclasses.replace(generate_left_turn(params), id="lt-0000")])
        assert run("attack", "--scenarios", scenes, "--out", tmp_path / "x",
                   "--objective", "ade", "--iters", 1) == 3
        err = capsys.readouterr().err
        assert "'lt-0000'" in err and "ADE is not a finite number" in err
        assert not list(tmp_path.glob("x*"))

    def test_manifest_records_bounds_source(self, scene_file, tmp_path):
        out = tmp_path / "src"
        run("attack", "--scenarios", scene_file, "--out", out,
            "--objective", "ade", "--iters", 1)
        manifest = json.loads((tmp_path / "src.manifest.json").read_text())
        assert manifest["accel_bounds_source"] == "dataset"
        out2 = tmp_path / "src2"
        run("attack", "--scenarios", scene_file, "--out", out2,
            "--objective", "ade", "--iters", 1, "--amin", -4, "--amax", 4)
        manifest2 = json.loads((tmp_path / "src2.manifest.json").read_text())
        assert manifest2["accel_bounds_source"] == "explicit"
        assert manifest2["attack_config"]["a_min"] == -4


@pytest.fixture(scope="module")
def results(scene_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("res") / "res"
    assert run("attack", "--scenarios", scene_file, "--out", out,
               "--objective", "ade", "--iters", 2) == 0
    return out


class TestReport:
    def test_report_groups_and_orders(self, results, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run("report", "--results", f"{results}.jsonl", "--out", out) == 0
        rows = read_rows_jsonl(f"{out}.jsonl")
        assert rows[0]["id"] == "unperturbed"
        assert rows[1]["id"] == "ade/time/none"
        assert rows[0]["D_max"] == 0.0
        table = capsys.readouterr().out
        assert "unperturbed" in table and "ade/time/none" in table

    def test_single_scenario_aggregate_is_row(self, scene_file, tmp_path):
        single = tmp_path / "one.jsonl"
        single.write_text(scene_file.read_text().splitlines()[0] + "\n")
        res = tmp_path / "res"
        run("attack", "--scenarios", single, "--out", res,
            "--objective", "fde", "--iters", 1)
        rows = read_rows_jsonl(f"{res}.jsonl")
        rep = tmp_path / "rep"
        assert run("report", "--results", f"{res}.jsonl", "--out", rep) == 0
        agg = read_rows_jsonl(f"{rep}.jsonl")
        attacked = [r for r in rows if r["objective"] == "fde"][0]
        summary = [r for r in agg if r["id"] == "fde/time/none"][0]
        assert summary["ADE"] == attacked["ADE"]
        assert summary["D_max"] == attacked["D_max"]

    def test_missing_results_is_data_error(self, tmp_path):
        assert run("report", "--results", tmp_path / "absent.jsonl",
                   "--out", tmp_path / "rep") == 3

    def test_empty_results_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("report", "--results", empty, "--out", tmp_path / "rep") == 3

    @pytest.mark.parametrize("cell", ["x", None])
    def test_bad_metric_cell_is_data_error(self, results, tmp_path, capsys, cell):
        lines = Path(f"{results}.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row["ADE"] = cell
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n")
        assert run("report", "--results", bad, "--out", tmp_path / "rep") == 3
        assert f"{bad}:2:" in capsys.readouterr().err
        assert not (tmp_path / "rep.manifest.json").exists()


class TestSeeding:
    def test_stable_seed_is_deterministic_and_spread(self):
        seeds = {_stable_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert _stable_seed(7, 3) == _stable_seed(7, 3)
        assert _stable_seed(7, 3) != _stable_seed(8, 3)
        assert all(0 <= s < 2 ** 63 for s in seeds)


def test_cli_import_loads_only_the_package():
    """A fresh interpreter imports trajattack.cli without scipy, the tests'
    tape reference or a gradient tape module."""
    src = str(Path(trajattack.__file__).resolve().parents[1])
    code = "import sys, trajattack.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    modules = proc.stdout.split()
    assert "trajattack.cli" in modules
    stray = [m for m in modules
             if m.split(".")[0] in ("scipy", "tests", "tape_reference")
             or m == "trajattack.gradtape"]
    assert stray == []
