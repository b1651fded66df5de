"""tools/compare_rows.py on hand-made rows."""

import importlib.util
import json
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare_rows", Path(__file__).resolve().parents[1] / "tools" / "compare_rows.py")
compare_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_rows)


def _row(sid, objective, obs="time", fut="none", **values):
    row = {"id": sid, "objective": objective, "obs_constraint": obs, "fut_constraint": fut,
           "ADE": 1.0, "FDE": 2.0, "D_max": 0.5, "a_mag": 0.1,
           "max_accepted_distance": 0.8, "max_box_excess": 0.0,
           "halvings": 3, "rejections": 0, "iterations": 100}
    if objective == "unperturbed":
        row = {k: row[k] for k in ("id", "objective", "ADE", "FDE")}
        row.update(obs_constraint="-", fut_constraint="-")
    row.update(values)
    return row


OLD = [_row("a", "unperturbed", ADE=0.5), _row("a", "ade"), _row("a", "fde", FDE=3.0),
       _row("a", "ade", fut="traj", D_max=0.25), _row("b", "unperturbed", ADE=1.5),
       _row("b", "ade")]
NEW = [_row("a", "unperturbed", ADE=0.5), _row("a", "ade", ADE=1.5, halvings=4),
       _row("a", "fde", FDE=3.0), _row("a", "ade", fut="traj", D_max=0.25),
       _row("b", "unperturbed", ADE=1.5), _row("b", "ade", max_accepted_distance=0.85),
       _row("c", "ade")]


def _write(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def test_differences_counts_and_margins(tmp_path, capsys):
    old = compare_rows.read_rows(_write(tmp_path / "old.jsonl", OLD))
    new = compare_rows.read_rows(_write(tmp_path / "new.jsonl", NEW))
    diffs = compare_rows.column_differences(old, new, ["ADE", "FDE", "max_accepted_distance"])
    assert diffs["ADE"] == (0.5, 0.5, 0.5 / math.ulp(1.5), 1)
    assert diffs["FDE"] == (0.0, 0.0, 0.0, 0)
    assert abs(diffs["max_accepted_distance"][0] - 0.05) < 1e-15
    assert compare_rows.count_differences(old, new) == [("a", "ade", "time", "none")]
    means = compare_rows.configuration_means(new, ["ADE"])
    assert means[("ade", "time", "none")]["ADE"] == (1.5 + 1.0 + 1.0) / 3
    m_old, m_new = compare_rows.margins(old), compare_rows.margins(new)
    assert m_old["c4 worst accepted distance"] == 0.8
    assert m_new["c4 worst accepted distance"] == 0.85
    assert m_old["c4 box violations"] == 0
    assert m_old["c6a ADE raised"] == "1/2"   # b's baseline ADE 1.5 beats its attack
    assert m_old["c6b FDE (fde) - FDE (ade)"] == 3.0 - 2.0
    assert m_old["c6c ade/D_max free - traj"] == 0.5 - 0.25
    # the extra row makes the key sets differ
    assert compare_rows.main([str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl")]) == 1
    out = capsys.readouterr().out
    assert "paired rows: 6, identical: 4" in out and "only in new: 1" in out
    assert "a/ade/time/none: halvings 3 -> 4" in out


def test_identical_files(tmp_path, capsys):
    path = _write(tmp_path / "rows.jsonl", OLD)
    assert compare_rows.main([str(path), str(path), "--columns", "ADE"]) == 0
    out = capsys.readouterr().out
    assert "identical: 6" in out and "differ: 0" in out


def test_one_ulp_pair_reads_one_ulp(tmp_path, capsys):
    """A value and the next float above it differ by 1 ulp, at a power of two
    and away from one, whichever file is old."""
    for value in (0.1, 2.0, 4.5e-16):
        up = math.nextafter(value, math.inf)
        old = _write(tmp_path / "old.jsonl", [_row("a", "ade", ADE=value)])
        new = _write(tmp_path / "new.jsonl", [_row("a", "ade", ADE=up)])
        for a, b in ((old, new), (new, old)):
            diffs = compare_rows.column_differences(compare_rows.read_rows(a),
                                                    compare_rows.read_rows(b), ["ADE"])
            assert diffs["ADE"][2:] == (1.0, 1)
    assert compare_rows.main([str(old), str(new), "--columns", "ADE"]) == 0
    assert "ulps" in capsys.readouterr().out


def test_duplicate_key_is_refused(tmp_path, capsys):
    """Two rows with one key would leave only the last; the tool exits 1
    and names the key and its line."""
    dup = _write(tmp_path / "dup.jsonl", [_row("a", "ade"), _row("b", "ade"),
                                          _row("a", "ade", ADE=2.0)])
    good = _write(tmp_path / "good.jsonl", OLD)
    assert compare_rows.main([str(good), str(dup)]) == 1
    captured = capsys.readouterr()
    assert f"{dup}:3: duplicate row key a/ade/time/none" in captured.err
    assert captured.out == ""
