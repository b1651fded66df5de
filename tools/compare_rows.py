"""Compare two attack result files row by row.

    python3 tools/compare_rows.py OLD.jsonl NEW.jsonl [--columns ADE FDE ...]

Rows are paired by (id, objective, obs_constraint, fut_constraint).  The
report lists, for each compared column, the largest absolute and relative
difference and the largest in units in the last place (|a - b| over the
spacing of floats at max(|a|, |b|), so a difference that is roundoff alone
reads as a few ulps); the rows whose halvings, rejections or iterations
differ; the per-configuration means of both files side by side; and the
margins of acceptance criteria 4 (constraint soundness) and 6 (directional
efficacy) computed from each file's rows.  Numbers alone judge nothing here: PGD
results are chaotic in roundoff, so a change of the arithmetic moves rows
while the configuration means and margins should stay put.

Exit codes: 0 when the two files hold the same keys, 1 otherwise or when
a file holds two rows with the same key.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

KEY = ("id", "objective", "obs_constraint", "fut_constraint")
METRICS = ("ADE", "FDE", "CR_pred", "CR_FNC", "D_max", "D_mean", "a_mag", "k_mag",
           "final_loss", "max_accepted_distance", "max_box_excess")
COUNTS = ("halvings", "rejections", "iterations")
D_MAX = 0.9


def _name(key):
    return "/".join(map(str, key))


def read_rows(path):
    """The JSON rows of a file, keyed by KEY; a key held by two rows is a
    ValueError naming it."""
    rows = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                row = json.loads(line)
                key = tuple(row[k] for k in KEY)
                if key in rows:
                    raise ValueError(f"{path}:{lineno}: duplicate row key {_name(key)}")
                rows[key] = row
    return rows


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def column_differences(old, new, columns):
    """{column: (largest |diff|, largest relative diff, largest diff in ulps,
    rows that differ)} over the paired rows where both values are numbers."""
    out = {}
    for col in columns:
        worst_abs = worst_rel = worst_ulps = 0.0
        differ = 0
        for key in old.keys() & new.keys():
            a, b = old[key].get(col), new[key].get(col)
            if a == b:
                continue
            differ += 1
            if _number(a) and _number(b):
                diff = abs(b - a)
                worst_abs = max(worst_abs, diff)
                worst_rel = max(worst_rel, diff / abs(a) if a else math.inf)
                worst_ulps = max(worst_ulps, diff / math.ulp(max(abs(a), abs(b))))
        out[col] = (worst_abs, worst_rel, worst_ulps, differ)
    return out


def count_differences(old, new):
    """Sorted keys of the paired rows whose halvings, rejections or
    iterations differ."""
    return sorted(key for key in old.keys() & new.keys()
                  if any(old[key].get(c) != new[key].get(c) for c in COUNTS))


def configuration_means(rows, columns):
    """{(objective, obs, fut): {column: mean over numeric values}}."""
    groups = {}
    for key, row in rows.items():
        groups.setdefault(key[1:], []).append(row)
    means = {}
    for config, members in groups.items():
        means[config] = {}
        for col in columns:
            values = [r[col] for r in members if _number(r.get(col))]
            means[config][col] = sum(values) / len(values) if values else None
    return means


def margins(rows):
    """Criteria 4 and 6 measured on one file's rows, as {name: value}."""
    attacked = [r for r in rows.values() if r["objective"] != "unperturbed"]
    base = {r["id"]: r for r in rows.values() if r["objective"] == "unperturbed"}
    out = {}
    if attacked:
        worst = max(r["max_accepted_distance"] for r in attacked)
        out["c4 worst accepted distance"] = worst
        out["c4 margin to d_max"] = D_MAX - worst
        out["c4 box violations"] = sum(1 for r in attacked if r["max_box_excess"] != 0.0)
    ade = [r for r in attacked if (r["objective"], r["obs_constraint"], r["fut_constraint"])
           == ("ade", "time", "none") and r["id"] in base]
    if ade:
        raised = sum(1 for r in ade if r["ADE"] > base[r["id"]]["ADE"])
        out["c6a ADE raised"] = f"{raised}/{len(ade)}"
    fde = {o: [r["FDE"] for r in attacked if r["objective"] == o] for o in ("fde", "ade")}
    if fde["fde"] and fde["ade"]:
        fde_mean = sum(fde["fde"]) / len(fde["fde"])
        ade_mean = sum(fde["ade"]) / len(fde["ade"])
        out["c6b FDE (fde) - FDE (ade)"] = fde_mean - ade_mean
    for obj in ("ade", "fde"):
        for metric in ("D_max", "a_mag"):
            free = [r[metric] for r in attacked
                    if r["objective"] == obj and r["fut_constraint"] == "none"]
            pinned = [r[metric] for r in attacked
                      if r["objective"] == obj and r["fut_constraint"] == "traj"]
            if free and pinned:
                out[f"c6c {obj}/{metric} free - traj"] = (sum(free) / len(free)
                                                          - sum(pinned) / len(pinned))
    return out


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(old, new, columns):
    """The comparison as lines of text."""
    lines = []
    only_old = sorted(old.keys() - new.keys())
    only_new = sorted(new.keys() - old.keys())
    paired = old.keys() & new.keys()
    identical = sum(1 for k in paired if old[k] == new[k])
    lines.append(f"paired rows: {len(paired)}, identical: {identical}, "
                 f"only in old: {len(only_old)}, only in new: {len(only_new)}")
    for side, keys in (("old", only_old), ("new", only_new)):
        lines.extend(f"  only in {side}: {_name(k)}" for k in keys[:10])
    lines.append("")
    lines.append("largest difference per column (absolute, relative, ulps, rows that differ):")
    for col, (d_abs, d_rel, d_ulps, differ) in column_differences(old, new, columns).items():
        lines.append(f"  {col:>22}  {_fmt(d_abs):>12}  {_fmt(d_rel):>12}  {_fmt(d_ulps):>12}"
                     f"  {differ}")
    lines.append("")
    moved = count_differences(old, new)
    lines.append(f"rows whose {', '.join(COUNTS)} differ: {len(moved)}")
    for key in moved[:20]:
        lines.append(f"  {_name(key)}: "
                     + ", ".join(f"{c} {old[key].get(c)} -> {new[key].get(c)}"
                                 for c in COUNTS if old[key].get(c) != new[key].get(c)))
    lines.append("")
    old_means = configuration_means(old, columns)
    new_means = configuration_means(new, columns)
    lines.append("per-configuration means (old -> new):")
    for config in sorted(old_means.keys() | new_means.keys()):
        a = old_means.get(config, {})
        b = new_means.get(config, {})
        cells = ", ".join(f"{c} {_fmt(a.get(c))} -> {_fmt(b.get(c))}" for c in columns
                          if a.get(c) is not None or b.get(c) is not None)
        lines.append(f"  {'/'.join(config)}: {cells}")
    lines.append("")
    lines.append("criteria margins (old -> new):")
    old_margins, new_margins = margins(old), margins(new)
    for name in sorted(old_margins.keys() | new_margins.keys()):
        lines.append(f"  {name}: {_fmt(old_margins.get(name))} -> "
                     f"{_fmt(new_margins.get(name))}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--columns", nargs="+", default=list(METRICS),
                        help="columns to compare (default: every metric and diagnostic)")
    args = parser.parse_args(argv)
    try:
        old, new = read_rows(args.old), read_rows(args.new)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(report(old, new, args.columns)))
    return 0 if old.keys() == new.keys() else 1


if __name__ == "__main__":
    sys.exit(main())
