#!/usr/bin/env python3
"""Compares perfbench runs of a parent and a change, metric by metric.

Input: for each workload, one file of parent runs and one of change runs.
A file may be the raw stdout of repeated `python3 perfbench/run.py` calls:
every line that is a JSON object with a "metrics" key is one run's result
line; everything else is ignored. Parent run i is paired with change run
i, so alternate the runs (parent, change, parent, ...) when recording.

Bounds and directions come from BENCHMARK.json, which is only read. For
each metric the report prints the parent and change quartiles
(p25/p50/p75), the median change, the pairs the change won, and a
verdict:

  improved      the change won at least 90% of the pairs and its median is
                better by more than the parent's interquartile range;
  unresolved    parent or change spread (IQR / median) exceeds the bound,
                so the runs cannot tell a regression from noise (unless
                every change run lies on one side of every parent run);
  regressed     the change median is worse than the parent median by more
                than the bound;
  within bound  none of the above.

Stdlib only. Exits 0 when no end-to-end metric is regressed or unresolved
and every --claim metric is improved on every workload; 1 otherwise; 2 on
unreadable input.
Usage: bench_diff.py [--benchmark BENCHMARK.json] [--claim METRIC ...]
                     --workload NAME PARENT CHANGE ...
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 os.pardir, "BENCHMARK.json")
IMPROVED_WIN_FRAC = 0.9


def fail(msg: str) -> None:
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(2)


def load_runs(path: str) -> list:
    """Every perfbench result line in `path`, as {metric: value}."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    runs = []
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("metrics"), dict):
            continue
        if obj.get("correct") is False:
            fail(f"{path}: a run reported wrong results")
        runs.append({name: m["value"] for name, m in obj["metrics"].items()
                     if isinstance(m, dict) and "value" in m})
    if not runs:
        fail(f"{path} holds no perfbench result lines")
    return runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Compares one metric; `bound` is its relative regression bound."""
    sign = 1.0 if better == "lower" else -1.0
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gain = sign * (p2 - c2)  # > 0: the change is better
    rel = (c2 - p2) / p2 if p2 else 0.0
    iqr = p3 - p1
    row = {"parent": (p1, p2, p3), "change": (c1, c2, c3), "rel": rel,
           "won": won, "pairs": len(pairs)}
    spread = max((p3 - p1) / p2 if p2 else 0.0, (c3 - c1) / c2 if c2 else 0.0)
    # With every change run on one side of every parent run, the spread
    # cannot hide the direction.
    separated = (sign * (max(change) - min(parent)) < 0 or
                 sign * (min(change) - max(parent)) > 0)
    if pairs and won >= IMPROVED_WIN_FRAC * len(pairs) and gain > iqr:
        row["verdict"] = "improved"
    elif spread > bound and not separated:
        row["verdict"] = "unresolved"
    elif -gain > bound * abs(p2):
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "within bound"
    return row


def fmt(v: float) -> str:
    if v == 0 or abs(v) >= 100:
        return f"{v:.0f}"
    if abs(v) >= 1:
        return f"{v:.2f}"
    return f"{v:.4g}"


def report(name: str, parent_runs: list, change_runs: list, metrics: list,
           claims: set) -> bool:
    """Prints one workload's table; returns False when the change fails."""
    pairs = min(len(parent_runs), len(change_runs))
    print(f"workload {name}: {len(parent_runs)} parent runs, "
          f"{len(change_runs)} change runs, {pairs} pairs")
    header = ("metric", "unit", "parent p25/p50/p75", "change p25/p50/p75",
              "median", "won", "bound", "verdict")
    rows = [header]
    ok = True
    for m in metrics:
        parent = [r[m["name"]] for r in parent_runs if m["name"] in r]
        change = [r[m["name"]] for r in change_runs if m["name"] in r]
        if not parent or not change:
            continue
        bound = m["bound"]
        row = verdict(parent, change, m["better"], bound)
        rows.append((m["name"], m["unit"],
                     " / ".join(fmt(v) for v in row["parent"]),
                     " / ".join(fmt(v) for v in row["change"]),
                     f"{row['rel'] * 100:+.1f}%",
                     f"{row['won']}/{row['pairs']}",
                     f"{bound * 100:.0f}%",
                     row["verdict"]))
        if row["verdict"] in ("regressed", "unresolved"):
            ok = False
        if m["name"] in claims and row["verdict"] != "improved":
            ok = False
    for name_ in claims:
        if not any(r[0] == name_ for r in rows[1:]):
            print(f"  claimed metric {name_} is absent")
            ok = False
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the metric bounds")
    parser.add_argument("--workload", nargs=3, action="append", required=True,
                        metavar=("NAME", "PARENT", "CHANGE"),
                        help="a workload's parent and change result files")
    parser.add_argument("--claim", action="append", default=[],
                        help="a metric the change must improve")
    args = parser.parse_args()

    try:
        with open(args.benchmark, encoding="utf-8") as f:
            bench = json.load(f)
        metrics = list(bench["end_to_end"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        fail(f"cannot read the metrics of {args.benchmark}: {e}")

    ok = True
    for name, parent_path, change_path in args.workload:
        ok &= report(name, load_runs(parent_path), load_runs(change_path),
                     metrics, set(args.claim))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
