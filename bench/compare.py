"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are JSONL files written by ``bench/run.py --results``
(or directories of such files).  Runs of one workload are paired in the
order they were recorded, so record them alternating parent and change.
For each workload and end-to-end metric of ``BENCHMARK.json`` this prints
both medians and quartiles, the share of pairs the change won, and a
verdict:

- ``improved``: the change won at least 9 in 10 pairs and its median is
  better by more than the distance between the parent's quartiles;
- ``unresolved``: either side's quartile spread exceeds the metric's
  bound, and not every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``within bound``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> dict:
    """{workload: [metric values of each untraced run, in recorded order]}."""
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("trace"):
                continue
            values = {k: m["value"] for k, m in record["metrics"].items()}
            runs.setdefault(record["workload"], []).append(values)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list, change: list, lower_is_better: bool, bound: float) -> tuple:
    """(verdict, pairs won by the change, pairs)."""
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gain = sign * (p_med - c_med)
    if won >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", won, len(pairs)
    spread = max(
        (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved", won, len(pairs)
    worse_by = -gain / abs(p_med) if p_med else (0.0 if gain == 0 else float("inf"))
    if worse_by > bound:
        return "worse", won, len(pairs)
    return "within bound", won, len(pairs)


def _summary(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    parent, change = load_runs(args.parent), load_runs(args.change)
    worst = 0
    print(f"{'workload':<12} {'metric':<17} {'unit':<6} {'parent median [q1, q3]':<34}"
          f" {'change median [q1, q3]':<34} {'won':>7}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print(f"{name:<12} (no runs on one side)")
            continue
        for m in spec["end_to_end"]:
            p = [r[m["name"]] for r in parent[name]]
            c = [r[m["name"]] for r in change[name]]
            result, won, n = verdict(p, c, m["better"] == "lower", m["bound"])
            worst = max(worst, result == "worse")
            print(
                f"{name:<12} {m['name']:<17} {m['unit']:<6} {_summary(p):<34}"
                f" {_summary(c):<34} {won:>3}/{n:<3}  {result}"
            )
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
