"""Compare two sets of benchmark runs by the pairs-and-spread rule.

    python3 bench/run.py --workload all --repeat 10 --seed 1 --out parent.json   # on the parent
    python3 bench/run.py --workload all --repeat 10 --seed 1 --out change.json   # on the change
    python3 bench/compare.py parent.json change.json

Run i of each file used the same seed, so runs pair up by index. For each
workload and end-to-end metric the change counts as a gain only when it wins
at least nine tenths of the pairs and the medians differ by more than the
parent's interquartile spread; as a regression when its median is worse than
the parent's by more than the metric's bound in BENCHMARK.json; and as
unresolved when the parent's spread is wider than that bound and not every
change run beats every parent run. One row per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if "result" in r and metric in r["result"]["metrics"]]


def summarize(workload: str, runs: list) -> str:
    """Median and quartiles of every metric over repeated runs."""
    ok = [r for r in runs if "result" in r]
    lines = [f"{workload}: {len(ok)}/{len(runs)} runs ok, "
             f"correct in {sum(r['result']['correct'] for r in ok)}"]
    metrics = ok[0]["result"]["metrics"] if ok else {}
    for name, m in metrics.items():
        q1, med, q3 = quartiles(values(ok, name))
        spread = (q3 - q1) / med if med else float("nan")
        lines.append(f"  {name:<44} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                     f"spread {spread:.3f}")
    return "\n".join(lines)


def judge(parent, change, better, bound) -> str:
    n = min(len(parent), len(change))
    if n == 0:
        return "no data"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent[:n], change[:n]))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = sign * (pm - cm) / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 * n and sign * (cm - pm) > (p3 - p1):
        verdict = "gain"
    elif spread > bound:
        verdict = "no regression (every run better)" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "no change"
    return f"{verdict} ({wins}/{n} pairs won, median {pm:.4g} -> {cm:.4g}, parent spread {spread:.3f})"


def compare(parent_file, change_file) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent = json.loads(Path(parent_file).read_text())["runs"]
    change = json.loads(Path(change_file).read_text())["runs"]
    regressions = 0
    for workload in parent:
        cells = []
        for name, m in metrics.items():
            text = judge(values(parent[workload], name), values(change.get(workload, []), name),
                         m["better"], m["bound"])
            regressions += text.startswith("regression")
            cells.append(f"{name}: {text}")
        print(f"{workload} | " + " | ".join(cells))
    return 1 if regressions else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
