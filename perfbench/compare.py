#!/usr/bin/env python3
"""Summarise and compare result records written by perfbench/run.py.

    python3 perfbench/compare.py spread [DIR]
        Per workload and end-to-end metric: runs, median, quartiles and the
        quartile spread as a share of the median, against the metric's bound.
    python3 perfbench/compare.py compare DIR_A DIR_B
        Per workload and end-to-end metric: both medians, the change as a
        share of A's median, and whether B is worse than A by more than the
        bound. Refuses to compare runs whose environment differs.

DIR defaults to perfbench/.work/results. Only untraced records are read.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}

# Everything a record's environment holds except the seed, which differs
# between the runs of one set by design.
def env_key(rec):
    return tuple(sorted((k, str(v)) for k, v in rec["env"].items() if k != "seed"))


def load(d):
    by_workload = {}
    for f in sorted(Path(d).glob("*/seed*-trace0-*.json")):
        rec = json.loads(f.read_text())
        by_workload.setdefault(rec["workload"], []).append(rec)
    if not by_workload:
        sys.exit(f"no untraced results under {d}")
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_env(recs, where):
    envs = {env_key(r) for r in recs}
    if len(envs) > 1:
        sys.exit(f"refusing: runs in {where} differ in environment: {sorted(envs)}")
    return envs.pop()


def spread(d):
    worst = 0.0
    for w, recs in sorted(load(d).items()):
        check_env(recs, f"{d}/{w}")
        failed = sum(r["failed"] for r in recs)
        print(f"{w}: {len(recs)} runs, seeds {sorted(r['env']['seed'] for r in recs)}, ops_failed {failed}")
        for name, m in E2E.items():
            vals = [r["metrics"][name] for r in recs]
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if rel < m["bound"] / 3 else ("within bound" if rel <= m["bound"] else "TOO WIDE")
            if name != "setup_s":
                worst = max(worst, rel / m["bound"])
            print(f"  {name:<22} median {med:>12.5g} {m['unit']:<6} q1 {q1:>11.5g} q3 {q3:>11.5g}"
                  f"  spread {rel:6.1%} bound {m['bound']:.0%}  {verdict}")
    print(f"widest spread relative to its bound (setup_s excluded): {worst:.2f}")


def compare(da, db):
    a, b = load(da), load(db)
    for w in sorted(set(a) & set(b)):
        ea, eb = check_env(a[w], f"{da}/{w}"), check_env(b[w], f"{db}/{w}")
        if ea != eb:
            sys.exit(f"refusing: {w} environments differ:\n  A {ea}\n  B {eb}")
        print(f"{w}: A {len(a[w])} runs, B {len(b[w])} runs")
        for name, m in E2E.items():
            ma = statistics.median(r["metrics"][name] for r in a[w])
            mb = statistics.median(r["metrics"][name] for r in b[w])
            change = (mb - ma) / ma if ma else float("inf")
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            print(f"  {name:<22} A {ma:>12.5g}  B {mb:>12.5g} {m['unit']:<6} change {change:+7.1%}"
                  f"  bound {m['bound']:.0%}  {verdict}")


def main():
    args = sys.argv[1:]
    default = HERE / ".work" / "results"
    if args[:1] == ["spread"] and len(args) <= 2:
        spread(args[1] if len(args) == 2 else default)
    elif args[:1] == ["compare"] and len(args) == 3:
        compare(args[1], args[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
