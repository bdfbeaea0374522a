#!/usr/bin/env python3
"""Outside-in benchmark of the one-SQL evaluator, the micro-batch engine and
the paper tables (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload q7-fine-ticks --seed 1 --seconds 15 --trace 0

The first run builds the program and the benchmark from source with sbt
(perfbench/build.sbt depends on the repository's own build). Each run starts
one JVM for the workload; a traced run (--trace 1) starts a second one on
local[1] for the single-threaded baseline. The last line of standard output
is the result as JSON; the full record, environment included, is written
under perfbench/.work/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
LAUNCHER = HERE / "target" / "launcher.txt"
WORKLOADS = ("q7-fine-ticks", "q7-bulk-ticks", "b-tables")
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 890
HEAP = "2g"
# A fixed heap and the parallel collector: with G1 and a growing heap the
# spread between runs was wider.
JVM_FLAGS = ["-Xms" + HEAP, "-XX:+UseParallelGC"]

# Per-layer times whose local[1] / local[k] ratio the traced run reports.
SPEEDUPS = {
    "speedup.first_pass": ["first_pass_s"],
    "speedup.core.plan_s": ["core.plan_s"],
    "speedup.core.execute_s": ["core.execute_s"],
    "speedup.tvr.snapshot_s": ["tvr.snapshot_s"],
    "speedup.engine.run_s": ["engine.run_s.after_wm", "engine.run_s.continuous"],
    "speedup.analytics_s": [
        "analytics.continuous_s", "analytics.delay_s", "analytics.after_wm_s",
        "analytics.wm_latency_s", "analytics.buffer_s", "analytics.arrival_order_s",
        "analytics.proc_time_s",
    ],
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads from the checkout."""
    roots = [ROOT / "src" / "main", ROOT / "jobs", HERE / "src" / "main", ROOT / "project", HERE / "project"]
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.is_file() and "target" not in p.relative_to(r).parts]
    return sorted(files)


def build():
    """Build once per source state; later runs reuse the launcher file."""
    digest = hashlib.sha256()
    for f in sources():
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp = WORK / "build.stamp"
    if LAUNCHER.exists() and stamp.exists() and stamp.read_text() == digest.hexdigest():
        return False
    print("perfbench: building program and benchmark with sbt", file=sys.stderr)
    try:
        rc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "launcher"],
                            cwd=HERE, stdout=sys.stderr, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL, timeout=BUILD_LIMIT_S - 60).returncode
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if rc != 0 or not LAUNCHER.exists():
        fail(f"build failed (sbt exit {rc})")
    WORK.mkdir(parents=True, exist_ok=True)
    stamp.write_text(digest.hexdigest())
    return True


def jvm(args, master, deadline):
    """Run perfbench.Main once and return its result record."""
    for d in ("tmp", "spark-local", "cwd"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xmx{HEAP}", *JVM_FLAGS, f"-Djava.io.tmpdir={WORK / 'tmp'}",
           *LAUNCHER.read_text().splitlines(), "perfbench.Main", *args]
    env = dict(os.environ, SPARK_MASTER=master, SPARK_LOCAL_DIRS=str(WORK / "spark-local"))
    proc = subprocess.Popen(cmd, cwd=WORK / "cwd", env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{master} run exceeded its time limit")
    if proc.returncode != 0:
        fail(f"{master} run failed with exit code {proc.returncode}")
    marked = [l for l in out.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if not marked:
        fail(f"{master} run printed no result")
    return json.loads(marked[-1][len("PERFBENCH_RESULT "):])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    start = time.monotonic()
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("BENCHMARK.json not found at the repository root")
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail("program sources not found: run from a checkout of the repository")
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    built = build()
    limit = BUILD_LIMIT_S if built else RUN_LIMIT_S
    deadline = start + limit
    nproc = len(os.sched_getaffinity(0))
    master = f"local[{min(nproc, 4)}]"
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace)]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_dir = WORK / "results" / a.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    if a.trace:
        spans = out_dir / f"spans-seed{a.seed}-{stamp}.json"
        res = jvm(common + ["--spans", str(spans)], master, deadline)
        base = jvm(common + ["--baseline", "1"], "local[1]", deadline)
        for name, parts in SPEEDUPS.items():
            k = sum(res["metrics"][p] for p in parts)
            one = sum(base["metrics"][p] for p in parts)
            res["metrics"][name] = one / k if k > 0 else 0.0
        res["baseline_named"] = base["named"]
    else:
        res = jvm(common, master, deadline)
    res["env"]["nproc_affinity"] = nproc

    metrics = {}
    for m in wanted:
        if m["name"] not in res["metrics"]:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = dict(res, workload=a.workload, trace=a.trace, result=result)
    (out_dir / f"seed{a.seed}-trace{a.trace}-{stamp}.json").write_text(json.dumps(record, indent=1))

    aliases = res["aliases"]
    print(f"workload {a.workload}  seed {a.seed}  master {res['env']['master']}  passes {res['passes']}")
    for m in wanted:
        v = metrics[m["name"]]["value"]
        label = m["name"] + (f" ({aliases[m['name']]})" if m["name"] in aliases else "")
        print(f"  {label:<34} {v:>14.6g} {m['unit']:<6} {m['better']} is better")
    if not a.trace:
        for label, key in (("wall", "call{}_s"), ("CPU", "call{}_cpu_s")):
            calls = ", ".join(f"{aliases[key.format(i)]} {res['metrics'][key.format(i)]:.4g} s"
                              for i in range(1, 5))
            print(f"  {label} time per call, recorded without a bound: {calls}")
        print(f"  wall time per pass, recorded without a bound: wall_s {res['metrics']['wall_s']:.4g} s")
    print(f"  ops_attempted {res['attempted']}  ops_failed {res['failed']}")
    for c in res["checks"]:
        if not c["ok"]:
            print(f"  FAILED check: {c['check']} {c['detail']}")
    for n in res["notes"]:
        print(f"  note: {n}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
