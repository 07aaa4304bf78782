#!/usr/bin/env python3
"""Check that the benchmark is steady, from the repository root.

    python3 perfbench/proof.py run --seeds 10 [--workloads a,b] --out set1.json
    python3 perfbench/proof.py compare set1.json set2.json
    python3 perfbench/proof.py self-test

`run` runs every workload once per seed (seeds 1..N) with the run length
of BENCHMARK.json and tracing off, then prints, per end-to-end metric, the
median of the N values and their spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.
A spread should stay below a third of the metric's bound (setup_s is
exempt). `compare` checks that no metric's median in the second set is
worse than in the first by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def spread(values):
    """(q3 - q1) / median of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(seeds, workloads):
    results = {}
    for w in workloads:
        for seed in range(1, seeds + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not line.startswith("{"):
                sys.exit(f"{w} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
            res = json.loads(line)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect output:\n{out.stderr[-2000:]}")
            for name, m in res["metrics"].items():
                results.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: ok", file=sys.stderr, flush=True)
    return results


def report(results):
    steady = True
    for w, metrics in results.items():
        print(f"\n{w}")
        for name, values in metrics.items():
            s = spread(values)
            bound = BOUNDS[name]["bound"]
            ok = name == "setup_s" or s < bound / 3
            steady &= ok
            print(f"  {name:<14} median {statistics.median(values):>14.6g}  spread {s:6.3f}"
                  f"  bound {bound:.2f}  {'ok' if ok else 'TOO WIDE'}")
    return steady


def compare(first, second):
    ok = True
    for w, metrics in first.items():
        for name, values in metrics.items():
            m = BOUNDS[name]
            a, b = statistics.median(values), statistics.median(second[w][name])
            d = worse_by(a, b, m["better"])
            flag = "ok" if d <= m["bound"] else "WORSE"
            ok &= d <= m["bound"]
            print(f"{w:<12} {name:<14} {a:>12.6g} -> {b:>12.6g}  worse by {d:+.3f}"
                  f" (bound {m['bound']:.2f}) {flag}")
    return ok


def self_test():
    # statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
    assert abs(spread([1, 2, 3, 4, 5, 6, 7, 8]) - 4.5 / 4.5) < 1e-12
    assert spread([5.0] * 10) == 0.0
    assert abs(spread([9, 10, 10, 10, 11]) - 1.0 / 10) < 1e-12
    assert abs(worse_by(100, 110, "lower") - 0.10) < 1e-12
    assert abs(worse_by(100, 110, "higher") + 0.10) < 1e-12
    print("self-test ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", type=int, default=10)
    r.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    sub.add_parser("self-test")
    a = p.parse_args()
    if a.cmd == "self-test":
        self_test()
    elif a.cmd == "run":
        results = run_set(a.seeds, a.workloads.split(","))
        Path(a.out).write_text(json.dumps(results, indent=1))
        sys.exit(0 if report(results) else 1)
    else:
        first, second = (json.loads(Path(f).read_text()) for f in (a.first, a.second))
        sys.exit(0 if compare(first, second) else 1)


if __name__ == "__main__":
    main()
