"""Self-test of the benchmark's traced runs.

    python3 perfbench/selftest.py

For each of the three workloads it makes two traced runs with seed 7, each
in its own process, and checks that:

- every count and ratio metric (unit ``count`` or ``ratio``) is identical in
  the two runs;
- the per-layer self times cover the traced ops' wall time to within 10 %
  (``trace.coverage.pct`` between 90 and 110);
- both runs pass their output checks.

Exits 0 when every check holds and 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
WORKLOADS = ("train", "detect", "evaluate")


def traced_metrics(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def check(workload, seed):
    first, second = traced_metrics(workload, seed), traced_metrics(workload, seed)
    problems = []
    for run in (first, second):
        if not run["correct"]:
            problems.append(f"output checks failed ({run['failed']} of {run['attempted']})")
    counts = {k: v for k, v in first["metrics"].items() if v["unit"] in ("count", "ratio")}
    for name, metric in counts.items():
        again = second["metrics"][name]["value"]
        if metric["value"] != again:
            problems.append(f"{name}: {metric['value']!r} then {again!r}")
    for run in (first, second):
        coverage = run["metrics"]["trace.coverage.pct"]["value"]
        if not 90.0 <= coverage <= 110.0:
            problems.append(f"self times cover {coverage:.2f} % of wall time")
    print(f"{workload}: {len(counts)} counts identical in two runs"
          if not problems else f"{workload}: FAILED")
    print(f"  coverage {first['metrics']['trace.coverage.pct']['value']:.2f} % and "
          f"{second['metrics']['trace.coverage.pct']['value']:.2f} %; tracing overhead "
          f"{first['metrics']['trace.overhead.pct']['value']:+.2f} % and "
          f"{second['metrics']['trace.overhead.pct']['value']:+.2f} %")
    for problem in problems:
        print(f"  {problem}")
    return not problems


def main():
    ok = [check(w, SEED) for w in WORKLOADS]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
