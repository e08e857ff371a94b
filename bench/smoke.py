"""Smoke test of the benchmark at tiny sizes, run from the repository root:

    python3 bench/smoke.py

For every workload it checks that
- an untraced run emits every end_to_end metric named in BENCHMARK.json, and
  a traced run every per_layer metric, with every op verified;
- no span's children cover more than the span: each child lies inside its
  parent's interval and no self time is negative;
- an untraced run leaves ``optimizer.fit`` the original function object, and
  a traced run puts it back.
Exits 1 and lists the problems if any check fails.
"""

import json
import math
import sys

import run  # pins BLAS threads and puts src/ on sys.path
import workloads
from spans import self_times

from blockcluster import optimizer

SEED = 1
SECONDS = 0.5


def check_result(label: str, result: dict, expected: set) -> list[str]:
    problems = []
    got = set(result["metrics"])
    if got != expected:
        problems.append(f"{label}: missing {sorted(expected - got)}, extra {sorted(got - expected)}")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            problems.append(f"{label}: {name} = {metric['value']!r}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    return problems


def check_spans(label: str, spans: list) -> list[str]:
    if not spans:
        return [f"{label}: no spans recorded"]
    problems = []
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        if own < 0:
            problems.append(f"{label}: {name} has self time {own!r}")
        if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            problems.append(f"{label}: {name} lies outside its parent {spans[parent][0]}")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    original_fit = optimizer.fit
    problems = []
    for name, sizes in workloads.TINY.items():
        result, _, _ = run.measure(name, SEED, SECONDS, trace=False, sizes=sizes)
        problems += check_result(f"{name} untraced", result, end_to_end)
        if optimizer.fit is not original_fit:
            problems.append(f"{name}: an untraced run replaced optimizer.fit")
        result, _, spans = run.measure(name, SEED, SECONDS, trace=True, sizes=sizes)
        problems += check_result(f"{name} traced", result, per_layer)
        problems += check_spans(f"{name} traced", spans)
        if optimizer.fit is not original_fit:
            problems.append(f"{name}: a traced run left optimizer.fit wrapped")
    for line in problems:
        print(line, file=sys.stderr)
    print(f"smoke: {len(workloads.TINY)} workloads, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
