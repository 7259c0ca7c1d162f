"""Self-test of the benchmark at tiny sizes: one instance per stratum.

    python3 perfbench/selftest.py

Checks, for every workload, that the same seed gives identical inputs and
output digests and another seed gives other inputs; that no instance fails
against the recorded digests; that a wrong recorded digest is caught; and
that the metrics printed match the names in BENCHMARK.json.
"""
from __future__ import annotations

import json
import sys

from run import GOLDEN, ROOT, SRC, load_rankmat, run_pass, run_workload
from workloads import WORKLOADS, digest, input_key


def output_digests(workload, plan: list) -> list:
    mods = load_rankmat()
    return [digest(workload.run[kind](mods, mods, workload.build[kind](mods, spec)))
            for kind, spec in plan]


def check_workload(name: str, golden: dict, declared: dict) -> list:
    workload = WORKLOADS[name]
    problems = []
    cost_ms = {key: entry["cost_ms"] for key, entry in golden.items()}
    plan = workload.plan(1, cost_ms, small=True)
    if plan != workload.plan(1, cost_ms, small=True):
        problems.append("the same seed gave other inputs")
    if (plan == workload.plan(2, cost_ms, small=True)
            or workload.plan(1, cost_ms) == workload.plan(2, cost_ms)):
        problems.append("another seed gave the same inputs")
    if output_digests(workload, plan) != output_digests(workload, plan):
        problems.append("the same inputs gave other outputs")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run_workload(name, 1, 0, trace, small=True, golden=golden)
        if result["failed"] or not result["correct"]:
            problems.append(f"{result['failed']} of {result['attempted']} instances failed")
        if set(result["metrics"]) != declared[kind]:
            problems.append(f"{kind} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ declared[kind])}")
    kind, spec = plan[0]
    key = input_key(kind, spec)
    tampered = dict(golden, **{key: dict(golden[key], digest="0" * 16)})
    if run_pass(workload, plan, tampered, False, []).failed != 1:
        problems.append("a wrong recorded digest went unnoticed")
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    golden = json.loads(GOLDEN.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"] for m in benchmark[kind]} for kind in ("end_to_end", "per_layer")}
    if {w["name"] for w in benchmark["workloads"]} != set(WORKLOADS):
        print("FAIL: BENCHMARK.json lists other workloads", file=sys.stderr)
        return 1
    status = 0
    for name in WORKLOADS:
        problems = check_workload(name, golden[name], declared)
        for problem in problems:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
