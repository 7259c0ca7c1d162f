"""Records golden.json: for every pool item, the digest of its semantic
outputs and its cost.

    python3 perfbench/record_golden.py

Run it only on the commit whose outputs are the reference.  Every pool
item must pass its construction and lemma checks, or nothing is written.
An item's cost is its fastest of three timed runs, taken in three rounds
over its stratum so that a slow spell of the machine does not skew the
order of neighbouring items.  run.py uses the costs only to stratify its
samples (see ``Workload.plan``).
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

from run import GOLDEN, SRC, load_rankmat
from workloads import WORKLOADS, digest, input_key

ROUNDS = 3


def main() -> int:
    sys.path.insert(0, str(SRC))
    golden = {}
    for name, workload in WORKLOADS.items():
        mods = load_rankmat()
        entries = {}
        for stratum in workload.pool():
            run = workload.run[stratum.kind]
            items = [(input_key(stratum.kind, spec), workload.build[stratum.kind](mods, spec))
                     for spec in set(stratum.pool)]
            costs = {key: float("inf") for key, _ in items}
            for _ in range(ROUNDS):
                for key, args in items:
                    start = perf_counter()
                    outputs = run(mods, mods, args)
                    costs[key] = min(costs[key], perf_counter() - start)
                    d = digest(outputs)
                    if entries.setdefault(key, {"digest": d})["digest"] != d:
                        raise RuntimeError(f"{name} {key}: outputs differ between runs")
            for key, cost in costs.items():
                entries[key]["cost_ms"] = round(cost * 1e3, 3)
        golden[name] = entries
        print(f"{name}: {len(entries)} pool items")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
