"""Closed-loop benchmark of the rankmat verifier.

    python3 perfbench/run.py --workload types --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one thread: each instance starts only after the previous one
has its verdict.  A pass re-imports rankmat from ``src/`` (so no cache
survives from one pass to the next), builds the run's instances (together
these are the set-up), then runs every instance and checks its verdict.
Passes repeat while another one fits into ``--seconds``.  Times are
reported at a reference machine speed (see ``Pass.slowdowns`` and
``at_reference_speed``).  ``--workload all`` runs each workload in its own
process.

With ``--trace 0`` the last line of stdout is the end-to-end result.  With
``--trace 1`` traced and untraced passes alternate; the traced ones record
a span around every driver-level layer call, and the last line holds the
per-layer metrics plus the tracing overhead.  Spans are written to
``.bench_trace/`` at the end.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from workloads import WORKLOADS, CheckFailed, digest, input_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# the probe's time at the reference speed: about its median when run alone
# on the 2-vCPU machine the benchmark was tuned on
PROBE_REFERENCE_S = 0.0005

# the driver-level calls that get a span in a traced pass
LAYERS = {
    "structures": ("local_type_index", "compositionality_check", "composition_tables"),
    "rank": ("type_matrix", "matrix_ranks", "monadic_type_matrix", "graph_cut_rank",
             "distinct_row_rank"),
    "trees": ("validate_tree", "ternary_encode", "ternary_decode", "interesting_analysis",
              "min_boolean_combination", "group_orientation"),
    "semigroup": ("syntactic_class_count", "identity_suite", "is_almost_commutative"),
    "kronecker": ("kronecker_product", "equivalent", "finite_order", "two_by_two_claim"),
    "recovery": ("synth_oracle", "validate_oracle", "recover_partition", "recover_preorder"),
}


def _cells(_mods, matrix) -> int:
    return len(matrix.rows) * len(matrix.cols)


# counts taken from a layer call's return value: span name -> (counter, count)
RESULT_COUNTS = {
    "rank.type_matrix": ("rank.type_matrix.cells", _cells),
    "rank.monadic_type_matrix": ("rank.monadic_type_matrix.cells", _cells),
    "semigroup.syntactic_class_count": (
        "semigroup.syntactic_class_count.overflows",
        lambda mods, r: int(isinstance(r, mods.semigroup.Overflow))),
    "kronecker.finite_order": (
        "kronecker.finite_order.unknowns",
        lambda mods, r: int(isinstance(r, mods.kronecker.Unknown))),
}


def load_rankmat() -> SimpleNamespace:
    """Import the layer modules afresh from src/, dropping earlier imports."""
    for name in [n for n in sys.modules if n == "rankmat" or n.startswith("rankmat.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"rankmat.{m}") for m in LAYERS})
    if SRC not in Path(mods.structures.__file__).resolve().parents:
        raise ImportError(f"rankmat was imported from {mods.structures.__file__}, not {SRC}")
    return mods


class Tracer:
    """Spans of one traced pass and the counts taken at the same calls.

    ``layers`` mirrors ``mods`` for the functions in LAYERS, each wrapped
    to record (name, start, end, instance).  The oracles' public ``phi`` is
    wrapped on the class, so sub-oracles built inside recovery count too.
    """

    def __init__(self, mods: SimpleNamespace):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.instance = None
        self.layers = SimpleNamespace(**{
            module: SimpleNamespace(**{
                fn: self._wrap(f"{module}.{fn}", getattr(getattr(mods, module), fn), mods)
                for fn in fns
            })
            for module, fns in LAYERS.items()
        })
        oracle = mods.recovery.UnorderedOracle
        phi = oracle.phi
        counts = self.counts

        def counted_phi(self_, Y):
            counts["recovery.phi.calls"] += 1
            return phi(self_, Y)

        oracle.phi = counted_phi

    def _wrap(self, name: str, fn, mods):
        spans = self.spans
        count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, start, perf_counter(), self.instance))
            if count is not None:
                self.counts[count[0]] += count[1](mods, result)
            return result

        return traced


def probe() -> int:
    """A fixed piece of pure-Python work: tuples, a dict and frozensets as
    the layers use them, then integer arithmetic."""
    total, seen = 0, {}
    for i in range(600):
        t = (i, i ^ 5, i & 3)
        seen[t] = frozenset(t)
        total += len(seen[t])
    for i in range(3000):
        total += i * i % 7
    return total


def timed_probe() -> float:
    start = perf_counter()
    probe()
    return perf_counter() - start


@dataclass
class Pass:
    traced: bool
    setup_s: float
    latencies: list  # seconds, one per instance in plan order
    probes: list  # seconds: the probe before each instance, then one after the last
    failed: int
    tracer: Tracer = None
    instance_spans: list = field(default_factory=list)

    def slowdowns(self) -> list:
        """Per instance, how many times slower than the reference speed the
        machine ran: the mean of the probes before the previous instance,
        before this one and after it, over PROBE_REFERENCE_S.

        The shared 2-vCPU machine the benchmark was tuned on changes speed
        every few seconds and drifts over tens of minutes: a fixed Python
        loop took from 23 to 37 ms, in CPU time as in wall time, and some
        30-second runs stayed slow throughout.  See instance_latencies.
        """
        p = self.probes
        return [statistics.fmean(p[max(i - 1, 0):i + 2]) / PROBE_REFERENCE_S
                for i in range(len(self.latencies))]


def run_pass(workload, plan: list, golden: dict, traced: bool, failures: list) -> Pass:
    gc.collect()
    t0 = perf_counter()
    mods = load_rankmat()
    built = [workload.build[kind](mods, spec) for kind, spec in plan]
    setup_s = perf_counter() - t0
    tracer = Tracer(mods) if traced else None
    layers = tracer.layers if traced else mods
    latencies, probes, instance_spans = [], [], []
    failed = 0
    for i, ((kind, spec), args) in enumerate(zip(plan, built)):
        if tracer is not None:
            tracer.instance = i
        probes.append(timed_probe())
        start = perf_counter()
        try:
            outputs = workload.run[kind](layers, mods, args)
            error = None
        except CheckFailed as exc:
            error = f"wrong verdict: {exc}"
        except Exception as exc:  # an error or a cap is a failed instance, not a crash
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        latencies.append(end - start)
        instance_spans.append((kind, start, end))
        key = input_key(kind, spec)
        if error is None and golden.get(key, {}).get("digest") != digest(outputs):
            error = "outputs differ from the recorded digest" if key in golden \
                else "no recorded digest for this input"
        if error is not None:
            failed += 1
            failures.append(f"{kind} {key}: {error}")
    probes.append(timed_probe())
    return Pass(traced, setup_s, latencies, probes, failed, tracer, instance_spans)


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def at_reference_speed(times: list, slowdowns: list) -> float:
    """The fastest of one item's times over the passes, divided by the
    smallest slowdown seen around it over the same passes.

    If the run saw a fast spell, both minima come from it; if it was slow
    throughout, the division scales the time back.  Over 30-second
    stretches of the same work on the tuning machine, the spread of
    totals and percentiles was 20-45% for medians of raw times, 6-11%
    for their minima, 2-10% for medians of scaled times, and 1.4-8% for
    this.
    """
    return min(times) / min(slowdowns)


def instance_latencies(passes: list) -> list:
    """Each instance's latency at reference speed, sorted."""
    return sorted(
        at_reference_speed(times, slowdowns)
        for times, slowdowns in zip(zip(*(p.latencies for p in passes)),
                                    zip(*(p.slowdowns() for p in passes)))
    )


def verdict_s(passes: list) -> float:
    """Time until the whole instance set has a verdict: the sum of the
    instances' latencies."""
    return sum(instance_latencies(passes))


def end_to_end_metrics(passes: list) -> dict:
    per_instance = instance_latencies(passes)
    return {
        # the probes next to set-up run slow after the imports, so set-up
        # is scaled by the pass's median slowdown
        "setup_s": (at_reference_speed([p.setup_s for p in passes],
                                       [statistics.median(p.slowdowns()) for p in passes]), "s"),
        "verdict_s": (sum(per_instance), "s"),
        "instance_p50_ms": (nearest_rank(per_instance, 0.5) * 1e3, "ms"),
        "instance_p90_ms": (nearest_rank(per_instance, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(passes: list) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    calls, busy = [], []
    for p in traced:
        c, b = Counter(), Counter()
        slowdowns = p.slowdowns()
        for name, start, end, instance in p.tracer.spans:
            c[name] += 1
            b[name] += (end - start) / slowdowns[instance]
        calls.append(c)
        busy.append(b)
    counts = traced[0].tracer.counts
    metrics = {}
    for module, fns in LAYERS.items():
        for fn in fns:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls"] = (calls[0][name], "count")
            metrics[f"{name}.busy_s"] = (statistics.median(b[name] for b in busy), "s")
    for name in ("rank.type_matrix.cells", "rank.monadic_type_matrix.cells", "recovery.phi.calls"):
        metrics[name] = (counts[name], "count")
    for name, outcome in (("semigroup.syntactic_class_count", "overflows"),
                          ("kronecker.finite_order", "unknowns")):
        attempts = calls[0][name]
        ratio = counts[f"{name}.{outcome}"] / attempts if attempts else 0.0
        metrics[f"{name}.{outcome[:-1]}_ratio"] = (ratio, "ratio")
    overhead = verdict_s(traced) - verdict_s(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def write_spans(path: Path, passes: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for n, p in enumerate(passes):
            if not p.traced:
                continue
            for i, (kind, start, end) in enumerate(p.instance_spans):
                out.write(json.dumps({"pass": n, "name": "instance", "id": i, "kind": kind,
                                      "start": start, "end": end, "parent": None}) + "\n")
            for name, start, end, parent in p.tracer.spans:
                out.write(json.dumps({"pass": n, "name": name, "start": start, "end": end,
                                      "parent": parent}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, golden: dict = None) -> dict:
    """Runs passes of one workload for ``seconds`` and returns the result
    object that run.py prints as its last line."""
    workload = WORKLOADS[name]
    if golden is None:
        golden = json.loads(GOLDEN.read_text())[name]
    plan = workload.plan(seed, {key: entry["cost_ms"] for key, entry in golden.items()}, small)
    passes, failures = [], []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = perf_counter()
        passes.append(run_pass(workload, plan, golden, traced, failures))
        now = perf_counter()
        # stop before a pass that would overrun the time given
        if len(passes) >= 1 + trace and now - start + (now - pass_start) > seconds:
            break
    for line in dict.fromkeys(failures):
        print(f"FAIL {name}: {line}", file=sys.stderr)
    attempted = len(plan) * len(passes)
    failed = sum(p.failed for p in passes)
    metrics = layer_metrics(passes) if trace else end_to_end_metrics(passes)
    if trace:
        write_spans(ROOT / ".bench_trace" / f"{name}-seed{seed}.jsonl", passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "instances": len(plan),
        "passes": len(passes),
        "slowdown": statistics.median(s for p in passes for s in p.slowdowns()),
    }


def describe(name: str, result: dict) -> list:
    lines = [f"{name}: {result['instances']} instances x {result['passes']} passes,"
             f" machine {result['slowdown']:.3g} times slower than the reference speed"]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_ratio':<44} {ratio:>14.6g} ratio"
                 f" ({result['failed']} of {result['attempted']})")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory and set-up
    are per workload and no cache leaks from one workload to the next."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=args.seconds + 170)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: no result (exit {child.returncode})")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankmat" / "structures.py").is_file():
        print(f"rankmat sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(describe(args.workload, result)))
    del result["instances"], result["passes"], result["slowdown"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
