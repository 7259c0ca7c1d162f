"""Verification suites: lemma-level checks over enumerated small instances.

Each suite is a generator body registered with `@_suite(name)`.  It
yields `(instance, witness)` for every failure, where the witness is
replayable data (instance serialization + parameters), and returns its
summary fields, `{"instances": n, **extra}`.  The one driver in
`_suite` turns that into the list of Report objects that `SUITES[name]()`
returns: the failure reports, sorted by instance id (stable), then one
summary report.  Report order is therefore canonical regardless of how
the per-instance work is scheduled, and every enumeration is
deterministic.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .enumerate import (
    associative_tables,
    binary_structure,
    binary_structures,
    chain_semilattice,
    clique_graph,
    curated_size4_semigroups,
    cyclic_group,
    edgeless_graph,
    grid_graph,
    left_zero,
    path_graph,
    word_monoid_1abab0,
)
from .kronecker import (
    Finite,
    SemigroupMatrix,
    equivalent,
    kronecker_product,
    two_by_two_claim,
)
from .rank import (
    distinct_row_rank,
    graph_cut_rank,
    matrix_ranks,
    monadic_matrix_distinct_rows,
    monadic_type_matrix,
    smallest_prime_at_least,
    type_matrix,
)
from .recovery import (
    rank_decreasing_report,
    recover_partition,
    recover_preorder,
    synth_oracle,
    validate_oracle,
)
from .semigroup import (
    Overflow,
    counts_non_increasing_after_repeat,
    finitary_generator_check,
    identity_suite,
    is_almost_commutative,
    prefix_suffix_multiset_determines,
    syntactic_class_counts,
    validate,
)
from .structures import MonadicStructure, Structure, compositionality_check, subsets
from .trees import (
    Obstruction,
    Orientation,
    all_laminar_trees,
    all_tree_shapes,
    chosen_leaf,
    group_orientation,
    interesting_analysis,
    min_boolean_combination,
    orientation_is_valid,
    set_partitions,
    subforests,
    ternary_decode,
    ternary_encode,
    validate_tree,
)

__all__ = ["Report", "SUITES", "run_suite"]

# The seeded sample sizes and the count cap the suites run at; the
# acceptance tests pin the instance counts they give.
_RANK_SANDWICH_N4_SAMPLE = 800
_SEMIGROUP_COUNT_CAP = 20000
_KRONECKER_TRIALS = 500
_RECOVERY_UNORDERED_TRIALS = 200
_RECOVERY_ORDERED_TRIALS = 100
_COMPOSITIONALITY_N4_SAMPLE = 40


@dataclass(frozen=True)
class Report:
    check: str
    instance: str
    status: str  # "pass" | "fail" | "skip"
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "data": self.data,
        }


SUITES: dict = {}


def _suite(name: str):
    """Register a suite body in SUITES under `name`, in definition order.

    The body is a generator: it yields `(instance, witness)` for each
    failure and returns `{"instances": n, **extra}`.  The registered
    callable runs it and returns the failure reports, stable-sorted by
    instance, then the summary report, whose data keys are `instances`,
    `failures`, then the extras in the body's order.
    """

    def register(body):
        @functools.wraps(body)
        def run() -> list:
            failures = []
            checks = body()
            try:
                while True:
                    instance, witness = next(checks)
                    failures.append(Report(name, instance, "fail", witness))
            except StopIteration as done:
                extra = dict(done.value)
            data = {"instances": extra.pop("instances"), "failures": len(failures), **extra}
            failures.sort(key=lambda r: r.instance)
            status = "fail" if failures else "pass"
            return failures + [Report(name, "summary", status, data)]

        SUITES[name] = run
        return run

    return register


def _hidden_classes(sizes: list) -> list:
    """Consecutive runs of 0, 1, 2, ... with the given sizes."""
    hidden, start = [], 0
    for size in sizes:
        hidden.append(set(range(start, start + size)))
        start += size
    return hidden


# ---------------------------------------------------------------------------
# the suites


def _nodes(t) -> list:
    return sorted(map(sorted, t.nodes))


@_suite("path-bound")
def suite_path_bound():
    """Connected subsets of paths have GF(2) cut-rank at most 2, and the
    bound is attained from 4 vertices on."""
    instances = 0
    for n in range(1, 13):
        g = path_graph(n)
        best = 0
        for a in range(n):
            for b in range(a, n):
                X = set(range(a, b + 1))
                r = graph_cut_rank(g, X)
                best = max(best, r)
                instances += 1
                if r > 2:
                    yield f"path{n}", {"subset": sorted(X), "rank": r}
        if n >= 4 and best != 2:
            yield f"path{n}", {"max_rank": best}
    return {"instances": instances}


@_suite("clique-edgeless")
def suite_clique_edgeless():
    instances = 0
    for n in range(1, 9):
        k, e = clique_graph(n), edgeless_graph(n)
        for X in subsets(range(n)):
            instances += 1
            if graph_cut_rank(k, X) > 1:
                yield f"K{n}", {"subset": sorted(X)}
            if graph_cut_rank(e, X) != 0:
                yield f"E{n}", {"subset": sorted(X)}
    return {"instances": instances}


@_suite("grid-sandwich")
def suite_grid_sandwich():
    """ceil(sqrt(|X|)) - 1 <= cut-rank <= |X| on square grids; violations
    of the tighter slack-free lower bound are reported, not failed."""
    instances = 0
    tighter_violations = 0
    for side in (3, 4):
        g = grid_graph(side, side)
        n = side * side
        for X in subsets(range(n)):
            if not X or len(X) > n // 2:
                continue
            r = graph_cut_rank(g, X)
            lo = math.ceil(math.sqrt(len(X))) - 1
            instances += 1
            if not lo <= r <= len(X):
                yield f"grid{side}x{side}", {"subset": sorted(X), "rank": r}
            if r < lo + 1:
                tighter_violations += 1
    return {"instances": instances, "tighter_violations": tighter_violations}


def _sandwich_checks(s: Structure, label: str):
    n = s.universe_size
    checked = 0
    for X in subsets(range(n)):
        M = type_matrix(s, X, 1)
        dr, dc, fr = matrix_ranks(M)
        p = smallest_prime_at_least(max(len(M.values), 1))
        t = max(len(M.values), 1)
        ok = fr <= dr <= p**fr if dr else fr == 0
        ok = ok and dr <= t**dc and dc <= t**dr
        Mc = type_matrix(s, set(range(n)) - X, 1)
        drc, dcc, _ = matrix_ranks(Mc)
        ok = ok and dr == dcc and dc == drc
        checked += 1
        if not ok:
            yield label, {
                "relation": sorted(map(list, s.relation("E"))),
                "subset": sorted(X),
                "ranks": [dr, dc, fr],
                "complement_ranks": [drc, dcc],
            }
    return checked


@_suite("rank-sandwich")
def suite_rank_sandwich():
    """Rank-variant inequalities and exact transposition duality on all
    binary structures with <= 3 elements plus a seeded n=4 sample (the
    exhaustive n=4 sweep exceeds the time budget)."""
    instances = 0
    for s in binary_structures(3):
        instances += yield from _sandwich_checks(s, f"n{s.universe_size}")
    rng = random.Random(4)
    for _ in range(_RANK_SANDWICH_N4_SAMPLE):
        bits = rng.getrandbits(16)
        s = binary_structure(4, bits)
        instances += yield from _sandwich_checks(s, f"n4-bits{bits}")
    return {"instances": instances}


def _ef_checks(ms: MonadicStructure, subsets: Iterable, label: str):
    checked = 0
    for X in subsets:
        for d in (0, 1):
            hi = monadic_matrix_distinct_rows(monadic_type_matrix(ms, X, d + 1, 1))
            lo = monadic_matrix_distinct_rows(monadic_type_matrix(ms, X, d, 2))
            checked += 1
            if hi > 2**lo:
                yield label, {"subset": sorted(X), "d": d, "hi": hi, "lo": lo}
    return checked


@_suite("ef-bound")
def suite_ef_bound():
    """distinct_rows(M_{d+1,1}) <= 2^distinct_rows(M_{d,2}) for d in {0,1}
    on monadic structures with one unary set relation: exhaustive principal
    interpretations for n <= 3 plus seeded interpretations and an n=4
    sample (full n=4 enumeration exceeds the time budget)."""
    instances = 0
    for n in (2, 3):
        all_X = list(subsets(range(n)))
        for bits in range(1 << n):
            ms = MonadicStructure(n, (("U", 1, frozenset({(bits,)})),))
            instances += yield from _ef_checks(ms, all_X, f"n{n}-principal{bits}")
        rng = random.Random(5 + n)
        for trial in range(10):
            interp = frozenset(
                (b,) for b in range(1 << n) if rng.random() < 0.4
            )
            ms = MonadicStructure(n, (("U", 1, interp),))
            instances += yield from _ef_checks(ms, all_X, f"n{n}-random{trial}")
    rng = random.Random(9)
    all_X = list(subsets(range(4)))
    for bits in range(16):
        ms = MonadicStructure(4, (("U", 1, frozenset({(bits,)})),))
        chosen = [all_X[b] for b in rng.sample(range(16), 4)]
        instances += yield from _ef_checks(ms, chosen, f"n4-principal{bits}")
    return {"instances": instances}


def _tree_corpus(full_leaves: int, shape_leaves: int):
    """(label, tree) pairs: all labeled trees up to full_leaves, shapes
    between full_leaves+1 and shape_leaves."""
    for n in range(1, full_leaves + 1):
        for i, t in enumerate(all_laminar_trees(range(n))):
            yield f"labeled{n}-{i}", t
    for n in range(full_leaves + 1, shape_leaves + 1):
        for i, t in enumerate(all_tree_shapes(n)):
            yield f"shape{n}-{i}", t


@_suite("trees")
def suite_trees():
    """decode(encode) identity; ternary cut-rank >= the interesting-child
    count d; min_boolean_combination = 1 exactly on subforests and their
    complements (complement is one of the allowed boolean operations).
    All labeled trees <= 6 leaves for the identity, <= 5 for the other
    checks, plus all 6- and 7-leaf shapes (the full labeled 7-leaf sweep
    exceeds the time budget); the 8-leaf shapes get the rank check only.
    One pass enumerates each tree once: the 6-leaf shapes are the labeled
    6-leaf trees that get the other checks, under their shape label.

    The rank is read at m = 2 where d >= 2: at m = 1 all cells of a
    nonempty X have one type, so its rank is 1 and the check could not
    fail.  m = 2 is the next m, and the bound held there on every d = 2
    pair of the 8- and 9-leaf shapes.  Where d <= 1 the check stays at
    m = 1."""
    shape6 = {t: f"shape6-{i}" for i, t in enumerate(all_tree_shapes(6))}
    shapes8 = ((f"shape8-{i}", t) for i, t in enumerate(all_tree_shapes(8)))
    instances = d_ge_2 = 0
    for label, t in itertools.chain(_tree_corpus(6, 7), shapes8):
        enc = ternary_encode(t)
        n = len(t.leaves)
        if n < 8:
            instances += 1
            if ternary_decode(enc) != t:
                yield label, {"nodes": _nodes(t)}
        if n == 6:
            if t not in shape6:
                continue
            label = shape6[t]
        sf = subforests(t)
        level1 = ({s for s in sf} | {t.root() - s for s in sf}) - {frozenset(), t.root()}
        for X in subsets(range(n)):
            _, _, d = interesting_analysis(t, X)
            instances += 1
            d_ge_2 += d >= 2
            if distinct_row_rank(enc, X, 2 if d >= 2 else 1) < d:
                yield label, {"subset": sorted(X), "d": d, "nodes": _nodes(t)}
            if n == 8:
                continue
            one = min_boolean_combination(t, X, limit=1) == 1
            if one != (X in level1):
                yield label, {"subset": sorted(X), "bool_one": one, "nodes": _nodes(t)}
    return {"instances": instances, "d_ge_2": d_ge_2}


@_suite("orientation")
def suite_orientation():
    """group_orientation mod 4 succeeds and re-validates on all tree shapes
    <= 9 leaves (labeled 9-leaf trees number in the millions; the
    orientation conditions are label-invariant); mod 3 is obstructed on
    the two-star tree; chosen_leaf is injective wherever defined."""
    instances = 0
    for n in range(1, 10):
        for i, t in enumerate(all_tree_shapes(n)):
            label = f"shape{n}-{i}"
            instances += 1
            o = group_orientation(t, 4)
            if not isinstance(o, Orientation) or not orientation_is_valid(t, o):
                yield label, {"nodes": _nodes(t)}
            else:
                chosen = [chosen_leaf(t, o, node) for node in t.internal_nodes()]
                if len(chosen) != len(set(chosen)):
                    yield label, {"nodes": _nodes(t), "chosen": chosen}
            res = group_orientation(t, 3)
            if isinstance(res, Orientation) and not orientation_is_valid(t, res):
                yield f"{label}-mod3", {"nodes": _nodes(t)}
    two_star = validate_tree(
        [frozenset((i,)) for i in range(6)]
        + [frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset(range(6))]
    )
    instances += 1
    if not isinstance(group_orientation(two_star, 3), Obstruction):
        yield "two-star-mod3", {}
    return {"instances": instances}


def _semigroup_corpus():
    for i, s in enumerate(associative_tables(3)):
        yield f"table{i}", s
    for i, s in enumerate(curated_size4_semigroups()):
        yield f"curated{i}", s


@_suite("semigroups")
def suite_semigroups():
    """Almost-commutative tables satisfy the identity suite and have
    syntactic class counts that never increase after the first repeat
    (k <= 4); the rest grow strictly or overflow the cap.  And a table is
    almost commutative exactly when its products are determined by a
    word's first k letters, last k letters and letter multiset for some
    k <= 2, on words of length <= 6: determination at k holds at every
    larger k, so k = 2 decides it."""
    instances = 0
    ac_count = 0
    for label, S in _semigroup_corpus():
        instances += 1
        ac, _ = is_almost_commutative(S)
        determined, _ = prefix_suffix_multiset_determines(S, 2, 6)
        counts = syntactic_class_counts(S, 4, _SEMIGROUP_COUNT_CAP)
        if ac:
            ac_count += 1
            numeric = all(isinstance(c, int) for c in counts)
            ok = (identity_suite(S).all_hold() and numeric
                  and counts_non_increasing_after_repeat(counts))
        else:
            numeric = [c for c in counts if isinstance(c, int)]
            strictly = all(a < b for a, b in zip(numeric, numeric[1:]))
            ok = strictly or any(isinstance(c, Overflow) for c in counts)
        if not ok or determined != ac:
            yield label, {"table": [list(r) for r in S.table],
                          "almost_commutative": ac,
                          "determined": determined,
                          "counts": [str(c) for c in counts]}
    return {"instances": instances, "almost_commutative": ac_count}


@_suite("finitary-generator")
def suite_finitary_generator():
    """Where the whole semigroup is product-closed onto itself (A*A = A
    with Sigma = A), a finite multiplication-matrix order in either
    orientation implies almost-commutativity."""
    instances = 0
    for label, S in _semigroup_corpus():
        elems = list(S.elements())
        if {S.mult(a, b) for a in elems for b in elems} != set(elems):
            continue
        instances += 1
        if not finitary_generator_check(S, elems, budget=6)["consistent"]:
            yield label, {"table": [list(r) for r in S.table]}
    return {"instances": instances}


@_suite("two-by-two")
def suite_two_by_two():
    """On every monoid in the corpus and every (b, c, d): a certified
    finite order of [[1,b],[c,d]] forces d = bc = cb, and any mismatch
    yields n distinct singleton rows at Kronecker power n for n <= 6."""
    instances = 0
    for label, S in _semigroup_corpus():
        unit = next(
            (e for e in S.elements()
             if all(S.mult(e, a) == a and S.mult(a, e) == a for a in S.elements())),
            None,
        )
        if unit is None:
            continue
        M = validate([list(r) for r in S.table], unit=unit)
        for b, c, d in itertools.product(M.elements(), repeat=3):
            instances += 1
            report = two_by_two_claim(M, b, c, d, budget=5)
            witness = {"table": [list(r) for r in M.table], "b": b, "c": c, "d": d}
            if isinstance(report["order"], Finite) and not report["claim_holds"]:
                yield label, dict(witness, kind="claim")
            mismatch = d != report["bc"] or d != report["cb"]
            if mismatch and not report["growth_verified"]:
                yield label, dict(witness, kind="growth")
    return {"instances": instances}


@_suite("kronecker-inequality")
def suite_kronecker_inequality():
    """distinct rows of a Kronecker product never exceed the product of
    the factors' distinct row counts; plus an equivalence-congruence
    spot-check on duplicated-row variants."""
    sgps = [cyclic_group(2), cyclic_group(3), left_zero(2),
            word_monoid_1abab0(), chain_semilattice(3)]
    rng = random.Random(11)
    instances = 0

    def distinct_rows(M):
        return len(set(M.entries))

    def random_matrix(S):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        return SemigroupMatrix.make(
            [[rng.randrange(S.size) for _ in range(c)] for _ in range(r)], S
        )

    def witness(M1, M2):
        return {"m1": [list(r) for r in M1.entries], "m2": [list(r) for r in M2.entries]}

    for trial in range(_KRONECKER_TRIALS):
        S = sgps[trial % len(sgps)]
        M1, M2 = random_matrix(S), random_matrix(S)
        P = kronecker_product(M1, M2)
        instances += 1
        if distinct_rows(P) > distinct_rows(M1) * distinct_rows(M2):
            yield f"trial{trial}", witness(M1, M2)

    def with_duplicate_row(M):
        rows = [list(r) for r in M.entries] + [list(M.entries[0])]
        return SemigroupMatrix.make(rows, M.semigroup)

    for trial in range(20):
        S = sgps[trial % len(sgps)]
        M1, M2 = random_matrix(S), random_matrix(S)
        D1, D2 = with_duplicate_row(M1), with_duplicate_row(M2)
        instances += 1
        congruent = (
            equivalent(M1, D1)
            and equivalent(M2, D2)
            and equivalent(kronecker_product(M1, M2), kronecker_product(D1, D2))
        )
        if not congruent:
            yield f"congruence{trial}", witness(M1, M2)
    return {"instances": instances}


@_suite("recovery")
def suite_recovery():
    """Seeded synthesized oracles: recover_partition and recover_preorder
    return exactly the hidden structure on every validated instance.
    Unordered instances use k=1 to keep the counter semigroup at 8
    elements; ordered ones use k=2, d=2."""
    instances = 0
    rng = random.Random(12)
    for trial in range(_RECOVERY_UNORDERED_TRIALS):
        n_classes = rng.randint(2, 6)
        sizes = [rng.randint(1, 5) for _ in range(n_classes)]
        while sum(sizes) > 30:
            sizes[rng.randrange(n_classes)] = max(
                1, sizes[rng.randrange(n_classes)] - 1
            )
        hidden = _hidden_classes(sizes)
        oracle = synth_oracle("unordered", hidden, 1)
        validate_oracle(oracle, samples=256)
        instances += 1
        if set(recover_partition(oracle)) != {frozenset(c) for c in hidden}:
            yield f"unordered{trial}", {"sizes": sizes, "k": 1}
    for trial in range(_RECOVERY_ORDERED_TRIALS):
        n_classes = rng.randint(2, 12)
        sizes = [rng.randint(1, 3) for _ in range(n_classes)]
        hidden = _hidden_classes(sizes)
        oracle = synth_oracle("ordered", hidden, 2)
        validate_oracle(oracle, samples=256)
        instances += 1
        recovered = recover_preorder(oracle, 2)
        if recovered.classes != tuple(frozenset(c) for c in hidden):
            yield f"ordered{trial}", {"sizes": sizes, "k": 2, "d": 2}
    return {"instances": instances}


@_suite("compositionality")
def suite_compositionality():
    """Reconstruction of quantifier-free types from per-part local type
    colours, exact on all (structure, partition) pairs for n <= 3 with
    m = 2, plus a seeded n=4 sample of ``_COMPOSITIONALITY_N4_SAMPLE``
    structures.  The exhaustive n=4 sweep, one structure per isomorphism
    class (3044) against all 15 partitions, passes; its checks take about
    12 s (20-23 s before local types were typed against tails shorter than
    the widest relation), against about 0.7 s for this whole suite (2-vCPU
    VM, Python 3.11.7).  So it waits for an orbit-representative corpus
    and a faster typer."""
    instances = 0
    rng = random.Random(13)
    sizes_and_bits = [(n, bits) for n in (1, 2, 3) for bits in range(1 << n * n)]
    sizes_and_bits += [(4, rng.getrandbits(16)) for _ in range(_COMPOSITIONALITY_N4_SAMPLE)]
    partitions = {n: list(set_partitions(list(range(n)))) for n in (1, 2, 3, 4)}
    for n, bits in sizes_and_bits:
        s = binary_structure(n, bits)
        for partition in partitions[n]:
            instances += 1
            if not compositionality_check(s, partition, 2)[0]:
                yield f"n{n}-bits{bits}", {"relation": sorted(map(list, s.relation("E"))),
                                           "partition": partition}
    return {"instances": instances}


def _rank_table(inp, out) -> tuple:
    """The rank table of one (input, output) pair, its keys strings as JSON
    writes them, and whether the pair is flagged."""
    table, witness = rank_decreasing_report(inp, out)
    return {str(k): v for k, v in table.items()}, witness is not None


@_suite("rank-decreasing")
def suite_rank_decreasing():
    """Identity pairs yield a diagonal table; the K8 -> P8 edge-removal
    fixture has a subset whose rank grows from <= 1 to >= 2."""
    g = path_graph(4)
    table, flagged = _rank_table(g, g)
    if flagged or any(int(r_in) != r_out for r_in, r_out in table.items()):
        yield "identity-path4", {"table": table}
    table, flagged = _rank_table(clique_graph(8), path_graph(8))
    if table.get("1", 0) < 2 or not flagged:
        yield "K8-to-P8", {"table": dict(table)}
    return {"instances": 2, "k8_p8_table": table}


def run_suite(name: str) -> list:
    if name == "all":
        return [report for run in SUITES.values() for report in run()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES) + ["all"]))
    return SUITES[name]()
