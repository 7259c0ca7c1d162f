"""The benchmark's four workloads: instance pools, set-up and verdicts.

Every workload draws its instances from a fixed pool of plain-data specs.
The pool is built from POOL_SEED and does not depend on the run seed, so
the digest of every pool item's semantic outputs is recorded once, in
golden.json, and checked on whatever seed a run uses.  golden.json also
holds each item's cost at the seed commit; the run seed picks a sample of
the pool stratified by kind and cost (see ``Workload.plan``), so that the
mix of cheap and expensive instances is the same for every seed.

Each instance kind has a ``build`` step (turn the spec into program
objects; part of set-up) and a ``run`` step (the timed layer calls plus
the check of every verdict against an answer known from construction or
from a lemma of the paper).  ``run`` returns the instance's semantic
outputs: ranks, counts, booleans and recovered partitions.  Normal-form
layouts and content hashes are left out on purpose, because a change of
canonical form may change them legitimately.

Layer calls go through ``L.<module>.<function>``; every other program
function a check needs is called through ``mods`` and is not traced.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

POOL_SEED = 20240124


class CheckFailed(Exception):
    """A verdict contradicts the answer known from construction or a lemma."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def input_key(kind: str, spec) -> str:
    return digest([kind, spec])


@dataclass(frozen=True)
class Stratum:
    kind: str
    pool: tuple  # plain-data specs
    take: int  # instances drawn from the pool per run


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable  # () -> list of Stratum
    build: dict  # kind -> (mods, spec) -> args
    run: dict  # kind -> (L, mods, args) -> semantic outputs

    def plan(self, seed: int, cost_ms: dict, small: bool = False) -> list:
        """The run's (kind, spec) instances, shuffled: a seeded sample of
        the pool, stratified by kind and by cost.

        Each stratum's pool is sorted by every item's cost at the seed
        commit (``cost_ms``, keyed by input_key) and cut into ``take``
        bins of neighbouring cost; the run draws one item from each bin.
        Every seed thus gets the same cost profile, which keeps totals and
        percentiles steady across seeds.  ``small`` draws one item per
        stratum.
        """
        rng = random.Random(f"{self.name}-{seed}")
        chosen = []
        for stratum in self.pool():
            take = 1 if small else stratum.take
            pool = sorted(set(stratum.pool),
                          key=lambda spec: (cost_ms[input_key(stratum.kind, spec)], spec))
            for b in range(take):
                spec = pool[rng.randrange(b * len(pool) // take, (b + 1) * len(pool) // take)]
                chosen.append((stratum.kind, spec))
        rng.shuffle(chosen)
        return chosen


def _bits_set(bits: int, n: int) -> frozenset:
    return frozenset(i for i in range(n) if bits >> i & 1)


def _set_partition(rng: random.Random, n: int) -> tuple:
    """A random set partition of range(n) from a restricted growth string."""
    labels = [0]
    for _ in range(1, n):
        labels.append(rng.randint(0, max(labels) + 1))
    return tuple(
        tuple(i for i in range(n) if labels[i] == b) for b in range(max(labels) + 1)
    )


# ---------------------------------------------------------------------------
# types: structures and rank


def _types_pool() -> list:
    rng = random.Random(f"types-{POOL_SEED}")
    strata = []
    for n in (3, 4):
        for m in (1, 2):
            specs = tuple((n, rng.getrandbits(n * n), m) for _ in range(60))
            strata.append(Stratum("sandwich", specs, 10))
    # 20 of the 130 instances are depth-1 EF checks: 16 on three elements,
    # which set the 90th percentile, and 4 on four elements, the tail above
    # it.  Making the four-element ones the p90 (a sixth of the instances)
    # gave 3 to 4 s passes and 13% run-to-run spread in verdict_s; see
    # README.md, "Why these counts".
    for n, d, pool, take in ((3, 0, 40, 10), (3, 1, 40, 16), (4, 0, 40, 10), (4, 1, 16, 4)):
        specs = tuple(
            (n, tuple(b for b in range(1 << n) if rng.random() < 0.4),
             rng.randrange(1 << n), d)
            for _ in range(pool)
        )
        strata.append(Stratum("ef", specs, take))
    for n, take in ((3, 10), (4, 20)):
        specs = tuple(
            (n, rng.getrandbits(n * n), _set_partition(rng, n)) for _ in range(3 * take)
        )
        strata.append(Stratum("composition", specs, take))
    grid_subsets = [b for b in range(1, 1 << 16) if bin(b).count("1") <= 8]
    specs = tuple(tuple(rng.sample(grid_subsets, 8)) for _ in range(80))
    strata.append(Stratum("grid", specs, 20))
    return strata


def _binary_structure(mods, n: int, relbits: int):
    pairs = list(product(range(n), repeat=2))
    rel = {pairs[i] for i in range(n * n) if relbits >> i & 1}
    vocabulary = mods.structures.Vocabulary((("E", 2),))
    return mods.structures.Structure.make(vocabulary, n, {"E": rel})


def _build_sandwich(mods, spec):
    n, relbits, m = spec
    return _binary_structure(mods, n, relbits), n, m


def _run_sandwich(L, mods, args):
    """Rank sandwich and transposition duality over every subset X."""
    s, n, m = args
    ranks = []
    for bits in range(1 << n):
        M = L.rank.type_matrix(s, _bits_set(bits, n), m)
        dr, dc, fr = L.rank.matrix_ranks(M)
        t = max(len(M.values), 1)
        p = mods.rank.smallest_prime_at_least(t)
        require(fr <= dr <= p**fr if dr else fr == 0, f"field rank sandwich at X={bits}")
        require(dr <= t**dc and dc <= t**dr, f"row/column sandwich at X={bits}")
        ranks.append([dr, dc, fr])
    full = (1 << n) - 1
    for bits, (dr, dc, _) in enumerate(ranks):
        require(ranks[full ^ bits][:2] == [dc, dr], f"transposition duality at X={bits}")
    return ranks


def _build_ef(mods, spec):
    n, interp, xbits, d = spec
    ms = mods.structures.MonadicStructure(n, (("U", 1, frozenset((b,) for b in interp)),))
    return ms, _bits_set(xbits, n), d


def _run_ef(L, mods, args):
    """EF bound: distinct rows of M_{d+1,1} <= 2 ** distinct rows of M_{d,2}."""
    ms, X, d = args
    rows = mods.rank.monadic_matrix_distinct_rows
    hi = rows(L.rank.monadic_type_matrix(ms, X, d + 1, 1))
    lo = rows(L.rank.monadic_type_matrix(ms, X, d, 2))
    require(hi <= 2**lo, f"EF bound hi={hi} lo={lo}")
    return [hi, lo]


def _build_composition(mods, spec):
    n, relbits, partition = spec
    return _binary_structure(mods, n, relbits), [list(p) for p in partition]


def _run_composition(L, mods, args):
    """Local type classes partition each part's partial pairs; the type of
    every partial pair is determined by its per-part local types; the
    composition table is consistent (composition_tables raises otherwise)."""
    s, parts = args
    class_counts = []
    for part in parts:
        index = L.structures.local_type_index(s, part, 2, 2)
        members = sum(len(c) for c in index.classes)
        require(members == (len(part) + 1) ** 2, f"local classes of {part} miss tuples")
        class_counts.append(len(index.classes))
    ok, _ = L.structures.compositionality_check(s, parts, 2)
    require(ok, "compositionality")
    _, gamma, colours = L.structures.composition_tables(s, parts, len(parts), 2)
    require(len(colours) == sum(class_counts), "one colour per local class")
    return [class_counts, len(gamma)]


def _grid_graph(mods, side: int):
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return mods.rank.Graph.make(side * side, edges)


def _build_grid(mods, spec):
    return _grid_graph(mods, 4), spec


def _run_grid(L, mods, args):
    """ceil(sqrt|X|) - 1 <= cut-rank <= min(|X|, n - |X|) on the 4x4 grid."""
    g, subsets = args
    ranks = []
    for bits in subsets:
        X = _bits_set(bits, 16)
        r = L.rank.graph_cut_rank(g, X)
        upper = mods.rank.reference_rank("grid", g, X)
        require(math.ceil(math.sqrt(len(X))) - 1 <= r <= upper, f"grid sandwich at X={bits}")
        ranks.append(r)
    return ranks


TYPES = Workload(
    "types",
    _types_pool,
    {"sandwich": _build_sandwich, "ef": _build_ef,
     "composition": _build_composition, "grid": _build_grid},
    {"sandwich": _run_sandwich, "ef": _run_ef,
     "composition": _run_composition, "grid": _run_grid},
)


# ---------------------------------------------------------------------------
# algebra: semigroup and kronecker


def _table(n: int, mul) -> tuple:
    return tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))


def _associative(table: tuple) -> bool:
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def _nilpotent(a: int, b: int) -> int:
    # {1, a, b, 0} as 0, 1, 2, 3: 0 is the unit, 3 the zero, letters square to 0
    if a == 0:
        return b
    if b == 0:
        return a
    return 3


def semigroup_corpus() -> list:
    """All associative tables of size 1..3, in table-content order, then the
    curated size-4 family: Z4, Z2xZ2, left and right zero, the 2x2
    rectangular band, the 4-chain semilattice and the nilpotent monoid."""
    tables = []
    for n in (1, 2, 3):
        for values in product(range(n), repeat=n * n):
            table = tuple(values[i * n:(i + 1) * n] for i in range(n))
            if _associative(table):
                tables.append(table)
    tables += [
        _table(4, lambda a, b: (a + b) % 4),
        _table(4, lambda a, b: a ^ b),
        _table(4, lambda a, b: a),
        _table(4, lambda a, b: b),
        _table(4, lambda a, b: (a & 2) | (b & 1)),
        _table(4, min),
        _table(4, _nilpotent),
    ]
    return tables


def _unit(table: tuple):
    n = len(table)
    return next(
        (e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n))),
        None,
    )


def _random_entries(rng: random.Random, k: int, size: int) -> tuple:
    return tuple(tuple(rng.randrange(size) for _ in range(k)) for _ in range(k))


def _algebra_pool() -> list:
    corpus = semigroup_corpus()
    rng = random.Random(f"algebra-{POOL_SEED}")
    by_size = {n: tuple(t for t in corpus if len(t) == n) for n in (1, 2, 3, 4)}
    # size-3 tables set the 90th percentile; the 2 size-4 tables and the
    # 6 7x7 matrices are the tail above it (see README.md, "Why these
    # counts"); 36 cheap 2x2 claims put the median inside one cost cluster
    strata = [
        Stratum("table", by_size[1] + by_size[2], 3),
        Stratum("table", by_size[3], 24),
        Stratum("table", by_size[4], 2),
    ]
    nontrivial = [t for t in corpus if len(t) >= 2]
    for k in range(2, 8):
        specs = []
        for _ in range(30):
            table = rng.choice(nontrivial)
            entries = _random_entries(rng, k, len(table))
            rows, cols = list(range(k)), list(range(k))
            rng.shuffle(rows)
            rng.shuffle(cols)
            permuted = tuple(tuple(entries[r][c] for c in cols) for r in rows)
            specs.append((table, entries, permuted, _random_entries(rng, k, len(table))))
        strata.append(Stratum("matrix", tuple(specs), 6))
    claims = [
        (table, _unit(table), b, c, d)
        for table in corpus
        if len(table) >= 2 and _unit(table) is not None
        for b, c, d in product(range(len(table)), repeat=3)
    ]
    strata.append(Stratum("two_by_two", tuple(rng.sample(claims, 144)), 36))
    return strata


def _build_table(mods, spec):
    return mods.semigroup.validate([list(row) for row in spec])


def _run_table(L, mods, S):
    """The semigroups-suite rule: almost-commutative tables satisfy the
    identity suite and have syntactic counts that never increase after the
    first repeat; the others grow strictly or overflow the cap."""
    sg = mods.semigroup
    ac, _ = L.semigroup.is_almost_commutative(S)
    report = L.semigroup.identity_suite(S)
    counts = [L.semigroup.syntactic_class_count(S, k, 20000) for k in range(1, 5)]
    numeric = [c for c in counts if isinstance(c, int)]
    if ac:
        require(report.all_hold(), "identity suite on an almost-commutative table")
        require(len(numeric) == len(counts) and sg.counts_non_increasing_after_repeat(counts),
                f"bounded syntactic counts {counts}")
    else:
        require(all(a < b for a, b in zip(numeric, numeric[1:]))
                or any(isinstance(c, sg.Overflow) for c in counts),
                f"growing syntactic counts {counts}")
    return [ac, [[name, holds] for name, holds, _ in report.results],
            [c if isinstance(c, int) else "overflow" for c in counts]]


def _order(mods, result) -> list:
    if isinstance(result, mods.kronecker.Finite):
        return ["finite", result.index, result.period]
    return ["unknown", list(result.row_counts)]


def _build_matrix(mods, spec):
    table, entries, permuted, other = spec
    S = mods.semigroup.validate([list(row) for row in table])
    make = mods.kronecker.SemigroupMatrix.make
    return make(entries, S), make(permuted, S), make(other, S)


def _run_matrix(L, mods, args):
    """A row- and column-permuted copy is equivalent; the Kronecker product
    has at most the product of the factors' distinct row counts."""
    M, P, N = args
    require(L.kronecker.equivalent(M, P), "permuted copy not equivalent")
    same = L.kronecker.equivalent(M, N)
    K = L.kronecker.kronecker_product(M, N)
    k = len(M.entries)
    require(K.shape() == (k * k, k * k), "Kronecker product shape")
    distinct = len(set(K.entries))
    require(distinct <= len(set(M.entries)) * len(set(N.entries)), "Kronecker row bound")
    # budget 2 (not the suites' 5 or 6): the 512-row cap is checked before
    # each product, so budget 5 builds powers of up to 4**4 rows on a 4x4
    # matrix (0.6 s mean, 1.6 s max) and budget 3 a 125x125 power on 5x5;
    # random matrices mostly stay Unknown at any of these budgets
    return [same, distinct, _order(mods, L.kronecker.finite_order(M, 2))]


def _build_two_by_two(mods, spec):
    table, unit, b, c, d = spec
    return mods.semigroup.validate([list(row) for row in table], unit=unit), b, c, d


def _run_two_by_two(L, mods, args):
    """A certified finite order of [[1,b],[c,d]] forces d = bc = cb, and a
    mismatch has the singleton-row growth witness."""
    M, b, c, d = args
    report = L.kronecker.two_by_two_claim(M, b, c, d, budget=5)
    if isinstance(report["order"], mods.kronecker.Finite):
        require(report["claim_holds"], "finite order without d = bc = cb")
    if d != report["bc"] or d != report["cb"]:
        require(report["growth_verified"], "no growth witness")
    return [_order(mods, report["order"]), report["bc"], report["cb"],
            report["claim_holds"], report["growth_verified"]]


ALGEBRA = Workload(
    "algebra",
    _algebra_pool,
    {"table": _build_table, "matrix": _build_matrix, "two_by_two": _build_two_by_two},
    {"table": _run_table, "matrix": _run_matrix, "two_by_two": _run_two_by_two},
)


# ---------------------------------------------------------------------------
# recovery


def _unordered_sizes(rng: random.Random) -> tuple:
    # the recovery suite's size distribution
    n_classes = rng.randint(2, 6)
    sizes = [rng.randint(1, 5) for _ in range(n_classes)]
    while sum(sizes) > 30:
        sizes[rng.randrange(n_classes)] = max(1, sizes[rng.randrange(n_classes)] - 1)
    return tuple(sizes)


def _recovery_pool() -> list:
    rng = random.Random(f"recovery-{POOL_SEED}")
    # unordered and ordered oracles 2:1, as the recovery suite's 200 and 100
    strata = [Stratum("unordered", tuple(_unordered_sizes(rng) for _ in range(320)), 68)]
    # ordered oracles: k=2, d=2, eight per class count 2..12; counts below
    # 2d+3 = 7 are kept on purpose
    specs = tuple(
        tuple(rng.randint(1, 3) for _ in range(n_classes))
        for n_classes in range(2, 13) for _ in range(8)
    )
    strata.append(Stratum("ordered", specs, 34))
    return strata


def _hidden(sizes: tuple) -> list:
    hidden, start = [], 0
    for size in sizes:
        hidden.append(frozenset(range(start, start + size)))
        start += size
    return hidden


def _build_classes(mods, spec):
    return _hidden(spec)


def _run_unordered(L, mods, hidden):
    oracle = L.recovery.synth_oracle("unordered", hidden, 1)
    L.recovery.validate_oracle(oracle, samples=256)
    recovered = L.recovery.recover_partition(oracle)
    require(set(recovered) == set(hidden), "recovered partition differs from the hidden one")
    return sorted(sorted(c) for c in recovered)


def _run_ordered(L, mods, hidden):
    oracle = L.recovery.synth_oracle("ordered", hidden, 2)
    L.recovery.validate_oracle(oracle, samples=256)
    recovered = L.recovery.recover_preorder(oracle, 2)
    require(recovered.classes == tuple(hidden), "recovered preorder differs from the hidden one")
    return [sorted(c) for c in recovered.classes]


RECOVERY = Workload(
    "recovery",
    _recovery_pool,
    {"unordered": _build_classes, "ordered": _build_classes},
    {"unordered": _run_unordered, "ordered": _run_ordered},
)


# ---------------------------------------------------------------------------
# trees


def _random_tree(rng: random.Random, n: int) -> tuple:
    """Nodes of a random laminar tree on leaves 0..n-1 with 2..4 children
    per internal node (more children make group_orientation exponential)."""
    nodes = []

    def split(block: list) -> None:
        nodes.append(tuple(sorted(block)))
        if len(block) == 1:
            return
        rng.shuffle(block)
        k = rng.randint(2, min(4, len(block)))
        cuts = [0] + sorted(rng.sample(range(1, len(block)), k - 1)) + [len(block)]
        for a, b in zip(cuts, cuts[1:]):
            split(block[a:b])

    split(list(range(n)))
    return tuple(sorted(nodes))


def _cherry_chain(h: int) -> tuple:
    """Leaves 0..2h; node N_i = {2i..2h} has the cherry {2i, 2i+1} and
    N_{i+1} as children."""
    nodes = [(x,) for x in range(2 * h + 1)]
    nodes += [(2 * i, 2 * i + 1) for i in range(h)]
    nodes += [tuple(range(2 * i, 2 * h + 1)) for i in range(h)]
    return tuple(sorted(nodes))


def _trees_pool() -> list:
    rng = random.Random(f"trees-{POOL_SEED}")
    strata = []
    for n in range(5, 10):
        specs = tuple(
            (n, _random_tree(rng, n), tuple(rng.randrange(1 << n) for _ in range(10)))
            for _ in range(40)
        )
        strata.append(Stratum("tree", specs, 19))
    for h in range(6, 12):
        n = 2 * h + 1
        # one leaf of every cherry makes every chain node interesting
        alternating = sum(1 << (2 * i) for i in range(h + 1))
        specs = tuple(
            (n, _cherry_chain(h), (alternating,) + tuple(rng.randrange(1 << n) for _ in range(3)))
            for _ in range(8)
        )
        strata.append(Stratum("tree", specs, 1))
    return strata


def _build_tree(mods, spec):
    n, nodes, subsets = spec
    return n, [frozenset(node) for node in nodes], subsets


def _run_tree(L, mods, args):
    """decode(encode(t)) == t; the orientation mod 4 is valid with an
    injective chosen leaf; one subforest suffices exactly for subforests
    and their complements.

    With m = 1 every cell of the encoding's type matrix holds the type of a
    pair of distinct leaves, T(x, y, z) being true exactly when z is x or y,
    so the distinct-row rank is 1 for nonempty X and 0 for empty X.  The
    trees suite's check "rank >= interesting-child count d" therefore only
    holds while d <= 1; d = 2 occurs on 8- and 9-leaf trees, where that
    check fails.  The benchmark checks the exact rank and keeps d in the digest.
    """
    n, family, subsets = args
    tr = mods.trees
    t = L.trees.validate_tree(family)
    enc = L.trees.ternary_encode(t)
    require(L.trees.ternary_decode(enc) == t, "decode(encode(t)) != t")
    o = L.trees.group_orientation(t, 4)
    require(isinstance(o, tr.Orientation) and tr.orientation_is_valid(t, o), "orientation")
    chosen = [tr.chosen_leaf(t, o, node) for node in t.internal_nodes()]
    require(len(set(chosen)) == len(chosen), "chosen_leaf not injective")
    forests = tr.subforests(t)
    level1 = (set(forests) | {t.root() - f for f in forests}) - {frozenset(), t.root()}
    rows = []
    for bits in subsets:
        X = _bits_set(bits, n)
        interesting, ell, d = L.trees.interesting_analysis(t, X)
        rank = L.rank.distinct_row_rank(enc, X)
        require(rank == (1 if X else 0), f"ternary rank {rank} at m=1")
        combination = L.trees.min_boolean_combination(t, X, limit=1)
        require((combination == 1) == (X in level1), "one-subforest combinations")
        rows.append([len(interesting), ell, d, rank,
                     combination if isinstance(combination, int) else "exceeded"])
    return rows


TREES = Workload(
    "trees",
    _trees_pool,
    {"tree": _build_tree},
    {"tree": _run_tree},
)


WORKLOADS = {w.name: w for w in (TYPES, ALGEBRA, RECOVERY, TREES)}
