"""The rank-growth harness, and the seed-based algorithms that recover hidden
partitions and linear preorders from approximation oracles."""
from __future__ import annotations

import random
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product, repeat
from operator import or_
from typing import Iterable, Optional, Sequence

from .rank import Graph, graph_cut_rank
from .semigroup import FiniteSemigroup, validate as validate_semigroup
from .structures import submasks, subsets
from .trees import LinearPreorder

__all__ = [
    "RecoveryError",
    "UnorderedOracle",
    "OrderedOracle",
    "rank_decreasing_report",
    "synth_oracle",
    "validate_oracle",
    "recover_partition",
    "recover_preorder",
]


class RecoveryError(ValueError):
    """The oracle's answers contradict what recovery relies on."""


# ---------------------------------------------------------------------------
# the rank-growth harness


def _sampled_masks(n: int, budget: int):
    """Subsets of n positions as bitmasks: all 2^n in order when they fit
    the budget, else the sorted distinct values of ``budget`` draws seeded
    with 0, as a new list on every call."""
    if 1 << n <= budget:
        return range(1 << n)
    return list(_drawn_masks(n, budget))


# The draws depend on (n, budget) alone, so each sample set is drawn once
# while it stays among the 32 most recent: at a budget of 256, universes of
# 9 to 36 elements need 28.
@lru_cache(maxsize=32)
def _drawn_masks(n: int, budget: int) -> tuple:
    # rng.randrange(1 << n) inlined: CPython draws n + 1 random bits and
    # redraws while the value is out of range, so these are the same draws
    getrandbits = random.Random(0).getrandbits
    limit = 1 << n
    drawn = set()
    for _ in range(budget):
        r = getrandbits(n + 1)
        while r >= limit:
            r = getrandbits(n + 1)
        drawn.add(r)
    return tuple(sorted(drawn))


_RANK_DECREASING_SUBSETS = 4096


def rank_decreasing_report(inp: Graph, out: Graph) -> tuple:
    """Tabulates the input graph's cut-rank against the output graph's
    maximal cut-rank over enumerated (or seeded-random, beyond
    _RANK_DECREASING_SUBSETS) subsets of their common universe. Returns the
    table and the first subset whose rank grows, or None."""
    n = inp.universe_size
    if n != out.universe_size:
        raise ValueError("universes differ")
    table: dict = {}
    witness = None
    for bits in _sampled_masks(n, _RANK_DECREASING_SUBSETS):
        X = {i for i in range(n) if bits >> i & 1}
        r_in = graph_cut_rank(inp, X)
        r_out = graph_cut_rank(out, X)
        table[r_in] = max(table.get(r_in, 0), r_out)
        if r_out > r_in and witness is None:
            witness = frozenset(X)
    return table, witness


# ---------------------------------------------------------------------------
# approximation oracles


class UnorderedOracle:
    """phi(Y) is decided by the commutative product of per-class lambda
    values; complete for sets cutting no class, refuted for sets cutting at
    least k classes. The class list is the hidden answer: recovery code may
    enumerate candidate subsets with it, but class membership of the output
    is derived from phi queries.

    ``phi_mask`` takes a subset as a bitmask: bit i stands for the i-th
    element of ``sorted(universe())``, kept as ``sorted_universe``, and
    ``class_masks`` holds each class as such a mask.  Each lambda table is
    kept keyed by such masks, each a submask of its class's mask: that is
    the form ``phi_mask``, ``validate_oracle`` and ``homogeneity_fault``
    read.  A table may be given keyed by those masks or by frozensets of
    elements, or by both; it is converted once, here, and checked the same
    way.  ``lam`` is the frozenset-keyed view of the tables, built on first
    read.  ``homogeneity_fault`` is why the oracle is not homogeneous, or
    None, computed once at construction, as the masks are, so
    ``validate_oracle`` and ``recover_partition`` share one check."""

    def __init__(self, classes: Sequence[Iterable], semigroup: FiniteSemigroup,
                 lam: Sequence[dict], accept: Iterable[int], k: int):
        self.classes = tuple(frozenset(c) for c in classes)
        self.semigroup = semigroup
        lam = tuple(lam)
        self.accept = frozenset(accept)
        self.k = k
        if not self.classes:
            raise ValueError("an oracle needs at least one class")
        if len(lam) != len(self.classes):
            raise ValueError("one lambda table per class")
        if not self.ordered:
            # ordered classes are checked by LinearPreorder, with its message
            owner: dict = {}
            for i, cls in enumerate(self.classes):
                for x in sorted(cls):
                    j = owner.setdefault(x, i)
                    if j != i:
                        raise ValueError(f"unordered classes must be disjoint: element {x} "
                                         f"is in classes {j} and {i}")
        self.sorted_universe, self._bit, self.class_masks = _class_masks(self.classes)
        self._universe = frozenset(self.sorted_universe)
        elements = semigroup.elements()
        tables = []
        for i, (cls, cmask, table) in enumerate(zip(self.classes, self.class_masks, lam)):
            table = _mask_keyed(dict(table), cls, cmask, self._bit)
            # 2^|class| distinct keys, each a submask of the class, are all
            # of its subsets
            if table is None or len(table) != 1 << len(cls):
                raise ValueError("lambda must cover every subset of its class")
            for sub, value in table.items():
                if value not in elements:
                    raise ValueError(f"lambda value {value} of class {i} on "
                                     f"{_members(self.sorted_universe, sub)} "
                                     "is not a semigroup element")
            tables.append(table)
        for value in self.accept:
            if value not in elements:
                raise ValueError(f"accept value {value} is not a semigroup element")
        self._table = semigroup.table
        self._lam = tuple(tables)
        # (class mask, lambda table) per class, in class order; the first
        # value starts the product, as the semigroup need not have a unit
        self._lam_first, *self._lam_rest = zip(self.class_masks, self._lam)
        self.homogeneity_fault = _homogeneity_fault(self)

    ordered = False

    @cached_property
    def lam(self) -> tuple:
        """Each class's lambda table keyed by frozensets of elements, in
        the order of the mask-keyed table it is built from."""
        views = []
        for cls, cmask, table in zip(self.classes, self.class_masks, self._lam):
            # both walk the class's subsets in bitmask order
            key = dict(zip(submasks(cmask), subsets(sorted(cls))))
            views.append({key[sub]: value for sub, value in table.items()})
        return tuple(views)

    def universe(self) -> frozenset:
        return self._universe

    def phi_mask(self, bits: int) -> bool:
        """phi of the subset with the given bitmask; bits outside the
        universe are ignored."""
        table = self._table
        cmask, lam = self._lam_first
        value = lam[bits & cmask]
        for cmask, lam in self._lam_rest:
            value = table[value][lam[bits & cmask]]
        return value in self.accept

    def phi(self, Y: Iterable) -> bool:
        """phi of a set of elements; elements outside the universe are
        ignored."""
        if not isinstance(Y, (set, frozenset)):
            Y = frozenset(Y)  # a repeated element must not add its bit twice
        return self.phi_mask(sum(map(self._bit.get, Y, repeat(0))))


class OrderedOracle(UnorderedOracle):
    """Ordered variant: classes are listed in preorder order, the product
    is taken in that order, completeness covers intervals, and any set with
    at least k + 3 blocks is refuted (k bounds the cut blocks an accepted
    set can have beyond its full and empty runs; a literal k-block
    threshold would contradict completeness, since intervals can have three
    blocks)."""

    ordered = True


def _class_masks(classes: Sequence[frozenset]) -> tuple:
    """The sorted universe of the classes, each element's bit (bit i for
    the i-th element of that universe) and each class as a mask."""
    universe = tuple(sorted(frozenset().union(*classes)))
    bit = {x: 1 << i for i, x in enumerate(universe)}
    return universe, bit, tuple(sum(map(bit.__getitem__, cls)) for cls in classes)


def _mask_keyed(table: dict, cls: frozenset, cmask: int, bit: dict) -> Optional[dict]:
    """A lambda table keyed by subset masks: a frozenset key within the
    class becomes its mask, an int key that is a submask of the class mask
    stays as it is. None if some key is neither."""
    masks = {}
    for sub, value in table.items():
        if isinstance(sub, frozenset):
            if not sub <= cls:
                return None
            sub = sum(map(bit.__getitem__, sub))
        elif type(sub) is not int or sub | cmask != cmask:
            return None
        masks[sub] = value
    return masks


def _semigroup_from(elements: list, mul) -> tuple:
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return validate_semigroup(table), index


def synth_oracle(kind: str, classes: Sequence[Iterable], k: int,
                 groups: Optional[Sequence[int]] = None):
    """Canonical counter-semigroup oracles: the unordered one counts cut
    classes up to k, the ordered one counts blocks up to k + 3. An optional
    per-class group labelling makes the unordered oracle non-homogeneous by
    tagging full and empty values with the group. Each lambda table is
    keyed by subset masks over the sorted universe, as the oracle keeps it:
    the cut value on every submask of the class, then the empty value on 0
    and the full value on the class mask."""
    classes = [frozenset(c) for c in classes]
    if not classes or any(not c for c in classes):
        raise ValueError("classes must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind not in ("unordered", "ordered"):
        raise ValueError(f"unknown oracle kind {kind!r}")
    class_masks = _class_masks(classes)[2]
    if kind == "ordered":
        if groups is not None:
            raise ValueError("groups apply to unordered oracles only")
        S, index = _ordered_counter(k)
        empty, full, cut = (index[(w, w, 1)] for w in ("E", "F", "C"))
        lam = []
        for cmask in class_masks:
            table = dict.fromkeys(submasks(cmask), cut)
            table[0], table[cmask] = empty, full
            lam.append(table)
        accept = [i for e, i in index.items() if e[2] <= k + 2]
        return OrderedOracle(classes, S, lam, accept, k)
    if groups is None:
        groups = [0] * len(classes)
    elif len(groups) != len(classes):
        raise ValueError(f"groups must give one entry per class: {len(groups)} "
                         f"entries for {len(classes)} classes")
    S, index = _unordered_counter(k, tuple(sorted(set(groups))))
    cut = index[(frozenset(), 1)]
    lam = []
    for cmask, g in zip(class_masks, groups):
        table = dict.fromkeys(submasks(cmask), cut)
        table[0] = index[(frozenset([(g, "empty")]), 0)]
        table[cmask] = index[(frozenset([(g, "full")]), 0)]
        lam.append(table)
    accept = [i for e, i in index.items() if e[1] <= k - 1]
    return UnorderedOracle(classes, S, lam, accept, k)


def _sort_key(e):
    return (e[1], sorted(e[0]))


# The counter semigroups depend only on k (and the group ids), so each
# Cayley table is built once per key and checked for associativity a row
# per pair of elements (semigroup.validate); the index dicts are shared and
# only read. validate_oracle's sample sets are memoised too (_drawn_masks).
@lru_cache(maxsize=32)
def _unordered_counter(k: int, gids: tuple) -> tuple:
    """Sets of (group, full/empty) tags with a cut count capped at k."""
    tags = [(g, w) for g in gids for w in ("full", "empty")]
    elements = [
        (frozenset(t), c)
        for c in range(k + 1)
        for t in subsets(sorted(tags))
    ]
    def mul(a, b):
        return (a[0] | b[0], min(k, a[1] + b[1]))
    return _semigroup_from(sorted(elements, key=_sort_key), mul)


@lru_cache(maxsize=32)
def _ordered_counter(k: int) -> tuple:
    """(first kind, last kind, block count capped at k + 3), where adjacent
    full or empty ends merge into one block."""
    cap = k + 3
    kinds = ("E", "F", "C")
    elements = [
        (f, l, c) for f in kinds for l in kinds for c in range(1, cap + 1)
    ]
    def mul(a, b):
        merge = 1 if a[1] == b[0] and a[1] in ("E", "F") else 0
        return (a[0], b[1], min(cap, a[2] + b[2] - merge))
    return _semigroup_from(elements, mul)


_EMPTY, _FULL, _CUT = range(3)


def _blocks_up_to(class_masks: Sequence[int], bits: int, cap: int) -> int:
    """The number of blocks of the set with the given bitmask, as
    trees.blocks counts them, but no further than cap: a block is a cut
    class or the start of a run of full or of empty classes."""
    count = 0
    previous = _CUT
    for cmask in class_masks:
        inter = bits & cmask
        if not inter:
            kind = _EMPTY
        elif inter == cmask:
            kind = _FULL
        else:
            kind = _CUT
        if kind != previous or kind == _CUT:
            count += 1
            if count == cap:
                break
            previous = kind
    return count


def validate_oracle(oracle, homogeneous: bool = True, samples: int = 4096) -> None:
    """Checks completeness, soundness, full/empty determination, and (on
    request) homogeneity; raises ValueError on any violation. phi is
    queried only on the samples that the completeness or soundness test
    reads. At least one sample is drawn: with none, every check would
    pass vacuously."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    universe = oracle.sorted_universe
    masks = _sampled_masks(len(universe), samples)
    ordered = oracle.ordered
    if ordered:
        # the classes must form a linear preorder before blocks make sense
        LinearPreorder(oracle.classes)
    class_masks = oracle.class_masks
    phi_mask = oracle.phi_mask
    k = oracle.k
    for bits in masks:
        if ordered:
            block_count = _blocks_up_to(class_masks, bits, k + 3)
            complete, refuted = block_count <= 1, block_count >= k + 3
        else:
            cuts = 0
            for cmask in class_masks:
                inter = bits & cmask
                if inter and inter != cmask:
                    cuts += 1
                    if cuts == k:
                        break  # refuted, whatever the other classes hold
            complete, refuted = cuts == 0, cuts >= k
        if complete or refuted:
            holds = phi_mask(bits)
            if complete and not holds:
                raise ValueError(f"completeness fails on {_members(universe, bits)}")
            if refuted and holds:
                raise ValueError(f"soundness fails on {_members(universe, bits)}")
    # ordered completeness over every interval, even beyond the sample
    if ordered and (failing := _failing_interval(class_masks, phi_mask)):
        raise ValueError("interval {}..{} fails phi".format(*failing))
    # the lambda value determines full/empty/cut: key 0 is the empty
    # subset, the class mask (of a nonempty class) the full one, any other
    # key a cut
    by_kind: dict = {"full": set(), "empty": set(), "cut": set()}
    for cmask, table in zip(class_masks, oracle._lam):
        by_kind["empty"].add(table[0])
        if cmask:
            by_kind["full"].add(table[cmask])
            by_kind["cut"].update(_cut_values(table, cmask))
    for a, b in combinations(by_kind, 2):
        if by_kind[a] & by_kind[b]:
            raise ValueError(f"lambda does not separate {a} from {b}")
    if homogeneous and (fault := oracle.homogeneity_fault):
        raise ValueError(fault)


def _members(universe: Sequence, bits: int) -> list:
    """The elements of the subset with the given bitmask, in universe order."""
    return [x for i, x in enumerate(universe) if bits >> i & 1]


def _union(masks: Iterable[int]) -> int:
    return reduce(or_, masks, 0)


def _failing_interval(masks: Sequence[int], phi_mask) -> Optional[tuple]:
    """The first (i, j), left end first, whose interval masks[i..j] fails
    phi; None when every interval holds."""
    for i in range(len(masks)):
        interval = 0
        for j in range(i, len(masks)):
            interval |= masks[j]
            if not phi_mask(interval):
                return i, j
    return None


def _cut_values(table: dict, cmask: int):
    """The values of a mask-keyed lambda table on the cut subsets of its
    class: on every key but 0 and the class mask."""
    cut = dict(table)
    cut.pop(0, None)
    cut.pop(cmask, None)
    return cut.values()


def _homogeneity_fault(oracle) -> Optional[str]:
    """Why the oracle is not homogeneous, or None. Homogeneous means shared
    idempotent full and empty values, and a shared cut image over the
    classes that have cut subsets. (The literal image-equality reading is
    unsatisfiable once size-1 classes are mixed with larger ones, and the
    recovery argument only needs this weaker form.)"""
    S = oracle.semigroup
    tables = list(zip(oracle.class_masks, oracle._lam))
    fulls = {table[cmask] for cmask, table in tables}
    empties = {table[0] for table in oracle._lam}
    if len(fulls) != 1 or len(empties) != 1:
        return "full and empty values must be shared"
    if any(S.mult(v, v) != v for v in fulls | empties):
        return "full and empty values must be idempotent"
    cut_images = {
        frozenset(_cut_values(table, cmask))
        for cmask, table in tables
        if cmask & (cmask - 1)  # two or more elements
    }
    if len(cut_images) > 1:
        return "cut images must agree across classes"
    return None


# ---------------------------------------------------------------------------
# seeds: the search reads the oracle only through ``class_masks``,
# ``sorted_universe``, ``phi_mask`` and ``k``, and every subset is a bitmask


def _cut_patterns(cmask: int) -> list:
    """The nonempty proper submasks of a class mask, in increasing order
    (the order of ``subsets`` over the sorted class)."""
    return list(submasks(cmask))[1:-1]


def _maximal_candidates(oracle) -> list:
    """Seeds with a maximal number of cut classes, enumerated class-wise:
    for homogeneous oracles the uncut classes can be fixed to one canonical
    full class with the rest empty, since the shared idempotent full and
    empty values make phi independent of how full and empty classes are
    distributed. Returns (cut_classes, full_class, mask) triples, sorted by
    the mask's member list; the mask fixes its full class and its cut
    classes, so no two triples tie."""
    masks = oracle.class_masks
    n = len(masks)
    for c in range(min(oracle.k - 1, n - 2), -1, -1):
        found = []
        for cut_set in combinations(range(n), c):
            for full_class in (i for i in range(n) if i not in cut_set):
                for patterns in product(*(_cut_patterns(masks[i]) for i in cut_set)):
                    Y = masks[full_class] | _union(patterns)
                    if oracle.phi_mask(Y):
                        found.append((cut_set, full_class, Y))
        if found:
            return sorted(found, key=lambda c: _members(oracle.sorted_universe, c[2]))
    return []


def _view_for(oracle, candidates, target: int):
    """The first maximal-seed candidate, in the sorted order
    ``_maximal_candidates`` returns, whose special classes avoid the target
    class, with designations chosen accordingly: the cut classes, the full
    class and the first other class as the empty one. Returns (mask,
    special classes), or None when no candidate avoids the target."""
    n = len(oracle.class_masks)
    for cut_set, full_class, Y in candidates:
        if target in cut_set or target == full_class:
            continue
        empty = next((i for i in range(n)
                      if i not in cut_set and i != full_class and i != target), None)
        if empty is not None:
            return Y, tuple(sorted(set(cut_set) | {full_class, empty}))
    return None


# ---------------------------------------------------------------------------
# partition recovery


def _good_seeds(oracle, Y0: int, special: tuple) -> list:
    """All phi-satisfying sets that agree with Y0 on the special classes
    and are full or empty on the others, after checking maximality: no
    phi-satisfying set that agrees with Y0 there cuts a non-special class."""
    masks = oracle.class_masks
    base = _union(Y0 & masks[i] for i in special)
    nonspecial = [(i, m) for i, m in enumerate(masks) if i not in special]
    for i, cmask in nonspecial:
        for pattern in _cut_patterns(cmask):
            Y = base | pattern
            if oracle.phi_mask(Y):
                message = f"maximality violated: a good seed cuts class {i}"
                if sum(0 != Y & m != m for m in masks) >= oracle.k:
                    message += f"; soundness fails on {_members(oracle.sorted_universe, Y)}"
                raise RecoveryError(message)
    family = []
    for chosen in range(1 << len(nonspecial)):
        Y = base | _union(m for j, (_, m) in enumerate(nonspecial) if chosen >> j & 1)
        if oracle.phi_mask(Y):
            family.append(Y)
    return family


def _split_by_lambda_image(oracle) -> list:
    groups: dict = {}
    for i, table in enumerate(oracle._lam):
        groups.setdefault(frozenset(table.values()), []).append(i)
    return [groups[key] for key in sorted(groups, key=sorted)]


def _restrict_oracle(oracle, class_indices: list) -> UnorderedOracle:
    """Sub-oracle over a subset of the classes; every class outside the
    group contributes its empty value to the product, so the accept set is
    adjusted accordingly."""
    S = oracle.semigroup
    outside = [
        oracle._lam[i][0]
        for i in range(len(oracle.classes))
        if i not in class_indices
    ]
    if outside:
        rest = S.product(outside)
        accept = {s for s in S.elements() if S.mult(s, rest) in oracle.accept}
    else:
        accept = oracle.accept
    return UnorderedOracle(
        [oracle.classes[i] for i in class_indices],
        S,
        [oracle.lam[i] for i in class_indices],
        accept,
        oracle.k,
    )


def _refine(mask: int, seeds: Iterable[int]) -> list:
    """The bits of the mask grouped by their membership pattern over the
    seeds, as masks: each seed splits every group into its part inside the
    seed and its part outside."""
    groups = [mask] if mask else []
    for Y in seeds:
        groups = [part for g in groups for part in (g & Y, g & ~Y) if part]
    return groups


def _join(same: dict, members: Iterable) -> None:
    """Merges the groups of the given elements into one."""
    group = set().union(*(same[x] for x in members))
    for x in group:
        same[x] = group


def recover_partition(oracle: UnorderedOracle) -> tuple:
    """Recovers the hidden partition. Non-special elements are classified
    purely by phi queries (two are together iff no good seed separates
    them); the classes that stay special in every view play the role of the
    transduction's guess and are verified against phi. Each target class's
    view is found first, and each distinct view's good-seed family is built
    and refined once, in first-seen order: targets often share a view (on a
    k = 1 oracle every target from the third on does), and a repeated view
    adds no group. Non-homogeneous oracles are pre-grouped by lambda image
    and recovered per group."""
    if fault := oracle.homogeneity_fault:
        groups = _split_by_lambda_image(oracle)
        if len(groups) == 1:
            raise RecoveryError(f"the oracle is not homogeneous ({fault}) "
                                "and all its classes share one lambda image")
        parts: list = []
        for group in groups:
            parts.extend(recover_partition(_restrict_oracle(oracle, group)))
        return _canonical_partition(parts)
    universe, masks = oracle.sorted_universe, oracle.class_masks
    n = len(masks)
    if n == 1:
        return (oracle.universe(),)
    candidates = _maximal_candidates(oracle)
    if not candidates:
        raise RecoveryError("no candidate seed satisfies phi: the oracle is not complete")
    views = dict.fromkeys(
        view for view in (_view_for(oracle, candidates, target) for target in range(n))
        if view is not None
    )
    same: dict = {x: {x} for x in universe}
    firsts: list = []  # per view, the first element of each group
    covered = 0
    for Y0, special in views:
        nonspecial = _union(m for i, m in enumerate(masks) if i not in special)
        covered |= nonspecial
        groups = _refine(nonspecial, _good_seeds(oracle, Y0, special))
        for g in groups:
            _join(same, _members(universe, g))
        firsts.append([universe[(g & -g).bit_length() - 1] for g in groups])
    for view_firsts in firsts:
        if len({frozenset(same[x]) for x in view_firsts}) < len(view_firsts):
            raise RecoveryError("oracle answers are inconsistent")
    # classes never non-special in any view mirror the transduction's guess
    for cmask in masks:
        _join(same, _members(universe, cmask & ~covered))
    return _canonical_partition(same.values())


def _canonical_partition(parts: Iterable) -> tuple:
    return tuple(sorted({frozenset(p) for p in parts}, key=sorted))


# ---------------------------------------------------------------------------
# preorder recovery


def _gap_relation(seeds_of: dict, index: dict, gap: int, modulus: int) -> set:
    """Pairs (x, y) of middle elements whose index colours (taken modulo
    the given modulus, the transduction's guessed colouring) differ by the
    gap and for which some good seed contains x but not y (``seeds_of``
    holds each element's good seeds as a bitset); by the separation claim
    these are exactly the pairs with x < y whose true index gap is
    congruent to the given one."""
    return {
        (x, y)
        for x, sx in seeds_of.items()
        for y, sy in seeds_of.items()
        if (index[y] - index[x]) % modulus == gap and sx & ~sy
    }


def _exact_gap_relation(seeds_of: dict, index: dict, gap: int) -> set:
    """Pairs at index gap exactly `gap`. A single modulo-2*gap colouring
    keeps every odd multiple of the gap (two relation steps always sum to
    0 modulo 2*gap, so the no-intermediate filter removes nothing);
    intersecting with a second colouring modulo 2*(gap+1) pins the gap, for
    class counts below 2*gap*(gap+1) + gap."""
    rel = _gap_relation(seeds_of, index, gap, 2 * gap)
    rel &= _gap_relation(seeds_of, index, gap, 2 * (gap + 1))
    return {
        (x, y)
        for x, y in rel
        if not any((x, z) in rel and (z, y) in rel for z in seeds_of)
    }


def _reachable(succ: dict) -> dict:
    """Each node's set of nodes reachable in one or more steps, itself
    excluded: the transitive closure of the successor map."""
    reach = {}
    for start in succ:
        seen, stack = set(), [start]
        while stack:
            new = succ[stack.pop()] - seen
            seen |= new
            stack.extend(new)
        reach[start] = seen - {start}
    return reach


def recover_preorder(oracle: OrderedOracle, d: int) -> LinearPreorder:
    """Recovers the hidden linear preorder. The order on elements outside
    the first and last classes is derived from phi queries alone, given the
    index-modulo-2d colouring advice (the transduction's guess): the gap-d
    and gap-(d+1) relations combine into the successor, whose transitive
    closure is the order. The two end classes are the always-special guess,
    verified against phi. The caller validates the oracle first
    (``validate_oracle``); recovery does not repeat it."""
    if d < oracle.k:
        raise ValueError("d must be at least the oracle's k")
    classes = oracle.classes
    n = len(classes)
    if n <= 3 or n < 2 * d + 3:
        # too few classes for the modular-advice route: every class is
        # special or lacks a successor witness, so the whole preorder is
        # the verified guess
        return LinearPreorder(classes)
    if n > 2 * d * (d + 1) + d + 2:
        raise ValueError("class count too large for the gap arithmetic")
    universe, masks = oracle.sorted_universe, oracle.class_masks
    # the phi-satisfying prefix-full sets; they all agree with the
    # canonical maximal seed on its special classes (the first class full,
    # the last class empty)
    seeds, prefix = [], 0
    for cmask in masks[:-1]:
        prefix |= cmask
        if oracle.phi_mask(prefix):
            seeds.append(prefix)
    index = {x: i for i, cmask in enumerate(masks) for x in _members(universe, cmask)}
    seeds_of = {
        x: sum(1 << j for j, Y in enumerate(seeds) if Y >> pos & 1)
        for pos, x in enumerate(universe)
        if 0 < index[x] < n - 1
    }
    near, far = (_exact_gap_relation(seeds_of, index, D) for D in (d, d + 1))
    succ: dict = {x: set() for x in seeds_of}
    for x, z in far:
        succ[x].update(y for y, z2 in near if z2 == z and y != x)
    for z, x in near:
        succ[x].update(y for z2, y in far if z2 == z and y != x)
    later = _reachable(succ)  # the middle elements after each one
    groups: list = []
    for x in seeds_of:
        for group in groups:
            rep = next(iter(group))
            if rep not in later[x] and x not in later[rep]:
                group.add(x)
                break
        else:
            groups.append({x})
    def group_key(group):
        rep = next(iter(group))
        return sum(1 for other in groups if rep in later[next(iter(other))])
    groups.sort(key=group_key)
    for a, b in zip(groups, groups[1:]):
        if next(iter(b)) not in later[next(iter(a))]:
            raise RecoveryError("middle order is not total")
    result = LinearPreorder(
        (classes[0],) + tuple(frozenset(g) for g in groups) + (classes[-1],)
    )
    # verify the guess: every interval of the result satisfies phi
    bit = {x: 1 << pos for pos, x in enumerate(universe)}
    result_masks = [_union(map(bit.__getitem__, cls)) for cls in result.classes]
    if _failing_interval(result_masks, oracle.phi_mask):
        raise RecoveryError("recovered preorder fails interval check")
    return result
