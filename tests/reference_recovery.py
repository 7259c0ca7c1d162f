"""Partition recovery and preorder recovery, with the seed search they use, as
``rankmat.recovery`` had them before they moved onto class bitmasks: every
subset is a frozenset and every query goes through ``oracle.phi``; and
``synth_oracle`` as it was before lambda tables were keyed by masks. Kept as
the reference that the bitmask code is compared against; it is slow, and
``recover_partition`` recurses without end on a non-homogeneous oracle whose
classes share one lambda image."""
from __future__ import annotations

from itertools import combinations, product

from rankmat.recovery import (
    OrderedOracle,
    RecoveryError,
    UnorderedOracle,
    _ordered_counter,
    _unordered_counter,
)
from rankmat.structures import subsets
from rankmat.trees import LinearPreorder


def _kind(cls: frozenset, sub: frozenset) -> str:
    if not sub:
        return "empty"
    if sub == cls:
        return "full"
    return "cut"


def synth_oracle(kind: str, classes, k: int, groups=None):
    """``rankmat.recovery.synth_oracle`` as it was before the oracle kept
    its lambda tables keyed by masks: each table is keyed by the frozenset
    subsets of its class, each classified by ``_kind``, and the oracle
    converts them. It takes the same counter semigroups."""
    classes = [frozenset(c) for c in classes]
    if not classes or any(not c for c in classes):
        raise ValueError("classes must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind == "unordered":
        if groups is None:
            groups = [0] * len(classes)
        S, index = _unordered_counter(k, tuple(sorted(set(groups))))
        lam = []
        for cls, g in zip(classes, groups):
            table = {}
            for sub in subsets(sorted(cls)):
                w = _kind(cls, sub)
                if w == "cut":
                    table[sub] = index[(frozenset(), 1)]
                else:
                    table[sub] = index[(frozenset([(g, w)]), 0)]
            lam.append(table)
        accept = [i for e, i in index.items() if e[1] <= k - 1]
        return UnorderedOracle(classes, S, lam, accept, k)
    if kind == "ordered":
        S, index = _ordered_counter(k)
        letter = {"empty": "E", "full": "F", "cut": "C"}
        lam = []
        for cls in classes:
            table = {}
            for sub in subsets(sorted(cls)):
                w = letter[_kind(cls, sub)]
                table[sub] = index[(w, w, 1)]
            lam.append(table)
        accept = [i for e, i in index.items() if e[2] <= k + 2]
        return OrderedOracle(classes, S, lam, accept, k)
    raise ValueError(f"unknown oracle kind {kind!r}")


def _check_homogeneous(oracle) -> None:
    """Shared idempotent full and empty values, and a shared cut image over
    the classes that have cut subsets. (The literal image-equality reading
    is unsatisfiable once size-1 classes are mixed with larger ones, and
    the recovery argument only needs this weaker form.)"""
    S = oracle.semigroup
    fulls = {table[cls] for cls, table in zip(oracle.classes, oracle.lam)}
    empties = {table[frozenset()] for table in oracle.lam}
    if len(fulls) != 1 or len(empties) != 1:
        raise ValueError("full and empty values must be shared")
    for v in fulls | empties:
        if S.mult(v, v) != v:
            raise ValueError("full and empty values must be idempotent")
    cut_images = {
        frozenset(v for sub, v in table.items() if _kind(cls, sub) == "cut")
        for cls, table in zip(oracle.classes, oracle.lam)
        if len(cls) >= 2
    }
    if len(cut_images) > 1:
        raise ValueError("cut images must agree across classes")


def _is_homogeneous(oracle) -> bool:
    try:
        _check_homogeneous(oracle)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# seeds


def _cut_patterns(cls: frozenset) -> list:
    return [sub for sub in subsets(sorted(cls)) if sub and sub != cls]


def _maximal_candidates(oracle) -> list:
    """Seeds with a maximal number of cut classes, enumerated class-wise:
    for homogeneous oracles the uncut classes can be fixed to one canonical
    full class with the rest empty, since the shared idempotent full and
    empty values make phi independent of how full and empty classes are
    distributed. Returns (cut_classes, full_class, subset) triples."""
    n = len(oracle.classes)
    best: list = []
    best_cuts = -1
    for c in range(min(oracle.k - 1, n - 2), -1, -1):
        if best_cuts >= 0 and c < best_cuts:
            break
        for cut_set in combinations(range(n), c):
            rest = [i for i in range(n) if i not in cut_set]
            for full_class in rest:
                for patterns in product(*(_cut_patterns(oracle.classes[i]) for i in cut_set)):
                    Y = frozenset(oracle.classes[full_class]).union(*patterns) \
                        if patterns else frozenset(oracle.classes[full_class])
                    if oracle.phi(Y):
                        if c > best_cuts:
                            best, best_cuts = [], c
                        best.append((cut_set, full_class, Y))
    return best


# ---------------------------------------------------------------------------
# partition recovery


def _good_seed_family(oracle, Y0: frozenset, special: tuple) -> list:
    """All phi-satisfying sets that agree with Y0 on the special classes
    and are full or empty on the others. By maximality no good seed cuts a
    non-special class, which _check_maximality checks."""
    nonspecial = [i for i in range(len(oracle.classes)) if i not in special]
    base = frozenset().union(
        *(Y0 & oracle.classes[i] for i in special)
    ) if special else frozenset()
    family = []
    for chosen in subsets([oracle.classes[i] for i in nonspecial]):
        Y = base.union(*chosen)
        if oracle.phi(Y):
            family.append(Y)
    return family


def _check_maximality(oracle, Y0: frozenset, special: tuple) -> None:
    nonspecial = [i for i in range(len(oracle.classes)) if i not in special]
    base = frozenset().union(*(Y0 & oracle.classes[i] for i in special))
    for i in nonspecial:
        if len(oracle.classes[i]) < 2:
            continue
        for pattern in _cut_patterns(oracle.classes[i]):
            Y = base | pattern
            if oracle.phi(Y):
                message = f"maximality violated: a good seed cuts class {i}"
                cuts = sum(1 for cls in oracle.classes if 0 < len(Y & cls) < len(cls))
                if cuts >= oracle.k:
                    message += f"; soundness fails on {sorted(Y)}"
                raise RecoveryError(message)


def _split_by_lambda_image(oracle) -> list:
    groups: dict = {}
    for i, table in enumerate(oracle.lam):
        groups.setdefault(frozenset(table.values()), []).append(i)
    return [groups[key] for key in sorted(groups, key=sorted)]


def _restrict_oracle(oracle, class_indices: list) -> UnorderedOracle:
    """Sub-oracle over a subset of the classes; every class outside the
    group contributes its empty value to the product, so the accept set is
    adjusted accordingly."""
    S = oracle.semigroup
    outside = [
        oracle.lam[i][frozenset()]
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


def recover_partition(oracle: UnorderedOracle) -> tuple:
    """Recovers the hidden partition. Non-special elements are classified
    purely by phi queries (two are together iff no good seed separates
    them); the classes that stay special in every view play the role of the
    transduction's guess and are verified against phi. Non-homogeneous
    oracles are pre-grouped by lambda image and recovered per group."""
    if not _is_homogeneous(oracle):
        parts: list = []
        for group in _split_by_lambda_image(oracle):
            parts.extend(recover_partition(_restrict_oracle(oracle, group)))
        return _canonical_partition(parts)
    classes = oracle.classes
    n = len(classes)
    if n == 1:
        return (oracle.universe(),)
    candidates = _maximal_candidates(oracle)
    same: dict = {x: {x} for x in oracle.universe()}
    diff: set = set()
    covered: set = set()
    for target in range(n):
        view = _view_for(oracle, candidates, target)
        if view is None:
            continue
        Y0, special = view
        _check_maximality(oracle, Y0, special)
        family = _good_seed_family(oracle, Y0, special)
        nonspecial_elements = sorted(
            x for i in range(n) if i not in special for x in classes[i]
        )
        covered.update(nonspecial_elements)
        for x, y in combinations(nonspecial_elements, 2):
            separated = any(
                (x in Y) != (y in Y) for Y in family
            )
            if separated:
                diff.add((x, y))
            else:
                same[x] |= same[y]
                for z in same[x]:
                    same[z] = same[x]
    for x, y in diff:
        if y in same[x]:
            raise RecoveryError("oracle answers are inconsistent")
    # classes never non-special in any view mirror the transduction's guess
    for cls in classes:
        leftovers = cls - covered
        for x in leftovers:
            same[x] |= {y for y in cls}
            for z in same[x]:
                same[z] = same[x]
    return _canonical_partition(
        {frozenset(group) for group in same.values()}
    )


def _view_for(oracle, candidates, target: int):
    """The least maximal-seed candidate whose special classes avoid the
    target class, with designations chosen accordingly."""
    n = len(oracle.classes)
    options = []
    for cut_set, full_class, Y in candidates:
        if target in cut_set or target == full_class:
            continue
        empties = [
            i for i in range(n)
            if i not in cut_set and i != full_class and i != target
        ]
        if not empties:
            continue
        special = tuple(sorted(set(cut_set) | {full_class, empties[0]}))
        options.append((sorted(Y), Y, special))
    if not options:
        return None
    _, Y, special = min(options)
    return Y, special


def _canonical_partition(parts: Iterable) -> tuple:
    return tuple(sorted({frozenset(p) for p in parts}, key=sorted))


# ---------------------------------------------------------------------------
# preorder recovery


def _boundary_seeds(oracle) -> list:
    """phi-satisfying prefix-full sets; they all agree with the canonical
    maximal seed on its special classes (the first class full, the last
    class empty)."""
    out = []
    for p in range(1, len(oracle.classes)):
        Y = frozenset().union(*oracle.classes[:p])
        if oracle.phi(Y):
            out.append(Y)
    return out


def _gap_relation(oracle, seeds: list, middle: list, index: dict,
                  gap: int, modulus: int) -> set:
    """Pairs (x, y) of middle elements whose index colours (taken modulo
    the given modulus, the transduction's guessed colouring) differ by the
    gap and for which some good seed contains x but not y; by the
    separation claim these are exactly the pairs with x < y whose true
    index gap is congruent to the given one."""
    rel = set()
    for x in middle:
        for y in middle:
            if x == y:
                continue
            cx, cy = index[x] % modulus, index[y] % modulus
            if (cy - cx) % modulus != gap:
                continue
            if any(x in Y and y not in Y for Y in seeds):
                rel.add((x, y))
    return rel


def _exact_gap_relation(oracle, seeds: list, middle: list, index: dict,
                        gap: int) -> set:
    """Pairs at index gap exactly `gap`. A single modulo-2*gap colouring
    keeps every odd multiple of the gap (two relation steps always sum to
    0 modulo 2*gap, so the no-intermediate filter removes nothing);
    intersecting with a second colouring modulo 2*(gap+1) pins the gap, for
    class counts below 2*gap*(gap+1) + gap."""
    rel = _gap_relation(oracle, seeds, middle, index, gap, 2 * gap)
    rel &= _gap_relation(oracle, seeds, middle, index, gap, 2 * (gap + 1))
    return {
        (x, y)
        for x, y in rel
        if not any((x, z) in rel and (z, y) in rel for z in {a for a, _ in rel})
    }


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
    seeds = _boundary_seeds(oracle)
    middle = [x for cls in classes[1:-1] for x in cls]
    index = {x: i for i, cls in enumerate(classes) for x in cls}
    succ: set = set()
    rels = {
        D: _exact_gap_relation(oracle, seeds, middle, index, D)
        for D in (d, d + 1)
    }
    for x, z in rels[d + 1]:
        for y, z2 in rels[d]:
            if z2 == z and x != y:
                succ.add((x, y))
    for z, x in rels[d]:
        for z2, y in rels[d + 1]:
            if z2 == z and x != y:
                succ.add((x, y))
    # transitive closure of the successor gives the strict order
    order = set(succ)
    changed = True
    while changed:
        changed = False
        for x, y in list(order):
            for y2, z in list(order):
                if y2 == y and (x, z) not in order and x != z:
                    order.add((x, z))
                    changed = True
    groups: list = []
    for x in sorted(middle):
        for group in groups:
            rep = next(iter(group))
            if (x, rep) not in order and (rep, x) not in order:
                group.add(x)
                break
        else:
            groups.append({x})
    def group_key(group):
        rep = next(iter(group))
        return sum(1 for other in groups if (next(iter(other)), rep) in order)
    groups.sort(key=group_key)
    for a, b in zip(groups, groups[1:]):
        if (next(iter(a)), next(iter(b))) not in order:
            raise RecoveryError("middle order is not total")
    result = LinearPreorder(
        (classes[0],) + tuple(frozenset(g) for g in groups) + (classes[-1],)
    )
    # verify the guess: every interval of the result satisfies phi
    m = len(result.classes)
    for i in range(m):
        for j in range(i, m):
            Y = frozenset().union(*result.classes[i:j + 1])
            if not oracle.phi(Y):
                raise RecoveryError("recovered preorder fails interval check")
    return result
