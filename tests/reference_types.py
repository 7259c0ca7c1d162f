"""Reference definitions the library's faster kernels are compared against.

``reference_local_type_index`` is the local type index typed against every
external tuple of length 0..m, the full row that
``rankmat.structures.local_type_index`` cuts short at the widest relation.

``reference_pair_types`` types the pairs (x, y) of one x from fact columns
over the universe, the per-x loop that ``QfTypeIds.pair_rows`` runs once
over all of a call's new x.

Depth-d monadic types as nested values are the reference definition that
``rankmat.rank``'s interned monadic typer is compared against.

``monadic_d_type`` builds a type as a hashable nested value (atoms at depth
0, then the depth-(d-1) type and the set of one-step extensions' types), so
two subset tuples have equal types exactly when the values are equal.  It is
exponential in d and is only run on small structures.  ``element_d_type``
types element tuples through ``singleton_lifting``."""
from __future__ import annotations

from itertools import compress, product
from typing import Sequence

from rankmat.structures import (
    LocalTypeIndex,
    MonadicStructure,
    QfType,
    Structure,
    all_partial_tuples,
    qf_type,
)


def reference_local_type_index(s: Structure, X, k: int, m: int) -> LocalTypeIndex:
    """The partial k-tuples over X grouped by their row of types against
    every external tuple of length 0..m, shortest first; classes in the
    order of their rows' sort keys, members in coordinate order with
    ``None`` first."""
    X = frozenset(X)
    outside = sorted(set(s.universe()) - X)
    exts = [e for ell in range(m + 1) for e in product(outside, repeat=ell)]
    groups: dict = {}
    for t in all_partial_tuples(sorted(X), k):
        groups.setdefault(tuple([qf_type(s, t + e) for e in exts]), []).append(t)
    keyed = sorted(groups.items(), key=lambda item: [ty.sort_key() for ty in item[0]])
    by_position = lambda t: tuple(-1 if x is None else x for x in t)
    classes = tuple(tuple(sorted(members, key=by_position)) for _, members in keyed)
    return LocalTypeIndex(X, k, m, classes)


def reference_pair_types(s: Structure, x: int) -> tuple:
    """The type of (x, y) for every y, entry y for y: x == y and each atom
    of a pair as a column over the universe, one x at a time."""
    n = s.universe_size
    ys = range(n)
    at = ((x,) * n, ys).__getitem__  # 0 takes x, 1 takes y
    atoms = [(name, idx) for name, arity in s.vocabulary.relations
             for idx in product((0, 1), repeat=arity)]
    keys = zip(map(x.__eq__, ys), *[
        map(s.relation(name).__contains__, zip(*map(at, idx))) for name, idx in atoms])
    return tuple(QfType((True, True), (0, 0) if key[0] else (0, 1),
                        frozenset(compress(atoms, key[1:])))
                 for key in keys)


def singleton_lifting(s: Structure) -> MonadicStructure:
    """``s`` with each element a read as the singleton bitmask ``1 << a``."""
    rels = []
    for name, arity in s.vocabulary.relations:
        lifted = frozenset(
            tuple(1 << x for x in t) for t in s.relation(name)
        )
        rels.append((name, arity, lifted))
    return MonadicStructure(s.universe_size, tuple(rels))


def _monadic_atomic(ms: MonadicStructure, subsets: tuple, residues: Sequence[int] = ()):
    facts = set()
    k = len(subsets)
    for name, arity, tuples in ms.relations:
        for idx in product(range(k), repeat=arity):
            if tuple(subsets[i] for i in idx) in tuples:
                facts.add(("rel", name, idx))
    for i in range(k):
        for j in range(k):
            if subsets[i] & ~subsets[j] == 0:
                facts.add(("subseteq", i, j))
            if subsets[i] == subsets[j]:
                facts.add(("eq", i, j))
    for q in residues:
        for i in range(k):
            facts.add(("residue", q, i, bin(subsets[i]).count("1") % q))
    return frozenset(facts)


def monadic_d_type(ms: MonadicStructure, subsets: Sequence[int], d: int, residues: Sequence[int] = ()):
    """Depth-d type of a tuple of subsets; hashable canonical value."""
    subsets = tuple(subsets)
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return ("atoms", _monadic_atomic(ms, subsets, residues))
    below = monadic_d_type(ms, subsets, d - 1, residues)
    reachable = frozenset(
        monadic_d_type(ms, subsets + (z,), d - 1, residues) for z in ms.subsets()
    )
    return ("step", below, reachable)


def element_d_type(s: Structure, elements: Sequence[int], d: int, subsets: tuple = ()):
    """Depth-d type of an element tuple under set quantification: the
    ``monadic_d_type`` of its singletons, then the set parameters, in the
    singleton lifting of ``s``.  An element a and the singleton {a} are
    interchangeable there: relation facts fire on coordinates that denote
    single elements, and containment/equality facts compare coordinates as
    sets."""
    lifted = tuple(1 << a for a in elements) + tuple(subsets)
    return monadic_d_type(singleton_lifting(s), lifted, d)
