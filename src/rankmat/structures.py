"""Finite relational structures and quantifier-free types.

Elements are dense integer ids 0..n-1.  Partial tuples use ``None`` for
undefined coordinates.  A quantifier-free type records which coordinates
are defined, which are equal, and which atomic relation facts hold; two
tuples get equal types exactly when they satisfy the same quantifier-free
formulas.

Typing work is shared per structure through two memos on the instance,
freed with it: ``Structure.qf_type_ids`` interns each tuple's type as a
small int (and keeps, per element x, the ids of every pair (x, y)), and
``Structure.local_type_indices`` keeps each
``local_type_index(s, X, k, m)`` built, so ``composition_tables`` and every
partition containing a part reuse one index.  ``composition_tables`` types
each tuple through ``qf_type_ids`` and compares ids, which are equal exactly
when the types are.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, product
from operator import eq
from typing import Iterable, Iterator, Optional, Sequence

from . import caps

__all__ = [
    "Vocabulary",
    "Structure",
    "QfType",
    "QfTypeIds",
    "MonadicStructure",
    "LocalTypeIndex",
    "CompositionConflict",
    "qf_type",
    "local_type_index",
    "composition_tables",
    "compositionality_check",
    "all_partial_tuples",
    "submasks",
    "subsets",
]


@dataclass(frozen=True)
class Vocabulary:
    """Relation names with arities."""

    relations: tuple

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation names")
        for name, arity in self.relations:
            if arity < 1:
                raise ValueError(f"relation {name!r} has arity {arity} < 1")


@dataclass(frozen=True)
class Structure:
    vocabulary: Vocabulary
    universe_size: int
    interpretation: tuple  # tuple of (name, frozenset of tuples), vocab order

    def __post_init__(self):
        declared = dict(self.vocabulary.relations)
        seen = dict(self.interpretation)
        if set(seen) != set(declared):
            raise ValueError("interpretation must cover exactly the vocabulary")
        in_range = range(self.universe_size).__contains__
        for name, tuples in self.interpretation:
            arity = declared[name]
            if set(map(len, tuples)) <= {arity} and \
                    all(map(in_range, set(chain.from_iterable(tuples)))):
                continue
            # name the first offending tuple in iteration order
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong arity for {name}")
                if any(not (0 <= x < self.universe_size) for x in t):
                    raise ValueError(f"tuple {t} out of range in {name}")

    @staticmethod
    def make(vocabulary, universe_size, interpretation: dict) -> "Structure":
        items = tuple(
            (name, frozenset(map(tuple, interpretation.get(name, ()))))
            for name, _ in vocabulary.relations
        )
        return Structure(vocabulary, universe_size, items)

    def relation(self, name: str) -> frozenset:
        for rel, tuples in self.interpretation:
            if rel == name:
                return tuples
        raise KeyError(name)

    def universe(self) -> range:
        return range(self.universe_size)

    @cached_property
    def qf_type_ids(self) -> "QfTypeIds":
        """This structure's interned ``qf_type`` ids.  The memo lives in the
        instance ``__dict__``, outside the dataclass fields, so ``==``,
        ``hash`` and ``repr`` ignore it and it is freed with the structure."""
        return QfTypeIds()

    @cached_property
    def local_type_indices(self) -> dict:
        """``local_type_index`` results keyed by ``(frozenset(X), k, m)``,
        kept in the instance ``__dict__`` as ``qf_type_ids`` is."""
        return {}


@dataclass(frozen=True)
class QfType:
    """Canonical quantifier-free type of a partial tuple.

    ``mask`` marks defined coordinates; ``equality`` maps each defined
    coordinate to the least coordinate equal to it; ``facts`` holds the
    (relation, coordinate-index tuple) atoms that are true.
    """

    mask: tuple
    equality: tuple
    facts: frozenset

    def sort_key(self):
        return (self.mask, self.equality, tuple(sorted(self.facts)))


def qf_type(s: Structure, t: Sequence[Optional[int]]) -> QfType:
    size = s.universe_size
    mask = []
    equality = []
    first: dict = {}  # element -> its first coordinate
    defined = []
    values = []
    for i, x in enumerate(t):
        if x is None:
            mask.append(False)
            equality.append(None)
            continue
        if not 0 <= x < size:
            raise ValueError(f"coordinate {x} out of range")
        mask.append(True)
        equality.append(first.setdefault(x, i))
        defined.append(i)
        values.append(x)
    facts = []
    for name, arity in s.vocabulary.relations:
        rel = s.relation(name)
        facts += [(name, idx) for idx, image in zip(product(defined, repeat=arity),
                                                    product(values, repeat=arity))
                  if image in rel]
    return QfType(tuple(mask), tuple(equality), frozenset(facts))


class QfTypeIds:
    """Hash-consed quantifier-free types of one structure: each distinct
    ``QfType`` gets a small int id in order of first appearance, so two
    tuples get equal ids exactly when ``qf_type`` gives them equal types
    (Filliatre & Conchon, "Type-safe modular hash-consing", 2006).
    ``of_tuple`` memoises the id of every tuple looked up, ``pair_rows``
    the ids of every pair (x, y) for each x asked for, and ``sort_keys``
    each id's ``QfType.sort_key()``.  The kept types share one tuple per
    fact, which takes about a third off the memo's size; a structure's
    memo lives as long as the structure does.
    It holds no reference to its structure, so ``Structure.qf_type_ids``
    makes no cycle.

    Work bound: ``pair_rows`` types the rows of a call's new x together,
    in one pass over their n pairs (x, y) each, and never again for that
    structure, so a call for the m = 1 rows of X types at most |X|·n
    pairs, and each pair at most once per structure.
    """

    __slots__ = ("of_tuple", "types", "sort_keys", "_ids", "_facts", "_pairs", "_pair_keys",
                 "_pair_atoms")

    def __init__(self):
        self.of_tuple: dict = {}  # tuple -> id
        self.types: list = []  # id -> QfType
        self.sort_keys: list = []  # id -> its QfType's sort_key()
        self._ids: dict = {}  # QfType -> id
        self._facts: dict = {}  # fact -> its one kept copy
        self._pairs: dict = {}  # x -> the ids of (x, y) for every y
        self._pair_keys: dict = {}  # a pair's fact-column values -> its id
        # a pair's atoms, read from the structure by the first pair_rows
        self._pair_atoms: Optional[tuple] = None

    def intern(self, s: Structure, t: tuple) -> int:
        """The id of ``qf_type(s, t)``, recorded for ``t``."""
        found = self.of_tuple[t] = self._type_id(qf_type(s, t))
        return found

    def _type_id(self, ty: QfType) -> int:
        """The id of ty, a new one if ty is new."""
        found = self._ids.get(ty)
        if found is None:
            facts = frozenset(self._facts.setdefault(f, f) for f in ty.facts)
            ty = QfType(ty.mask, ty.equality, facts)
            found = self._ids[ty] = len(self.types)
            self.types.append(ty)
            self.sort_keys.append(ty.sort_key())
        return found

    def id_of(self, s: Structure, t: tuple) -> int:
        """The id of ``qf_type(s, t)``, interned on first sight of ``t``."""
        try:
            return self.of_tuple[t]
        except KeyError:
            return self.intern(s, t)

    def pair_rows(self, s: Structure, xs: Sequence[int]) -> list:
        """For each x of xs in order, the ids of (x, y) for every y in the
        universe, entry y for y.  The rows of the x that have none yet are
        typed together in one pass: x == y and each atom of a pair are
        fact columns over all the new pairs (x, y), x slowest.  Both
        coordinates being defined, the columns' values at a pair are its
        type: its equality and its true atoms.  So each combination of
        values is typed once per structure, shared by every x.  A member
        of xs outside the universe is a ``ValueError`` naming the least
        such, raised before anything is typed or kept."""
        pairs = self._pairs
        new = list(dict.fromkeys(x for x in xs if x not in pairs))
        if new:
            n = s.universe_size
            outside = [x for x in new if not 0 <= x < n]
            if outside:
                raise ValueError(f"coordinate {min(outside)} out of range")
            if self._pair_atoms is None:
                self._pair_atoms = _pair_atoms(s)
            atoms, holds = self._pair_atoms
            ys = tuple(range(n)) * len(new)
            at = ([x for x in new for _ in range(n)], ys).__getitem__  # 0 takes x, 1 takes y
            keys = list(zip(map(eq, at(0), ys), *[
                map(contains, zip(*map(at, idx))) for contains, (_, idx) in zip(holds, atoms)]))
            known = self._pair_keys
            for key in dict.fromkeys(keys):
                if key not in known:
                    known[key] = self._type_id(QfType(
                        (True, True), (0, 0) if key[0] else (0, 1),
                        frozenset(compress(atoms, key[1:]))))
            # the ids n at a time: one row per new x
            pairs.update(zip(new, zip(*[map(known.__getitem__, keys)] * n)))
        return list(map(pairs.__getitem__, xs))


def _pair_atoms(s: Structure) -> tuple:
    """The atoms (relation, coordinate indices) of a pair, 0 standing for
    x and 1 for y, and for each atom its relation's membership test."""
    atoms = [(name, idx) for name, arity in s.vocabulary.relations
             for idx in product((0, 1), repeat=arity)]
    return atoms, [s.relation(name).__contains__ for name, _ in atoms]


@dataclass(frozen=True)
class MonadicStructure:
    """Structure whose relations take subset (bitmask) arguments."""

    universe_size: int
    relations: tuple  # tuple of (name, arity, frozenset of bitmask tuples)

    def __post_init__(self):
        caps.check("monadic_universe", self.universe_size, "monadic universe")
        full = (1 << self.universe_size) - 1
        names = [name for name, _, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation names")
        for name, arity, tuples in self.relations:
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"bad arity in {name}")
                if any(m & ~full for m in t):
                    raise ValueError(f"bitmask out of range in {name}")

    def subsets(self) -> range:
        return range(1 << self.universe_size)


def all_partial_tuples(elements: Sequence[int], k: int) -> Iterable[tuple]:
    """All partial k-tuples whose defined coordinates come from elements."""
    return product(tuple(elements) + (None,), repeat=k)


def submasks(mask: int) -> Iterator[int]:
    """Every submask of a nonnegative mask, in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def subsets(items: Sequence) -> Iterator[frozenset]:
    """Every subset of items as a frozenset, in bitmask order: bit i of the
    mask stands for items[i]."""
    items = tuple(items)
    for bits in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if bits >> i & 1)


@dataclass(frozen=True)
class LocalTypeIndex:
    """Classes of partial k-tuples over X by behaviour inside the induced
    substructure: internal type plus the extended type-matrix row against
    every external parameter tuple of length 0..m (typed against the
    shorter tails that already fix it; see ``local_type_index``)."""

    X: frozenset
    k: int
    m: int
    classes: tuple  # tuple of (sorted tuple of member tuples), class id = index


def _in_range(X: Iterable[int], n: int) -> frozenset:
    """X as a frozenset, after checking that each member is in ``range(n)``."""
    X = frozenset(X)
    outside = [x for x in X if not 0 <= x < n]
    if outside:
        raise ValueError(f"coordinate {min(outside)} out of range")
    return X


def _external_tuples(s: Structure, X: frozenset, m: int) -> list:
    outside = sorted(set(s.universe()) - X)
    exts = []
    for ell in range(m + 1):
        exts.extend(product(outside, repeat=ell))
    return exts


def local_type_index(s: Structure, X: Iterable[int], k: int, m: int) -> LocalTypeIndex:
    """Groups the partial k-tuples over X by their row of types against
    the external tuples; the first external tuple is the empty one, so the
    row starts with the internal type.  Classes come in the order of their
    rows' sort keys.  Built once per ``(X, k, m)`` and kept in
    ``s.local_type_indices``.

    The row is typed against the external tuples of length at most
    min(m, r - 1) only, r being the largest arity in the vocabulary (r = 1
    when it has no relations), and the classes, their order and their
    members' order are those of the full row of lengths 0..m:

    - X and its complement are disjoint, so no coordinate of a tuple t
      over X equals a coordinate of an external tuple e.
    - An atom that touches both t and e names at most r - 1 positions of e.
    - So qf_type(t + e) is fixed by qf_type(t), by e, and by the types of
      t + e' for the subtuples e' of e with |e'| <= r - 1, and every such
      e' is a short tail.
    - Two tuples therefore have equal full rows exactly when their short
      rows are equal.
    - ``_external_tuples`` lists tails by length, so the short row is a
      prefix of the full row and holds the first entry where two full rows
      differ: the classes sort in the same order.

    A negative m or k, or a member of X outside the universe, is a
    ``ValueError``, raised before anything is typed or kept."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    key = (_in_range(X, s.universe_size), k, m)
    memo = s.local_type_indices
    found = memo.get(key)
    if found is None:
        found = memo[key] = _build_local_type_index(s, *key)
    return found


def _build_local_type_index(s: Structure, X: frozenset, k: int, m: int) -> LocalTypeIndex:
    widest = max([arity for _, arity in s.vocabulary.relations], default=1)
    exts = _external_tuples(s, X, min(m, widest - 1))
    groups: dict = {}
    for t in all_partial_tuples(sorted(X), k):
        groups.setdefault(tuple([qf_type(s, t + e) for e in exts]), []).append(t)
    keyed = sorted(groups.items(), key=lambda item: [ty.sort_key() for ty in item[0]])
    classes = tuple(tuple(sorted(members, key=_tuple_sort_key)) for _, members in keyed)
    return LocalTypeIndex(X, k, m, classes)


def _tuple_sort_key(t: tuple):
    return tuple(-1 if x is None else x for x in t)


def _project(t: tuple, part: frozenset) -> tuple:
    return tuple(x if (x is not None and x in part) else None for x in t)


def _validate_partition(s: Structure, partition: Sequence[Iterable[int]]) -> list:
    parts = [frozenset(p) for p in partition]
    seen: set = set()
    for p in parts:
        if p & seen:
            raise ValueError("overlapping partition parts")
        seen |= p
    if seen != set(s.universe()):
        raise ValueError("partition does not cover the universe")
    return parts


class CompositionConflict(ValueError):
    """Two partial tuples get the same per-part colours but different
    quantifier-free types, so no composition table exists."""

    def __init__(self, key: tuple, first: tuple, second: tuple):
        super().__init__(f"composition conflict at colours {key}: {first} and {second}")
        self.key = key
        self.first = first
        self.second = second


def composition_tables(s: Structure, partition: Sequence[Iterable[int]], ell: int, m: int):
    """Per-part colourings of local types plus a composition table gamma.

    For every choice of ell distinct parts (in index order) and every
    partial m-tuple inside their union, gamma applied to the per-part
    projection colours reproduces the tuple's quantifier-free type.
    Returns (lambdas, gamma, colours) where lambdas[i] maps a local class
    id of part i to a globally unique colour.  Raises CompositionConflict
    with the last earlier tuple of the same colours and the first tuple
    whose type differs from it.  ell must be at least 1 and at most the
    number of parts, or at most 1 when there are none (an empty universe),
    else it is a ``ValueError``: a larger ell would choose no parts and
    check nothing.
    """
    parts = _validate_partition(s, partition)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > max(len(parts), 1):
        raise ValueError(f"ell = {ell} exceeds the {len(parts)} parts")
    indices = [local_type_index(s, p, m, m) for p in parts]
    lambdas = []
    colour_of = []  # per part: projected tuple -> colour
    colour = 0
    for idx in indices:
        lambdas.append({cid: colour + cid for cid in range(len(idx.classes))})
        colour_of.append({t: colour + cid for cid, members in enumerate(idx.classes)
                          for t in members})
        colour += len(idx.classes)
    colours = range(colour)

    ids = s.qf_type_ids
    type_id = ids.id_of
    gamma_ids: dict = {}  # colours -> type id
    last: dict = {}  # colours -> the latest tuple seen with them
    for chosen in combinations(range(len(parts)), ell):
        union = sorted(set().union(*(parts[i] for i in chosen)))
        for t in all_partial_tuples(union, m):
            key = tuple([colour_of[i][_project(t, parts[i])] for i in chosen])
            found = type_id(s, t)
            if gamma_ids.setdefault(key, found) != found:
                raise CompositionConflict(key, last[key], t)
            last[key] = t
    gamma = {key: ids.types[found] for key, found in gamma_ids.items()}
    return lambdas, gamma, colours


def compositionality_check(s: Structure, partition: Sequence[Iterable[int]], m: int):
    """True iff the type of every partial m-tuple is determined by its
    per-part projected local types, i.e. composition_tables with every
    part chosen succeeds.  Returns (ok, counterexample), the
    counterexample being the two tuples of a CompositionConflict."""
    try:
        # an empty universe may have no parts; ell = 1 then chooses none
        composition_tables(s, partition, max(len(partition), 1), m)
    except CompositionConflict as conflict:
        return False, (conflict.first, conflict.second)
    return True, None
