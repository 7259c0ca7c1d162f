"""Finite relational structures and quantifier-free types.

Elements are dense integer ids 0..n-1.  Partial tuples use ``None`` for
undefined coordinates.  A quantifier-free type records which coordinates
are defined, which are equal, and which atomic relation facts hold; two
tuples get equal types exactly when they satisfy the same quantifier-free
formulas.

One kernel, ``QfTypeIds``, gives each type of a structure a small int id:
a tuple is looked up by a compact key, its equality pattern and one byte
per atom, and only a new key builds a ``QfType``, from atom tables shared
per (vocabulary, length).  Typing work is shared per structure through two
memos on the instance, freed with it: ``Structure.qf_type_ids``, those ids,
and ``Structure.local_type_indices``, which keeps each
``local_type_index(s, X, k, m)`` built, so ``composition_tables`` and every
partition containing a part reuse one index.  Local type indices group
tuples by rows of ids, and ``composition_tables`` compares ids.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, islice, product
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
        """This structure's ``QfTypeIds``.  The memo lives in the instance
        ``__dict__``, outside the dataclass fields, so ``==``, ``hash`` and
        ``repr`` ignore it and it is freed with the structure."""
        return QfTypeIds()

    @cached_property
    def local_type_indices(self) -> dict:
        """``local_type_index`` results keyed by ``(frozenset(X), k, m)``,
        kept in the instance ``__dict__`` as ``qf_type_ids`` is."""
        return {}


@dataclass(frozen=True, slots=True)
class QfType:
    """Canonical quantifier-free type of a partial tuple.

    ``mask`` marks defined coordinates; ``equality`` maps each defined
    coordinate to the least coordinate equal to it; ``facts`` holds the
    (relation, coordinate-index tuple) atoms that are true.  Types are
    listed in the order of their sort keys, ``(mask, equality, facts in
    sorted order)``, which ``QfTypeIds.sort_keys`` keeps per id.
    """

    mask: tuple
    equality: tuple
    facts: frozenset


@lru_cache(maxsize=256)
def _atom_table(relations: tuple, k: int) -> tuple:
    """The atoms (relation, coordinate indices) of a k-tuple, sorted by
    relation name and then by indices: the order of a key's atom bytes and
    of the facts in a type's sort key.  One table per (vocabulary, k), shared
    by every structure over the vocabulary, so their types' facts are one
    copy."""
    return tuple((name, idx) for name, arity in sorted(relations)
                 for idx in product(range(k), repeat=arity))


@lru_cache(maxsize=1024)
def _shape(pattern: tuple) -> tuple:
    """The mask and equality of the types whose keys start with the given
    equality pattern, one copy shared by all of them."""
    *firsts, undefined = pattern
    return (tuple([p != undefined for p in firsts]),
            tuple([p if p != undefined else None for p in firsts]))


class QfTypeIds:
    """Hash-consed quantifier-free types of one structure: each distinct
    type gets a small int id in order of first appearance, so two tuples
    get equal ids exactly when they satisfy the same quantifier-free
    formulas (Filliatre & Conchon, "Type-safe modular hash-consing", 2006).

    The key a type is hash-consed by is cheap to compute from a tuple t and
    is its type.  With ``u = t + (None,)``, it is the equality pattern
    ``map(u.index, u)`` (each coordinate's first equal coordinate; the
    last entry is t's first undefined coordinate, or len(t), so the
    undefined coordinates are those that share it), then for each relation
    in name order the bytes ``bytes(map(rel.__contains__, product(t,
    repeat=arity)))``.  An atom that reads an undefined coordinate never
    holds, so the bytes are the type's atoms.  ``intern`` looks a tuple's
    key up.  Only a new key builds a ``QfType``, once, in ``_key_id``, the
    one place an id is created; its facts are read off the shared
    ``_atom_table`` in sort order, so its sort key needs no sort.

    ``id_of`` memoises each tuple it is asked for in ``of_tuple``,
    ``pair_rows`` the ids of every pair (x, y) for each x asked for, and
    ``sort_keys`` each id's sort key (see ``QfType``).  So the memo holds one
    id per tuple looked up, one row of n ids per x, and one key, type and
    sort key per type.  It lives as long as its structure does, and holds
    no reference to it, so ``Structure.qf_type_ids`` makes no cycle.

    Work bound: ``pair_rows`` types the rows of a call's new x together,
    in one pass over their n pairs (x, y) each, and never again for that
    structure, so a call for the m = 1 rows of X types at most |X|·n
    pairs, and each pair at most once per structure.
    """

    __slots__ = ("of_tuple", "types", "sort_keys", "_keys", "_pairs", "_pair_keys", "_relations")

    def __init__(self):
        self.of_tuple: dict = {}  # tuple -> id
        self.types: list = []  # id -> QfType
        self.sort_keys: list = []  # id -> (mask, equality, sorted facts)
        self._keys: dict = {}  # a type's key -> its id
        self._pairs: dict = {}  # x -> the ids of (x, y) for every y
        self._pair_keys: dict = {}  # a pair's fact-column values -> its id
        # read from the structure on first use: the values a coordinate may
        # take, and each relation's membership test and arity in name order
        self._relations: Optional[tuple] = None

    def _read(self, s: Structure) -> tuple:
        """``_relations``, read from ``s`` on the first call."""
        if self._relations is None:
            self._relations = (frozenset(range(s.universe_size)) | {None}, [
                (s.relation(name).__contains__, arity)
                for name, arity in sorted(s.vocabulary.relations)])
        return self._relations

    def id_of(self, s: Structure, t: tuple) -> int:
        """The id of t's type, recorded for ``t``."""
        try:
            return self.of_tuple[t]
        except KeyError:
            found = self.of_tuple[t] = self.intern(s, t)
            return found

    def intern(self, s: Structure, t: tuple) -> int:
        """The id of t's type, by its key; ``t`` is not recorded.  A
        coordinate outside the universe is a ``ValueError`` naming the
        first such, raised before anything is kept."""
        valid, relations = self._read(s)
        if not valid.issuperset(t):
            raise ValueError(f"coordinate {next(x for x in t if x not in valid)} out of range")
        u = t + (None,)
        return self._key_id(s, (*map(u.index, u), *[
            bytes(map(contains, product(t, repeat=arity))) for contains, arity in relations]))

    def _key_id(self, s: Structure, key: tuple) -> int:
        """The id of the type with the given key, a new one if the key is
        new."""
        found = self._keys.get(key)
        if found is None:
            k = len(key) - len(self._relations[1]) - 1
            mask, equality = _shape(key[:k + 1])
            atoms = _atom_table(s.vocabulary.relations, k)
            facts = tuple(compress(atoms, b"".join(key[k + 1:])))
            found = self._keys[key] = len(self.types)
            self.types.append(QfType(mask, equality, frozenset(facts)))
            self.sort_keys.append((mask, equality, facts))
        return found

    def pair_rows(self, s: Structure, xs: Sequence[int]) -> list:
        """For each x of xs in order, the ids of (x, y) for every y in the
        universe, entry y for y.  The rows of the x that have none yet are
        typed together in one pass: x == y and each atom of a pair, in key
        order, are fact columns over all the new pairs (x, y), x slowest.
        Both coordinates being defined, the columns' values at a pair are
        its type, so each combination of values is turned into its key and
        id once per structure, shared by every x.  A member of xs outside the
        universe is a ``ValueError`` naming the least such, raised before
        anything is typed or kept."""
        pairs = self._pairs
        new = list(dict.fromkeys(x for x in xs if x not in pairs))
        if new:
            n = s.universe_size
            outside = [x for x in new if not 0 <= x < n]
            if outside:
                raise ValueError(f"coordinate {min(outside)} out of range")
            _, relations = self._read(s)
            ys = tuple(range(n)) * len(new)
            at = ([x for x in new for _ in range(n)], ys).__getitem__  # 0 takes x, 1 takes y
            rows = list(zip(map(eq, at(0), ys), *[
                map(contains, zip(*map(at, idx)))
                for contains, arity in relations for idx in product((0, 1), repeat=arity)]))
            known = self._pair_keys
            for row in dict.fromkeys(rows):
                if row not in known:
                    # (x, y)'s key: its equality pattern, then its atoms' bytes
                    bits = iter(row[1:])
                    known[row] = self._key_id(s, (0, 0 if row[0] else 1, 2, *[
                        bytes(islice(bits, 1 << arity)) for _, arity in relations]))
            # the ids n at a time: one row per new x
            pairs.update(zip(new, zip(*[map(known.__getitem__, rows)] * n)))
        return list(map(pairs.__getitem__, xs))


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
    mask stands for items[i]. The subsets of the first half of the items
    are built once, by doubling, and each subset of the second half, walked
    lazily in order, is joined to each of them, so a subset costs one
    frozenset union and memory stays O(2^ceil(n/2)) for n items."""
    items = tuple(items)
    half = (len(items) + 1) // 2
    low = [frozenset()]
    for x in items[:half]:
        low += [s | {x} for s in low]
    if half == len(items):
        yield from low
        return
    for high in subsets(items[half:]):
        for s in low:
            yield s | high


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
    row starts with the internal type.  A row holds type ids from a
    ``QfTypeIds`` of the build's own, freed with it, and classes come in
    the order of their rows' sort keys.
    Built once per ``(X, k, m)`` and kept in ``s.local_type_indices``.

    The row is typed against the external tuples of length at most
    min(m, r - 1) only, r being the largest arity in the vocabulary (r = 1
    when it has no relations), and the classes, their order and their
    members' order are those of the full row of lengths 0..m:

    - X and its complement are disjoint, so no coordinate of a tuple t
      over X equals a coordinate of an external tuple e.
    - An atom that touches both t and e names at most r - 1 positions of e.
    - So the type of t + e is fixed by the type of t, by e, and by the
      types of t + e' for the subtuples e' of e with |e'| <= r - 1, and
      every such e' is a short tail.
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
    # the types of tuples with tails would otherwise stay in s.qf_type_ids
    ids = QfTypeIds()
    intern = ids.intern
    groups: dict = {}
    for t in all_partial_tuples(sorted(X), k):
        groups.setdefault(tuple([intern(s, t + e) for e in exts]), []).append(t)
    sort_key = ids.sort_keys.__getitem__
    keyed = sorted(groups.items(), key=lambda item: list(map(sort_key, item[0])))
    classes = tuple(tuple(sorted(members, key=_tuple_sort_key)) for _, members in keyed)
    return LocalTypeIndex(X, k, m, classes)


def _tuple_sort_key(t: tuple):
    return tuple(-1 if x is None else x for x in t)


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
        projections = [(colour_of[i], parts[i]) for i in chosen]
        for t in all_partial_tuples(union, m):
            # t projected onto each chosen part: its coordinates outside undefined
            key = tuple([colour_at[tuple([x if x in part else None for x in t])]
                         for colour_at, part in projections])
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
