import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmat import structures
from rankmat.enumerate import binary_structure, binary_structures
from rankmat.structures import (
    CompositionConflict,
    LocalTypeIndex,
    MonadicStructure,
    Structure,
    Vocabulary,
    all_partial_tuples,
    composition_tables,
    compositionality_check,
    local_type_index,
    submasks,
    subsets,
)
from rankmat.trees import set_partitions

from reference_types import (
    element_d_type,
    monadic_d_type,
    qf_type,
    reference_local_type_index,
    singleton_lifting,
    sort_key,
)

LE = Vocabulary((("le", 2),))
EDGE = Vocabulary((("E", 2),))


def class_ids(index) -> dict:
    """Each member tuple of a local type index, with the id (position) of
    its class."""
    return {t: i for i, members in enumerate(index.classes) for t in members}


def linear_order(n):
    tuples = {(i, j) for i in range(n) for j in range(n) if i <= j}
    return Structure.make(LE, n, {"le": tuples})


def path(n):
    edges = set()
    for i in range(n - 1):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    return Structure.make(EDGE, n, {"E": edges})


def test_qf_type_two_element_order():
    s = linear_order(2)
    ty = qf_type(s, (0, 1))
    assert ty.mask == (True, True)
    assert ty.equality == (0, 1)
    assert ty.facts == {("le", (0, 0)), ("le", (1, 1)), ("le", (0, 1))}


def test_qf_type_empty_tuple():
    s = linear_order(3)
    ty = qf_type(s, ())
    assert ty.facts == frozenset()
    assert ty.mask == ()


def test_qf_type_partial_tuple_excludes_undefined():
    s = path(4)
    ty = qf_type(s, (1, None))
    assert ty.mask == (True, False)
    assert all(idx == (0,) or set(idx) == {0} for _, idx in ty.facts)


def test_qf_type_equal_tuples_equal_types():
    s = path(4)
    assert qf_type(s, (0, 1)) == qf_type(s, (0, 1))
    # path automorphism i -> 3 - i
    assert qf_type(s, (0, 1)) == qf_type(s, (3, 2))


def test_qf_type_out_of_range():
    s = path(3)
    # the first coordinate out of range is named, whatever follows it
    for t, bad in [((0, 5), 5), ((3, 0), 3), ((None, -1, 2), -1), ((0, 0, 7, -2), 7)]:
        with pytest.raises(ValueError, match=f"^coordinate {bad} out of range$"):
            qf_type(s, t)


@pytest.mark.parametrize("bad, message", [
    ((0, 1, 2), "tuple (0, 1, 2) has wrong arity for E"),
    ((1,), "tuple (1,) has wrong arity for E"),
    ((2, 3), "tuple (2, 3) out of range in E"),
    ((-1, 0), "tuple (-1, 0) out of range in E"),
])
def test_structure_names_the_offending_tuple(bad, message):
    vocabulary = Vocabulary((("le", 2), ("E", 2)))
    good = {(0, 1), (1, 2), (2, 0)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Structure.make(vocabulary, 3, {"le": good, "E": good | {bad}})
    Structure.make(vocabulary, 3, {"le": good, "E": good})


def test_qf_type_isomorphism_invariance():
    s = path(4)
    perm = [2, 0, 3, 1]
    edges = {(perm[a], perm[b]) for a, b in s.relation("E")}
    s2 = Structure.make(EDGE, 4, {"E": edges})
    for t in itertools.product(range(4), repeat=2):
        mapped = tuple(perm[x] for x in t)
        assert qf_type(s, t) == qf_type(s2, mapped)


def test_singleton_lifting_simple():
    s = Structure.make(EDGE, 2, {"E": {(0, 1)}})
    ms = singleton_lifting(s)
    assert ms.relations == (("E", 2, frozenset({(1 << 0, 1 << 1)})),)


def test_singleton_lifting_empty_relation():
    s = Structure.make(EDGE, 2, {"E": set()})
    ms = singleton_lifting(s)
    assert ms.relations == (("E", 2, frozenset()),)


def test_local_type_full_universe_matches_qf_type():
    s = path(3)
    index = local_type_index(s, range(3), 2, 2)
    by_type = {}
    for t in all_partial_tuples(range(3), 2):
        by_type.setdefault(qf_type(s, t), set()).add(t)
    classes = {frozenset(members) for members in index.classes}
    assert classes == {frozenset(v) for v in by_type.values()}


def test_local_type_empty_set_single_class():
    s = path(3)
    index = local_type_index(s, (), 0, 2)
    assert len(index.classes) == 1
    assert class_ids(index) == {(): 0}


def test_local_type_p4_distinguishes_inner_outer():
    s = path(4)
    # 0 has external neighbours none in {2,3}; 1 is adjacent to 2
    index = local_type_index(s, {0, 1}, 1, 2)
    ids = class_ids(index)
    assert ids[(0,)] != ids[(1,)]


def test_a_tuple_outside_X_is_in_no_class():
    index = local_type_index(path(4), {0, 1}, 1, 2)
    assert (2,) not in class_ids(index)
    assert set(class_ids(index)) == {(0,), (1,), (None,)}


def test_composition_tables_single_part():
    s = linear_order(2)
    lambdas, gamma, colours = composition_tables(s, [range(2)], 1, 2)
    index = local_type_index(s, range(2), 2, 2)
    ids = class_ids(index)
    for t in all_partial_tuples(range(2), 2):
        colour = lambdas[0][ids[t]]
        assert gamma[(colour,)] == qf_type(s, t)


def test_composition_tables_singleton_partition():
    s = linear_order(2)
    lambdas, gamma, colours = composition_tables(s, [{0}, {1}], 2, 2)
    indices = [class_ids(local_type_index(s, {0}, 2, 2)),
               class_ids(local_type_index(s, {1}, 2, 2))]
    parts = [frozenset({0}), frozenset({1})]
    for t in all_partial_tuples(range(2), 2):
        key = []
        for i in range(2):
            proj = tuple(x if x in parts[i] else None for x in t)
            key.append(lambdas[i][indices[i][proj]])
        assert gamma[tuple(key)] == qf_type(s, t)


def test_composition_tables_bad_partition():
    s = path(3)
    with pytest.raises(ValueError):
        composition_tables(s, [{0, 1}, {1, 2}], 2, 2)
    with pytest.raises(ValueError):
        composition_tables(s, [{0, 1}], 1, 2)


def test_composition_tables_rejects_ell_above_the_part_count():
    # an ell above the part count would choose no parts and check nothing
    s = path(3)
    for ell in (3, 5):
        with pytest.raises(ValueError, match=f"^ell = {ell} exceeds the 2 parts$"):
            composition_tables(s, [[0], [1, 2]], ell, 2)
    assert composition_tables(s, [[0], [1, 2]], 2, 2)[1]


def test_compositionality_on_an_empty_universe():
    # an empty universe has no parts; ell = 1 is allowed there and chooses none
    s = Structure.make(EDGE, 0, {})
    assert compositionality_check(s, [], 2) == (True, None)
    assert composition_tables(s, [], 1, 2) == ([], {}, range(0))
    with pytest.raises(ValueError, match="^ell = 2 exceeds the 0 parts$"):
        composition_tables(s, [], 2, 2)


def test_compositionality_exhaustive_small():
    for s in (binary_structure(3, bits) for bits in range(1 << 9)):
        ok, cex = compositionality_check(s, [{0}, {1, 2}], 2)
        assert ok, cex


def test_compositionality_random_five_elements():
    import random

    rng = random.Random(7)
    for _ in range(5):
        rel = {
            (a, b)
            for a in range(5)
            for b in range(5)
            if rng.random() < 0.4
        }
        s = Structure.make(EDGE, 5, {"E": rel})
        ok, cex = compositionality_check(s, [{0, 3}, {1}, {2, 4}], 2)
        assert ok, cex


def test_compositionality_check_detects_conflict(monkeypatch):
    # with every tuple of a part in one local class, the per-part colours
    # no longer determine the quantifier-free type
    def one_class(s, X, k, m):
        X = frozenset(X)
        return LocalTypeIndex(X, k, m, (tuple(all_partial_tuples(sorted(X), k)),))

    monkeypatch.setattr(structures, "local_type_index", one_class)
    s = path(3)
    partition = [{0}, {1, 2}]
    ok, (t1, t2) = compositionality_check(s, partition, 2)
    assert not ok
    for part in partition:
        ids = class_ids(one_class(s, part, 2, 2))
        assert ids[tuple(x if x in part else None for x in t1)] == \
            ids[tuple(x if x in part else None for x in t2)]
    assert qf_type(s, t1) != qf_type(s, t2)
    # every tuple has the same colours, so t1 is the tuple just before t2
    order = list(all_partial_tuples(range(3), 2))
    assert order.index(t2) == order.index(t1) + 1
    with pytest.raises(CompositionConflict) as conflict:
        composition_tables(s, partition, 2, 2)
    assert (conflict.value.first, conflict.value.second) == (t1, t2)


@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * n) - 1))))
def test_binary_structure_round_trips_bits(n_bits):
    n, bits = n_bits
    s = binary_structure(n, bits)
    assert s.universe_size == n
    rel = s.relation("E")
    pairs = itertools.product(range(n), repeat=2)
    assert sum(1 << i for i, pair in enumerate(pairs) if pair in rel) == bits


def test_binary_structure_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        binary_structure(2, 1 << 4)
    with pytest.raises(ValueError):
        binary_structure(2, -1)


def test_binary_structures_distinct():
    found = list(binary_structures(3))
    assert len(found) == len(set(found)) == 2 + 16 + 512


@pytest.mark.parametrize("n", [2, 3])
def test_lifting_preserves_type_distinctions(n):
    # two element tuples have equal d-types iff their singleton liftings
    # have equal monadic d-types
    structures = [binary_structure(2, bits) for bits in range(1 << 4)] if n == 2 else [
        path(3),
        linear_order(3),
        Structure.make(EDGE, 3, {"E": {(0, 1), (1, 2), (2, 0)}}),
    ]
    for s in structures:
        ms = singleton_lifting(s)
        for d in range(3):
            for length in (1, 2):
                tuples = list(itertools.product(range(n), repeat=length))
                for ta, tb in itertools.combinations(tuples, 2):
                    elem_equal = element_d_type(s, ta, d) == element_d_type(s, tb, d)
                    lift_equal = monadic_d_type(
                        ms, tuple(1 << x for x in ta), d
                    ) == monadic_d_type(ms, tuple(1 << x for x in tb), d)
                    assert elem_equal == lift_equal, (s, ta, tb, d)


# ---------------------------------------------------------------------------
# bitmask subsets against the copies they replaced


def reference_subsets_of(mask_bits):
    """The former ``rank._subsets_of``: masks over the given bit positions."""
    bits = list(mask_bits)
    for choice in range(1 << len(bits)):
        sub = 0
        for i, b in enumerate(bits):
            if choice >> i & 1:
                sub |= 1 << b
        yield sub


def reference_descending_submasks(mask):
    """Every submask of mask, walked down from mask by ``(sub - 1) & mask``,
    then sorted."""
    sub = mask
    out = [0]
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return sorted(set(out))


def reference_all_subsets(cls):
    """The former ``recovery._all_subsets``."""
    items = sorted(cls)
    return [
        frozenset(items[i] for i in range(len(items)) if bits >> i & 1)
        for bits in range(1 << len(items))
    ]


def reference_subsets(items):
    """The former ``structures.subsets``: one comprehension per mask."""
    items = tuple(items)
    for bits in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if bits >> i & 1)


@given(st.frozensets(st.integers(0, 9), max_size=7))
def test_submasks_match_replaced_copies(positions):
    mask = sum(1 << b for b in positions)
    got = list(submasks(mask))
    assert got == list(reference_subsets_of(sorted(positions)))
    assert got == reference_descending_submasks(mask)


@given(st.frozensets(st.integers(-5, 20), max_size=7))
def test_subsets_match_replaced_copy(cls):
    got = list(subsets(sorted(cls)))
    assert got == reference_all_subsets(cls)
    assert len(got) == 1 << len(cls)
    # bit i of the position stands for items[i]
    items = sorted(cls)
    for bits, sub in enumerate(got):
        assert sub == {x for i, x in enumerate(items) if bits >> i & 1}


# duplicates and equal items of other types (1, True) included: the first of
# equal items stays the member, as in the comprehension
@given(st.lists(st.one_of(st.integers(-2, 2), st.booleans(), st.text(max_size=1), st.none()),
                max_size=10))
def test_subsets_by_halves_match_the_comprehension(items):
    got = list(subsets(items))
    expected = list(reference_subsets(items))
    assert got == expected
    assert [sorted(map(repr, s)) for s in got] == [sorted(map(repr, s)) for s in expected]


# ---------------------------------------------------------------------------
# local type index arguments


def test_local_type_index_rejects_negative_m():
    with pytest.raises(ValueError, match="m must be >= 0"):
        local_type_index(path(3), {0}, 1, -1)


@pytest.mark.parametrize("X, k, message", [
    ({7}, 0, "coordinate 7 out of range"),
    ({7}, 1, "coordinate 7 out of range"),
    ({0, 3, -1}, 2, "coordinate -1 out of range"),
    ({0}, -1, "k must be >= 0"),
    ({7}, -2, "k must be >= 0"),
])
def test_local_type_index_checks_X_and_k_before_typing(monkeypatch, X, k, message):
    def untouched(ids, s, t):
        raise AssertionError("typed before the argument check")

    monkeypatch.setattr(structures.QfTypeIds, "intern", untouched)
    s = path(3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        local_type_index(s, X, k, 1)
    assert "local_type_indices" not in vars(s)


# ---------------------------------------------------------------------------
# local type classes typed against tails shorter than the widest relation


@st.composite
def local_type_cases(draw):
    """A structure with 0-3 relations of arity 1-3 (none: the empty
    vocabulary) on 0-4 elements, X a subset of its universe, k <= 2 and
    m <= 3."""
    arities = draw(st.lists(st.integers(1, 3), max_size=3))
    vocabulary = Vocabulary(tuple((f"R{i}", a) for i, a in enumerate(arities)))
    n = draw(st.integers(0, 4))
    rels = {}
    X = frozenset()
    if n:
        element = st.integers(0, n - 1)
        rels = {name: draw(st.frozensets(st.tuples(*[element] * arity), max_size=3 * n))
                for name, arity in vocabulary.relations}
        X = draw(st.one_of(st.just(frozenset(range(n))), st.frozensets(element)))
    return Structure.make(vocabulary, n, rels), X, draw(st.integers(0, 2)), draw(st.integers(0, 3))


NO_RELATIONS = Structure.make(Vocabulary(()), 3, {})
ALL_ARITIES = Structure.make(Vocabulary((("U", 1), ("E", 2), ("R", 3))), 4, {
    "U": {(0,), (2,)}, "E": {(0, 1), (1, 2), (2, 2), (3, 0)},
    "R": {(0, 1, 2), (1, 3, 3), (2, 0, 3), (3, 3, 1)}})
# 0 and 1 differ only in R(0, 2, 3), which a tail of length 2 sees
ONE_TRIPLE = Structure.make(Vocabulary((("R", 3),)), 4, {"R": {(0, 2, 3)}})


@given(st.one_of(
    st.integers(0, 3).flatmap(lambda n: st.tuples(
        st.integers(0, (1 << n * n) - 1).map(lambda bits: binary_structure(n, bits)),
        st.sets(st.integers(0, n - 1)) if n else st.just(set()),
        st.integers(0, 2), st.integers(0, 2))),
    local_type_cases(),
))
@example((NO_RELATIONS, frozenset(), 2, 3))
@example((NO_RELATIONS, frozenset(range(3)), 2, 3))
@example((NO_RELATIONS, frozenset({1}), 2, 3))
@example((ALL_ARITIES, frozenset(), 2, 3))
@example((ALL_ARITIES, frozenset(range(4)), 2, 3))
@example((ALL_ARITIES, frozenset({0, 2}), 2, 3))
@example((ALL_ARITIES, frozenset({3}), 2, 3))
@example((ONE_TRIPLE, frozenset({0, 1}), 1, 2))
def test_local_type_index_matches_the_full_row(case):
    s, X, k, m = case
    assert local_type_index(s, X, k, m) == reference_local_type_index(s, X, k, m)


@pytest.mark.parametrize("X", [set(), {0}, {1, 3}, {0, 1, 2}, {0, 1, 2, 3}])
def test_binary_local_type_index_types_tails_of_length_at_most_one(monkeypatch, X):
    # r = 2: the (|X| + 1)^2 partial pairs over X, each against the empty
    # tail and the |outside| tails of length 1, and no tail of length 2;
    # every tuple the kernel types is counted
    s = binary_structure(4, 0b1011_0010_0110_1001)
    expected = reference_local_type_index(s, X, 2, 2)
    calls = []
    intern = structures.QfTypeIds.intern

    def counted(ids, s, t):
        calls.append(t)
        return intern(ids, s, t)

    monkeypatch.setattr(structures.QfTypeIds, "intern", counted)
    assert local_type_index(s, X, 2, 2) == expected
    assert len(calls) == (len(X) + 1) ** 2 * (1 + 4 - len(X))


# ---------------------------------------------------------------------------
# qf_type against the body it replaced


def reference_qf_type(s, t):
    """The former ``qf_type`` body: a range scan before any work, equality
    by a linear search, and facts collected in a set."""
    k = len(t)
    for x in t:
        if x is not None and not (0 <= x < s.universe_size):
            raise ValueError(f"coordinate {x} out of range")
    mask = tuple(x is not None for x in t)
    equality = []
    for i in range(k):
        if t[i] is None:
            equality.append(None)
        else:
            equality.append(next(j for j in range(k) if t[j] == t[i]))
    defined = [i for i in range(k) if t[i] is not None]
    facts = set()
    for name, arity in s.vocabulary.relations:
        rel = s.relation(name)
        for idx in itertools.product(defined, repeat=arity):
            if tuple(t[i] for i in idx) in rel:
                facts.add((name, idx))
    return structures.QfType(mask, tuple(equality), frozenset(facts))


MIXED = Vocabulary((("E", 2), ("R", 3), ("U", 1)))


@st.composite
def mixed_structures(draw):
    """A structure over MIXED with random relations, half the time built
    with ``Structure(...)`` and its interpretation in reverse vocabulary
    order."""
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    rels = {name: draw(st.frozensets(st.tuples(*[element] * arity), max_size=12))
            for name, arity in MIXED.relations}
    if draw(st.booleans()):
        interpretation = tuple((name, rels[name]) for name, _ in reversed(MIXED.relations))
        return Structure(MIXED, n, interpretation)
    return Structure.make(MIXED, n, rels)


@given(st.one_of(
    st.integers(0, 3).flatmap(lambda n: st.integers(0, (1 << n * n) - 1).map(
        lambda bits: binary_structure(n, bits))),
    mixed_structures(),
).flatmap(lambda s: st.tuples(st.just(s), st.lists(
    st.one_of(st.none(), st.integers(-1, s.universe_size)), max_size=4))))
def test_qf_type_matches_the_replaced_body(case):
    s, t = case
    t = tuple(t)
    try:
        expected = reference_qf_type(s, t)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            qf_type(s, t)
        return
    assert qf_type(s, t) == expected


# ---------------------------------------------------------------------------
# the type id kernel against the reference qf_type


@st.composite
def typed_tuple_cases(draw):
    """A structure with 0-3 relations of arity 1-3 on 1-4 elements, its
    relations often listed out of name order; partial tuples of length 0-5
    with repeats and ``None``s; elements whose pair rows are read; and a
    tuple with a coordinate outside the universe."""
    names = draw(st.permutations(["R", "E", "U"]))[:draw(st.integers(0, 3))]
    vocabulary = Vocabulary(tuple((name, draw(st.integers(1, 3))) for name in names))
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    s = Structure.make(vocabulary, n, {
        name: draw(st.frozensets(st.tuples(*[element] * arity), max_size=3 * n))
        for name, arity in vocabulary.relations})
    coordinate = st.one_of(st.none(), element)
    tuples = draw(st.lists(st.lists(coordinate, max_size=5).map(tuple), max_size=12))
    xs = draw(st.lists(element, max_size=n))
    bad = draw(st.lists(st.one_of(coordinate, st.integers(-2, n + 2)), max_size=5).filter(
        lambda t: any(x is not None and not 0 <= x < n for x in t)))
    return s, tuples, xs, tuple(bad)


OUT_OF_ORDER = Structure.make(Vocabulary((("Z", 2), ("A", 1))), 3, {
    "Z": {(0, 1), (1, 1), (2, 0)}, "A": {(1,), (2,)}})


@settings(deadline=None)
@given(typed_tuple_cases())
@example((OUT_OF_ORDER, [(0, 1, None, 1, 2), (1, 0), (None,), (), (2, 2, 2)], [1, 0], (0, 5, 4)))
@example((Structure.make(Vocabulary(()), 2, {}), [(0, None, 0), (1, None, 1), (None, 0)],
          [0, 1], (None, -1)))
def test_type_ids_are_equal_exactly_when_the_qf_types_are(case):
    s, tuples, xs, bad = case
    n = s.universe_size
    ids = s.qf_type_ids
    # pair rows before and after single tuples, pairs among the tuples
    half = len(xs) // 2
    rows = ids.pair_rows(s, xs[:half])
    tuples = tuples + [(x, y) for x in range(n) for y in range(n)]
    typed = [ids.id_of(s, t) for t in tuples] + [ids.intern(s, t) for t in tuples]
    rows += ids.pair_rows(s, xs[half:])
    tuples = tuples * 2 + [(x, y) for x in xs for y in range(n)]
    typed += [i for row in rows for i in row]
    expected = [qf_type(s, t) for t in tuples]
    assert [ids.types[i] for i in typed] == expected
    assert all((a == b) == (ta == tb)
               for a, ta in zip(typed, expected) for b, tb in zip(typed, expected))
    assert len(set(ids.types)) == len(ids.types)  # one id per type
    assert ids.sort_keys == list(map(sort_key, ids.types))
    # an out-of-range tuple names its first coordinate outside, keeps nothing
    first = next(x for x in bad if x is not None and not 0 <= x < n)
    kept = (dict(ids.of_tuple), list(ids.types), list(ids.sort_keys))
    for lookup in (ids.id_of, ids.intern):
        with pytest.raises(ValueError, match=f"^coordinate {first} out of range$"):
            lookup(s, bad)
    with pytest.raises(ValueError, match=f"^coordinate {first} out of range$"):
        qf_type(s, bad)
    assert (ids.of_tuple, ids.types, ids.sort_keys) == kept


# ---------------------------------------------------------------------------
# the per-structure local type memo


@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * n) - 1))))
def test_cached_local_type_index_equals_a_fresh_one(spec):
    n, bits = spec
    s = binary_structure(n, bits)
    for X in subsets(range(n)):
        for k in range(3):
            for m in range(3):
                first = local_type_index(s, X, k, m)
                again = local_type_index(s, set(X), k, m)
                assert again is first
                fresh = local_type_index(binary_structure(n, bits), X, k, m)
                assert fresh is not first
                assert fresh == first
                assert fresh.classes == first.classes
    assert len(s.local_type_indices) == (1 << n) * 9


def test_class_ids_of_one_part_reuse_one_index(monkeypatch):
    built = []
    build = structures._build_local_type_index

    def counted(*args):
        built.append(args[1:])
        return build(*args)

    monkeypatch.setattr(structures, "_build_local_type_index", counted)
    s = path(4)
    ids = [class_ids(local_type_index(s, [0, 1], 2, 2))[x, y]
           for x in (0, 1, None) for y in (0, 1, None)]
    assert built == [(frozenset({0, 1}), 2, 2)]
    index = s.local_type_indices[frozenset({0, 1}), 2, 2]
    assert ids == [class_ids(index)[x, y] for x in (0, 1, None) for y in (0, 1, None)]
    local_type_index(s, {1, 0}, 1, 2)
    assert built == [(frozenset({0, 1}), 2, 2), (frozenset({0, 1}), 1, 2)]
    assert s.local_type_indices[frozenset({0, 1}), 2, 2] is index


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.integers(0, (1 << n * n) - 1).map(lambda bits: binary_structure(n, bits)),
    st.sampled_from(list(set_partitions(list(range(n))))),
    st.integers(1, 2), st.integers(0, 2))))
def test_composition_gamma_is_qf_type_of_every_tuple_seen(case):
    s, partition, ell, m = case
    ell = min(ell, len(partition))
    lambdas, gamma, _ = composition_tables(s, partition, ell, m)
    parts = [frozenset(p) for p in partition]
    seen = {}
    for chosen in itertools.combinations(range(len(parts)), ell):
        union = sorted(set().union(*(parts[i] for i in chosen)))
        for t in all_partial_tuples(union, m):
            key = tuple(
                lambdas[i][class_ids(local_type_index(s, parts[i], m, m))[
                    tuple(x if x in parts[i] else None for x in t)]]
                for i in chosen)
            assert gamma[key] == qf_type(s, t)
            seen.setdefault(key, t)
    assert list(gamma) == list(seen)


def test_no_memo_before_the_negative_m_error():
    s = path(3)
    with pytest.raises(ValueError, match="m must be >= 0"):
        local_type_index(s, {0}, 1, -1)
    assert "local_type_indices" not in vars(s)
    local_type_index(s, {0}, 1, 0)
    assert list(vars(s)["local_type_indices"]) == [(frozenset({0}), 1, 0)]
