import contextlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmat import recovery
from rankmat.enumerate import (
    associative_tables,
    clique_graph,
    curated_size4_semigroups,
    cyclic_group,
    edgeless_graph,
    path_graph,
)
from rankmat.recovery import (
    OrderedOracle,
    RecoveryError,
    UnorderedOracle,
    _blocks_up_to,
    _drawn_masks,
    _good_seeds,
    _maximal_candidates,
    _members,
    _refine,
    _sampled_masks,
    _view_for,
    rank_decreasing_report,
    recover_partition,
    recover_preorder,
    synth_oracle,
    validate_oracle,
)
from rankmat.semigroup import validate as validate_semigroup
from rankmat.structures import subsets
from rankmat.trees import (
    LinearPreorder,
    blocks,
    validate_tree,
)

import reference_recovery as ref


def test_rank_decreasing_report_identity():
    g = path_graph(4)
    table, witness = rank_decreasing_report(g, g)
    assert witness is None
    for r_in, r_out in table.items():
        assert r_out == r_in


def test_rank_decreasing_report_edge_removal_growth():
    table, witness = rank_decreasing_report(clique_graph(8), path_graph(8))
    assert table[1] >= 2
    assert witness is not None


def test_rank_decreasing_report_edgeless_to_path():
    table, witness = rank_decreasing_report(edgeless_graph(4), path_graph(4))
    assert table[0] >= 1
    assert witness is not None


def test_rank_decreasing_report_universe_mismatch():
    with pytest.raises(ValueError, match="universes differ"):
        rank_decreasing_report(path_graph(3), path_graph(4))


# ---------------------------------------------------------------------------
# oracles


def test_synth_oracle_single_class():
    o = synth_oracle("unordered", [{0, 1}], 2)
    validate_oracle(o)
    assert o.phi(set()) and o.phi({0, 1})
    assert recover_partition(o) == (frozenset({0, 1}),)


def test_synth_oracle_validation_catches_bad_accept():
    o = synth_oracle("unordered", [{0, 1}, {2, 3}], 2)
    broken = UnorderedOracle(o.classes, o.semigroup, o.lam, frozenset(), o.k)
    with pytest.raises(ValueError, match="completeness"):
        validate_oracle(broken)


def test_synth_oracle_soundness():
    o = synth_oracle("unordered", [{0, 1}, {2, 3}, {4, 5}], 2)
    validate_oracle(o)
    assert not o.phi({0, 2})  # cuts two classes, k = 2
    assert o.phi({0})  # cuts one


# a view needs k + 2 classes: k - 1 cut ones, a full one, an empty one and
# the target
@pytest.mark.parametrize("hidden,k", [
    ([{0, 1}, {2, 3}, {4, 5}, {6}], 2),
    ([{0}, {1, 2}, {3, 4}, {5, 6, 7}, {8}], 3),
])
def test_maximal_seeds_cut_k_minus_1_classes_with_at_most_k_plus_2_special(hidden, k):
    o = synth_oracle("unordered", hidden, k)
    candidates = _maximal_candidates(o)
    assert candidates
    for cut_set, full_class, Y in candidates:
        assert len(cut_set) == k - 1
        assert o.phi_mask(Y) and Y & o.class_masks[full_class] == o.class_masks[full_class]
    views = [_view_for(o, candidates, target) for target in range(len(hidden))]
    assert any(views)
    for target, view in enumerate(views):
        if view is not None:
            # a seed: phi holds, one special class is full and one empty
            Y, special = view
            assert target not in special and len(special) <= k + 2
            assert o.phi_mask(Y)
            parts = [(Y & o.class_masks[i], o.class_masks[i]) for i in special]
            assert any(part == cmask for part, cmask in parts)
            assert any(part == 0 for part, _ in parts)


def test_recover_partition_two_equal_classes():
    hidden = [{0, 1, 2}, {3, 4, 5}]
    o = synth_oracle("unordered", hidden, 2)
    validate_oracle(o)
    assert set(recover_partition(o)) == {frozenset(c) for c in hidden}


def test_recover_partition_five_classes_sizes_1_to_5():
    hidden = []
    start = 0
    for size in range(1, 6):
        hidden.append(set(range(start, start + size)))
        start += size
    o = synth_oracle("unordered", hidden, 3)
    validate_oracle(o)
    assert set(recover_partition(o)) == {frozenset(c) for c in hidden}


def test_recover_partition_random_instances():
    import random

    rng = random.Random(7)
    for _ in range(5):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        hidden = []
        start = 0
        for size in sizes:
            hidden.append(set(range(start, start + size)))
            start += size
        k = rng.randint(2, 3)
        o = synth_oracle("unordered", hidden, k)
        validate_oracle(o)
        assert set(recover_partition(o)) == {frozenset(c) for c in hidden}, (sizes, k)


def test_recover_partition_pre_grouping():
    hidden = [{0, 1}, {2, 3}, {4, 5}, {6, 7}]
    o = synth_oracle("unordered", hidden, 2, groups=[0, 0, 1, 1])
    with pytest.raises(ValueError):
        validate_oracle(o)
    validate_oracle(o, homogeneous=False)
    assert set(recover_partition(o)) == {frozenset(c) for c in hidden}


@pytest.mark.parametrize("groups", [None, [0, 0, 1, 1]])
def test_homogeneity_is_checked_once_per_oracle(monkeypatch, groups):
    # validation and recovery read one kept answer; a non-homogeneous
    # oracle's per-group sub-oracles are checked once each as well
    checked = []
    check = recovery._homogeneity_fault

    def counted(oracle):
        checked.append(oracle)
        return check(oracle)

    monkeypatch.setattr(recovery, "_homogeneity_fault", counted)
    hidden = [{0, 1}, {2, 3}, {4, 5}, {6, 7}]
    o = synth_oracle("unordered", hidden, 2, groups=groups)
    validate_oracle(o, homogeneous=groups is None)
    validate_oracle(o, homogeneous=groups is None)
    assert set(recover_partition(o)) == {frozenset(c) for c in hidden}
    assert recover_partition(o) == recover_partition(o)
    assert checked[0] is o
    assert len(checked) == len({id(oracle) for oracle in checked})
    # each recovery of the grouped oracle restricts it to two new sub-oracles
    assert len(checked) == (1 if groups is None else 1 + 2 * 3)
    assert o.homogeneity_fault == check(o)


def test_good_seeds_are_built_once_per_distinct_view(monkeypatch):
    # on a k = 1 oracle the seeds are single full classes: targets 0 and 1
    # get their own views, and every target from the third on shares one
    views = []
    good_seeds = recovery._good_seeds

    def counted(oracle, Y0, special):
        views.append((Y0, special))
        return good_seeds(oracle, Y0, special)

    monkeypatch.setattr(recovery, "_good_seeds", counted)
    hidden = [{0, 1}, {2}, {3, 4, 5}, {6}, {7, 8}, {9}]
    o = synth_oracle("unordered", hidden, 1)
    assert set(recover_partition(o)) == {frozenset(c) for c in hidden}
    assert len(views) == 3 == len(set(views))


def test_recover_preorder_two_classes():
    o = synth_oracle("ordered", [{0, 1}, {2}], 2)
    validate_oracle(o)
    assert recover_preorder(o, 2).classes == o.classes


def test_recover_preorder_eight_classes():
    hidden = [{0}, {1}, {2}, {3}, {4, 5}, {6}, {7, 8}, {9}]
    o = synth_oracle("ordered", hidden, 2)
    validate_oracle(o)
    rec = recover_preorder(o, 2)
    assert rec.classes == tuple(frozenset(c) for c in hidden)


def test_recover_preorder_twelve_mixed_classes():
    hidden = []
    start = 0
    for size in [1, 3] * 6:
        hidden.append(set(range(start, start + size)))
        start += size
    o = synth_oracle("ordered", hidden, 2)
    validate_oracle(o)
    rec = recover_preorder(o, 2)
    assert rec.classes == tuple(frozenset(c) for c in hidden)


def test_recover_preorder_requires_d_at_least_k():
    o = synth_oracle("ordered", [{0}, {1}, {2}], 2)
    with pytest.raises(ValueError):
        recover_preorder(o, 1)


def test_ordered_oracle_interval_completeness():
    hidden = [{0}, {1, 2}, {3}, {4}]
    o = synth_oracle("ordered", hidden, 2)
    for i in range(4):
        for j in range(i, 4):
            Y = set().union(*hidden[i:j + 1])
            assert o.phi(Y)


def constant_oracle(accept: bool) -> UnorderedOracle:
    """phi is constantly `accept`: the trivial semigroup maps every subset
    to 0, and 0 is accepted or not."""
    classes = [{0, 1}, {2}, {3}]
    lam = [{frozenset(sub): 0 for r in range(len(cls) + 1)
            for sub in itertools.combinations(sorted(cls), r)} for cls in classes]
    return UnorderedOracle(classes, validate_semigroup([[0]]), lam,
                           {0} if accept else set(), 1)


def test_unsound_oracle_raises_recovery_error():
    # accepting every set cuts a non-special class in a good seed
    with pytest.raises(RecoveryError, match="maximality violated"):
        recover_partition(constant_oracle(True))
    # rejecting every set leaves no seed candidate
    with pytest.raises(RecoveryError, match="not complete"):
        recover_partition(constant_oracle(False))


def test_unsound_oracle_names_the_unsound_set():
    with pytest.raises(RecoveryError) as info:
        recover_partition(constant_oracle(True))
    message = str(info.value)
    assert "maximality violated" in message
    named = re.search(r"soundness fails on (\[.*\])", message)
    assert named, message
    Y = frozenset(int(x) for x in re.findall(r"\d+", named.group(1)))
    o = constant_oracle(True)
    assert o.phi(Y)
    assert sum(1 for cls in o.classes if 0 < len(Y & cls) < len(cls)) >= o.k


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bitmask_counts_match_blocks(data):
    kind = data.draw(st.sampled_from(["unordered", "ordered"]))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=12))
    labels = data.draw(st.permutations(range(sum(sizes))))
    hidden, start = [], 0
    for size in sizes:
        hidden.append(labels[start:start + size])
        start += size
    o = synth_oracle(kind, hidden, data.draw(st.integers(1, 3)))
    universe = sorted(o.universe())
    bits = data.draw(st.integers(0, (1 << len(universe)) - 1))
    Y = frozenset(x for i, x in enumerate(universe) if bits >> i & 1)
    count = len(blocks(LinearPreorder(o.classes), Y))
    assert _blocks_up_to(o.class_masks, bits, len(o.classes) + 1) == count
    assert (sum(0 != bits & m != m for m in o.class_masks)
            == sum(1 for cls in o.classes if 0 < len(Y & cls) < len(cls)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_block_count_up_to_the_cap_classifies_as_the_full_count(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=12))
    class_masks, classes, start = [], [], 0
    for size in sizes:
        class_masks.append(((1 << size) - 1) << start)
        classes.append(range(start, start + size))
        start += size
    preorder = LinearPreorder.make(classes)
    k = data.draw(st.integers(1, 10))
    for bits in data.draw(st.lists(st.integers(0, (1 << start) - 1), min_size=1, max_size=64)):
        count = len(blocks(preorder, {i for i in range(start) if bits >> i & 1}))
        capped = _blocks_up_to(class_masks, bits, k + 3)
        assert capped == min(count, k + 3)
        assert (capped <= 1, capped >= k + 3) == (count <= 1, count >= k + 3)


@pytest.mark.parametrize("samples", [0, -5])
def test_validate_oracle_needs_a_sample(samples):
    o = synth_oracle("unordered", [{0, 1}, {2}], 1)
    accept_none = UnorderedOracle(o.classes, o.semigroup, o.lam, (), o.k)
    with pytest.raises(ValueError, match=f"^samples must be >= 1, got {samples}$"):
        validate_oracle(accept_none, samples=samples)
    with pytest.raises(ValueError, match=r"^completeness fails on \[\]$"):
        validate_oracle(accept_none, samples=8)


@pytest.mark.parametrize("groups", [[], [0, 1, 0], [0, 1, 0, 1, 1]])
def test_synth_oracle_needs_one_group_per_class(groups):
    with pytest.raises(ValueError, match=f"^groups must give one entry per class: "
                                         f"{len(groups)} entries for 4 classes$"):
        synth_oracle("unordered", [{0}, {1, 2}, {3}, {4, 5}], 1, groups)


def test_synth_oracle_takes_no_groups_for_an_ordered_oracle():
    with pytest.raises(ValueError, match="^groups apply to unordered oracles only$"):
        synth_oracle("ordered", [{0}, {1, 2}], 1, [0, 1])


@pytest.mark.parametrize("samples", [4096, 40])
def test_validate_oracle_ordered_errors_name_first_offending_set(samples):
    o = synth_oracle("ordered", [{0}, {1, 2}, {3}, {4, 5}], 1)
    accept_all = OrderedOracle(o.classes, o.semigroup, o.lam, o.semigroup.elements(), o.k)
    accept_none = OrderedOracle(o.classes, o.semigroup, o.lam, (), o.k)
    universe = sorted(o.universe())
    n = len(universe)
    if 1 << n <= samples:
        masks = range(1 << n)
    else:
        rng = random.Random(0)
        masks = sorted({rng.randrange(1 << n) for _ in range(samples)})
    in_order = [frozenset(x for i, x in enumerate(universe) if bits >> i & 1) for bits in masks]
    p = LinearPreorder(o.classes)
    unsound = next(Y for Y in in_order if len(blocks(p, Y)) >= o.k + 3)
    incomplete = next(Y for Y in in_order if len(blocks(p, Y)) <= 1)
    with pytest.raises(ValueError, match=re.escape(f"soundness fails on {sorted(unsound)}")):
        validate_oracle(accept_all, samples=samples)
    with pytest.raises(ValueError, match=re.escape(f"completeness fails on {sorted(incomplete)}")):
        validate_oracle(accept_none, samples=samples)


def test_validate_oracle_rejects_overlapping_ordered_classes():
    o = synth_oracle("ordered", [{0, 1}, {1, 2}], 1)
    with pytest.raises(ValueError, match="disjoint"):
        validate_oracle(o)


@pytest.mark.parametrize("classes, message", [
    ([{0, 1}, {1, 2}, {3}], "element 1 is in classes 0 and 1"),
    ([{0}, {1, 2}, {3, 2}], "element 2 is in classes 1 and 2"),
    ([{4, 5}, {0}, {5, 4}], "element 4 is in classes 0 and 2"),
])
def test_unordered_oracle_rejects_overlapping_classes(classes, message):
    with pytest.raises(ValueError, match=f"^unordered classes must be disjoint: {message}$"):
        synth_oracle("unordered", classes, 1)


@pytest.mark.parametrize("n, budget", [(0, 1), (1, 2), (5, 32), (5, 31), (6, 32), (12, 4096),
                                       (13, 4096), (12, 4095), (30, 256), (36, 4096),
                                       (20, 256)])
def test_sampled_masks_pinned_at_the_budget_boundary(n, budget):
    # the expression validate_oracle and rank_decreasing_report each used
    if 1 << n <= budget:
        expected = range(1 << n)
    else:
        rng = random.Random(0)
        expected = sorted({rng.randrange(1 << n) for _ in range(budget)})
    masks = _sampled_masks(n, budget)
    assert type(masks) is type(expected)
    assert list(masks) == list(expected)


def test_sampled_masks_are_drawn_once_and_copied():
    first = _sampled_masks(20, 256)
    assert _sampled_masks(20, 256) == first
    first.append(-1)
    first[0] = -2
    again = _sampled_masks(20, 256)
    assert -1 not in again and -2 not in again and len(again) == len(first) - 1
    # the memo keeps at most maxsize sample sets
    maxsize = _drawn_masks.cache_info().maxsize
    assert maxsize is not None
    for n in range(9, 9 + maxsize + 8):
        _sampled_masks(n, 256)
    assert _drawn_masks.cache_info().currsize == maxsize


def _without(table, key):
    return {sub: v for sub, v in table.items() if sub != key}


@pytest.mark.parametrize("change", [
    # a missing subset
    lambda table: _without(table, frozenset({1})),
    # as many keys, one of them with an element outside the class
    lambda table: {**_without(table, frozenset({1})), frozenset({7}): 0},
    # as many keys, one of them a tuple
    lambda table: {**_without(table, frozenset({1})), (1,): 0},
])
def test_unordered_oracle_requires_lambda_to_cover_its_class(change):
    o = synth_oracle("unordered", [{0, 1}, {2}], 1)
    lam = [change(o.lam[0]), o.lam[1]]
    with pytest.raises(ValueError, match="^lambda must cover every subset of its class$"):
        UnorderedOracle(o.classes, o.semigroup, lam, o.accept, o.k)
    UnorderedOracle(o.classes, o.semigroup, o.lam, o.accept, o.k)


def _same_oracle(a, b) -> None:
    assert (a.classes, a.sorted_universe, a.class_masks) == \
        (b.classes, b.sorted_universe, b.class_masks)
    assert (a.semigroup.table, a.lam, a.accept, a.k) == (b.semigroup.table, b.lam, b.accept, b.k)
    assert a.homogeneity_fault == b.homogeneity_fault
    masks = range(1 << len(a.sorted_universe))
    assert list(map(a.phi_mask, masks)) == list(map(b.phi_mask, masks))


def _oracle_or_message(classes, semigroup, lam, accept, k):
    try:
        return UnorderedOracle(classes, semigroup, lam, accept, k)
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("case, message", [
    ("as built", None),
    ("keys of both kinds", None),
    ("a missing subset", "lambda must cover every subset of its class"),
    ("bits of another class", "lambda must cover every subset of its class"),
    ("bits beyond the universe", "lambda must cover every subset of its class"),
    ("a negative mask", "lambda must cover every subset of its class"),
    ("a value past the semigroup", "lambda value 8 of class 0 on [5] is not a semigroup element"),
    ("a negative value", "lambda value -1 of class 0 on [1, 5] is not a semigroup element"),
])
def test_oracle_takes_lambda_keyed_by_masks_or_by_frozensets(case, message):
    # the sorted universe is (1, 3, 5): class {1, 5} is the mask 0b101
    o = synth_oracle("unordered", [{1, 5}, {3}], 1)
    assert len(o.semigroup.elements()) == 8
    by_set = dict(o.lam[0])
    by_mask = {sum(1 << o.sorted_universe.index(x) for x in sub): v for sub, v in by_set.items()}
    assert set(by_mask) == {0, 0b001, 0b100, 0b101}
    five = frozenset({5})
    if case == "keys of both kinds":
        by_mask = {**{m: v for m, v in by_mask.items() if m != 0b100}, five: by_set[five]}
    elif case == "a missing subset":
        del by_set[five], by_mask[0b100]
    elif case == "bits of another class":
        by_set[frozenset({3})], by_mask[0b010] = by_set.pop(five), by_mask.pop(0b100)
    elif case in ("bits beyond the universe", "a negative mask"):
        by_set[frozenset({7})] = by_set.pop(five)
        by_mask[0b1000 if case == "bits beyond the universe" else -1] = by_mask.pop(0b100)
    elif case == "a value past the semigroup":
        by_set[five] = by_mask[0b100] = 8
    elif case == "a negative value":
        by_set[frozenset({1, 5})] = by_mask[0b101] = -1
    from_sets, from_masks = (
        _oracle_or_message(o.classes, o.semigroup, [table, o.lam[1]], o.accept, o.k)
        for table in (by_set, by_mask)
    )
    if message is None:
        _same_oracle(from_sets, o)
        _same_oracle(from_masks, o)
    else:
        assert from_sets == from_masks == message


def test_oracle_rejects_two_keys_for_one_subset():
    o = synth_oracle("unordered", [{1, 5}, {3}], 1)
    # frozenset() and 0 both stand for the empty subset, so {5} is missing
    table = {frozenset(): o.lam[0][frozenset()], 0: o.lam[0][frozenset()],
             0b001: o.lam[0][frozenset({1})], 0b101: o.lam[0][frozenset({1, 5})]}
    with pytest.raises(ValueError, match="^lambda must cover every subset of its class$"):
        UnorderedOracle(o.classes, o.semigroup, [table, o.lam[1]], o.accept, o.k)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mask_keyed_synth_oracle_matches_the_frozenset_reference(data):
    kind = data.draw(st.sampled_from(["unordered", "grouped", "ordered"]))
    n = data.draw(st.integers(1, 10))
    labels = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set())
    hidden = [frozenset(labels[i:j]) for i, j in zip([0] + cuts, cuts + [n])]
    k = data.draw(st.integers(1, 3))
    groups = None
    if kind == "grouped":
        groups = data.draw(st.lists(st.integers(0, 2), min_size=len(hidden),
                                    max_size=len(hidden)))
    kind = "ordered" if kind == "ordered" else "unordered"
    new, old = synth_oracle(kind, hidden, k, groups), ref.synth_oracle(kind, hidden, k, groups)
    assert type(new) is type(old)
    _same_oracle(new, old)
    # the view lists each table's subsets in the reference's order
    assert [list(t.items()) for t in new.lam] == [list(t.items()) for t in old.lam]


def _hidden_classes(sizes):
    hidden, start = [], 0
    for size in sizes:
        hidden.append(frozenset(range(start, start + size)))
        start += size
    return hidden


def reference_phi(o, Y) -> bool:
    """phi as the product of the per-class lambda values of the raw sets."""
    Y = frozenset(Y)
    values = [o.lam[i][Y & cls] for i, cls in enumerate(o.classes)]
    return o.semigroup.product(values) in o.accept


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_phi_and_phi_mask_match_the_product_reference(data):
    from rankmat.recovery import _restrict_oracle

    kind = data.draw(st.sampled_from(
        ["unordered", "grouped", "ordered", "restricted", "constant"]))
    if kind == "constant":
        o = constant_oracle(data.draw(st.booleans()))
    else:
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
        labels = data.draw(st.permutations(range(sum(sizes))))
        hidden = [frozenset(labels[x] for x in cls) for cls in _hidden_classes(sizes)]
        k = data.draw(st.integers(1, 3))
        if kind == "ordered":
            o = synth_oracle("ordered", hidden, k)
        else:
            groups = None
            if kind != "unordered":
                groups = data.draw(st.lists(st.integers(0, 2), min_size=len(hidden),
                                            max_size=len(hidden)))
            o = synth_oracle("unordered", hidden, k, groups)
            if kind == "restricted":
                keep = data.draw(st.sets(st.sampled_from(range(len(hidden))), min_size=1))
                o = _restrict_oracle(o, sorted(keep))
    universe = o.sorted_universe
    assert universe == tuple(sorted(o.universe()))
    inside = data.draw(st.sets(st.sampled_from(universe)))
    outside = data.draw(st.sets(st.one_of(st.integers(-3, 30), st.text(max_size=2))
                                .filter(lambda x: x not in o.universe()), max_size=4))
    Y = inside | outside
    container = data.draw(st.sampled_from(["set", "frozenset", "list", "iterator"]))
    query = {"set": set(Y), "frozenset": frozenset(Y),
             "list": list(Y) + list(inside), "iterator": iter(list(Y))}[container]
    expected = reference_phi(o, Y)
    assert o.phi(query) == expected
    bits = sum(1 << i for i, x in enumerate(universe) if x in inside)
    assert o.phi_mask(bits) == expected
    # bits beyond the universe are ignored as well
    high = data.draw(st.integers(0, 7)) << len(universe)
    assert o.phi_mask(bits | high) == expected


def test_phi_rejects_unhashable_elements():
    o = synth_oracle("unordered", [{0, 1}, {2}], 1)
    with pytest.raises(TypeError):
        o.phi([[0]])


def test_oracle_needs_a_class():
    with pytest.raises(ValueError, match="at least one class"):
        UnorderedOracle([], validate_semigroup([[0]]), [], {0}, 1)


def _counting(o):
    """A copy of the oracle that records each phi_mask query."""
    class Counting(type(o)):
        def phi_mask(self, bits):
            self.queried.append(bits)
            return super().phi_mask(bits)

    counting = Counting(o.classes, o.semigroup, o.lam, o.accept, o.k)
    counting.queried = []
    return counting


@pytest.mark.parametrize("kind, sizes, k, samples", [
    ("unordered", [1, 2, 3], 2, 4096),
    ("unordered", [2, 3, 1, 3, 2, 3, 1, 2], 2, 256),
    ("unordered", [3] * 12, 8, 4096),
    ("ordered", [1, 2, 1, 2, 1], 1, 4096),
    ("ordered", [1, 3, 2, 1, 3, 1, 2, 1, 3, 1], 2, 256),
    ("ordered", [1, 2] * 12, 12, 4096),
])
def test_validate_oracle_queries_only_where_a_check_reads(kind, sizes, k, samples):
    hidden = _hidden_classes(sizes)
    o = _counting(synth_oracle(kind, hidden, k))
    validate_oracle(o, samples=samples)
    universe = sorted(o.universe())
    n = len(universe)
    if 1 << n <= samples:
        masks = range(1 << n)
    else:
        rng = random.Random(0)
        masks = sorted({rng.randrange(1 << n) for _ in range(samples)})
    expected = []
    for bits in masks:
        Y = frozenset(x for i, x in enumerate(universe) if bits >> i & 1)
        if kind == "ordered":
            count = len(blocks(LinearPreorder(o.classes), Y))
            read = count <= 1 or count >= k + 3
        else:
            cuts = sum(1 for cls in o.classes if 0 < len(Y & cls) < len(cls))
            read = cuts == 0 or cuts >= k
        if read:
            expected.append(bits)
    assert 0 < len(expected) < len(masks)
    if kind == "ordered":
        # then every interval of classes, left end first
        for i in range(len(hidden)):
            for j in range(i, len(hidden)):
                Y = frozenset().union(*hidden[i:j + 1])
                expected.append(sum(1 << universe.index(x) for x in Y))
    assert o.queried == expected


# ---------------------------------------------------------------------------
# the bitmask seed search and recovery against the frozenset reference


def test_not_homogeneous_single_image_raises_recovery_error():
    # two singleton classes over Z/2 with the same lambda table: the full
    # value 1 is not idempotent, and no lambda image tells the classes apart
    lam = [{frozenset(): 0, frozenset({x}): 1} for x in (0, 1)]
    o = UnorderedOracle([{0}, {1}], cyclic_group(2), lam, {0, 1}, 1)
    validate_oracle(o, homogeneous=False)
    with pytest.raises(RecoveryError, match=re.escape(
            "not homogeneous (full and empty values must be idempotent)")):
        recover_partition(o)


class FixPoint(Exception):
    """Where the reference reaches one of the two cases the bitmask code
    fixes; carries the error the bitmask code raises there."""


@contextlib.contextmanager
def stopping_at_fix_points():
    """Makes the reference raise FixPoint where it would find no seed
    candidate (and return the classes, or fail in ``min``), and where it
    would split a non-homogeneous oracle into one group (and recurse
    forever)."""
    candidates, split = ref._maximal_candidates, ref._split_by_lambda_image

    def checked_candidates(o):
        found = candidates(o)
        if not found:
            raise FixPoint("no candidate seed satisfies phi: the oracle is not complete")
        return found

    def checked_split(o):
        groups = split(o)
        if len(groups) == 1:
            try:
                ref._check_homogeneous(o)
            except ValueError as fault:
                raise FixPoint(f"the oracle is not homogeneous ({fault}) "
                               "and all its classes share one lambda image")
        return groups

    ref._maximal_candidates, ref._split_by_lambda_image = checked_candidates, checked_split
    try:
        yield
    finally:
        ref._maximal_candidates, ref._split_by_lambda_image = candidates, split


def outcome(call, *args):
    try:
        return "returns", call(*args)
    except FixPoint as fix:
        return "raises", RecoveryError, str(fix)
    except Exception as exc:
        return "raises", type(exc), str(exc)


@st.composite
def perturbed_synth_oracles(draw):
    kind = draw(st.sampled_from(["unordered", "grouped", "ordered"]))
    n = draw(st.integers(2, 10))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    labels = draw(st.permutations(range(sum(sizes))))
    hidden = [frozenset(labels[x] for x in cls) for cls in _hidden_classes(sizes)]
    k = draw(st.integers(1, 3))
    groups = None
    if kind == "grouped":
        groups = draw(st.lists(st.integers(0, 1), min_size=len(hidden), max_size=len(hidden)))
    o = synth_oracle("ordered" if kind == "ordered" else "unordered", hidden, k, groups)
    # half of them keep the accept set, so that recovery gets far
    flip = draw(st.sets(st.sampled_from(o.semigroup.elements()), max_size=3)
                if draw(st.booleans()) else st.just(frozenset()))
    return type(o)(o.classes, o.semigroup, o.lam, o.accept ^ flip, o.k)


SMALL_SEMIGROUPS = list(associative_tables(3)) + curated_size4_semigroups()


@st.composite
def random_table_oracles(draw):
    S = draw(st.sampled_from(SMALL_SEMIGROUPS))
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=7))
    labels = draw(st.permutations(range(sum(sizes))))
    classes = [frozenset(labels[x] for x in cls) for cls in _hidden_classes(sizes)]
    value = st.sampled_from(S.elements())
    lam = [{sub: draw(value) for sub in subsets(sorted(cls))} for cls in classes]
    accept = draw(st.sets(value))
    kind = draw(st.sampled_from([UnorderedOracle, OrderedOracle]))
    return kind(classes, S, lam, accept, draw(st.integers(1, 3)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(perturbed_synth_oracles(), random_table_oracles()), st.integers(0, 1))
def test_recovery_matches_the_frozenset_reference(o, extra_d):
    d = o.k + extra_d
    for new, old, args in [(recover_partition, ref.recover_partition, ()),
                           (recover_preorder, ref.recover_preorder, (d,))]:
        with stopping_at_fix_points():
            expected = outcome(old, o, *args)
        assert outcome(new, o, *args) == expected, new.__name__


def test_refining_by_good_seeds_groups_as_membership_patterns_do():
    rng = random.Random(21)
    views = split = 0
    for _ in range(150):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
        labels = rng.sample(range(40), sum(sizes))
        hidden = [frozenset(labels[x] for x in cls) for cls in _hidden_classes(sizes)]
        o = synth_oracle("unordered", hidden, rng.randint(1, 3))
        if rng.random() < 0.5:
            # a changed accept set gives good seeds that are not unions of classes
            flip = set(rng.sample(o.semigroup.elements(), 2))
            o = UnorderedOracle(o.classes, o.semigroup, o.lam, o.accept ^ flip, o.k)
        universe, masks = o.sorted_universe, o.class_masks
        candidates = _maximal_candidates(o)
        for target in range(len(masks)):
            view = _view_for(o, candidates, target)
            if view is None:
                continue
            Y0, special = view
            try:
                family = _good_seeds(o, Y0, special)
            except RecoveryError:
                continue
            nonspecial = sum(m for i, m in enumerate(masks) if i not in special)
            by_pattern: dict = {}
            for i, x in enumerate(universe):
                if nonspecial >> i & 1:
                    by_pattern.setdefault(tuple(Y >> i & 1 for Y in family), []).append(x)
            groups = _refine(nonspecial, family)
            assert sorted(_members(universe, g) for g in groups) == sorted(by_pattern.values())
            views += 1
            split += len(groups) > 1
    assert views > 100 and split > 50
