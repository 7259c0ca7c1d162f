import ast
import itertools
import math
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankmat.caps import Overflow
from rankmat.rank import distinct_row_rank
from rankmat.structures import Structure
from rankmat.trees import (
    Block,
    LaminarTree,
    TERNARY,
    LinearPreorder,
    Obstruction,
    Orientation,
    PartiallyOrderedTree,
    all_laminar_trees,
    all_tree_shapes,
    blocks,
    branching,
    chosen_leaf,
    document_preorder,
    group_orientation,
    interesting_analysis,
    min_boolean_combination,
    orientation_is_valid,
    set_partitions,
    subforests,
    ternary_decode,
    ternary_encode,
    validate_tree,
    _first_choices,
    _leaf_list_order,
)


def f(*xs):
    return frozenset(xs)


def star(n):
    family = [f(*range(n))] + [f(i) for i in range(n)]
    return validate_tree(family)


def cherry_tree():
    # ((0 1) 2)
    return validate_tree([f(0), f(1), f(2), f(0, 1), f(0, 1, 2)])


def two_star_tree():
    # root with two children, each a 3-leaf star
    family = [f(i) for i in range(6)]
    family += [f(0, 1, 2), f(3, 4, 5), f(0, 1, 2, 3, 4, 5)]
    return validate_tree(family)


def complete_binary(height):
    n = 2**height
    family = []

    def build(lo, hi):
        family.append(f(*range(lo, hi)))
        if hi - lo > 1:
            mid = (lo + hi) // 2
            build(lo, mid)
            build(mid, hi)

    build(0, n)
    return validate_tree(family)


def test_validate_star():
    t = star(3)
    assert t.leaves == f(0, 1, 2)
    assert len(t.nodes) == 4


def test_validate_missing_full_set():
    with pytest.raises(ValueError):
        validate_tree([f(0), f(1)], leaves=[0, 1])


def test_validate_missing_singleton():
    with pytest.raises(ValueError):
        validate_tree([f(0), f(0, 1)], leaves=[0, 1])


def test_validate_crossing():
    # every singleton is a node, so no node is unary: {0, 1} can lose its
    # child {1} only to a node that crosses it
    pair = r"(\{0, 1\} and \{1, 2\}|\{1, 2\} and \{0, 1\})"
    with pytest.raises(ValueError, match=f"^crossing nodes {pair}$"):
        validate_tree([f(0), f(1), f(2), f(0, 1), f(1, 2), f(0, 1, 2)])


def test_ternary_encode_two_leaves():
    t = star(2)
    s = ternary_encode(t)
    rel = s.relation("T")
    assert (0, 0, 0) in rel and (0, 0, 1) not in rel
    for z in range(2):
        assert (0, 1, z) in rel
        assert (1, 0, z) in rel


def test_ternary_encode_star():
    t = star(3)
    rel = ternary_encode(t).relation("T")
    for z in range(3):
        assert (0, 1, z) in rel
    assert (0, 0, 0) in rel
    assert (0, 0, 1) not in rel


def test_ternary_encode_rejects_a_missing_singleton():
    # built directly, so nothing validated it: no child of the root holds 1,
    # and the pairs through 1 would be missing from the encoding
    t = LaminarTree(f(0, 1, 2), frozenset({f(0), f(2), f(0, 1, 2)}))
    with pytest.raises(ValueError, match=r"^singleton \{1\} missing from the family$"):
        ternary_encode(t)


def test_decode_encode_identity_small():
    for n in range(1, 6):
        for t in all_laminar_trees(range(n)):
            assert ternary_decode(ternary_encode(t)) == t


def test_decode_rejects_non_encoding():
    s = Structure.make(TERNARY, 2, {"T": {(0, 0, 0)}})
    with pytest.raises(ValueError):
        ternary_decode(s)
    # the diagonal of star(2)'s encoding swapped: every node, every pair
    # triple and the triple count are as in the encoding
    rel = ternary_encode(star(2)).relation("T") - {(0, 0, 0), (1, 1, 1)}
    s = Structure.make(TERNARY, 2, {"T": rel | {(0, 0, 1), (1, 1, 0)}})
    with pytest.raises(ValueError, match="^relation is not a ternary tree encoding$"):
        ternary_decode(s)


def test_subforests_two_leaves():
    t = star(2)
    assert subforests(t) == {f(0), f(1), f(0, 1)}


def test_subforests_star3_all_nonempty():
    t = star(3)
    expected = {f(*c) for k in (1, 2, 3) for c in itertools.combinations(range(3), k)}
    assert subforests(t) == expected


def test_subforests_matches_bruteforce():
    for t in itertools.chain(*(all_laminar_trees(range(n)) for n in range(1, 6))):
        expected = {t.root()}
        for node in t.internal_nodes():
            kids = t.children(node)
            for k in range(1, len(kids) + 1):
                for chosen in itertools.combinations(kids, k):
                    expected.add(frozenset().union(*chosen))
        assert "forests" not in vars(t._index)
        assert subforests(t) == frozenset(expected)
        # as leaf masks (leaf x is bit x), the set min_boolean_combination looks X up in
        assert t._index.forests == {sum(1 << x for x in f) for f in expected}


def test_interesting_analysis_empty_X():
    t = star(4)
    interesting, ell, d = interesting_analysis(t, set())
    assert interesting == frozenset() and ell == 0 and d == 0


def test_interesting_analysis_full_child():
    t = two_star_tree()
    interesting, ell, d = interesting_analysis(t, {0, 1, 2})
    assert interesting == frozenset()


def test_interesting_analysis_star6():
    t = star(6)
    interesting, ell, d = interesting_analysis(t, {0, 1, 2})
    assert t.root() in interesting
    assert ell == 1


def test_interesting_rank_lower_bound_small():
    # ternary cut-rank (distinct rows, m = 1) is at least d
    for n in range(2, 6):
        for t in all_laminar_trees(range(n)):
            s = ternary_encode(t)
            for bits in range(1 << n):
                X = {i for i in range(n) if bits >> i & 1}
                _, _, d = interesting_analysis(t, X)
                if d:
                    assert distinct_row_rank(s, X, 1) >= d


def test_min_boolean_combination_trivial():
    t = cherry_tree()
    assert min_boolean_combination(t, set()) == 0
    assert min_boolean_combination(t, {0, 1, 2}) == 0


def test_min_boolean_combination_subforest_is_one():
    t = cherry_tree()
    for sf in subforests(t):
        if sf not in (frozenset(), t.root()):
            assert min_boolean_combination(t, sf) == 1


def test_min_boolean_combination_overflow_past_limit():
    t = two_star_tree()
    X = f(0, 3)
    forests = subforests(t)
    assert X not in forests and t.root() - X not in forests
    assert min_boolean_combination(t, X, limit=1) == Overflow()
    # only one subforest is searched
    for limit in (0, 2):
        with pytest.raises(ValueError, match=f"limit must be 1, not {limit}"):
            min_boolean_combination(t, X, limit=limit)


@pytest.mark.parametrize("X, named", [
    ({99}, 99), ({0, 99}, 99), ({-1, 0, 99}, -1), ({0, 1, 2, 3}, 3), ([5, 0, 4, 5], 4),
])
def test_tree_kernels_reject_members_that_are_not_leaves(X, named):
    t = cherry_tree()  # leaves 0, 1, 2
    for kernel in (interesting_analysis, min_boolean_combination):
        with pytest.raises(ValueError, match=f"^{named} is not a leaf$"):
            kernel(t, X)
        with pytest.raises(ValueError, match=f"^{named} is not a leaf$"):
            kernel(t, iter(X))


def test_group_orientation_single_leaf():
    t = validate_tree([f(0)])
    o = group_orientation(t, 4)
    assert isinstance(o, Orientation)
    assert o.left_right == ()


def test_group_orientation_two_leaves_mod3():
    t = star(2)
    o = group_orientation(t, 3)
    assert isinstance(o, Orientation)
    assert orientation_is_valid(t, o)


def test_two_star_obstruction_mod3_success_mod4():
    t = two_star_tree()
    res3 = group_orientation(t, 3)
    assert isinstance(res3, Obstruction)
    res4 = group_orientation(t, 4)
    assert isinstance(res4, Orientation)
    assert orientation_is_valid(t, res4)


def test_group_orientation_mod4_all_trees_6():
    for n in range(1, 7):
        for t in all_laminar_trees(range(n)):
            o = group_orientation(t, 4)
            assert isinstance(o, Orientation), (n, sorted(map(sorted, t.nodes)))
            assert orientation_is_valid(t, o)


def test_group_orientation_mod4_shapes_8():
    for n in range(1, 9):
        for t in all_tree_shapes(n):
            o = group_orientation(t, 4)
            assert isinstance(o, Orientation)
            assert orientation_is_valid(t, o)


def test_tree_shape_counts():
    counts = [len(list(all_tree_shapes(n))) for n in range(1, 7)]
    # unlabeled rooted trees with no unary nodes, by leaf count
    assert counts == [1, 1, 2, 5, 12, 33]


def test_chosen_leaf_simple():
    t = star(2)
    o = group_orientation(t, 4)
    leaf = chosen_leaf(t, o, t.root())
    assert o.left(t.root()) == f(leaf)


def test_chosen_leaf_injective():
    for n in range(2, 7):
        for t in all_laminar_trees(range(n)):
            o = group_orientation(t, 4)
            chosen = [chosen_leaf(t, o, node) for node in t.internal_nodes()]
            assert len(chosen) == len(set(chosen))


def test_chosen_leaf_rejects_leaf():
    t = star(2)
    o = group_orientation(t, 4)
    with pytest.raises(ValueError):
        chosen_leaf(t, o, f(0))


def test_document_preorder_all_unordered():
    t = star(3)
    pt = PartiallyOrderedTree(t, ((t.root(), "unordered"),), ())
    assert document_preorder(pt) == {(x, x) for x in range(3)}


def test_document_preorder_ordered_root():
    t = star(2)
    pt = PartiallyOrderedTree(
        t, ((t.root(), "ordered"),), ((t.root(), (f(0), f(1))),)
    )
    rel = document_preorder(pt)
    assert (0, 1) in rel and (1, 0) not in rel


def test_document_preorder_mixed():
    t = cherry_tree()
    pt = PartiallyOrderedTree(
        t,
        ((t.root(), "ordered"), (f(0, 1), "unordered")),
        ((t.root(), (f(2), f(0, 1))),),
    )
    rel = document_preorder(pt)
    assert (2, 0) in rel and (2, 1) in rel
    assert (0, 1) not in rel and (1, 0) not in rel
    # lca comparable implies document order is a preorder on comparable pairs
    for x, y in rel:
        assert (x, x) in rel and (y, y) in rel


def restrict_tree(t, kept):
    """Leaf-restriction minor: intersect nodes with the kept leaves and
    drop empties and duplicates."""
    kept = frozenset(kept)
    if not kept:
        return None
    family = {node & kept for node in t.nodes} - {frozenset()}
    return LaminarTree(kept, frozenset(family))


def has_complete_binary_minor(t, k):
    """Brute-force check used as the branching oracle on small trees."""

    def is_cbt(tree, node, height):
        if height == 0:
            return len(node) == 1
        kids = tree.children(node)
        return len(kids) == 2 and all(is_cbt(tree, kid, height - 1) for kid in kids)

    if k == 0:
        return True
    leaves = sorted(t.leaves)
    for kept in itertools.combinations(leaves, 2**k):
        sub = restrict_tree(t, kept)
        if sub is not None and is_cbt(sub, sub.root(), k):
            return True
    return False


def test_branching_examples():
    assert branching(validate_tree([f(0)])) == 0
    assert branching(complete_binary(3)) == 3
    assert branching(star(5)) == 1


def test_branching_matches_bruteforce():
    for n in range(1, 7):
        for t in all_laminar_trees(range(n)):
            b = branching(t)
            assert has_complete_binary_minor(t, b)
            assert not has_complete_binary_minor(t, b + 1)


def test_blocks_empty_and_full():
    p = LinearPreorder.make([{0, 1}, {2}, {3, 4}])
    assert blocks(p, set()) == [Block("empty", 0, 2)]
    assert blocks(p, {0, 1, 2, 3, 4}) == [Block("full", 0, 2)]


def test_blocks_pattern():
    p = LinearPreorder.make([{0, 1}, {2, 3}, {4, 5}])
    got = blocks(p, {0, 1, 2})
    assert got == [Block("full", 0, 0), Block("cut", 1, 1), Block("empty", 2, 2)]


def test_blocks_no_adjacent_same_kind():
    p = LinearPreorder.make([{0}, {1, 2}, {3}, {4, 5}, {6}])
    for bits in range(1 << 7):
        Y = {i for i in range(7) if bits >> i & 1}
        bs = blocks(p, Y)
        for a, b in zip(bs, bs[1:]):
            if a.kind != "cut" and b.kind != "cut":
                assert a.kind != b.kind


@given(st.integers(0, 6))
def test_set_partitions_bell_numbers(n):
    items = list(range(n))
    partitions = list(set_partitions(items))
    assert len(partitions) == [1, 1, 2, 5, 15, 52, 203][n]
    canonical = {frozenset(frozenset(block) for block in p) for p in partitions}
    assert len(canonical) == len(partitions)
    for p in partitions:
        assert all(block for block in p)
        assert sorted(x for block in p for x in block) == items


def test_all_laminar_trees_counts():
    # OEIS A000311; each tree comes once without a duplicate check
    for n, count in enumerate([1, 1, 4, 26, 236, 2752], start=1):
        trees = list(all_laminar_trees(range(n)))
        assert len(trees) == len(set(trees)) == count
    assert list(all_laminar_trees([1, 0, 1])) == list(all_laminar_trees([0, 1]))


# ---------------------------------------------------------------------------
# the tree index and the chain DP against their brute-force definitions


@st.composite
def random_trees(draw, max_leaves=12):
    """A validated tree on leaves 0..n-1: each block of a random
    permutation splits into 2..4 parts."""
    n = draw(st.integers(1, max_leaves))
    family = []

    def split(block):
        family.append(frozenset(block))
        if len(block) > 1:
            block = draw(st.permutations(block))
            k = draw(st.integers(2, min(4, len(block))))
            cuts = sorted(draw(st.sets(st.integers(1, len(block) - 1),
                                       min_size=k - 1, max_size=k - 1)))
            for a, b in zip([0] + cuts, cuts + [len(block)]):
                split(block[a:b])

    split(list(range(n)))
    return validate_tree(family)


def brute_children(t, node):
    proper = [x for x in t.nodes if x < node]
    out = [x for x in proper if not any(x < y for y in proper)]
    return sorted(out, key=lambda x: sorted(x))


def brute_parent(t, node):
    above = [x for x in t.nodes if node < x]
    return min(above, key=len) if above else None


def brute_least_node_containing(t, xs):
    return min([node for node in t.nodes if set(xs) <= node], key=len)


def assert_index_matches_bruteforce(t):
    internal = sorted((x for x in t.nodes if len(x) > 1), key=lambda x: (len(x), sorted(x)))
    assert t.internal_nodes() == internal
    for node in t.nodes:
        assert t.children(node) == brute_children(t, node)
        assert t._index.parent[node] == brute_parent(t, node)
    # callers get copies, so changing one leaves the index as it was
    t.children(t.root()).clear()
    t.internal_nodes().clear()
    assert t.children(t.root()) == brute_children(t, t.root())
    assert t.internal_nodes() == internal


def test_tree_index_matches_bruteforce_all_trees():
    for n in range(1, 6):
        for t in all_laminar_trees(range(n)):
            assert_index_matches_bruteforce(t)


@settings(deadline=None)
@given(random_trees())
def test_tree_index_matches_bruteforce_random_trees(t):
    assert_index_matches_bruteforce(t)


def test_tree_index_leaves_eq_hash_repr():
    t = two_star_tree()  # validate_tree has built its index
    other = LaminarTree(t.leaves, t.nodes)
    before = (hash(t), repr(t))
    assert t.children(t.root()) == [f(0, 1, 2), f(3, 4, 5)]
    assert (hash(t), repr(t)) == before == (hash(other), repr(other))
    assert t == other and "_index" in vars(t) and "_index" not in vars(other)


def reference_ell(interesting):
    """The recursive longest chain that interesting_analysis computed
    before its DP; exponential in the chain length."""
    def chain_from(node):
        below = [x for x in interesting if x < node]
        return 1 + max((chain_from(x) for x in below), default=0)

    return max((chain_from(node) for node in interesting), default=0)


def reference_interesting(t, X):
    """Interesting nodes by their definition, one set difference per
    child: X cuts Y, and X is nontrivial on Y minus each child."""
    X = frozenset(X)

    def nontrivial(Y):
        return bool(X & Y) and X & Y != Y

    return {node for node in t.nodes if len(node) > 1 and nontrivial(node)
            and all(nontrivial(node - kid) for kid in brute_children(t, node))}


@settings(deadline=None)
@given(random_trees(), st.data())
def test_interesting_analysis_matches_definition(t, data):
    X = data.draw(st.sets(st.sampled_from(sorted(t.leaves))))
    interesting, ell, d = interesting_analysis(t, X)
    assert interesting == reference_interesting(t, X)
    assert ell == reference_ell(interesting)
    assert d == max((sum(kid in interesting for kid in brute_children(t, node))
                     for node in t.nodes), default=0)


@settings(deadline=None)
@given(random_trees(), st.data())
def test_chain_dp_matches_recursive_reference(t, data):
    X = data.draw(st.sets(st.sampled_from(sorted(t.leaves))))
    interesting, ell, _ = interesting_analysis(t, X)
    assert ell == reference_ell(interesting)


@pytest.mark.parametrize("h", range(1, 11))
def test_chain_dp_on_cherry_chains(h):
    # N_i = {2i..2h} has the cherry {2i, 2i+1} and N_{i+1} as children
    family = [f(x) for x in range(2 * h + 1)]
    family += [f(2 * i, 2 * i + 1) for i in range(h)]
    family += [f(*range(2 * i, 2 * h + 1)) for i in range(h)]
    t = validate_tree(family)
    interesting, ell, _ = interesting_analysis(t, range(0, 2 * h + 1, 2))
    assert ell == reference_ell(interesting) == max(h - 1, 0)


def test_chain_dp_counts_nested_nodes_only():
    # the 4-star, the 5-star and the root are interesting; only the root and
    # one star are nested
    family = [f(x) for x in range(9)] + [f(0, 1, 2, 3), f(4, 5, 6, 7, 8), f(*range(9))]
    interesting, ell, d = interesting_analysis(validate_tree(family), {0, 1, 4, 5})
    assert len(interesting) == 3 and ell == reference_ell(interesting) == 2 and d == 2


# ---------------------------------------------------------------------------
# the one-pass index, encoding and preorder against the pairwise and
# least-common-ancestor definitions they replaced


def reference_crossings(nodes):
    """Every pair of nodes that meet without nesting: the pairwise scan
    validate_tree made before the index found crossings."""
    return [(a, b) for a, b in itertools.combinations(nodes, 2)
            if a & b and not (a <= b or b <= a)]


def reference_ternary_encode(t):
    """T(x, y, z) for z in the least node containing x and y, found by a
    scan of all nodes for each pair."""
    return {(x, y, z) for x in t.leaves for y in t.leaves
            for z in brute_least_node_containing(t, (x, y))}


def reference_document_preorder(pt):
    """(x, y) for x = y, or for x's child before y's at their least common
    ancestor when that node is ordered."""
    t = pt.tree
    pairs = {(x, x) for x in t.leaves}
    for x in t.leaves:
        for y in t.leaves:
            lca = brute_least_node_containing(t, (x, y))
            if x != y and pt.kind(lca) == "ordered":
                order = pt.order(lca)
                ix = next(i for i, c in enumerate(order) if x in c)
                iy = next(i for i, c in enumerate(order) if y in c)
                if ix < iy:
                    pairs.add((x, y))
    return pairs


def named_crossing(message):
    match = re.fullmatch(r"crossing nodes (\{.*\}) and (\{.*\})", message)
    assert match, message
    return frozenset(ast.literal_eval(match[1])), frozenset(ast.literal_eval(match[2]))


@settings(deadline=None)
@given(random_trees(max_leaves=8), st.data())
def test_validate_accepts_exactly_the_laminar_families(t, data):
    # a tree's nodes plus one to three random subsets, which often cross
    extra = data.draw(st.lists(st.frozensets(st.sampled_from(sorted(t.leaves)), min_size=1),
                               min_size=1, max_size=3))
    nodes = t.nodes | frozenset(extra)
    family = data.draw(st.permutations(sorted(nodes, key=sorted)))
    if not reference_crossings(nodes):
        tree = validate_tree(family)
        assert tree.nodes == nodes
        assert_index_matches_bruteforce(tree)
        return
    with pytest.raises(ValueError, match="^crossing nodes ") as raised:
        validate_tree(family)
    a, b = named_crossing(str(raised.value))
    assert (a, b) in reference_crossings([a, b]) and {a, b} <= nodes
    # built directly, the same family raises on its first index use
    with pytest.raises(ValueError, match="^crossing nodes "):
        LaminarTree(t.leaves, nodes).children(t.root())


def test_validate_names_a_crossing_pair_among_nested_nodes():
    # {1, 2} is inside {0, 1, 2} but crosses {0, 1}: the pair named is the
    # crossing one, not the enclosing node
    family = [f(x) for x in range(4)] + [f(0, 1, 2), f(0, 1), f(1, 2), f(0, 1, 2, 3)]
    with pytest.raises(ValueError) as raised:
        validate_tree(family)
    assert set(named_crossing(str(raised.value))) == {f(0, 1), f(1, 2)}


@settings(deadline=None)
@given(random_trees())
def test_ternary_encode_matches_least_common_ancestor_reference(t):
    enc = ternary_encode(t)
    assert enc.relation("T") == reference_ternary_encode(t)
    assert ternary_decode(enc) == t


@settings(deadline=None)
@given(random_trees(), st.data())
def test_document_preorder_matches_least_common_ancestor_reference(t, data):
    kinds, orders = [], []
    for node in t.internal_nodes():
        if data.draw(st.booleans()):
            kinds.append((node, "ordered"))
            orders.append((node, tuple(data.draw(st.permutations(t.children(node))))))
        else:
            kinds.append((node, "unordered"))
    pt = PartiallyOrderedTree(t, tuple(kinds), tuple(orders))
    assert document_preorder(pt) == reference_document_preorder(pt)


# ---------------------------------------------------------------------------
# the mask kernels, the counting decode check and the pruned orientation
# search against the bodies they replaced


def reference_min_boolean_combination(t, X, limit):
    """The signature loop min_boolean_combination ran before its leaf
    masks: X is a combination of the chosen subforests when leaves with
    the same memberships in them agree on X."""
    X = frozenset(X)
    if X == frozenset() or X == t.root():
        return 0
    forests = sorted(subforests(t), key=lambda f: (len(f), sorted(f)))
    for m in range(1, limit + 1):
        for chosen in itertools.combinations(forests, m):
            signatures = {}
            ok = True
            for leaf in sorted(t.leaves):
                sig = tuple(leaf in f for f in chosen)
                member = leaf in X
                if sig in signatures and signatures[sig] != member:
                    ok = False
                    break
                signatures[sig] = member
            if ok:
                return m
    return Overflow()


@settings(deadline=None)
@given(random_trees(max_leaves=8), st.data())
def test_min_boolean_combination_matches_signature_reference(t, data):
    X = data.draw(st.sets(st.sampled_from(sorted(t.leaves))))
    assert min_boolean_combination(t, X, 1) == reference_min_boolean_combination(t, X, 1)


def test_min_boolean_combination_matches_signature_reference_on_6_leaves():
    # every subset of every 6-leaf shape, where one subforest suffices for
    # some and overflows for others
    seen = set()
    for t in all_tree_shapes(6):
        for bits in range(1 << 6):
            X = {x for x in range(6) if bits >> x & 1}
            got = min_boolean_combination(t, X, 1)
            assert got == reference_min_boolean_combination(t, X, 1)
            seen.add(got)
    assert seen == {0, 1, Overflow()}


def reference_first_choices(options, m):
    """Every tuple of the product, in order; the first with two unique
    entries for each total mod m."""
    sums = {}
    for choice in itertools.product(*options):
        counts = {}
        for s in choice:
            counts[s] = counts.get(s, 0) + 1
        if sum(1 for s in choice if counts[s] == 1) >= 2:
            sums.setdefault(sum(choice) % m, choice)
    return sums


@st.composite
def sum_options(draw):
    """A modulus and the sorted achievable sums of 2..8 children."""
    m = draw(st.integers(2, 5))
    options = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1).map(sorted),
                            min_size=2, max_size=8))
    assume(math.prod(map(len, options)) <= 20000)
    return m, options


@settings(deadline=None, max_examples=300)
@given(sum_options())
# two prefixes of one length with equal capped counts but different sums;
# the second leads to the first witness of a total
@example((5, [[1, 4], [1], [0, 1, 2, 3, 4], [0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 2, 4],
              [1, 2, 3, 4]]))
@example((4, [[0, 1, 2, 3], [0, 1, 2, 3], [3], [2], [3], [1], [0, 1], [0, 2, 3]]))
def test_first_choices_match_the_product_loop(case):
    m, options = case
    options = tuple(map(tuple, options))  # the memo is keyed by hashable options
    assert _first_choices(options, m) == reference_first_choices(options, m)


def test_first_choices_results_are_read_only():
    options = ((0, 1, 2, 3),) * 3
    found = _first_choices(options, 4)
    assert found is _first_choices(options, 4)  # the memo's own result
    before = dict(found)
    with pytest.raises(TypeError):
        found[0] = (0, 0, 0)
    with pytest.raises(TypeError):
        del found[0]
    for n in range(1, 8):  # many nodes with three children reach every sum
        for t in all_tree_shapes(n):
            group_orientation(t, 4)
    assert dict(_first_choices(options, 4)) == before == reference_first_choices(options, 4)


@settings(deadline=None)
@given(random_trees(max_leaves=12), st.integers(2, 5))
def test_group_orientation_same_with_a_cold_and_a_warm_memo(t, m):
    _first_choices.cache_clear()
    cold = repr(group_orientation(t, m))
    assert repr(group_orientation(t, m)) == cold  # every node's search now a hit


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_group_orientation_on_stars_same_with_a_cold_and_a_warm_memo(m):
    stars = [star(k) for k in range(2, 17)]
    cold = []
    for t in stars:
        _first_choices.cache_clear()
        cold.append(group_orientation(t, m))
    for t in stars:  # fills the memo
        group_orientation(t, m)
    hits = _first_choices.cache_info().hits
    assert [repr(group_orientation(t, m)) for t in stars] == list(map(repr, cold))
    assert _first_choices.cache_info().hits == hits + len(stars)  # one node each
    for t, o in zip(stars, cold):
        assert isinstance(o, Obstruction) or orientation_is_valid(t, o)


class _Blocked(Exception):
    def __init__(self, node):
        self.node = node


def reference_group_orientation(t, m):
    """The product-loop orientation group_orientation ran before its
    pruned search: every choice of the children's achievable sums, in
    product order, by recursion over the children."""
    achievable, witness = {}, {}

    def compute(node):
        if len(node) == 1:
            achievable[node] = set(range(m))
            witness[node] = {s: None for s in range(m)}
            return
        kids = t.children(node)
        for kid in kids:
            compute(kid)
        sums = reference_first_choices([sorted(achievable[k]) for k in kids], m)
        achievable[node] = set(sums)
        witness[node] = sums
        if not sums:
            raise _Blocked(node)

    try:
        compute(t.root())
    except _Blocked as blocked:
        return Obstruction(m, blocked.node)
    leaf_colours, left_right = {}, {}

    def assign(node, target):
        if len(node) == 1:
            (leaf,) = node
            leaf_colours[leaf] = target
            return
        kids = t.children(node)
        choice = witness[node][target]
        counts = {}
        for s in choice:
            counts[s] = counts.get(s, 0) + 1
        unique_kids = sorted(((s, kid) for s, kid in zip(choice, kids) if counts[s] == 1),
                             key=lambda pair: pair[0])
        left_right[node] = (unique_kids[0][1], unique_kids[1][1])
        for s, kid in zip(choice, kids):
            assign(kid, s)

    assign(t.root(), min(achievable[t.root()]))
    return Orientation(
        m,
        tuple(sorted(leaf_colours.items())),
        tuple((node, lr[0], lr[1])
              for node, lr in sorted(left_right.items(), key=lambda kv: sorted(kv[0]))),
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_group_orientation_matches_product_reference_on_shapes(m):
    obstructed = 0
    for n in range(1, 10):
        for t in all_tree_shapes(n):
            got = group_orientation(t, m)
            assert repr(got) == repr(reference_group_orientation(t, m)), (n, m)
            obstructed += isinstance(got, Obstruction)
    # both outcomes occur: m = 2 and 3 obstruct some shapes, m = 4 none
    assert (obstructed > 0) == (m < 4)


@settings(deadline=None)
@given(random_trees(max_leaves=10), st.integers(2, 5))
def test_group_orientation_matches_product_reference_on_labeled_trees(t, m):
    # leaves relabeled at random, so the children's index order is not the
    # shapes' left-to-right order
    assert repr(group_orientation(t, m)) == repr(reference_group_orientation(t, m))


def seeded_tree(rng, n):
    """A tree on leaves 0..n-1: each block of a shuffled list splits into
    2..4 parts, as in ``random_trees``."""
    family = []
    stack = [list(range(n))]
    while stack:
        block = stack.pop()
        family.append(f(*block))
        if len(block) > 1:
            rng.shuffle(block)
            cuts = sorted(rng.sample(range(1, len(block)), rng.randint(2, min(4, len(block))) - 1))
            stack.extend(block[a:b] for a, b in zip([0] + cuts, cuts + [len(block)]))
    return validate_tree(family)


def caterpillar(labels):
    """(u labels[-1] (u ... (u labels[1] labels[0]))): each node adds one
    leaf to the one below it."""
    family = [f(x) for x in labels]
    family += [f(*labels[:i]) for i in range(2, len(labels) + 1)]
    return validate_tree(family)


def caterpillars_and_seeded_trees():
    rng = random.Random(7)
    yield caterpillar(list(range(300)))
    for _ in range(20):
        yield caterpillar(rng.sample(range(60), 60))
    for _ in range(200):
        yield seeded_tree(rng, rng.randint(1, 30))


def test_leaf_list_order_sorts_as_the_sorted_leaf_lists():
    # a shuffled caterpillar's nodes share their least leaf in long runs,
    # some of them prefixes of a larger node and some not
    for t in caterpillars_and_seeded_trees():
        nodes = t.internal_nodes()
        order = _leaf_list_order(t._index)
        assert sorted(nodes, key=order.__getitem__) == sorted(nodes, key=sorted)


def test_group_orientation_lists_nodes_by_their_sorted_leaves():
    oriented = 0
    for t in caterpillars_and_seeded_trees():
        o = group_orientation(t, 4)
        if isinstance(o, Orientation):
            assert o.left_right == tuple(sorted(o.left_right, key=lambda e: sorted(e[0])))
            oriented += 1
    assert oriented > 200


def test_group_orientation_on_a_wide_star_is_polynomial():
    # the product has 3^24 choices; the pruned search has a few hundred states
    o = group_orientation(star(24), 3)
    assert isinstance(o, Orientation) and orientation_is_valid(star(24), o)
    assert [c for _, c in o.leaf_colours] == [0] * 22 + [1, 2]


def reference_left(o, node):
    """Orientation.left before its node map: a scan of left_right."""
    for n, left, _ in o.left_right:
        if n == node:
            return left
    raise KeyError(node)


def reference_right(o, node):
    for n, _, right in o.left_right:
        if n == node:
            return right
    raise KeyError(node)


def reference_orientation_is_valid(t, o):
    """The check before it summed each node once: every child's sum
    re-adds its leaves, and every lookup scans left_right."""
    colours = dict(o.leaf_colours)

    def node_sum(node):
        return sum(colours[leaf] for leaf in node) % o.modulus

    for node in t.internal_nodes():
        kids = t.children(node)
        sums = [node_sum(k) for k in kids]
        unique = [k for k, s in zip(kids, sums) if sums.count(s) == 1]
        if len(unique) < 2:
            return False
        ordered = sorted(unique, key=node_sum)
        if reference_left(o, node) != ordered[0] or reference_right(o, node) != ordered[1]:
            return False
    return True


def reference_chosen_leaf(o, node):
    current = reference_left(o, node)
    while len(current) > 1:
        current = reference_right(o, current)
    (leaf,) = current
    return leaf


def swapped(o, node):
    """o with node's left and right children exchanged."""
    return Orientation(o.modulus, o.leaf_colours, tuple(
        (n, r, l) if n == node else (n, l, r) for n, l, r in o.left_right))


@pytest.mark.parametrize("m", [3, 4])
def test_orientation_lookups_match_the_scanning_reference(m):
    checked = 0
    for n in range(1, 9):
        for t in all_tree_shapes(n):
            o = group_orientation(t, m)
            if not isinstance(o, Orientation):
                continue
            assert orientation_is_valid(t, o) is reference_orientation_is_valid(t, o) is True
            for leaf in t.leaves:
                with pytest.raises(KeyError):
                    o.left(f(leaf))
            for node in t.internal_nodes():
                assert o.left(node) == reference_left(o, node)
                assert o.right(node) == reference_right(o, node)
                assert chosen_leaf(t, o, node) == reference_chosen_leaf(o, node)
                bad = swapped(o, node)
                assert orientation_is_valid(t, bad) is reference_orientation_is_valid(t, bad) is False
                checked += 1
    assert checked > 100


def reference_ternary_decode(s):
    """The decode check before the counting one: build the tree, then
    compare s with its encoding, rebuilt by the least-common-ancestor
    scan."""
    rel = s.relation("T")
    nodes = {}
    for x, y, z in rel:
        nodes.setdefault((x, y), set()).add(z)
    tree = validate_tree(nodes.values(), leaves=range(s.universe_size))
    if reference_ternary_encode(tree) != rel:
        raise ValueError("relation is not a ternary tree encoding")
    return tree


def decode_outcome(decode, s):
    try:
        return decode(s)
    except ValueError as error:
        return str(error)


@settings(deadline=None)
@given(random_trees(max_leaves=7), st.data())
def test_ternary_decode_matches_re_encode_reference(t, data):
    rel = set(ternary_encode(t).relation("T"))
    n = len(t.leaves)
    triple = st.tuples(*[st.integers(0, n - 1)] * 3)
    edit = data.draw(st.sampled_from(["none", "add", "remove", "replace"]))
    if edit in ("remove", "replace"):
        rel.remove(data.draw(st.sampled_from(sorted(rel))))
    if edit in ("add", "replace"):
        rel.add(data.draw(triple))
    s = Structure.make(TERNARY, n, {"T": rel})
    got = decode_outcome(ternary_decode, s)
    assert got == decode_outcome(reference_ternary_decode, s)
    if edit == "none":
        assert got == t
