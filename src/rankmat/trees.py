"""Laminar trees, ternary encoding, subforests, orientations, and blocks.

A laminar tree is a family of leaf subsets containing every singleton and
the full leaf set, any two members nested or disjoint.  Since every
singleton is a node, every internal node has at least two children.

A ``LaminarTree`` is one leaf mask and one parent link per node; the kernels
work on node ids and masks, and build a node's leaf set only to hand it out.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, compress, groupby, permutations, product
from operator import or_
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from . import caps
from .structures import Structure, Vocabulary

__all__ = [
    "LaminarTree",
    "PartiallyOrderedTree",
    "LinearPreorder",
    "Block",
    "Orientation",
    "Obstruction",
    "validate_tree",
    "tree_from_postorder",
    "ternary_encode",
    "ternary_decode",
    "subforests",
    "interesting_analysis",
    "min_boolean_combination",
    "group_orientation",
    "chosen_leaf",
    "document_preorder",
    "branching",
    "blocks",
    "all_laminar_trees",
    "set_partitions",
    "all_tree_shapes",
    "orientation_is_valid",
    "TERNARY",
]

TERNARY = Vocabulary((("T", 3),))
_DIGITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class LaminarTree:
    """A laminar tree as one leaf mask per node, built by ``validate_tree``
    from a family of leaf sets or by ``tree_from_postorder`` from a walk.

    ``masks[i]`` is node i's mask: bit j stands for the j-th sorted leaf.
    The nodes come in post-order, each node's children in the order of
    their least leaves, so every node comes after its children and the
    root is last.  ``parents[i]`` is node i's parent, None at the root.
    The family fixes the order, so two trees are equal, and hash alike,
    exactly when their leaf sets and node families are; ``parents``
    follows from the masks and is not compared.  The lookups below are
    built on first use and kept in the instance ``__dict__``, outside the
    fields, so ``==``, ``hash`` and ``repr`` ignore them."""

    leaves: frozenset
    masks: tuple
    parents: tuple = field(compare=False)

    @cached_property
    def _order(self) -> list:
        """The sorted leaves: bit i of a mask is ``_order[i]``."""
        return sorted(self.leaves)

    @cached_property
    def _bit(self) -> dict:
        return {leaf: 1 << i for i, leaf in enumerate(self._order)}

    @cached_property
    def _ids(self) -> dict:
        return {mask: i for i, mask in enumerate(self.masks)}

    @cached_property
    def _kids(self) -> list:
        """Each node's children, least leaf first."""
        kids: list = [[] for _ in self.masks]
        for i, p in enumerate(self.parents):
            if p is not None:
                kids[p].append(i)
        return kids

    @cached_property
    def _splits(self) -> tuple:
        """(id, mask, parent, the mask less each child's) for each internal
        node, parents first."""
        masks = self.masks
        return tuple((i, masks[i], self.parents[i], tuple(masks[i] ^ masks[k] for k in kids))
                     for i, kids in reversed(list(enumerate(self._kids))) if kids)

    def _leaves_of(self, mask: int) -> Iterable:
        """The sorted leaves of a mask, selected by its digits, lowest first."""
        return compress(self._order, bin(mask)[:1:-1].encode().translate(_DIGITS))

    @cached_property
    def _handed_out(self) -> list:
        return [None] * len(self.masks)

    def _node(self, i: int) -> frozenset:
        """Node i as the frozenset of its leaves, built on first use and
        kept, so each node the API hands out is built once."""
        node = self._handed_out[i]
        if node is None:
            node = self._handed_out[i] = frozenset(self._leaves_of(self.masks[i]))
        return node

    def _mask_of(self, xs: frozenset) -> int:
        """The mask of the leaves xs.  A member of xs that is not a leaf is
        a ``ValueError`` naming the least such."""
        bit = self._bit
        try:
            return reduce(or_, map(bit.__getitem__, xs), 0)
        except KeyError:
            raise ValueError(f"{min(x for x in xs if x not in bit)!r} is not a leaf") from None

    def _id(self, node: Iterable) -> int:
        """The id of a node given as its leaves; any other set is a
        ``ValueError`` naming it."""
        try:
            return self._ids[self._mask_of(node)]
        except (KeyError, ValueError):
            raise ValueError(f"{set(node)} is not a node of the tree") from None

    @cached_property
    def _internal(self) -> list:
        """The internal node ids, smallest node first; nodes of one size
        are disjoint, so their least leaves order them."""
        masks = self.masks
        return sorted((i for i, m in enumerate(masks) if m & (m - 1)),
                      key=lambda i: (masks[i].bit_count(), masks[i] & -masks[i]))

    @property
    def nodes(self) -> frozenset:
        """Every node as the frozenset of its leaves."""
        return frozenset(map(self._node, range(len(self.masks))))

    def children(self, node: frozenset) -> list:
        """Maximal proper subnodes of a node of the tree, sorted by their
        sorted leaf lists."""
        return [self._node(k) for k in self._kids[self._id(node)]]

    def internal_nodes(self) -> list:
        return [self._node(i) for i in self._internal]

    def root(self) -> frozenset:
        return frozenset(self.leaves)


def _canonical_tree(leaves: Iterable, masks: list, kids: list, root: int) -> LaminarTree:
    """The tree of nodes given in any order by their masks and children
    (positions in the same lists), renumbered in post-order: a pre-order
    that takes each node's children by least leaf, last first, reversed."""
    least = [m & -m for m in masks]
    post, up, stack = [], [None] * len(masks), [root]
    while stack:
        i = stack.pop()
        post.append(i)
        for k in sorted(kids[i], key=least.__getitem__):
            up[k] = i
            stack.append(k)
    post.reverse()
    new = {i: j for j, i in enumerate(post)}
    return LaminarTree(frozenset(leaves), tuple(masks[i] for i in post),
                       tuple(new.get(up[i]) for i in post))


def tree_from_postorder(names: Sequence, arities: Iterable[int]) -> LaminarTree:
    """The tree that a post-order walk describes: ``names`` are its leaves
    in the order the walk meets them, ``arities`` each node's number of
    children as the walk finishes the node, 0 for a leaf.  A node's mask
    is the sum of its children's masks."""
    bit = {name: 1 << i for i, name in enumerate(sorted(names))}
    names = iter(names)
    masks: list = []
    kids: list = []
    pending: list = []  # the nodes finished but not yet given a parent
    for k in arities:
        kids.append(pending[len(pending) - k:])
        del pending[len(pending) - k:]
        pending.append(len(masks))
        masks.append(sum(masks[c] for c in kids[-1]) if k else bit[next(names)])
    return _canonical_tree(bit, masks, kids, len(masks) - 1)


def validate_tree(family: Iterable[Iterable],
                  leaves: Optional[Iterable] = None) -> LaminarTree:
    """The tree of a family of leaf sets, checked.  One pass takes the
    nodes largest first; a node's parent is the one owner so far (the
    smallest node taken) of its leaves.  If they have two owners, one not
    containing the node crosses it, since no earlier node is a subset of
    it."""
    nodes = frozenset(frozenset(x) for x in family)
    if leaves is None:
        leaves = frozenset().union(*nodes) if nodes else frozenset()
    leaves = frozenset(leaves)
    if not leaves:
        raise ValueError("tree must have at least one leaf")
    if leaves not in nodes:
        raise ValueError("full leaf set missing from the family")
    for leaf in leaves:
        if frozenset((leaf,)) not in nodes:
            raise ValueError(f"singleton {{{leaf!r}}} missing from the family")
    for node in nodes:
        if not node:
            raise ValueError("empty set is not a node")
        if not node <= leaves:
            raise ValueError(f"node {set(node)} contains non-leaves")
    # stable, so nodes of one size keep the family's iteration order
    by_size = sorted(nodes, key=len)
    kids: dict = defaultdict(list)  # children by position; the root is None's child
    owner: dict = {}
    for i in reversed(range(len(by_size))):
        node = by_size[i]
        owners = set(map(owner.get, node))
        if len(owners) > 1:
            other = next(by_size[o] for o in owners if o is not None and not node <= by_size[o])
            raise ValueError(f"crossing nodes {set(node)} and {set(other)}")
        kids[owners.pop()].append(i)
        owner.update(dict.fromkeys(node, i))
    bit = {leaf: 1 << i for i, leaf in enumerate(sorted(leaves))}
    masks = [sum(map(bit.__getitem__, node)) for node in by_size]
    return _canonical_tree(leaves, masks, kids, len(by_size) - 1)


def _child_pairs(t: LaminarTree) -> Iterable[tuple]:
    """(a, b, node) as tuples of leaves, for each internal node and each
    ordered pair of its distinct children: the encoding holds
    ``product(a, b, node)``."""
    sets: list = []  # each node's leaves: a leaf's own, or its children's joined
    for m, kids in zip(t.masks, t._kids):
        sets.append(tuple(chain.from_iterable(sets[k] for k in kids)) if kids
                    else (t._order[m.bit_length() - 1],))
    for i, kids in enumerate(t._kids):
        for a, b in permutations(kids, 2):
            yield sets[a], sets[b], sets[i]


def ternary_encode(t: LaminarTree) -> Structure:
    """Structure with T(x,y,z) iff z lies in the least node containing x,y:
    x itself if x = y, else the node where x, y lie in distinct children."""
    leaves = t._order
    if leaves != list(range(len(leaves))):
        raise ValueError("ternary encoding needs leaves 0..n-1")
    for leaf in leaves:
        # without {leaf}, no child holds leaf and its pairs would be lost
        if 1 << leaf not in t._ids:
            raise ValueError(f"singleton {{{leaf!r}}} missing from the family")
    rel = frozenset(chain(
        zip(leaves, leaves, leaves),
        chain.from_iterable(product(*pair) for pair in _child_pairs(t)),
    ))
    return Structure(TERNARY, len(leaves), (("T", rel),))


def ternary_decode(s: Structure) -> LaminarTree:
    """The tree whose ternary encoding is s.  The nodes are the sets
    {z : T(x, y, z)}; the encoding's triples are distinct, so s is that
    tree's encoding exactly when it holds each of them and no others."""
    if len(s.vocabulary.relations) != 1 or s.vocabulary.relations[0][1] != 3:
        raise ValueError("expected one ternary relation")
    name = s.vocabulary.relations[0][0]
    rel = s.relation(name)
    n = s.universe_size
    nodes = defaultdict(set)
    for x, y, z in rel:
        nodes[x, y].add(z)
    tree = validate_tree(nodes.values(), leaves=range(n))
    pairs = list(_child_pairs(tree))
    if (len(rel) != n + sum(len(a) * len(b) * len(node) for a, b, node in pairs)
            or not all((x, x, x) in rel for x in range(n))
            or not all(rel.issuperset(product(*pair)) for pair in pairs)):
        raise ValueError("relation is not a ternary tree encoding")
    return tree


def subforests(t: LaminarTree) -> frozenset:
    """All nonempty unions of sibling subtrees, plus the full leaf set."""
    masks = t.masks
    found = {masks[-1]}  # the root
    for kids in t._kids:
        for k in range(1, len(kids) + 1):
            found.update(map(sum, combinations([masks[c] for c in kids], k)))
    return frozenset(frozenset(t._leaves_of(f)) for f in found)


def interesting_analysis(t: LaminarTree, X: Iterable):
    """Interesting nodes of X, the longest chain among them, and the
    maximum number of interesting children of a single node.

    A node Y is dull when it is a leaf, when X does not cut Y, or when
    some child Y' leaves X trivial on Y minus Y'; interesting otherwise.
    Nested nodes lie on one path from the root, so the longest chain is
    the most interesting nodes on such a path: one pass, parents first.
    """
    x = t._mask_of(frozenset(X))
    interesting = []
    chain = {None: 0}  # interesting nodes from the root down to each node
    kids: dict = {}  # interesting children of each node
    for i, m, p, rests in t._splits:
        hit = 0 != x & m != m and all(0 != x & rest != rest for rest in rests)
        chain[i] = chain[p] + hit
        if hit:
            interesting.append(i)
            if p is not None:
                kids[p] = kids.get(p, 0) + 1
    return frozenset(map(t._node, interesting)), max(chain.values()), max(kids.values(), default=0)


def min_boolean_combination(t: LaminarTree, X: Iterable, limit: int = 1):
    """Least number of subforests whose boolean combination is X: 0 for
    the empty set and the full leaf set, 1 when X or root less X is a
    subforest (one subforest f cuts the leaves into f and root less f, and
    X must split neither), else ``Overflow()``.  Only one subforest is
    searched, so ``limit`` must be 1.

    A subforest is a node, or a union of two or more children of one
    node.  Either way no child of the least node containing it meets it
    without lying inside it, and that is enough; the least node is found
    walking up from the set's least leaf."""
    if limit != 1:
        raise ValueError(f"boolean combination limit must be 1, not {limit}")
    X = frozenset(X)
    if X == frozenset() or X == t.root():
        return 0
    x = t._mask_of(X)
    masks, parents = t.masks, t.parents
    for y in (x, masks[-1] ^ x):
        i = t._ids[y & -y]
        while y & ~masks[i]:
            i = parents[i]
        if not any(masks[k] & y and masks[k] & ~y for k in t._kids[i]):
            return 1
    return caps.Overflow()


@dataclass(frozen=True)
class Orientation:
    modulus: int
    leaf_colours: tuple  # tuple of (leaf, colour)
    # per node id of the tree, in its post-order: (left child id, right
    # child id) at an internal node, None at a leaf
    left_right: tuple


@dataclass(frozen=True)
class Obstruction:
    modulus: int
    node: frozenset


@lru_cache(maxsize=1024)
def _first_choices(options: tuple, m: int) -> MappingProxyType:
    """For each total mod m that some tuple of ``product(*options)`` with
    at least two entries unique in it reaches, the first such tuple in
    product order, as a read-only mapping: results are memoised on the
    tuple of options and m, and shared by every caller.

    A depth-first search over prefixes in product order.  A prefix's state
    is its length, each residue's count in it capped at 2 (as the residues
    seen once and those seen more often) and its sum mod m; the state
    decides which completions are valid and what they total.  A state
    reached before is skipped: if the first witness w of a total went
    through the skipped prefix, the earlier prefix, smaller in product
    order, followed by the rest of w would be a witness before w.  So
    every total still gets its first witness.  The search stops once all
    m totals have one.  With at most k * 3^m * m states for k options, it
    is polynomial in k for a fixed m, where the product has m^k tuples.
    """
    k = len(options)
    found: dict = {}
    seen: set = set()
    prefix: list = []
    # per chosen prefix: the next position's options, the residues seen
    # once and more than once, and the sum mod m
    stack = [(iter(options[0]), 0, 0, 0)]
    while stack and len(found) < m:
        choices, once, more, total = stack[-1]
        s = next(choices, None)
        if s is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        b = 1 << s
        if (once | more) & b:
            once, more = once & ~b, more | b
        else:
            once |= b
        total = (total + s) % m
        j = len(stack)  # entries chosen, s included
        if j == k:
            if once.bit_count() >= 2 and total not in found:
                found[total] = (*prefix, s)
            continue
        state = (j, once, more, total)
        if state in seen:
            continue
        seen.add(state)
        prefix.append(s)
        stack.append((iter(options[j]), once, more, total))
    return MappingProxyType(found)


def group_orientation(t: LaminarTree, m: int = 4):
    """Colour leaves into Z_m so that at every internal node at least two
    children have subtree sums unique among the siblings; left/right are
    the first two unique-sum children ordered by sum.

    Bottom up, each node keeps the first choice of its children's sums,
    in ``product`` order over each child's sorted achievable sums, that
    has two unique sums and reaches a given total, for every total some
    choice reaches (see ``_first_choices``); top down, the root takes its
    least total and each node hands its choice to its children.  The
    per-node search is memoised on the children's sorted sum sets and m,
    so nodes whose children reach the same sums share one search.  Returns
    Obstruction at the first node, in the tree's post-order, admitting no
    valid colouring.
    """
    if m < 2:
        raise ValueError("group order must be >= 2")
    kids = t._kids
    witness: list = []  # per node: {total: its children's sums}
    for i, ks in enumerate(kids):
        if not ks:
            witness.append(dict.fromkeys(range(m)))
            continue
        found = _first_choices(tuple(tuple(sorted(witness[k])) for k in ks), m)
        if not found:
            return Obstruction(m, t._node(i))
        witness.append(found)

    left_right: list = [None] * len(kids)
    target = [0] * len(kids)  # each node's total, handed down from its parent
    target[-1] = min(witness[-1])
    for i in reversed(t._internal):  # larger nodes, so parents, first
        choice = witness[i][target[i]]
        counts = Counter(choice)
        unique = sorted((s, k) for s, k in zip(choice, kids[i]) if counts[s] == 1)
        left_right[i] = (unique[0][1], unique[1][1])
        for k, s in zip(kids[i], choice):
            target[k] = s

    return Orientation(
        m,
        tuple((leaf, target[t._ids[1 << b]]) for b, leaf in enumerate(t._order)),
        tuple(left_right),
    )


def orientation_is_valid(t: LaminarTree, o: Orientation) -> bool:
    """Post-hoc check: recompute sums and the uniqueness condition.  Each
    node is summed once, children first: a leaf's colour, or its
    children's sums."""
    colours = dict(o.leaf_colours)
    total: list = []
    for i, (m, kids) in enumerate(zip(t.masks, t._kids)):
        if not kids:
            total.append(colours[t._order[m.bit_length() - 1]])
            continue
        total.append(sum(total[k] for k in kids))
        sums = [(total[k] % o.modulus, k) for k in kids]
        counts = Counter(s for s, _ in sums)
        unique = sorted((s, k) for s, k in sums if counts[s] == 1)
        if len(unique) < 2 or o.left_right[i] != (unique[0][1], unique[1][1]):
            return False
    return True


def chosen_leaf(t: LaminarTree, o: Orientation, node: frozenset):
    """Left child, then right children down to a leaf."""
    left_right = o.left_right
    i = t._id(node)  # a set that is no node of t is a ValueError naming it
    if left_right[i] is None:
        raise ValueError("chosen_leaf needs a non-leaf node")
    current = left_right[i][0]
    while left_right[current] is not None:
        current = left_right[current][1]
    return t._order[t.masks[current].bit_length() - 1]


@dataclass(frozen=True)
class PartiallyOrderedTree:
    tree: LaminarTree
    kinds: tuple  # tuple of (node, "ordered" | "unordered")
    orders: tuple  # tuple of (node, tuple of children in order), ordered nodes

    def __post_init__(self):
        self._by_id  # checks the kinds and orders

    @cached_property
    def _by_id(self) -> tuple:
        """Each node's kind and child order, in two lists by node id, None
        where it has none; each fault in the given kinds and orders is a
        ``ValueError`` naming its node."""
        t = self.tree
        kinds, orders = [None] * len(t.masks), [None] * len(t.masks)
        for node, kind in self.kinds:
            i = t._id(node)
            if not t._kids[i]:
                raise ValueError(f"kind for leaf {set(node)}")
            if kind not in ("ordered", "unordered"):
                raise ValueError(f"unknown kind {kind!r} for node {set(node)}")
            kinds[i] = kind
        for node, order in self.orders:
            i = t._id(node)
            if kinds[i] != "ordered":
                raise ValueError(f"order for node {set(node)}, which is not ordered")
            orders[i] = order
        for i in t._internal:
            node = t._node(i)
            if kinds[i] is None:
                raise ValueError(f"missing kind for node {set(node)}")
            if kinds[i] == "ordered" and sorted(orders[i] or (), key=sorted) != t.children(node):
                raise ValueError(f"bad child order at {set(node)}")
        return kinds, orders

    def kind(self, node):
        """The kind of an internal node; None for a leaf."""
        return self._by_id[0][self.tree._id(node)]

    def order(self, node):
        """The child order of an ordered node; None for any other node."""
        return self._by_id[1][self.tree._id(node)]


def document_preorder(pt: PartiallyOrderedTree) -> frozenset:
    """Pairs (x, y) with x <= y: reflexive pairs plus pairs whose least
    common ancestor is ordered with x's child before y's child."""
    pairs = {(x, x) for x in pt.tree.leaves}
    for order in pt._by_id[1]:
        for a, b in combinations(order or (), 2):
            pairs.update(product(a, b))
    return frozenset(pairs)


def branching(t: LaminarTree) -> int:
    """Largest k such that the complete binary tree of height k embeds as
    a leaf-restriction minor; Strahler-style dynamic programming, children
    first."""
    value: list = []
    for kids in t._kids:
        below = [value[k] for k in kids]
        best = max(below, default=0)
        value.append(best + 1 if below.count(best) >= 2 else best)
    return value[-1]


@dataclass(frozen=True)
class LinearPreorder:
    classes: tuple  # ordered tuple of frozensets

    def __post_init__(self):
        seen: set = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty class")
            if cls & seen:
                raise ValueError("classes must be disjoint")
            seen |= cls

    @staticmethod
    def make(classes: Sequence[Iterable]) -> "LinearPreorder":
        return LinearPreorder(tuple(frozenset(c) for c in classes))


@dataclass(frozen=True)
class Block:
    kind: str  # "full" | "empty" | "cut"
    start: int  # class index interval, inclusive
    end: int


def blocks(p: LinearPreorder, Y: Iterable) -> list:
    """Maximal full intervals, maximal empty intervals, and cut classes."""
    Y = frozenset(Y)
    statuses = ("empty" if not cls & Y else "full" if cls <= Y else "cut" for cls in p.classes)
    out, start = [], 0
    for kind, run in groupby(statuses):
        end = start + len(list(run))
        if kind == "cut":
            out.extend(Block("cut", i, i) for i in range(start, end))
        else:
            out.append(Block(kind, start, end - 1))
        start = end
    return out


def set_partitions(items: Sequence) -> Iterable[list]:
    """Every set partition of items, each once, as a list of blocks (lists).
    The partitions of items[1:] come in order, and for each one items[0]
    joins every block in turn and then opens a block of its own."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def all_laminar_trees(leaves: Sequence) -> Iterable[LaminarTree]:
    """All laminar trees (no unary nodes) on the given leaves, each once:
    the root's children are the blocks of a set partition, recursively.
    Distinct partitions give distinct root children, so no tree repeats;
    a repeated leaf counts once."""

    def walks(items: list) -> Iterable[tuple]:
        # (leaves, arities) of each tree's post-order walk
        if len(items) == 1:
            yield items, [0]
            return
        for part in set_partitions(items):
            if len(part) < 2:
                continue
            for chosen in product(*[list(walks(block)) for block in part]):
                yield ([x for names, _ in chosen for x in names],
                       [k for _, arities in chosen for k in arities] + [len(part)])

    for names, arities in walks(sorted(set(leaves))):
        yield tree_from_postorder(names, arities)


def all_tree_shapes(n: int) -> Iterable[LaminarTree]:
    """One laminar tree per unlabeled shape with exactly n leaves (no
    unary nodes); leaves are 0..n-1 assigned left to right.  A shape is
    the tuple of its children's (leaf count, shape) pairs in order, the
    empty tuple for a leaf."""

    def shapes(k: int):
        if k == 1:
            yield ()
            return
        def multisets(total, least):
            # children with `total` leaves in all, each (size, shape) pair
            # at least the one before, so each multiset comes once; each
            # child has at most k - 1 leaves, so there are two or more
            if total == 0:
                yield ()
                return
            for size in range(1, min(total, k - 1) + 1):
                for child in shapes(size):
                    if (size, child) >= least:
                        for rest in multisets(total - size, (size, child)):
                            yield ((size, child),) + rest

        yield from multisets(k, (0, ()))

    def arities(shape) -> list:
        # the post-order walk's child counts; its leaves come left to right
        return [k for _, child in shape for k in arities(child)] + [len(shape)]

    for shape in shapes(n):
        yield tree_from_postorder(range(n), arities(shape))
