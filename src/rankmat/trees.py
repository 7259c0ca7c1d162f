"""Laminar trees, ternary encoding, subforests, orientations, and blocks.

A laminar tree is a family of leaf subsets containing every singleton and
the full leaf set, any two members nested or disjoint.  Since every
singleton is a node, every internal node has at least two children.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, permutations, product
from operator import or_
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


class _TreeIndex:
    """Lookups built once per tree: nodes by size, each node's parent (its
    smallest strict superset) and children, each leaf's owner (its smallest
    node), and the internal nodes.  One pass takes the nodes largest first;
    a node's parent is the one owner so far of its leaves.  If they have
    two owners, one not containing the node crosses it, since no earlier
    node is a subset of it.

    The kernels work on int leaf masks, built on first use: bit i is the
    i-th leaf of the sorted leaves, and each node and subforest is the mask
    of its leaves."""

    def __init__(self, leaves: frozenset, nodes: frozenset):
        self.leaves = sorted(leaves)
        # stable, so nodes of one size keep the family's iteration order
        self.by_size = sorted(nodes, key=len)
        self.parent: dict = {}
        self.children: dict = {node: [] for node in nodes}
        self.owner: dict = {}
        for node in reversed(self.by_size):
            owners = set(map(self.owner.get, node))
            if len(owners) > 1:
                other = next(o for o in owners if o is not None and not node <= o)
                raise ValueError(f"crossing nodes {set(node)} and {set(other)}")
            up = owners.pop() if owners else None
            self.parent[node] = up
            if up is not None:
                self.children[up].append(node)
            self.owner.update(dict.fromkeys(node, node))
        # siblings, and nodes of one size, are disjoint: the least leaf
        # orders them as their sorted leaf lists would
        for kids in self.children.values():
            kids.sort(key=min)
        self.internal = sorted(
            (x for x in nodes if len(x) > 1), key=lambda x: (len(x), min(x))
        )

    @cached_property
    def bit(self) -> dict:
        return {leaf: 1 << i for i, leaf in enumerate(self.leaves)}

    @cached_property
    def mask(self) -> dict:
        """Each node's leaf mask: its owned leaves, then its children's
        masks, smallest nodes first."""
        mask = dict.fromkeys(self.by_size, 0)
        for leaf, node in self.owner.items():
            mask[node] |= self.bit[leaf]
        for node in self.by_size:
            if self.parent[node] is not None:
                mask[self.parent[node]] |= mask[node]
        return mask

    @cached_property
    def splits(self) -> tuple:
        """(node, mask, parent, the node's mask less each child's) for the
        internal nodes, largest first, so a parent precedes its children."""
        mask = self.mask
        return tuple(
            (node, mask[node], self.parent[node],
             tuple(mask[node] & ~mask[kid] for kid in self.children[node]))
            for node in reversed(self.internal)
        )

    @cached_property
    def forests(self) -> frozenset:
        """The subforests (see ``subforests``) as leaf masks."""
        mask = self.mask
        out = {mask[self.by_size[-1]]}  # the root
        for node in self.internal:
            kids = [mask[kid] for kid in self.children[node]]
            for k in range(1, len(kids) + 1):
                out.update(reduce(or_, chosen) for chosen in combinations(kids, k))
        return frozenset(out)

    def mask_of(self, xs: Iterable) -> int:
        """The mask of the leaves among xs."""
        bit, x = self.bit, 0
        for leaf in xs:
            x |= bit.get(leaf, 0)
        return x

    def leaves_of(self, mask: int) -> list:
        """The sorted leaves of a mask, lowest bit first."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.leaves[low.bit_length() - 1])
            mask ^= low
        return out


@dataclass(frozen=True)
class LaminarTree:
    leaves: frozenset
    nodes: frozenset  # frozenset of frozensets

    @cached_property
    def _index(self) -> _TreeIndex:
        # kept in the instance __dict__, outside the fields: ==, hash and
        # repr ignore it, and it is freed with the tree
        return _TreeIndex(self.leaves, self.nodes)

    def children(self, node: frozenset) -> list:
        """Maximal proper subnodes of a node of the tree, sorted by their
        sorted leaf lists."""
        return list(self._index.children[node])

    def internal_nodes(self) -> list:
        return list(self._index.internal)

    def root(self) -> frozenset:
        return frozenset(self.leaves)



def validate_tree(family: Iterable[Iterable],
                  leaves: Optional[Iterable] = None) -> LaminarTree:
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
    tree = LaminarTree(leaves, nodes)
    tree._index  # building the index raises on crossing nodes
    return tree


def _child_pairs(index: _TreeIndex) -> Iterable[tuple]:
    """(node, a, b) for each internal node and each ordered pair of its
    distinct children: the encoding holds ``product(a, b, node)``."""
    for node in index.internal:
        for a, b in permutations(index.children[node], 2):
            yield node, a, b


def ternary_encode(t: LaminarTree) -> Structure:
    """Structure with T(x,y,z) iff z lies in the least node containing x,y:
    x itself if x = y, else the node where x, y lie in distinct children."""
    leaves = sorted(t.leaves)
    if leaves != list(range(len(leaves))):
        raise ValueError("ternary encoding needs leaves 0..n-1")
    for leaf in leaves:
        # without {leaf}, no child holds leaf and its pairs would be lost
        if frozenset((leaf,)) not in t.nodes:
            raise ValueError(f"singleton {{{leaf!r}}} missing from the family")
    rel = frozenset(chain(
        zip(leaves, leaves, leaves),
        chain.from_iterable(product(a, b, node) for node, a, b in _child_pairs(t._index)),
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
    pairs = list(_child_pairs(tree._index))
    if (len(rel) != n + sum(len(a) * len(b) * len(node) for node, a, b in pairs)
            or not all((x, x, x) in rel for x in range(n))
            or not all(rel.issuperset(product(a, b, node)) for node, a, b in pairs)):
        raise ValueError("relation is not a ternary tree encoding")
    return tree


def subforests(t: LaminarTree) -> frozenset:
    """All nonempty unions of sibling subtrees, plus the full leaf set."""
    index = t._index
    return frozenset(frozenset(index.leaves_of(f)) for f in index.forests)


def interesting_analysis(t: LaminarTree, X: Iterable):
    """Interesting nodes of X, the longest chain among them, and the
    maximum number of interesting children of a single node.

    A node Y is dull when it is a leaf, when X does not cut Y, or when
    some child Y' leaves X trivial on Y minus Y'; interesting otherwise.
    Nested nodes lie on one path from the root, so the longest chain is
    the most interesting nodes on such a path.
    """
    index = t._index
    x = index.mask_of(X)
    interesting = []
    chain = {None: 0}  # interesting nodes from the root down to each node
    kids: dict = {}  # interesting children of each node
    for node, mask, parent, rests in index.splits:
        hit = 0 != x & mask != mask and all(0 != x & rest != rest for rest in rests)
        chain[node] = chain[parent] + hit
        if hit:
            interesting.append(node)
            if parent is not None:
                kids[parent] = kids.get(parent, 0) + 1
    return frozenset(interesting), max(chain.values()), max(kids.values(), default=0)


def min_boolean_combination(t: LaminarTree, X: Iterable, limit: int = 1):
    """Least number of subforests whose boolean combination is X: 0 for
    the empty set and the full leaf set, 1 when X or root less X is a
    subforest (one subforest f cuts the leaves into f and root less f, and
    X must split neither: a set lookup), else ``Overflow()``.  Only one
    subforest is searched, so ``limit`` must be 1."""
    if limit != 1:
        raise ValueError(f"boolean combination limit must be 1, not {limit}")
    X = frozenset(X)
    if X == frozenset() or X == t.root():
        return 0
    index = t._index
    x = index.mask_of(X)
    full = (1 << len(index.leaves)) - 1
    if x in index.forests or full & ~x in index.forests:
        return 1
    return caps.Overflow()


@dataclass(frozen=True)
class Orientation:
    modulus: int
    leaf_colours: tuple  # tuple of (leaf, colour)
    left_right: tuple  # tuple of (node, left child, right child)

    @cached_property
    def _children(self) -> dict:
        # node -> (left, right), kept in the instance __dict__ outside the
        # fields, as LaminarTree._index is
        return {node: (l, r) for node, l, r in self.left_right}

    def left(self, node):
        return self._children[node][0]

    def right(self, node):
        return self._children[node][1]


@dataclass(frozen=True)
class Obstruction:
    modulus: int
    node: frozenset


def _postorder(index: _TreeIndex, root: frozenset) -> list:
    """The nodes under root, each after its children, children in index
    order: the order a recursion over the children finishes them in, on an
    explicit stack, since a tree's depth is not bounded by the recursion
    limit."""
    out = []
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(index.children[node]))
    return out


def _leaf_list_order(index: _TreeIndex) -> dict:
    """A key per internal node that orders the internal nodes as their
    sorted leaf lists do, from a few operations on each node's leaf mask.

    Disjoint nodes, and nested ones with different least leaves, are in
    the order of their least leaves.  The nodes with one least leaf form a
    chain, each the parent of the one before; of two of them the smaller
    comes first exactly when its leaves are a prefix of the larger's, that
    is, when all its leaves are below every leaf the larger adds.  A node's
    rank in its chain counts the smaller nodes that are its prefixes, kept
    on a stack, and the larger nodes it is not a prefix of."""
    mask = index.mask
    chains: dict = {}
    for node in index.internal:  # smaller nodes first
        m = mask[node]
        chains.setdefault(m & -m, []).append(node)
    order = {}
    for least, chain in chains.items():
        last = len(chain) - 1
        # until[j]: the last position in the chain whose node has node j as
        # a prefix
        stack, prefixes, until = [], [], [last] * len(chain)
        below = 0
        for j, node in enumerate(chain):
            m = mask[node]
            new = m & ~below
            # the earlier nodes left on the stack are prefixes of this one
            while stack and mask[chain[stack[-1]]] > new & -new:
                until[stack.pop()] = j - 1
            prefixes.append(len(stack))
            stack.append(j)
            below = m
        for j, node in enumerate(chain):
            order[node] = (least, prefixes[j] + last - until[j])
    return order


def _first_choices(options: list, m: int) -> dict:
    """For each total mod m that some tuple of ``product(*options)`` with
    at least two entries unique in it reaches, the first such tuple in
    product order.

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
    return found


def group_orientation(t: LaminarTree, m: int = 4):
    """Colour leaves into Z_m so that at every internal node at least two
    children have subtree sums unique among the siblings; left/right are
    the first two unique-sum children ordered by sum.

    Bottom up, each node keeps the first choice of its children's sums,
    in ``product`` order over each child's sorted achievable sums, that
    has two unique sums and reaches a given total, for every total some
    choice reaches (see ``_first_choices``); top down, the root takes its
    least total and each node hands its choice to its children.  Returns
    Obstruction at the first node, in post-order with children in index
    order, admitting no valid colouring.
    """
    if m < 2:
        raise ValueError("group order must be >= 2")
    for node in t.internal_nodes():
        if len(t.children(node)) < 2:
            raise ValueError(f"unary node {set(node)}")

    index = t._index
    witness: dict = {}  # node -> {total: its children's sums}
    for node in _postorder(index, t.root()):
        if len(node) == 1:
            witness[node] = dict.fromkeys(range(m))
            continue
        found = _first_choices([sorted(witness[kid]) for kid in index.children[node]], m)
        if not found:
            return Obstruction(m, node)
        witness[node] = found

    leaf_colours: dict = {}
    left_right: dict = {}
    stack = [(t.root(), min(witness[t.root()]))]
    while stack:
        node, target = stack.pop()
        if len(node) == 1:
            (leaf,) = node
            leaf_colours[leaf] = target
            continue
        kids = index.children[node]
        choice = witness[node][target]
        counts: dict = {}
        for s in choice:
            counts[s] = counts.get(s, 0) + 1
        unique_kids = [
            (s, kid) for s, kid in zip(choice, kids) if counts[s] == 1
        ]
        unique_kids.sort(key=lambda pair: pair[0])
        left_right[node] = (unique_kids[0][1], unique_kids[1][1])
        stack.extend(zip(kids, choice))

    order = _leaf_list_order(index)
    return Orientation(
        m,
        tuple(sorted(leaf_colours.items())),
        tuple(
            (node, lr[0], lr[1])
            for node, lr in sorted(left_right.items(), key=lambda kv: order[kv[0]])
        ),
    )


def orientation_is_valid(t: LaminarTree, o: Orientation) -> bool:
    """Post-hoc check: recompute sums and the uniqueness condition.  Each
    node is summed once, smallest first: its own leaves' colours plus its
    children's sums."""
    index = t._index
    colours = dict(o.leaf_colours)
    total = dict.fromkeys(index.by_size, 0)
    for leaf, node in index.owner.items():
        total[node] += colours[leaf]
    for node in index.by_size:
        if index.parent[node] is not None:
            total[index.parent[node]] += total[node]
    for node in index.internal:
        sums = [(total[kid] % o.modulus, kid) for kid in index.children[node]]
        counts = Counter(s for s, _ in sums)
        unique = sorted((s, kid) for s, kid in sums if counts[s] == 1)
        if len(unique) < 2:
            return False
        if o.left(node) != unique[0][1] or o.right(node) != unique[1][1]:
            return False
    return True


def chosen_leaf(t: LaminarTree, o: Orientation, node: frozenset):
    """Left child, then right children down to a leaf."""
    if len(node) == 1:
        raise ValueError("chosen_leaf needs a non-leaf node")
    current = o.left(node)
    while len(current) > 1:
        current = o.right(current)
    (leaf,) = current
    return leaf


@dataclass(frozen=True)
class PartiallyOrderedTree:
    tree: LaminarTree
    kinds: tuple  # tuple of (node, "ordered" | "unordered")
    orders: tuple  # tuple of (node, tuple of children in order), ordered nodes

    def __post_init__(self):
        kinds = dict(self.kinds)
        orders = dict(self.orders)
        for node in self.tree.internal_nodes():
            if node not in kinds:
                raise ValueError(f"missing kind for node {set(node)}")
            if kinds[node] == "ordered":
                order = orders.get(node)
                if order is None or sorted(order, key=lambda x: sorted(x)) != self.tree.children(node):
                    raise ValueError(f"bad child order at {set(node)}")

    def kind(self, node):
        return dict(self.kinds)[node]

    def order(self, node):
        return dict(self.orders)[node]


def document_preorder(pt: PartiallyOrderedTree) -> frozenset:
    """Pairs (x, y) with x <= y: reflexive pairs plus pairs whose least
    common ancestor is ordered with x's child before y's child."""
    t = pt.tree
    kinds, orders = dict(pt.kinds), dict(pt.orders)
    pairs = {(x, x) for x in t.leaves}
    for node in t._index.internal:
        if kinds[node] == "ordered":
            for a, b in combinations(orders[node], 2):
                pairs.update(product(a, b))
    return frozenset(pairs)


def branching(t: LaminarTree) -> int:
    """Largest k such that the complete binary tree of height k embeds as
    a leaf-restriction minor; Strahler-style dynamic programming."""
    index = t._index
    value: dict = {}
    for node in _postorder(index, t.root()):
        if len(node) == 1:
            value[node] = 0
            continue
        kids = [value[kid] for kid in index.children[node]]
        best = max(kids)
        value[node] = best + 1 if kids.count(best) >= 2 else best
    return value[t.root()]


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
    statuses = []
    for cls in p.classes:
        inter = cls & Y
        if not inter:
            statuses.append("empty")
        elif inter == cls:
            statuses.append("full")
        else:
            statuses.append("cut")
    out = []
    i = 0
    while i < len(statuses):
        kind = statuses[i]
        if kind == "cut":
            out.append(Block("cut", i, i))
            i += 1
            continue
        j = i
        while j + 1 < len(statuses) and statuses[j + 1] == kind:
            j += 1
        out.append(Block(kind, i, j))
        i = j + 1
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
    leaves = sorted(set(leaves))

    def trees(items: list) -> Iterable[frozenset]:
        if len(items) == 1:
            yield frozenset({frozenset(items)})
            return
        for part in set_partitions(items):
            if len(part) < 2:
                continue
            subtree_choices = [list(trees(block)) for block in part]
            for chosen in product(*subtree_choices):
                nodes = frozenset({frozenset(items)}).union(*chosen)
                yield nodes

    for nodes in trees(list(leaves)):
        yield LaminarTree(frozenset(leaves), nodes)


def all_tree_shapes(n: int) -> Iterable[LaminarTree]:
    """One laminar tree per unlabeled shape with exactly n leaves (no
    unary nodes); leaves are 0..n-1 assigned left to right."""

    def shapes(k: int):
        # multisets of child shapes, each child with >= 1 leaf, >= 2 children
        if k == 1:
            yield ("leaf",)
            return
        def multisets(total, min_key):
            # partitions of `total` leaves into >= 2 child shapes, each
            # child shape canonically keyed to avoid duplicates
            if total == 0:
                yield ()
                return
            # each child has at most k-1 leaves (at least two children)
            for size in range(1, min(total, k - 1) + 1):
                for child in shapes(size):
                    key = (size, child)
                    if key < min_key:
                        continue
                    for rest in multisets(total - size, key):
                        yield ((size, child),) + rest

        for ms in multisets(k, (0, ())):
            if len(ms) >= 2:
                yield ("node", ms)

    def realize(shape, start: int) -> tuple:
        if shape[0] == "leaf":
            leaf = frozenset((start,))
            return {leaf}, start + 1
        nodes: set = set()
        pos = start
        for size, child in shape[1]:
            sub, pos = realize(child, pos)
            nodes |= sub
        nodes.add(frozenset(range(start, pos)))
        return nodes, pos

    for shape in shapes(n):
        nodes, _ = realize(shape, 0)
        yield LaminarTree(frozenset(range(n)), frozenset(nodes))
