"""Deterministic instance enumerators for the verification suites."""
from __future__ import annotations

from itertools import product
from typing import Iterator

from .rank import Graph
from .semigroup import FiniteSemigroup, validate
from .structures import Structure, Vocabulary

__all__ = [
    "BINARY",
    "binary_structure",
    "binary_structures",
    "associative_tables",
    "curated_size4_semigroups",
    "word_monoid_1abab0",
    "path_graph",
    "clique_graph",
    "edgeless_graph",
    "grid_graph",
    "cyclic_group",
    "left_zero",
    "right_zero",
    "rectangular_band",
    "chain_semilattice",
    "nilpotent_monoid",
    "direct_product",
]

BINARY = Vocabulary((("E", 2),))


def binary_structure(n: int, bits: int) -> Structure:
    """The structure on n elements whose relation E holds the i-th pair of
    ``product(range(n), repeat=2)`` exactly when bit i of bits is set."""
    if not 0 <= bits < 1 << n * n:
        raise ValueError(f"relation bitmask {bits} out of range for {n} elements")
    pairs = product(range(n), repeat=2)
    rel = [pair for i, pair in enumerate(pairs) if bits >> i & 1]
    return Structure.make(BINARY, n, {"E": rel})


def binary_structures(max_n: int) -> Iterator[Structure]:
    """All structures over one binary relation with 1..max_n elements, in
    universe-size then relation-bitmask order."""
    for n in range(1, max_n + 1):
        for bits in range(1 << n * n):
            yield binary_structure(n, bits)


def associative_tables(max_size: int) -> Iterator[FiniteSemigroup]:
    """All associative Cayley tables with 1..max_size elements (labeled),
    in table-content order."""
    if max_size > 3:
        raise ValueError("exhaustive table enumeration is capped at size 3")
    for n in range(1, max_size + 1):
        for values in product(range(n), repeat=n * n):
            table = [list(values[i * n:(i + 1) * n]) for i in range(n)]
            try:
                yield validate(table)
            except ValueError:
                continue


def cyclic_group(n: int) -> FiniteSemigroup:
    return validate([[(i + j) % n for j in range(n)] for i in range(n)], unit=0)


def left_zero(n: int) -> FiniteSemigroup:
    return validate([[i] * n for i in range(n)])


def right_zero(n: int) -> FiniteSemigroup:
    return validate([list(range(n)) for _ in range(n)])


def rectangular_band(rows: int, cols: int) -> FiniteSemigroup:
    """Elements are (i, j) pairs with (i, j)(k, l) = (i, l)."""
    n = rows * cols
    def eid(i, j):
        return i * cols + j
    table = [[0] * n for _ in range(n)]
    for i in range(rows):
        for j in range(cols):
            for k in range(rows):
                for l in range(cols):
                    table[eid(i, j)][eid(k, l)] = eid(i, l)
    return validate(table)


def chain_semilattice(n: int) -> FiniteSemigroup:
    """Meet semilattice of a chain: xy = min(x, y)."""
    return validate([[min(i, j) for j in range(n)] for i in range(n)])


def nilpotent_monoid() -> FiniteSemigroup:
    """Monoid {1, a, b, 0} where every product of two letters is 0."""
    one, a, b, zero = 0, 1, 2, 3
    table = [[0] * 4 for _ in range(4)]
    for x in range(4):
        table[one][x] = x
        table[x][one] = x
        table[zero][x] = zero
        table[x][zero] = zero
    for x in (a, b):
        for y in (a, b):
            table[x][y] = zero
    return validate(table, unit=one)


def direct_product(S: FiniteSemigroup, T: FiniteSemigroup) -> FiniteSemigroup:
    n, m = S.size, T.size
    def eid(i, j):
        return i * m + j
    table = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(m):
            for k in range(n):
                for l in range(m):
                    table[eid(i, j)][eid(k, l)] = eid(S.mult(i, k), T.mult(j, l))
    unit = None
    if S.unit is not None and T.unit is not None:
        unit = eid(S.unit, T.unit)
    return validate(table, unit=unit)


def word_monoid_1abab0() -> FiniteSemigroup:
    """The six-element monoid {1, a, b, ab, ba, 0} where a^2 = b^2 = 0 and
    all length-3 letter products vanish."""
    one, a, b, ab, ba, zero = range(6)
    words = {one: (), a: ("a",), b: ("b",), ab: ("a", "b"), ba: ("b", "a")}

    def reduce(w):
        if len(w) > 2:
            return None
        for x, y in zip(w, w[1:]):
            if x == y:
                return None
        for e, word in words.items():
            if word == w:
                return e
        return None

    table = [[zero] * 6 for _ in range(6)]
    for x, wx in words.items():
        for y, wy in words.items():
            r = reduce(wx + wy)
            table[x][y] = zero if r is None else r
    return validate(table, unit=one)


def curated_size4_semigroups() -> list:
    """The fixed size-4 family: a cyclic group, a product group, one-sided
    zeros, a rectangular band, a chain semilattice, and a nilpotent
    monoid."""
    return [
        cyclic_group(4),
        direct_product(cyclic_group(2), cyclic_group(2)),
        left_zero(4),
        right_zero(4),
        rectangular_band(2, 2),
        chain_semilattice(4),
        nilpotent_monoid(),
    ]


def path_graph(n: int) -> Graph:
    return Graph.make(n, [(i, i + 1) for i in range(n - 1)])


def clique_graph(n: int) -> Graph:
    return Graph.make(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n: int) -> Graph:
    return Graph.make(n, [])


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.make(rows * cols, edges)
