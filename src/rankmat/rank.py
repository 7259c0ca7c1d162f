"""Type matrices, rank variants, GF(2) graph cut-rank, and monadic d-types.

``type_matrix`` and ``distinct_row_rank`` read cell types through
``Structure.qf_type_ids``, a per-structure memo that interns each tuple's
``qf_type`` as a small int, so the subsets X of one structure share their
cells.  The memo lives on the structure, not in this module, so it is freed
with the structure; a module-level cache would keep the last structure and
its memo alive for as long as the module stays loaded.  An m = 1 row (x,)
is x's row from ``QfTypeIds.pair_rows``, the ids of (x, y) for every y,
read at the columns' elements; a call's new rows are typed together, in
one pass over their pairs.  m >= 2 cells go through the tuple memo.  Work
bound: an m = 1 call types at most |X|·n pairs, and each pair at most once
per structure, since each x's row is kept once typed.

A depth-0 monadic type of a subset tuple is its set of atomic facts
(relations, inclusions, equalities and size residues); a depth-d type is the
depth-(d-1) type with the set of depth-(d-1) types of its one-step
extensions.  ``monadic_type_matrix`` interns each depth-d type of a
structure as a small int, and types a head with all of its one-step
extensions at once: an extension table holds the depth-d ids of ``head +
(z,)`` for every subset z, and a matrix cell is an entry of its head's
table.  The tables are kept for the last structure seen, so the matrices of
one EF comparison and the subsets X of one structure share their work.
Work bound: one tuple of 2^n ids per (head, d) built, each built once per
structure.  The atoms a new coordinate z adds are read from fact
columns, one per atom with its value for every z, cached by the head values
the atom depends on, so a head's extensions share one ``zip`` over them.
The definition as nested values, which the ids are tested against, is
``monadic_d_type`` in ``tests/reference_types.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat
from operator import itemgetter, or_
from typing import Iterable, Iterator, Optional, Sequence

from . import caps
from .structures import MonadicStructure, Structure, _in_range, submasks

__all__ = [
    "TypeMatrix",
    "MonadicTypeMatrix",
    "Graph",
    "type_matrix",
    "matrix_ranks",
    "distinct_row_rank",
    "gf2_rank",
    "graph_cut_rank",
    "monadic_type_matrix",
    "monadic_matrix_distinct_rows",
    "reference_rank",
    "smallest_prime_at_least",
]


@dataclass(frozen=True)
class TypeMatrix:
    X: frozenset
    m: int
    rows: tuple  # row index: tuples in X^m
    cols: tuple  # column index: tuples in complement^m
    table: tuple  # tuple of row tuples of value ids
    values: tuple  # value id -> QfType


def _cut(s: Structure, X: Iterable[int], m: int) -> tuple:
    """X as a frozenset, its sorted members and the sorted rest of the
    universe, after the ``matrix_cells`` cap check."""
    if m < 1:
        raise ValueError("m must be >= 1")
    X = frozenset(X)
    inside = sorted(X)
    outside = [y for y in range(s.universe_size) if y not in X]
    caps.check("matrix_cells", len(inside) ** m * len(outside) ** m, "type matrix")
    return X, inside, outside


def _id_rows(s: Structure, inside: list, outside: list, m: int) -> Iterator[tuple]:
    """The type matrix's rows as tuples of ids in ``s``'s memo, rows and
    columns in ``product`` order.  At m = 1 row (x,) is x's pair row read
    at the outside elements, the rows of every x typed together by
    ``QfTypeIds.pair_rows``; at m >= 2 each cell is looked up in the tuple
    memo.  A generator: the memo is not touched before the first row is
    read."""
    ids = s.qf_type_ids
    if m == 1 and outside:
        rows = map(itemgetter(*outside), ids.pair_rows(s, inside))
        # with one column, itemgetter gives the id, not a 1-tuple
        yield from rows if len(outside) > 1 else zip(rows)
        return
    cols = list(product(outside, repeat=m))
    type_id = ids.id_of
    for r in product(inside, repeat=m):
        yield tuple([type_id(s, r + c) for c in cols])


def type_matrix(s: Structure, X: Iterable[int], m: int) -> TypeMatrix:
    X, inside, outside = _cut(s, X, m)
    cells = list(_id_rows(s, inside, outside, m))
    # value ids in QfType.sort_key order, as _field_rank reads them
    ids = s.qf_type_ids
    ordered = sorted({i for row in cells for i in row}, key=ids.sort_keys.__getitem__)
    value_of = {i: v for v, i in enumerate(ordered)}
    table = tuple(tuple(value_of[i] for i in row) for row in cells)
    return TypeMatrix(X, m, tuple(product(inside, repeat=m)), tuple(product(outside, repeat=m)),
                      table, tuple(ids.types[i] for i in ordered))


def smallest_prime_at_least(n: int) -> int:
    candidate = max(n, 2)
    while True:
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            return candidate
        candidate += 1


def _field_rank(table: Sequence[Sequence[int]], p: int) -> int:
    rows = [list(row) for row in table]
    if not rows or not rows[0]:
        return 0
    n_cols = len(rows[0])
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < n_cols:
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def _distinct_rows(rows: Iterable[tuple], n_rows: int, n_cols: int) -> int:
    """0 with no rows, 1 with no columns (every row is the empty row), else
    the number of distinct rows.  ``rows`` is read only in the last case."""
    if not n_rows:
        return 0
    if not n_cols:
        return 1
    return len(set(rows))


def matrix_ranks(M: TypeMatrix):
    """(distinct_rows, distinct_cols, field_rank over GF(p), p smallest
    prime >= number of distinct values)."""
    n_rows, n_cols = len(M.rows), len(M.cols)
    p = smallest_prime_at_least(max(len(M.values), 1))
    return (_distinct_rows(M.table, n_rows, n_cols),
            _distinct_rows(zip(*M.table), n_cols, n_rows),
            _field_rank(M.table, p))


def distinct_row_rank(s: Structure, X: Iterable[int], m: int = 1) -> int:
    """Cut-rank of X as the number of distinct rows of its type matrix:
    ``matrix_ranks(type_matrix(s, X, m))[0]`` without building the matrix.
    No type is computed when X or its complement is empty."""
    _, inside, outside = _cut(s, X, m)
    return _distinct_rows(_id_rows(s, inside, outside, m), len(inside), len(outside))


@dataclass(frozen=True)
class Graph:
    """Simple undirected loop-free graph."""

    n: int
    edges: frozenset  # frozenset of frozenset pairs

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {set(e)} is not a 2-set (loops/directed input rejected)")
            if any(not (0 <= v < self.n) for v in e):
                raise ValueError(f"edge {set(e)} out of range")

    @staticmethod
    def make(n: int, edges: Iterable) -> "Graph":
        return Graph(n, frozenset(frozenset(e) for e in edges))

    @property
    def universe_size(self) -> int:
        """The vertex count, under the name structures use for theirs."""
        return self.n

    @cached_property
    def neighbour_masks(self) -> tuple:
        """Each vertex's neighbours as a bitmask, bit v for vertex v.  Kept
        in the instance ``__dict__``, as ``Structure.qf_type_ids`` is, so
        ``==``, ``hash`` and ``repr`` ignore it."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of rows given as int bitsets."""
    rank = 0
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def graph_cut_rank(g: Graph, X: Iterable[int]) -> int:
    """GF(2) rank of the adjacency matrix between X and the other vertices.
    Row u is u's neighbour mask with X's bits cleared: its columns stay at
    vertex positions, which leaves the rank as it is.  A member of X
    outside ``range(g.n)`` raises ``ValueError``, as ``type_matrix`` does
    for a coordinate outside the universe."""
    X = _in_range(X, g.n)
    outside = (1 << g.n) - 1
    for u in X:
        outside &= ~(1 << u)
    nbr = g.neighbour_masks
    return gf2_rank([nbr[u] & outside for u in X])


class _Numbering(dict):
    """Numbers keys 0, 1, 2, ... in order of first lookup: ``numbering[key]``
    is the key's number, new or old."""

    def __missing__(self, key):
        value = self[key] = len(self)
        return value


class _MonadicTyper:
    """Hash-consed monadic types of one structure: each depth-d type of a
    subset tuple is interned as a small int, and two tuples get the same id
    exactly when their nested types (``tests/reference_types.py``) are equal.

    The unit of work is a head with all of its one-step extensions:
    ``extension_ids(head, d)`` is the tuple of depth-d ids of ``head + (z,)``
    for every subset z, entry z for z.  It is built once per ``(head, d)``
    and kept, so typing costs one tuple of 2^n ids per (head, d) built, each
    built once per typer.  The id of a nonempty tuple is an entry of its
    head's table; the empty tuple has no head and keeps its own ids.

    The facts of ``head + (z,)`` that involve its last coordinate are read
    from fact columns: one column per atom, holding that atom's value for
    every subset z, so ``zip(*columns)`` gives the new facts of every
    one-step extension of ``head`` at once.  A relation atom's column
    depends only on the head values at the atom's other positions, an
    inclusion pair's column on one head value and a residue's on nothing,
    so the columns are cached by those values and shared by every head.

    The keys, numbered by one counter, so an id names one type at one depth:

    - Depth 0: ``()`` for the empty tuple, and ``(depth-0 id of head, new
      facts)`` for ``head + (z,)``, whose atoms are the head's atoms plus
      its new facts.
    - Depth 1 of ``t = head + (z,)``: ``(depth-0 id of t, frozenset of
      (group number, moving facts))`` over the extensions ``t + (w,)``.  The
      new facts of ``t + (w,)`` split into a fixed group that does not
      involve z (relation atoms without z's position, the head's inclusion
      columns, residues) and moving facts that do (relation atoms that put
      z at some position, z's inclusion column).  The fixed rows are
      numbered once per head, in ``_groups``, so each z costs one ``zip``
      and one ``frozenset``.
    - Depth d >= 2, and depth 1 of the empty tuple: ``(depth d-1 id,
      frozenset of the depth d-1 ids of the one-step extensions)``.

    Why the depth-1 key is still injective: a depth-0 id fixes the tuple's
    length, since a key for length k + 1 holds an id for length k, and every
    nonempty tuple of one length uses one key form with one column order.
    So, beside one depth-0 id, a (group number, moving facts) pair names
    exactly one row of new facts.  Group numbers come from their own
    numbering, equal exactly when the fixed rows are, and never meet a full
    row or an id: the only other keys that hold a frozenset hold one of
    ints, and begin with an id of another depth or of the empty tuple.
    """

    def __init__(self, ms: MonadicStructure, residues: tuple):
        self.ms = ms
        self._ids = _Numbering()
        self._empty = [self._ids[()]]  # the empty tuple's id at depth 0, 1, ...
        self._tables: dict = {}
        self._groups = _Numbering()
        self._rel_atoms: dict = {}
        self._rel_columns: dict = {}
        self._inclusion_columns: dict = {}
        self._residue_columns = [tuple(z.bit_count() % q for z in ms.subsets())
                                 for q in residues]

    def type_id(self, subsets: tuple, d: int) -> int:
        """The depth-d id of a subset tuple: an entry of its head's table,
        or the empty tuple's own id."""
        if subsets:
            return self.extension_ids(subsets[:-1], d)[subsets[-1]]
        empty = self._empty
        while len(empty) <= d:
            below = len(empty) - 1
            empty.append(self._ids[(empty[below], frozenset(self.extension_ids((), below)))])
        return empty[d]

    def extension_ids(self, head: tuple, d: int) -> tuple:
        """The depth-d ids of ``head + (z,)`` for every subset z, entry z
        for z, built once per ``(head, d)``."""
        table = self._tables.get((head, d))
        if table is None:
            ids = self._ids
            if d == 0:
                h = self.type_id(head, 0)
                table = tuple([ids[(h, row)] for row in self._rows(self._columns(head))])
            elif d == 1:
                table = self._depth1_ids(head)
            else:
                below = self.extension_ids(head, d - 1)
                table = tuple([
                    ids[(below[z], frozenset(self.extension_ids(head + (z,), d - 1)))]
                    for z in self.ms.subsets()
                ])
            self._tables[(head, d)] = table
        return table

    def _depth1_ids(self, head: tuple) -> tuple:
        """``extension_ids(head, 1)``, from the fixed rows numbered once and
        the moving columns of each z."""
        k = len(head)
        atoms = self._relation_atoms(k + 1)
        fixed = self._atom_columns(head + (None, None), [a for a in atoms if k not in a[1]])
        fixed.extend(map(self._inclusion_column, head))
        fixed.extend(self._residue_columns)
        groups = list(map(self._groups.__getitem__, self._rows(fixed)))
        moving_atoms = [a for a in atoms if k in a[1]]
        below = self.extension_ids(head, 0)
        ids = self._ids
        table = []
        for z in self.ms.subsets():
            moving = self._atom_columns(head + (z, None), moving_atoms)
            moving.append(self._inclusion_column(z))
            table.append(ids[(below[z], frozenset(zip(groups, *moving)))])
        return tuple(table)

    def _rows(self, columns: list) -> Iterable[tuple]:
        """Entry z of the columns for every subset z."""
        return zip(*columns) if columns else repeat((), len(self.ms.subsets()))

    def _columns(self, head: tuple) -> list:
        """The fact columns of ``head``, in a fixed order for each length:
        entry z of the columns is the new facts of ``head + (z,)``.
        Equality with an earlier coordinate is inclusion both ways, and the
        new coordinate's inclusion in and equality with itself always hold,
        so neither has a column."""
        columns = self._atom_columns(head + (None,), self._relation_atoms(len(head)))
        columns.extend(map(self._inclusion_column, head))
        columns.extend(self._residue_columns)
        return columns

    def _atom_columns(self, row: tuple, atoms: list) -> list:
        """The columns of relation atoms read at ``row``'s positions, where
        None stands for the new coordinate."""
        return [self._relation_column(r, tuple([row[i] for i in idx])) for r, idx in atoms]

    def _relation_column(self, r: int, pattern: tuple) -> tuple:
        """Whether relation r holds of ``pattern`` with each None replaced
        by z, for every subset z."""
        column = self._rel_columns.get((r, pattern))
        if column is None:
            tuples = self.ms.relations[r][2]
            column = self._rel_columns[(r, pattern)] = tuple(
                tuple(z if x is None else x for x in pattern) in tuples
                for z in self.ms.subsets()
            )
        return column

    def _inclusion_column(self, x: int) -> tuple:
        """Whether x ⊆ z (bit 0) and z ⊆ x (bit 1), for every subset z."""
        column = self._inclusion_columns.get(x)
        if column is None:
            column = self._inclusion_columns[x] = tuple(
                (x & ~z == 0) | (z & ~x == 0) << 1 for z in self.ms.subsets()
            )
        return column

    def _relation_atoms(self, k: int) -> list:
        """(relation index, coordinate indices) for the relation atoms of a
        (k+1)-tuple that mention coordinate k."""
        atoms = self._rel_atoms.get(k)
        if atoms is None:
            atoms = self._rel_atoms[k] = [
                (r, idx)
                for r, (_, arity, _) in enumerate(self.ms.relations)
                for idx in product(range(k + 1), repeat=arity)
                if k in idx
            ]
        return atoms


# The last structure's typer, so the two matrices of one EF comparison and
# a loop over the subsets X of one structure share their interned types.
_last_typer: Optional[tuple] = None


def _typer_for(ms: MonadicStructure, residues: Sequence[int]) -> _MonadicTyper:
    global _last_typer
    key = (ms, tuple(residues))
    if _last_typer is None or _last_typer[0] != key:
        _last_typer = (key, _MonadicTyper(ms, key[1]))
    return _last_typer[1]


@dataclass(frozen=True)
class MonadicTypeMatrix:
    X: frozenset
    d: int
    m: int
    rows: tuple
    cols: tuple
    table: tuple  # cell values 0..t-1, numbered in order of first appearance
    values: tuple  # cell value -> interned id of its depth-d type


def monadic_type_matrix(ms: MonadicStructure, X: Iterable[int], d: int, m: int,
                        residues: Sequence[int] = ()) -> MonadicTypeMatrix:
    X = _in_range(X, ms.universe_size)
    if m < 0:
        raise ValueError("m must be >= 0")
    if d < 0:
        raise ValueError("d must be >= 0")
    residues = tuple(residues)
    if any(q < 1 for q in residues):
        raise ValueError("residue moduli must be >= 1")
    caps.check("monadic_matrix_mn", m * ms.universe_size, "monadic type matrix")
    inside = sum(1 << x for x in X)
    outside = tuple(submasks(((1 << ms.universe_size) - 1) & ~inside))
    rows = tuple(product(tuple(submasks(inside)), repeat=m))
    cols = tuple(product(outside, repeat=m))
    typer = _typer_for(ms, residues)
    numbers = _Numbering()
    if not m:  # the one cell is the empty tuple, which has no head
        table = ((numbers[typer.type_id((), d)],),)
    else:
        # cell r | c is entry r[-1] | c[-1] of the table of head r[:-1] |
        # c[:-1], and the columns run through their last coordinate fastest
        col_heads = tuple(product(outside, repeat=m - 1))
        table = []
        for *head, last in rows:
            row = []
            for c in col_heads:
                ids = typer.extension_ids(tuple(map(or_, head, c)), d)
                row.extend([numbers[ids[last | y]] for y in outside])
            table.append(tuple(row))
        table = tuple(table)
    return MonadicTypeMatrix(X, d, m, rows, cols, table, tuple(numbers))


def monadic_matrix_distinct_rows(M: MonadicTypeMatrix) -> int:
    return _distinct_rows(M.table, len(M.rows), len(M.cols))


def reference_rank(kind: str, s, X: Iterable[int]) -> int:
    """Reference cut-rank bound for a special instance class; the one kind
    is ``grid``, min(|X|, n - |X|)."""
    if kind == "grid":
        X = frozenset(X)
        return min(len(X), s.universe_size - len(X))
    raise ValueError(f"unknown reference kind {kind!r}")
