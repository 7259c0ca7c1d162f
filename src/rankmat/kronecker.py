"""Matrices over finite semigroups, Kronecker products, normal forms,
finite-order detection and the 2x2 claim.

The kernels read the Cayley table directly. A Kronecker product costs one
table read per entry. ``normal_form`` is the matrix less duplicate rows
and columns, its rows and the rows of its transpose sorted to a fixpoint
(with no two rows and no two columns equal, neither sort has ties).
``finite_order`` takes equal entries as a repeat and sends other
same-shape normal forms to the permutation search of ``is_submatrix``.
The growth witness of the 2x2 claim at power n costs O(n 2^n) table
reads: each entry is a product of a tabulated prefix of up letters, one
down letter and a tabulated suffix."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Sequence

from . import caps
from .semigroup import FiniteSemigroup

__all__ = [
    "SemigroupMatrix",
    "Finite",
    "Unknown",
    "kronecker_product",
    "kronecker_power",
    "normal_form",
    "is_submatrix",
    "equivalent",
    "finite_order",
    "multiplication_matrix",
    "two_by_two_claim",
]


@dataclass(frozen=True)
class SemigroupMatrix:
    entries: tuple  # tuple of row tuples of element ids
    semigroup: FiniteSemigroup

    def __post_init__(self):
        width = len(self.entries[0]) if self.entries else 0
        size = self.semigroup.size
        # one pass of C-level checks; the scan below only names the first
        # bad entry
        if set(map(len, self.entries)) <= {width} and (
                set().union(*self.entries) <= set(range(size))):
            return
        for row in self.entries:
            if len(row) != width:
                raise ValueError("column count mismatch")
            for x in row:
                if not (0 <= x < size):
                    raise ValueError(f"entry {x} out of range")

    @staticmethod
    def make(entries: Sequence[Sequence[int]], semigroup: FiniteSemigroup) -> "SemigroupMatrix":
        return SemigroupMatrix(tuple(tuple(row) for row in entries), semigroup)

    def shape(self):
        return len(self.entries), len(self.entries[0]) if self.entries else 0


def _same_domain(M: SemigroupMatrix, N: SemigroupMatrix) -> None:
    if M.semigroup != N.semigroup:
        raise ValueError("matrices over different semigroups are not comparable")


def kronecker_product(M1: SemigroupMatrix, M2: SemigroupMatrix) -> SemigroupMatrix:
    _same_domain(M1, M2)
    S = M1.semigroup
    table = S.table
    entries = tuple(
        tuple([table[a][b] for a in row1 for b in row2])
        for row1 in M1.entries
        for row2 in M2.entries
    )
    return SemigroupMatrix(entries, S)


def kronecker_power(M: SemigroupMatrix, n: int) -> SemigroupMatrix:
    if n < 1:
        raise ValueError("power must be >= 1")
    out = M
    for _ in range(n - 1):
        out = kronecker_product(out, M)
    return out


def _dedup(entries: Sequence[Sequence[int]]) -> list:
    """Keep the first occurrence of each row, then of each column, as
    tuples.

    One pass of each is the fixpoint: two rows that differ still differ
    once a duplicate column is dropped, and the same holds for columns.
    Rows with no columns stay as one empty row."""
    rows = list(dict.fromkeys(map(tuple, entries)))
    columns = list(dict.fromkeys(zip(*rows)))
    return list(zip(*columns)) if columns else rows


def normal_form(M: SemigroupMatrix) -> SemigroupMatrix:
    entries = _dedup(M.entries)
    # sort rows by content, then columns, to a fixpoint.  After _dedup no
    # two rows and no two columns are equal, so sorting the rows of the
    # transpose sorts the columns with no ties.  The order is not
    # canonical: equal normal forms imply equivalence, but two equivalent
    # matrices can sort to different layouts
    if entries and entries[0]:
        while True:
            after = list(zip(*sorted(zip(*sorted(entries)))))
            if after == entries:
                break
            entries = after
    return SemigroupMatrix(tuple(entries), M.semigroup)


def _line_profile(entries: tuple) -> tuple:
    """Each row and each column as a sorted tuple, both lists sorted: equal
    for two matrices that a row and a column permutation map onto each
    other."""
    return sorted(map(sorted, entries)), sorted(map(sorted, zip(*entries)))


def is_submatrix(M: SemigroupMatrix, N: SemigroupMatrix) -> bool:
    """Injections of M's rows and columns into N preserving entries.

    For equal shapes an injection is a bijection, so matrices whose rows
    or columns differ as multisets of sorted lines are rejected before the
    row-then-column search, which is factorial in the worst case."""
    _same_domain(M, N)
    mr, mc = M.shape()
    nr, nc = N.shape()
    if mr > nr or mc > nc:
        return False
    if (mr, mc) == (nr, nc) and _line_profile(M.entries) != _line_profile(N.entries):
        return False

    def assign_rows(i: int, row_map: list, used: set) -> bool:
        if i == mr:
            return assign_cols(0, row_map, set())
        for r in range(nr):
            if r in used:
                continue
            row_map.append(r)
            used.add(r)
            if assign_rows(i + 1, row_map, used):
                return True
            row_map.pop()
            used.remove(r)
        return False

    def assign_cols(j: int, row_map: list, used: set) -> bool:
        if j == mc:
            return True
        for c in range(nc):
            if c in used:
                continue
            if all(M.entries[i][j] == N.entries[row_map[i]][c] for i in range(mr)):
                used.add(c)
                if assign_cols(j + 1, row_map, used):
                    return True
                used.remove(c)
        return False

    return assign_rows(0, [], set())


def equivalent(M: SemigroupMatrix, N: SemigroupMatrix) -> bool:
    """Normal forms are isomorphic by entry-preserving bijections."""
    _same_domain(M, N)
    nm, nn = normal_form(M), normal_form(N)
    if nm.shape() != nn.shape():
        return False
    return is_submatrix(nm, nn)


@dataclass(frozen=True)
class Finite:
    index: int
    period: int


@dataclass(frozen=True)
class Unknown:
    row_counts: tuple  # distinct-row counts of the inspected powers


def finite_order(M: SemigroupMatrix, budget: int):
    """Iterate normal forms of Kronecker powers; a repeat certifies
    finite order, budget or size exhaustion yields Unknown."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cap = caps.get("kronecker_normal_form")
    base = normal_form(M)
    history = [base]
    row_counts = [base.shape()[0]]
    for power in range(2, budget + 1):
        previous = history[-1]
        if max(previous.shape()) > cap:
            return Unknown(tuple(row_counts))
        # dedup before multiplying keeps the powers small; duplicate rows
        # and columns of a factor stay duplicates of the product
        current = normal_form(kronecker_product(previous, base))
        row_counts.append(current.shape()[0])
        for j, past in enumerate(history):
            if past.shape() == current.shape() and (
                past.entries == current.entries or is_submatrix(past, current)
            ):
                return Finite(index=j + 1, period=power - (j + 1))
        history.append(current)
    return Unknown(tuple(row_counts))


def multiplication_matrix(S: FiniteSemigroup, B: Sequence[int], C: Sequence[int]) -> SemigroupMatrix:
    B, C = list(B), list(C)
    if not B or not C:
        raise ValueError("B and C must be nonempty")
    for x in chain(B, C):
        if not (0 <= x < S.size):
            raise ValueError(f"element {x} is not in the semigroup")
    entries = tuple(tuple(S.mult(b, c) for c in C) for b in B)
    return SemigroupMatrix(entries, S)


def _growth_rows(S: FiniteSemigroup, up: tuple, down: tuple):
    """For n = 1, 2, ...: the n rows of the growth witness at power n.

    Row i at columns (b_0, ..., b_{n-1}), in ``product((0, 1), repeat=n)``
    order, is the product up[b_0] ... down[b_i] ... up[b_{n-1}]. With
    ``pre[k]`` and ``suf[k]`` the products of the 2^k words of k up
    letters (first letter the high bit, ``pre[0] = suf[0] = [unit]``), it
    is pre[i][p] * down[b_i] * suf[n-i-1][q] by associativity: O(n 2^n)
    table reads per power."""
    table = S.table
    pre, suf = [[S.unit]], [[S.unit]]
    for n in count(1):
        # table[table[p][x]] is the row of p * down[b_i]
        yield [
            tuple([row[s] for p in pre[i] for x in down for row in (table[table[p][x]],)
                   for s in suf[n - i - 1]])
            for i in range(n)
        ]
        pre.append([table[p][u] for p in pre[-1] for u in up])
        suf.append([table[u][s] for u in up for s in suf[-1]])


def two_by_two_claim(S: FiniteSemigroup, b: int, c: int, d: int, budget: int = 5) -> dict:
    """Checks the finite-order consequence d = bc = cb on [[1,b],[c,d]] and
    the singleton-row growth witness when the equality fails."""
    if S.unit is None:
        raise ValueError("two_by_two_claim needs a monoid")
    one = S.unit
    M = SemigroupMatrix.make([[one, b], [c, d]], S)
    order = finite_order(M, budget)
    bc = S.mult(b, c)
    cb = S.mult(c, b)
    report = {
        "order": order,
        "bc": bc,
        "cb": cb,
        "d": d,
        "claim_holds": None,
        "growth_verified": None,
    }
    if isinstance(order, Finite):
        report["claim_holds"] = (d == bc and d == cb)
    if d != bc or d != cb:
        growth = zip(range(1, budget + 2), _growth_rows(S, *M.entries))
        report["growth_verified"] = all(len(set(rows)) == n for n, rows in growth)
    return report
