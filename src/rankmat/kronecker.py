"""Matrices over finite semigroups, Kronecker products, normal forms,
finite-order detection and the 2x2 claim."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from . import caps
from .semigroup import FiniteSemigroup

__all__ = [
    "SemigroupMatrix",
    "NormalForm",
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
    semigroup: Optional[FiniteSemigroup] = None

    def __post_init__(self):
        for row in self.entries:
            if len(row) != len(self.entries[0]):
                raise ValueError("column count mismatch")
            if self.semigroup is not None:
                for x in row:
                    if not (0 <= x < self.semigroup.size):
                        raise ValueError(f"entry {x} out of range")

    @staticmethod
    def make(entries: Sequence[Sequence[int]],
             semigroup: Optional[FiniteSemigroup] = None) -> "SemigroupMatrix":
        return SemigroupMatrix(tuple(tuple(row) for row in entries), semigroup)

    def shape(self):
        return len(self.entries), len(self.entries[0]) if self.entries else 0


def _same_domain(M: SemigroupMatrix, N: SemigroupMatrix) -> None:
    if M.semigroup != N.semigroup:
        raise ValueError("matrices over different semigroups are not comparable")


def kronecker_product(M1: SemigroupMatrix, M2: SemigroupMatrix) -> SemigroupMatrix:
    _same_domain(M1, M2)
    S = M1.semigroup
    if S is None:
        raise ValueError("Kronecker product needs a semigroup")
    entries = tuple(
        tuple(S.mult(a, b) for a in row1 for b in row2)
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


@dataclass(frozen=True)
class NormalForm:
    matrix: SemigroupMatrix
    content_hash: str


def _dedup(entries: list) -> list:
    """Keep the first occurrence of each row, then of each column.

    One pass of each is the fixpoint: two rows that differ still differ
    once a duplicate column is dropped, and the same holds for columns."""
    rows = list(dict.fromkeys(map(tuple, entries)))
    first = {}
    for c, column in enumerate(zip(*rows)):
        first.setdefault(column, c)
    return [[row[c] for c in first.values()] for row in rows]


def normal_form(M: SemigroupMatrix) -> NormalForm:
    entries = _dedup([list(row) for row in M.entries])
    # sort rows by content, then columns, to a fixpoint.  The order is not
    # canonical: equal hashes imply equivalence, but two equivalent
    # matrices can sort to different layouts and so hash differently
    changed = True
    while changed and entries:
        before = [tuple(row) for row in entries]
        entries = sorted(entries)
        cols = sorted(
            range(len(entries[0])), key=lambda c: tuple(row[c] for row in entries)
        )
        entries = [[row[c] for c in cols] for row in entries]
        changed = [tuple(row) for row in entries] != before
    entries = tuple(tuple(row) for row in entries)
    serial = ";".join(",".join(str(x) for x in row) for row in entries)
    digest = hashlib.sha256(serial.encode()).hexdigest()
    matrix = SemigroupMatrix.make(entries, M.semigroup)
    return NormalForm(matrix, digest)


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
    nm = normal_form(M).matrix
    nn = normal_form(N).matrix
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
    row_counts = [base.matrix.shape()[0]]
    for power in range(2, budget + 1):
        previous = history[-1]
        nr, nc = previous.matrix.shape()
        if max(nr, nc) > cap:
            return Unknown(tuple(row_counts))
        # dedup before multiplying keeps the powers small; duplicate rows
        # and columns of a factor stay duplicates of the product
        current = normal_form(kronecker_product(previous.matrix, base.matrix))
        row_counts.append(current.matrix.shape()[0])
        for j, past in enumerate(history):
            if past.matrix.shape() == current.matrix.shape() and (
                past.content_hash == current.content_hash
                or is_submatrix(past.matrix, current.matrix)
            ):
                return Finite(index=j + 1, period=power - (j + 1))
        history.append(current)
    return Unknown(tuple(row_counts))


def multiplication_matrix(S: FiniteSemigroup, B: Sequence[int], C: Sequence[int]) -> SemigroupMatrix:
    B, C = list(B), list(C)
    if not B or not C:
        raise ValueError("B and C must be nonempty")
    entries = tuple(tuple(S.mult(b, c) for c in C) for b in B)
    return SemigroupMatrix(entries, S)


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
        ok = True
        for n in range(1, budget + 2):
            rows = []
            for i in range(n):
                # row: up everywhere except down at position i
                row = []
                for col_bits in product((0, 1), repeat=n):
                    word = [
                        M.entries[1 if pos == i else 0][col_bits[pos]]
                        for pos in range(n)
                    ]
                    row.append(S.product(word))
                rows.append(tuple(row))
            if len(set(rows)) < n:
                ok = False
                break
        report["growth_verified"] = ok
    return report
