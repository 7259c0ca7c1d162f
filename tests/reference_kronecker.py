"""The Kronecker kernels as ``rankmat.kronecker`` had them before they read
the Cayley table directly, kept as the reference that the library is
compared against:

- ``is_submatrix``: a plain row-then-column search over every injection,
  before same-shape matrices were first compared by their row and column
  multisets. It is factorial in the worst case and is only run on small
  matrices.
- ``dedup`` and ``normal_form``: duplicate rows and columns removed in a
  loop to a fixpoint, then rows sorted and columns sorted by a key.
- ``kronecker_product``: one ``S.mult`` call per entry.
- ``growth_rows``: each word of the 2x2 growth witness multiplied out
  letter by letter, O(n^2 2^n) at power n.
- ``two_by_two_claim``: the claim's report from the kernels above."""
from __future__ import annotations

import hashlib
from itertools import product

from rankmat import caps, kronecker
from rankmat.kronecker import Finite, SemigroupMatrix, Unknown
from rankmat.semigroup import FiniteSemigroup


def dedup(entries: list) -> list:
    """Duplicate rows, then duplicate columns, removed in a loop until
    nothing changes."""
    changed = True
    while changed:
        changed = False
        seen = set()
        rows = []
        for row in entries:
            key = tuple(row)
            if key in seen:
                changed = True
                continue
            seen.add(key)
            rows.append(list(row))
        entries = rows
        if entries:
            seen = set()
            keep = []
            for c in range(len(entries[0])):
                key = tuple(row[c] for row in entries)
                if key in seen:
                    changed = True
                    continue
                seen.add(key)
                keep.append(c)
            entries = [[row[c] for c in keep] for row in entries]
    return entries


def normal_form(M: SemigroupMatrix) -> tuple:
    """The normal form's entries and content hash."""
    entries = dedup([list(row) for row in M.entries])
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
    return entries, hashlib.sha256(serial.encode()).hexdigest()


def kronecker_product(M1: SemigroupMatrix, M2: SemigroupMatrix) -> tuple:
    S = M1.semigroup
    return tuple(
        tuple(S.mult(a, b) for a in row1 for b in row2)
        for row1 in M1.entries
        for row2 in M2.entries
    )


def is_submatrix(M: SemigroupMatrix, N: SemigroupMatrix) -> bool:
    """Injections of M's rows and columns into N preserving entries."""
    mr, mc = M.shape()
    nr, nc = N.shape()
    if mr > nr or mc > nc:
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
    nm = SemigroupMatrix(normal_form(M)[0], M.semigroup)
    nn = SemigroupMatrix(normal_form(N)[0], N.semigroup)
    if nm.shape() != nn.shape():
        return False
    return is_submatrix(nm, nn)


def finite_order(M: SemigroupMatrix, budget: int):
    """Normal forms of Kronecker powers until one repeats. Same-shape
    matrices with different hashes go to the library's ``is_submatrix``,
    which is compared with the search above in its own tests and, unlike
    it, is not factorial on matrices whose line multisets differ."""
    S = M.semigroup

    def normal(N):
        entries, digest = normal_form(N)
        return SemigroupMatrix(entries, S), digest

    history = [normal(M)]
    base = history[0][0]
    row_counts = [base.shape()[0]]
    for power in range(2, budget + 1):
        previous = history[-1][0]
        if max(previous.shape()) > caps.get("kronecker_normal_form"):
            return Unknown(tuple(row_counts))
        current, digest = normal(SemigroupMatrix(kronecker_product(previous, base), S))
        row_counts.append(current.shape()[0])
        for j, (past, past_digest) in enumerate(history):
            if past.shape() == current.shape() and (
                past_digest == digest or kronecker.is_submatrix(past, current)
            ):
                return Finite(index=j + 1, period=power - (j + 1))
        history.append((current, digest))
    return Unknown(tuple(row_counts))


def growth_rows(S: FiniteSemigroup, M: SemigroupMatrix, n: int) -> list:
    """Row i at power n: up everywhere except down at position i, each
    word multiplied out letter by letter."""
    rows = []
    for i in range(n):
        row = []
        for col_bits in product((0, 1), repeat=n):
            word = [
                M.entries[1 if pos == i else 0][col_bits[pos]]
                for pos in range(n)
            ]
            row.append(S.product(word))
        rows.append(tuple(row))
    return rows


def two_by_two_claim(S: FiniteSemigroup, b: int, c: int, d: int, budget: int = 5) -> dict:
    M = SemigroupMatrix.make([[S.unit, b], [c, d]], S)
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
        report["growth_verified"] = all(
            len(set(growth_rows(S, M, n))) == n for n in range(1, budget + 2))
    return report
