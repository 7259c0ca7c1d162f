"""``is_submatrix`` and ``equivalent`` as ``rankmat.kronecker`` had them
before ``is_submatrix`` compared the row and column multisets of
same-shape matrices: a plain row-then-column search over every injection.
Kept as the reference that the library is compared against; it is
factorial in the worst case and is only run on small matrices."""
from __future__ import annotations

from rankmat.kronecker import SemigroupMatrix, normal_form


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
    nm = normal_form(M).matrix
    nn = normal_form(N).matrix
    if nm.shape() != nn.shape():
        return False
    return is_submatrix(nm, nn)
