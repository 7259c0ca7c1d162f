import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmat.enumerate import cyclic_group, word_monoid_1abab0
from rankmat.kronecker import (
    Finite,
    SemigroupMatrix,
    Unknown,
    equivalent,
    finite_order,
    is_submatrix,
    kronecker_power,
    kronecker_product,
    multiplication_matrix,
    normal_form,
    two_by_two_claim,
)
from rankmat.kronecker import _dedup, _line_profile

import reference_kronecker

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)


def test_matrix_validation():
    with pytest.raises(ValueError, match="column count"):
        SemigroupMatrix.make([[0, 1], [0]], Z2)
    # ragged rows are refused whichever row is longer, and with no semigroup
    with pytest.raises(ValueError, match="column count"):
        SemigroupMatrix(((0,), (0, 1)), Z2)
    with pytest.raises(ValueError, match="column count"):
        SemigroupMatrix.make([[0], [0, 1], [0]])
    with pytest.raises(ValueError, match="out of range"):
        SemigroupMatrix.make([[0, 2]], Z2)


def test_kronecker_product_shape_and_entries():
    m = SemigroupMatrix.make([[0, 1], [1, 0]], Z2)
    p = kronecker_product(m, m)
    assert p.shape() == (4, 4)
    # entry at ((r1, r2), (c1, c2)) is m[r1][c1] + m[r2][c2] mod 2
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert (
                        p.entries[i1 * 2 + i2][j1 * 2 + j2]
                        == (m.entries[i1][j1] + m.entries[i2][j2]) % 2
                    )


def test_kronecker_product_rejects_mixed_semigroups():
    a = SemigroupMatrix.make([[0]], Z2)
    b = SemigroupMatrix.make([[0]], Z3)
    with pytest.raises(ValueError):
        kronecker_product(a, b)


def test_kronecker_power():
    m = SemigroupMatrix.make([[0, 1], [1, 0]], Z2)
    assert kronecker_power(m, 1) is m
    assert kronecker_power(m, 3).shape() == (8, 8)
    with pytest.raises(ValueError):
        kronecker_power(m, 0)


def test_normal_form_removes_duplicates():
    m = SemigroupMatrix.make([[0, 1, 1], [0, 1, 1], [1, 0, 0]], Z2)
    nf = normal_form(m)
    assert nf.matrix.shape() == (2, 2)
    rows = nf.matrix.entries
    assert len(set(rows)) == len(rows) and len(set(zip(*rows))) == len(rows[0])


def reference_dedup(entries: list) -> list:
    """The former _dedup: duplicate rows, then duplicate columns, removed
    in a loop until nothing changes."""
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


_ENTRY_LISTS = st.integers(0, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(0, 2), min_size=c, max_size=c), max_size=6))


@settings(max_examples=500)
@given(_ENTRY_LISTS)
@example([])
@example([[], [], []])
@example([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
def test_one_pass_dedup_matches_the_fixpoint_loop(entries):
    assert _dedup(entries) == reference_dedup(entries)


def test_normal_form_is_idempotent_and_permutation_invariant():
    m = SemigroupMatrix.make([[0, 1], [1, 1]], Z2)
    nf = normal_form(m)
    assert normal_form(nf.matrix).content_hash == nf.content_hash
    swapped = SemigroupMatrix.make([[1, 1], [1, 0]], Z2)
    assert normal_form(swapped).content_hash == nf.content_hash


def test_is_submatrix():
    big = SemigroupMatrix.make([[0, 1, 0], [1, 0, 1], [0, 0, 0]], Z2)
    small = SemigroupMatrix.make([[0, 1], [1, 0]], Z2)
    assert is_submatrix(small, big)
    missing = SemigroupMatrix.make([[1, 1], [1, 1]], Z2)
    assert not is_submatrix(missing, big)
    assert not is_submatrix(big, small)


def test_equivalent():
    m = SemigroupMatrix.make([[0, 1], [1, 0]], Z2)
    dup = SemigroupMatrix.make([[1, 0], [0, 1], [0, 1]], Z2)
    assert equivalent(m, dup)
    assert not equivalent(m, SemigroupMatrix.make([[0, 0], [0, 0]], Z2))


@st.composite
def _matrix_pairs(draw):
    """(M, N) over Z3 with at most 3 values and shape up to 5x5: N is a
    random matrix of M's shape, a row- and column-permuted copy of M, or
    such a copy with one entry changed."""
    rows, cols, values = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    cell = st.integers(0, values - 1)
    shaped = st.lists(st.lists(cell, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)
    M = draw(shaped)
    kind = draw(st.sampled_from(["random", "permuted", "changed"]))
    if kind == "random":
        N = draw(shaped)
    else:
        row_order = draw(st.permutations(range(rows)))
        col_order = draw(st.permutations(range(cols)))
        N = [[M[r][c] for c in col_order] for r in row_order]
        if kind == "changed":
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            N[i][j] = draw(st.integers(0, 2).filter(lambda x: x != N[i][j]))
    return SemigroupMatrix.make(M, Z3), SemigroupMatrix.make(N, Z3)


def test_is_submatrix_and_equivalent_match_the_reference_search():
    outcomes = set()

    @settings(max_examples=400, deadline=None)
    @given(_matrix_pairs())
    def check(pair):
        M, N = pair
        # the same shape, and M less its last row and column inside N
        minor = SemigroupMatrix.make([row[:-1] for row in M.entries[:-1]], Z3)
        for name, ours, reference, args in [
            ("submatrix", is_submatrix, reference_kronecker.is_submatrix, (M, N)),
            ("minor", is_submatrix, reference_kronecker.is_submatrix, (minor, N)),
            ("equivalent", equivalent, reference_kronecker.equivalent, (M, N)),
        ]:
            answer = ours(*args)
            assert answer == reference(*args)
            outcomes.add((name, answer))

    check()
    assert outcomes == {(name, answer) for name in ("submatrix", "minor", "equivalent")
                        for answer in (True, False)}


def test_is_submatrix_searches_when_the_line_multisets_agree():
    # two 4-cycles against one 8-cycle, as biadjacency matrices: every row
    # and column holds two 1s, so only the search tells them apart.
    # normal_form would merge the duplicate rows, so is_submatrix is called
    # directly
    two_squares = SemigroupMatrix.make(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], Z2)
    octagon = SemigroupMatrix.make(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], Z2)
    assert _line_profile(two_squares.entries) == _line_profile(octagon.entries)
    assert not reference_kronecker.is_submatrix(two_squares, octagon)
    assert not is_submatrix(two_squares, octagon)
    assert not is_submatrix(octagon, two_squares)
    assert is_submatrix(octagon, octagon)


def test_finite_order_swap_matrix():
    m = SemigroupMatrix.make([[0, 1], [1, 0]], Z2)
    assert finite_order(m, 6) == Finite(index=1, period=1)


def test_finite_order_constant_matrix():
    m = SemigroupMatrix.make([[0]], Z2)
    assert finite_order(m, 4) == Finite(index=1, period=1)


def test_finite_order_word_monoid_unknown():
    w = word_monoid_1abab0()
    m = SemigroupMatrix.make([[0, 1], [2, 5]], w)  # [[1, a], [b, 0]]
    result = finite_order(m, 3)
    assert isinstance(result, Unknown)
    assert result.row_counts == (2, 4, 5)


def test_finite_order_budget_validation():
    m = SemigroupMatrix.make([[0]], Z2)
    with pytest.raises(ValueError):
        finite_order(m, 0)


def test_multiplication_matrix():
    m = multiplication_matrix(Z3, [0, 1], [0, 1, 2])
    assert m.entries == ((0, 1, 2), (1, 2, 0))
    with pytest.raises(ValueError):
        multiplication_matrix(Z3, [], [0])


def test_two_by_two_claim_finite_case():
    # [[0, 1], [1, 0]] over the 2-element group: d = bc = cb = 0
    report = two_by_two_claim(Z2, 1, 1, 0, budget=5)
    assert isinstance(report["order"], Finite)
    assert report["claim_holds"] is True
    assert report["growth_verified"] is None


def test_two_by_two_claim_growth_case():
    w = word_monoid_1abab0()
    report = two_by_two_claim(w, 1, 2, 5, budget=4)  # b=a, c=b, d=0
    assert isinstance(report["order"], Unknown)
    assert report["order"].row_counts == (2, 4, 5, 6)
    assert report["bc"] == 3 and report["cb"] == 4
    assert report["claim_holds"] is None
    assert report["growth_verified"] is True


def test_two_by_two_claim_one_sided_mismatch():
    # d = bc = ab but d != cb = ba: growth still verified
    w = word_monoid_1abab0()
    report = two_by_two_claim(w, 1, 2, 3, budget=4)
    assert report["growth_verified"] is True


def test_two_by_two_claim_needs_monoid():
    from rankmat.enumerate import left_zero

    with pytest.raises(ValueError):
        two_by_two_claim(left_zero(2), 0, 1, 0)
