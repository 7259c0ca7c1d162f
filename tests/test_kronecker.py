from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmat.enumerate import cyclic_group, left_zero, rectangular_band, word_monoid_1abab0
from rankmat.semigroup import validate
from rankmat.suites import _semigroup_corpus
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
from rankmat.kronecker import _dedup, _growth_rows, _line_profile

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


@pytest.mark.parametrize("entries, semigroup, message", [
    # rows are checked in order, each for its width and then its entries
    ([[0, 9], [0]], Z2, "^entry 9 out of range$"),
    ([[0], [0, 9]], Z2, "^column count mismatch$"),
    ([[1, 0], [0, 5, -1]], Z2, "^column count mismatch$"),
    # the first bad entry of the first bad row is named
    ([[1, 0], [5, -1]], Z2, "^entry 5 out of range$"),
    ([[1, 0], [0, -1], [7, 0]], Z2, "^entry -1 out of range$"),
    ([[], [0]], Z2, "^column count mismatch$"),
])
def test_matrix_errors_come_in_row_order(entries, semigroup, message):
    with pytest.raises(ValueError, match=message):
        SemigroupMatrix.make(entries, semigroup)


def test_matrix_entries_are_free_without_a_semigroup():
    assert SemigroupMatrix.make([[9, -1], [0, 4]]).shape() == (2, 2)
    assert SemigroupMatrix.make([[], []], Z2).shape() == (2, 0)


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


_ENTRY_LISTS = st.integers(0, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(0, 2), min_size=c, max_size=c), max_size=6))


@settings(max_examples=500)
@given(_ENTRY_LISTS)
@example([])
@example([[], [], []])
@example([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
def test_one_pass_dedup_matches_the_fixpoint_loop(entries):
    assert list(map(list, _dedup(entries))) == reference_kronecker.dedup(entries)


def _entry_lists(side: int, values: int):
    """Row lists of any shape up to side x side over at most ``values``
    values, zero rows and zero columns included."""
    return st.tuples(st.integers(0, side), st.integers(1, values)).flatmap(
        lambda cv: st.lists(st.lists(st.integers(0, cv[1] - 1),
                                     min_size=cv[0], max_size=cv[0]), max_size=side))


Z4 = cyclic_group(4)


@settings(max_examples=500)
@given(_entry_lists(7, 4))
@example([])
@example([[], [], []])
@example([[3, 0, 2, 0]])
@example([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
@example([[2, 1, 2, 1], [0, 3, 0, 3], [2, 1, 2, 1]])
def test_normal_form_matches_the_reference_loop(entries):
    nf = normal_form(SemigroupMatrix.make(entries, Z4))
    assert (nf.matrix.entries, nf.content_hash) == reference_kronecker.normal_form(
        SemigroupMatrix.make(entries, Z4))
    assert nf.matrix.semigroup is Z4


# three non-commutative tables, on which a product with its factors'
# roles swapped fails, and a group
_PRODUCT_SEMIGROUPS = [left_zero(3), rectangular_band(2, 2), word_monoid_1abab0(), Z3]


@settings(max_examples=300)
@given(st.sampled_from(_PRODUCT_SEMIGROUPS).flatmap(
    lambda S: st.tuples(st.just(S), _entry_lists(4, S.size), _entry_lists(4, S.size))))
def test_kronecker_product_matches_the_reference(case):
    S, first, second = case
    M1, M2 = SemigroupMatrix.make(first, S), SemigroupMatrix.make(second, S)
    P = kronecker_product(M1, M2)
    assert P.entries == reference_kronecker.kronecker_product(M1, M2)
    assert P.semigroup is S


def _corpus_monoids():
    """Every monoid of the two-by-two suite's corpus, with its unit."""
    for _, S in _semigroup_corpus():
        unit = next((e for e in S.elements()
                     if all(S.mult(e, a) == a == S.mult(a, e) for a in S.elements())), None)
        if unit is not None:
            yield validate([list(r) for r in S.table], unit=unit)


CORPUS_MONOIDS = list(_corpus_monoids())


def test_growth_rows_match_the_word_by_word_reference():
    instances = 0
    for S in CORPUS_MONOIDS:
        for b, c, d in product(S.elements(), repeat=3):
            M = SemigroupMatrix.make([[S.unit, b], [c, d]], S)
            rows = list(islice(_growth_rows(S, *M.entries), 6))
            assert rows == [reference_kronecker.growth_rows(S, M, n) for n in range(1, 7)]
            instances += 1
    assert instances == 1180  # the two-by-two suite's instance count


@pytest.mark.parametrize("budget", [1, 5])
def test_two_by_two_claim_matches_the_reference(budget):
    growth = set()
    for S in CORPUS_MONOIDS:
        for b, c, d in product(S.elements(), repeat=3):
            report = two_by_two_claim(S, b, c, d, budget=budget)
            assert report == reference_kronecker.two_by_two_claim(S, b, c, d, budget=budget)
            growth.add(report["growth_verified"])
    # on this corpus every mismatch has its witness
    assert growth == {None, True}


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


@pytest.mark.parametrize("B, C, bad", [
    ([-1], [0], -1),  # an index that would read the table's last row
    ([5], [0], 5),
    ([0], [1, 2], 2),
    ([0, 3], [-4], 3),  # B's members come first
])
def test_multiplication_matrix_rejects_elements_outside_the_semigroup(B, C, bad):
    with pytest.raises(ValueError, match=f"^element {bad} is not in the semigroup$"):
        multiplication_matrix(Z2, B, C)


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
