from itertools import product
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankmat.enumerate import (
    associative_tables,
    chain_semilattice,
    curated_size4_semigroups,
    cyclic_group,
    direct_product,
    left_zero,
    nilpotent_monoid,
    rectangular_band,
    right_zero,
    word_monoid_1abab0,
)
from rankmat.semigroup import (
    FiniteSemigroup,
    _closure,
    Overflow,
    counts_non_increasing_after_repeat,
    finitary_generator_check,
    green,
    identity_suite,
    idempotents,
    is_almost_commutative,
    omega,
    OmegaBoundExceeded,
    prefix_suffix_multiset_determines,
    premise_checks,
    syntactic_class_count,
    syntactic_class_counts,
    validate,
)


def test_validate_rejects_non_associative():
    with pytest.raises(ValueError, match="not associative"):
        validate([[0, 1], [0, 0]])


def reference_first_failure(rows) -> Optional[tuple]:
    """The first (a, b, c), in a, b, c order, with (ab)c != a(bc)."""
    n = len(rows)
    for a, b, c in product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return a, b, c
    return None


ASSOCIATIVE = [S.table for S in associative_tables(3)] + [
    S.table for S in curated_size4_semigroups()]


@st.composite
def small_tables(draw):
    """Tables of size 1 to 4: random ones, or an associative one with one
    entry changed, which fails at few triples if at all."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
                for _ in range(n)]
    rows = [list(row) for row in draw(st.sampled_from(ASSOCIATIVE))]
    n = len(rows)
    rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return rows


@settings(max_examples=300, deadline=None)
@given(small_tables())
def test_validate_matches_the_triple_loop(rows):
    failure = reference_first_failure(rows)
    if failure is None:
        assert validate(rows).table == tuple(map(tuple, rows))
        return
    a, b, c = failure
    lhs, rhs = rows[rows[a][b]][c], rows[a][rows[b][c]]
    message = f"not associative at ({a},{b},{c}): ({a}{b}){c} = {lhs} but {a}({b}{c}) = {rhs}"
    with pytest.raises(ValueError) as err:
        validate(rows)
    assert str(err.value) == message


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate([[0, 1]])


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError):
        validate([[0, 2], [2, 0]])


def test_validate_rejects_bad_unit():
    with pytest.raises(ValueError, match="unit"):
        validate([[0, 0], [0, 0]], unit=0)


@pytest.mark.parametrize("unit", [2, 5, -1, -2])
def test_validate_rejects_unit_out_of_range(unit):
    # -2 used to index the table from the end and pass the unit laws of Z/2
    with pytest.raises(ValueError, match=f"^unit {unit} out of range$"):
        validate([[0, 1], [1, 0]], unit=unit)


def test_associative_table_counts():
    counts = [sum(1 for s in associative_tables(k) if s.size == k) for k in (1, 2, 3)]
    assert counts == [1, 8, 113]


def test_associative_tables_capped():
    with pytest.raises(ValueError):
        list(associative_tables(4))


def test_product_and_power():
    z5 = cyclic_group(5)
    assert z5.product([1, 1, 1]) == 3
    assert z5.power(2, 4) == 3
    assert z5.power(2, 1) == 2


def test_omega_examples():
    assert omega(cyclic_group(3)) == 3
    assert omega(left_zero(3)) == 1
    assert omega(word_monoid_1abab0()) == 2
    assert omega(cyclic_group(6)) == 6


def test_omega_raises_typed_error_past_bound():
    # a * b = 1 - a is not associative, and the powers of each element
    # alternate between 0 and 1, so no power is idempotent
    S = FiniteSemigroup(2, ((1, 1), (0, 0)))
    with pytest.raises(OmegaBoundExceeded, match="finite bound"):
        omega(S)
    assert issubclass(OmegaBoundExceeded, ValueError)


def test_idempotents_and_factorial():
    z3 = cyclic_group(3)
    assert idempotents(z3) == frozenset({0})
    assert z3.power(1, omega(z3)) == 0  # a^! = a^omega
    w = word_monoid_1abab0()
    assert idempotents(w) == frozenset({0, 5})
    assert w.power(1, omega(w)) == 5  # a^! = a^2 = 0


def test_green_group_is_one_class():
    g = green(cyclic_group(4))
    assert set(g.r_class) == set(g.l_class) == set(g.j_class) == set(g.h_class) == {0}


def test_green_left_zero():
    g = green(left_zero(3))
    assert len(set(g.r_class)) == 3
    assert len(set(g.l_class)) == 1
    assert len(set(g.j_class)) == 1
    assert len(set(g.h_class)) == 3


def test_green_rectangular_band():
    g = green(rectangular_band(2, 2))
    assert g.r_class == (0, 0, 1, 1)
    assert g.l_class == (0, 1, 0, 1)
    assert len(set(g.j_class)) == 1
    assert len(set(g.h_class)) == 4


def test_green_word_monoid_trivial():
    g = green(word_monoid_1abab0())
    assert len(set(g.h_class)) == 6
    assert len(set(g.j_class)) == 6


def test_green_common_prefix_chain():
    g = green(chain_semilattice(3))
    # prefixes of b are the elements >= b, so any two share the top
    for a in range(3):
        for b in range(3):
            assert g.prefixes[a] & g.prefixes[b]


def test_almost_commutative_examples():
    assert is_almost_commutative(cyclic_group(5)) == (True, None)
    assert is_almost_commutative(left_zero(4))[0]
    assert is_almost_commutative(rectangular_band(2, 3))[0]
    held, witness = is_almost_commutative(word_monoid_1abab0())
    assert not held
    e, x, y, f = witness
    w = word_monoid_1abab0()
    assert w.product((e, x, y, f)) != w.product((e, y, x, f))


def test_syntactic_class_counts():
    assert [syntactic_class_count(cyclic_group(3), k) for k in (1, 2, 3)] == [3, 3, 3]
    assert [syntactic_class_count(left_zero(3), k) for k in (1, 2, 3)] == [3, 3, 3]
    # the noncommuting word monoid keeps growing
    w = word_monoid_1abab0()
    assert [syntactic_class_count(w, k) for k in (1, 2, 3)] == [6, 8, 10]


def test_syntactic_class_count_overflow():
    assert syntactic_class_count(word_monoid_1abab0(), 2, cap=3) == Overflow()


# ---------------------------------------------------------------------------
# layered class counts against the context-walk definition


def _reference_count(S: FiniteSemigroup, k: int, cap: int = 10**6):
    """The syntactic class count by definition: one signature per word of
    S^k over every interleaved context (each slot from S or omitted)."""
    n = S.size
    EPS = n  # sentinel for the omitted context letter

    def extend(p: Optional[int], c: int) -> Optional[int]:
        if c == EPS:
            return p
        return c if p is None else S.mult(p, c)

    signatures: dict = {}
    for word in product(range(n), repeat=k):
        sig = []

        def walk(i: int, prefix: Optional[int]) -> None:
            if i == k:
                for c in range(n + 1):
                    sig.append(extend(prefix, c))
                return
            for c in range(n + 1):
                walk(i + 1, extend(extend(prefix, c), word[i]))

        walk(0, None)
        signatures.setdefault(tuple(sig), 0)
        if len(signatures) > cap:
            return Overflow()
    return len(signatures)


CORPUS = list(associative_tables(3)) + curated_size4_semigroups() + [word_monoid_1abab0()]


@st.composite
def transformation_semigroups(draw):
    """The semigroup generated under composition by one or two random maps
    on {0, 1, 2}, kept when it has at most four elements."""
    maps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=2))
    elems = list(dict.fromkeys(maps))
    for f in elems:  # elems grows while it is walked: closure under f.g
        for g in maps:
            fg = tuple(g[x] for x in f)
            if fg not in elems:
                elems.append(fg)
    assume(len(elems) <= 4)
    index = {f: i for i, f in enumerate(elems)}
    return validate([[index[tuple(g[x] for x in f)] for g in elems] for f in elems])


semigroups = st.one_of(st.sampled_from(CORPUS), transformation_semigroups())


@settings(deadline=None)
@given(semigroups, st.integers(0, 3), st.integers(0, 40))
def test_syntactic_class_count_matches_reference(S, k, cap):
    assert syntactic_class_count(S, k, cap) == _reference_count(S, k, cap)


@settings(deadline=None, max_examples=40)
@given(semigroups, st.integers(0, 40))
def test_syntactic_class_counts_match_per_k(S, cap):
    counts = syntactic_class_counts(S, 3, cap)
    assert counts == [syntactic_class_count(S, k, cap) for k in (1, 2, 3)]


def test_prefix_suffix_multiset_examples():
    assert prefix_suffix_multiset_determines(cyclic_group(4), 0)[0]
    ok, witness = prefix_suffix_multiset_determines(word_monoid_1abab0(), 1, max_len=4)
    assert not ok
    u, v = witness
    w = word_monoid_1abab0()
    assert len(u) == len(v) and u[0] == v[0] and u[-1] == v[-1]
    assert sorted(u) == sorted(v)
    assert w.product(u) != w.product(v)
    # not almost commutative, so undetermined at k = 2 too
    assert not prefix_suffix_multiset_determines(w, 2, max_len=6)[0]


def test_left_zero_determined_by_first_letter():
    assert prefix_suffix_multiset_determines(left_zero(3), 1, max_len=5)[0]


# the least k <= 2 at which each table's products are determined by the
# first and last k letters and the letter multiset (words of length <= 6)
LEAST_DETERMINING_K = [
    ("cyclic_group(3)", cyclic_group(3), 0),
    ("left_zero(3)", left_zero(3), 1),
    ("right_zero(3)", right_zero(3), 1),
    ("rectangular_band(2, 2)", rectangular_band(2, 2), 1),
    ("chain_semilattice(3)", chain_semilattice(3), 0),
    ("nilpotent_monoid", nilpotent_monoid(), 0),
    ("Z2 x left_zero(2)", direct_product(cyclic_group(2), left_zero(2)), 1),
    ("word_monoid_1abab0", word_monoid_1abab0(), None),
]


@pytest.mark.parametrize("S,least", [case[1:] for case in LEAST_DETERMINING_K],
                         ids=[case[0] for case in LEAST_DETERMINING_K])
def test_least_determining_k_matches_almost_commutativity(S, least):
    determined = [prefix_suffix_multiset_determines(S, k, max_len=6)[0] for k in range(3)]
    assert determined == [least is not None and k >= least for k in range(3)]
    assert is_almost_commutative(S)[0] == (least is not None)


def test_commutative_table_is_determined_by_its_multiset():
    z3 = cyclic_group(3)
    assert is_almost_commutative(z3)[0]
    assert prefix_suffix_multiset_determines(z3, 0, max_len=6) == (True, None)
    counts = syntactic_class_counts(z3, 4)
    assert counts == [3, 3, 3, 3]
    assert counts_non_increasing_after_repeat(counts)


def test_left_zero_needs_its_first_letter():
    lz = left_zero(3)
    assert is_almost_commutative(lz)[0]
    assert not prefix_suffix_multiset_determines(lz, 0, max_len=6)[0]
    assert prefix_suffix_multiset_determines(lz, 1, max_len=6)[0]
    assert counts_non_increasing_after_repeat(syntactic_class_counts(lz, 4))


def test_word_monoid_is_undetermined_with_growing_counts():
    w = word_monoid_1abab0()
    assert not is_almost_commutative(w)[0]
    # words of length 2k + 2 fit in the scan for k <= 2
    for k in range(3):
        assert not prefix_suffix_multiset_determines(w, k, max_len=6)[0]
    counts = syntactic_class_counts(w, 4)
    assert counts == [6, 8, 10, 12]
    assert not counts_non_increasing_after_repeat(counts)


def test_determination_at_k2_matches_almost_commutativity_on_size3_tables():
    for s in associative_tables(3):
        ac = is_almost_commutative(s)[0]
        assert prefix_suffix_multiset_determines(s, 2, max_len=6)[0] == ac, s.table
        counts = syntactic_class_counts(s, 3)
        if ac:  # bounded counts never grow strictly
            assert not all(a < b for a, b in zip(counts, counts[1:])), s.table


@settings(deadline=None, max_examples=60)
@given(semigroups, st.integers(0, 2), st.integers(1, 5))
def test_determination_at_k_holds_at_k_plus_1(S, k, max_len):
    assume(S.size ** max_len <= 4096)
    if prefix_suffix_multiset_determines(S, k, max_len)[0]:
        assert prefix_suffix_multiset_determines(S, k + 1, max_len)[0]


@settings(deadline=None, max_examples=60)
@given(semigroups, st.integers(0, 2), st.integers(1, 5))
def test_determination_witness_agrees_on_its_key(S, k, max_len):
    assume(S.size ** max_len <= 4096)
    ok, witness = prefix_suffix_multiset_determines(S, k, max_len)
    if ok:
        assert witness is None
        return
    u, v = witness
    assert u != v and len(u) == len(v) <= max_len
    assert u[:k] == v[:k] and u[len(u) - k:] == v[len(v) - k:]
    assert sorted(u) == sorted(v)
    assert S.product(u) != S.product(v)


def brute_force_determines(S, k, max_len):
    """The determination scan over every word of every length, each
    product computed from scratch."""
    for length in range(1, max_len + 1):
        groups = {}
        for word in product(range(S.size), repeat=length):
            key = (word[:k], word[-k:] if k else (), tuple(sorted(word)))
            first, value = groups.setdefault(key, (word, S.product(word)))
            if value != S.product(word):
                return False, (first, word)
    return True, None


@pytest.mark.parametrize("k", [0, 1, 2])
def test_determination_matches_a_brute_force_scan_on_the_corpus(k):
    # the semigroups suite's corpus, at its word length
    for S in list(associative_tables(3)) + curated_size4_semigroups():
        assert prefix_suffix_multiset_determines(S, k, 6) == \
            brute_force_determines(S, k, 6), S.table


def test_identity_suite_all_hold_on_corpus():
    for s in curated_size4_semigroups():
        assert identity_suite(s).all_hold()
    # the identities also hold on the word monoid even though it is not
    # almost commutative: both idempotents are absorbing or neutral
    assert identity_suite(word_monoid_1abab0()).all_hold()


def test_identity_suite_reports_counterexample():
    # right-zero acts as the mirror; force a failing identity with a
    # handmade non-almost-commutative example if any identity fails
    report = identity_suite(right_zero(3))
    for name, holds, witness in report.results:
        if not holds:
            assert witness is not None


def test_identity_suite_results_name_each_identity_once():
    report = identity_suite(cyclic_group(2))
    assert ("ef_eq_efef", True, None) in report.results
    names = [name for name, _, _ in report.results]
    assert len(names) == len(set(names)) == 7


def test_premise_checks():
    assert premise_checks(cyclic_group(3), [1]) == {
        "surjective": True,
        "generates": True,
        "context_separated": True,
    }
    p = premise_checks(left_zero(3), range(3))
    assert p["surjective"] and p["generates"]
    assert not p["context_separated"]
    assert not premise_checks(cyclic_group(4), [2])["generates"]


def test_counts_non_increasing_after_repeat():
    assert counts_non_increasing_after_repeat([3, 3, 3])
    assert counts_non_increasing_after_repeat([2, 5, 5, 4])
    assert not counts_non_increasing_after_repeat([2, 4, 6])
    assert not counts_non_increasing_after_repeat([3, 3, 4])


def test_finitary_generator_check_group():
    from rankmat.kronecker import Finite

    result = finitary_generator_check(cyclic_group(3), [1])
    assert isinstance(result["order_rows_S"], Finite)
    assert isinstance(result["order_rows_sigma"], Finite)
    assert result["almost_commutative"]
    assert result["generator_swap"]
    assert result["consistent"]


def test_finitary_generator_check_word_monoid():
    from rankmat.kronecker import Unknown

    w = word_monoid_1abab0()
    result = finitary_generator_check(w, [0, 1, 2])
    assert isinstance(result["order_rows_S"], Unknown)
    assert result["order_rows_S"].row_counts == (6, 8, 10, 12, 14, 16)
    assert not result["almost_commutative"]
    assert not result["generator_swap"]
    assert result["consistent"]


def test_finitary_generator_check_rejects_bad_premises():
    with pytest.raises(ValueError, match="premises"):
        finitary_generator_check(cyclic_group(4), [2])


def test_direct_product_group():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert omega(v4) == 2
    assert idempotents(v4) == frozenset({0})


def test_nilpotent_monoid_products():
    s = nilpotent_monoid()
    assert s.product([1, 2]) == 3  # a b = 0
    assert s.product([0, 1]) == 1  # 1 a = a
    assert omega(s) == 2


def reference_products_closure(S, generators):
    """The former ``semigroup._products_closure``: square the set until it
    stops growing."""
    out = set(generators)
    changed = True
    while changed:
        changed = False
        for a in list(out):
            for b in list(out):
                x = S.mult(a, b)
                if x not in out:
                    out.add(x)
                    changed = True
    return out


@st.composite
def tables_and_generators(draw):
    """Any binary operation on at most four elements, associative or not,
    and a set of generators."""
    n = draw(st.integers(1, 4))
    table = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n))
    return FiniteSemigroup(n, table), draw(st.frozensets(st.integers(0, n - 1)))


@settings(deadline=None)
@given(tables_and_generators())
def test_closure_matches_former_products_closure(spec):
    S, generators = spec
    assert _closure(S, generators) == reference_products_closure(S, generators)
