import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmat import rank
from rankmat.caps import CapExceeded
from rankmat.enumerate import binary_structure
from rankmat.rank import (
    Graph,
    distinct_row_rank,
    gf2_rank,
    graph_cut_rank,
    matrix_ranks,
    monadic_matrix_distinct_rows,
    monadic_type_matrix,
    reference_rank,
    smallest_prime_at_least,
    type_matrix,
)
from rankmat.structures import MonadicStructure, Structure, Vocabulary
from rankmat.trees import all_tree_shapes, ternary_encode, validate_tree

from reference_types import (
    element_d_type,
    monadic_d_type,
    qf_type,
    reference_pair_types,
    singleton_lifting,
    sort_key,
)

EDGE = Vocabulary((("E", 2),))


def path_structure(n):
    edges = set()
    for i in range(n - 1):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    return Structure.make(EDGE, n, {"E": edges})


def path_graph(n):
    return Graph.make(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return Graph.make(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows, cols):
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


def test_smallest_prime():
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(3) == 3
    assert smallest_prime_at_least(4) == 5
    assert smallest_prime_at_least(14) == 17


def test_type_matrix_shape_p3():
    s = path_structure(3)
    M = type_matrix(s, {0}, 2)
    assert len(M.rows) == 1
    assert len(M.cols) == 4


def test_type_matrix_empty_X():
    s = path_structure(3)
    M = type_matrix(s, set(), 2)
    assert len(M.rows) == 0
    assert matrix_ranks(M)[0] == 0


def test_type_matrix_full_X_convention():
    s = path_structure(3)
    M = type_matrix(s, {0, 1, 2}, 2)
    assert len(M.cols) == 0
    distinct_rows, distinct_cols, field_rank = matrix_ranks(M)
    assert distinct_rows == 1
    assert distinct_cols == 0
    assert field_rank == 0


def test_distinct_rows_rule():
    # 0 with no rows, 1 with no columns, else the distinct rows; the rows
    # are read only in the last case
    def unread():
        raise AssertionError("rows were read")
        yield

    assert rank._distinct_rows(unread(), 0, 3) == 0
    assert rank._distinct_rows(unread(), 0, 0) == 0
    assert rank._distinct_rows(unread(), 2, 0) == 1
    assert rank._distinct_rows([(0, 1), (0, 1), (1, 0)], 3, 2) == 2
    # matrix_ranks counts columns by the same rule, transposed
    assert matrix_ranks(type_matrix(path_structure(3), set(), 1))[:2] == (0, 1)


def test_type_matrix_cap():
    import os

    old = os.environ.get("RANKMAT_CAPS")
    os.environ["RANKMAT_CAPS"] = "matrix_cells=3"
    try:
        with pytest.raises(CapExceeded):
            type_matrix(path_structure(4), {0, 1}, 1)
    finally:
        if old is None:
            del os.environ["RANKMAT_CAPS"]
        else:
            os.environ["RANKMAT_CAPS"] = old


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2
    assert gf2_rank([0b1, 0b10, 0b100]) == 3


def test_graph_cut_rank_paths():
    g = path_graph(12)
    for a in range(12):
        for b in range(a, 12):
            X = set(range(a, b + 1))
            assert graph_cut_rank(g, X) <= 2


def test_graph_cut_rank_clique_and_edgeless():
    g = clique(5)
    empty = Graph.make(5, [])
    for bits in range(1 << 5):
        X = {i for i in range(5) if bits >> i & 1}
        assert graph_cut_rank(g, X) <= 1
        assert graph_cut_rank(empty, X) == 0


def test_graph_cut_rank_complement_symmetry():
    g = grid_graph(2, 3)
    for bits in range(1 << 6):
        X = {i for i in range(6) if bits >> i & 1}
        comp = set(range(6)) - X
        assert graph_cut_rank(g, X) == graph_cut_rank(g, comp)


def reference_graph_cut_rank(g, X):
    """graph_cut_rank as it was before rows came from neighbour masks: one
    edge-set lookup per (u, v) cell, with the vertices outside X numbered
    0, 1, ... as columns."""
    X = frozenset(X)
    outside = sorted(set(range(g.n)) - X)
    rows = []
    for u in sorted(X):
        row = 0
        for j, v in enumerate(outside):
            if frozenset((u, v)) in g.edges:
                row |= 1 << j
        rows.append(row)
    return gf2_rank(rows)


@st.composite
def _graphs_and_subsets(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    X = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Graph.make(n, edges), X


@settings(max_examples=400)
@given(_graphs_and_subsets())
def test_graph_cut_rank_matches_the_cell_by_cell_reference(case):
    g, X = case
    assert graph_cut_rank(g, X) == reference_graph_cut_rank(g, X)


@pytest.mark.parametrize("X, bad", [({0, 99}, 99), ({-1, 0, 5}, -1), ({3}, 3)])
def test_graph_cut_rank_rejects_members_outside_the_graph(X, bad):
    with pytest.raises(ValueError, match=f"coordinate {bad} out of range"):
        graph_cut_rank(path_graph(3), X)


def test_neighbour_masks_stay_out_of_equality_and_hash():
    g = path_graph(3)
    assert g.neighbour_masks == (0b010, 0b101, 0b010)
    assert g == path_graph(3) and hash(g) == hash(path_graph(3))
    assert "neighbour_masks" not in repr(g)


def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        Graph.make(2, [(0, 0)])


def test_rank_variant_sandwich_exhaustive_n3():
    for s in (binary_structure(3, bits) for bits in range(1 << 9)):
        for bits in range(1 << 3):
            X = {i for i in range(3) if bits >> i & 1}
            M = type_matrix(s, X, 1)
            rows, cols, fr = matrix_ranks(M)
            p = smallest_prime_at_least(max(len(M.values), 1))
            assert fr <= rows <= p**fr or (rows == 1 and fr == 0)
            # transposition duality
            Mc = type_matrix(s, set(range(3)) - X, 1)
            rows_c, cols_c, _ = matrix_ranks(Mc)
            assert rows == cols_c
            assert cols == rows_c


def test_transposition_duality_is_exact_transpose():
    # the complement matrix carries the same equality pattern as the
    # transpose: cells agree in one iff the mirrored cells agree in the other
    s = path_structure(4)
    M = type_matrix(s, {0, 1}, 1)
    Mc = type_matrix(s, {2, 3}, 1)
    assert M.rows == Mc.cols and M.cols == Mc.rows
    cells = [(r, c) for r in range(len(M.rows)) for c in range(len(M.cols))]
    for (r1, c1), (r2, c2) in itertools.combinations(cells, 2):
        same_in_M = M.table[r1][c1] == M.table[r2][c2]
        same_in_Mc = Mc.table[c1][r1] == Mc.table[c2][r2]
        assert same_in_M == same_in_Mc


def test_monadic_d_type_depth0_atoms():
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    t0 = monadic_d_type(ms, (0b01,), 0)
    assert t0[0] == "atoms"
    assert ("rel", "U", (0,)) in t0[1]
    t1 = monadic_d_type(ms, (0b10,), 0)
    assert ("rel", "U", (0,)) not in t1[1]


def test_monadic_d_type_equal_inputs():
    ms = MonadicStructure(3, (("U", 1, frozenset({(0b011,)})),))
    for d in range(3):
        assert monadic_d_type(ms, (0b011, 0b100), d) == monadic_d_type(
            ms, (0b011, 0b100), d
        )


def test_monadic_d_type_depth_monotone():
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    subsets = [(a,) for a in range(4)]
    for sa, sb in itertools.combinations(subsets, 2):
        if monadic_d_type(ms, sa, 2) == monadic_d_type(ms, sb, 2):
            assert monadic_d_type(ms, sa, 1) == monadic_d_type(ms, sb, 1)


def test_monadic_type_matrix_shape():
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    M = monadic_type_matrix(ms, {0}, 0, 1)
    assert len(M.rows) == 2
    assert len(M.cols) == 2


def test_monadic_type_matrix_empty_X():
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    M = monadic_type_matrix(ms, set(), 0, 1)
    assert len(M.rows) == 1


@pytest.mark.parametrize("d", [0, 1, 2])
def test_monadic_type_matrix_of_width_0_is_the_empty_tuple(d):
    # the one cell is the empty tuple, which has no head to read it from
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    M = monadic_type_matrix(ms, {0}, d, 0)
    assert (M.rows, M.cols, M.table) == (((),), ((),), ((0,),))
    assert M.values == (rank._typer_for(ms, ()).type_id((), d),)
    assert monadic_matrix_distinct_rows(M) == 1


@pytest.mark.parametrize("X, bad", [({0, 5}, 5), ({-1, 0, 2}, -1), ({2}, 2)])
def test_monadic_type_matrix_rejects_members_outside_the_universe(monkeypatch, X, bad):
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    rank._last_typer = None
    # the check comes before the cap check and before any typing
    monkeypatch.setenv("RANKMAT_CAPS", "monadic_matrix_mn=0")
    with pytest.raises(ValueError, match=f"coordinate {bad} out of range"):
        monadic_type_matrix(ms, X, 1, 1)
    assert rank._last_typer is None


def test_monadic_type_matrix_rejects_negative_m(monkeypatch):
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    rank._last_typer = None
    monkeypatch.setenv("RANKMAT_CAPS", "monadic_matrix_mn=0")
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        monadic_type_matrix(ms, {0}, 1, -1)
    assert rank._last_typer is None


@pytest.mark.parametrize("residues", [(0,), (-2,), (2, 0), iter([3, -1])])
def test_monadic_type_matrix_rejects_moduli_below_1(monkeypatch, residues):
    # a modulus of 0 would divide by zero in the typer, and a negative one
    # would give negative residues
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    rank._last_typer = None
    monkeypatch.setenv("RANKMAT_CAPS", "monadic_matrix_mn=0")
    with pytest.raises(ValueError, match="^residue moduli must be >= 1$"):
        monadic_type_matrix(ms, {0}, 1, 1, residues)
    assert rank._last_typer is None


def test_monadic_type_matrix_takes_residues_from_an_iterator():
    ms = MonadicStructure(2, (("U", 1, frozenset({(0b01,)})),))
    assert (monadic_type_matrix(ms, {0}, 1, 1, iter([1, 2]))
            == monadic_type_matrix(ms, {0}, 1, 1, (1, 2)))


def test_ef_exponential_bound_small():
    # distinct_rows(M_{d+1,1}) <= 2^(distinct_rows(M_{d,2}))
    for n in (2, 3):
        for bits in range(1 << n):
            ms = MonadicStructure(n, (("U", 1, frozenset({(bits,)})),))
            for X_bits in range(1 << n):
                X = {i for i in range(n) if X_bits >> i & 1}
                for d in (0,):
                    hi = monadic_matrix_distinct_rows(
                        monadic_type_matrix(ms, X, d + 1, 1)
                    )
                    lo = monadic_matrix_distinct_rows(
                        monadic_type_matrix(ms, X, d, 2)
                    )
                    assert hi <= 2**lo


def test_element_d_type_matches_lifting():
    s = path_structure(3)
    ms = singleton_lifting(s)
    for d in range(2):
        for a, b in itertools.combinations(range(3), 2):
            elem = element_d_type(s, (a,), d) == element_d_type(s, (b,), d)
            lift = monadic_d_type(ms, (1 << a,), d) == monadic_d_type(ms, (1 << b,), d)
            assert elem == lift


def reference_element_d_type(s, elements, d, subsets=()):
    """The former body of ``rank.element_d_type``, which built its own atoms
    over singleton and subset coordinates."""
    elements = tuple(elements)
    coords = [frozenset((a,)) for a in elements] + [
        frozenset(i for i in range(s.universe_size) if z >> i & 1) for z in subsets
    ]
    if d == 0:
        k = len(coords)
        facts = set()
        for name, arity in s.vocabulary.relations:
            rel = s.relation(name)
            for idx in itertools.product(range(k), repeat=arity):
                picked = [coords[i] for i in idx]
                if all(len(c) == 1 for c in picked):
                    t = tuple(next(iter(c)) for c in picked)
                    if t in rel:
                        facts.add(("rel", name, idx))
        for i in range(k):
            for j in range(k):
                if coords[i] <= coords[j]:
                    facts.add(("subseteq", i, j))
                if coords[i] == coords[j]:
                    facts.add(("eq", i, j))
        return ("atoms", frozenset(facts))
    below = reference_element_d_type(s, elements, d - 1, subsets)
    reachable = frozenset(
        reference_element_d_type(s, elements, d - 1, subsets + (z,))
        for z in range(1 << s.universe_size)
    )
    return ("step", below, reachable)


@st.composite
def small_structures(draw):
    """Binary, or ternary and unary, structures on 1 to 3 elements."""
    n = draw(st.integers(1, 3))
    vocab = draw(st.sampled_from([EDGE, Vocabulary((("T", 3), ("U", 1)))]))
    element = st.integers(0, n - 1)
    return Structure.make(vocab, n, {
        name: draw(st.sets(st.tuples(*[element] * arity), max_size=6))
        for name, arity in vocab.relations
    })


@given(small_structures(), st.data())
@settings(max_examples=80, deadline=None)
def test_element_d_type_is_the_lifted_monadic_type(s, data):
    n = s.universe_size
    elements = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
    subsets = tuple(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1)))
    d = data.draw(st.integers(0, 1))
    got = element_d_type(s, elements, d, subsets)
    assert got == reference_element_d_type(s, elements, d, subsets)


def test_reference_rank_grid():
    g = grid_graph(3, 3)
    assert reference_rank("grid", g, {0, 1}) == 2
    assert reference_rank("grid", g, set(range(9))) == 0


@pytest.mark.parametrize("kind", ["linear_order", "equivalence", "preorder_blocks",
                                  "no_such_kind"])
def test_reference_rank_unknown_kind(kind):
    # grid is the only kind; the first three were kinds of earlier versions
    with pytest.raises(ValueError, match=f"^unknown reference kind '{kind}'$"):
        reference_rank(kind, grid_graph(2, 2), {0})


def test_grid_sandwich_3x3():
    import math

    g = grid_graph(3, 3)
    for bits in range(1 << 9):
        X = {i for i in range(9) if bits >> i & 1}
        if not 0 < len(X) <= 4:
            continue
        r = graph_cut_rank(g, X)
        assert math.ceil(math.sqrt(len(X))) - 1 <= r <= len(X)


def test_union_rank_is_bounded_by_the_component_ranks_small():
    # for each value of max(rank X, rank Y) at m = 1, the largest rank of
    # X u Y over every 3-element binary structure and X, Y among the
    # subsets of {0, 1}
    table = {}
    for s in (binary_structure(3, bits) for bits in range(1 << 9)):
        subsets = [frozenset({i for i in range(3) if b >> i & 1}) for b in range(4)]
        for X in subsets:
            for Y in subsets:
                bound = max(distinct_row_rank(s, X, 1), distinct_row_rank(s, Y, 1))
                union = distinct_row_rank(s, X | Y, 1)
                table[bound] = max(table.get(bound, 0), union)
    assert table == {0: 0, 1: 2, 2: 2}


# ---------------------------------------------------------------------------
# interned monadic types against the nested reference definition


@st.composite
def monadic_structures(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    mask = st.integers(0, (1 << n) - 1)
    unary = draw(st.frozensets(st.tuples(mask), max_size=4))
    binary = draw(st.frozensets(st.tuples(mask, mask), max_size=6))
    # half the triples repeat their first coordinate, so that atoms fixing
    # one head coordinate twice can hold
    triple = st.builds(lambda a, b, c, repeat: (a, a if repeat else b, c),
                       mask, mask, mask, st.booleans())
    ternary = draw(st.frozensets(triple, max_size=6))
    # the binary and ternary atoms of a depth-1 type are the ones that split
    # between the columns fixed by a head and those moving with its last
    # coordinate
    return MonadicStructure(n, (("U", 1, unary), ("R", 2, binary), ("T", 3, ternary)))


residue_choices = st.sampled_from([(), (2,)])
small_ef = settings(deadline=None)


def nested_rows(ms, X, d, m, residues):
    """Distinct rows of the depth-d, width-m monadic type matrix of X,
    built from nested types."""
    xmask = sum(1 << i for i in X)
    inside = [z for z in ms.subsets() if z & ~xmask == 0]
    outside = [z for z in ms.subsets() if z & xmask == 0]
    return len({
        tuple(
            monadic_d_type(ms, [a | b for a, b in zip(r, c)], d, residues)
            for c in itertools.product(outside, repeat=m)
        )
        for r in itertools.product(inside, repeat=m)
    })


@small_ef
@given(monadic_structures(), residue_choices, st.integers(0, 2))
def test_interned_ids_match_nested_types(ms, residues, d):
    # tuples of lengths 0..2, 0..3 at depth 1 and, where nesting is slow,
    # 0..1 at depth 2 unless n <= 2
    typer = rank._MonadicTyper(ms, residues)
    lengths = range({0: 3, 1: 4, 2: 3 if ms.universe_size <= 2 else 2}[d])
    pairs = {
        (typer.type_id(t, d), monadic_d_type(ms, t, d, residues))
        for k in lengths for t in itertools.product(ms.subsets(), repeat=k)
    }
    assert len({i for i, _ in pairs}) == len(pairs) == len({ty for _, ty in pairs})


@small_ef
@given(monadic_structures(max_n=2), residue_choices, st.data())
def test_depth_3_ids_match_nested_types(ms, residues, data):
    typer = rank._MonadicTyper(ms, residues)
    pairs = {
        (typer.type_id(t, 3), monadic_d_type(ms, t, 3, residues))
        for k in range(2) for t in itertools.product(ms.subsets(), repeat=k)
    }
    assert len({i for i, _ in pairs}) == len(pairs) == len({ty for _, ty in pairs})
    X = data.draw(st.frozensets(st.integers(0, ms.universe_size - 1)))
    M = monadic_type_matrix(ms, X, 3, 1, residues)
    assert monadic_matrix_distinct_rows(M) == nested_rows(ms, X, 3, 1, residues)


@small_ef
@given(monadic_structures(), residue_choices)
def test_interned_ids_name_one_depth(ms, residues):
    typer = rank._MonadicTyper(ms, residues)
    tuples = [t for k in range(2) for t in itertools.product(ms.subsets(), repeat=k)]
    ids = [{typer.type_id(t, d) for t in tuples} for d in range(3)]
    assert not ids[0] & ids[1] and not ids[0] & ids[2] and not ids[1] & ids[2]


@small_ef
@given(monadic_structures(), residue_choices, st.data())
def test_monadic_distinct_rows_match_nested(ms, residues, data):
    d = data.draw(st.integers(0, 2))
    m = data.draw(st.integers(1, 2 if d < 2 else 1))
    X = data.draw(st.frozensets(st.integers(0, ms.universe_size - 1)))
    M = monadic_type_matrix(ms, X, d, m, residues)
    assert monadic_matrix_distinct_rows(M) == nested_rows(ms, X, d, m, residues)
    assert sorted({v for row in M.table for v in row}) == list(range(len(M.values)))
    assert len(set(M.values)) == len(M.values)


@small_ef
@given(monadic_structures(), monadic_structures(), residue_choices, st.integers(0, 2))
def test_monadic_matrices_independent_of_cache(a, b, residues, d):
    def tables(ms, fresh):
        if fresh:
            rank._last_typer = None
        return [monadic_type_matrix(ms, {0}, d, m, residues).table for m in (1, 2)]

    expected = [tables(a, True), tables(b, True)]
    alternating = [tables(ms, False) for ms in (a, b, a, b)]
    assert alternating == expected * 2


# ---------------------------------------------------------------------------
# per-structure qf_type memo against qf_type and the full type matrix


def subsets(n):
    return [frozenset(i for i in range(n) if bits >> i & 1) for bits in range(1 << n)]


def reference_type_matrix(s, X, m):
    """type_matrix built from qf_type alone: values in sort_key order."""
    inside, outside = sorted(X), sorted(set(s.universe()) - set(X))
    rows = tuple(itertools.product(inside, repeat=m))
    cols = tuple(itertools.product(outside, repeat=m))
    values = tuple(sorted({qf_type(s, r + c) for r in rows for c in cols},
                          key=sort_key))
    table = tuple(tuple(values.index(qf_type(s, r + c)) for c in cols) for r in rows)
    return rows, cols, table, values


binary_specs = st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * n) - 1)))


@settings(deadline=None)
@given(binary_specs)
def test_distinct_row_rank_matches_type_matrix_binary(spec):
    # distinct_row_rank fills one structure's memo, type_matrix reads an
    # equal structure's fresh memo
    n, bits = spec
    cold, warm = binary_structure(n, bits), binary_structure(n, bits)
    for m in (1, 2):
        for X in subsets(n):
            assert distinct_row_rank(warm, X, m) == matrix_ranks(type_matrix(cold, X, m))[0]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.sampled_from(list(all_tree_shapes(n))), st.permutations(range(n)),
                        st.integers(0, (1 << n) - 1))))
def test_distinct_row_rank_matches_type_matrix_ternary(spec):
    shape, labels, bits = spec
    enc = ternary_encode(validate_tree([frozenset(labels[x] for x in node) for node in shape.nodes]))
    fresh = Structure(enc.vocabulary, enc.universe_size, enc.interpretation)
    X = frozenset(i for i in range(enc.universe_size) if bits >> i & 1)
    for m in (1, 2):
        assert distinct_row_rank(enc, X, m) == matrix_ranks(type_matrix(fresh, X, m))[0]


@settings(deadline=None)
@given(binary_specs, st.integers(1, 2))
def test_type_matrix_same_on_equal_structures(spec, m):
    n, bits = spec
    warm, fresh = binary_structure(n, bits), binary_structure(n, bits)
    assert warm is not fresh and warm == fresh
    for X in reversed(subsets(n)):  # other subsets fill warm's memo first
        distinct_row_rank(warm, X, 3 - m)
    for X in subsets(n):
        M = type_matrix(warm, X, m)
        assert M == type_matrix(fresh, X, m)
        assert (M.rows, M.cols, M.table, M.values) == reference_type_matrix(fresh, X, m)


@settings(deadline=None)
@given(binary_specs)
def test_qf_memo_leaves_eq_hash_repr(spec):
    n, bits = spec
    s, other = binary_structure(n, bits), binary_structure(n, bits)
    before = (hash(s), repr(s))
    for X in subsets(n):
        type_matrix(s, X, 1)
    assert (hash(s), repr(s)) == before == (hash(other), repr(other))
    assert s == other and not (s != other)
    assert "qf_type_ids" in vars(s) and "qf_type_ids" not in vars(other)
    # every x with a row and a column got its pair-id vector, in the memo
    ids = vars(s)["qf_type_ids"]
    assert set(ids._pairs) == (set(range(n)) if n > 1 else set())
    assert all(v == tuple(ids.id_of(s, (x, y)) for y in range(n)) for x, v in ids._pairs.items())


UBT = Vocabulary((("U", 1), ("E", 2), ("R", 3)))


@st.composite
def ubt_structures(draw):
    """A structure with a unary, a binary and a ternary relation."""
    n = draw(st.integers(1, 5))
    element = st.integers(0, n - 1)
    return Structure.make(UBT, n, {
        name: draw(st.frozensets(st.tuples(*[element] * arity), max_size=3 * n))
        for name, arity in UBT.relations})


def fresh_copy(s):
    return Structure(s.vocabulary, s.universe_size, s.interpretation)


@settings(deadline=None)
@given(ubt_structures(), st.data())
def test_pair_ids_rank_matches_qf_type_across_arities(s, data):
    X = data.draw(st.sets(st.integers(0, s.universe_size - 1)))
    _, _, table, _ = reference_type_matrix(fresh_copy(s), X, 1)
    # rows of no columns are all (), so the set size follows the 0 / 1 rule too
    assert distinct_row_rank(s, X, 1) == len(set(table))


@settings(deadline=None)
@given(ubt_structures(), st.data())
def test_pair_ids_type_matrix_on_a_warm_structure_matches_qf_type(s, data):
    warm = fresh_copy(s)
    for X in data.draw(st.lists(st.sets(st.integers(0, s.universe_size - 1)), max_size=4)):
        distinct_row_rank(warm, X, 1)
        type_matrix(warm, X, 2 if s.universe_size < 5 else 1)
    X = data.draw(st.sets(st.integers(0, s.universe_size - 1)))
    M = type_matrix(warm, X, 1)
    assert (M.rows, M.cols, M.table, M.values) == reference_type_matrix(fresh_copy(s), X, 1)
    assert M.X == frozenset(X) and M.m == 1


@st.composite
def row_structures(draw):
    """A structure on 1 to 6 elements with up to three relations of arity 1
    to 3, or none."""
    n = draw(st.integers(1, 6))
    arities = draw(st.lists(st.integers(1, 3), max_size=3))
    vocab = Vocabulary(tuple((f"R{i}", arity) for i, arity in enumerate(arities)))
    element = st.integers(0, n - 1)
    return Structure.make(vocab, n, {
        name: draw(st.frozensets(st.tuples(*[element] * arity), max_size=3 * n))
        for name, arity in vocab.relations})


@settings(deadline=None)
@given(row_structures(), st.data())
def test_pair_rows_match_the_per_x_loop_and_qf_type(s, data):
    n = s.universe_size
    ids = s.qf_type_ids
    # several calls, so later ones mix kept rows with new ones; any order, repeats
    for xs in data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n),
                                 min_size=1, max_size=3)):
        rows = ids.pair_rows(s, xs)
        assert [tuple(map(ids.types.__getitem__, row)) for row in rows] == \
            [reference_pair_types(s, x) for x in xs]
        assert rows == [tuple(ids.id_of(s, (x, y)) for y in range(n)) for x in xs]
        assert [tuple(ids.types[i] for i in row) for row in rows] == \
            [tuple(qf_type(s, (x, y)) for y in range(n)) for x in xs]


@settings(deadline=None)
@given(row_structures(), st.data())
def test_pair_rows_rank_matches_the_type_matrix(s, data):
    for X in data.draw(st.lists(st.lists(st.integers(0, s.universe_size - 1)), max_size=4)):
        assert distinct_row_rank(s, X, 1) == matrix_ranks(type_matrix(fresh_copy(s), X, 1))[0]
        assert distinct_row_rank(s, X, 1) == matrix_ranks(type_matrix(s, X, 1))[0]


@settings(deadline=None)
@given(row_structures(), st.data())
def test_pair_rows_name_the_least_coordinate_out_of_range(s, data):
    n = s.universe_size
    element = st.integers(0, n - 1)
    ids = s.qf_type_ids
    ids.pair_rows(s, data.draw(st.lists(element)))  # some rows already kept
    bad = data.draw(st.lists(st.integers(-3, n + 3).filter(lambda x: not 0 <= x < n), min_size=1))
    xs = data.draw(st.permutations(data.draw(st.lists(element)) + bad))
    kept, types = dict(ids._pairs), list(ids.types)
    with pytest.raises(ValueError, match=f"^coordinate {min(bad)} out of range$"):
        ids.pair_rows(s, xs)
    # the kernels name the least member outside as well, also when X
    # covers the universe and no column is read
    for build in (distinct_row_rank, type_matrix):
        with pytest.raises(ValueError, match=f"^coordinate {min(bad)} out of range$"):
            build(s, xs, 1)
    assert ids._pairs == kept and ids.types == types  # no partial row


class CountingRelation(frozenset):
    """A relation that counts its membership tests in ``tests``."""

    def __contains__(self, t):
        self.tests += 1
        return frozenset.__contains__(self, t)


def counting_structure(arity, n, tuples):
    rel = CountingRelation(tuples)
    rel.tests = 0
    return Structure(Vocabulary((("R", arity),)), n, (("R", rel),)), rel


@settings(deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.data())
def test_pair_rows_type_at_most_X_n_pairs_per_call_and_each_pair_once(arity, n, data):
    element = st.integers(0, n - 1)
    s, rel = counting_structure(arity, n, data.draw(
        st.sets(st.tuples(*[element] * arity), max_size=3 * n)))
    atoms = 2 ** arity  # each position of R reads x or y
    typed = set()
    for xs in data.draw(st.lists(st.lists(element, max_size=2 * n), max_size=4)):
        before = rel.tests
        s.qf_type_ids.pair_rows(s, xs)
        new = set(xs) - typed
        # a pair is typed by testing each atom once; a kept row is not retyped
        assert rel.tests - before <= len(new) * n * atoms <= len(set(xs)) * n * atoms
        typed |= new
    assert rel.tests <= len(typed) * n * atoms


def test_one_pair_row_on_a_large_universe_is_linear():
    n = 5000
    s, rel = counting_structure(2, n, {(y, y + 1) for y in range(n - 1)})
    (row,) = s.qf_type_ids.pair_rows(s, [7])
    assert len(row) == n and rel.tests == 4 * n
    assert list(s.qf_type_ids._pairs) == [7]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("warm", [False, True])
def test_rank_names_a_coordinate_outside_the_universe(m, warm):
    s = path_structure(3)
    if warm:  # every fact-column combination is known, so no new pair is typed
        for X in subsets(3):
            distinct_row_rank(s, X, m)
    # X with the complement empty too, where no cell is typed: the least
    # member outside is named all the same
    for X, bad in [({0, -1}, -1), ({0, 3}, 3), ({0, 1, 2, 9}, 9), ({0, 1, 2, 9, 4, 7}, 4),
                   ({0, 1, 2, -2, 5}, -2)]:
        for build in (distinct_row_rank, type_matrix):
            with pytest.raises(ValueError, match=f"^coordinate {bad} out of range$"):
                build(s, X, m)


def test_distinct_row_rank_edge_cases(monkeypatch):
    s = path_structure(4)
    with pytest.raises(ValueError, match="m must be >= 1"):
        distinct_row_rank(s, {0}, 0)
    assert distinct_row_rank(s, set(), 2) == 0
    assert distinct_row_rank(s, range(4), 2) == 1
    assert "qf_type_ids" not in vars(s)
    monkeypatch.setenv("RANKMAT_CAPS", "matrix_cells=3")
    with pytest.raises(CapExceeded):
        distinct_row_rank(s, {0, 1}, 1)
    assert "qf_type_ids" not in vars(s)  # the cap is checked before any work
