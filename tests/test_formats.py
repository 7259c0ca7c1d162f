"""The text formats: the exact message of every rejection, round trips, and
small random edits of valid files."""
import json
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankmat import formats
from rankmat.cli import main
from rankmat.enumerate import associative_tables
from rankmat.kronecker import SemigroupMatrix
from rankmat.recovery import synth_oracle
from rankmat.semigroup import validate
from rankmat.structures import Structure, Vocabulary
from rankmat.trees import LaminarTree, validate_tree

ONE_SGP = "semigroup 1\n0\n"
Z3_SGP = "semigroup 3\n0 1 2\n1 2 0\n2 0 1\n"
BAD_SGP = "semigroup 2\n0 1\n0 0\n"
NOT_ASSOCIATIVE = "not associative at (1,0,1): (10)1 = 1 but 1(01) = 0"

SGP = "semigroup 2\nunit 0\n0 1\n1 0\n"
MAT = "matrix 2 2 sgp=z3.sgp\n0 1\n1 2\n"
ORC = """oracle unordered 1
semigroup one.sgp
class 0
lambda 0 - 0
lambda 0 0 0
accept 0
"""


@pytest.fixture
def sgp_dir(tmp_path):
    (tmp_path / "one.sgp").write_text(ONE_SGP)
    (tmp_path / "z3.sgp").write_text(Z3_SGP)
    (tmp_path / "bad.sgp").write_text(BAD_SGP)
    return tmp_path


def parse(kind: str, text: str, base_dir: str = "."):
    if kind in ("mat", "orc"):
        return {"mat": formats.parse_matrix, "orc": formats.parse_oracle}[kind](text, base_dir)
    return {"struct": formats.parse_structure, "tree": formats.parse_tree,
            "sgp": formats.parse_semigroup}[kind](text)


# one fault per input; the message is compared whole
REJECTED = [
    # .struct
    ("struct", "", "expected 'structure' header"),
    ("struct", "universe 3\nend\n", "line 1: expected 'structure' header"),
    ("struct", "# c\n\nstructure x\nuniverse 1\nend\n", "line 3: expected 'structure' header"),
    ("struct", "structure\nuniverse 3\n", "missing 'end' line"),
    ("struct", "structure\nend\n", "expected 'universe N' header"),
    ("struct", "structure\nrel E 2\nend\n", "line 2: expected 'universe N' header"),
    ("struct", "structure\nuniverse\nend\n", "line 2: expected 'universe N' header"),
    ("struct", "structure\nuniverse x\nend\n", "line 2: expected an integer, got 'x'"),
    ("struct", "structure\nuniverse -1\nend\n", "line 2: universe size must be >= 0"),
    ("struct", "structure\nuniverse 2\nrel E\nend\n", "line 3: expected 'rel NAME ARITY'"),
    ("struct", "structure\nuniverse 2\nrel E 2 2\nend\n", "line 3: expected 'rel NAME ARITY'"),
    ("struct", "structure\nuniverse 2\nrel E x\nend\n", "line 3: expected an integer, got 'x'"),
    ("struct", "structure\nuniverse 2\n0 1\nend\n",
     "line 3: tuple line before any 'rel' declaration"),
    ("struct", "structure\nuniverse 2\nrel E 2\n0\nend\n", "line 4: expected 2 ids for relation 'E'"),
    ("struct", "structure\nuniverse 2\nrel E 2\n0 y\nend\n", "line 4: expected an integer, got 'y'"),
    ("struct", "structure\nuniverse 2\nrel E 2\n0 2\nend\n", "tuple (0, 2) out of range in E"),
    ("struct", "structure\nuniverse 2\nrel E 0\nend\n", "relation 'E' has arity 0 < 1"),
    ("struct", "structure\nuniverse 2\nrel E 2\nrel E 2\nend\n", "duplicate relation names"),
    # .tree
    ("tree", "", "empty tree expression"),
    ("tree", "# only a comment\n", "empty tree expression"),
    ("tree", "(u 0)", "internal nodes need at least two children"),
    ("tree", "(u (u 0 1))", "internal nodes need at least two children"),
    ("tree", "(u 0 1", "unbalanced '(' in tree expression"),
    ("tree", "(u", "unbalanced '(' in tree expression"),
    ("tree", ")", "unbalanced ')' in tree expression"),
    ("tree", "(x 0 1)", "node must start with 'u'"),
    ("tree", "()", "node must start with 'u'"),
    ("tree", "(", "node must start with 'u'"),
    ("tree", "(u 0 0)", "duplicate leaf names"),
    ("tree", "(u a (u b a))", "duplicate leaf names"),
    ("tree", "(u 0 1) 2", "trailing tokens after the tree expression"),
    ("tree", "(u 0 1))", "trailing tokens after the tree expression"),
    # .sgp
    ("sgp", "", "expected 'semigroup N' header"),
    ("sgp", "group 2\n0 1\n1 0\n", "line 1: expected 'semigroup N' header"),
    ("sgp", "semigroup\n0\n", "line 1: expected 'semigroup N' header"),
    ("sgp", "semigroup x\n", "line 1: expected an integer, got 'x'"),
    ("sgp", "semigroup 2\n0 1\n", "expected 2 rows, got 1"),
    ("sgp", "semigroup 1\n0\n0\n", "expected 1 rows, got 2"),
    ("sgp", "semigroup -1\n", "expected -1 rows, got 0"),
    ("sgp", "semigroup 2\n0 1\n1\n", "line 3: expected 2 ids per row"),
    ("sgp", "semigroup 2\n0 1\n1 z\n", "line 3: expected an integer, got 'z'"),
    ("sgp", "semigroup 2\nunit x\n0 1\n1 0\n", "line 2: expected an integer, got 'x'"),
    ("sgp", "semigroup 2\nunit\n0 1\n1 0\n", "line 2: expected 'unit K'"),
    ("sgp", BAD_SGP, NOT_ASSOCIATIVE),
    ("sgp", "semigroup 2\n0 2\n1 0\n", "entry 2 out of range"),
    ("sgp", "semigroup 2\nunit 1\n0 1\n1 0\n", "unit laws fail at 0"),
    # .mat
    ("mat", "", "expected 'matrix R C sgp=<file>' header"),
    ("mat", "mat 2 2 sgp=z3.sgp\n0 1\n1 2\n", "line 1: expected 'matrix R C sgp=<file>' header"),
    ("mat", "matrix 2 2\n0 1\n1 2\n", "line 1: expected 'matrix R C sgp=<file>' header"),
    ("mat", "matrix 2 2 z3.sgp\n0 1\n1 2\n", "line 1: expected 'matrix R C sgp=<file>' header"),
    ("mat", "matrix x 2 sgp=z3.sgp\n", "line 1: expected an integer, got 'x'"),
    ("mat", "matrix 0 3 sgp=z3.sgp\n",
     "line 1: a matrix needs R >= 1 rows and C >= 1 columns, got 0 x 3"),
    ("mat", "matrix 1 1 sgp=bad.sgp\n0\n", NOT_ASSOCIATIVE),
    ("mat", "matrix 2 2 sgp=z3.sgp\n0 1\n", "expected 2 rows, got 1"),
    ("mat", "matrix 1 2 sgp=z3.sgp\n0\n", "line 2: expected 2 ids per row"),
    ("mat", "matrix 1 2 sgp=z3.sgp\n0 q\n", "line 2: expected an integer, got 'q'"),
    ("mat", "matrix 1 1 sgp=z3.sgp\n7\n", "entry 7 out of range"),
    # .orc
    ("orc", "", "expected 'oracle unordered|ordered K' header"),
    ("orc", ORC.replace("oracle", "orc"), "line 1: expected 'oracle unordered|ordered K' header"),
    ("orc", ORC.replace("unordered 1", "unordered"),
     "line 1: expected 'oracle unordered|ordered K' header"),
    ("orc", ORC.replace("unordered", "sideways"),
     "line 1: expected 'oracle unordered|ordered K' header"),
    ("orc", ORC.replace("unordered 1", "unordered x"), "line 1: expected an integer, got 'x'"),
    ("orc", ORC.replace("semigroup one.sgp", "semigroup"), "line 2: expected 'semigroup <file>'"),
    ("orc", ORC.replace("one.sgp", "one.sgp two.sgp"), "line 2: expected 'semigroup <file>'"),
    ("orc", ORC.replace("one.sgp", "bad.sgp"), NOT_ASSOCIATIVE),
    ("orc", ORC.replace("class 0", "class 0 x"), "line 3: expected an integer, got 'x'"),
    ("orc", ORC.replace("lambda 0 - 0", "lambda 0 -"),
     "line 4: expected 'lambda CLASS SUBSET VALUE'"),
    ("orc", ORC.replace("lambda 0 - 0", "lambda x - 0"), "line 4: expected an integer, got 'x'"),
    ("orc", ORC.replace("lambda 0 0 0", "lambda 0 0,x 0"), "line 5: expected an integer, got 'x'"),
    ("orc", ORC.replace("lambda 0 0 0", "lambda 0 0 y"), "line 5: expected an integer, got 'y'"),
    ("orc", ORC.replace("accept 0", "accept 0 z"), "line 6: expected an integer, got 'z'"),
    ("orc", ORC + "frob 1\n", "line 7: unknown directive 'frob'"),
    ("orc", ORC.replace("semigroup one.sgp\n", ""), "missing 'semigroup' line"),
    ("orc", ORC.replace("accept 0\n", ""), "missing 'accept' line"),
    ("orc", ORC.replace("class 0\n", ""), "missing 'class' lines"),
    ("orc", ORC + "lambda 5 - 0\n", "lambda refers to unknown class 5"),
    ("orc", ORC + "lambda -1 - 0\n", "lambda refers to unknown class -1"),
    ("orc", ORC.replace("lambda 0 0 0\n", ""), "lambda must cover every subset of its class"),
    ("orc", ORC.replace("lambda 0 0 0", "lambda 0 0 7"),
     "lambda value 7 of class 0 on [0] is not a semigroup element"),
    ("orc", ORC.replace("accept 0", "accept 9"), "accept value 9 is not a semigroup element"),
    ("orc", ORC + "class 0\nlambda 1 - 0\nlambda 1 0 0\n",
     "unordered classes must be disjoint: element 0 is in classes 0 and 1"),
]


@pytest.mark.parametrize("kind,text,message", REJECTED)
def test_rejection_message(sgp_dir, kind, text, message):
    with pytest.raises(ValueError) as caught:
        parse(kind, text, str(sgp_dir))
    assert str(caught.value) == message


# inputs the formats used to read while ignoring or misreading part of them
NEWLY_REJECTED = [
    ("tree", "(u 1 01)", "duplicate leaf names"),
    ("tree", "(o 0 1)", "node must start with 'u'"),
    ("sgp", "semigroup 2 junk\n0 1\n1 0\n", "line 1: expected 'semigroup N' header"),
    ("struct", "structure\nuniverse 2 9\nend\n", "line 2: expected 'universe N' header"),
    ("sgp", "semigroup 2\nunit 1 2\n0 1\n1 0\n", "line 2: expected 'unit K'"),
    ("sgp", "semigroup 2\nunit 0\nunit 1\n0 1\n1 0\n", "line 3: a second 'unit' line"),
    ("sgp", "semigroup 2\nunit 5\n0 1\n1 0\n", "unit 5 out of range"),
    ("sgp", "semigroup 2\nunit -2\n0 1\n1 0\n", "unit -2 out of range"),
    ("orc", ORC.replace("class 0", "semigroup one.sgp\nclass 0"),
     "line 3: a second 'semigroup' line"),
    ("orc", ORC + "accept 0\n", "line 7: a second 'accept' line"),
    ("orc", ORC + "lambda 0 0 0\n", "line 7: a second lambda for class 0 on [0]"),
    ("orc", "oracle unordered 1\nsemigroup one.sgp\nclass 0 1\nlambda 0 - 0\nlambda 0 0 0\n"
            "lambda 0 1 0\nlambda 0 0,1 0\nlambda 0 1,0 0\naccept 0\n",
     "line 8: a second lambda for class 0 on [0, 1]"),
]

CLI_COMMAND = {"struct": ["rank", "--structure"], "tree": ["tree", "validate"],
               "sgp": ["sgp", "validate"], "orc": ["recover", "partition"]}


@pytest.mark.parametrize("kind,text,message", NEWLY_REJECTED)
def test_newly_rejected_input(sgp_dir, capsys, kind, text, message):
    with pytest.raises(ValueError) as caught:
        parse(kind, text, str(sgp_dir))
    assert str(caught.value) == message
    path = sgp_dir / f"input.{kind}"
    path.write_text(text)
    assert main([*CLI_COMMAND[kind], str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# round trips: parse(write(x)) == x


@st.composite
def structures(draw):
    n = draw(st.integers(0, 4))
    names = draw(st.lists(st.sampled_from(["E", "R", "T_1", "u"]), max_size=3, unique=True))
    relations = tuple((name, draw(st.integers(1, 3))) for name in names)
    element = st.integers(0, n - 1)
    return Structure.make(Vocabulary(relations), n, {
        name: draw(st.sets(st.tuples(*[element] * arity), max_size=8)) if n else set()
        for name, arity in relations
    })


@given(structures())
def test_structure_round_trip(s):
    assert formats.parse_structure(formats.write_structure(s)) == s


@st.composite
def laminar_trees(draw):
    """A tree over 1 to 7 distinct int leaves: each block of two or more
    leaves is cut into two or more consecutive parts of a shuffle."""
    family = []

    def split(block):
        family.append(frozenset(block))
        if len(block) > 1:
            block = draw(st.permutations(block))
            cuts = sorted(draw(st.sets(st.integers(1, len(block) - 1), min_size=1)))
            for lo, hi in zip([0, *cuts], [*cuts, len(block)]):
                split(block[lo:hi])

    split(sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=7))))
    return validate_tree(family)


@given(laminar_trees())
def test_tree_round_trip(t):
    assert formats.parse_tree(formats.write_tree(t)) == t


def caterpillar(depth: int) -> str:
    """``(u depth (u depth-1 ... (u 1 0)))``: one internal node per level."""
    text = "0"
    for i in range(1, depth + 1):
        text = f"(u {i} {text})"
    return text


@pytest.mark.parametrize("depth", [300, 2000])
def test_tree_deeper_than_the_recursion_limit(tmp_path, capsys, depth):
    path = tmp_path / "caterpillar.tree"
    path.write_text(caterpillar(depth) + "\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth // 2)
    try:
        t = formats.parse_tree(path.read_text())
        written = formats.write_tree(t)
        codes = [main(["--json", *command, str(path)]) for command in
                 (["tree", "validate"], ["tree", "branching"], ["orient"])]
    finally:
        sys.setrecursionlimit(limit)
    counts = {"leaves": depth + 1, "nodes": 2 * depth + 1}
    assert {"leaves": len(t.leaves), "nodes": len(t.nodes)} == counts
    assert formats.parse_tree(written) == t
    assert codes == [0, 0, 0]
    validated, branched, oriented = map(json.loads, capsys.readouterr().out.splitlines())
    assert validated["data"] == counts
    assert branched["data"] == {"branching": 1}
    assert oriented["status"] == "pass"
    assert len(oriented["data"]["leaf_colours"]) == depth + 1


def test_a_parsed_caterpillar_holds_one_mask_per_node():
    # as frozensets its nodes held 4.5 M leaf entries, about 255 MB
    text = caterpillar(2999)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = formats.parse_tree(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (len(t.leaves), len(t.masks)) == (3000, 5999)
    assert retained < 16 * 2**20


def test_tree_validate_and_branching_build_no_node_sets(tmp_path, capsys, monkeypatch):
    path = tmp_path / "caterpillar.tree"
    path.write_text(caterpillar(2999) + "\n")

    def no_leaf_sets(self, mask):
        raise AssertionError("a node's leaf set was built")

    monkeypatch.setattr(LaminarTree, "_leaves_of", no_leaf_sets)
    codes = [main(["--json", *command, str(path)])
             for command in (["tree", "validate"], ["tree", "branching"], ["orient"])]
    assert codes == [0, 0, 0]
    validated, branched, oriented = map(json.loads, capsys.readouterr().out.splitlines())
    assert validated["data"] == {"leaves": 3000, "nodes": 5999}
    assert branched["data"] == {"branching": 1}
    assert len(oriented["data"]["leaf_colours"]) == 3000


def test_tree_leaf_names_with_non_ascii_digits_stay_strings():
    # '²'.isdigit() is true, but int('²') fails
    t = formats.parse_tree("(u ² 0)")
    assert t.leaves == frozenset({"²", "0"})
    assert formats.parse_tree("(u 2 0)").leaves == frozenset({2, 0})


def _with_units():
    """Every associative table of size 1 to 3, once without a unit and once
    with each of its units."""
    out = []
    for S in associative_tables(3):
        out.append(S)
        out.extend(validate(S.table, unit=e) for e in S.elements()
                   if all(S.mult(e, a) == a == S.mult(a, e) for a in S.elements()))
    return out


SEMIGROUPS = _with_units()


def test_semigroups_with_and_without_unit():
    assert any(S.unit is None for S in SEMIGROUPS) and any(S.unit is not None for S in SEMIGROUPS)


@given(st.sampled_from(SEMIGROUPS))
def test_semigroup_round_trip(S):
    assert formats.parse_semigroup(formats.write_semigroup(S)) == S


@given(st.sampled_from(SEMIGROUPS), st.data())
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_matrix_round_trip(tmp_path, S, data):
    (tmp_path / "s.sgp").write_text(formats.write_semigroup(S))
    shape = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    entries = data.draw(st.lists(st.lists(st.integers(0, S.size - 1), min_size=shape[1],
                                          max_size=shape[1]), min_size=shape[0],
                                 max_size=shape[0]))
    M = SemigroupMatrix.make(entries, S)
    assert formats.parse_matrix(formats.write_matrix(M, "s.sgp"), str(tmp_path)) == M


@given(st.sampled_from(["unordered", "ordered"]),
       st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(1, 2))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=40,
          deadline=None)
def test_oracle_round_trip(tmp_path, kind, sizes, k):
    classes, start = [], 0
    for size in sizes:
        classes.append(range(start, start + size))
        start += size
    oracle = synth_oracle(kind, classes, k)
    (tmp_path / "s.sgp").write_text(formats.write_semigroup(oracle.semigroup))
    loaded = formats.parse_oracle(formats.write_oracle(oracle, "s.sgp"), str(tmp_path))
    assert type(loaded) is type(oracle)
    assert (loaded.classes, loaded.semigroup, loaded.lam, loaded.accept, loaded.k) == \
        (oracle.classes, oracle.semigroup, oracle.lam, oracle.accept, oracle.k)


# ---------------------------------------------------------------------------
# token edits: one to three insertions, deletions or replacements of a
# token of a valid file give a file that parses or raises ValueError or
# OSError, never another exception

EXTRA_TOKENS = ["\n", "-1", "0", "1", "2", "5", "x", "-", "0,1", "(", ")", "u", "o", "#",
                "unit", "rel", "end", "class", "lambda", "accept", "semigroup", "sgp=z3.sgp"]


def _edit(rng, text: str) -> str:
    tokens = re.findall(r"\n|[^ \n]+", text.replace("(", " ( ").replace(")", " ) "))
    pool = sorted(set(tokens)) + EXTRA_TOKENS
    for _ in range(rng.randint(1, 3)):
        op, at = rng.randrange(3), rng.randrange(len(tokens) + 1)
        if op == 0:
            tokens.insert(at, rng.choice(pool))
        elif tokens and at < len(tokens):
            if op == 1:
                del tokens[at]
            else:
                tokens[at] = rng.choice(pool)
    return " ".join(tokens)


@pytest.mark.parametrize("kind,text", [
    ("struct", "structure\nuniverse 3\nrel E 2\n0 1\n1 2\nrel U 1\n2\nend\n"),
    ("tree", "(u (u 0 1) 2 (u 3 4))"),
    ("sgp", SGP),
    ("sgp", Z3_SGP),
    ("mat", MAT),
    ("orc", ORC),
    ("orc", "oracle ordered 2\nsemigroup z3.sgp\nclass 0\nclass 1\n"
            "lambda 0 - 1\nlambda 0 0 2\nlambda 1 - 1\nlambda 1 1 2\naccept 0 1 2\n"),
])
def test_token_edits_raise_only_value_or_os_errors(sgp_dir, kind, text):
    parse(kind, text, str(sgp_dir))
    rng = random.Random(f"{kind}:{text}")
    for _ in range(2000):
        edited = _edit(rng, text)
        try:
            parse(kind, edited, str(sgp_dir))
        except (ValueError, OSError):
            pass
