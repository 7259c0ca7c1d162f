"""Line-oriented text formats for the command line tools.

All formats allow blank lines and ``#`` comments.  Parse errors raise
ValueError, with a line number where one line is at fault, so the CLI can
map them to exit code 2.  A header line is a keyword and then exactly the
tokens its usage names (``_header``); a table is a fixed number of rows of
a fixed number of ids (``_rows``).

Formats:
  .struct  structure / universe N / rel NAME ARITY + tuple lines / end
  .tree    s-expression; ``(u ...)`` is a node with two or more children,
           bare identifiers are leaves, read as ints when all are digits
  .sgp     semigroup N + N rows of N ids; at most one ``unit K`` line
  .mat     matrix R C sgp=<file> + R rows of C ids, R and C >= 1
  .orc     oracle KIND K / one semigroup <file> line / class lines /
           lambda lines, one per class and subset / one accept line
"""
from __future__ import annotations

import os

from .kronecker import SemigroupMatrix
from .recovery import OrderedOracle, UnorderedOracle
from .semigroup import FiniteSemigroup
from .semigroup import validate as validate_semigroup
from .structures import Structure, Vocabulary
from .trees import LaminarTree, tree_from_postorder

__all__ = [
    "parse_structure",
    "write_structure",
    "parse_tree",
    "write_tree",
    "parse_semigroup",
    "write_semigroup",
    "parse_matrix",
    "write_matrix",
    "parse_oracle",
    "write_oracle",
    "load_structure",
    "load_tree",
    "load_semigroup",
    "load_matrix",
    "load_oracle",
]


def _lines(text: str):
    """(line number, stripped content) for every non-blank, non-comment line."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _fail(lineno: int, message: str):
    raise ValueError(f"line {lineno}: {message}")


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(lineno, f"expected an integer, got {token!r}")


def _header(lines: list, usage: str):
    """(line number, tokens after the keyword) of the first line, which must
    be ``usage``'s keyword and then exactly as many tokens as it names."""
    if not lines:
        raise ValueError(f"expected '{usage}' header")
    lineno, line = lines[0]
    keyword, *tokens = line.split()
    if keyword != usage.split()[0] or len(tokens) != usage.count(" "):
        _fail(lineno, f"expected '{usage}' header")
    return lineno, tokens


def _rows(body: list, width: int, count: int) -> list:
    """``count`` rows of ``width`` integers, one row per line."""
    rows = []
    for lineno, line in body:
        row = [_int(p, lineno) for p in line.split()]
        if len(row) != width:
            _fail(lineno, f"expected {width} ids per row")
        rows.append(row)
    if len(rows) != count:
        raise ValueError(f"expected {count} rows, got {len(rows)}")
    return rows


# ---------------------------------------------------------------------------
# .struct


def parse_structure(text: str) -> Structure:
    lines = _lines(text)
    _header(lines, "structure")
    if lines[-1][1] != "end":
        raise ValueError("missing 'end' line")
    body = lines[1:-1]
    lineno, (n,) = _header(body, "universe N")
    n = _int(n, lineno)
    if n < 0:
        _fail(lineno, "universe size must be >= 0")
    relations = []
    interpretation: dict = {}
    for lineno, line in body[1:]:
        parts = line.split()
        if parts[0] == "rel":
            if len(parts) != 3:
                _fail(lineno, "expected 'rel NAME ARITY'")
            name, arity = parts[1], _int(parts[2], lineno)
            relations.append((name, arity))
            tuples = interpretation[name] = set()
        elif not relations:
            _fail(lineno, "tuple line before any 'rel' declaration")
        elif len(parts) != arity:
            _fail(lineno, f"expected {arity} ids for relation {name!r}")
        else:
            tuples.add(tuple(_int(p, lineno) for p in parts))
    return Structure.make(Vocabulary(tuple(relations)), n, interpretation)


def write_structure(s: Structure) -> str:
    out = ["structure", f"universe {s.universe_size}"]
    for name, arity in s.vocabulary.relations:
        out.append(f"rel {name} {arity}")
        for t in sorted(s.relation(name)):
            out.append(" ".join(map(str, t)))
    out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .tree


def _parse_sexpr(tokens: list, leaves: list, arities: list) -> int:
    """Parse the node at ``tokens[0]``, appending its leaf names to
    ``leaves`` and, as each of its nodes closes, the node's number of
    children to ``arities`` (0 for a leaf): the tree's post-order walk.
    Returns the position after it.  Open nodes wait on an explicit stack,
    so nesting depth is not bounded by the recursion limit."""
    if tokens[0] == ")":
        raise ValueError("unbalanced ')' in tree expression")
    open_nodes: list = []  # children so far of each unclosed node
    pos = 0
    while True:
        if open_nodes:
            open_nodes[-1] += 1
        if tokens[pos] == "(":
            if tokens[pos + 1:pos + 2] != ["u"]:
                raise ValueError("node must start with 'u'")
            open_nodes.append(0)
            pos += 2
        else:
            leaves.append(tokens[pos])
            arities.append(0)
            pos += 1
        while open_nodes:
            if pos >= len(tokens):
                raise ValueError("unbalanced '(' in tree expression")
            if tokens[pos] != ")":
                break
            children = open_nodes.pop()
            if children < 2:
                raise ValueError("internal nodes need at least two children")
            arities.append(children)
            pos += 1
        if not open_nodes:
            return pos


def parse_tree(text: str) -> LaminarTree:
    text = " ".join(line for _, line in _lines(text))
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty tree expression")
    leaves: list = []
    arities: list = []
    if _parse_sexpr(tokens, leaves, arities) != len(tokens):
        raise ValueError("trailing tokens after the tree expression")
    # str.isdigit alone accepts digits such as '²' that int() rejects
    if all(name.isascii() and name.isdigit() for name in leaves):
        leaves = list(map(int, leaves))
    if len(set(leaves)) != len(leaves):
        raise ValueError("duplicate leaf names")
    return tree_from_postorder(leaves, arities)


def write_tree(t: LaminarTree) -> str:
    """The tree's text, back to front: in reverse post-order a node comes
    before its subtree, children last first, so it adds its ')' or leaf
    name there and its '(u ' once the walk leaves its subtree."""
    names = sorted(t.leaves)
    out: list = []  # the text's pieces, last first
    open_nodes: list = []  # the nodes still to get their '(u ', innermost last
    for i in reversed(range(len(t.masks))):
        parent = t.parents[i]
        while open_nodes and open_nodes[-1] != parent:
            open_nodes.pop()
            out.append("(u ")
        if parent is not None and i != parent - 1:  # not the last child
            out.append(" ")
        mask = t.masks[i]
        if mask & (mask - 1):
            out.append(")")
            open_nodes.append(i)
        else:
            out.append(str(names[mask.bit_length() - 1]))
    out += ["(u "] * len(open_nodes)
    return "".join(reversed(out)) + "\n"


# ---------------------------------------------------------------------------
# .sgp


def parse_semigroup(text: str) -> FiniteSemigroup:
    lines = _lines(text)
    lineno, (n,) = _header(lines, "semigroup N")
    n = _int(n, lineno)
    unit = None
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] != "unit":
            rows.append((lineno, line))
        elif unit is not None:
            _fail(lineno, "a second 'unit' line")
        elif len(parts) != 2:
            _fail(lineno, "expected 'unit K'")
        else:
            unit = _int(parts[1], lineno)
    return validate_semigroup(_rows(rows, n, n), unit=unit)


def write_semigroup(S: FiniteSemigroup) -> str:
    out = [f"semigroup {S.size}"]
    if S.unit is not None:
        out.append(f"unit {S.unit}")
    out.extend(" ".join(map(str, row)) for row in S.table)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .mat


def parse_matrix(text: str, base_dir: str = ".") -> SemigroupMatrix:
    lines = _lines(text)
    usage = "matrix R C sgp=<file>"
    lineno, (r, c, sgp) = _header(lines, usage)
    if not sgp.startswith("sgp="):
        _fail(lineno, f"expected '{usage}' header")
    r, c = _int(r, lineno), _int(c, lineno)
    if r < 1 or c < 1:
        _fail(lineno, f"a matrix needs R >= 1 rows and C >= 1 columns, got {r} x {c}")
    semigroup = load_semigroup(os.path.join(base_dir, sgp[len("sgp="):]))
    return SemigroupMatrix.make(_rows(lines[1:], c, r), semigroup)


def write_matrix(M: SemigroupMatrix, sgp_file: str) -> str:
    nr, nc = M.shape()
    out = [f"matrix {nr} {nc} sgp={sgp_file}"]
    out.extend(" ".join(map(str, row)) for row in M.entries)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .orc


def _parse_subset(token: str, lineno: int) -> frozenset:
    if token == "-":
        return frozenset()
    return frozenset(_int(p, lineno) for p in token.split(","))


def parse_oracle(text: str, base_dir: str = "."):
    lines = _lines(text)
    usage = "oracle unordered|ordered K"
    lineno, (kind, k) = _header(lines, usage)
    if kind not in ("unordered", "ordered"):
        _fail(lineno, f"expected '{usage}' header")
    k = _int(k, lineno)
    once: dict = {}  # the value of each of the 'semigroup' and 'accept' lines
    classes = []
    lam_entries: dict = {}  # (class, subset) -> value
    for lineno, line in lines[1:]:
        keyword, *args = line.split()
        if keyword in once:
            _fail(lineno, f"a second '{keyword}' line")
        if keyword == "semigroup":
            if len(args) != 1:
                _fail(lineno, "expected 'semigroup <file>'")
            once[keyword] = load_semigroup(os.path.join(base_dir, args[0]))
        elif keyword == "class":
            classes.append(frozenset(_int(p, lineno) for p in args))
        elif keyword == "lambda":
            if len(args) != 3:
                _fail(lineno, "expected 'lambda CLASS SUBSET VALUE'")
            key = _int(args[0], lineno), _parse_subset(args[1], lineno)
            if key in lam_entries:
                _fail(lineno, f"a second lambda for class {key[0]} on {sorted(key[1])}")
            lam_entries[key] = _int(args[2], lineno)
        elif keyword == "accept":
            once[keyword] = frozenset(_int(p, lineno) for p in args)
        else:
            _fail(lineno, f"unknown directive {keyword!r}")
    for keyword in ("semigroup", "accept"):
        if keyword not in once:
            raise ValueError(f"missing '{keyword}' line")
    if not classes:
        raise ValueError("missing 'class' lines")
    lam = [dict() for _ in classes]
    for (idx, sub), value in lam_entries.items():
        if not (0 <= idx < len(classes)):
            raise ValueError(f"lambda refers to unknown class {idx}")
        lam[idx][sub] = value
    cls = OrderedOracle if kind == "ordered" else UnorderedOracle
    return cls(classes, once["semigroup"], lam, once["accept"], k)


def write_oracle(oracle, sgp_file: str) -> str:
    kind = "ordered" if oracle.ordered else "unordered"
    out = [f"oracle {kind} {oracle.k}", f"semigroup {sgp_file}"]
    for cls in oracle.classes:
        out.append("class " + " ".join(map(str, sorted(cls))))
    for i, table in enumerate(oracle.lam):
        for sub in sorted(table, key=lambda s: (len(s), sorted(s))):
            token = ",".join(map(str, sorted(sub))) if sub else "-"
            out.append(f"lambda {i} {token} {table[sub]}")
    out.append("accept " + " ".join(map(str, sorted(oracle.accept))))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# loaders


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def load_structure(path: str) -> Structure:
    return parse_structure(_read(path))


def load_tree(path: str) -> LaminarTree:
    return parse_tree(_read(path))


def load_semigroup(path: str) -> FiniteSemigroup:
    return parse_semigroup(_read(path))


def load_matrix(path: str) -> SemigroupMatrix:
    return parse_matrix(_read(path), os.path.dirname(path) or ".")


def load_oracle(path: str):
    return parse_oracle(_read(path), os.path.dirname(path) or ".")
