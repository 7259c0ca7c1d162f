"""Line-oriented text formats for the command line tools.

All formats allow blank lines and ``#`` comments.  Parse errors raise
ValueError with a line number so the CLI can map them to exit code 2.

Formats:
  .struct  structure / universe N / rel NAME ARITY + tuple lines / end
  .tree    s-expression; ``(u ...)`` unordered node, ``(o ...)`` ordered
           node, bare identifiers are leaves
  .sgp     semigroup N + N rows of N ids; optional ``unit K``
  .mat     matrix R C sgp=<file> + R rows of C ids, R and C >= 1
  .hyp     hypergraph V A + 2^V colour ids in subset-bitmask order
  .orc     oracle KIND K / semigroup <file> / class lines / lambda lines
           / accept line
"""
from __future__ import annotations

import os
from typing import Optional

from .kronecker import Hypergraph, SemigroupMatrix
from .recovery import OrderedOracle, UnorderedOracle
from .semigroup import FiniteSemigroup
from .semigroup import validate as validate_semigroup
from .structures import Structure, Vocabulary
from .trees import LaminarTree, validate_tree

__all__ = [
    "parse_structure",
    "write_structure",
    "parse_tree",
    "write_tree",
    "parse_semigroup",
    "write_semigroup",
    "parse_matrix",
    "write_matrix",
    "parse_hypergraph",
    "write_hypergraph",
    "parse_oracle",
    "write_oracle",
    "load_structure",
    "load_tree",
    "load_semigroup",
    "load_matrix",
    "load_hypergraph",
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


# ---------------------------------------------------------------------------
# .struct


def parse_structure(text: str) -> Structure:
    lines = _lines(text)
    if not lines or lines[0][1] != "structure":
        raise ValueError("line 1: expected 'structure' header")
    if lines[-1][1] != "end":
        raise ValueError("missing 'end' line")
    body = lines[1:-1]
    if not body or not body[0][1].startswith("universe "):
        raise ValueError("expected 'universe N' after the header")
    lineno, line = body[0]
    n = _int(line.split()[1], lineno)
    if n < 0:
        _fail(lineno, "universe size must be >= 0")
    relations = []
    interpretation: dict = {}
    current: Optional[str] = None
    for lineno, line in body[1:]:
        parts = line.split()
        if parts[0] == "rel":
            if len(parts) != 3:
                _fail(lineno, "expected 'rel NAME ARITY'")
            name, arity = parts[1], _int(parts[2], lineno)
            relations.append((name, arity))
            interpretation[name] = set()
            current = name
        else:
            if current is None:
                _fail(lineno, "tuple line before any 'rel' declaration")
            arity = dict(relations)[current]
            if len(parts) != arity:
                _fail(lineno, f"expected {arity} ids for relation {current!r}")
            interpretation[current].add(tuple(_int(p, lineno) for p in parts))
    vocab = Vocabulary(tuple(relations))
    return Structure.make(vocab, n, interpretation)


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


def _tokenize_sexpr(text: str):
    stripped = []
    for raw in text.splitlines():
        stripped.append(raw.split("#", 1)[0])
    text = " ".join(stripped)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexpr(tokens: list, pos: int):
    if pos >= len(tokens):
        raise ValueError("unexpected end of tree expression")
    token = tokens[pos]
    if token == "(":
        if pos + 1 >= len(tokens) or tokens[pos + 1] not in ("u", "o"):
            raise ValueError("node must start with 'u' or 'o'")
        kind = tokens[pos + 1]
        pos += 2
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            child, pos = _parse_sexpr(tokens, pos)
            children.append(child)
        if pos >= len(tokens):
            raise ValueError("unbalanced '(' in tree expression")
        if len(children) < 2:
            raise ValueError("internal nodes need at least two children")
        return (kind, children), pos + 1
    if token == ")":
        raise ValueError("unbalanced ')' in tree expression")
    return token, pos + 1


def parse_tree(text: str) -> LaminarTree:
    tokens = _tokenize_sexpr(text)
    if not tokens:
        raise ValueError("empty tree expression")
    root, pos = _parse_sexpr(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing tokens after the tree expression")
    leaves: list = []
    family: list = []

    def collect(node) -> frozenset:
        if isinstance(node, str):
            leaves.append(node)
            leafset = frozenset((node,))
            family.append(leafset)
            return leafset
        _, children = node
        span = frozenset().union(*(collect(c) for c in children))
        family.append(span)
        return span

    collect(root)
    if len(set(leaves)) != len(leaves):
        raise ValueError("duplicate leaf names")
    if all(name.isdigit() for name in leaves):
        mapping = {name: int(name) for name in leaves}
        family = [frozenset(mapping[x] for x in node) for node in family]
    return validate_tree(family)


def write_tree(t: LaminarTree) -> str:
    def emit(node: frozenset) -> str:
        if len(node) == 1:
            (leaf,) = node
            return str(leaf)
        return "(u " + " ".join(emit(c) for c in t.children(node)) + ")"

    return emit(t.root()) + "\n"


# ---------------------------------------------------------------------------
# .sgp


def parse_semigroup(text: str) -> FiniteSemigroup:
    lines = _lines(text)
    if not lines or not lines[0][1].startswith("semigroup "):
        raise ValueError("expected 'semigroup N' header")
    lineno, header = lines[0]
    n = _int(header.split()[1], lineno)
    unit = None
    rows = []
    for lineno, line in lines[1:]:
        if line.startswith("unit "):
            unit = _int(line.split()[1], lineno)
            continue
        row = [_int(p, lineno) for p in line.split()]
        if len(row) != n:
            _fail(lineno, f"expected {n} ids per row")
        rows.append(row)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    return validate_semigroup(rows, unit=unit)


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
    if not lines or not lines[0][1].startswith("matrix "):
        raise ValueError("expected 'matrix R C sgp=<file>' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or not parts[3].startswith("sgp="):
        _fail(lineno, "expected 'matrix R C sgp=<file>'")
    r, c = _int(parts[1], lineno), _int(parts[2], lineno)
    if r < 1 or c < 1:
        _fail(lineno, f"a matrix needs R >= 1 rows and C >= 1 columns, got {r} x {c}")
    sgp = load_semigroup(os.path.join(base_dir, parts[3][len("sgp="):]))
    rows = []
    for lineno, line in lines[1:]:
        row = [_int(p, lineno) for p in line.split()]
        if len(row) != c:
            _fail(lineno, f"expected {c} ids per row")
        rows.append(row)
    if len(rows) != r:
        raise ValueError(f"expected {r} rows, got {len(rows)}")
    return SemigroupMatrix.make(rows, sgp)


def write_matrix(M: SemigroupMatrix, sgp_file: str) -> str:
    nr, nc = M.shape()
    out = [f"matrix {nr} {nc} sgp={sgp_file}"]
    out.extend(" ".join(map(str, row)) for row in M.entries)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .hyp


def parse_hypergraph(text: str) -> Hypergraph:
    lines = _lines(text)
    if not lines or not lines[0][1].startswith("hypergraph "):
        raise ValueError("expected 'hypergraph V A' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        _fail(lineno, "expected 'hypergraph V A'")
    v, a = _int(parts[1], lineno), _int(parts[2], lineno)
    table = []
    for lineno, line in lines[1:]:
        table.extend(_int(p, lineno) for p in line.split())
    if len(table) != 1 << v:
        raise ValueError(f"expected {1 << v} colour ids, got {len(table)}")
    return Hypergraph(v, a, tuple(table))


def write_hypergraph(g: Hypergraph) -> str:
    out = [f"hypergraph {g.vertices} {g.colours}"]
    out.append(" ".join(map(str, g.table)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .orc


def _parse_subset(token: str, lineno: int) -> frozenset:
    if token == "-":
        return frozenset()
    return frozenset(_int(p, lineno) for p in token.split(","))


def parse_oracle(text: str, base_dir: str = "."):
    lines = _lines(text)
    if not lines or not lines[0][1].startswith("oracle "):
        raise ValueError("expected 'oracle KIND K' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[1] not in ("unordered", "ordered"):
        _fail(lineno, "expected 'oracle unordered|ordered K'")
    kind = parts[1]
    k = _int(parts[2], lineno)
    semigroup = None
    classes = []
    lam_entries = []
    accept = None
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == "semigroup":
            if len(parts) != 2:
                _fail(lineno, "expected 'semigroup <file>'")
            semigroup = load_semigroup(os.path.join(base_dir, parts[1]))
        elif parts[0] == "class":
            classes.append(frozenset(_int(p, lineno) for p in parts[1:]))
        elif parts[0] == "lambda":
            if len(parts) != 4:
                _fail(lineno, "expected 'lambda CLASS SUBSET VALUE'")
            lam_entries.append(
                (_int(parts[1], lineno), _parse_subset(parts[2], lineno),
                 _int(parts[3], lineno))
            )
        elif parts[0] == "accept":
            accept = frozenset(_int(p, lineno) for p in parts[1:])
        else:
            _fail(lineno, f"unknown directive {parts[0]!r}")
    if semigroup is None:
        raise ValueError("missing 'semigroup' line")
    if accept is None:
        raise ValueError("missing 'accept' line")
    if not classes:
        raise ValueError("missing 'class' lines")
    lam = [dict() for _ in classes]
    for idx, sub, value in lam_entries:
        if not (0 <= idx < len(classes)):
            raise ValueError(f"lambda refers to unknown class {idx}")
        lam[idx][sub] = value
    cls = OrderedOracle if kind == "ordered" else UnorderedOracle
    return cls(classes, semigroup, lam, accept, k)


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


def load_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(_read(path))


def load_oracle(path: str):
    return parse_oracle(_read(path), os.path.dirname(path) or ".")
