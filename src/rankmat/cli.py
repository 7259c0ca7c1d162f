"""Command line interface: rank queries, tree and semigroup tools,
Kronecker operations, oracle recovery, and the verification suites.

Every command line (``rankmat rank``, ``rankmat kron product``, ...) is
registered once with ``@_command``, with the arguments its handler reads;
``_build_parser`` builds the subparsers, nested for actions, from that
table.  Exit codes: 2 on parse or validation errors, 1 when any check
fails, 0 otherwise.  With ``--json`` every result is one
``{check, instance, status, data}`` object per line.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import caps, formats
from .kronecker import (
    Finite,
    finite_order,
    kronecker_power,
    kronecker_product,
    two_by_two_claim,
)
from .rank import Graph, distinct_row_rank, graph_cut_rank, matrix_ranks, type_matrix
from .recovery import recover_partition, recover_preorder, validate_oracle
from .semigroup import Overflow, green, identity_suite, omega, syntactic_class_count
from .structures import Structure
from .suites import Report, run_suite
from .trees import (
    LinearPreorder,
    Obstruction,
    blocks,
    branching,
    group_orientation,
    subforests,
    ternary_decode,
    ternary_encode,
)

__all__ = ["main"]


def _parse_subset(text: str) -> set:
    text = text.strip()
    if not text:
        return set()
    return {int(p) for p in text.split(",")}


def _structure_to_graph(s: Structure) -> Graph:
    if len(s.vocabulary.relations) != 1 or s.vocabulary.relations[0][1] != 2:
        raise ValueError("graph commands need a structure with one binary relation")
    name = s.vocabulary.relations[0][0]
    edges = {frozenset((a, b)) for a, b in s.relation(name) if a != b}
    return Graph(s.universe_size, frozenset(edges))


def _emit(reports: list, json_mode: bool) -> int:
    worst = 0
    for report in reports:
        if json_mode:
            print(json.dumps(report.as_dict(), sort_keys=True))
        else:
            detail = " ".join(f"{k}={v}" for k, v in report.data.items())
            print(f"{report.check} {report.instance}: {report.status} {detail}".rstrip())
        if report.status == "fail":
            worst = 1
    return worst


# ---------------------------------------------------------------------------
# the command table: "rank", or "kron product" for an action of a command,
# maps to (handler, help, arguments).  A handler takes exactly the arguments
# registered with it, as keywords, and returns a list of Reports.

_COMMANDS: dict = {}
_GROUPS = {"tree": "laminar tree tools", "sgp": "finite semigroup tools",
           "kron": "Kronecker products over a semigroup",
           "recover": "recover hidden structure from an oracle"}


def _arg(*flags, **options) -> tuple:
    return flags, options


_FILE = _arg("file")
_STRUCTURE = _arg("--structure", required=True)
_SUBSET = _arg("--subset", default="")
_M = _arg("--m", type=int, default=1)
_BUDGET = _arg("--budget", type=int, default=5)


def _command(name: str, help: str, *arguments):
    def register(handler):
        _COMMANDS[name] = handler, help, arguments
        return handler
    return register


@_command("rank", "type-matrix ranks of a structure subset", _STRUCTURE, _SUBSET, _M)
def _rank(structure, subset, m) -> list:
    s = formats.load_structure(structure)
    dr, dc, fr = matrix_ranks(type_matrix(s, _parse_subset(subset), m))
    return [Report("rank", structure, "pass",
                   {"distinct_rows": dr, "distinct_cols": dc, "field_rank": fr})]


@_command("graph-rank", "GF(2) cut-rank of a graph subset", _STRUCTURE, _SUBSET)
def _graph_rank(structure, subset) -> list:
    g = _structure_to_graph(formats.load_structure(structure))
    r = graph_cut_rank(g, _parse_subset(subset))
    return [Report("graph-rank", structure, "pass", {"cut_rank": r})]


@_command("tree validate", "leaf and node counts of a laminar tree", _FILE)
def _tree_validate(file) -> list:
    t = formats.load_tree(file)
    return [Report("tree-validate", file, "pass",
                   {"leaves": len(t.leaves), "nodes": len(t.masks)})]


@_command("tree encode", "ternary encoding of a tree", _FILE)
def _tree_encode(file) -> list:
    s = ternary_encode(formats.load_tree(file))
    return [Report("tree-encode", file, "pass", {"structure": formats.write_structure(s)})]


@_command("tree decode", "tree of a ternary encoding", _FILE)
def _tree_decode(file) -> list:
    t = ternary_decode(formats.load_structure(file))
    return [Report("tree-decode", file, "pass", {"tree": formats.write_tree(t).strip()})]


@_command("tree subforests", "subforests of a tree", _FILE)
def _tree_subforests(file) -> list:
    t = formats.load_tree(file)
    found = sorted((sorted(f) for f in subforests(t)), key=lambda f: (len(f), f))
    return [Report("tree-subforests", file, "pass",
                   {"count": len(found), "subforests": found})]


@_command("tree branching", "branching of a tree", _FILE)
def _tree_branching(file) -> list:
    t = formats.load_tree(file)
    return [Report("tree-branching", file, "pass", {"branching": branching(t)})]


@_command("orient", "group orientation of a tree", _FILE,
          _arg("--modulus", type=int, default=4))
def _orient(file, modulus) -> list:
    result = group_orientation(formats.load_tree(file), modulus)
    if isinstance(result, Obstruction):
        return [Report("orient", file, "fail",
                       {"modulus": modulus, "obstruction_node": sorted(result.node)})]
    return [Report("orient", file, "pass",
                   {"modulus": modulus,
                    "leaf_colours": [list(p) for p in result.leaf_colours]})]


@_command("tree-rank", "cut-rank in the ternary encoding", _FILE, _SUBSET, _M)
def _tree_rank(file, subset, m) -> list:
    s = ternary_encode(formats.load_tree(file))
    r = distinct_row_rank(s, _parse_subset(subset), m)
    return [Report("tree-rank", file, "pass", {"cut_rank": r})]


@_command("blocks", "blocks of a subset in a linear preorder",
          _arg("--classes", required=True,
               help="semicolon-separated comma lists, e.g. '0,1;2;3,4'"), _SUBSET)
def _blocks(classes, subset) -> list:
    preorder = LinearPreorder.make([_parse_subset(part) for part in classes.split(";")])
    found = blocks(preorder, _parse_subset(subset))
    return [Report("blocks", classes, "pass",
                   {"blocks": [[b.kind, b.start, b.end] for b in found]})]


@_command("sgp validate", "size and unit of a semigroup", _FILE)
def _sgp_validate(file) -> list:
    S = formats.load_semigroup(file)
    return [Report("sgp-validate", file, "pass", {"size": S.size, "unit": S.unit})]


@_command("sgp omega", "omega power of a semigroup", _FILE)
def _sgp_omega(file) -> list:
    return [Report("sgp-omega", file, "pass", {"omega": omega(formats.load_semigroup(file))})]


@_command("sgp green", "Green's relations of a semigroup", _FILE)
def _sgp_green(file) -> list:
    g = green(formats.load_semigroup(file))
    return [Report("sgp-green", file, "pass",
                   {"r_class": list(g.r_class), "l_class": list(g.l_class),
                    "j_class": list(g.j_class), "h_class": list(g.h_class)})]


@_command("sgp identities", "the identity suite on a semigroup", _FILE)
def _sgp_identities(file) -> list:
    return [Report("sgp-identities", f"{file}:{name}", "pass" if holds else "fail",
                   {} if holds else {"witness": list(witness)})
            for name, holds, witness in identity_suite(formats.load_semigroup(file)).results]


@_command("sgp syntactic", "syntactic class count of a semigroup", _FILE,
          _arg("--k", type=int, default=1))
def _sgp_syntactic(file, k) -> list:
    count = syntactic_class_count(formats.load_semigroup(file), k)
    return [Report("sgp-syntactic", file, "pass",
                   {"k": k, "count": "overflow" if isinstance(count, Overflow) else count})]


def _order_data(result) -> dict:
    if isinstance(result, Finite):
        return {"order": "finite", "index": result.index, "period": result.period}
    return {"order": "unknown", "row_counts": list(result.row_counts)}


@_command("kron product", "Kronecker product of two matrices",
          _arg("files", nargs=2, metavar="file"))
def _kron_product(files) -> list:
    P = kronecker_product(*map(formats.load_matrix, files))
    return [Report("kron-product", " ".join(files), "pass",
                   {"shape": list(P.shape()), "entries": [list(r) for r in P.entries]})]


@_command("kron power", "Kronecker power of a matrix", _FILE,
          _arg("--n", type=int, default=2))
def _kron_power(file, n) -> list:
    P = kronecker_power(formats.load_matrix(file), n)
    return [Report("kron-power", file, "pass",
                   {"n": n, "shape": list(P.shape()),
                    "entries": [list(r) for r in P.entries]})]


@_command("kron order", "finite-order search on a matrix", _FILE, _BUDGET)
def _kron_order(file, budget) -> list:
    M = formats.load_matrix(file)
    return [Report("kron-order", file, "pass",
                   dict(_order_data(finite_order(M, budget)), budget=budget))]


@_command("kron 2x2-claim", "the 2x2 claim on a semigroup", _FILE,
          *(_arg(f"--{x}", type=int, default=0) for x in "bcd"), _BUDGET)
def _kron_two_by_two(file, b, c, d, budget) -> list:
    report = two_by_two_claim(formats.load_semigroup(file), b, c, d, budget=budget)
    failed = report["claim_holds"] is False or report["growth_verified"] is False
    return [Report("kron-2x2-claim", file, "fail" if failed else "pass",
                   {"b": b, "c": c, "d": d, "bc": report["bc"], "cb": report["cb"],
                    "claim_holds": report["claim_holds"],
                    "growth_verified": report["growth_verified"],
                    **_order_data(report["order"])})]


@_command("recover partition", "recover the hidden partition of an oracle", _FILE)
def _recover_partition(file) -> list:
    recovered = recover_partition(formats.load_oracle(file))
    return [Report("recover-partition", file, "pass",
                   {"classes": sorted(sorted(c) for c in recovered)})]


@_command("recover preorder", "recover the hidden preorder of an oracle", _FILE,
          _arg("--d", type=int, default=2))
def _recover_preorder(file, d) -> list:
    oracle = formats.load_oracle(file)
    validate_oracle(oracle)
    recovered = recover_preorder(oracle, d)
    return [Report("recover-preorder", file, "pass",
                   {"d": d, "classes": [sorted(c) for c in recovered.classes]})]


@_command("verify", "run a verification suite", _arg("suite"))
def _verify(suite) -> list:
    return run_suite(suite)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmat",
        description="cut-rank, laminar tree, semigroup, Kronecker, and recovery tools",
    )
    parser.add_argument("--json", action="store_true",
                        help="one {check, instance, status, data} object per line")
    commands = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for name, (handler, help, arguments) in _COMMANDS.items():
        command, _, action = name.partition(" ")
        if not action:
            p = commands.add_parser(command, help=help)
        else:
            if command not in actions:
                group = commands.add_parser(command, help=_GROUPS[command])
                actions[command] = group.add_subparsers(dest="action", required=True)
            p = actions[command].add_parser(action, help=help)
        names = [p.add_argument(*flags, **options).dest for flags, options in arguments]
        p.set_defaults(handler=handler, arguments=names)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # a malformed RANKMAT_CAPS fails every command, not only those that read a cap
        caps.load()
        reports = args.handler(**{name: getattr(args, name) for name in args.arguments})
    except (ValueError, KeyError, OSError, caps.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(reports, args.json)


if __name__ == "__main__":
    sys.exit(main())
