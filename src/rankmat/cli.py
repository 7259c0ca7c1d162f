"""Command line interface: rank queries, tree and semigroup tools,
Kronecker operations, oracle recovery, and the verification suites.

Exit codes: 2 on parse or validation errors, 1 when any check fails,
0 otherwise.  With ``--json`` every result is one
``{check, instance, status, data}`` object per line.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .caps import CapExceeded
from .kronecker import (
    Finite,
    Unknown,
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
    rankwidth,
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
# command handlers: each returns a list of Reports


def _cmd_rank(args) -> list:
    s = formats.load_structure(args.structure)
    M = type_matrix(s, _parse_subset(args.subset), args.m)
    dr, dc, fr = matrix_ranks(M)
    return [Report("rank", args.structure, "pass",
                   {"distinct_rows": dr, "distinct_cols": dc, "field_rank": fr})]


def _cmd_graph_rank(args) -> list:
    g = _structure_to_graph(formats.load_structure(args.structure))
    r = graph_cut_rank(g, _parse_subset(args.subset))
    return [Report("graph-rank", args.structure, "pass", {"cut_rank": r})]


def _cmd_tree(args) -> list:
    if args.action == "decode":
        s = formats.load_structure(args.file)
        t = ternary_decode(s)
        return [Report("tree-decode", args.file, "pass",
                       {"tree": formats.write_tree(t).strip()})]
    t = formats.load_tree(args.file)
    if args.action == "validate":
        return [Report("tree-validate", args.file, "pass",
                       {"leaves": len(t.leaves), "nodes": len(t.nodes)})]
    if args.action == "encode":
        s = ternary_encode(t)
        return [Report("tree-encode", args.file, "pass",
                       {"structure": formats.write_structure(s)})]
    if args.action == "subforests":
        found = sorted((sorted(f) for f in subforests(t)), key=lambda f: (len(f), f))
        return [Report("tree-subforests", args.file, "pass",
                       {"count": len(found), "subforests": found})]
    if args.action == "branching":
        return [Report("tree-branching", args.file, "pass", {"branching": branching(t)})]
    raise ValueError(f"unknown tree action {args.action!r}")


def _cmd_orient(args) -> list:
    t = formats.load_tree(args.file)
    result = group_orientation(t, args.modulus)
    if isinstance(result, Obstruction):
        return [Report("orient", args.file, "fail",
                       {"modulus": args.modulus,
                        "obstruction_node": sorted(result.node)})]
    return [Report("orient", args.file, "pass",
                   {"modulus": args.modulus,
                    "leaf_colours": [list(p) for p in result.leaf_colours]})]


def _cmd_tree_rank(args) -> list:
    t = formats.load_tree(args.file)
    s = ternary_encode(t)
    r = distinct_row_rank(s, _parse_subset(args.subset), args.m)
    return [Report("tree-rank", args.file, "pass", {"cut_rank": r})]


def _cmd_blocks(args) -> list:
    classes = [_parse_subset(part) for part in args.classes.split(";")]
    preorder = LinearPreorder.make(classes)
    found = blocks(preorder, _parse_subset(args.subset))
    return [Report("blocks", args.classes, "pass",
                   {"blocks": [[b.kind, b.start, b.end] for b in found]})]


def _cmd_rankwidth(args) -> list:
    g = _structure_to_graph(formats.load_structure(args.structure))
    width, tree = rankwidth(g, graph_cut_rank)
    return [Report("rankwidth", args.structure, "pass",
                   {"width": width,
                    "tree": sorted((sorted(n) for n in tree.nodes),
                                   key=lambda n: (len(n), n))})]


def _cmd_sgp(args) -> list:
    S = formats.load_semigroup(args.file)
    if args.action == "validate":
        return [Report("sgp-validate", args.file, "pass",
                       {"size": S.size, "unit": S.unit})]
    if args.action == "omega":
        return [Report("sgp-omega", args.file, "pass", {"omega": omega(S)})]
    if args.action == "green":
        g = green(S)
        return [Report("sgp-green", args.file, "pass",
                       {"r_class": list(g.r_class), "l_class": list(g.l_class),
                        "j_class": list(g.j_class), "h_class": list(g.h_class)})]
    if args.action == "identities":
        report = identity_suite(S)
        out = []
        for name, holds, witness in report.results:
            out.append(Report("sgp-identities", f"{args.file}:{name}",
                              "pass" if holds else "fail",
                              {} if holds else {"witness": list(witness)}))
        return out
    if args.action == "syntactic":
        count = syntactic_class_count(S, args.k)
        if isinstance(count, Overflow):
            return [Report("sgp-syntactic", args.file, "pass",
                           {"k": args.k, "count": "overflow"})]
        return [Report("sgp-syntactic", args.file, "pass",
                       {"k": args.k, "count": count})]
    raise ValueError(f"unknown sgp action {args.action!r}")


def _order_data(result) -> dict:
    if isinstance(result, Finite):
        return {"order": "finite", "index": result.index, "period": result.period}
    return {"order": "unknown", "row_counts": list(result.row_counts)}


def _cmd_kron(args) -> list:
    if args.action == "product":
        M1, M2 = formats.load_matrix(args.files[0]), formats.load_matrix(args.files[1])
        P = kronecker_product(M1, M2)
        return [Report("kron-product", " ".join(args.files), "pass",
                       {"shape": list(P.shape()),
                        "entries": [list(r) for r in P.entries]})]
    if args.action == "power":
        M = formats.load_matrix(args.files[0])
        P = kronecker_power(M, args.n)
        return [Report("kron-power", args.files[0], "pass",
                       {"n": args.n, "shape": list(P.shape()),
                        "entries": [list(r) for r in P.entries]})]
    if args.action == "order":
        M = formats.load_matrix(args.files[0])
        return [Report("kron-order", args.files[0], "pass",
                       dict(_order_data(finite_order(M, args.budget)),
                            budget=args.budget))]
    if args.action == "2x2-claim":
        S = formats.load_semigroup(args.files[0])
        report = two_by_two_claim(S, args.b, args.c, args.d, budget=args.budget)
        failed = report["claim_holds"] is False or report["growth_verified"] is False
        return [Report("kron-2x2-claim", args.files[0],
                       "fail" if failed else "pass",
                       {"b": args.b, "c": args.c, "d": args.d,
                        "bc": report["bc"], "cb": report["cb"],
                        "claim_holds": report["claim_holds"],
                        "growth_verified": report["growth_verified"],
                        **_order_data(report["order"])})]
    raise ValueError(f"unknown kron action {args.action!r}")


def _cmd_recover(args) -> list:
    oracle = formats.load_oracle(args.file)
    if args.action == "partition":
        recovered = recover_partition(oracle)
        classes = sorted((sorted(c) for c in recovered), key=lambda c: c)
        return [Report("recover-partition", args.file, "pass",
                       {"classes": classes})]
    if args.action == "preorder":
        validate_oracle(oracle)
        recovered = recover_preorder(oracle, args.d)
        return [Report("recover-preorder", args.file, "pass",
                       {"d": args.d,
                        "classes": [sorted(c) for c in recovered.classes]})]
    raise ValueError(f"unknown recover action {args.action!r}")


def _cmd_verify(args) -> list:
    return run_suite(args.suite)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmat",
        description="cut-rank, laminar tree, semigroup, Kronecker, and recovery tools",
    )
    parser.add_argument("--json", action="store_true",
                        help="one {check, instance, status, data} object per line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="type-matrix ranks of a structure subset")
    p.add_argument("--structure", required=True)
    p.add_argument("--subset", default="")
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("graph-rank", help="GF(2) cut-rank of a graph subset")
    p.add_argument("--structure", required=True)
    p.add_argument("--subset", default="")
    p.set_defaults(handler=_cmd_graph_rank)

    p = sub.add_parser("tree", help="laminar tree tools")
    p.add_argument("action", choices=["validate", "encode", "decode",
                                      "subforests", "branching"])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("orient", help="group orientation of a tree")
    p.add_argument("file")
    p.add_argument("--modulus", type=int, default=4)
    p.set_defaults(handler=_cmd_orient)

    p = sub.add_parser("tree-rank", help="cut-rank in the ternary encoding")
    p.add_argument("file")
    p.add_argument("--subset", default="")
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(handler=_cmd_tree_rank)

    p = sub.add_parser("blocks", help="blocks of a subset in a linear preorder")
    p.add_argument("--classes", required=True,
                   help="semicolon-separated comma lists, e.g. '0,1;2;3,4'")
    p.add_argument("--subset", default="")
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("rankwidth", help="exact rankwidth of a small graph")
    p.add_argument("--structure", required=True)
    p.set_defaults(handler=_cmd_rankwidth)

    p = sub.add_parser("sgp", help="finite semigroup tools")
    p.add_argument("action", choices=["validate", "omega", "green",
                                      "identities", "syntactic"])
    p.add_argument("file")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler=_cmd_sgp)

    p = sub.add_parser("kron", help="Kronecker products over a semigroup")
    p.add_argument("action", choices=["product", "power", "order", "2x2-claim"])
    p.add_argument("files", nargs="+")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--budget", type=int, default=5)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.set_defaults(handler=_cmd_kron)

    p = sub.add_parser("recover", help="recover hidden structure from an oracle")
    p.add_argument("action", choices=["partition", "preorder"])
    p.add_argument("file")
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        reports = args.handler(args)
    except (ValueError, KeyError, OSError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(reports, args.json)


if __name__ == "__main__":
    sys.exit(main())
