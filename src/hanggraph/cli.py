"""Command-line surface.

Subcommands: analyze, product, embed, power, blocks, classify, generate,
subgraph-search.  Graph inputs are a file path, "-" for stdin, or a generator
expression like "cycle:7" or "grid:3x4"; files may hold either the edge-list
format ("n m" header, one "u v" line per edge, '#' comments) or a single
graph6 line; the two are distinguished by the first byte, since a digit can
never start a graph6 line.

Exit codes: 0 success (for analyze: hangable), 1 analyze's connected-but-not-
hangable verdict or a FAIL from --oracle-check, 2 unparseable input or bad
arguments, 3 disconnected input where connectivity is required, 4 search
budget refused.  All normal output is deterministic: same input, same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Sequence

from . import blocks as blocks_mod
from . import embedding as embedding_mod
from . import explorer as explorer_mod
from . import generators
from . import graph6 as g6
from . import metrics as metrics_mod
from . import products as products_mod
from .graph import (DisconnectedGraphError, Graph, GraphInputError,
                    parse_edge_list, to_edge_list)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BUDGET = 4


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read {source!r}: {exc}") from None


def load_graph(source: str, labels: Sequence[str] | None = None) -> Graph:
    """Resolve one graph from a path, "-", or a generator expression."""
    if generators.looks_like_expression(source):
        g = generators.from_expression(source)
    else:
        text = _read_source(source)
        lines = [ln for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines:
            raise GraphInputError(f"no graph found in {source!r}")
        if lines[0].lstrip()[0].isdigit():
            g = parse_edge_list(text)
        else:
            if len(lines) > 1:
                raise GraphInputError(
                    f"{source!r} holds {len(lines)} graph6 lines; expected one graph")
            g = g6.from_graph6(lines[0])
    if labels is not None:
        if len(labels) != g.n:
            raise GraphInputError(
                f"--labels gives {len(labels)} names for {g.n} vertices")
        if len(set(labels)) != len(labels):
            raise GraphInputError("--labels must be unique")
        g = Graph(g.n, g.adj, tuple(labels))
    return g


def _vset(g: Graph, vs) -> str:
    return "{" + ", ".join(g.label_of(v) for v in sorted(vs)) + "}"


def _emit(args, text: str) -> None:
    if not args.quiet:
        sys.stdout.write(text)


def _emit_graph(args, g: Graph) -> None:
    if args.format == "graph6":
        _emit(args, g6.to_graph6(g) + "\n")
    else:
        _emit(args, to_edge_list(g))


def _graph_dict(g: Graph) -> dict:
    d = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if g.labels is not None:
        d["labels"] = list(g.labels)
    return d


def _json(args, obj) -> None:
    _emit(args, json.dumps(obj, sort_keys=True) + "\n")


# --- analyze -----------------------------------------------------------------


def _label_arg(args) -> list[str] | None:
    raw = getattr(args, "labels", None)
    return raw.split(",") if raw else None


def _reject_graph6(args, command: str) -> None:
    # report commands have no graph to serialize
    if args.format == "graph6":
        raise GraphInputError(f"{command} has no graph6 output")


def cmd_analyze(args) -> int:
    _reject_graph6(args, "analyze")
    g = load_graph(args.input, _label_arg(args))
    profile = metrics_mod.metric_profile(g)
    report = metrics_mod.check_hangable_triples(g)  # same pair as check_hangable
    if args.format == "structured":
        payload = {
            "n": g.n,
            "m": g.m,
            "connected": True,
            "eccentricity": list(profile.eccentricity),
            "diameter": profile.diameter,
            "radius": profile.radius,
            "self_centered": profile.radius == profile.diameter,
            "vertex_periphery": [sorted(p) for p in profile.vertex_periphery],
            "periphery": sorted(profile.graph_periphery),
            "hangable": report.hangable,
            "witness": list(report.witness) if report.witness else None,
            "triple_witness": (list(report.triple_witness)
                               if report.triple_witness else None),
        }
        if g.labels is not None:
            payload["labels"] = list(g.labels)
        _json(args, payload)
    else:
        lines = [
            f"n: {g.n}",
            f"m: {g.m}",
            f"diameter: {profile.diameter}",
            f"radius: {profile.radius}",
            f"self_centered: {'yes' if profile.radius == profile.diameter else 'no'}",
        ]
        for v in range(g.n):
            lines.append(f"vertex {g.label_of(v)}: ecc={profile.eccentricity[v]} "
                         f"periphery={_vset(g, profile.vertex_periphery[v])}")
        lines.append(f"periphery: {_vset(g, profile.graph_periphery)}")
        lines.append(f"hangable: {'yes' if report.hangable else 'no'}")
        if not report.hangable:
            v, u = report.witness
            lines.append(f"witness: v={g.label_of(v)} u={g.label_of(u)}")
            tv, tu, tw = report.triple_witness
            lines.append(f"triple_witness: v={g.label_of(tv)} u={g.label_of(tu)} "
                         f"w={g.label_of(tw)}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.hangable else EXIT_NEGATIVE


# --- product -----------------------------------------------------------------


# (output name, attribute on both the oracle and the product's profile); the
# corona oracle has no eccentricities, so that statement is skipped for it
_ORACLE_STATEMENTS = (("eccentricities", "eccentricity"), ("diameter", "diameter"),
                      ("vertex_peripheries", "vertex_periphery"),
                      ("periphery", "graph_periphery"))


def _oracle_lines(kind: str, g: Graph, h: Graph, prod: Graph) -> tuple[list[str], bool]:
    """Each closed-form statement against BFS on the product: (lines, failed)."""
    try:
        if kind == "corona":
            dist_g = metrics_mod.all_pairs_distances(g)  # fails first on a bad base
            oracle = products_mod.corona_metric_oracle(g, h)
            distance = partial(products_mod.corona_distance_oracle, dist_g, h)
        elif kind == "cartesian":
            oracle = products_mod.cartesian_metric_oracle(g, h)
            distance = oracle.distance
        elif prod.n < 1:
            raise GraphInputError("empty join")
    except (GraphInputError, DisconnectedGraphError) as exc:
        return [f"oracle {kind}: precondition not met: {exc}"], False
    dist_p = metrics_mod.all_pairs_distances(prod)
    truth = metrics_mod.metric_profile(prod, dist_p)
    if kind == "join":
        hangable = all(p <= truth.graph_periphery for p in truth.vertex_periphery)
        checks = [("hangability", hangable == products_mod.join_hangability_predicate(g, h))]
    else:
        n = prod.n
        checks = [("distances", all(distance(p, q) == dist_p.dist(p, q)
                                    for p in range(n) for q in range(n)))]
        checks += [(name, getattr(oracle, attr) == getattr(truth, attr))
                   for name, attr in _ORACLE_STATEMENTS if hasattr(oracle, attr)]
    lines = [f"oracle {kind} {name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks]
    return lines, not all(ok for _, ok in checks)


def cmd_product(args) -> int:
    g = load_graph(args.g)
    h = load_graph(args.h)
    build = {"corona": products_mod.corona,
             "cartesian": products_mod.cartesian,
             "join": products_mod.join}[args.kind]
    prod, vmap = build(g, h)
    if args.format == "structured":
        payload = {"kind": args.kind, "product": _graph_dict(prod),
                   "vertex_map": [vmap.describe(i, g, h) for i in range(prod.n)]}
        _json(args, payload)
    elif args.format == "graph6":
        _emit(args, g6.to_graph6(prod) + "\n")
    else:
        _emit(args, to_edge_list(prod))
        _emit(args, "vertex map:\n" + vmap.to_text(g, h))
    if not args.oracle_check:
        return EXIT_OK
    lines, failed = _oracle_lines(args.kind, g, h, prod)
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_NEGATIVE if failed else EXIT_OK


# --- embed, power, blocks ------------------------------------------------------


def cmd_embed(args) -> int:
    h = load_graph(args.input, _label_arg(args))
    result = embedding_mod.hangable_embedding(h)
    if args.format == "structured":
        _json(args, {"branch": result.branch,
                     "supergraph": _graph_dict(result.supergraph),
                     "injection": list(result.injection)})
    elif args.format == "graph6":
        _emit(args, g6.to_graph6(result.supergraph) + "\n")
    else:
        _emit(args, f"branch: {result.branch}\n")
        _emit(args, "supergraph:\n" + to_edge_list(result.supergraph))
        _emit(args, "injection:\n")
        for v, iv in enumerate(result.injection):
            _emit(args, f"{h.label_of(v)} -> {iv}\n")
    return EXIT_OK


def cmd_power(args) -> int:
    g = load_graph(args.input, _label_arg(args))
    if args.smallest:
        _reject_graph6(args, "power --smallest")
        k = explorer_mod.smallest_hangable_power(g)
        if args.format == "structured":
            _json(args, {"k": k})
        else:
            _emit(args, f"k = {k}\n")
        return EXIT_OK
    if args.k is None:
        raise GraphInputError("power needs an exponent K or --smallest")
    from .graph import power as power_op
    pg = power_op(g, args.k)
    if args.format == "structured":
        _json(args, {"k": args.k, "power": _graph_dict(pg)})
    else:
        _emit_graph(args, pg)
    return EXIT_OK


def cmd_blocks(args) -> int:
    _reject_graph6(args, "blocks")
    g = load_graph(args.input, _label_arg(args))
    decomp = blocks_mod.biconnected_components(g)
    if args.format == "structured":
        _json(args, {"blocks": [list(b) for b in decomp.blocks],
                     "cut_vertices": sorted(decomp.cut_vertices),
                     "block_graph": blocks_mod.is_block_graph(g),
                     "tree": blocks_mod.is_tree(g)})
    else:
        _emit(args, decomp.to_text(g))
        _emit(args, f"block_graph: {'yes' if blocks_mod.is_block_graph(g) else 'no'}\n")
        _emit(args, f"tree: {'yes' if blocks_mod.is_tree(g) else 'no'}\n")
    return EXIT_OK


# --- classify ------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def cmd_classify(args) -> int:
    _reject_graph6(args, "classify")
    text = _read_source(args.input)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    records = explorer_mod.classify_stream(lines)
    if args.format == "structured":
        for record in records:
            payload = {col: getattr(record, col) for col in explorer_mod.COLUMNS}
            payload["error"] = record.error
            _json(args, payload)
    else:
        _emit(args, "# " + "\t".join(explorer_mod.COLUMNS) + "\n")
        for record in records:
            if record.error is not None:
                row = ["-"] * (len(explorer_mod.COLUMNS) - 1)
                row.append(f"error: {record.error}")
            else:
                row = [_cell(getattr(record, col)) for col in explorer_mod.COLUMNS]
            _emit(args, "\t".join(row) + "\n")
    return EXIT_OK


# --- generate, subgraph-search ---------------------------------------------------


def cmd_generate(args) -> int:
    g = generators.generate(args.family, args.params)
    if args.format == "structured":
        _json(args, _graph_dict(g))
    else:
        _emit_graph(args, g)
    return EXIT_OK


def cmd_subgraph_search(args) -> int:
    _reject_graph6(args, "subgraph-search")
    host = load_graph(args.host)
    max_vertices = args.max_vertices if args.max_vertices is not None else host.n
    report = explorer_mod.search_hangable_subgraphs(
        host, max_vertices, mode=args.mode, budget=args.budget,
        collect_graph6=args.emit_graph6)
    if args.format == "structured":
        payload = {
            "mode": report.mode,
            "max_vertices": report.max_vertices,
            "sizes": [{"size": s.size, "subsets": s.subsets,
                       "connected": s.connected, "hangable": s.hangable}
                      for s in report.sizes],
            "total_hangable": report.total_hangable,
        }
        if report.hangable_graph6 is not None:
            payload["hangable_graph6"] = list(report.hangable_graph6)
        _json(args, payload)
    else:
        _emit(args, f"host: n={host.n} m={host.m}\n")
        _emit(args, f"mode: {report.mode}\n")
        _emit(args, f"max_vertices: {report.max_vertices}\n")
        for s in report.sizes:
            _emit(args, f"size {s.size}: subsets={s.subsets} "
                        f"connected={s.connected} hangable={s.hangable}\n")
        _emit(args, f"total_hangable: {report.total_hangable}\n")
        if report.hangable_graph6 is not None:
            for line in report.hangable_graph6:
                _emit(args, line + "\n")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanggraph",
        description="Metric analysis of finite simple graphs: peripheries, "
                    "hangability, blocks, products, and brute-force search.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured", "graph6"),
                        default="text", help="output format (default: text)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress normal output; rely on the exit code")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="metric profile and hangability of one graph")
    p.add_argument("input", help="file, '-' for stdin, or expression like grid:3x4")
    p.add_argument("--labels", help="comma-separated vertex names, e.g. a,b,c,d,e")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("product", parents=[common],
                       help="corona, cartesian, or join of two graphs")
    p.add_argument("kind", choices=("corona", "cartesian", "join"))
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--oracle-check", action="store_true",
                   help="compare closed-form metrics against BFS on the product")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("embed", parents=[common],
                       help="hangable supergraph adding at most one vertex")
    p.add_argument("input")
    p.add_argument("--labels", help="comma-separated vertex names")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("power", parents=[common], help="graph power")
    p.add_argument("input")
    p.add_argument("k", nargs="?", type=int, default=None)
    p.add_argument("--smallest", action="store_true",
                   help="print the least k whose power is hangable")
    p.add_argument("--labels", help="comma-separated vertex names")
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("blocks", parents=[common],
                       help="biconnected blocks and cut vertices")
    p.add_argument("input")
    p.add_argument("--labels", help="comma-separated vertex names")
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a stream of graph6 lines")
    p.add_argument("input", help="file of graph6 lines, or '-' for stdin")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("generate", parents=[common], help="emit a named family")
    p.add_argument("family", choices=sorted(generators.FAMILIES))
    p.add_argument("params", nargs="+", type=int)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("subgraph-search", parents=[common],
                       help="count hangable induced subgraphs of a host")
    p.add_argument("host")
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--mode", choices=("induced", "connected-induced"),
                   default="connected-induced")
    p.add_argument("--emit-graph6", action="store_true",
                   help="also list the hangable subgraphs in graph6")
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="subset budget (default 10^7)")
    p.set_defaults(fn=cmd_subgraph_search)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except explorer_mod.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
