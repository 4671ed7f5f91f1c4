"""Command-line surface.

Subcommands: analyze, product, embed, power, blocks, classify, generate,
subgraph-search.  Graph inputs are a file path, "-" for stdin, or a generator
expression like "cycle:7" or "grid:3x4"; files may hold either the edge-list
format ("n m" header, one "u v" line per edge, '#' comments) or a single
graph6 line; the two are distinguished by the first byte, since a digit can
never start a graph6 line.

Exit codes: 0 success (for analyze: hangable), 1 analyze's connected-but-not-
hangable verdict or a FAIL from --oracle-check, 2 unparseable input, bad
arguments, a graph past the 32767 vertices a distance matrix may have, or an
input too large for the memory at hand (one "error:" line naming the vertex
count of each graph loaded so far), 3 disconnected input
where connectivity is required, 4 search budget refused, 141 (128 + SIGPIPE,
as a shell reports a process SIGPIPE ended) when the reader of stdout goes
away before the output is written.
All normal output is deterministic: same input, same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Iterator, Sequence

from . import blocks as blocks_mod
from . import embedding as embedding_mod
from . import explorer as explorer_mod
from . import generators
from . import graph6 as g6
from . import kernels
from . import metrics as metrics_mod
from . import products as products_mod
from .graph import (DisconnectedGraphError, Graph, GraphInputError,
                    parse_edge_list, to_edge_list)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141


_CHUNK = 1 << 16  # most bytes taken from the input in one read

# the vertex count of each graph the running command has loaded, for the
# message that ends it when memory runs out
_loaded_sizes: list[int] = []


def _input_lines(source: str) -> Iterator[list[str]]:
    """The lines of a file, or of stdin for "-", one list per read, as the
    input arrives.  Each read takes what is there, up to 64 KiB, so a line
    from a pipe is handed on as soon as it arrives and memory stays flat on
    any input.  The bytes are decoded as UTF-8 with surrogateescape whatever
    the locale: an invalid byte becomes a lone surrogate that no parser
    accepts, so it ends in a parse error.  Each read is cut after its last
    newline, where splitting the whole text would also break, so
    ``str.splitlines`` finds the lines it would find in the whole text.  A
    file that cannot be opened raises ``GraphInputError`` here, before the
    first read.  A stdin with no byte layer, such as a StringIO, is read
    whole."""
    if source == "-":
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:
            return iter([sys.stdin.read().splitlines()])
    else:
        try:
            stream = open(source, "rb")
        except OSError as exc:
            raise GraphInputError(f"cannot read {source!r}: {exc}") from None
    return _read_lines(stream, source)


def _read_lines(stream, source: str) -> Iterator[list[str]]:
    tail = bytearray()  # the bytes after the last newline read, grown in place
    try:
        while True:
            try:
                chunk = stream.read1(_CHUNK)
            except OSError as exc:
                raise GraphInputError(f"cannot read {source!r}: {exc}") from None
            if not chunk:
                break
            cut = chunk.rfind(b"\n") + 1
            if cut:
                tail += chunk[:cut]
                yield tail.decode("utf-8", "surrogateescape").splitlines()
                tail = bytearray(chunk[cut:])
            else:
                tail += chunk
    finally:
        if source != "-":
            stream.close()
    if tail:
        yield tail.decode("utf-8", "surrogateescape").splitlines()


def load_graph(source: str, labels: Sequence[str] | None = None) -> Graph:
    """Resolve one graph from a path, "-", or a generator expression."""
    if generators.looks_like_expression(source):
        g = generators.from_expression(source)
    else:
        every_line = [line for chunk in _input_lines(source) for line in chunk]
        lines = (ln for ln in every_line if ln.strip() and not ln.lstrip().startswith("#"))
        first = next(lines, None)
        if first is None:
            raise GraphInputError(f"no graph found in {source!r}")
        if first.lstrip()[0].isdigit():
            g = parse_edge_list("\n".join(every_line))
        else:
            count = 1 + sum(1 for _ in lines)
            if count > 1:
                raise GraphInputError(f"{source!r} holds {count} graph6 lines; expected one graph")
            g = g6.from_graph6(first)
    if labels is not None:
        if len(labels) != g.n:
            raise GraphInputError(
                f"--labels gives {len(labels)} names for {g.n} vertices")
        if len(set(labels)) != len(labels):
            raise GraphInputError("--labels must be unique")
        g = Graph(g.n, g.masks, tuple(labels))
    _loaded_sizes.append(g.n)
    return g


def _vset(labels: Sequence[str], vs) -> str:
    return "{" + ", ".join([labels[v] for v in sorted(vs)]) + "}"


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
        labels = g.labels if g.labels is not None else list(map(str, range(g.n)))
        lines += [f"vertex {label}: ecc={ecc} periphery={_vset(labels, vp)}"
                  for label, ecc, vp in zip(labels, profile.eccentricity,
                                            profile.vertex_periphery)]
        lines.append(f"periphery: {_vset(labels, profile.graph_periphery)}")
        lines.append(f"hangable: {'yes' if report.hangable else 'no'}")
        if not report.hangable:
            v, u = report.witness
            lines.append(f"witness: v={labels[v]} u={labels[u]}")
            tv, tu, tw = report.triple_witness
            lines.append(f"triple_witness: v={labels[tv]} u={labels[tu]} w={labels[tw]}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.hangable else EXIT_NEGATIVE


# --- product -----------------------------------------------------------------


# (output name, attribute on both the oracle and the product's profile); the
# corona oracle has no eccentricities, so that statement is skipped for it
_ORACLE_STATEMENTS = (("eccentricities", "eccentricity"), ("diameter", "diameter"),
                      ("vertex_peripheries", "vertex_periphery"),
                      ("periphery", "graph_periphery"))


def _oracle_lines(kind: str, g: Graph, h: Graph, prod: Graph) -> tuple[list[str], bool]:
    """Each closed-form statement against BFS on the product: (lines, failed).

    A precondition that fails every statement is the one line.  The corona's
    distance forms hold on any nonempty connected base, so a base or copy
    factor that only its metric forms refuse is checked for distances and
    then named on a line of its own.
    """
    refused = None
    try:
        if kind == "corona":
            # an empty or disconnected base fails first
            distances = products_mod.corona_distance_matrix(g, h)
            try:
                oracle = products_mod.corona_metric_oracle(g, h)
            except GraphInputError as exc:
                oracle, refused = None, exc
        elif kind == "cartesian":
            oracle = products_mod.cartesian_metric_oracle(g, h)
            distances = products_mod.cartesian_distance_matrix(g, h)
        elif prod.n < 1:
            raise GraphInputError("empty join")
    except (GraphInputError, DisconnectedGraphError) as exc:
        return [f"oracle {kind}: precondition not met: {exc}"], False
    if kind == "join":
        hangable = metrics_mod.check_hangable(prod).hangable
        checks = [("hangability", hangable == products_mod.join_hangability_predicate(g, h))]
    else:
        checks = [("distances", distances == list(metrics_mod.connected_apsp(prod)))]
        if oracle is not None:
            truth = metrics_mod.metric_profile(prod)
            checks += [(name, getattr(oracle, attr) == getattr(truth, attr))
                       for name, attr in _ORACLE_STATEMENTS if hasattr(oracle, attr)]
    lines = [f"oracle {kind} {name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks]
    if refused is not None:
        lines.append(f"oracle {kind}: precondition not met: {refused}")
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
        k = kernels.smallest_power_k(metrics_mod.connected_apsp(g), g.n)
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
                     "block_graph": decomp.block_graph,
                     "tree": blocks_mod.is_tree(g)})
    else:
        _emit(args, decomp.to_text(g))
        _emit(args, f"block_graph: {'yes' if decomp.block_graph else 'no'}\n")
        _emit(args, f"tree: {'yes' if blocks_mod.is_tree(g) else 'no'}\n")
    return EXIT_OK


# --- classify ------------------------------------------------------------------


_CELL = {None: "-", True: "true", False: "false"}  # the text of a yes/no field
_ERROR_CELLS = "-\t" * (len(explorer_mod.COLUMNS) - 1)


def _text_row(record: explorer_mod.Classification) -> str:
    """The record as one tab-separated text line: a column per field of
    ``COLUMNS``, "-" for None, "true"/"false" for yes/no fields; an error
    record has "-" in every column but the last, which holds the error."""
    (n, m, connected, tree, block_graph, self_centered, hangable, diameter, radius,
     periphery_size, complement_hangable, self_complementary, k, note, error) = record
    if error is not None:
        return f"{_ERROR_CELLS}error: {error}\n"
    cell = _CELL
    return (f"{n}\t{m}\t{cell[connected]}\t{cell[tree]}\t{cell[block_graph]}\t"
            f"{cell[self_centered]}\t{cell[hangable]}\t{'-' if diameter is None else diameter}\t"
            f"{'-' if radius is None else radius}\t"
            f"{'-' if periphery_size is None else periphery_size}\t"
            f"{cell[complement_hangable]}\t{cell[self_complementary]}\t"
            f"{'-' if k is None else k}\t{'-' if note is None else note}\n")


def cmd_classify(args) -> int:
    """Classify the input's graph6 lines, one record per non-blank line in
    input order, written as each arrives; stdout is flushed before each read
    that may wait for input."""
    _reject_graph6(args, "classify")
    chunks = _input_lines(args.input)
    structured = args.format == "structured"
    if not structured:
        _emit(args, "# " + "\t".join(explorer_mod.COLUMNS) + "\n")
    for lines in chunks:
        for record in explorer_mod.classify_stream([ln for ln in lines if ln.strip()]):
            if structured:
                _json(args, record._asdict())
            else:
                _emit(args, _text_row(record))
        sys.stdout.flush()
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each subcommand NAME runs the module's ``cmd_NAME`` (dashes as
    underscores), looked up when ``main`` runs, so the parser holds no
    function objects and a replaced ``cmd_*`` attribute takes effect.
    """
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

    p = sub.add_parser("product", parents=[common],
                       help="corona, cartesian, or join of two graphs")
    p.add_argument("kind", choices=("corona", "cartesian", "join"))
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--oracle-check", action="store_true",
                   help="compare closed-form metrics against BFS on the product")

    p = sub.add_parser("embed", parents=[common],
                       help="hangable supergraph adding at most one vertex")
    p.add_argument("input")
    p.add_argument("--labels", help="comma-separated vertex names")

    p = sub.add_parser("power", parents=[common], help="graph power")
    p.add_argument("input")
    p.add_argument("k", nargs="?", type=int, default=None)
    p.add_argument("--smallest", action="store_true",
                   help="print the least k whose power is hangable")
    p.add_argument("--labels", help="comma-separated vertex names")

    p = sub.add_parser("blocks", parents=[common],
                       help="biconnected blocks and cut vertices")
    p.add_argument("input")
    p.add_argument("--labels", help="comma-separated vertex names")

    p = sub.add_parser("classify", parents=[common],
                       help="classify a stream of graph6 lines")
    p.add_argument("input", help="file of graph6 lines, or '-' for stdin")

    p = sub.add_parser("generate", parents=[common], help="emit a named family")
    p.add_argument("family", choices=sorted(generators.FAMILIES))
    p.add_argument("params", nargs="+", type=int)

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
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    _loaded_sizes.clear()
    try:
        return command(args)
    except BrokenPipeError:
        # the reader is gone: what is still buffered, and the interpreter's
        # last flush, go to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except explorer_mod.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        sizes = " + ".join(map(str, _loaded_sizes))
        print(f"error: out of memory{f' on input of {sizes} vertices' if sizes else ''}",
              file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
