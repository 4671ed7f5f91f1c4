"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each hanggraph module from outside the
program.  A wrapper replaces the function object in every hanggraph module
that holds it, so `explorer.check_hangable` and `metrics.check_hangable` are
both covered, and `uninstall` puts the originals back.  Each call records a
span (name, start, end, parent, op id); the op id is the index of the
top-level program call the span descends from.  Spans are kept in memory up
to a cap and written out at the end.  Self time and per-layer busy time
accumulate as spans close, so the cap never changes the metrics.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Layers are the package modules; these are the public functions wrapped in each.
LAYERS = {
    "graph6": ("from_graph6", "to_graph6"),
    "graph": ("complement", "power", "induced_subgraph", "disjoint_union",
              "from_edge_list", "parse_edge_list", "is_connected"),
    "kernels": ("apsp", "is_connected_masks", "hangable_subset", "hangable_triples",
                "is_block_graph_masks", "smallest_power_k", "classify_bits",
                "corona_verify", "cartesian_verify", "join_verify"),
    "metrics": ("bfs_distances", "all_pairs_distances", "metric_profile",
                "profile_of_matrix", "is_self_centered", "check_hangable",
                "check_hangable_triples"),
    "blocks": ("biconnected_components", "is_block_graph", "is_tree"),
    "explorer": ("classify_graph", "is_self_complementary", "smallest_hangable_power",
                 "search_hangable_subgraphs"),
    "products": ("corona", "cartesian", "join", "corona_distance_oracle",
                 "corona_metric_oracle", "cartesian_metric_oracle",
                 "join_hangability_predicate", "universal_vertices"),
    "embedding": ("hangable_embedding", "verify_induced_subgraph"),
    "cli": ("main", "cmd_analyze", "cmd_product", "cmd_embed", "cmd_power",
            "cmd_blocks", "cmd_classify", "cmd_generate", "cmd_subgraph_search"),
}

GRAPH_BUILDS = ("complement", "power", "induced_subgraph", "disjoint_union", "from_edge_list")
PRODUCT_BUILDS = ("corona", "cartesian", "join")
PRODUCT_ORACLES = ("corona_distance_oracle", "corona_metric_oracle",
                   "cartesian_metric_oracle", "join_hangability_predicate")

# Vertex count of a kernel call, read from its positional arguments.
KERNEL_N = {
    "apsp": lambda a: len(a[0]),
    "is_connected_masks": lambda a: len(a[0]),
    "is_block_graph_masks": lambda a: len(a[0]),
    "hangable_subset": lambda a: a[1],
    "hangable_triples": lambda a: a[1],
    "smallest_power_k": lambda a: a[1],
    "classify_bits": lambda a: a[0],
    "corona_verify": lambda a: len(a[0]) * (1 + len(a[2])),
    "cartesian_verify": lambda a: len(a[0]) * len(a[2]),
    "join_verify": lambda a: len(a[0]) + len(a[1]),
}
WORD_BITS = 64  # compiled kernels take masks of at most this many vertices


class Tracer:
    def __init__(self, cap: int = 100_000):
        self.cap = cap
        self.spans: list = []     # (name, start_ns, end_ns, parent span index, op)
        self.dropped = 0
        self.stack: list = []     # open frames: [name, layer, start_ns, child_ns, index]
        self.stats: dict = {}     # name -> [calls, total_ns, self_ns, raised]
        self.layer_busy: dict = {}  # layer -> ns in spans whose parent is another layer
        self.top_ns = 0           # ns covered by top-level spans
        self.op = -1
        self.fallback_calls = 0   # kernel calls on more than WORD_BITS vertices
        self.apsp_in_classify = 0
        self._patched: list = []

    def _open(self, name: str, layer: str) -> list:
        if not self.stack:
            self.op += 1
        index = -1
        if len(self.spans) < self.cap:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        frame = [name, layer, 0, 0, index]
        self.stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list, raised: bool) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        name, layer, start, child, index = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        st[3] += raised
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self.top_ns += dur
        else:
            parent[3] += dur
        if parent is None or parent[1] != layer:
            self.layer_busy[layer] = self.layer_busy.get(layer, 0) + dur
        if index >= 0:
            self.spans[index] = (name, start, end, parent[4] if parent else -1, self.op)

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around work the wrappers cannot see, such as a child process."""
        frame = self._open(name, layer)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(frame, raised)

    def _wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        n_of = KERNEL_N.get(fname) if layer == "kernels" else None
        in_classify = "explorer.classify_graph"
        tracer = self

        def traced(*args, **kwargs):
            if n_of is not None:
                if n_of(args) > WORD_BITS:
                    tracer.fallback_calls += 1
                if fname == "apsp" and any(f[0] == in_classify for f in tracer.stack):
                    tracer.apsp_in_classify += 1
            frame = tracer._open(name, layer)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                tracer._close(frame, raised)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hanggraph" or key.startswith("hanggraph."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"hanggraph.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _stat(self, name: str, field: int) -> int:
        return self.stats.get(name, (0, 0, 0, 0))[field]

    def _sum(self, layer: str, names, field: int) -> int:
        return sum(self._stat(f"{layer}.{n}", field) for n in names)

    def layer_metrics(self, timed_ns: int) -> dict[str, float]:
        """Per-layer metrics of the traced work; timed_ns is its measured time."""
        calls, total, self_ns, raised = 0, 1, 2, 3
        s = 1e-9
        cb_calls = self._stat("kernels.classify_bits", calls)
        graphs = self._stat("explorer.classify_graph", calls)
        cmds = [n for n in LAYERS["cli"] if n.startswith("cmd_")]
        return {
            "kernels.classify_bits.us_per_call":
                self._stat("kernels.classify_bits", total) / cb_calls / 1e3 if cb_calls else 0.0,
            "kernels.classify_bits.calls": cb_calls,
            "kernels.apsp.calls": self._stat("kernels.apsp", calls),
            "kernels.apsp.busy_s": self._stat("kernels.apsp", total) * s,
            "kernels.hangable_subset.busy_s": self._stat("kernels.hangable_subset", total) * s,
            "kernels.hangable_triples.busy_s": self._stat("kernels.hangable_triples", total) * s,
            "kernels.pure_fallback_calls": self.fallback_calls,
            "kernels.share": self.layer_busy.get("kernels", 0) / timed_ns if timed_ns else 0.0,
            "metrics.self_s": self._sum("metrics", LAYERS["metrics"], self_ns) * s,
            "metrics.calls": self._sum("metrics", LAYERS["metrics"], calls),
            "graph6.parse_s": self._stat("graph6.from_graph6", total) * s,
            "graph6.lines": self._stat("graph6.from_graph6", calls),
            "graph6.errors": self._stat("graph6.from_graph6", raised),
            "graph.build_s": self._sum("graph", GRAPH_BUILDS, total) * s,
            "graph.power.calls": self._stat("graph.power", calls),
            "blocks.busy_s": self.layer_busy.get("blocks", 0) * s,
            "blocks.calls": self._sum("blocks", LAYERS["blocks"], calls),
            "explorer.classify_graph.self_s": self._stat("explorer.classify_graph", self_ns) * s,
            "explorer.self_complementary_s":
                self._stat("explorer.is_self_complementary", total) * s,
            "explorer.smallest_power_s": self._stat("explorer.smallest_hangable_power", total) * s,
            "explorer.subgraph_search_s":
                self._stat("explorer.search_hangable_subgraphs", total) * s,
            "explorer.apsp_per_graph": self.apsp_in_classify / graphs if graphs else 0.0,
            "products.build_s": self._sum("products", PRODUCT_BUILDS, total) * s,
            "products.oracle_s": self._sum("products", PRODUCT_ORACLES, total) * s,
            "embedding.busy_s": self.layer_busy.get("embedding", 0) * s,
            "cli.self_s": self._sum("cli", cmds, self_ns) * s,
            "bench.uncovered_share": (timed_ns - self.top_ns) / timed_ns if timed_ns else 0.0,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                 "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sp in self.spans:
                if sp is not None:
                    fh.write(json.dumps(sp) + "\n")
