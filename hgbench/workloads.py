"""The four benchmark workloads: sweep, classify, query and cold.

Each workload makes its inputs from the seed before any timing and hands the
program only graph6 or edge-list files (or, for the sweep, edge-subset
indices).  Ops run in a closed loop with one client.  Every answer named
in a workload's docstring is checked with the independent checker in
`oracle`, outside the timed region.  Work is split into units, so a run can
stop on a time budget (measured runs) or after a fixed number of units (the
traced run, which then compares like with like across versions).
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from itertools import combinations, count
from math import ceil
from pathlib import Path

import calibrate
import oracle
from hanggraph import cli, corpus, kernels, metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Below 0.1% an op's tail is timer and scheduler jitter, not the program.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
CHILD_TIMEOUT_S = 60
CALIBRATE_EVERY_NS = 25_000_000  # measured time between two reference readings


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def mix(seed: int, *parts: int) -> int:
    """A derived seed, so each input stream depends only on the run seed."""
    for p in parts:
        seed = seed * 1_000_003 + p
    return seed


# --- measurement ---------------------------------------------------------------


class Latency:
    """Bounded latency histogram.

    Buckets keep 8 significant bits of the nanosecond count (under 0.4%
    apart), and each bucket keeps the sum of its samples, so a percentile
    reports the mean of the measured samples in its bucket.  Memory stays
    flat however many ops a faster program completes.
    """

    def __init__(self):
        self.buckets: dict[int, list[int]] = {}
        self.count = 0

    def add(self, ns: int, times: int = 1) -> None:
        shift = ns.bit_length() - 8
        key = ns >> shift << shift if shift > 0 else ns
        b = self.buckets.get(key)
        if b is None:
            self.buckets[key] = [times, ns * times]
        else:
            b[0] += times
            b[1] += ns * times
        self.count += times

    def scaled(self, factor: float) -> "Latency":
        """The same samples with every duration multiplied by `factor`."""
        out = Latency()
        for n, total in self.buckets.values():
            out.add(round(total / n * factor), n)
        return out

    def percentile_ms(self, p: float) -> float:
        rank = max(1, ceil(p / 100 * self.count))
        seen = 0
        for key in sorted(self.buckets):
            n, total = self.buckets[key]
            seen += n
            if seen >= rank:
                return total / n / 1e6
        return 0.0

    def tail(self, percentiles=TAIL_PERCENTILES) -> tuple[float, float, int]:
        """(percentile, ms, samples beyond): the highest of `percentiles` with
        at least ten samples beyond it, or the lowest when none has."""
        for p in percentiles:
            beyond = self.count - ceil(p / 100 * self.count)
            if beyond >= 10 or p == percentiles[-1]:
                return p, self.percentile_ms(p), beyond


class Tally:
    """What one stretch of a run did: ops, failures, measured time, latencies.

    `phase` names the stretch of work it belongs to; the windows of one
    measured run share a phase.
    """

    def __init__(self, phase: str = ""):
        self.phase = phase
        self.ops = 0
        self.failed = 0
        self.timed_ns = 0
        self.lat = Latency()
        self.notes: list[str] = []

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.notes) < 5:
            self.notes.append(what)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.timed_ns / 1e9) if self.timed_ns else 0.0

    def scaled(self, factor: float) -> "Tally":
        """This tally with its measured time and latencies multiplied by `factor`."""
        out = Tally(self.phase)
        out.ops, out.failed, out.notes = self.ops, self.failed, list(self.notes)
        out.timed_ns = round(self.timed_ns * factor)
        out.lat = self.lat.scaled(factor)
        return out

    def merged(self, others) -> "Tally":
        """This tally and `others` pooled into one."""
        total = Tally(self.phase)
        for t in (self, *others):
            total.ops += t.ops
            total.failed += t.failed
            total.timed_ns += t.timed_ns
            total.notes += t.notes
            total.lat.count += t.lat.count
            for key, (n, ns) in t.lat.buckets.items():
                b = total.lat.buckets.setdefault(key, [0, 0])
                b[0] += n
                b[1] += ns
        return total


def measure(wl, seconds: float, windows: int, between=None):
    """Run units of work until the measured time reaches `seconds`, split
    into equal windows of measured time, one tally each.  After every
    CALIBRATE_EVERY_NS of measured time, and at least once per window, a
    reading of `wl.reference` is taken outside the measured time; a
    window's readings scale its timings.  `between(fraction)` runs after
    each unit, outside the measured time, with the fraction of the budget
    used so far.  Returns the tallies and each window's readings."""
    budget_ns = seconds * 1e9
    tallies = [Tally("measured") for _ in range(windows)]
    readings: list[list[int]] = [[] for _ in range(windows)]
    readings[0].append(wl.reference.read())
    done_ns = since_ns = 0
    for unit in wl.units():
        if done_ns >= budget_ns:
            break
        w = min(windows - 1, int(done_ns / budget_ns * windows))
        tally = tallies[w]
        before = tally.timed_ns
        wl.run_unit(unit, tally)
        done_ns += tally.timed_ns - before
        since_ns += tally.timed_ns - before
        if since_ns >= CALIBRATE_EVERY_NS or not readings[w]:
            readings[w].append(wl.reference.read())
            since_ns = 0
        if between is not None:
            between(done_ns / budget_ns)
    return tallies, readings


class Workload:
    """Inputs made from a seed, split into units of work.

    `units()` yields the units in a fixed order; `run_unit` times the ops of
    one unit into a tally and checks their answers outside the timed region;
    `finish` makes the checks that need the whole run.  `trace_units` is the
    fixed amount of work a traced run covers.  `reference` is the fixed
    work whose readings scale the run's timings to the reference speed.
    """

    trace_units = 0
    reference = calibrate.CHECKER_BFS
    tail_percentiles = TAIL_PERCENTILES
    tracer = None  # set during traced units by workloads whose ops leave the process

    def units(self):
        raise NotImplementedError

    def run_unit(self, unit, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        pass


def answer_ok(check, out: str, rc: int) -> bool:
    """A check of program output; output it cannot even parse is a wrong answer."""
    try:
        return check(out, rc)
    except (ValueError, KeyError, TypeError, IndexError):
        return False


# --- input helpers --------------------------------------------------------------


def random_graph(n: int, p: float, rng: random.Random):
    return oracle.adjacency(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def random_connected(n: int, p: float, rng: random.Random):
    """Random spanning tree plus independent extra edges."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges += [e for e in combinations(range(n), 2) if rng.random() < p]
    return oracle.adjacency(n, edges)


def to_graph6(adj) -> str:
    n = len(adj)
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [1 if i in adj[j] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return head + body


def to_edge_text(adj) -> str:
    edges = oracle.edge_list(adj)
    return "".join([f"{len(adj)} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def malformed(line: str, kind: int) -> str:
    """A graph6 line broken one of five ways; every result must be rejected."""
    if kind == 0:
        return line[:-1]            # truncated bit field
    if kind == 1:
        return line + "?"           # trailing data
    if kind == 2:
        return line[0] + "!" + line[2:]  # byte below the graph6 range
    if kind == 3:
        return "!" + line[1:]       # invalid size byte
    return ">>graph6<<"             # prefix with no graph


def parse_classify_rows(text: str) -> list[list[str]]:
    return [row.split("\t") for row in text.splitlines() if not row.startswith("# ")]


# --- sweep -----------------------------------------------------------------------

F_CONNECTED = kernels.F_CONNECTED
F_HANGABLE = kernels.F_HANGABLE
F_TRIPLES = kernels.F_HANGABLE_TRIPLES

# frozen totals of connected and hangable labeled graphs per n
FROZEN_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
FROZEN_HANGABLE = {1: 1, 2: 1, 3: 4, 4: 32, 5: 618, 6: 19304}


def sweep_invariants(r) -> bool:
    """Decider agreement and the kmin bound, from one classify_bits result."""
    flags, diam, radius, kmin = r
    if not flags & F_CONNECTED:
        return tuple(r) == (0, -1, -1, -1)
    subset = bool(flags & F_HANGABLE)
    return (subset == bool(flags & F_TRIPLES) and 0 <= radius <= diam
            and 1 <= kmin <= max(diam, 1) and (kmin == 1) == subset)


def expected_bits_result(n: int, bits: int):
    adj = oracle.from_bits(n, bits)
    g = oracle.metric(adj)
    if g is None:
        return (0, -1, -1, -1), None
    flags = F_CONNECTED
    if g.hangable:
        flags |= F_HANGABLE | F_TRIPLES
    if g.radius == g.diameter:
        flags |= kernels.F_SELF_CENTERED
    if oracle.is_block_graph(adj):
        flags |= kernels.F_BLOCK_GRAPH
    if len(oracle.edge_list(adj)) == n - 1:
        flags |= kernels.F_TREE
    return (flags, g.diameter, g.radius, g.smallest_power()), g.hangable


class Sweep(Workload):
    """One op is one `kernels.classify_bits(n, bits)` call.

    A pass covers every labeled graph on n <= 6, interleaved with seeded
    blocks of n = 7 edge-subset indices.  Checked: decider agreement and the
    kmin bound on every graph, the frozen connected and hangable totals of
    every completed pass, and a seeded sample of the first pass against the
    checker and against `check_hangable` on `corpus.graph_from_bits`.
    """

    # The 0.1% tail of a 50-microsecond call is scheduler jitter: across five
    # seeds sweep's p99.9 spread 12% of its median and p99 5%.
    tail_percentiles = TAIL_PERCENTILES[1:]

    def __init__(self, seed: int, workdir: Path, quick: bool):
        self.seed = seed
        self.max_n = 5 if quick else 6
        chunk = 256 if quick else 1024
        self.block = 16 if quick else 128
        small = [(n, b) for n in range(1, self.max_n) for b in range(1 << n * (n - 1) // 2)]
        top = 1 << self.max_n * (self.max_n - 1) // 2
        self.layout = [small] + [[(self.max_n, b) for b in range(lo, min(lo + chunk, top))]
                                 for lo in range(0, top, chunk)]
        self.trace_units = len(self.layout)  # one pass
        sizes = [len(u) + (self.block if i else 0) for i, u in enumerate(self.layout)]
        rng = random.Random(mix(seed, 0))
        picks = sorted(rng.sample(range(sum(sizes)), 50 if quick else 300))
        self.sample_at: dict[int, list[int]] = {}
        start = 0
        for i, size in enumerate(sizes):
            self.sample_at[i] = [p - start for p in picks if start <= p < start + size]
            start += size
        self.samples: list = []
        self.totals: dict[tuple[str, int], dict] = {}  # (phase, pass) -> counts

    def units(self):
        for p in count():
            rng = random.Random(mix(self.seed, 1, p))
            for i, ops in enumerate(self.layout):
                if i:
                    off = rng.randrange(1 << 21 - 7) << 7
                    ops = ops + [(7, b) for b in range(off, off + self.block)]
                yield p, i, ops

    def run_unit(self, unit, tally: Tally) -> None:
        p, i, ops = unit
        classify_bits = kernels.classify_bits
        clock = time.perf_counter_ns
        out = [None] * len(ops)
        lat = [0] * len(ops)
        t_start = clock()
        for k, (n, bits) in enumerate(ops):
            t0 = clock()
            out[k] = classify_bits(n, bits)
            lat[k] = clock() - t0
        tally.timed_ns += clock() - t_start
        tally.ops += len(ops)

        totals = self.totals.setdefault((tally.phase, p), {"units": 0})
        for (n, bits), r, ns in zip(ops, out, lat):
            tally.lat.add(ns)
            if not sweep_invariants(r):
                tally.fail(f"sweep: classify_bits({n}, {bits}) = {r} breaks an invariant")
            elif n <= self.max_n and r[0] & F_CONNECTED:
                c = totals.setdefault(n, [0, 0])
                c[0] += 1
                c[1] += bool(r[0] & F_HANGABLE)
        if p == 0:
            for k in self.sample_at[i]:
                if sweep_invariants(out[k]):
                    self.samples.append((*ops[k], out[k]))
        totals["units"] += 1
        if totals["units"] == len(self.layout):
            for n in range(1, self.max_n + 1):
                got = totals.get(n, [0, 0])
                if got != [FROZEN_CONNECTED[n], FROZEN_HANGABLE[n]]:
                    tally.fail(f"sweep: pass {p} n={n} connected/hangable {got}")

    def finish(self, tally: Tally) -> None:
        for n, bits, r in self.samples:
            want, hangable = expected_bits_result(n, bits)
            ok = tuple(r) == want
            if hangable is not None:
                ok &= metrics.check_hangable(corpus.graph_from_bits(n, bits)).hangable == hangable
            if not ok:
                tally.fail(f"sweep: classify_bits({n}, {bits}) = {r}, expected {want}")


# --- classify --------------------------------------------------------------------


class TimedSink(io.TextIOBase):
    """Captured stdout that stamps each write, giving per-record latency."""

    def __init__(self):
        self.writes: list[tuple[int, str]] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.writes.append((time.perf_counter_ns(), s))
        return len(s)


class Classify(Workload):
    """One op is one input line of `cli.main(["classify", <file>])`, run
    in-process with stdout captured, over seeded graph6 files.

    Each file mixes random n = 4..8 graphs (connected and not), n = 8
    graphs with 14 edges whose degrees match their complement's (the
    self-complementary permutation search), n = 9..11 graphs, prefixed lines
    and malformed lines.  Checked: the exit code, the row count, error rows
    exactly on the malformed lines, and a seeded sample of rows.
    """

    def __init__(self, seed: int, workdir: Path, quick: bool):
        self.seed = seed
        self.workdir = workdir
        # lines per file: small, self-complementary candidates, n = 9..11, prefixed,
        # malformed; the one search-bound line takes about 60% of the time (pure)
        self.mix = (14, 1, 1, 1, 3) if quick else (182, 1, 8, 4, 5)
        self.sampled = 4 if quick else 10
        self.trace_units = 2 if quick else 20
        self.reference = calibrate.CHECKER_ROWS

    def _file(self, i: int):
        rng = random.Random(mix(self.seed, i))
        kinds = [k for k, c in enumerate(self.mix) for _ in range(c)]
        rng.shuffle(kinds)
        lines, graphs = [], []
        for kind in kinds:
            if kind == 1:
                adj = self._selfco_candidate(rng)
            elif kind == 2:
                adj = random_graph(rng.randint(9, 11), rng.uniform(0.25, 0.6), rng)
            else:
                adj = random_graph(rng.randint(4, 8), rng.uniform(0.15, 0.65), rng)
            line = to_graph6(adj)
            if kind == 3:
                line = ">>graph6<<" + line
            elif kind == 4:
                line, adj = malformed(line, rng.randrange(5)), None
            lines.append(line)
            graphs.append(adj)
        return lines, graphs

    @staticmethod
    def _selfco_candidate(rng: random.Random):
        pairs = list(combinations(range(8), 2))
        while True:
            adj = oracle.adjacency(8, rng.sample(pairs, 14))
            if sorted(map(len, adj)) == sorted(7 - len(a) for a in adj):
                return adj

    def units(self):
        return count()

    def run_unit(self, i: int, tally: Tally) -> None:
        lines, graphs = self._file(i)
        path = self.workdir / "classify.g6"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sink = TimedSink()
        main = cli.main
        rc = None
        with redirect_stdout(sink), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter_ns()
            try:
                rc = main(["classify", str(path)])
            except Exception as exc:  # an unexpected raise fails every line of the file
                tally.fail(f"classify: file {i} raised {exc!r}", len(lines))
            t1 = time.perf_counter_ns()
        tally.timed_ns += t1 - t0
        tally.ops += len(lines)
        if rc is None:
            return
        prev = t0
        for stamp, text in sink.writes:
            if text.startswith("# "):
                continue
            k = text.count("\n")
            for _ in range(k):
                tally.lat.add((stamp - prev) // k)
            prev = stamp
        rows = parse_classify_rows("".join(s for _, s in sink.writes))
        if rc != 0 or len(rows) != len(lines):
            tally.fail(f"classify: file {i} exit {rc}, {len(rows)} rows for {len(lines)} lines",
                       len(lines))
            return
        for k, (row, adj) in enumerate(zip(rows, graphs)):
            if (adj is None) != row[-1].startswith("error: "):
                tally.fail(f"classify: file {i} line {k} error row mismatch: {row}")
        rng = random.Random(mix(self.seed, i, 1))
        valid = [k for k, adj in enumerate(graphs) if adj is not None]
        for k in rng.sample(valid, min(self.sampled, len(valid))):
            want = oracle.classify_row(graphs[k])
            if rows[k] != want:
                tally.fail(f"classify: file {i} line {k}: {rows[k]} != {want}")


# --- query -----------------------------------------------------------------------


def _json_has(out: str, want: dict) -> bool:
    got = json.loads(out)
    return all(got[k] == v for k, v in want.items())


class Query(Workload):
    """One op is one single-graph question through `cli.main`, in-process:
    `analyze`, `blocks`, `embed`, `power --smallest`, `product
    --oracle-check` and a small `subgraph-search`, all with structured
    output.  Inputs are seeded random connected graphs at n = 16..64 and
    above 64, grids, hypercubes and cycles, and corona and cartesian
    products on either side of 64 vertices.  Every answer and exit code is
    checked.
    """

    VARIANTS = 3

    def __init__(self, seed: int, workdir: Path, quick: bool):
        self.workdir = workdir
        self.files = 0
        self.ops = []  # per slot: one (argv, check) per variant
        rng = random.Random(mix(seed, 0))
        if quick:
            sizes, grid_side, cube, cyc = (8, 12, 70), (3, 4), 3, (6, 9)
            blocks_n, embed_n, power_n = (12,), (8,), (10,)
            corona_n, cart_n, host_n = ((3, 2),), ((3, 3),), 6
        else:
            sizes, grid_side, cube, cyc = (16, 32, 48, 64, 80, 100), (8, 9), 6, (60, 70)
            blocks_n, embed_n, power_n = (40, 90), (20, 30), (24, 40)
            corona_n, cart_n, host_n = ((8, 7), (9, 7)), ((8, 8), (9, 8)), 10
        for k, n in enumerate(sizes):
            self._slot(lambda: self._analyze(random_connected(n, 2.5 / n, rng), k % 2 == 1))
        self._slot(lambda: self._analyze_expr(f"grid:{grid_side[0]}x{rng.randint(*grid_side)}"))
        self._slot(lambda: self._analyze_expr(f"hypercube:{cube}"))
        self._slot(lambda: self._analyze_expr(f"cycle:{rng.randint(*cyc)}"))
        for k, n in enumerate(blocks_n):
            self._slot(lambda: self._blocks(random_connected(n, 0.5 / n, rng), k % 2 == 1))
        for n in embed_n:
            self._slot(lambda v: self._embed(n, v, rng), per_variant=True)
        for n in power_n:
            self._slot(lambda: self._power(random_connected(n, 1.5 / n, rng)))
        for ng, nh in corona_n:
            self._slot(lambda: self._product("corona", random_connected(ng, 0.3, rng),
                                             random_connected(nh, 0.3, rng)))
        for ng, nh in cart_n:
            self._slot(lambda: self._product("cartesian", random_connected(ng, 0.2, rng),
                                             random_connected(nh, 0.2, rng)))
        self._slot(lambda: self._subgraphs(random_connected(host_n, 0.3, rng), 4))
        self.trace_units = len(self.ops) * self.VARIANTS

    def _slot(self, make, per_variant: bool = False) -> None:
        self.ops.append([make(v) if per_variant else make() for v in range(self.VARIANTS)])

    def _write(self, adj, as_graph6: bool) -> str:
        self.files += 1
        path = self.workdir / f"q{self.files}.{'g6' if as_graph6 else 'txt'}"
        path.write_text(to_graph6(adj) + "\n" if as_graph6 else to_edge_text(adj),
                        encoding="utf-8")
        return str(path)

    def _analyze(self, adj, as_graph6: bool):
        return self._analyze_input(self._write(adj, as_graph6), adj)

    def _analyze_expr(self, expr: str):
        return self._analyze_input(expr, oracle.from_expression(expr))

    @staticmethod
    def _analyze_input(source: str, adj):
        want = oracle.analyze_answer(adj)
        code = 0 if want["hangable"] else 1
        return (["analyze", source, "--format", "structured"],
                lambda out, rc: rc == code and _json_has(out, want))

    def _blocks(self, adj, as_graph6: bool):
        bl, cuts = oracle.blocks(adj)
        want = {"blocks": bl, "cut_vertices": cuts,
                "block_graph": oracle.is_block_graph(adj),
                "tree": len(oracle.edge_list(adj)) == len(adj) - 1}
        return (["blocks", self._write(adj, as_graph6), "--format", "structured"],
                lambda out, rc: rc == 0 and _json_has(out, want))

    def _embed(self, n: int, variant: int, rng: random.Random):
        """Variant 0 takes the identity branch, 1 the cone, 2 the split cone."""
        if variant == 1:
            half = n // 2
            a, b = random_connected(half, 0.2, rng), random_connected(n - half, 0.2, rng)
            adj = oracle.adjacency(n, oracle.edge_list(a) +
                                   [(u + half, v + half) for u, v in oracle.edge_list(b)])
        else:
            adj = random_graph(n, 0.3, rng)
            hubs = (0,) if variant == 0 else (0, 1)  # one universal vertex keeps it hangable
            for h in hubs:
                for v in range(n):
                    if v != h:
                        adj[h].add(v)
                        adj[v].add(h)
        branch = ("identity", "cone", "split-cone")[variant]

        def check(out: str, rc: int) -> bool:
            got = json.loads(out)
            sup = got["supergraph"]
            big = oracle.adjacency(sup["n"], sup["edges"])
            image = got["injection"]
            g = oracle.metric(big)
            return (rc == 0 and got["branch"] == branch
                    and len(big) == n + (branch != "identity")
                    and g is not None and g.hangable
                    and oracle.is_induced_embedding(big, adj, image))

        return ["embed", self._write(adj, False), "--format", "structured"], check

    def _power(self, adj):
        want = {"k": oracle.metric(adj).smallest_power()}
        return (["power", self._write(adj, True), "--smallest", "--format", "structured"],
                lambda out, rc: rc == 0 and _json_has(out, want))

    def _product(self, kind: str, g, h):
        prod = oracle.corona(g, h) if kind == "corona" else oracle.cartesian(g, h)
        want = {"n": len(prod), "edges": [list(e) for e in oracle.edge_list(prod)]}
        checks = 4 if kind == "corona" else 5

        def check(out: str, rc: int) -> bool:
            head, _, rest = out.partition("\n")
            verdicts = rest.splitlines()
            got = json.loads(head)["product"]
            return (rc == 0 and got["n"] == want["n"] and got["edges"] == want["edges"]
                    and len(verdicts) == checks
                    and all(v.endswith(": PASS") for v in verdicts))

        return (["product", kind, self._write(g, False), self._write(h, True),
                 "--oracle-check", "--format", "structured"], check)

    def _subgraphs(self, adj, max_vertices: int):
        sizes = oracle.subgraph_counts(adj, max_vertices)
        want = {"mode": "connected-induced", "max_vertices": max_vertices, "sizes": sizes,
                "total_hangable": sum(s["hangable"] for s in sizes)}
        return (["subgraph-search", self._write(adj, False), "--max-vertices",
                 str(max_vertices), "--format", "structured"],
                lambda out, rc: rc == 0 and _json_has(out, want))

    def units(self):
        for r in count():
            for slot in self.ops:
                yield slot[r % self.VARIANTS]

    def run_unit(self, unit, tally: Tally) -> None:
        argv, check = unit
        out = io.StringIO()
        main = cli.main
        rc = None
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter_ns()
            try:
                rc = main(argv)
            except Exception as exc:  # an unexpected raise is a failed op
                tally.fail(f"query: {argv} raised {exc!r}")
            t1 = time.perf_counter_ns()
        tally.timed_ns += t1 - t0
        tally.ops += 1
        tally.lat.add(t1 - t0)
        if rc is not None and not answer_ok(check, out.getvalue(), rc):
            tally.fail(f"query: wrong answer to {argv} (exit {rc})")


# --- cold ------------------------------------------------------------------------


def run_cli_process(args: list[str]) -> tuple[int, str]:
    done = subprocess.run([sys.executable, "-m", "hanggraph", *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return done.returncode, done.stdout


class Cold(Workload):
    """One op is one `python -m hanggraph ...` process, run one after
    another: `analyze` on generator expressions and on small graph6 files,
    and `classify` on a small file.  Checked: stdout and the exit code."""

    ROUNDS = 32  # more than a run gets through, so no input repeats within a run
    # A run makes about 100 processes, so the default ladder would flip
    # between p90 and p75 from run to run; p90 keeps about ten samples beyond.
    tail_percentiles = (90.0,)
    EXPRESSIONS = (
        lambda r: f"cycle:{r.randint(5, 30)}",
        lambda r: f"grid:{r.randint(2, 5)}x{r.randint(2, 5)}",
        lambda r: f"path:{r.randint(3, 20)}",
        lambda r: f"complete_bipartite:{r.randint(1, 5)}x{r.randint(2, 5)}",
        lambda r: f"hypercube:{r.randint(2, 4)}",
        lambda r: f"complete:{r.randint(2, 10)}",
    )

    def __init__(self, seed: int, workdir: Path, quick: bool):
        self.reference = calibrate.interpreter(child_env())
        rng = random.Random(mix(seed, 0))
        self.ops = []
        rounds = 1 if quick else self.ROUNDS
        for r in range(rounds):
            for _ in range(3):
                expr = rng.choice(self.EXPRESSIONS)(rng)
                self.ops.append(Query._analyze_input(expr, oracle.from_expression(expr)))
            adj = random_connected(rng.randint(6, 9), 0.25, rng)
            path = workdir / f"cold{r}.g6"
            path.write_text(to_graph6(adj) + "\n", encoding="utf-8")
            self.ops.append(Query._analyze_input(str(path), adj))
            self.ops.append(self._classify_file(workdir / f"cold{r}-classify.g6", rng))
        self.trace_units = len(self.ops) if quick else 10

    @staticmethod
    def _classify_file(path: Path, rng: random.Random):
        graphs = [random_graph(rng.randint(4, 8), rng.uniform(0.2, 0.6), rng) for _ in range(19)]
        lines = [to_graph6(adj) for adj in graphs]
        at = rng.randrange(len(lines))
        lines.insert(at, malformed(lines[at], rng.randrange(5)))
        graphs.insert(at, None)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = [oracle.classify_row(adj) if adj is not None else None for adj in graphs]

        def check(out: str, rc: int) -> bool:
            rows = parse_classify_rows(out)
            return rc == 0 and len(rows) == len(want) and all(
                row[-1].startswith("error: ") if w is None else row == w
                for row, w in zip(rows, want))

        return ["classify", str(path)], check

    def units(self):
        for r in count():
            yield self.ops[r % len(self.ops)]

    def run_unit(self, unit, tally: Tally) -> None:
        args, check = unit
        span = self.tracer.span("cli.process", "cli") if self.tracer else nullcontext()
        t0 = time.perf_counter_ns()
        try:
            with span:
                rc, out = run_cli_process(args)
        except (OSError, subprocess.SubprocessError) as exc:
            rc, out = None, repr(exc)
        t1 = time.perf_counter_ns()
        tally.timed_ns += t1 - t0
        tally.ops += 1
        tally.lat.add(t1 - t0)
        if rc is None or not answer_ok(check, out, rc):
            tally.fail(f"cold: wrong answer to {args} (exit {rc})")


WORKLOADS = {"sweep": Sweep, "classify": Classify, "query": Query, "cold": Cold}
