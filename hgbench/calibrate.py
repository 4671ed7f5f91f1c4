"""Fixed reference work that tracks how fast the machine runs right now.

On a shared host the speed of the CPU the benchmark gets drifts by up to 2x
over tens of seconds, and the drift moves every timing in a run with it.  A
reference is a fixed piece of work that never touches hanggraph, with its
time at the reference speed.  A measured run reads it every few tens of
milliseconds, outside its measured time, and `Reference.speed` turns the
readings of one stretch of the run into the factor that scales the
stretch's timings to the reference speed.  A change to the program moves
its timings and not the readings, so it shows in the scaled timings; a
change in the machine's speed moves both.

Each workload reads the reference closest to its own work, because
different work drifts differently on the same machine:

- `CHECKER_BFS` (sweep, query): the benchmark's own checker building fixed
  six-vertex graphs and running all-pairs BFS on each.  Of the in-process
  references tried, it tracked sweep and query best over two-second
  stretches (2-3% against 6-7% for integer and string loops).
- `CHECKER_ROWS` (classify): the checker computing classify rows for fixed
  graphs on 4 to 8 vertices.  When the machine switched between a fast and
  a slow state, `CHECKER_BFS` sped up more than classify did and its scaled
  p50 swung 16% with the state; this one does not.
- `interpreter(env)` (cold and the set-up probes): a bare
  `python -c pass` in the ops' environment.  Over stretches of twelve
  processes it cut the spread of a `python -m hanggraph` process from 7% to
  3.5%, where the in-process reference raised it to 11%.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent


class Reference:
    """Fixed work, and the nanoseconds it takes at the reference speed."""

    def __init__(self, name: str, nominal_ns: int, work):
        self.name, self.nominal_ns, self.work = name, nominal_ns, work

    def read(self) -> int:
        """Wall time of one run of the work, in nanoseconds.  The garbage
        collector is off meanwhile, so the program's heap, which a
        collection would walk, does not enter the reading."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            self.work()
            return time.perf_counter_ns() - t0
        finally:
            if collecting:
                gc.enable()

    def speed(self, readings: list[int]) -> float:
        """Factor that scales timings taken during `readings` to the
        reference speed: below 1 when the machine ran slower."""
        return self.nominal_ns / statistics.median(readings)


_GRAPHS = [b * 97 for b in range(48)]  # edge-subset indices of six-vertex graphs


def _checker_work() -> None:
    for bits in _GRAPHS:
        oracle.metric(oracle.from_bits(6, bits))


CHECKER_BFS = Reference("checker BFS", 2_000_000, _checker_work)

_rng = random.Random(20151224)
_ROW_GRAPHS = [oracle.adjacency(n, [e for e in combinations(range(n), 2) if _rng.random() < 0.4])
               for n in (4, 5, 6, 7, 8, 5, 6, 7, 8, 6, 7, 8)]


def _checker_rows() -> None:
    for adj in _ROW_GRAPHS:
        oracle.classify_row(adj)


CHECKER_ROWS = Reference("checker classify rows", 2_000_000, _checker_rows)


def interpreter(env: dict) -> Reference:
    def bare_process() -> None:
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=60)

    return Reference("python -c pass", 80_000_000, bare_process)
