"""hanggraph benchmark: one workload, one seed, one JSON result line.

    python3 hgbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program under test is the hanggraph
package in the checkout's src/ directory, loaded from source.  With
--trace 0 the last line carries the end-to-end metrics of BENCHMARK.json,
with every timing scaled to a fixed reference speed (see calibrate.py);
with --trace 1 it carries the per-layer metrics of a traced run over a
fixed amount of work.  The line before it is a report with the run's
metadata, the failure fraction and the tail percentile used.  Exit codes:
0 when every answer checked out, 1 when some did not, 2 when there is no
program to measure (no result is printed then).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from itertools import islice
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".hgbench_out"
SETUP_PROBES = 11
WINDOWS = 10  # stretches of measured time, each scaled by its own reference readings
INTERPRETER = "pass"
IMPORT = "import hanggraph"


def use_checkout_source() -> bool:
    """Put the checkout's src/ first on sys.path; False when it holds no hanggraph."""
    if not (SRC / "hanggraph" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Probes:
    """Wall time of fresh `python -c code` processes, spread over a run so
    their median samples the whole run rather than one moment of it.  A
    bare `python -c pass` just before and just after each probe scales its
    time to the reference speed (see `calibrate`)."""

    def __init__(self, codes: tuple[str, ...], times: int, env: dict):
        self.codes, self.times, self.env = codes, times, env
        self.reference = calibrate.interpreter(env)
        self.ms: dict[str, list[float]] = {code: [] for code in codes}
        self.scaled_ms: dict[str, list[float]] = {code: [] for code in codes}

    def __call__(self, fraction: float = 1.0) -> None:
        """Run the probes due once `fraction` of the run is done."""
        while len(self.ms[self.codes[0]]) < min(self.times, int(fraction * self.times) + 1):
            for code in self.codes:
                before = self.reference.read()
                t0 = time.perf_counter_ns()
                # Captured pipes end the wait when the child exits; Popen.wait with a
                # timeout alone polls with sleeps of up to 50 ms, which quantizes the time.
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True,
                               capture_output=True, timeout=60)
                ms = (time.perf_counter_ns() - t0) / 1e6
                speed = self.reference.speed([before, self.reference.read()])
                self.ms[code].append(ms)
                self.scaled_ms[code].append(ms * speed)

    def median(self, code: str, scaled: bool = False) -> float:
        return statistics.median((self.scaled_ms if scaled else self.ms)[code])


def traced_run(wl, tracer, probes: Probes):
    """Each unit of a fixed amount of work runs twice, once traced and once
    not, in alternating order, so the two tallies see the same inputs at
    nearly the same moment and their ratio is the tracing overhead."""
    import workloads as W

    plain, traced = W.Tally("plain"), W.Tally("traced")
    for i, unit in enumerate(islice(wl.units(), wl.trace_units)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                wl.run_unit(unit, plain)
                continue
            tracer.install()
            wl.tracer = tracer
            try:
                wl.run_unit(unit, traced)
            finally:
                tracer.uninstall()
                wl.tracer = None
        probes((i + 1) / wl.trace_units)
    return plain, traced


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, report).  The result holds
    `correct`, `attempted`, `failed` and the metric values by name."""
    # imported here: hanggraph is importable only once use_checkout_source() ran
    import hanggraph
    import workloads as W
    from spans import Tracer

    if not Path(hanggraph.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hanggraph loaded from {hanggraph.__file__}, not from {SRC}")
    workdir = OUT / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        wl = W.WORKLOADS[workload](seed, workdir, quick)
        inputs_s = time.perf_counter() - t0
        gc.collect()
        gc.freeze()  # keep the benchmark's own inputs out of the program's collections
        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "kernel_backend": hanggraph.kernel_backend,
            "ckernel_importable": find_spec("hanggraph._ckernel") is not None,
            "HANGGRAPH_PURE": os.environ.get("HANGGRAPH_PURE"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "inputs_s": inputs_s,
        }
        times = 1 if quick else SETUP_PROBES
        if not trace:
            probes = Probes((IMPORT,), times, W.child_env())
            probes(0.0)
            measured, readings = W.measure(wl, seconds, WINDOWS, between=probes)
            probes()
            windows = [w for w in measured if w.ops]
            speeds = [wl.reference.speed(r) for w, r in zip(measured, readings) if w.ops]
            tally = windows[0].merged(windows[1:])
            wl.finish(tally)
            # every timing is scaled to the reference speed, window by window
            scaled = [w.scaled(f) for w, f in zip(windows, speeds)]
            who = resource.RUSAGE_CHILDREN if workload == "cold" else resource.RUSAGE_SELF
            pooled = scaled[0].merged(scaled[1:])
            tail_p, tail_ms, beyond = pooled.lat.tail(wl.tail_percentiles)
            values = {
                "ops_per_s": pooled.ops_per_s,
                "p50_ms": pooled.lat.percentile_ms(50),
                "tail_ms": tail_ms,
                "setup_s": probes.median(IMPORT, scaled=True) / 1e3,
                "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
            }
            report.update(timed_s=tally.timed_ns / 1e9, latency_samples=tally.lat.count,
                          tail_percentile=tail_p, tail_beyond=beyond,
                          reference=wl.reference.name,
                          reference_readings=sum(map(len, readings)),
                          window_speed=speeds,
                          ops_per_s_unscaled=tally.ops_per_s,
                          p50_ms_unscaled=tally.lat.percentile_ms(50),
                          setup_s_unscaled=probes.median(IMPORT) / 1e3)
            tallies = [tally]
        else:
            probes = Probes((INTERPRETER, IMPORT), times, W.child_env())
            probes(0.0)
            tracer = Tracer()
            plain, traced = traced_run(wl, tracer, probes)
            wl.finish(traced)
            interp_ms, import_ms = probes.median(INTERPRETER), probes.median(IMPORT)
            values = tracer.layer_metrics(traced.timed_ns)
            values.update({
                "cli.interpreter_ms": interp_ms,
                "cli.import_ms": import_ms - interp_ms,
                "cli.process_self_ms": (plain.lat.percentile_ms(50) - import_ms
                                        if workload == "cold" else 0.0),
                "trace.ops_ratio": traced.ops_per_s / plain.ops_per_s,
            })
            trace_file = OUT / f"trace-{workload}.jsonl"
            tracer.write(trace_file)
            report.update(ops_per_s_untraced=plain.ops_per_s, ops_per_s_traced=traced.ops_per_s,
                          spans=len(tracer.spans),
                          spans_dropped=tracer.dropped,
                          trace_file=str(trace_file.relative_to(ROOT)))
            tallies = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(t.ops for t in tallies)
    failed = min(attempted, sum(t.failed for t in tallies))
    report["failed_frac"] = failed / attempted if attempted else 1.0
    report["failures"] = [note for t in tallies for note in t.notes][:5]
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": values}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "classify", "query", "cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one set-up probe: a smoke test, not a measurement")
    args = parser.parse_args(argv)
    if not use_checkout_source():
        print(f"error: no hanggraph package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    values = result["metrics"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
