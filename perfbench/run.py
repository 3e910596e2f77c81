"""End-to-end benchmark of the simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload sparse_rma --seed 1 --seconds 12 --trace 0

``--trace 0`` runs a fixed number of whole passes of the workload,
as many as take about ``--seconds`` on the reference machine, and prints
the end-to-end metrics:

* ``ops_per_s``: operations of one pass over the CPU seconds the program
  took for them, each program run of the pass counted at its best (least)
  CPU time over the run's passes;
* ``setup_s``: least CPU time over several fresh interpreters that each
  start, import, set the workload up and run its warm-up operation;
* ``peak_rss_mb``: peak resident set of this process, with numpy's
  huge-page advice off;
* ``sim_us``: simulated time summed over one pass's operations.

``--trace 1`` runs one pass plain and one under ``cProfile`` and prints
the per-layer metrics.  Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Every pass checks the program's outputs (see ``workloads.py``).  The
passes of a run, and the plain and the profiled pass of a traced run, must
also agree exactly on simulated time and on every work count; any
difference fails the run.  See ``README.md`` for workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Fewest passes of a timed run: best of N needs a few samples.
MIN_PASSES = 3
#: Fresh-interpreter set-ups per run; ``setup_s`` is the least.
SETUP_SAMPLES = 7
#: Largest gap allowed between the layers' summed self time and the
#: profiled CPU time (the profiler's own bookkeeping falls outside both).
COVERAGE_TOLERANCE = 0.05
#: Work counts reported by the traced run, with their units.
COUNTS = {
    "sim.events": "count", "transport.chunks": "count",
    "osc.direct_puts": "count", "osc.direct_gets": "count",
    "osc.emulated_puts": "count", "osc.emulated_gets": "count",
    "plan_cache.builds": "count", "trace.records": "count",
    "recovery.retries": "count", "svc.read_fallbacks": "count",
    "fabric.bytes_written": "B", "fabric.bytes_read": "B",
    "fabric.link_bytes": "B", "repl.writes": "count",
    "repl.failovers": "count", "scenario.floor_misses": "count",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rss"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _load(workload: str, seed: int):
    """Import the program and build the workload (its set-up)."""
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: "
                 f"{exc}")
    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r} "
                 f"(have: {', '.join(workloads.WORKLOADS)})")
    bench = workloads.build(workload, seed)
    bench.warm_up()
    return workloads, bench


def _fresh_pass(workloads, bench, profiler=None):
    """One pass from a cold plan cache; ``meter.wrong`` says what failed
    the output checks, if anything did."""
    from repro.mpi.flatten import reset_plan_cache

    reset_plan_cache()
    gc.collect()
    meter = workloads.Meter(profiler)
    try:
        bench.run_pass(meter)
    except workloads.CheckError as exc:
        meter.wrong = str(exc)
    for error in meter.errors:
        print(f"perfbench: failed operation: {error}", file=sys.stderr)
    return meter


def _probe(workload: str, seed: int, what: str) -> str:
    """Run this script in a fresh interpreter as probe ``what``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--probe", what],
        capture_output=True, text=True, check=True, timeout=150)
    return done.stdout


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _report_notes(meter) -> None:
    for note in meter.notes:
        print(f"perfbench: known shortfall: {note}", file=sys.stderr)


def _setup_seconds(workload: str, seed: int) -> float:
    """CPU seconds of a fresh interpreter that sets up and warms up."""
    before = _children_cpu()
    _probe(workload, seed, "setup")
    return _children_cpu() - before


def _differences(passes) -> list[str]:
    """What the passes disagree on: simulated time or work counts."""
    first = passes[0].result
    for index, meter in enumerate(passes[1:], start=1):
        other = meter.result
        if other.sim_us != first.sim_us:
            return [f"pass {index} simulated {other.sim_us!r} us, "
                    f"pass 0 {first.sim_us!r} us"]
        if other.counts != first.counts:
            diff = {k: (first.counts.get(k), other.counts.get(k))
                    for k in sorted(set(first.counts) | set(other.counts))
                    if first.counts.get(k) != other.counts.get(k)}
            return [f"pass {index} work counts differ from pass 0: {diff}"]
    return []


def timed_run(workloads, bench, args) -> tuple[dict, list[str]]:
    # A fixed number of passes, so best of N does not favour a faster
    # program or host with a larger N.  The host's speed drifts over tens
    # of seconds, so the set-up samples are spread over the passes and,
    # like the passes, counted at their best.
    count = max(MIN_PASSES, round(args.seconds / bench.pass_seconds))
    due = [k * count // SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    passes, setups = [], []
    for index in range(count):
        setups += [_setup_seconds(args.workload, args.seed)
                   for _ in range(due.count(index))]
        passes.append(_fresh_pass(workloads, bench))
        if passes[-1].wrong:
            break
    problems = [m.wrong for m in passes if m.wrong] or _differences(passes)
    _report_notes(passes[0])
    results = [m.result for m in passes]
    first = results[0]
    # Best of N: each program run at its least CPU time over the passes.
    best = sum(min(r.cpu.get(label, float("inf")) for r in results)
               for label in first.cpu)
    metrics = {
        "ops_per_s": ((first.attempted - first.failed) / best, "1/s"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "sim_us": (first.sim_us, "us"),
    }
    return _result(problems, sum(r.attempted for r in results),
                   sum(r.failed for r in results), metrics), problems


def traced_run(workloads, bench, args) -> tuple[dict, list[str]]:
    import cProfile
    import pstats

    from layers import LAYERS, call_counts, layer_self_times

    plain = _fresh_pass(workloads, bench)
    profiler = cProfile.Profile(time.process_time)
    traced = _fresh_pass(workloads, bench, profiler)
    problems = [m.wrong for m in (plain, traced) if m.wrong]
    _report_notes(plain)
    problems += [f"traced pass differs from the plain pass: {why}"
                 for why in _differences([plain, traced])]
    res, tres = plain.result, traced.result
    stats = pstats.Stats(profiler)
    seconds = layer_self_times(stats)
    coverage = sum(seconds.values()) / tres.cpu_s
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        problems.append(f"layer self times cover {coverage:.3f} of the "
                        "profiled CPU time")

    counts = res.counts
    events = counts.get("sim.events", 0)
    hits = counts.get("plan_cache.hits", 0)
    lookups = hits + counts.get("plan_cache.misses", 0)
    metrics = {f"host_s.{layer}": (seconds[layer], "s") for layer in LAYERS}
    metrics.update({
        "host.us_per_event": (1e6 * res.cpu_s / events if events else 0.0,
                              "us"),
        "host.us_per_event.n64": (_us_per_event(res, "n64."), "us"),
        "host.us_per_event.n256": (_us_per_event(res, "n256."), "us"),
        "trace.overhead_ratio": (tres.cpu_s / res.cpu_s, "ratio"),
        "trace.coverage": (coverage, "ratio"),
        "flows.transfers": (call_counts(stats, "hardware/sci/flows.py",
                                        "transfer"), "count"),
        "topology.route_calls": (call_counts(stats, "hardware/sci/topology.py",
                                             "route"), "count"),
        "plan_cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "peak_rss_mb.huge_pages": (
            float(_probe(args.workload, args.seed, "rss").split()[-1]), "MB"),
    })
    metrics.update({key: (counts.get(key, 0), unit)
                    for key, unit in COUNTS.items()})
    return _result(problems, res.attempted + tres.attempted,
                   res.failed + tres.failed, metrics), problems


def _us_per_event(res, prefix: str) -> float:
    """Host microseconds per simulated event over the runs labelled
    ``prefix...`` (the allreduce cells of one cluster size)."""
    labels = [label for label in res.events if label.startswith(prefix)]
    events = sum(res.events[label] for label in labels)
    cpu = sum(res.cpu[label] for label in labels)
    return 1e6 * cpu / events if events else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(problems, attempted, failed, metrics) -> dict:
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    # numpy asks the kernel to back large arrays with 2 MiB pages.  Every
    # simulated node owns a large array it touches sparsely, so with the
    # advice peak RSS depends on how the mappings happen to align and swings
    # by up to 3x from process to process; without it RSS counts the pages
    # touched.  Only the ``rss`` probe keeps the advice, to show its cost.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "1" if args.probe == "rss" else "0"
    # One thread: a BLAS thread pool would add CPU time on other cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    workloads, bench = _load(args.workload, args.seed)
    if args.probe == "setup":
        return 0
    if args.probe == "rss":
        _fresh_pass(workloads, bench)
        print(_peak_rss_mb())
        return 0
    run = traced_run if args.trace else timed_run
    result, problems = run(workloads, bench, args)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
