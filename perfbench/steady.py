"""Steadiness check: two sets of benchmark runs of one commit, compared.

Run from the repository root::

    python3 perfbench/steady.py --workload noncontig_pack --runs 10 --sets 2
    python3 perfbench/steady.py --workload sparse_rma --runs 5 --sets 1 --trace

Each set runs ``perfbench/run.py`` once per seed (``--first-seed`` ..
``--first-seed + runs - 1``) for ``run_seconds`` from ``BENCHMARK.json``.
For every end-to-end metric it prints each set's median and quartiles and
the spread, (Q3 - Q1) / median, against the metric's bound.  Between sets
it prints how much worse the second median is than the first, against the
bound, and checks that ``sim_us``, the share of failed operations and —
with ``--trace`` — every per-layer count agree exactly seed by seed.  It
exits 1 if any check fails, so it is the tool for setting the bounds and
re-checking them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics measured on the host (times, their ratios, resident
#: memory), not counted, so not required to repeat exactly.
HOST_PREFIXES = ("host_s.", "host.", "trace.overhead_ratio", "trace.coverage",
                 "peak_rss_mb.")


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"steady: {' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per seed and set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    for workload in args.workload:
        sets = []
        for index in range(args.sets):
            runs = {}
            for seed in seeds:
                plain = run_once(workload, seed, seconds, False)
                traced = run_once(workload, seed, seconds, True) \
                    if args.trace else None
                runs[seed] = {"plain": plain, "traced": traced}
                ok &= plain["correct"] and (traced is None or traced["correct"])
                print(f"{workload} set {index + 1} seed {seed}: "
                      + "  ".join(f"{k}={v['value']:.6g}"
                                  for k, v in plain["metrics"].items())
                      + f"  attempted={plain['attempted']} "
                        f"failed={plain['failed']}", flush=True)
            sets.append(runs)
        ok &= report(workload, sets, bounds)
    print("steady: all checks pass" if ok else "steady: CHECKS FAILED")
    return 0 if ok else 1


def report(workload: str, sets: list[dict], bounds: dict) -> bool:
    ok = True
    medians = []
    for index, runs in enumerate(sets):
        print(f"\n{workload} set {index + 1}: {len(runs)} runs")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        med = {}
        for name, spec in bounds.items():
            values = [r["plain"]["metrics"][name]["value"]
                      for r in runs.values()]
            q1, median, q3 = quartiles(values)
            med[name] = median
            spread = (q3 - q1) / median
            if spread <= spec["bound"] / 3:
                verdict = "ok (< bound/3)"
            elif spread <= spec["bound"]:
                verdict = "ok (within bound)"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {name:<14}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{spec['bound']:>7.3g}  {verdict}")
        medians.append(med)
    for index in range(1, len(sets)):
        print(f"\n{workload} set {index + 1} against set 1")
        for name, spec in bounds.items():
            worse = worse_by(medians[0][name], medians[index][name],
                             spec["better"])
            verdict = "ok" if worse <= spec["bound"] else "WORSE THAN BOUND"
            ok &= worse <= spec["bound"]
            print(f"  {name:<14} worse by {worse:+.4f} (bound "
                  f"{spec['bound']:.3g})  {verdict}")
        ok &= exact(sets[0], sets[index])
    return ok


def exact(first: dict, second: dict) -> bool:
    """Seed by seed: sim_us, failed share and per-layer counts must match."""
    ok = True
    for seed, a in first.items():
        b = second[seed]
        pa, pb = a["plain"], b["plain"]
        if pa["metrics"]["sim_us"]["value"] != pb["metrics"]["sim_us"]["value"]:
            print(f"  seed {seed}: sim_us differs between sets")
            ok = False
        if pa["failed"] * pb["attempted"] != pb["failed"] * pa["attempted"]:
            print(f"  seed {seed}: failed share differs between sets")
            ok = False
        if a["traced"] is not None and b["traced"] is not None:
            for name, value in a["traced"]["metrics"].items():
                if name.startswith(HOST_PREFIXES):
                    continue
                if value["value"] != b["traced"]["metrics"][name]["value"]:
                    print(f"  seed {seed}: per-layer {name} differs between sets")
                    ok = False
    print("  exactness seed by seed: " + ("ok" if ok else "FAILED"))
    return ok


if __name__ == "__main__":
    sys.exit(main())
