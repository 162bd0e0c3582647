"""Steadiness and reference figures of the benchmark.

From the repository root::

    python3 perfbench/steady.py

runs two sets of runs, each running every workload of ``BENCHMARK.json``
ten times, with seeds 1 to 10 and the run length given there (workload
order alternates between passes).  For each set it prints each
end-to-end metric's median, quartiles and spread (quartile distance over
median), flagging any spread above the metric's bound, and the spread of
packets per host second before the speed scaling (``refspeed.py``); then
how far each median moved from the first set to the second, flagging a
move for the worse beyond the bound.  It checks that the share of failed
operations is the same in every run, and prints Figure 2's per-scheme
mean FCT and unfinished flows over the last set.

It then runs each workload traced twice with seed 1, prints each layer's
share of the traced wall time and the tracing overhead, and checks that
every count metric repeats exactly.  Last, it times a fixed pure-Python
loop in ten fresh processes: the run-to-run spread of the machine itself.
Exit status 0 means every check held.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNT_METRICS, LAYERS
from run import read_details

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Sets of untraced runs, each RUNS runs per workload with seeds
#: FIRST_SEED, FIRST_SEED + 1, ...
SETS = 2
RUNS = 10
FIRST_SEED = 1
#: Traced runs per workload, all with FIRST_SEED.
TRACE_RUNS = 2
#: Fresh processes that time the fixed loop below.
JITTER_PROCESSES = 10

#: A fixed pure-Python loop, timed in fresh processes by ``--jitter``.
_LOOP = """
import time
start = time.perf_counter()
total = 0
for i in range(8_000_000):
    total += i % 7
print(time.perf_counter() - start)
"""


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int, traced: bool):
    """One benchmark run: ``(result, detail lines)``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if traced else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    details = read_details(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), details


def report_steadiness(bench: dict, results: dict) -> bool:
    """Print medians and spreads; False when a bound is exceeded."""
    ok = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':18} {'metric':16} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            q1, q2, q3 = quartiles(values)
            s = (q3 - q1) / q2
            flag = "" if s <= bound else "  OVER BOUND"
            ok = ok and not flag
            print(f"{workload:18} {name:16} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.3f} {bound:6.2f}{flag}")
        rounds = [d for _, details in runs for d in details if "round" in d]
        per_run = [sum(1 for d in details if "round" in d) for _, details in runs]
        pkts = [d["pkts"] for d in rounds]
        print(f"{workload:18} {min(per_run)}-{max(per_run)} rounds per run, "
              f"{rounds[0]['attempted']} operations and {min(pkts)}-{max(pkts)} "
              "packets per round")
        host = [sum(d["pkts"] for d in details if "round" in d)
                / sum(d["host_s"] for d in details if "round" in d)
                for _, details in runs]
        print(f"{workload:18} packets per host second: median "
              f"{statistics.median(host):.6g}, spread {spread(host):.3f} "
              "(the same runs before the speed scaling)")
        shares = {r["failed"] / r["attempted"] for r, _ in runs}
        if len(shares) != 1:
            ok = False
        print(f"{workload:18} failed share {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  DIFFERS'}")
    return ok


def report_drift(bench: dict, first: dict, second: dict) -> bool:
    """Print how far each median moved between two sets; False when one
    got worse by more than its bound."""
    ok = True
    for workload in first:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (statistics.median(r["metrics"][name]["value"]
                                      for r, _ in results[workload])
                    for results in (first, second))
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= bound else "  WORSE THAN BOUND"
            ok = ok and not flag
            print(f"{workload:18} {name:16} median {a:.6g} then {b:.6g}: "
                  f"{100 * (b - a) / a:+.1f} %{flag}")
    return ok


def report_fct(runs) -> None:
    """Figure 2 per-scheme mean FCT (median over rounds) and unfinished flows."""
    for label in ("seeded", "probe"):
        rounds = [d[label] for _, details in runs for d in details if label in d]
        print(f"fig2-fct {label} legs over {len(rounds)} rounds:")
        for scheme in rounds[0]:
            fcts = [r[scheme]["mean_fct_s"] for r in rounds]
            unfinished = sum(r[scheme]["unfinished"] for r in rounds)
            flows = sum(r[scheme]["flows"] for r in rounds)
            print(f"  {scheme:5} mean FCT median {statistics.median(fcts):.4f} s "
                  f"(min {min(fcts):.4f}, max {max(fcts):.4f}); "
                  f"unfinished {unfinished} of {flows} flows")


def report_trace(workload: str, traced) -> bool:
    """Print layer shares; False when a count differs between traced runs.

    A share is of the traced wall time less the wrappers' own cost, the
    time the program itself took under the trace.
    """
    first = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    wall, wrappers = first["trace.wall_s"], first["trace.wrapper_s"]
    own = {f"{layer}.self_s": first[f"{layer}.self_s"] for layer in LAYERS}
    own["other.self_s"] = first["other.self_s"] - wrappers
    shares = ", ".join(f"{name[:-7]} {100 * t / (wall - wrappers):.1f}%"
                       for name, t in own.items())
    print(f"{workload}: traced wall {wall:.2f} s, overhead "
          f"{first['trace.overhead']:.2f}x, wrappers {wrappers:.2f} s "
          f"({100 * wrappers / wall:.0f}%); {shares}")
    ok = True
    for name in COUNT_METRICS:
        values = [t["metrics"][name]["value"] for t in traced]
        if len(set(values)) != 1:
            ok = False
            print(f"  {name} differs across traced runs: {values}")
    counts = ", ".join(f"{n} {first[n]}" for n in COUNT_METRICS)
    print(f"  counts{' (repeat exactly)' if ok else ''}: {counts}")
    return ok


def jitter(n: int) -> None:
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", _LOOP], capture_output=True,
                             text=True, check=True)
        times.append(float(out.stdout))
    print(f"machine jitter: pure-Python loop in {n} fresh processes, median "
          f"{statistics.median(times):.3f} s, spread {spread(times):.3f}, "
          f"range {min(times):.3f}-{max(times):.3f} s")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    start = time.perf_counter()
    sets, ok = [], True
    for n in range(SETS):
        results = {w: [] for w in names}
        wrong = []
        for i in range(RUNS):
            for workload in names if i % 2 == 0 else names[::-1]:
                result, details = run_once(workload, FIRST_SEED + i, seconds,
                                           traced=False)
                if not result["correct"]:
                    wrong.append(f"{workload} seed {FIRST_SEED + i}")
                results[workload].append((result, details))
        print(f"set {n + 1} of {SETS}:")
        for run in wrong:
            print(f"{run}: outputs are WRONG")
        ok = report_steadiness(bench, results) and not wrong and ok
        sets.append(results)
    ok = report_drift(bench, sets[0], sets[-1]) and ok
    shares = {w: {r["failed"] / r["attempted"] for s in sets for r, _ in s[w]}
              for w in names}
    ok = all(len(v) == 1 for v in shares.values()) and ok
    if results.get("fig2-fct"):
        report_fct(results["fig2-fct"])
    for workload in names:
        traced = [run_once(workload, FIRST_SEED, seconds, traced=True)[0]
                  for _ in range(TRACE_RUNS)]
        ok = report_trace(workload, traced) and ok
    jitter(JITTER_PROCESSES)
    print(f"steady.py took {time.perf_counter() - start:.0f} s: "
          f"{'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
