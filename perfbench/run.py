"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload table1-replay --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs a fixed number of
whole rounds of the workload, as many as fill ``--seconds`` at the
workload's nominal round time (at least one), checks every round's
outputs, and times the set-up in fresh processes between the rounds.
The number of rounds depends on ``--seconds`` only, so a seed fixes every
input of the run.  Times are reported in reference seconds: host seconds
scaled by the host's speed, sampled around and between the timed calls
(see ``refspeed.py``).  ``--trace 1`` runs round 0 once untraced in a fresh
process and once with every layer wrapped (see ``layers.py``) in this
process, and prints the per-layer metrics; spans and counts are also
written to ``.perfbench_run/trace-<workload>-seed<seed>.json``.

Metric units are read from ``BENCHMARK.json`` beside ``perfbench/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
per-round details go to standard error.  Without ``src/repro`` next to
this directory the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
#: Fresh processes timed per run for ``setup_s`` (the median is reported),
#: spread over the run so that one slow moment of the host moves few.
SETUP_PROBES = 8
#: Speed samples taken before and after the traced round.
TRACE_SAMPLES = 5
#: Longest a child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 170


def _units() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def _result(correct, attempted, failed, metrics) -> dict:
    units = _units()
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _detail(**fields) -> None:
    print("perfbench detail " + json.dumps(fields), file=sys.stderr, flush=True)


def read_details(stderr: str) -> list:
    """The detail lines of a run's standard error."""
    return [json.loads(line.split(" ", 2)[2]) for line in stderr.splitlines()
            if line.startswith("perfbench detail ")]


def setup_seconds(workload: str, seed: int, i: int) -> float:
    """Host time of a fresh process from launch to its first simulation call."""
    probe_dir = WORK / f"probe-{os.getpid()}-{i}"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload,
         str(seed), str(probe_dir)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(probe_dir, ignore_errors=True)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {i} failed (exit {proc.returncode})")
    return elapsed


def setup_reference_seconds(workload: str, seed: int, i: int) -> float:
    """One set-up probe in reference seconds, the host's speed sampled
    just before and just after it."""
    meter = Speedometer()
    meter.sample()
    host_s = setup_seconds(workload, seed, i)
    meter.sample()
    return host_s * meter.scale()


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds that fill ``seconds`` at the workload's nominal pace."""
    return max(1, round(seconds / workload.round_seconds))


def timed_round(workload, k: int):
    """Round ``k``: ``(output, host seconds, reference seconds)``.

    The host's speed is sampled before the round, between its simulation
    calls and after it; the samples' own time is not counted.
    """
    meter = Speedometer()
    meter.sample()
    start, paused = time.perf_counter(), meter.paused
    output = workload.run_round(k, meter.sample)
    host_s = time.perf_counter() - start - (meter.paused - paused)
    meter.sample()
    return output, host_s, host_s * meter.scale()


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics over the rounds that fill ``seconds``."""
    workload.prepare(seed, workdir)
    rounds = rounds_for(workload, seconds)
    walls, attempted, failed, pkts, problems, setup = [], 0, 0, 0, [], []
    for k in range(rounds):
        # Probes before round k, so that they are spread over the run.
        while len(setup) < SETUP_PROBES * k // rounds:
            setup.append(setup_reference_seconds(workload.name, seed, len(setup)))
        output, host_s, ref_s = timed_round(workload, k)
        walls.append(ref_s)
        r = workload.check(k, output)
        del output  # so the peak RSS is one round's, not two rounds'
        attempted, failed, pkts = (attempted + r.attempted, failed + r.failed,
                                   pkts + r.pkts)
        problems += r.problems
        _detail(workload=workload.name, round=k, seed=seed, host_s=host_s,
                ref_s=ref_s, attempted=r.attempted, failed=r.failed,
                pkts=r.pkts, problems=r.problems, **r.detail)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < SETUP_PROBES:
        setup.append(setup_reference_seconds(workload.name, seed, len(setup)))
    _detail(workload=workload.name, seed=seed, round_ref_s=walls,
            setup_ref_s=setup)
    return _result(not problems, attempted, failed, {
        "pkts_per_ref_s": pkts / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    })


def trace(workload, seed: int, workdir: Path) -> dict:
    """Per-layer metrics of round 0, against an untraced run of it."""
    from layers import LayerTrace, calibrate

    ref = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload.name, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if ref.returncode != 0:
        sys.stderr.write(ref.stderr)
        raise RuntimeError(f"untraced reference run failed (exit {ref.returncode})")
    untraced = json.loads(ref.stdout.strip().splitlines()[-1])
    untraced_ref_s = read_details(ref.stderr)[-1]["round_ref_s"][0]
    workload.prepare(seed, workdir)
    layers = LayerTrace()
    layers.cost = calibrate()
    meter = Speedometer()
    for _ in range(TRACE_SAMPLES):
        meter.sample()
    layers.install()
    try:
        start = time.perf_counter()
        # No samples inside: their time would land in other.self_s.
        output = workload.run_round(0, lambda: None)
        wall = time.perf_counter() - start
    finally:
        layers.remove()
    for _ in range(TRACE_SAMPLES):
        meter.sample()
    r = workload.check(0, output)
    # The untraced round in host seconds at the traced round's host speed.
    untraced_s = untraced_ref_s / meter.scale()
    metrics = layers.metrics(wall, untraced_s, r.pkts)
    layers.dump(WORK / f"trace-{workload.name}-seed{seed}.json", metrics)
    _detail(workload=workload.name, seed=seed, traced=True, problems=r.problems)
    return _result(not r.problems and untraced["correct"], r.attempted,
                   r.failed, metrics)


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        # Only the result line goes to standard output.
        with contextlib.redirect_stdout(sys.stderr):
            if args.trace:
                result = trace(workload, args.seed, workdir)
            else:
                result = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
