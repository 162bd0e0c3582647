"""The benchmark's own checks: planted wrong outputs must be caught, the
per-layer trace must partition the traced wall time and repeat its counts,
and ``run.py`` must refuse to run without the package beside it."""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from checks import Leg  # noqa: E402

# --- Table 1 -----------------------------------------------------------------

ROWS = [[f"row {i}", 100 + i, 0.05, 0.01] for i in range(14)]
EXPECTED = [100 + i for i in range(14)]


def test_table1_correct_rows_pass():
    assert checks.check_table1_rows(ROWS, EXPECTED) == []


@pytest.mark.parametrize("plant", [
    lambda rows: rows.pop(),                                  # 13 rows
    lambda rows: rows[3].__setitem__(1, 104),                 # lost a packet
    lambda rows: rows[5].__setitem__(3, 0.2),                 # >T above overdue
    lambda rows: rows[0].__setitem__(2, 1.5),                 # fraction > 1
    lambda rows: rows[9].__setitem__(3, -0.01),               # negative
])
def test_table1_planted_errors_are_caught(plant):
    rows = copy.deepcopy(ROWS)
    plant(rows)
    assert checks.check_table1_rows(rows, EXPECTED)


def test_table1_expected_packets_match_a_real_row():
    from repro import ExperimentSpec, run

    spec = ExperimentSpec("table1", duration=0.02, options={"rows": (7,)})
    row = run(spec).rows[0]
    expected = checks.table1_expected_packets(0.02, 1, spec.bandwidth_scale)
    assert row[1] == expected[7]


# --- Figure 2 ----------------------------------------------------------------

FLOWS = {1: (0.0, 1500), 2: (0.01, 30_000), 3: (0.02, 4500)}


def _stats(fct):
    return SimpleNamespace(
        start={fid: start for fid, (start, _) in FLOWS.items()},
        flow_size={fid: size for fid, (_, size) in FLOWS.items()},
        fct=dict(fct))


GOOD_FCT = {1: 0.01, 2: 0.05}  # flow 3 unfinished: reported, not wrong


def test_fct_correct_legs_pass():
    legs = {"fifo": _stats(GOOD_FCT), "lstf": _stats(GOOD_FCT)}
    assert checks.check_fct_legs(legs, FLOWS, 0.01) == []
    assert checks.completed_packets(legs["fifo"]) == 1 + 20


def test_fct_below_physical_floor_is_caught():
    # 30 kB over a 10 Mb/s access link takes 24 ms before propagation.
    legs = {"lstf": _stats({1: 0.01, 2: 0.02})}
    assert checks.check_fct_legs(legs, FLOWS, 0.01)


def test_fct_different_flows_across_schemes_are_caught():
    other = _stats(GOOD_FCT)
    del other.start[3]
    assert checks.check_fct_legs({"fifo": _stats(GOOD_FCT), "sjf": other},
                                 FLOWS, 0.01)


def test_fct_completion_of_unknown_flow_is_caught():
    assert checks.check_fct_legs({"srpt": _stats({**GOOD_FCT, 9: 1.0})},
                                 FLOWS, 0.01)


def test_fct_order_follows_the_paper():
    assert checks.check_fct_order(0.04, 0.06) == []
    assert checks.check_fct_order(0.07, 0.06)


# --- replay sweep -------------------------------------------------------------

MODES = ("lstf", "edf", "priority", "omniscient")
KEYS = ["sched-a", "sched-b"]


def _legs():
    rows = {"lstf": 0.04, "edf": 0.04, "priority": 0.2, "omniscient": 0.0}
    return [Leg(mode, 7, [["r0", 500, rows[mode], rows[mode] / 4],
                          ["r1", 900, rows[mode], 0.0]],
                f"canonical-{mode}", True)
            for mode in MODES]


def _sweep(cold=None, forced=None, keys=KEYS, recorded=KEYS):
    cold = _legs() if cold is None else cold
    forced = _legs() if forced is None else forced
    return checks.check_sweep(cold, forced, keys, recorded, KEYS)


def test_sweep_correct_outputs_pass():
    assert _sweep() == []


def test_sweep_late_omniscient_replay_is_caught():
    cold = _legs()
    cold[3].rows[1][2] = 0.001
    assert _sweep(cold=cold)


def test_sweep_packets_differing_across_modes_are_caught():
    cold = _legs()
    cold[2].rows[0][1] = 499
    assert _sweep(cold=cold)


def test_sweep_missing_telemetry_is_caught():
    forced = _legs()
    forced[0] = Leg(*[getattr(forced[0], f) for f in
                      ("mode", "seed", "rows", "canonical")], False)
    assert _sweep(forced=forced)


def test_sweep_store_must_hold_one_schedule_per_row_and_seed():
    assert _sweep(keys=KEYS[:1])
    assert _sweep(keys=KEYS + ["sched-c"])


def test_sweep_forced_pass_must_not_record():
    assert _sweep(recorded=KEYS + KEYS[:1])


def test_sweep_forced_pass_must_be_byte_identical():
    forced = _legs()
    forced[1] = Leg("edf", 7, forced[1].rows, "canonical-edf ", True)
    assert _sweep(forced=forced)


def test_edf_lstf_differences_are_reported():
    cold = _legs()
    assert checks.edf_lstf_differences(cold) == []
    cold[1].rows[0][2] = 0.05
    assert checks.edf_lstf_differences(cold) == ["seed 7 row 0"]


# --- per-layer trace ------------------------------------------------------------

def _traced_round():
    import repro

    trace = layers.LayerTrace()
    trace.install()
    try:
        start = time.perf_counter()
        artifact = repro.run(repro.ExperimentSpec(
            "table1", duration=0.02, options={"rows": (7, 9)}))
        wall = time.perf_counter() - start
    finally:
        trace.remove()
    pkts = 2 * sum(row[1] for row in artifact.rows)
    return trace, trace.metrics(wall, wall, pkts), wall


def test_trace_self_times_partition_the_wall_and_counts_repeat():
    import repro.sim.node as node

    receive = node.Node.receive
    first, metrics, wall = _traced_round()
    assert node.Node.receive is receive  # every original is back
    self_times = [metrics[f"{layer}.self_s"] for layer in layers.LAYERS]
    assert min(self_times + [metrics["other.self_s"]]) >= 0.0
    assert sum(self_times) + metrics["other.self_s"] == pytest.approx(wall)
    for layer in ("engine", "node", "port", "sched", "tracer", "transport",
                  "replay", "runner", "build"):
        assert metrics[f"{layer}.self_s"] > 0.0, layer
    assert metrics["engine.events"] > 0 and metrics["sched.push_calls"] > 0
    assert metrics["store.puts"] == 0 and metrics["obs.samples"] == 0
    assert {s[0] for s in first.spans} >= {"run", "record_schedule",
                                            "replay_schedule", "Engine.run"}
    _, again, _ = _traced_round()
    assert {k: again[k] for k in layers.COUNT_METRICS} == \
        {k: metrics[k] for k in layers.COUNT_METRICS}


def test_wrapper_cost_is_taken_out_of_each_layer_and_kept_in_other():
    trace, _, wall = _traced_round()
    raw = {layer: trace.self_s[layer] for layer in layers.LAYERS}
    trace.cost = layers.WrapperCost(outside=2e-7, inside=1e-7, count_only=5e-8)
    metrics = trace.metrics(wall, wall, 1)
    for layer in ("node", "port", "engine"):
        taken = (trace.nested[layer] * 2e-7 + trace.timed[layer] * 1e-7
                 + trace.nested_counts[layer] * 5e-8)
        assert taken > 0.0, layer
        assert metrics[f"{layer}.self_s"] == pytest.approx(
            max(0.0, raw[layer] - taken)), layer
    self_times = [metrics[f"{layer}.self_s"] for layer in layers.LAYERS]
    assert sum(self_times) + metrics["other.self_s"] == pytest.approx(wall)
    assert metrics["trace.wrapper_s"] > 0.0
    assert metrics["other.self_s"] >= metrics["trace.wrapper_s"] - 1e-9


def test_calibrated_wrapper_cost_is_positive_and_small():
    cost = layers.calibrate()
    assert 0.0 < cost.outside < 1e-4
    assert 0.0 <= cost.inside < 1e-4
    assert 0.0 < cost.count_only < 1e-4


# --- the entry point --------------------------------------------------------------

def test_rounds_depend_on_the_run_length_only():
    import run
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        assert run.rounds_for(workload, 0) == 1
        assert run.rounds_for(workload, 30) == round(30 / workload.round_seconds)


def test_reference_loop_is_fixed_and_leaves_the_collector_as_it_was():
    import gc

    import refspeed

    assert refspeed.reference_loop(2000) == refspeed.reference_loop(2000)
    assert gc.isenabled()
    assert refspeed.loop_seconds() > 0.0 and gc.isenabled()
    gc.disable()
    try:
        refspeed.loop_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reference_seconds_scale_host_seconds_by_the_median_sample():
    import refspeed

    meter = refspeed.Speedometer()
    meter.samples = [0.02, 0.08, 0.05]
    assert meter.scale() == pytest.approx(refspeed.REFERENCE_S / 0.05)


def test_timed_round_leaves_the_samples_between_calls_out(monkeypatch):
    import refspeed
    import run

    def slow_sample():
        time.sleep(0.1)
        return 0.1

    monkeypatch.setattr(refspeed, "loop_seconds", slow_sample)

    class Sleeper:
        def run_round(self, k, between):
            for i in range(3):
                if i:
                    between()
                time.sleep(0.05)
            return k

    output, host_s, ref_s = run.timed_round(Sleeper(), 7)
    assert output == 7
    # With the two samples inside the round counted it would be 0.35 s.
    assert 0.15 <= host_s < 0.25
    assert ref_s == pytest.approx(host_s * refspeed.REFERENCE_S / 0.1)


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
