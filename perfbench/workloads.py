"""The benchmark's three workloads, each a set-up step plus repeatable rounds.

A workload's :meth:`prepare` is everything a user pays before the first
simulation call: ``import repro``, the registry load, spec validation and
the output directory.  :meth:`run_round` is the timed phase: one round
of simulations through the package's public API, in several calls, with
``between()`` called between each two of them (``run.py`` samples the
host's speed there; see ``refspeed.py``).  :meth:`check` turns a
round's outputs into operation counts, the number of data packets
delivered, and a list of property violations (empty when correct).

Round ``k`` of a run with seed ``s`` draws its inputs from seed
``round_seed(s, k)``, so one seed always gives the same inputs and a run
averages over several draws of the workload.  A workload's
``round_seconds`` is its nominal round time on the reference host
(README): ``run.py`` runs as many rounds as fill the run length at that
pace, a number that depends on the run length only.

Rounds call the package through module attributes looked up at call
time, so the per-layer trace (``layers.py``) sees calls to functions it
replaced after :meth:`prepare`.

Only the standard library is imported at module level: the set-up probe
imports this module and must pay for ``import repro`` inside
:meth:`prepare`, where the workload process pays for it too.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import checks

#: Figure 2 simulated duration of the seeded legs (1262-1308 flows/seed).
FCT_DURATION = 0.5
#: The fixed TCP input of the fault probe: at duration 0.3 with seed 1,
#: FIFO leaves flows 252, 344, 366 and LSTF flows 252, 344 unfinished at
#: the 15 s horizon, because a timeout retransmits one segment per RTO.
PROBE_DURATION = 0.3
PROBE_SEED = 1
PROBE_SCHEMES = ("fifo", "lstf")

#: Table 1 rows of the telemetry-on replay sweep, and its replay modes.
#: Telemetry samples every port each simulated millisecond until the last
#: packet lands, so its cost follows the longest flow's tail.  Row 6
#: (Internet2 10G-10G) has the shortest tails: over seeds 2000-2007 its
#: record-and-replay time varied 8% (std/mean), against 16% for row 0
#: and 31% for row 7 (RocketFuel).
SWEEP_ROWS = (6,)
SWEEP_MODES = ("lstf", "edf", "priority", "omniscient")


def round_seed(seed: int, k: int) -> int:
    """The input seed of round ``k`` of a run started with ``seed``."""
    return seed * 1000 + k


@dataclass
class RoundResult:
    """What one round did, from its outputs."""

    attempted: int
    failed: int
    pkts: int
    problems: list[str]
    detail: dict = field(default_factory=dict)


class Table1Replay:
    """All 14 Table 1 rows: record under the original scheduler, replay
    under LSTF.  No store, no telemetry, no TCP."""

    name = "table1-replay"
    round_seconds = 9.0

    def prepare(self, seed: int, workdir: Path) -> None:
        import repro
        from repro.api.registry import REGISTRY

        REGISTRY.get("table1")
        self._repro = repro
        self._spec = lambda k, **options: repro.ExperimentSpec(
            "table1", seeds=(round_seed(seed, k),), options=options)
        self._spec(0)

    def run_round(self, k: int, between):
        """One ``run`` per row: the same rows, in the same order, as one
        ``run`` of the whole table (row ``r`` draws from its own seed)."""
        rows = []
        for row in range(checks.TABLE1_ROWS):
            if row:
                between()
            rows += self._repro.run(self._spec(k, rows=(row,))).rows
        return rows

    def check(self, k: int, rows) -> RoundResult:
        spec = self._spec(k)
        expected = checks.table1_expected_packets(
            spec.duration, spec.seed, spec.bandwidth_scale)
        problems = checks.check_table1_rows(rows, expected)
        packets = sum(row[1] for row in rows)
        # Each row simulates its packets twice: recording and LSTF replay.
        return RoundResult(len(rows), 0, 2 * packets, problems)


class Fig2Fct:
    """Figure 2 (FIFO, SJF, SRPT, LSTF over TCP with finite buffers) on a
    seeded flow set, plus the fixed fault probe."""

    name = "fig2-fct"
    round_seconds = 6.0

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro import ExperimentSpec
        from repro.api.registry import REGISTRY
        from repro.experiments import fct

        REGISTRY.get("fig2")
        self._fct = fct
        self._spec = lambda k: ExperimentSpec(
            "fig2", duration=FCT_DURATION, seeds=(round_seed(seed, k),))
        self._spec(0)

    def run_round(self, k: int, between):
        """One ``run_fct_experiment`` per scheme: each draws the same flows
        from its seed, as one call over all the schemes would."""
        spec = self._spec(k)
        seeded, probe = {}, {}
        calls = ([(seeded, scheme, spec.duration, spec.seed)
                  for scheme in self._fct.FCT_SCHEMES]
                 + [(probe, scheme, PROBE_DURATION, PROBE_SEED)
                    for scheme in PROBE_SCHEMES])
        for i, (out, scheme, duration, seed) in enumerate(calls):
            if i:
                between()
            out.update(self._fct.run_fct_experiment(
                schemes=(scheme,), duration=duration, seed=seed,
                utilization=spec.utilization,
                bandwidth_scale=spec.bandwidth_scale))
        return seeded, probe

    def check(self, k: int, output) -> RoundResult:
        seeded, probe = output
        spec = self._spec(k)
        problems = []
        detail = {}
        pkts = 0
        for label, legs, duration, seed in (
                ("seeded", seeded, spec.duration, spec.seed),
                ("probe", probe, PROBE_DURATION, PROBE_SEED)):
            flows = checks.fct_expected_flows(
                duration, seed, spec.utilization, spec.bandwidth_scale)
            stats = {scheme: res.stats for scheme, res in legs.items()}
            problems += [f"{label}: {p}" for p in checks.check_fct_legs(
                stats, flows, spec.bandwidth_scale)]
            pkts += sum(checks.completed_packets(s) for s in stats.values())
            detail[label] = {
                scheme: {"mean_fct_s": s.mean_fct(),
                         "unfinished": len(s.start) - s.completed,
                         "flows": len(s.start)}
                for scheme, s in stats.items()}
        problems += checks.check_fct_order(
            probe["lstf"].stats.mean_fct(), probe["fifo"].stats.mean_fct())
        # A probe leg fails while the timeout fault strands its flows.  A
        # seeded leg may strand flows too, but how many depends on the
        # seed, so it is reported in the detail line, not counted.
        failed = sum(1 for res in probe.values()
                     if res.stats.completed < len(res.stats.start))
        return RoundResult(len(seeded) + len(probe), failed, pkts, problems,
                           detail)


class ReplaySweepObs:
    """A serial ``run_many`` replay-mode sweep with telemetry attached,
    cold into a fresh out_dir, then again with ``force=True``."""

    name = "replay-sweep-obs"
    round_seconds = 9.0

    def prepare(self, seed: int, workdir: Path) -> None:
        os.environ["REPRO_OBS"] = "1"
        import repro
        from repro.api.registry import REGISTRY

        REGISTRY.get("table1")
        self._repro = repro
        self._workdir = workdir
        self._spec = lambda k: repro.ExperimentSpec(
            "table1", seeds=(round_seed(seed, k),), replay_modes=SWEEP_MODES,
            options={"rows": SWEEP_ROWS})
        self._spec(0).sweep()
        workdir.mkdir(parents=True, exist_ok=True)

    def _out(self, k: int) -> Path:
        return self._workdir / f"round-{k}"

    def run_round(self, k: int, between):
        """The cold sweep in one ``run_many``, then the forced pass one leg
        per ``run_many``: each forced leg re-simulates against the warm
        store either way."""
        legs = self._spec(k).sweep()
        out = self._out(k)
        cold = self._repro.run_many(legs, out_dir=out)
        forced = []
        for leg in legs:
            between()
            forced += self._repro.run_many([leg], out_dir=out, force=True)
        return cold, forced

    def check(self, k: int, output) -> RoundResult:
        from repro.core.trace_io import ScheduleStore

        cold, forced = output
        spec = self._spec(k)
        store = ScheduleStore(self._out(k) / "schedules")
        expected_keys = checks.sweep_expected_keys(
            spec.duration, spec.seed, spec.bandwidth_scale, SWEEP_ROWS)
        cold_legs = [_leg(a) for a in cold]
        problems = checks.check_sweep(
            cold_legs, [_leg(a) for a in forced],
            store.keys(), store.recorded_keys(), expected_keys)
        shutil.rmtree(self._out(k))
        replayed = sum(row[1] for a in cold + forced for row in a.rows)
        recorded = sum(row[1] for row in cold[0].rows)
        return RoundResult(
            len(cold) + len(forced), 0, replayed + recorded, problems,
            {"edf_lstf_differ": checks.edf_lstf_differences(cold_legs)})


def _leg(artifact) -> checks.Leg:
    return checks.Leg(artifact.spec.replay_mode, artifact.spec.seed,
                      artifact.rows, artifact.canonical_json(),
                      artifact.obs is not None)


WORKLOADS = {w.name: w for w in (Table1Replay, Fig2Fct, ReplaySweepObs)}
