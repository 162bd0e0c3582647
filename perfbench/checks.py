"""Properties every workload's outputs must have, checked from the outputs.

Each ``check_*`` function takes plain data and returns a list of problems,
empty when the outputs are correct, so a test can hand it a planted wrong
output and see it complain.  Expected values are derived from the
workload's documented inputs (flow lists regenerated from the seed, the
topology's link constants), never from saved copies of earlier outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Table 1 has 14 rows (the paper's 13 plus the FQ+FIFO+ mix of §2.3).
TABLE1_ROWS = 14
#: Flow sizes of both workloads: bounded Pareto, shape 1.2, from 1.5 kB.
PARETO_ALPHA = 1.2
PARETO_LOW = 1_500
#: Largest flow of the Figure 2 workload, bytes.
FCT_MAX_FLOW = 2_500_000
#: Figure 2 topology: Internet2 with two edge routers per core router.
FCT_EDGES_PER_CORE = 2


@dataclass(frozen=True)
class Leg:
    """One artifact of the replay sweep, reduced to what the checks read."""

    mode: str
    seed: int
    rows: list
    canonical: str
    has_obs: bool


def _row_fractions(where: str, row) -> list[str]:
    _name, _packets, overdue, beyond_t = row
    if not 0.0 <= beyond_t <= overdue <= 1.0:
        return [f"{where}: need 0 <= overdue>T ({beyond_t}) <= overdue "
                f"({overdue}) <= 1"]
    return []


def check_table1_rows(rows, expected_packets) -> list[str]:
    """Table 1: 14 rows, ordered fractions, and packets conserved."""
    problems = []
    if len(rows) != TABLE1_ROWS:
        problems.append(f"table1 has {len(rows)} rows, expected {TABLE1_ROWS}")
    for i, (row, expected) in enumerate(zip(rows, expected_packets)):
        problems += _row_fractions(f"row {i}", row)
        if row[1] != expected:
            problems.append(f"row {i}: {row[1]} packets, but its flows "
                            f"make {expected} (UDP, unbounded buffers)")
    return problems


def table1_expected_packets(duration, seed, bandwidth_scale) -> list[int]:
    """Σ⌈size/MTU⌉ over each Table 1 row's flows, regenerated from its seed."""
    from repro.experiments.replayability import (
        reference_bandwidth, table1_scenarios, topology_factory)
    from repro.workload.distributions import BoundedPareto
    from repro.workload.flows import PoissonWorkload, poisson_flows

    expected = []
    for s in table1_scenarios(duration=duration, seed=seed,
                              bandwidth_scale=bandwidth_scale):
        hosts = [h.name for h in topology_factory(s)().hosts]
        flows = poisson_flows(
            hosts=hosts,
            sizes=BoundedPareto(alpha=PARETO_ALPHA, low=PARETO_LOW,
                                high=s.max_flow_bytes),
            workload=PoissonWorkload(
                utilization=s.utilization,
                reference_bandwidth=reference_bandwidth(s),
                duration=s.duration, seed=s.seed))
        expected.append(sum(f.num_packets for f in flows))
    return expected


def fct_expected_flows(duration, seed, utilization, bandwidth_scale) -> dict:
    """``fid -> (start, size)`` of the Figure 2 flow list, regenerated."""
    from repro.topology.internet2 import Internet2Config, build_internet2
    from repro.workload.distributions import BoundedPareto
    from repro.workload.flows import PoissonWorkload, poisson_flows

    cfg = Internet2Config(edges_per_core=FCT_EDGES_PER_CORE,
                          bandwidth_scale=bandwidth_scale)
    flows = poisson_flows(
        hosts=[h.name for h in build_internet2(cfg).hosts],
        sizes=BoundedPareto(alpha=PARETO_ALPHA, low=PARETO_LOW,
                            high=FCT_MAX_FLOW),
        workload=PoissonWorkload(
            utilization=utilization,
            reference_bandwidth=min(cfg.access_bw, cfg.host_bw) * bandwidth_scale,
            duration=duration, seed=seed))
    return {f.fid: (f.start, f.size) for f in flows}


def fct_floor(size: int, bandwidth_scale: float) -> float:
    """The least FCT a flow of ``size`` bytes can have on Internet2.

    Every byte crosses an access link (the slowest link on every path),
    and every path crosses two host links and two access links.
    """
    from repro.topology.internet2 import Internet2Config

    cfg = Internet2Config()
    return (size * 8 / (cfg.access_bw * bandwidth_scale)
            + 2 * (cfg.host_prop + cfg.access_prop))


def check_fct_legs(stats_by_scheme, flows, bandwidth_scale) -> list[str]:
    """Figure 2 legs: same flows everywhere, counts add up, FCTs physical.

    ``stats_by_scheme`` maps a scheme to its ``TcpStats`` (``start``,
    ``flow_size`` and ``fct`` dicts keyed by flow id).
    """
    problems = []
    want_start = {fid: start for fid, (start, _size) in flows.items()}
    want_size = {fid: size for fid, (_start, size) in flows.items()}
    for scheme, stats in stats_by_scheme.items():
        if stats.start != want_start or stats.flow_size != want_size:
            problems.append(f"{scheme}: started flows differ from the "
                            f"{len(flows)} flows of the workload")
        unfinished = sum(1 for fid in stats.start if fid not in stats.fct)
        if len(stats.fct) + unfinished != len(flows):
            problems.append(f"{scheme}: {len(stats.fct)} completed + "
                            f"{unfinished} unfinished != {len(flows)} flows")
        for fid, fct in stats.fct.items():
            floor = fct_floor(want_size.get(fid, 0), bandwidth_scale)
            if not fct >= floor - 1e-12:
                problems.append(f"{scheme}: flow {fid} finished in {fct} s, "
                                f"below its floor {floor} s")
                break
    return problems


def check_fct_order(lstf_mean: float, fifo_mean: float) -> list[str]:
    """Paper Fig. 2: LSTF's mean FCT is below FIFO's."""
    if not lstf_mean < fifo_mean:
        return [f"LSTF mean FCT {lstf_mean} s is not below FIFO's "
                f"{fifo_mean} s"]
    return []


def completed_packets(stats) -> int:
    """Σ⌈size/MSS⌉ over the completed flows of one leg (MSS = MTU)."""
    from repro.units import MTU

    return sum(-(-stats.flow_size[fid] // MTU) for fid in stats.fct)


def sweep_expected_keys(duration, seed, bandwidth_scale, rows) -> list[str]:
    """Schedule-store keys of the sweep's Table 1 rows for one seed."""
    from repro.experiments.replayability import (
        scenario_schedule_key, table1_scenarios)

    scenarios = table1_scenarios(duration=duration, seed=seed,
                                 bandwidth_scale=bandwidth_scale)
    return [scenario_schedule_key(scenarios[i]) for i in rows]


def edf_lstf_differences(cold) -> list[str]:
    """Rows where the EDF replay's overdue fractions differ from LSTF's.

    Appendix E makes the two schedules identical, yet on some seeds they
    differ (seed 1000, row 6: overdue 0.021871 under LSTF, 0.022118 under
    EDF), likely because the two keys are computed along different float
    paths.  A seed-dependent difference cannot gate a seeded benchmark,
    so the rows are reported with each round, not counted as wrong.
    """
    rows = {(leg.seed, leg.mode): leg.rows for leg in cold}
    return [f"seed {seed} row {i}"
            for (seed, mode), edf_rows in rows.items() if mode == "edf"
            for i, (edf, lstf) in enumerate(zip(edf_rows, rows[(seed, "lstf")]))
            if edf != lstf]


def check_sweep(cold, forced, store_keys, recorded_keys,
                expected_keys) -> list[str]:
    """The replay sweep: mode properties, the record-once store, and a
    forced pass byte-identical to the cold one.

    ``cold`` and ``forced`` are the two passes' :class:`Leg` lists in leg
    order; ``recorded_keys`` is the store's log of actual recordings
    after both passes.
    """
    problems = []
    by_mode = {}
    for leg in cold:
        by_mode.setdefault(leg.seed, {})[leg.mode] = leg.rows
    for leg in cold + forced:
        if not leg.has_obs:
            problems.append(f"{leg.mode}/{leg.seed}: no telemetry summary")
        for i, row in enumerate(leg.rows):
            problems += _row_fractions(f"{leg.mode}/{leg.seed} row {i}", row)
            if leg.mode == "omniscient" and (row[2] or row[3]):
                problems.append(f"omniscient/{leg.seed} row {i}: overdue "
                                f"{row[2]}, {row[3]}; the omniscient replay "
                                "is never late")
    for seed, modes in by_mode.items():
        packets = {mode: [row[1] for row in rows]
                   for mode, rows in modes.items()}
        if len({tuple(p) for p in packets.values()}) > 1:
            problems.append(f"seed {seed}: packet counts differ across "
                            f"modes: {packets}")
    if sorted(store_keys) != sorted(expected_keys):
        problems.append(f"store holds {sorted(store_keys)}, expected one "
                        f"schedule per (row, seed): {sorted(expected_keys)}")
    if sorted(recorded_keys) != sorted(expected_keys):
        problems.append(f"recordings {recorded_keys}: each schedule must be "
                        "recorded once by the cold pass and never by the "
                        "forced pass")
    if [leg.canonical for leg in forced] != [leg.canonical for leg in cold]:
        problems.append("forced-pass artifacts are not byte-identical to the "
                        "cold pass")
    return problems
