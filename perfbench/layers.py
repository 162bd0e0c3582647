"""Per-layer timing of the simulator, measured from outside the package.

:class:`LayerTrace` replaces the public functions and methods of each
``src/repro`` layer with timing wrappers, runs the workload, and puts the
originals back.  Nothing in ``src/`` knows it is being traced.

Every wrapped call charges its *self time* (its duration minus the
durations of the wrapped calls made inside it) to its layer, so the
layers' self times, plus ``other`` for whatever runs outside any wrapped
call, add up to the traced wall time exactly.

The wrappers cost time of their own, most of it outside the interval they
time, so it would land in the caller's self time: with hundreds of
thousands of wrapped calls per round that is more than the program's own
time.  :func:`calibrate` times a wrapped no-op against a bare one before
the run, and :meth:`LayerTrace.metrics` takes each layer's wrapped-call
counts times that cost out of its self time and reports it as
``trace.wrapper_s``, part of ``other.self_s``.

Per-packet calls (node, port, scheduler, tracer hooks, TCP agents,
telemetry) are far too many to keep one record each, so they are kept as
counts and self-time sums.  Coarse calls (runner, replay, store, builders,
metrics, engine loops, flow installs) also keep a span each: name, start,
end and the index of the enclosing span, written out by :meth:`dump`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

#: Layers in report order; each contributes ``<layer>.self_s``.
LAYERS = ("engine", "node", "port", "sched", "tracer", "transport", "replay",
          "store", "runner", "obs", "build", "metrics")

#: Count metrics that must repeat exactly across two traced runs of one seed.
COUNT_METRICS = ("engine.events", "engine.cancels", "node.calls", "port.calls",
                 "port.drops", "sched.push_calls", "sched.pop_calls",
                 "tracer.calls", "transport.calls", "transport.retx",
                 "store.puts", "store.gets", "store.bytes", "obs.samples")


def _targets():
    """``(owner, attribute, layer, counter, span)`` for every wrapped callable.

    ``counter`` is the count the call adds one to (None: none).  ``span``
    is the span name for coarse calls and None for per-packet ones.  A
    ``layer`` of None marks a count-only wrapper, whose time stays with
    its caller.
    """
    import repro.api.results as results
    import repro.api.runner as runner
    import repro.core.replay as replay
    import repro.core.trace_io as trace_io
    import repro.metrics.congestion
    import repro.metrics.delay
    import repro.metrics.fairness
    import repro.metrics.fct
    import repro.obs.hub as hub
    import repro.schedulers.base as sched_base
    import repro.sim.engine as engine
    import repro.sim.network as network
    import repro.sim.node as node
    import repro.sim.port as port
    import repro.sim.tracer as tracer
    import repro.topology.fattree as fattree
    import repro.topology.internet2 as internet2
    import repro.topology.rocketfuel as rocketfuel
    import repro.transport.tcp as tcp
    import repro.transport.udp as udp
    import repro.workload.flows as flows
    import repro.schedulers  # noqa: F401  (loads every concrete scheduler)

    t = [
        (engine.Engine, "run", "engine", None, "Engine.run"),
        (engine.EventHandle, "cancel", None, "engine.cancels", None),
        (node.Node, "receive", "node", "node.calls", None),
        (node.Node, "forward", "node", "node.calls", None),
        (node.Node, "deliver", "node", "node.calls", None),
        (node.Host, "inject", "node", "node.calls", None),
        (node.Host, "deliver", "node", "node.calls", None),
        (tracer.Tracer, "on_drop", None, "port.drops", None),
        (tcp.TcpSender, "_retransmit_head", None, "transport.retx", None),
        (tcp.TcpSender, "on_packet", "transport", "transport.calls", None),
        (tcp.TcpSender, "_start", "transport", "transport.calls", None),
        (tcp.TcpSender, "_on_timeout", "transport", "transport.calls", None),
        (tcp.TcpReceiver, "on_packet", "transport", "transport.calls", None),
        (udp.UdpSource, "_emit", "transport", "transport.calls", None),
        (tcp, "install_tcp_flows", "transport", "transport.calls",
         "install_tcp_flows"),
        (udp, "install_udp_flows", "transport", "transport.calls",
         "install_udp_flows"),
        (replay, "record_schedule", "replay", None, "record_schedule"),
        (replay, "replay_schedule", "replay", None, "replay_schedule"),
        (trace_io.ScheduleStore, "put", "store", "store.puts",
         "ScheduleStore.put"),
        (trace_io.ScheduleStore, "get", "store", "store.gets",
         "ScheduleStore.get"),
        (runner, "run", "runner", None, "run"),
        (runner, "run_many", "runner", None, "run_many"),
        (results.RunArtifact, "save", "runner", None, "RunArtifact.save"),
        (hub.MetricsHub, "sample_network", "obs", "obs.samples", None),
        (hub.MetricsHub, "record", "obs", None, None),
        (hub.MetricsHub, "tx", "obs", None, None),
        (hub.MetricsHub, "drop", "obs", None, None),
        (hub.MetricsHub, "count", "obs", None, None),
        (hub.MetricsHub, "summary", "obs", None, "MetricsHub.summary"),
        (internet2, "build_internet2", "build", None, "build_internet2"),
        (rocketfuel, "build_rocketfuel", "build", None, "build_rocketfuel"),
        (fattree, "build_fattree", "build", None, "build_fattree"),
        (flows, "poisson_flows", "build", None, "poisson_flows"),
        (network.Network, "install_schedulers", "build", None,
         "Network.install_schedulers"),
        (network.Network, "install_uniform", "build", None,
         "Network.install_uniform"),
        (network.Network, "set_buffers", "build", None, "Network.set_buffers"),
    ]
    for name in ("enqueue", "_decide", "_tx_done", "_on_wakeup", "_finish"):
        for cls in (port.Port, port.PreemptivePort):
            if name in vars(cls):
                t.append((cls, name, "port", "port.calls", None))
    for name in ("on_created", "on_hop", "on_tx_start", "on_exit", "on_drop"):
        t.append((tracer.Tracer, name, "tracer", "tracer.calls", None))
    for cls in _subclasses(sched_base.Scheduler):
        for name, key in (("push", "sched.push_calls"),
                          ("pop", "sched.pop_calls"),
                          ("drop_victim", None)):
            if name in vars(cls):
                t.append((cls, name, "sched", key, None))
    for mod in (repro.metrics.fct, repro.metrics.delay,
                repro.metrics.congestion, repro.metrics.fairness):
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                t.append((mod, name, "metrics", None, f"metrics.{name}"))
    return t


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))


#: Calls per calibration loop, and how many times each loop is timed.
CALIBRATION_CALLS = 200_000
CALIBRATION_REPEATS = 5


class WrapperCost(NamedTuple):
    """Host seconds one wrapped call adds to the traced run.

    ``outside`` lands in the caller's self time (entering and leaving the
    wrapper around the timed interval), ``inside`` in the callee's own
    (the part of the wrapper inside it), ``count_only`` in the caller's
    for a wrapper that only counts.
    """

    outside: float
    inside: float
    count_only: float


def _noop(a, b):
    return None


def calibrate() -> WrapperCost:
    """Time calls of a no-op bare and wrapped, as a layer would call it.

    Each loop of CALIBRATION_CALLS calls is timed CALIBRATION_REPEATS
    times and its fastest time kept, so a moment of host contention does
    not count as wrapper cost.
    """
    n = CALIBRATION_CALLS
    trace = LayerTrace()
    hot = trace._hot(_noop, "callee", None)
    counted = trace._count_only(_noop, "calls")
    clock = time.perf_counter

    def loop(fn):
        calls = range(n)
        trace._stack.append(["caller", 0.0])
        inside = trace.self_s["callee"]
        t0 = clock()
        if fn is None:
            for _ in calls:
                pass
        else:
            for _ in calls:
                fn(1, 2)
        elapsed = clock() - t0
        trace._stack.pop()
        return elapsed, trace.self_s["callee"] - inside

    best = {}
    for _ in range(CALIBRATION_REPEATS):
        for name, fn in (("empty", None), ("bare", _noop), ("hot", hot),
                         ("count", counted)):
            elapsed, inside = loop(fn)
            if name not in best or elapsed < best[name][0]:
                best[name] = (elapsed, inside)
    call = (best["bare"][0] - best["empty"][0]) / n
    total = (best["hot"][0] - best["bare"][0]) / n
    inside = max(0.0, best["hot"][1] / n - call)
    return WrapperCost(max(0.0, total - inside), inside,
                       max(0.0, (best["count"][0] - best["bare"][0]) / n))


class LayerTrace:
    """Self time and counts per layer, plus spans of the coarse calls."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: Timed wrapped calls per layer, and the timed and count-only
        #: wrapped calls made directly inside each layer's calls: what
        #: the wrappers' own cost is charged by in :meth:`metrics`.
        self.timed: Counter[str] = Counter()
        self.nested: Counter[str] = Counter()
        self.nested_counts: Counter[str] = Counter()
        #: Seconds per call the wrappers add (see :func:`calibrate`).
        self.cost = WrapperCost(0.0, 0.0, 0.0)
        self.spans: list[list] = []
        self._stack: list[list] = []  # [layer, wrapped-children seconds] per open call
        self._open: list[int] = []  # indices of open spans
        self._undo: list[tuple] = []
        self._origin = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _count_only(self, fn, key):
        counts, nested_counts, stack = self.counts, self.nested_counts, self._stack

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack:
                nested_counts[stack[-1][0]] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hot(self, fn, layer, key):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        timed, nested = self.timed, self.nested
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                counts[key] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                timed[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    nested[parent[0]] += 1
        return wrapper

    def _coarse(self, fn, layer, key, name):
        counts, self_s, incl = self.counts, self.self_s, self.incl_s
        stack, spans, open_ = self._stack, self.spans, self._open
        timed, nested = self.timed, self.nested
        clock, origin = time.perf_counter, self._origin

        def wrapper(*args, **kwargs):
            if key is not None:
                counts[key] += 1
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                timed[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    nested[parent[0]] += 1
                incl[name] += dur
                span[1], span[2] = t0 - origin, t1 - origin
                open_.pop()
        return wrapper

    def _measured(self, owner, attr, fn):
        """Extra counts that need the call's arguments or result."""
        counts = self.counts
        target = (getattr(owner, "__name__", ""), attr)
        if target == ("Engine", "run"):

            def engine_run(engine, *args, **kwargs):
                before = engine.events_processed
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    counts["engine.events"] += engine.events_processed - before
            return engine_run
        if target == ("ScheduleStore", "put"):

            def store_put(store, *args, **kwargs):
                path = fn(store, *args, **kwargs)
                counts["store.bytes"] += Path(path).stat().st_size
                return path
            return store_put
        return fn

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  Call before the workload builds any network.

        Functions are also replaced in every loaded module that imported
        them by name (``from repro.x import f``), so calls through those
        bindings are traced too.
        """
        for owner, attr, layer, key, span in _targets():
            original = vars(owner)[attr]
            fn = self._measured(owner, attr, original)
            if layer is None:
                wrapped = self._count_only(fn, key)
            elif span is None:
                wrapped = self._hot(fn, layer, key)
            else:
                wrapped = self._coarse(fn, layer, key, span)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put every original back, undoing the replacements in reverse."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def wrapper_s(self) -> dict:
        """Each layer's share of the wrappers' own cost, by its call counts."""
        cost = self.cost
        return {layer: self.nested[layer] * cost.outside
                + self.timed[layer] * cost.inside
                + self.nested_counts[layer] * cost.count_only
                for layer in LAYERS}

    def metrics(self, wall_s: float, untraced_wall_s: float, pkts: int) -> dict:
        """The per-layer metrics of one traced round of ``wall_s`` seconds.

        A layer's self time has the wrappers' cost taken out (never below
        0); what is taken out goes to ``other.self_s``, which stays the
        remainder, so the reported self times still sum to ``wall_s``.
        """
        c, wrappers = self.counts, self.wrapper_s()
        out = {f"{layer}.self_s": max(0.0, self.self_s[layer] - wrappers[layer])
               for layer in LAYERS}
        out.update({key: c[key] for key in COUNT_METRICS})
        out["engine.events_per_pkt"] = c["engine.events"] / pkts
        out["replay.record_s"] = self.incl_s["record_schedule"]
        out["replay.replay_s"] = self.incl_s["replay_schedule"]
        out["runner.save_s"] = self.incl_s["RunArtifact.save"]
        out["other.self_s"] = wall_s - sum(out[f"{layer}.self_s"]
                                           for layer in LAYERS)
        out["trace.wrapper_s"] = sum(wrappers.values())
        out["trace.wall_s"] = wall_s
        out["trace.overhead"] = wall_s / untraced_wall_s
        return out

    def dump(self, path: Path, metrics: dict) -> None:
        """Write spans, counts and the derived metrics as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "metrics": metrics,
            "counts": dict(sorted(self.counts.items())),
            "wrapper_cost_s": self.cost._asdict(),
            "timed_calls": dict(sorted(self.timed.items())),
            "nested_calls": dict(sorted(self.nested.items())),
            "nested_count_only_calls": dict(sorted(self.nested_counts.items())),
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
        }))
