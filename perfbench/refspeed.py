"""How fast the host runs Python right now, from a fixed reference loop.

The host this benchmark runs on is shared, and its speed drifts by up to
half within minutes while the process keeps its CPU (README, *Jitter*):
a run's host time says as much about the moment as about the program.
So every timed phase is bracketed by passes of :func:`reference_loop`, a
fixed piece of pure Python shaped like a discrete-event simulator (slotted
objects allocated and dropped, a heap of ``(time, seq, obj)`` entries,
dict lookups, attribute updates and method calls), and its host time is
converted into *reference seconds*::

    reference seconds = host seconds * REFERENCE_S / (median loop time)

``REFERENCE_S`` is the loop's time on the reference host, so a reference
second is a host second there at a quiet moment.  A change to the program
changes the host seconds and not the loop, so it moves reference seconds
in full; a slower host moves both and cancels.  The loop lives here, not
in the package, so no change to the package can change it.

The loop runs with the garbage collector off: its collections would
otherwise walk the program's live heap, and a program that kept more
objects would slow the loop and look faster for it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Median host time of one :func:`reference_loop` on the reference host
#: (README) at a quiet moment.
REFERENCE_S = 0.040
#: Events one loop pushes through its heap.
EVENTS = 12_000
#: Live entries the heap holds.
DEPTH = 512


class _Event:
    __slots__ = ("time", "node", "size", "hops")

    def __init__(self, time: float, node: int, size: int) -> None:
        self.time = time
        self.node = node
        self.size = size
        self.hops = 0

    def forward(self, delay: float) -> float:
        self.hops += 1
        return self.time + delay * self.size


def reference_loop(events: int = EVENTS) -> int:
    """A fixed event loop; returns a checksum so that no step is dead."""
    heap: list = []
    routes = {i: (i * 7 + 3) % 97 for i in range(97)}
    seen: dict = {}
    seq = 0
    x = 12345
    total = 0
    for _ in range(events):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        event = _Event(x / 0x7FFFFFFF, x % 97, 1 + x % 1500)
        heapq.heappush(heap, (event.time, seq, event))
        seq += 1
        if len(heap) > DEPTH:
            _, _, done = heapq.heappop(heap)
            node = routes[done.node]
            seen[node] = seen.get(node, 0) + 1
            total += int(done.forward(1e-6) * 1000) + seen[node]
    return total + len(heap)


def loop_seconds() -> float:
    """Host seconds of one reference loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Reference-loop samples taken around and between timed steps.

    :meth:`sample` times one loop; :attr:`paused` is the host time spent in
    samples, for taking out of a timed phase that sampled inside it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.paused += time.perf_counter() - start

    def scale(self) -> float:
        """Reference seconds per host second, from the median sample."""
        return REFERENCE_S / statistics.median(self.samples)
