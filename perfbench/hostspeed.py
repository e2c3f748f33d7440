"""Host speed, sampled by a fixed reference loop between timed units.

The benchmark host is a share of a machine whose other tenants change how
fast it runs: on a 2-vCPU Xeon share, whole runs of the same inputs a minute
apart differed by a quarter, and a trace that took 0.13 s took 0.24 s a few
seconds later.  Host seconds measured in different runs are then not
comparable.

So the benchmark runs a fixed pure-Python reference loop after every timed
unit of work (a set-up, a run, a closed-loop segment, a batch), and scales
the run's host seconds by::

    factor = (REFERENCE_S / median(reference loop times of the run)) ** sensitivity

This reports them in *reference seconds*: about the time the work would
have taken on a host that runs the loop in ``REFERENCE_S``.  The loop is
benchmark code and calls nothing of the program, so a change to the
program moves a scaled time exactly as it moves the host time.

A workload feels a change of host speed less than the loop does, by how
much of its time is interpreter work rather than numpy, waiting or other
processes, so the loop's time enters with a per-workload exponent (a
control variate; the values and their fits are in ``workloads.SENSITIVITY``).
Every result also prints the factor and the unscaled metrics.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from contextlib import contextmanager

#: Median time of :func:`reference_loop` between units of work on the host
#: the benchmark was built on (2 vCPUs of an Intel Xeon at 2.1 GHz), so that
#: reference seconds read about like host seconds there.
REFERENCE_S = 0.0095
#: A unit starts with a probe of its own when the last one is older than this.
STALE_S = 0.5


class _Item:
    __slots__ = ("index", "group", "weight")

    def __init__(self, index: int, group: int, weight: float):
        self.index = index
        self.group = group
        self.weight = weight

    def key(self) -> tuple[int, int]:
        return (self.group, self.index)


def reference_loop() -> int:
    """A fixed mix of interpreter work: objects, attributes, sorting, a
    heap, dicts, strings and float arithmetic, like the program's own."""
    items = [_Item(i, (i * 2654435761) % 977, i * 0.5) for i in range(2000)]
    items.sort(key=_Item.key)
    heap: list[tuple[float, int]] = []
    groups: dict[int, list[int]] = {}
    for item in items:
        heapq.heappush(heap, (item.weight, item.index))
        if len(heap) > 64:
            heapq.heappop(heap)
        groups.setdefault(item.group % 97, []).append(item.index)
    counts: dict[int, int] = {}
    total = 0
    for i in range(12000):
        key = (i * 7919) % 1000
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    return total + len(heap) + sum(len(v) for v in groups.values())


def probe() -> float:
    """Seconds one reference loop takes now (the collector paused)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Unit:
    """One timed unit of work, in host seconds."""

    __slots__ = ("start", "end")

    def __init__(self, start: float):
        self.start = start
        self.end = start

    @property
    def host_s(self) -> float:
        return self.end - self.start


class HostSpeed:
    """Times units of work and probes the host around them."""

    def __init__(self):
        self.units: list[Unit] = []
        self.probes: list[float] = []
        self._probed_at = float("-inf")

    def _probe(self) -> None:
        self.probes.append(probe())
        self._probed_at = time.perf_counter()

    @contextmanager
    def unit(self):
        if time.perf_counter() - self._probed_at > STALE_S:
            self._probe()
        unit = Unit(time.perf_counter())
        try:
            yield unit
        finally:
            unit.end = time.perf_counter()
            self.units.append(unit)
            self._probe()

    def factor(self, sensitivity: float) -> float:
        """Reference seconds per host second over the whole run."""
        if not self.probes:
            return 1.0
        return (REFERENCE_S / statistics.median(self.probes)) ** sensitivity

    @property
    def host_s(self) -> float:
        return sum(unit.host_s for unit in self.units)

    def summary(self, sensitivity: float) -> dict[str, float]:
        probes = self.probes or [REFERENCE_S]
        return {
            "units": len(self.units),
            "probes": len(self.probes),
            "probe_median_ms": round(statistics.median(probes) * 1e3, 4),
            "probe_min_ms": round(min(probes) * 1e3, 4),
            "probe_max_ms": round(max(probes) * 1e3, 4),
            "sensitivity": sensitivity,
            "factor": round(self.factor(sensitivity), 4),
            "host_s": round(self.host_s, 4),
        }
