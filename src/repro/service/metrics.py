"""Counters and histograms for the batch-simulation service.

The service records how a batch behaved — traces simulated, requests
accepted, scheduler activations, cache effectiveness, energy — in a
:class:`ServiceMetrics` registry.  :meth:`ServiceMetrics.snapshot` returns a
plain dictionary (JSON-ready) and :meth:`ServiceMetrics.format` renders the
text block the ``repro-rm batch`` CLI prints after a run.

All mutators are thread-safe so a single registry can be shared by every
worker of a :class:`~repro.service.pool.SimulationService`.

:func:`prometheus_lines` renders any collection of counters and histograms
in the Prometheus text exposition format; the gateway's ``GET /metrics``
endpoint serves :meth:`ServiceMetrics.to_prometheus` output concatenated
with its own daemon-level series.
"""

from __future__ import annotations

import random
import threading
from typing import Iterable, Mapping


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: cannot add negative {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value


class Histogram:
    """A streaming histogram keeping summary statistics and sampled values.

    Beyond ``max_samples`` observations the sample set is maintained by
    reservoir sampling (Vitter's Algorithm R), so percentiles describe the
    *whole* observation stream uniformly — not just the first N values, which
    would bias p50/p90/p99 toward early traces on long runs.  The reservoir's
    RNG is seeded deterministically from the histogram name, so identical
    observation sequences reproduce identical percentiles across processes.
    count/sum/min/max stay exact regardless of the cap.
    """

    def __init__(self, name: str, description: str = "", max_samples: int = 100_000):
        self.name = name
        self.description = description
        self._max_samples = max_samples
        self._samples: list[float] = []
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()
        self._reservoir = random.Random(name)

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                # Algorithm R: keep each of the _count observations seen so
                # far in the reservoir with probability max_samples/_count.
                slot = self._reservoir.randrange(self._count)
                if slot < self._max_samples:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        """Number of observed samples."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed samples."""
        return self._total

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (NaN when empty)."""
        return self._total / self._count if self._count else float("nan")

    @property
    def min(self) -> float:
        """Smallest observed sample (NaN when empty)."""
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        """Largest observed sample (NaN when empty)."""
        return self._max if self._count else float("nan")

    def percentile(self, fraction: float) -> float:
        """The ``fraction``-quantile (nearest-rank) of the stored samples."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
        with self._lock:
            if not self._samples:
                return float("nan")
            ordered = sorted(self._samples)
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict[str, float]:
        """Count, sum, mean, min/max and the common percentiles."""
        return {
            "count": self._count,
            "total": self._total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and line feed are the three characters the spec
    requires escaping inside quoted label values.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help_text(text) -> str:
    """Escape HELP text per the Prometheus text exposition format.

    HELP lines escape backslash and line feed only (quotes are legal there).
    """
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str] | None) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def prometheus_lines(
    counters: Iterable[Counter] = (),
    histograms: Iterable[Histogram] = (),
    *,
    prefix: str = "repro",
    labels: Mapping[str, str] | None = None,
) -> list[str]:
    """Render counters and histograms in Prometheus text exposition format.

    Histograms are exported as summaries: ``_count``/``_sum`` series plus
    ``quantile``-labelled gauges for p50/p90/p99.  Empty histograms emit
    only their count (quantiles of nothing are NaN, which scrapers dislike).
    """
    tag = _prom_labels(labels)
    lines: list[str] = []
    for counter in counters:
        name = f"{prefix}_{counter.name}"
        if counter.description:
            lines.append(f"# HELP {name} {escape_help_text(counter.description)}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{tag} {counter.value:g}")
    for histogram in histograms:
        name = f"{prefix}_{histogram.name}"
        if histogram.description:
            lines.append(f"# HELP {name} {escape_help_text(histogram.description)}")
        lines.append(f"# TYPE {name} summary")
        lines.append(f"{name}_count{tag} {histogram.count}")
        lines.append(f"{name}_sum{tag} {histogram.total:g}")
        if histogram.count:
            for fraction in (0.5, 0.9, 0.99):
                quantile = dict(labels or {})
                quantile["quantile"] = f"{fraction:g}"
                lines.append(
                    f"{name}{_prom_labels(quantile)} "
                    f"{histogram.percentile(fraction):g}"
                )
    return lines


def prometheus_grouped_lines(
    name: str,
    description: str,
    grouped: Mapping[str, "Histogram | float | int"],
    *,
    prefix: str = "repro",
    label: str = "phase",
    metric_type: str = "summary",
) -> list[str]:
    """One metric whose series are distinguished by a label.

    ``grouped`` maps label values (e.g. phase names) to histograms; unlike
    calling :func:`prometheus_lines` per histogram, the shared metric name
    gets exactly one HELP/TYPE header — duplicated headers are invalid in
    the text exposition format.

    With ``metric_type`` set to ``"counter"`` or ``"gauge"``, the mapping
    values are plain numbers and each label value becomes one sample line —
    the shape the store's per-kind hit/miss/byte counters (``repro_store_*``)
    are exported in.
    """
    full = f"{prefix}_{name}"
    lines: list[str] = []
    if grouped:
        if description:
            lines.append(f"# HELP {full} {escape_help_text(description)}")
        lines.append(f"# TYPE {full} {metric_type}")
    for value, entry in sorted(grouped.items()):
        tag = _prom_labels({label: value})
        if metric_type != "summary":
            lines.append(f"{full}{tag} {entry:g}")
            continue
        lines.append(f"{full}_count{tag} {entry.count}")
        lines.append(f"{full}_sum{tag} {entry.total:g}")
        if entry.count:
            for fraction in (0.5, 0.9, 0.99):
                quantile = _prom_labels({label: value, "quantile": f"{fraction:g}"})
                lines.append(f"{full}{quantile} {entry.percentile(fraction):g}")
    return lines


class ServiceMetrics:
    """The metric registry of one :class:`~repro.service.pool.SimulationService`.

    Counters
    --------
    ``traces_run`` / ``traces_failed``
        Simulations completed / aborted by an error (failure isolation).
    ``requests_total`` / ``requests_accepted`` / ``requests_rejected``
        Admission outcomes summed over all traces.
    ``activations``
        Scheduler activations summed over all traces.
    ``cache_hits`` / ``cache_misses``
        Activation-cache statistics (zero when caching is disabled).

    ``budget_rejections``
        Requests turned away by the power-cap / energy-budget admission
        control (a subset of ``requests_rejected``).

    Histograms
    ----------
    ``trace_energy``
        Total consumed energy per trace (J).
    ``request_energy``
        Energy attributed to each admitted request (J).
    ``trace_search_time``
        Cumulative scheduler search time per trace (s).
    ``trace_wall_time``
        Wall-clock simulation time per trace (s).
    """

    def __init__(self) -> None:
        self.traces_run = Counter("traces_run", "simulations completed")
        self.traces_failed = Counter("traces_failed", "simulations failed")
        self.requests_total = Counter("requests_total", "requests simulated")
        self.requests_accepted = Counter("requests_accepted", "requests admitted")
        self.requests_rejected = Counter("requests_rejected", "requests rejected")
        self.activations = Counter("activations", "scheduler activations")
        self.cache_hits = Counter("cache_hits", "activation cache hits")
        self.cache_misses = Counter("cache_misses", "activation cache misses")
        self.budget_rejections = Counter(
            "budget_rejections", "requests rejected by the energy budget"
        )
        self.trace_energy = Histogram("trace_energy", "energy per trace (J)")
        self.request_energy = Histogram(
            "request_energy", "energy per admitted request (J)"
        )
        self.trace_search_time = Histogram(
            "trace_search_time", "scheduler time per trace (s)"
        )
        self.trace_wall_time = Histogram(
            "trace_wall_time", "wall-clock time per trace (s)"
        )

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def observe_result(self, result) -> None:
        """Record one :class:`~repro.service.pool.SimulationResult`."""
        if result.error is not None:
            self.traces_failed.increment()
            return
        self.traces_run.increment()
        self.requests_total.increment(result.requests)
        self.requests_accepted.increment(result.accepted)
        self.requests_rejected.increment(result.rejected)
        self.activations.increment(result.activations)
        self.budget_rejections.increment(result.budget_rejections)
        self.trace_energy.observe(result.total_energy)
        for outcome in result.outcomes:
            if outcome.accepted:
                self.request_energy.observe(outcome.energy)
        self.trace_search_time.observe(result.search_time_total)
        self.trace_wall_time.observe(result.wall_time)

    def observe_cache(self, info: Mapping[str, float]) -> None:
        """Fold an activation :meth:`~repro.store.memo.Memo.info` snapshot in."""
        self.cache_hits.increment(info.get("hits", 0))
        self.cache_misses.increment(info.get("misses", 0))

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def acceptance_rate(self) -> float:
        """Overall fraction of admitted requests (1.0 when nothing ran)."""
        total = self.requests_total.value
        return self.requests_accepted.value / total if total else 1.0

    @property
    def cache_hit_rate(self) -> float:
        """Overall activation-cache hit rate (0.0 when caching is off)."""
        total = self.cache_hits.value + self.cache_misses.value
        return self.cache_hits.value / total if total else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready dictionary of every counter and histogram."""
        return {
            "counters": {
                counter.name: counter.value
                for counter in (
                    self.traces_run,
                    self.traces_failed,
                    self.requests_total,
                    self.requests_accepted,
                    self.requests_rejected,
                    self.activations,
                    self.cache_hits,
                    self.cache_misses,
                    self.budget_rejections,
                )
            },
            "derived": {
                "acceptance_rate": self.acceptance_rate,
                "cache_hit_rate": self.cache_hit_rate,
            },
            "histograms": {
                histogram.name: histogram.summary()
                for histogram in (
                    self.trace_energy,
                    self.request_energy,
                    self.trace_search_time,
                    self.trace_wall_time,
                )
            },
        }

    def to_prometheus(self, *, prefix: str = "repro_service") -> str:
        """The registry in Prometheus text exposition format."""
        lines = prometheus_lines(
            (
                self.traces_run,
                self.traces_failed,
                self.requests_total,
                self.requests_accepted,
                self.requests_rejected,
                self.activations,
                self.cache_hits,
                self.cache_misses,
                self.budget_rejections,
            ),
            (
                self.trace_energy,
                self.request_energy,
                self.trace_search_time,
                self.trace_wall_time,
            ),
            prefix=prefix,
        )
        return "\n".join(lines) + "\n"

    def format(self) -> str:
        """Render the snapshot as the text block printed by the CLI."""
        snap = self.snapshot()
        lines = ["service metrics"]
        for name, value in snap["counters"].items():
            lines.append(f"  {name:20s} {value:12.0f}")
        lines.append(f"  {'acceptance_rate':20s} {self.acceptance_rate * 100:11.1f}%")
        lines.append(f"  {'cache_hit_rate':20s} {self.cache_hit_rate * 100:11.1f}%")
        for name, summary in snap["histograms"].items():
            if not summary["count"]:
                continue
            lines.append(
                f"  {name:20s} mean={summary['mean']:.4g} "
                f"p50={summary['p50']:.4g} p90={summary['p90']:.4g} "
                f"max={summary['max']:.4g}"
            )
        return "\n".join(lines)
