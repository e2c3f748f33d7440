"""Counters, histograms and their Prometheus text exposition.

:class:`Counter` and :class:`Histogram` are thread-safe primitives; the
gateway keeps its daemon-level series and the ``repro_service_*`` totals
of every finished batch in them (see
:class:`~repro.gateway.server.GatewayMetrics`).  A batch's own totals are
:meth:`BatchResults.aggregate() <repro.service.pool.BatchResults.aggregate>`,
and its activation-cache counts the memo's
:meth:`~repro.store.memo.Memo.info`.

:func:`prometheus_lines` and :func:`prometheus_grouped_lines` render them in
the Prometheus text exposition format that ``GET /metrics`` serves.
"""

from __future__ import annotations

import random
import threading
from typing import Iterable, Mapping, Sequence


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
    """A streaming histogram keeping an exact count and sum and sampled values.

    Beyond ``max_samples`` observations the sample set is maintained by
    reservoir sampling (Vitter's Algorithm R), so percentiles describe the
    *whole* observation stream uniformly — not just the first N values, which
    would bias p50/p90/p99 toward early traces on long runs.  The reservoir's
    RNG is seeded deterministically from the histogram name, so identical
    observation sequences reproduce identical percentiles across processes.
    count and sum stay exact regardless of the cap.
    """

    def __init__(self, name: str, description: str = "", max_samples: int = 100_000):
        self.name = name
        self.description = description
        self._max_samples = max_samples
        self._samples: list[float] = []
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()
        self._reservoir = random.Random(name)

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self._count += 1
            self._total += value
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

    def quantiles(self, fractions: Sequence[float]) -> list[float]:
        """The nearest-rank ``fractions``-quantiles of the stored samples.

        One sort serves every fraction (NaN each when empty).
        """
        for fraction in fractions:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(
                    f"percentile fraction must be in [0, 1], got {fraction}"
                )
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return [float("nan")] * len(fractions)
        last = len(ordered) - 1
        return [ordered[min(last, max(0, round(f * last)))] for f in fractions]

    def percentile(self, fraction: float) -> float:
        """The ``fraction``-quantile (nearest-rank) of the stored samples."""
        return self.quantiles((fraction,))[0]


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


#: The quantiles every summary exports.
_QUANTILES = (0.5, 0.9, 0.99)


def _summary_lines(
    name: str, histogram: Histogram, labels: Mapping[str, str]
) -> list[str]:
    """One summary's ``_count``/``_sum`` and, unless empty, its quantiles.

    The quantiles come from one sort of the reservoir.
    """
    tag = _prom_labels(labels)
    lines = [
        f"{name}_count{tag} {histogram.count}",
        f"{name}_sum{tag} {histogram.total:g}",
    ]
    if histogram.count:
        for fraction, value in zip(_QUANTILES, histogram.quantiles(_QUANTILES)):
            quantile = _prom_labels({**labels, "quantile": f"{fraction:g}"})
            lines.append(f"{name}{quantile} {value:g}")
    return lines


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
        lines.extend(_summary_lines(name, histogram, labels or {}))
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
        if metric_type == "summary":
            lines.extend(_summary_lines(full, entry, {label: value}))
        else:
            lines.append(f"{full}{_prom_labels({label: value})} {entry:g}")
    return lines
