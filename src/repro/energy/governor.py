"""Pluggable frequency governors for the runtime manager.

A governor decides, at every schedule commit, the uniform relative speed the
platform runs the committed schedule at.  Speeds come from the platform's
OPP ladders (:func:`~repro.energy.opp.available_scales`); a speed below 1.0
stretches the committed schedule in time (work retires proportionally
slower) and moves every cluster to the slowest OPP that sustains the speed
(:func:`~repro.energy.opp.decide`), which is where the energy saving comes
from — dynamic power drops cubically while execution only stretches
linearly.

Four governors mirror the classic cpufreq line-up:

* :class:`PerformanceGovernor` — always nominal frequency.  With default
  OPPs this reproduces the paper's pinned-frequency behaviour.
* :class:`PowersaveGovernor` — always the slowest available speed,
  regardless of deadlines (the cpufreq semantics; admitted jobs may miss).
* :class:`OndemandGovernor` — utilisation-driven: scales the speed to the
  core utilisation of the next committed segment against an ``up_threshold``.
* :class:`ScheduleAwareGovernor` — deadline-aware: among the speeds that
  keep every committed completion before its deadline, picks the one with
  the lowest modelled energy (in the common dynamic-power-dominated case,
  the slowest OPP that still meets the deadlines).
"""

from __future__ import annotations

import abc
from typing import Mapping

from repro.core.config import ConfigTable
from repro.core.request import Job
from repro.core.segment import MappingSegment, Schedule, TIME_EPSILON
from repro.energy.opp import SCALE_EPSILON, available_scales, decide
from repro.exceptions import EnergyError
from repro.platforms.platform import Platform


# ---------------------------------------------------------------------- #
# Schedule stretching
# ---------------------------------------------------------------------- #
def stretch_schedule(schedule: Schedule, now: float, scale: float) -> Schedule:
    """Stretch the part of ``schedule`` after ``now`` by ``1 / scale``.

    Segment boundaries at or before ``now`` are already history and stay
    put; later boundaries map to ``now + (t - now) / scale``.  The mapping is
    monotone, so segment ordering and disjointness are preserved.
    """
    if scale <= 0:
        raise EnergyError(f"stretch scale must be positive, got {scale}")
    if abs(scale - 1.0) <= SCALE_EPSILON:
        return schedule
    segments = []
    for segment in schedule:
        if segment.end <= now + TIME_EPSILON:
            segments.append(segment)
            continue
        start = segment.start
        if start > now + TIME_EPSILON:
            start = now + (start - now) / scale
        end = now + (segment.end - now) / scale
        segments.append(MappingSegment(start, end, segment.mappings))
    return Schedule(segments)


def required_scale(
    schedule: Schedule, jobs: Mapping[str, Job], now: float
) -> float:
    """The smallest uniform speed at which every committed deadline holds.

    Stretching by ``1 / s`` moves a completion at ``c`` to ``now + (c - now)
    / s``, which stays before the deadline ``d`` iff ``s >= (c - now) / (d -
    now)``.  Returns 0.0 when the schedule commits no future completions
    (any speed works) and 1.0 when some deadline leaves no slack at all.
    """
    # Schedule.completion_time of every job, from one pass over the plan.
    completions: dict[str, float] = {}
    for segment in schedule:
        end = segment.end
        for mapping in segment.mappings:
            completions[mapping.job.name] = end
    worst = 0.0
    for name, job in jobs.items():
        completion = completions.get(name)
        if completion is None or completion <= now + TIME_EPSILON:
            continue
        window = job.deadline - now
        if window <= TIME_EPSILON:
            return 1.0
        worst = max(worst, (completion - now) / window)
    return min(worst, 1.0)


# ---------------------------------------------------------------------- #
# Governors
# ---------------------------------------------------------------------- #
class FrequencyGovernor(abc.ABC):
    """Strategy interface: pick the platform speed for a committed schedule."""

    #: Short machine-readable identifier used by the CLI and batch specs.
    name: str = "governor"

    @abc.abstractmethod
    def select_scale(
        self,
        schedule: Schedule,
        jobs: Mapping[str, Job],
        now: float,
        platform: Platform,
        tables: Mapping[str, ConfigTable],
        ledger=None,
    ) -> float:
        """Return a uniform speed from ``available_scales(platform)``.

        ``ledger`` (keyword, optional) is the incremental kernel's
        :class:`~repro.kernel.state.LoadLedger`: cached per-segment
        busy-core rows shared with the budget admission check.  The rows
        are integer sums, so reading them instead of re-deriving
        ``resource_usage`` cannot change any selected speed.  The runtime
        manager always passes it; a governor may ignore it.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PerformanceGovernor(FrequencyGovernor):
    """Always run at the nominal frequency (the paper's pinned setup)."""

    name = "performance"

    def select_scale(self, schedule, jobs, now, platform, tables, ledger=None) -> float:
        return 1.0


class PowersaveGovernor(FrequencyGovernor):
    """Always run at the slowest available speed, deadlines be damned.

    This mirrors the cpufreq ``powersave`` semantics: admitted jobs may
    finish after their deadline (the execution log reports the misses).
    """

    name = "powersave"

    def select_scale(self, schedule, jobs, now, platform, tables, ledger=None) -> float:
        return available_scales(platform)[0]


class OndemandGovernor(FrequencyGovernor):
    """Utilisation-driven speed selection (cpufreq ``ondemand`` style).

    The utilisation of the next committed segment (busy cores over platform
    cores) is compared against ``up_threshold``: at or above the threshold
    the platform runs at nominal speed, below it the speed scales down
    proportionally, never lower than the slowest available OPP.  Like its
    cpufreq namesake it is deadline-blind — lightly loaded segments with
    tight deadlines can miss; use the schedule-aware governor when deadline
    guarantees must survive the slow-down.
    """

    name = "ondemand"

    def __init__(self, up_threshold: float = 0.8):
        if not 0.0 < up_threshold <= 1.0:
            raise EnergyError(
                f"up_threshold must be in (0, 1], got {up_threshold}"
            )
        self.up_threshold = up_threshold

    def select_scale(self, schedule, jobs, now, platform, tables, ledger=None) -> float:
        scales = available_scales(platform)
        upcoming = next(
            (s for s in schedule if s.end > now + TIME_EPSILON), None
        )
        if upcoming is None:
            return scales[0]
        if ledger is not None:
            # Same integer core counts as resource_usage, read from the
            # kernel's shared ledger rows.
            busy_total = sum(ledger.busy_counts(upcoming))
        else:
            busy_total = upcoming.resource_usage(
                tables, platform.num_resource_types
            ).total
        utilisation = busy_total / platform.total_cores
        target = min(1.0, utilisation / self.up_threshold)
        for scale in scales:
            if scale >= target - SCALE_EPSILON:
                return scale
        return 1.0


class ScheduleAwareGovernor(FrequencyGovernor):
    """Deadline-aware speed selection over the committed schedule.

    Among the available speeds that keep every committed completion before
    its deadline (:func:`required_scale`), the governor evaluates the
    analytical energy of the stretched schedule and picks the cheapest —
    with dynamic-dominated power models that is the slowest feasible OPP;
    when long idle-within-segment stretches would make slowing down *more*
    expensive, it falls back toward nominal.  Nominal speed is always a
    candidate, so the selection never costs energy relative to the
    performance governor under the same accounting.
    """

    name = "schedule-aware"

    def select_scale(self, schedule, jobs, now, platform, tables, ledger=None) -> float:
        floor = required_scale(schedule, jobs, now)
        candidates = [
            scale
            for scale in available_scales(platform)
            if scale >= floor - SCALE_EPSILON
        ]
        if not candidates:
            return 1.0
        # Per-segment busy-core counts are scale-invariant; resolve them once
        # from the interned OpTable demand columns (or the kernel's shared
        # ledger rows, which the budget admission check then reuses) and
        # re-price per candidate scale.  Stretching anchors at ``now``, so
        # every future duration scales by exactly 1 / scale and no stretched
        # Schedule needs to be materialised.
        from repro.optable.adapters import segment_busy_counts

        future: list[tuple[float, list[int]]] = []
        for segment in schedule:
            if segment.end <= now + TIME_EPSILON:
                continue
            duration = segment.end - max(segment.start, now)
            if ledger is not None:
                busy = ledger.busy_counts(segment)
            else:
                busy = segment_busy_counts(
                    segment, tables, platform.num_resource_types
                )
            future.append((duration, busy))
        best_scale, best_energy = 1.0, None
        for scale in candidates:
            opps = decide(platform, scale).cluster_opps
            busy_watts = [opp.power.power(1.0) for opp in opps]
            idle_watts = [opp.power.power(0.0) for opp in opps]
            energy = 0.0
            for duration, busy in future:
                power = sum(
                    count * full + max(0, capacity - count) * static
                    for count, full, static, capacity in zip(
                        busy, busy_watts, idle_watts, platform.core_counts
                    )
                )
                energy += power * duration / scale
            if best_energy is None or energy < best_energy - 1e-12:
                best_scale, best_energy = scale, energy
        return best_scale


def build_governor(name: str) -> FrequencyGovernor:
    """Instantiate the named governor (fresh instance per call).

    Lookup goes through the plugin registry of :mod:`repro.api.registry`, so
    governors registered with :func:`repro.api.register_governor` are built
    here too.  Unknown names raise :class:`~repro.exceptions.EnergyError`
    listing every registered governor, as they always did.
    """
    from repro.api.registry import governors

    return governors.build(name)


def __getattr__(name: str):
    # ``GOVERNORS`` migrated to the plugin registry (repro.api.registry).
    # The lazy alias avoids an import cycle (the registry imports the
    # governor classes defined above) while keeping the historical
    # ``from repro.energy.governor import GOVERNORS`` working — the registry
    # is a read-only Mapping, exactly like the dict it replaced.
    if name == "GOVERNORS":
        from repro.api.registry import governors

        return governors
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
