"""Batches of experiments.

A :class:`BatchSpec` is a named tuple of
:class:`~repro.api.spec.ExperimentSpec`\\ s — the same description
:meth:`Session.run <repro.api.session.Session.run>` takes — plus convenience
constructors for the common sweep shapes (arrival rates × schedulers ×
repeated trials), round-robin sharding and energy-policy replays.  Every
experiment carries its own workload seed, which is what makes
:meth:`~repro.service.pool.SimulationService.run_batch` deterministic
regardless of worker count.

Batch files hold an ``"experiments"`` list of ``ExperimentSpec`` dicts.  The
older ``"jobs"`` form (flat per-job fields with a ``trace_spec`` or an
explicit ``trace``) still loads, through :func:`_legacy_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.api.registry import platforms as _platforms
from repro.api.registry import schedulers as _schedulers
from repro.api.spec import (
    EnergySpec,
    ExperimentSpec,
    PlatformSpec,
    SchedulerSpec,
    WorkloadSpec,
    retired_engine_error,
)
from repro.core.config import ConfigTable
from repro.exceptions import SerializationError, WorkloadError
from repro.io import (
    load_json,
    platform_from_dict,
    request_trace_from_dict,
    save_json,
    tables_from_dict,
    tables_to_dict,
)
from repro.platforms import Platform

#: The scheduler plugin registry (see :mod:`repro.api.registry`).  Kept under
#: its historical name: the registry is a read-only Mapping, so legacy code
#: iterating or indexing the old hard-coded dict keeps working, and plugins
#: registered through :func:`repro.api.register_scheduler` appear here too.
SCHEDULERS = _schedulers

#: The platform plugin registry (see :data:`SCHEDULERS` for the aliasing).
PLATFORMS = _platforms

#: Sentinel distinguishing "argument not passed" from an explicit ``None``.
_UNSET = object()


@dataclass(frozen=True)
class BatchSpec:
    """A named, serialisable batch of experiments.

    Examples
    --------
    >>> spec = BatchSpec.sweep(arrival_rates=[0.1], schedulers=["mmkp-mdf"],
    ...                        traces_per_point=2, num_requests=3)
    >>> len(spec)
    2
    >>> BatchSpec.from_dict(spec.to_dict()) == spec
    True
    """

    name: str
    experiments: tuple[ExperimentSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiments", tuple(self.experiments))
        names = [spec.name for spec in self.experiments]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate job names in batch {self.name!r}")

    def __len__(self) -> int:
        return len(self.experiments)

    def __iter__(self):
        return iter(self.experiments)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def sweep(
        cls,
        arrival_rates: Sequence[float],
        schedulers: Sequence[str] = ("mmkp-mdf",),
        traces_per_point: int = 10,
        num_requests: int = 10,
        deadline_factor_range: tuple[float, float] = (1.5, 4.0),
        repeats: int = 1,
        base_seed: int = 0,
        platform: str | Platform = "motivational",
        tables: str | Mapping[str, ConfigTable] = "motivational",
        name: str = "sweep",
    ) -> "BatchSpec":
        """A full factorial sweep: arrival rates × schedulers × trials.

        The same ``traces_per_point`` trace seeds are reused across all
        schedulers (paired comparison) and across all ``repeats`` (the
        repeated-sweep shape that exercises the activation cache).  A live
        platform or table mapping is embedded inline.
        """
        if traces_per_point <= 0 or repeats <= 0:
            raise WorkloadError("traces_per_point and repeats must be positive")
        base = ExperimentSpec(
            platform=(
                PlatformSpec(name=platform)
                if isinstance(platform, str)
                else PlatformSpec.from_platform(platform)
            ),
            tables=tables if isinstance(tables, str) else None,
            tables_inline=(
                None if isinstance(tables, str) else tables_to_dict(tables)
            ),
        )
        experiments = []
        for scheduler in schedulers:
            for rate_index, rate in enumerate(arrival_rates):
                for trial in range(traces_per_point):
                    workload = WorkloadSpec.poisson(
                        arrival_rate=rate,
                        num_requests=num_requests,
                        deadline_factor_range=deadline_factor_range,
                        seed=base_seed + rate_index * traces_per_point + trial,
                    )
                    for repeat in range(repeats):
                        suffix = f"-rep{repeat}" if repeats > 1 else ""
                        experiments.append(
                            replace(
                                base,
                                name=f"{scheduler}-rate{rate:g}-t{trial:03d}{suffix}",
                                workload=workload,
                                scheduler=SchedulerSpec(name=scheduler),
                            )
                        )
        return cls(name=name, experiments=tuple(experiments))

    def shard(self, index: int, count: int) -> "BatchSpec":
        """The ``index``-th of ``count`` round-robin shards of the batch."""
        if count <= 0 or not 0 <= index < count:
            raise WorkloadError(f"invalid shard {index}/{count}")
        return replace(
            self,
            name=f"{self.name}-shard{index}of{count}",
            experiments=self.experiments[index::count],
        )

    def with_energy_policy(
        self,
        governor: str | None = _UNSET,
        power_cap_watts: float | None = _UNSET,
        energy_budget_joules: float | None = _UNSET,
    ) -> "BatchSpec":
        """Copy of the batch with the energy policy applied to every experiment.

        Only the fields actually passed are overridden — per-experiment
        policies in the spec survive unless explicitly replaced (pass
        ``None`` to clear one).  Used by ``repro-rm energy`` to replay an
        existing batch under a different governor or power/energy envelope.
        """
        overrides = {
            key: value
            for key, value in (
                ("governor", governor),
                ("power_cap_watts", power_cap_watts),
                ("energy_budget_joules", energy_budget_joules),
            )
            if value is not _UNSET
        }
        return replace(
            self,
            experiments=tuple(
                replace(spec, energy=replace(spec.energy, **overrides))
                for spec in self.experiments
            ),
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise the batch to a plain-JSON dictionary."""
        return {
            "name": self.name,
            "description": self.description,
            "experiments": [spec.to_dict() for spec in self.experiments],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchSpec":
        """Reconstruct a batch from :meth:`to_dict` output or the older
        ``"jobs"`` form."""
        if "experiments" in data:
            experiments = map(ExperimentSpec.from_dict, data["experiments"])
        elif "jobs" in data:
            experiments = map(_legacy_experiment, data["jobs"])
        else:
            raise SerializationError(
                "batch spec: missing required field 'experiments'"
            )
        return cls(
            name=data.get("name", "batch"),
            description=data.get("description", ""),
            experiments=tuple(experiments),
        )

    def save(self, path: str | Path) -> None:
        """Write the batch spec as JSON."""
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "BatchSpec":
        """Load a batch spec written by :meth:`save` (either form)."""
        return cls.from_dict(load_json(path))


def _legacy_experiment(data: Mapping[str, Any]) -> ExperimentSpec:
    """One entry of the older ``"jobs"`` batch form, as an experiment.

    A job names its scheduler, platform and table set flatly and carries
    either a Poisson ``trace_spec`` or an explicit ``trace``; inline
    platforms, tables and traces are parsed (hence validated) here, at load.
    A retired ``engine`` field and the spec's own checks (table set,
    governor, ...) fail with the job's name in front.
    """
    if "name" not in data:
        raise SerializationError("simulation job: missing required field 'name'")
    name = data["name"]
    if "engine" in data and (reason := retired_engine_error(data["engine"])):
        raise WorkloadError(f"job {name!r}: {reason}")
    trace, trace_spec = data.get("trace"), data.get("trace_spec")
    if (trace is None) == (trace_spec is None):
        raise WorkloadError(
            f"job {name!r}: exactly one of trace and trace_spec is required"
        )
    if trace_spec is not None:
        try:
            low, high = trace_spec.get("deadline_factor_range", (1.5, 4.0))
            workload = WorkloadSpec.poisson(
                trace_spec["arrival_rate"],
                trace_spec["num_requests"],
                (float(low), float(high)),
                seed=trace_spec.get("seed", 0),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"invalid trace spec: {error}") from None
    else:
        workload = WorkloadSpec.from_trace(request_trace_from_dict(trace))
    platform = data.get("platform", "motivational")
    tables = data.get("tables", "motivational")
    try:
        return ExperimentSpec(
            name=name,
            platform=(
                PlatformSpec(name=platform)
                if isinstance(platform, str)
                else PlatformSpec.from_platform(platform_from_dict(platform))
            ),
            workload=workload,
            scheduler=SchedulerSpec(
                name=data.get("scheduler", "mmkp-mdf"),
                remap_on_finish=bool(data.get("remap_on_finish", False)),
            ),
            energy=EnergySpec(
                governor=data.get("governor"),
                power_cap_watts=data.get("power_cap_watts"),
                energy_budget_joules=data.get("energy_budget_joules"),
            ),
            tables=tables if isinstance(tables, str) else None,
            tables_inline=(
                None
                if isinstance(tables, str)
                else tables_to_dict(tables_from_dict(tables))
            ),
        )
    except WorkloadError as error:
        reason = str(error).removeprefix("experiment spec: ")
        raise WorkloadError(f"job {name!r}: {reason}") from None
