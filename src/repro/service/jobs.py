"""Declarative simulation jobs and batch specifications.

A :class:`SimulationJob` describes *one* runtime-manager simulation — which
trace (explicit events or a Poisson generator spec), which platform, which
configuration tables, which scheduler, which time-advance engine — without
holding any live objects, so it can be serialised, sharded across machines
and replayed bit-identically.  A :class:`BatchSpec` is a named list of jobs
plus convenience constructors for the common sweep shapes (arrival rates ×
schedulers × repeated trials).

Platforms and tables are referenced by registry name (``"motivational"``,
``"odroid-xu4"``, ``"paper"``, ...) or embedded inline as their
:mod:`repro.io` dictionaries; schedulers by the same names the CLI uses.
Every job carries its own generator seed, which is what makes
:meth:`~repro.service.pool.SimulationService.run_batch` deterministic
regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.api.registry import platforms as _platforms
from repro.api.registry import schedulers as _schedulers
from repro.api.spec import ENGINES
from repro.core.config import ConfigTable
from repro.exceptions import SerializationError, WorkloadError
from repro.io import (
    load_json,
    platform_from_dict,
    platform_to_dict,
    request_trace_from_dict,
    request_trace_to_dict,
    save_json,
    tables_from_dict,
    tables_to_dict,
)
from repro.platforms import Platform
from repro.runtime.trace import RequestTrace, poisson_trace
from repro.workload import named_tables

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
class TraceSpec:
    """Parameters of a generated Poisson request trace.

    The spec is the *recipe*, not the trace: materialising the same spec
    against the same tables always yields the same events, which keeps batch
    runs reproducible and batch files small.
    """

    arrival_rate: float
    num_requests: int
    deadline_factor_range: tuple[float, float] = (1.5, 4.0)
    seed: int = 0

    def __post_init__(self) -> None:
        # Callers may pass a list (JSON, sweeps); canonicalise so the spec —
        # and every SimulationJob hash built on it — stays hashable.
        object.__setattr__(
            self, "deadline_factor_range", tuple(self.deadline_factor_range)
        )

    def materialise(self, tables: Mapping[str, ConfigTable]) -> RequestTrace:
        """Generate the trace against the given configuration tables."""
        return poisson_trace(
            tables,
            arrival_rate=self.arrival_rate,
            num_requests=self.num_requests,
            deadline_factor_range=self.deadline_factor_range,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        """Serialise the spec."""
        return {
            "arrival_rate": self.arrival_rate,
            "num_requests": self.num_requests,
            "deadline_factor_range": list(self.deadline_factor_range),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceSpec":
        """Reconstruct a spec from :meth:`to_dict` output."""
        try:
            low, high = data.get("deadline_factor_range", (1.5, 4.0))
            return cls(
                arrival_rate=float(data["arrival_rate"]),
                num_requests=int(data["num_requests"]),
                deadline_factor_range=(float(low), float(high)),
                seed=int(data.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"invalid trace spec: {error}") from None


@dataclass(frozen=True)
class SimulationJob:
    """A declarative description of one runtime-manager simulation.

    Exactly one of ``trace`` (explicit events) and ``trace_spec`` (generator
    recipe) must be given.  ``platform`` and ``tables`` accept either a
    registry name or a live object (which serialises inline).  The optional
    energy fields select a frequency governor by name (see
    :data:`~repro.energy.governor.GOVERNORS`) and/or an admission-control
    envelope; all three default to the seed's pinned-frequency,
    unconstrained behaviour and are omitted from the serialised form when
    unset.

    Examples
    --------
    >>> job = SimulationJob("demo", trace_spec=TraceSpec(0.2, 5, seed=7))
    >>> job.scheduler
    'mmkp-mdf'
    >>> SimulationJob.from_dict(job.to_dict()) == job
    True
    """

    name: str
    scheduler: str = "mmkp-mdf"
    platform: str | Platform = "motivational"
    tables: str | Mapping[str, ConfigTable] = "motivational"
    remap_on_finish: bool = False
    engine: str = "events"
    trace: RequestTrace | None = None
    trace_spec: TraceSpec | None = None
    governor: str | None = None
    power_cap_watts: float | None = None
    energy_budget_joules: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("simulation job name must not be empty")
        if (self.trace is None) == (self.trace_spec is None):
            raise WorkloadError(
                f"job {self.name!r}: exactly one of trace and trace_spec is required"
            )
        if self.engine not in ENGINES:
            raise WorkloadError(
                f"job {self.name!r}: unknown engine {self.engine!r}; "
                f"choose from {ENGINES}"
            )
        if self.governor is not None:
            from repro.api.registry import governors

            if self.governor not in governors:
                raise WorkloadError(
                    f"job {self.name!r}: unknown governor {self.governor!r}; "
                    f"choose from {sorted(governors)}"
                )

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def resolve_platform(self) -> Platform:
        """The live platform object."""
        if isinstance(self.platform, Platform):
            return self.platform
        return _platforms.build(self.platform)

    def resolve_tables(self) -> dict[str, ConfigTable]:
        """The live application → configuration-table mapping."""
        if isinstance(self.tables, str):
            return named_tables(self.tables)
        return dict(self.tables)

    def resolve_trace(self, tables: Mapping[str, ConfigTable]) -> RequestTrace:
        """The live request trace (generated from the spec if needed)."""
        if self.trace is not None:
            return self.trace
        return self.trace_spec.materialise(tables)

    def with_seed(self, seed: int) -> "SimulationJob":
        """Copy of the job with the generator seed replaced (spec jobs only)."""
        if self.trace_spec is None:
            raise WorkloadError(
                f"job {self.name!r} carries an explicit trace; cannot reseed"
            )
        return replace(self, trace_spec=replace(self.trace_spec, seed=seed))

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise the job to a plain-JSON dictionary."""
        data: dict[str, Any] = {
            "name": self.name,
            "scheduler": self.scheduler,
            "platform": (
                self.platform
                if isinstance(self.platform, str)
                else platform_to_dict(self.platform)
            ),
            "tables": (
                self.tables
                if isinstance(self.tables, str)
                else tables_to_dict(self.tables)
            ),
            "remap_on_finish": self.remap_on_finish,
            "engine": self.engine,
        }
        if self.trace is not None:
            data["trace"] = request_trace_to_dict(self.trace)
        if self.trace_spec is not None:
            data["trace_spec"] = self.trace_spec.to_dict()
        if self.governor is not None:
            data["governor"] = self.governor
        if self.power_cap_watts is not None:
            data["power_cap_watts"] = self.power_cap_watts
        if self.energy_budget_joules is not None:
            data["energy_budget_joules"] = self.energy_budget_joules
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationJob":
        """Reconstruct a job from :meth:`to_dict` output."""
        if "name" not in data:
            raise SerializationError("simulation job: missing required field 'name'")
        platform = data.get("platform", "motivational")
        if not isinstance(platform, str):
            platform = platform_from_dict(platform)
        tables = data.get("tables", "motivational")
        if not isinstance(tables, str):
            tables = tables_from_dict(tables)
        trace = data.get("trace")
        trace_spec = data.get("trace_spec")
        return cls(
            name=data["name"],
            scheduler=data.get("scheduler", "mmkp-mdf"),
            platform=platform,
            tables=tables,
            remap_on_finish=bool(data.get("remap_on_finish", False)),
            engine=data.get("engine", "events"),
            trace=request_trace_from_dict(trace) if trace is not None else None,
            trace_spec=TraceSpec.from_dict(trace_spec) if trace_spec is not None else None,
            governor=data.get("governor"),
            power_cap_watts=(
                float(data["power_cap_watts"])
                if data.get("power_cap_watts") is not None
                else None
            ),
            energy_budget_joules=(
                float(data["energy_budget_joules"])
                if data.get("energy_budget_joules") is not None
                else None
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationJob):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        # Equality is full-spec (the serialised dict above), so the hash must
        # cover every hashable identity field too — in particular the energy
        # policy: two sweep jobs that differ only in governor or power/energy
        # envelope must not collapse onto one set/dict slot.  Platform/tables
        # may be inline mappings (unhashable) and are left to __eq__.
        return hash(
            (
                self.name,
                self.scheduler,
                self.remap_on_finish,
                self.engine,
                self.trace_spec,
                self.governor,
                self.power_cap_watts,
                self.energy_budget_joules,
            )
        )


@dataclass(frozen=True)
class BatchSpec:
    """A named, serialisable batch of simulation jobs.

    Examples
    --------
    >>> spec = BatchSpec.sweep(arrival_rates=[0.1], schedulers=["mmkp-mdf"],
    ...                        traces_per_point=2, num_requests=3)
    >>> len(spec)
    2
    >>> BatchSpec.from_dict(spec.to_dict()).jobs == spec.jobs
    True
    """

    name: str
    jobs: tuple[SimulationJob, ...]
    description: str = ""

    def __post_init__(self) -> None:
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate job names in batch {self.name!r}")

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

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
        engine: str = "events",
        name: str = "sweep",
    ) -> "BatchSpec":
        """A full factorial sweep: arrival rates × schedulers × trials.

        The same ``traces_per_point`` trace seeds are reused across all
        schedulers (paired comparison) and across all ``repeats`` (the
        repeated-sweep shape that exercises the activation cache).
        """
        if traces_per_point <= 0 or repeats <= 0:
            raise WorkloadError("traces_per_point and repeats must be positive")
        jobs = []
        for scheduler in schedulers:
            for rate_index, rate in enumerate(arrival_rates):
                for trial in range(traces_per_point):
                    seed = base_seed + rate_index * traces_per_point + trial
                    spec = TraceSpec(
                        arrival_rate=rate,
                        num_requests=num_requests,
                        deadline_factor_range=deadline_factor_range,
                        seed=seed,
                    )
                    for repeat in range(repeats):
                        suffix = f"-rep{repeat}" if repeats > 1 else ""
                        jobs.append(
                            SimulationJob(
                                name=f"{scheduler}-rate{rate:g}-t{trial:03d}{suffix}",
                                scheduler=scheduler,
                                platform=platform,
                                tables=tables,
                                engine=engine,
                                trace_spec=spec,
                            )
                        )
        return cls(name=name, jobs=tuple(jobs))

    def shard(self, index: int, count: int) -> "BatchSpec":
        """The ``index``-th of ``count`` round-robin shards of the batch."""
        if count <= 0 or not 0 <= index < count:
            raise WorkloadError(f"invalid shard {index}/{count}")
        return replace(
            self,
            name=f"{self.name}-shard{index}of{count}",
            jobs=self.jobs[index::count],
        )

    def with_energy_policy(
        self,
        governor: str | None = _UNSET,
        power_cap_watts: float | None = _UNSET,
        energy_budget_joules: float | None = _UNSET,
    ) -> "BatchSpec":
        """Copy of the batch with the energy policy applied to every job.

        Only the fields actually passed are overridden — per-job policies in
        the spec survive unless explicitly replaced (pass ``None`` to clear
        one).  Used by ``repro-rm energy`` to replay an existing batch under
        a different governor or power/energy envelope.
        """

        def pick(value, current):
            return current if value is _UNSET else value

        return replace(
            self,
            jobs=tuple(
                replace(
                    job,
                    governor=pick(governor, job.governor),
                    power_cap_watts=pick(power_cap_watts, job.power_cap_watts),
                    energy_budget_joules=pick(
                        energy_budget_joules, job.energy_budget_joules
                    ),
                )
                for job in self.jobs
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
            "jobs": [job.to_dict() for job in self.jobs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchSpec":
        """Reconstruct a batch from :meth:`to_dict` output."""
        if "jobs" not in data:
            raise SerializationError("batch spec: missing required field 'jobs'")
        return cls(
            name=data.get("name", "batch"),
            description=data.get("description", ""),
            jobs=tuple(SimulationJob.from_dict(entry) for entry in data["jobs"]),
        )

    def save(self, path: str | Path) -> None:
        """Write the batch spec as JSON."""
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "BatchSpec":
        """Load a batch spec written by :meth:`save`."""
        return cls.from_dict(load_json(path))
