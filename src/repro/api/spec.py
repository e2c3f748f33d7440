"""The typed, frozen experiment-specification tree.

An :class:`ExperimentSpec` is the single declarative description of one
runtime-manager experiment: which platform, which design-time tables (named,
inline, or DSE-generated), which workload, which scheduler, and which energy
policy.  It replaces the scattered kwargs of
:class:`~repro.runtime.manager.RuntimeManager`, the loose fields of
:class:`~repro.service.jobs.SimulationJob` and the ad-hoc CLI flag plumbing
with one validated config tree that round-trips through plain JSON::

    spec = ExperimentSpec(
        name="demo",
        platform=PlatformSpec(name="odroid-xu4"),
        tables="paper-reduced",
        workload=WorkloadSpec.poisson(arrival_rate=0.3, num_requests=20, seed=7),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
        energy=EnergySpec(governor="schedule-aware"),
    )
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec

All spec classes are frozen dataclasses holding plain data only (strings,
numbers, lists, dicts) — never live objects — so specs hash out of the
conversation cheaply: they serialise, shard and compare structurally.  Every
``build``/``resolve`` method materialises live objects through the plugin
registries of :mod:`repro.api.registry`, so a name registered by third-party
code is immediately valid in a spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ReproError, SerializationError, WorkloadError

#: The time-advance engines of the runtime manager (kept as a literal so
#: importing the spec tree stays light; equality with
#: :data:`repro.runtime.manager.ENGINES` is asserted by the API tests).
ENGINES = ("events",)


def _canonical(value):
    """Normalise nested data to its JSON shape (tuples → lists, Mappings → dicts).

    Specs promise ``from_dict(to_dict(spec)) == spec``; canonicalising at
    construction time makes that hold even when callers pass tuples where
    JSON will hand back lists.
    """
    if isinstance(value, Mapping):
        return {str(key): _canonical(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(entry) for entry in value]
    return value


def _optional_positive(value, label: str) -> float | None:
    if value is None:
        return None
    value = float(value)
    if value <= 0:
        raise WorkloadError(f"{label} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class PlatformSpec:
    """Which platform to run on: a registry name or an inline description.

    Exactly one of ``name`` (a :data:`repro.api.registry.platforms` key) and
    ``inline`` (a :func:`repro.io.platform_to_dict` dictionary) must be set.

    Examples
    --------
    >>> PlatformSpec(name="odroid-xu4").build().name
    'odroid-xu4'
    """

    name: str | None = "motivational"
    inline: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.inline is None):
            raise WorkloadError(
                "platform spec: exactly one of name and inline is required"
            )
        if self.inline is not None:
            object.__setattr__(self, "inline", _canonical(self.inline))

    @classmethod
    def from_platform(cls, platform) -> "PlatformSpec":
        """Embed a live :class:`~repro.platforms.Platform` inline."""
        from repro.io.serialization import platform_to_dict

        return cls(name=None, inline=platform_to_dict(platform))

    def build(self):
        """The live :class:`~repro.platforms.Platform`."""
        if self.inline is not None:
            from repro.io.serialization import platform_from_dict

            return platform_from_dict(self.inline)
        from repro.api.registry import platforms

        return platforms.build(self.name)

    def to_dict(self) -> dict:
        if self.inline is not None:
            return {"inline": self.inline}
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        _check_mapping(data, "platform spec")
        if "inline" in data and data["inline"] is not None:
            return cls(name=None, inline=data["inline"])
        return cls(name=data.get("name", "motivational"))


@dataclass(frozen=True)
class WorkloadSpec:
    """Which request trace drives the run: a trace *source* plus its options.

    ``source`` names a :data:`repro.api.registry.trace_sources` entry; the
    options are passed to the source factory as keyword arguments.  The three
    built-in sources are ``"poisson"`` (generated arrivals),
    ``"motivational"`` (the paper's S1/S2 scenarios) and ``"explicit"``
    (inline event list); third parties register more with
    :func:`repro.api.registry.register_trace_source`.

    Examples
    --------
    >>> spec = WorkloadSpec.poisson(arrival_rate=0.2, num_requests=5, seed=3)
    >>> spec.source
    'poisson'
    """

    source: str = "poisson"
    options: Mapping[str, Any] = field(
        default_factory=lambda: {"arrival_rate": 0.2, "num_requests": 10, "seed": 0}
    )

    def __post_init__(self) -> None:
        if not self.source:
            raise WorkloadError("workload spec: source must not be empty")
        object.__setattr__(self, "options", _canonical(self.options))

    # ------------------------------------------------------------------ #
    # Typed constructors for the built-in sources
    # ------------------------------------------------------------------ #
    @classmethod
    def poisson(
        cls,
        arrival_rate: float,
        num_requests: int,
        deadline_factor_range: tuple[float, float] = (1.5, 4.0),
        seed: int = 0,
    ) -> "WorkloadSpec":
        """Poisson arrivals (the shape of every sweep in the evaluation)."""
        return cls(
            source="poisson",
            options={
                "arrival_rate": float(arrival_rate),
                "num_requests": int(num_requests),
                "deadline_factor_range": list(deadline_factor_range),
                "seed": int(seed),
            },
        )

    @classmethod
    def scenario(cls, name: str = "S1") -> "WorkloadSpec":
        """One of the motivational scenarios (``"S1"`` or ``"S2"``)."""
        return cls(source="motivational", options={"scenario": name})

    @classmethod
    def from_trace(cls, trace) -> "WorkloadSpec":
        """Embed an explicit :class:`~repro.runtime.trace.RequestTrace` inline."""
        from repro.io.serialization import request_trace_to_dict

        return cls(
            source="explicit",
            options={"events": request_trace_to_dict(trace)["events"]},
        )

    def with_seed(self, seed: int) -> "WorkloadSpec":
        """Copy with the generator seed replaced (seeded sources only).

        A source counts as seeded when the spec carries a ``seed`` option or
        the registered factory accepts one (e.g. a poisson spec relying on
        the default seed).
        """
        seedable = "seed" in self.options
        if not seedable:
            import inspect

            from repro.api.registry import trace_sources

            factory = trace_sources.get(self.source)
            if factory is not None:
                try:
                    seedable = "seed" in inspect.signature(factory).parameters
                except (TypeError, ValueError):  # pragma: no cover — C callables
                    pass
        if not seedable:
            raise WorkloadError(
                f"workload source {self.source!r} is not seeded; cannot reseed"
            )
        options = dict(self.options)
        options["seed"] = int(seed)
        return replace(self, options=options)

    def build(self, tables):
        """Materialise the live trace against the resolved tables."""
        from repro.api.registry import trace_sources

        factory = trace_sources[self.source]
        try:
            return factory(tables, **self.options)
        except TypeError as error:
            # Missing/misspelled option keys surface as TypeErrors from the
            # factory call; wrap them so spec mistakes stay ReproErrors (the
            # CLI's error contract) instead of raw tracebacks.
            raise WorkloadError(
                f"workload source {self.source!r} rejected its options "
                f"{sorted(self.options)}: {error}"
            ) from None

    def to_dict(self) -> dict:
        return {"source": self.source, "options": self.options}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _check_mapping(data, "workload spec")
        if "source" not in data:
            raise SerializationError("workload spec: missing required field 'source'")
        return cls(source=data["source"], options=data.get("options", {}))


@dataclass(frozen=True)
class SchedulerSpec:
    """Which scheduling algorithm to activate, and how.

    ``name`` is a :data:`repro.api.registry.schedulers` key; ``options`` are
    keyword arguments of the registered factory (e.g. policy choices).
    ``remap_on_finish`` re-activates the scheduler on every job completion
    (the fixed-mapper behaviour of Fig. 1(b)).
    """

    name: str = "mmkp-mdf"
    remap_on_finish: bool = False
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("scheduler spec: name must not be empty")
        object.__setattr__(self, "options", _canonical(self.options))

    def build(self):
        """A fresh scheduler instance (some schedulers keep per-solve state)."""
        from repro.api.registry import schedulers

        factory = schedulers[self.name]
        try:
            return factory(**self.options)
        except (TypeError, ReproError) as error:
            # Unknown keys surface as TypeErrors, out-of-range values as the
            # scheduler's own ReproError; both become one WorkloadError naming
            # the options (the CLI's error contract) instead of a raw traceback.
            raise WorkloadError(
                f"scheduler {self.name!r} rejected its options "
                f"{sorted(self.options)}: {error}"
            ) from None

    def to_dict(self) -> dict:
        data: dict[str, Any] = {"name": self.name}
        if self.remap_on_finish:
            data["remap_on_finish"] = True
        if self.options:
            data["options"] = self.options
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchedulerSpec":
        _check_mapping(data, "scheduler spec")
        return cls(
            name=data.get("name", "mmkp-mdf"),
            remap_on_finish=bool(data.get("remap_on_finish", False)),
            options=data.get("options", {}),
        )


@dataclass(frozen=True)
class EnergySpec:
    """The energy policy: governor, admission envelope, accounting switch.

    All defaults reproduce the seed's pinned-frequency, unconstrained
    behaviour bit-identically.
    """

    governor: str | None = None
    power_cap_watts: float | None = None
    energy_budget_joules: float | None = None
    account_energy: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "power_cap_watts",
            _optional_positive(self.power_cap_watts, "power cap"),
        )
        object.__setattr__(
            self,
            "energy_budget_joules",
            _optional_positive(self.energy_budget_joules, "energy budget"),
        )

    def build_governor(self):
        """The live governor, or ``None`` for pinned-frequency operation."""
        if self.governor is None:
            return None
        from repro.api.registry import governors

        return governors.build(self.governor)

    def build_budget(self):
        """The admission-control envelope, or ``None`` when unconstrained."""
        if self.power_cap_watts is None and self.energy_budget_joules is None:
            return None
        from repro.energy.budget import EnergyBudget

        return EnergyBudget(
            power_cap_watts=self.power_cap_watts,
            energy_budget_joules=self.energy_budget_joules,
        )

    def to_dict(self) -> dict:
        data: dict[str, Any] = {}
        if self.governor is not None:
            data["governor"] = self.governor
        if self.power_cap_watts is not None:
            data["power_cap_watts"] = self.power_cap_watts
        if self.energy_budget_joules is not None:
            data["energy_budget_joules"] = self.energy_budget_joules
        if not self.account_energy:
            data["account_energy"] = False
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnergySpec":
        _check_mapping(data, "energy spec")
        return cls(
            governor=data.get("governor"),
            power_cap_watts=data.get("power_cap_watts"),
            energy_budget_joules=data.get("energy_budget_joules"),
            account_energy=bool(data.get("account_energy", True)),
        )


@dataclass(frozen=True)
class DSESpec:
    """How to (re)generate the operating-point tables at design time.

    Used when an experiment derives its tables from the DSE flow instead of
    naming a pre-built set: ``Session.explore()`` runs the exploration and
    feeds the result straight into the runtime manager.
    """

    input_sizes: tuple[str, ...] | None = None
    sweep_opps: bool = False
    max_points: int | None = None

    def __post_init__(self) -> None:
        if self.input_sizes is not None:
            object.__setattr__(self, "input_sizes", tuple(self.input_sizes))
        if self.max_points is not None and self.max_points <= 0:
            raise WorkloadError(
                f"dse spec: max_points must be positive, got {self.max_points}"
            )

    def build_tables(self, platform=None):
        """The operating-point tables on ``platform`` (Odroid XU4 by default).

        Resolved through :func:`repro.dse.tables.design_tables`, so the DSE
        runs at most once per process for each platform and option set;
        every call returns a fresh mapping.
        """
        from repro.dse.tables import design_tables

        return design_tables(
            platform, self.input_sizes, self.sweep_opps, self.max_points
        )

    def to_dict(self) -> dict:
        data: dict[str, Any] = {}
        if self.input_sizes is not None:
            data["input_sizes"] = list(self.input_sizes)
        if self.sweep_opps:
            data["sweep_opps"] = True
        if self.max_points is not None:
            data["max_points"] = self.max_points
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DSESpec":
        _check_mapping(data, "dse spec")
        sizes = data.get("input_sizes")
        return cls(
            input_sizes=tuple(sizes) if sizes is not None else None,
            sweep_opps=bool(data.get("sweep_opps", False)),
            max_points=data.get("max_points"),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """The complete declarative description of one experiment.

    Composes the section specs above plus the design-time table choice:
    ``tables`` names a :func:`repro.workload.named_tables` set,
    ``tables_inline`` embeds a :func:`repro.io.tables_to_dict` dictionary,
    and with both unset the ``dse`` section generates the tables on the
    spec's platform.

    Examples
    --------
    >>> spec = ExperimentSpec(name="demo",
    ...                       workload=WorkloadSpec.scenario("S1"))
    >>> ExperimentSpec.from_dict(spec.to_dict()) == spec
    True
    """

    name: str = "experiment"
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    energy: EnergySpec = field(default_factory=EnergySpec)
    dse: DSESpec | None = None
    tables: str | None = "motivational"
    tables_inline: Mapping[str, Any] | None = None
    engine: str = "events"

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("experiment spec: name must not be empty")
        if self.engine not in ENGINES:
            raise WorkloadError(
                f"experiment spec: unknown engine {self.engine!r}; "
                f"choose from {ENGINES}"
            )
        if self.tables is not None:
            from repro.workload import TABLE_SETS

            if self.tables not in TABLE_SETS:
                raise WorkloadError(
                    f"experiment spec: unknown table set {self.tables!r}; "
                    f"choose from {sorted(TABLE_SETS)}"
                )
        if self.tables is not None and self.tables_inline is not None:
            raise WorkloadError(
                "experiment spec: tables and tables_inline are mutually exclusive"
            )
        if self.dse is not None and (
            self.tables is not None or self.tables_inline is not None
        ):
            # Without this check a dse section next to the (defaulted)
            # tables name would be silently ignored — resolve_tables prefers
            # named/inline tables, so the exploration would never run.
            raise WorkloadError(
                "experiment spec: a dse section generates the tables; "
                "pass tables=None (and no tables_inline) alongside it"
            )
        if self.tables is None and self.tables_inline is None and self.dse is None:
            raise WorkloadError(
                "experiment spec: one of tables, tables_inline and dse is required"
            )
        if self.tables_inline is not None:
            object.__setattr__(self, "tables_inline", _canonical(self.tables_inline))

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def resolve_tables(self, platform=None) -> dict:
        """The live application → configuration-table mapping.

        ``platform`` is only consulted by the DSE path (tables generated on
        the experiment's platform).
        """
        if self.tables_inline is not None:
            from repro.io.serialization import tables_from_dict

            return tables_from_dict(self.tables_inline)
        if self.tables is not None:
            from repro.workload import named_tables

            return named_tables(self.tables)
        return self.dse.build_tables(platform)

    def to_job(
        self,
        name: str | None = None,
        seed: int | None = None,
        tables: Mapping | None = None,
    ):
        """Convert to a declarative :class:`~repro.service.jobs.SimulationJob`.

        This is the bridge into :class:`~repro.service.pool.SimulationService`
        batches: one spec fans out into many jobs (one per trial seed).
        ``tables`` injects already-materialised tables (the
        :class:`~repro.api.session.Session` cache), so the jobs of a batch
        carry one mapping.  Named sets travel by name; inline and DSE
        tables are resolved here (DSE ones through the per-process memo).
        """
        from repro.service.jobs import SimulationJob, TraceSpec

        if self.scheduler.options:
            raise WorkloadError(
                "simulation jobs carry schedulers by registry name only; "
                "register a preconfigured scheduler instead of passing options"
            )
        if tables is not None:
            job_tables: Any = dict(tables)
        elif self.tables is not None:
            job_tables = self.tables
        else:
            # Inline or DSE tables: materialise once, on the spec's own
            # platform — a DSE run on the default platform would diverge
            # from what Session.run() schedules against.
            job_tables = self.resolve_tables(self.platform.build())

        def live_tables():
            if isinstance(job_tables, str):
                from repro.workload import named_tables

                return named_tables(job_tables)
            return job_tables

        trace = None
        trace_spec = None
        # Reseeding is source-generic: any seeded source (built-in or
        # registered) fans out into per-trial jobs; unseeded sources raise
        # the with_seed error.
        workload = self.workload if seed is None else self.workload.with_seed(seed)
        if workload.source == "poisson":
            # Bridge to the declarative TraceSpec so batch JSON stays small.
            # Option keys are validated exactly like the Session.run() path
            # (WorkloadSpec.build) — a typo must not silently run defaults.
            options = dict(workload.options)
            unknown = set(options) - {
                "arrival_rate",
                "num_requests",
                "deadline_factor_range",
                "seed",
            }
            if unknown:
                raise WorkloadError(
                    f"workload source 'poisson' rejected its options: "
                    f"unknown keys {sorted(unknown)}"
                )
            try:
                low, high = options.get("deadline_factor_range", (1.5, 4.0))
                trace_spec = TraceSpec(
                    arrival_rate=float(options["arrival_rate"]),
                    num_requests=int(options["num_requests"]),
                    deadline_factor_range=(float(low), float(high)),
                    seed=int(options.get("seed", 0)),
                )
            except (KeyError, TypeError, ValueError) as error:
                raise WorkloadError(
                    f"workload source 'poisson' rejected its options "
                    f"{sorted(options)}: {error!r}"
                ) from None
        else:
            # Any registered source materialises to an explicit trace.
            trace = workload.build(live_tables())
        platform = self.platform.name
        if platform is None:
            platform = self.platform.build()
        return SimulationJob(
            name=name or self.name,
            scheduler=self.scheduler.name,
            platform=platform,
            tables=job_tables,
            remap_on_finish=self.scheduler.remap_on_finish,
            engine=self.engine,
            trace=trace,
            trace_spec=trace_spec,
            governor=self.energy.governor,
            power_cap_watts=self.energy.power_cap_watts,
            energy_budget_joules=self.energy.energy_budget_joules,
        )

    @classmethod
    def from_job(cls, job) -> "ExperimentSpec":
        """Lift a legacy :class:`~repro.service.jobs.SimulationJob` into a spec."""
        from repro.io.serialization import tables_to_dict

        if job.trace_spec is not None:
            workload = WorkloadSpec.poisson(
                arrival_rate=job.trace_spec.arrival_rate,
                num_requests=job.trace_spec.num_requests,
                deadline_factor_range=job.trace_spec.deadline_factor_range,
                seed=job.trace_spec.seed,
            )
        else:
            workload = WorkloadSpec.from_trace(job.trace)
        if isinstance(job.platform, str):
            platform = PlatformSpec(name=job.platform)
        else:
            platform = PlatformSpec.from_platform(job.platform)
        tables = job.tables if isinstance(job.tables, str) else None
        tables_inline = None if tables is not None else tables_to_dict(job.tables)
        return cls(
            name=job.name,
            platform=platform,
            workload=workload,
            scheduler=SchedulerSpec(
                name=job.scheduler, remap_on_finish=job.remap_on_finish
            ),
            energy=EnergySpec(
                governor=job.governor,
                power_cap_watts=job.power_cap_watts,
                energy_budget_joules=job.energy_budget_joules,
            ),
            tables=tables,
            tables_inline=tables_inline,
            engine=job.engine,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        data: dict[str, Any] = {
            "name": self.name,
            "platform": self.platform.to_dict(),
            "workload": self.workload.to_dict(),
            "scheduler": self.scheduler.to_dict(),
            "engine": self.engine,
        }
        energy = self.energy.to_dict()
        if energy:
            data["energy"] = energy
        if self.dse is not None:
            data["dse"] = self.dse.to_dict()
        if self.tables is not None:
            data["tables"] = self.tables
        if self.tables_inline is not None:
            data["tables_inline"] = self.tables_inline
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _check_mapping(data, "experiment spec")
        try:
            return cls(
                name=data.get("name", "experiment"),
                platform=PlatformSpec.from_dict(data.get("platform", {})),
                workload=(
                    WorkloadSpec.from_dict(data["workload"])
                    if "workload" in data
                    else WorkloadSpec()
                ),
                scheduler=SchedulerSpec.from_dict(data.get("scheduler", {})),
                energy=EnergySpec.from_dict(data.get("energy", {})),
                dse=DSESpec.from_dict(data["dse"]) if "dse" in data else None,
                tables=data.get(
                    "tables",
                    None if ("tables_inline" in data or "dse" in data) else "motivational",
                ),
                tables_inline=data.get("tables_inline"),
                engine=data.get("engine", "events"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"invalid experiment spec: {error}") from None

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"invalid experiment spec JSON: {error}") from None
        return cls.from_dict(data)

    def save(self, path: str | Path) -> None:
        """Write the spec as a JSON file (the ``repro-rm run`` input format)."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec written by :meth:`save`."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise SerializationError(f"cannot read experiment spec: {error}") from None
        return cls.from_json(text)


def _check_mapping(data, label: str) -> None:
    if not isinstance(data, Mapping):
        raise SerializationError(f"{label}: expected a mapping, got {type(data).__name__}")


#: Field-name snapshot used by the API-surface tests: changing a spec schema
#: must be a conscious, reviewed act.
SPEC_SCHEMAS = {
    cls.__name__: tuple(f.name for f in fields(cls))
    for cls in (
        PlatformSpec,
        WorkloadSpec,
        SchedulerSpec,
        EnergySpec,
        DSESpec,
        ExperimentSpec,
    )
}

__all__ = [
    "ENGINES",
    "PlatformSpec",
    "WorkloadSpec",
    "SchedulerSpec",
    "EnergySpec",
    "DSESpec",
    "ExperimentSpec",
    "SPEC_SCHEMAS",
]
