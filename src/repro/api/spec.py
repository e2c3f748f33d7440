"""The typed, frozen experiment-specification tree.

An :class:`ExperimentSpec` is the single declarative description of one
runtime-manager experiment: which platform, which design-time tables (named,
inline, or DSE-generated), which workload, which scheduler, and which energy
policy.  It replaces the scattered kwargs of
:class:`~repro.runtime.manager.RuntimeManager` and the ad-hoc CLI flag
plumbing with one validated config tree that round-trips through plain
JSON; a :class:`~repro.service.jobs.BatchSpec` is a tuple of them::

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
code is immediately valid in a spec.  A spec keeps the dicts it is given when
they already have their JSON shape (its copies share them), so treat them as
read-only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ReproError, SerializationError, WorkloadError
from repro.store.memo import Memo


def retired_engine_error(engine) -> str | None:
    """Why an old input's ``engine`` value is refused; ``None`` accepts it.

    The runtime manager has one time-advance engine, ``"events"``, so no
    spec carries an ``engine`` field any more.  Spec files, ``"jobs"`` batch
    files and gateway submissions written before still may: ``"events"`` is
    accepted and ignored, anything else fails at load as it always did.
    """
    if engine == "events":
        return None
    return f"unknown engine {engine!r}; choose from ('events',)"


def _canonical(value):
    """Normalise nested data to its JSON shape (tuples → lists, Mappings → dicts).

    Specs promise ``from_dict(to_dict(spec)) == spec``; canonicalising at
    construction time makes that hold even when callers pass tuples where
    JSON will hand back lists.  Data already in that shape is returned as
    is, so the copies of one spec (``dataclasses.replace``) share its dicts
    instead of deep-copying them.
    """
    return value if _is_canonical(value) else _to_canonical(value)


def _is_canonical(value) -> bool:
    if type(value) is dict:
        return all(
            type(key) is str and _is_canonical(entry) for key, entry in value.items()
        )
    if type(value) is list:
        return all(map(_is_canonical, value))
    return not isinstance(value, (Mapping, list, tuple))


def _to_canonical(value):
    if isinstance(value, Mapping):
        return {str(key): _to_canonical(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_canonical(entry) for entry in value]
    return value


#: Live objects parsed from inline spec sections (platforms, table sets), by
#: parser and content digest: each distinct section is parsed once per
#: process, however many batch experiments carry it.
_INLINE = Memo("inline", 32)
#: The same objects by section dict identity, so the copies of one spec
#: (which share their dicts) find theirs without hashing the section.  Each
#: entry holds its dict, so the id cannot be reused while it is cached.
_INLINE_BY_ID: dict = {}
_INLINE_BY_ID_BOUND = 64


def _parsed_inline(section: dict, parser: str):
    """``repro.io.serialization.<parser>(section)``, memoised per process."""
    seen = _INLINE_BY_ID.get((parser, id(section)))
    if seen is not None and seen[0] is section:
        return seen[1]
    payload = json.dumps(section, sort_keys=True).encode()
    key = (parser, hashlib.sha256(payload).hexdigest())
    parsed = _INLINE.get(key)
    if parsed is None:
        from repro.io import serialization

        parsed = getattr(serialization, parser)(section)
        _INLINE.put(key, parsed)
    if len(_INLINE_BY_ID) >= _INLINE_BY_ID_BOUND:
        _INLINE_BY_ID.clear()
    _INLINE_BY_ID[parser, id(section)] = (section, parsed)
    return parsed


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
        """The live :class:`~repro.platforms.Platform`.

        An inline platform is parsed once per process and shared (platforms
        are frozen).
        """
        if self.inline is not None:
            return _parsed_inline(self.inline, "platform_from_dict")
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
        if self.governor is not None:
            from repro.api.registry import governors

            if self.governor not in governors:
                raise WorkloadError(
                    f"unknown governor {self.governor!r}; "
                    f"choose from {sorted(governors)}"
                )
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

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("experiment spec: name must not be empty")
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
        the experiment's platform).  Inline tables are parsed once per
        process; like the named and DSE sets, every call returns a fresh
        ``dict`` over shared, immutable tables.
        """
        if self.tables_inline is not None:
            return dict(_parsed_inline(self.tables_inline, "tables_from_dict"))
        if self.tables is not None:
            from repro.workload import named_tables

            return named_tables(self.tables)
        return self.dse.build_tables(platform)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        data: dict[str, Any] = {
            "name": self.name,
            "platform": self.platform.to_dict(),
            "workload": self.workload.to_dict(),
            "scheduler": self.scheduler.to_dict(),
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
        if "engine" in data and (reason := retired_engine_error(data["engine"])):
            raise WorkloadError(f"experiment spec: {reason}")
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
    "PlatformSpec",
    "WorkloadSpec",
    "SchedulerSpec",
    "EnergySpec",
    "DSESpec",
    "ExperimentSpec",
    "SPEC_SCHEMAS",
]
