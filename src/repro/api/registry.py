"""String-keyed plugin registries: the extension points of the library.

Every pluggable axis of the reproduction — schedulers, platforms, frequency
governors and request-trace sources — is looked up through one of the
:class:`Registry` instances defined here.  Third-party code extends the
library by *registering*, never by editing core modules::

    from repro.api import register_scheduler
    from repro.schedulers.base import Scheduler, SchedulingResult

    @register_scheduler("always-reject")
    class AlwaysRejectScheduler(Scheduler):
        name = "always-reject"

        def schedule(self, problem):
            return SchedulingResult(feasible=False, schedule=None,
                                    energy=float("inf"), search_time=0.0)

Once registered, the name participates everywhere names are accepted: CLI
``--scheduler`` choices, :class:`~repro.api.spec.SchedulerSpec`\\ s (hence
batch files) and :class:`~repro.api.session.Session` runs.

A :class:`Registry` is a read-only :class:`~collections.abc.Mapping` from
name to factory, so legacy code that iterated the old hard-coded dicts
(``sorted(SCHEDULERS)``, ``SCHEDULERS[name]()``) keeps working against the
registry objects that replaced them.

Error contract
--------------
* Registering a duplicate name raises :class:`~repro.exceptions.RegistryError`
  (pass ``replace=True`` to override deliberately, e.g. in tests).
* Looking up an unknown name raises the registry's *domain* error
  (:class:`~repro.exceptions.WorkloadError` or
  :class:`~repro.exceptions.EnergyError` — whatever the pre-registry code
  raised) and the message lists every registered name.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, TypeVar

from repro.exceptions import EnergyError, RegistryError, WorkloadError

T = TypeVar("T")


class Registry(Mapping):
    """A named, string-keyed factory registry (read-only mapping view).

    Parameters
    ----------
    kind:
        Human-readable name of the registered thing (``"scheduler"``); used
        in error messages.
    error_type:
        Exception class raised on unknown-name lookup.  Defaults to
        :class:`~repro.exceptions.WorkloadError` (the historical behaviour of
        the scheduler/platform registries).

    Examples
    --------
    >>> registry = Registry("widget")
    >>> @registry.register("null")
    ... class NullWidget:
    ...     pass
    >>> sorted(registry)
    ['null']
    >>> isinstance(registry.build("null"), NullWidget)
    True
    """

    def __init__(self, kind: str, error_type: type = WorkloadError):
        self._kind = kind
        self._error = error_type
        self._factories: dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Callable[..., Any] | None = None,
        *,
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        With ``factory`` omitted, returns a decorator registering the
        decorated class/callable.  Duplicate names raise
        :class:`~repro.exceptions.RegistryError` unless ``replace=True``.
        """
        if factory is None:

            def decorator(obj: Callable[..., Any]) -> Callable[..., Any]:
                self.register(name, obj, replace=replace)
                return obj

            return decorator
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self._kind} registry keys must be non-empty strings, got {name!r}"
            )
        if not callable(factory):
            raise RegistryError(
                f"{self._kind} factory for {name!r} must be callable, got "
                f"{type(factory).__name__}"
            )
        if not replace and name in self._factories:
            raise RegistryError(
                f"{self._kind} {name!r} is already registered "
                f"({self._factories[name]!r}); pass replace=True to override"
            )
        self._factories[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for test teardown)."""
        if name not in self._factories:
            raise RegistryError(f"{self._kind} {name!r} is not registered")
        del self._factories[name]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def build(self, name: str, /, *args, **options):
        """Instantiate the named plugin (a fresh object per call)."""
        return self[name](*args, **options)

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._factories)

    def get(self, name, default=None):
        """Dict-style optional lookup (no domain error on a miss).

        The Mapping mixin's ``get`` only swallows ``KeyError`` while
        :meth:`__getitem__` raises the domain error, so this override keeps
        the promised drop-in dict behaviour.
        """
        return self._factories.get(name, default)

    # Mapping protocol — keeps the registry drop-in compatible with the
    # hard-coded ``dict`` registries it replaced.
    def __getitem__(self, name: str) -> Callable[..., Any]:
        try:
            return self._factories[name]
        except KeyError:
            raise self._error(
                f"unknown {self._kind} {name!r}; choose from {self.names()}"
            ) from None

    def __contains__(self, name: object) -> bool:
        # The Mapping mixin probes __getitem__ and swallows KeyError only;
        # ours raises the domain error, so membership must not go through it.
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry({self._kind!r}, {self.names()})"


# ---------------------------------------------------------------------- #
# The library's registries
# ---------------------------------------------------------------------- #
#: Scheduler registry: name → zero-/keyword-argument factory.  A *fresh*
#: instance is built per simulation because some schedulers (EX-MEM) keep
#: per-solve state.
schedulers = Registry("scheduler", WorkloadError)

#: Platform registry: name → factory returning a :class:`Platform`.
platforms = Registry("platform", WorkloadError)

#: Frequency-governor registry: name → factory (see :mod:`repro.energy.governor`).
governors = Registry("governor", EnergyError)

#: Trace-source registry: name → ``factory(tables, **options)`` returning a
#: :class:`~repro.runtime.trace.RequestTrace`.  Sources receive the resolved
#: configuration tables because generated traces draw their applications and
#: deadline scales from them.
trace_sources = Registry("trace source", WorkloadError)


def register_scheduler(name: str, factory=None, *, replace: bool = False):
    """Register a scheduler factory (decorator form when ``factory`` is omitted)."""
    return schedulers.register(name, factory, replace=replace)


def register_platform(name: str, factory=None, *, replace: bool = False):
    """Register a platform factory (decorator form when ``factory`` is omitted)."""
    return platforms.register(name, factory, replace=replace)


def register_governor(name: str, factory=None, *, replace: bool = False):
    """Register a frequency-governor factory (decorator form when ``factory`` is omitted)."""
    return governors.register(name, factory, replace=replace)


def register_trace_source(name: str, factory=None, *, replace: bool = False):
    """Register a trace source ``factory(tables, **options)`` (decorator form allowed)."""
    return trace_sources.register(name, factory, replace=replace)


# ---------------------------------------------------------------------- #
# Built-in registrations
# ---------------------------------------------------------------------- #
# The registries are populated here (rather than in the defining modules) so
# that importing ``repro.api.registry`` is always enough to see the full
# built-in vocabulary, and so the provider modules stay import-light.
from repro.energy.governor import (  # noqa: E402
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    ScheduleAwareGovernor,
)
from repro.platforms import big_little, odroid_xu4  # noqa: E402
from repro.runtime.trace import poisson_trace  # noqa: E402
from repro.schedulers import (  # noqa: E402
    ExMemScheduler,
    FixedMinEnergyScheduler,
    MMKPLRScheduler,
    MMKPMDFScheduler,
)
from repro.workload.motivational import (  # noqa: E402
    motivational_platform,
    motivational_trace,
)

register_scheduler("mmkp-mdf", MMKPMDFScheduler)
register_scheduler("mmkp-lr", MMKPLRScheduler)
register_scheduler("ex-mem", ExMemScheduler)
register_scheduler("fixed", FixedMinEnergyScheduler)

register_platform("motivational", motivational_platform)
register_platform("odroid-xu4", odroid_xu4)
register_platform("big-little-2x2", lambda: big_little(2, 2))
register_platform("big-little-4x4", lambda: big_little(4, 4))

register_governor(PerformanceGovernor.name, PerformanceGovernor)
register_governor(PowersaveGovernor.name, PowersaveGovernor)
register_governor(OndemandGovernor.name, OndemandGovernor)
register_governor(ScheduleAwareGovernor.name, ScheduleAwareGovernor)


@register_trace_source("poisson")
def _poisson_source(
    tables,
    *,
    arrival_rate: float,
    num_requests: int,
    deadline_factor_range=(1.5, 4.0),
    seed: int = 0,
):
    """Poisson arrivals over the applications of ``tables`` (the sweep default)."""
    low, high = deadline_factor_range
    return poisson_trace(
        tables,
        arrival_rate=float(arrival_rate),
        num_requests=int(num_requests),
        deadline_factor_range=(float(low), float(high)),
        seed=int(seed),
    )


@register_trace_source("motivational")
def _motivational_source(tables, *, scenario: str = "S1"):
    """The hand-written S1/S2 scenarios of the paper's motivational example."""
    return motivational_trace(scenario)


@register_trace_source("explicit")
def _explicit_source(tables, *, events):
    """Explicit request events, in the :mod:`repro.io` trace-dict format."""
    from repro.io.serialization import request_trace_from_dict

    return request_trace_from_dict({"events": list(events)})


__all__ = [
    "Registry",
    "schedulers",
    "platforms",
    "governors",
    "trace_sources",
    "register_scheduler",
    "register_platform",
    "register_governor",
    "register_trace_source",
]
