"""``repro.api`` — the composable public front door of the library.

One typed spec tree, one plugin registry, one session facade:

* :mod:`repro.api.spec` — the frozen, validated
  :class:`~repro.api.spec.ExperimentSpec` config tree
  (:class:`PlatformSpec` / :class:`WorkloadSpec` / :class:`SchedulerSpec` /
  :class:`EnergySpec` / :class:`DSESpec`) with full JSON round-trip.
* :mod:`repro.api.registry` — string-keyed plugin registries with
  ``register_scheduler`` / ``register_platform`` / ``register_governor`` /
  ``register_trace_source`` decorators; third-party extensions plug in with
  zero core edits.
* :mod:`repro.api.session` — the :class:`~repro.api.session.Session` facade
  (``Session.from_spec(spec).run()`` / ``.run_batch()`` / ``.explore()``)
  streaming :class:`~repro.api.events.RunEvent` observations.

Typical use::

    from repro.api import ExperimentSpec, Session, WorkloadSpec

    spec = ExperimentSpec(
        name="sweep-point",
        workload=WorkloadSpec.poisson(arrival_rate=0.3, num_requests=20, seed=7),
    )
    log = Session.from_spec(spec).run()

Attribute access is lazy (PEP 562): importing :mod:`repro.api` does not pull
the whole simulation stack until a symbol is actually used, which also keeps
the provider modules free of import cycles.
"""

from __future__ import annotations

__all__ = [
    # spec tree
    "ExperimentSpec",
    "PlatformSpec",
    "WorkloadSpec",
    "SchedulerSpec",
    "EnergySpec",
    "DSESpec",
    "SPEC_SCHEMAS",
    # registries
    "Registry",
    "register_scheduler",
    "register_platform",
    "register_governor",
    "register_trace_source",
    "schedulers",
    "platforms",
    "governors",
    "trace_sources",
    # session + streaming
    "Session",
    "RunEvent",
    "RunEventKind",
    "RunEventStream",
    # columnar operating-point kernel
    "OpTable",
    "as_optable",
    # incremental scheduling engine
    "KernelCaches",
]

#: Lazy attribute → defining submodule (PEP 562).
_LAZY = {
    "ExperimentSpec": "repro.api.spec",
    "PlatformSpec": "repro.api.spec",
    "WorkloadSpec": "repro.api.spec",
    "SchedulerSpec": "repro.api.spec",
    "EnergySpec": "repro.api.spec",
    "DSESpec": "repro.api.spec",
    "SPEC_SCHEMAS": "repro.api.spec",
    "Registry": "repro.api.registry",
    "register_scheduler": "repro.api.registry",
    "register_platform": "repro.api.registry",
    "register_governor": "repro.api.registry",
    "register_trace_source": "repro.api.registry",
    "schedulers": "repro.api.registry",
    "platforms": "repro.api.registry",
    "governors": "repro.api.registry",
    "trace_sources": "repro.api.registry",
    "Session": "repro.api.session",
    "RunEvent": "repro.api.events",
    "RunEventKind": "repro.api.events",
    "RunEventStream": "repro.api.session",
    "OpTable": "repro.optable",
    "as_optable": "repro.optable",
    "KernelCaches": "repro.kernel",
}

from repro._lazy import lazy_attributes  # noqa: E402

__getattr__, __dir__ = lazy_attributes(globals(), _LAZY)
