"""API-surface snapshot: accidental breaking changes must fail fast.

These assertions pin the *names* of the public API — ``repro.api.__all__``,
the spec schemas (dataclass field names) and the built-in registry
vocabulary.  Renaming or removing anything here is a breaking change and
must be an explicit, reviewed edit of this file, never a drive-by.
"""

import repro
import repro.api as api
from repro.api.spec import SPEC_SCHEMAS

#: The frozen public surface of repro.api.  Additions are fine (append here);
#: removals and renames are breaking.
EXPECTED_API_ALL = [
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
    # columnar operating-point kernel (PR 4)
    "OpTable",
    "as_optable",
    # incremental scheduling engine (PR 5)
    "KernelCaches",
]

#: The frozen field names of every spec dataclass (order included: it is the
#: positional-construction contract of frozen dataclasses).
EXPECTED_SPEC_SCHEMAS = {
    "PlatformSpec": ("name", "inline"),
    "WorkloadSpec": ("source", "options"),
    "SchedulerSpec": ("name", "remap_on_finish", "options"),
    "EnergySpec": (
        "governor",
        "power_cap_watts",
        "energy_budget_joules",
        "account_energy",
    ),
    "DSESpec": ("input_sizes", "sweep_opps", "max_points"),
    "ExperimentSpec": (
        "name",
        "platform",
        "workload",
        "scheduler",
        "energy",
        "dse",
        "tables",
        "tables_inline",
        "engine",
    ),
}


class TestApiSurface:
    def test_all_matches_the_snapshot(self):
        assert list(api.__all__) == EXPECTED_API_ALL

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_spec_schemas_match_the_snapshot(self):
        assert SPEC_SCHEMAS == EXPECTED_SPEC_SCHEMAS

    def test_run_event_kinds_are_frozen(self):
        from repro.api import RunEventKind

        assert {kind.value for kind in RunEventKind} == {
            "arrival",
            "admit",
            "reject",
            "commit",
            "interval",
            "finish",
            "kernel",
            "end",
        }

    def test_builtin_registry_vocabulary_is_frozen(self):
        # Supersets are allowed (plugins register more); the built-ins must
        # never silently disappear.
        assert {"mmkp-mdf", "mmkp-lr", "ex-mem", "fixed"} <= set(api.schedulers)
        assert {
            "motivational",
            "odroid-xu4",
            "big-little-2x2",
            "big-little-4x4",
        } <= set(api.platforms)
        assert {"performance", "powersave", "ondemand", "schedule-aware"} <= set(
            api.governors
        )
        assert {"poisson", "motivational", "explicit"} <= set(api.trace_sources)


class TestOpTableSurface:
    def test_api_export_is_the_kernel_class(self):
        import repro.optable

        assert api.OpTable is repro.optable.OpTable
        assert api.as_optable is repro.optable.as_optable

    def test_kernel_public_names_are_frozen(self):
        import repro.optable

        # Supersets allowed; the kernel contract must never silently shrink.
        assert {
            "OpTable",
            "ParetoFrontier",
            "ProblemView",
            "SolveCache",
            "as_optable",
            "fingerprint_points",
            "intern_info",
            "pareto_select",
        } <= set(repro.optable.__all__)


class TestTopLevelReexports:
    def test_api_names_reachable_from_repro(self):
        for name in (
            "ExperimentSpec",
            "PlatformSpec",
            "WorkloadSpec",
            "SchedulerSpec",
            "EnergySpec",
            "DSESpec",
            "Session",
            "RunEvent",
            "RunEventKind",
            "register_scheduler",
            "register_platform",
            "register_governor",
            "register_trace_source",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is getattr(api, name)

    def test_engine_names_agree_across_layers(self):
        from repro.api.spec import ENGINES as SPEC_ENGINES
        from repro.runtime.manager import ENGINES as MANAGER_ENGINES

        assert SPEC_ENGINES == MANAGER_ENGINES == ("events",)
