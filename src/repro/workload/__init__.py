"""Workloads: the motivational example and the evaluation test-case generator.

* :mod:`repro.workload.motivational` — Tables I and II of the paper (the two
  synthetic applications, scenarios S1/S2 and the 2-little/2-big platform).
* :mod:`repro.workload.testgen` — the Section VI.A test-case generator
  (1–4 jobs, application mixes, progress ratios, weak/tight deadline factors).
* :mod:`repro.workload.suite` — the full 1676-test evaluation suite with the
  Table III census.
"""

from repro.exceptions import WorkloadError
from repro.workload.testgen import TestCase, TestCaseGenerator, DeadlineLevel
from repro.workload.suite import EvaluationSuite, table_iii_census
from repro.workload.motivational import (
    motivational_platform,
    motivational_tables,
    motivational_problem,
    motivational_trace,
    scenario_s1,
    scenario_s2,
)

#: The DSE-generated sets as the ``max_points`` cap of a default
#: ``DSESpec`` on the Odroid XU4: ``"paper"`` is ``DSESpec()`` and
#: ``"paper-reduced"`` is ``DSESpec(max_points=8)``.
_DSE_TABLE_SETS = {"paper": None, "paper-reduced": 8}

#: Names accepted by :func:`named_tables`.
TABLE_SETS = ("motivational", *_DSE_TABLE_SETS)


def named_tables(name: str):
    """Build one of the well-known application table sets by name.

    * ``"motivational"`` — Tables I/II of the paper (two synthetic apps).
    * ``"paper"`` — the full DSE-generated operating-point tables.
    * ``"paper-reduced"`` — the DSE tables capped at 8 points per app (the
      size used for the EX-MEM comparison).

    The two DSE sets resolve through :func:`repro.dse.tables.design_tables`,
    so they share one exploration per process; every call returns a fresh
    mapping.  The registry gives declarative specs (batch files, CLI
    arguments) a stable vocabulary without embedding table contents.
    """
    if name == "motivational":
        return motivational_tables()
    if name in _DSE_TABLE_SETS:
        # Local import: the DSE flow is comparatively heavy and only needed
        # when a paper-scale table set is actually requested.
        from repro.dse.tables import design_tables

        return design_tables(max_points=_DSE_TABLE_SETS[name])
    raise WorkloadError(
        f"unknown table set {name!r}; choose from {sorted(TABLE_SETS)}"
    )


__all__ = [
    "named_tables",
    "TABLE_SETS",
    "TestCase",
    "TestCaseGenerator",
    "DeadlineLevel",
    "EvaluationSuite",
    "table_iii_census",
    "motivational_platform",
    "motivational_tables",
    "motivational_problem",
    "motivational_trace",
    "scenario_s1",
    "scenario_s2",
]
