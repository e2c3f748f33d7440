"""JSON (de)serialisation of library objects.

Every ``*_to_dict`` function produces plain JSON-compatible dictionaries (only
``dict``, ``list``, ``str``, ``int``, ``float``, ``bool``); every
``*_from_dict`` function validates its input and raises
:class:`~repro.exceptions.SerializationError` with a helpful message on
malformed data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.core.config import ConfigTable, OperatingPoint
from repro.core.request import Job
from repro.core.segment import Schedule
from repro.energy.opp import OPP, OPPLadder
from repro.exceptions import EnergyError, SerializationError
from repro.platforms.platform import Platform
from repro.platforms.power import PowerModel
from repro.platforms.processor import ProcessorType
from repro.platforms.resources import ResourceVector
from repro.runtime.trace import RequestEvent, RequestTrace
from repro.workload.testgen import DeadlineLevel, TestCase


def _require(data: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in data:
        raise SerializationError(f"{context}: missing required field {key!r}")
    return data[key]


# ---------------------------------------------------------------------- #
# Platforms
# ---------------------------------------------------------------------- #
def platform_to_dict(platform: Platform) -> dict:
    """Serialise a platform (name, processor types, core counts).

    OPP ladders round-trip too (as ``opps`` lists per processor type, only
    emitted when present), so a DVFS-aware inline platform behaves the same
    after crossing a process boundary or a save/load cycle as it did live.
    """
    types = []
    for ptype in platform.processor_types:
        entry = {
            "name": ptype.name,
            "frequency_hz": ptype.frequency_hz,
            "performance_factor": ptype.performance_factor,
            "static_watts": ptype.power.static_watts,
            "dynamic_watts": ptype.power.dynamic_watts,
        }
        if ptype.opps is not None:
            entry["opps"] = [
                {
                    "frequency_hz": opp.frequency_hz,
                    "speed": opp.speed,
                    "static_watts": opp.power.static_watts,
                    "dynamic_watts": opp.power.dynamic_watts,
                }
                for opp in ptype.opps
            ]
        types.append(entry)
    return {
        "name": platform.name,
        "processor_types": types,
        "core_counts": list(platform.core_counts),
    }


def platform_from_dict(data: Mapping[str, Any]) -> Platform:
    """Reconstruct a platform from :func:`platform_to_dict` output."""
    types = []
    for entry in _require(data, "processor_types", "platform"):
        ladder = None
        if entry.get("opps"):
            try:
                ladder = OPPLadder(
                    OPP(
                        frequency_hz=float(_require(point, "frequency_hz", "OPP")),
                        speed=float(_require(point, "speed", "OPP")),
                        power=PowerModel(
                            static_watts=float(_require(point, "static_watts", "OPP")),
                            dynamic_watts=float(_require(point, "dynamic_watts", "OPP")),
                        ),
                    )
                    for point in entry["opps"]
                )
            except EnergyError as error:
                raise SerializationError(
                    f"processor type {entry.get('name')!r}: invalid OPP ladder: {error}"
                ) from None
        types.append(
            ProcessorType(
                name=_require(entry, "name", "processor type"),
                frequency_hz=float(_require(entry, "frequency_hz", "processor type")),
                performance_factor=float(
                    _require(entry, "performance_factor", "processor type")
                ),
                power=PowerModel(
                    static_watts=float(_require(entry, "static_watts", "processor type")),
                    dynamic_watts=float(
                        _require(entry, "dynamic_watts", "processor type")
                    ),
                ),
                opps=ladder,
            )
        )
    return Platform(
        name=_require(data, "name", "platform"),
        processor_types=types,
        core_counts=[int(c) for c in _require(data, "core_counts", "platform")],
    )


# ---------------------------------------------------------------------- #
# Configuration tables
# ---------------------------------------------------------------------- #
def config_table_to_dict(table: ConfigTable) -> dict:
    """Serialise one application's operating points.

    The ``frequency_scale`` column is only emitted for non-nominal points,
    so pinned-frequency tables serialise exactly as the seed did.
    """
    points = []
    for point in table:
        entry = {
            "resources": list(point.resources),
            "execution_time": point.execution_time,
            "energy": point.energy,
        }
        if point.frequency_scale != 1.0:
            entry["frequency_scale"] = point.frequency_scale
        points.append(entry)
    return {"application": table.application, "points": points}


def config_table_from_dict(data: Mapping[str, Any]) -> ConfigTable:
    """Reconstruct a configuration table."""
    points = []
    for entry in _require(data, "points", "config table"):
        points.append(
            OperatingPoint(
                resources=ResourceVector(
                    int(c) for c in _require(entry, "resources", "operating point")
                ),
                execution_time=float(_require(entry, "execution_time", "operating point")),
                energy=float(_require(entry, "energy", "operating point")),
                frequency_scale=float(entry.get("frequency_scale", 1.0)),
            )
        )
    return ConfigTable(_require(data, "application", "config table"), points)


def tables_to_dict(tables: Mapping[str, ConfigTable]) -> dict:
    """Serialise a full application-name → table mapping."""
    return {name: config_table_to_dict(table) for name, table in sorted(tables.items())}


def tables_from_dict(data: Mapping[str, Any]) -> dict[str, ConfigTable]:
    """Reconstruct a table mapping, checking key/application consistency."""
    tables = {}
    for name, entry in data.items():
        table = config_table_from_dict(entry)
        if table.application != name:
            raise SerializationError(
                f"table stored under key {name!r} declares application "
                f"{table.application!r}"
            )
        tables[name] = table
    return tables


# ---------------------------------------------------------------------- #
# Jobs and test cases
# ---------------------------------------------------------------------- #
def job_to_dict(job: Job) -> dict:
    """Serialise one job."""
    return {
        "name": job.name,
        "application": job.application,
        "arrival": job.arrival,
        "deadline": job.deadline,
        "remaining_ratio": job.remaining_ratio,
    }


def job_from_dict(data: Mapping[str, Any]) -> Job:
    """Reconstruct one job."""
    return Job(
        name=_require(data, "name", "job"),
        application=_require(data, "application", "job"),
        arrival=float(_require(data, "arrival", "job")),
        deadline=float(_require(data, "deadline", "job")),
        remaining_ratio=float(data.get("remaining_ratio", 1.0)),
    )


def test_case_to_dict(case: TestCase) -> dict:
    """Serialise one generated test case."""
    return {
        "name": case.name,
        "deadline_level": case.deadline_level.value,
        "single_application": case.single_application,
        "jobs": [job_to_dict(job) for job in case.jobs],
    }


def test_case_from_dict(data: Mapping[str, Any]) -> TestCase:
    """Reconstruct one test case."""
    level_value = _require(data, "deadline_level", "test case")
    try:
        level = DeadlineLevel(level_value)
    except ValueError:
        raise SerializationError(
            f"test case: unknown deadline level {level_value!r}"
        ) from None
    return TestCase(
        name=_require(data, "name", "test case"),
        jobs=tuple(job_from_dict(j) for j in _require(data, "jobs", "test case")),
        deadline_level=level,
        single_application=bool(data.get("single_application", False)),
    )


# ---------------------------------------------------------------------- #
# Request traces and schedules
# ---------------------------------------------------------------------- #
def request_trace_to_dict(trace: RequestTrace) -> dict:
    """Serialise a request trace."""
    return {
        "events": [
            {
                "time": event.time,
                "application": event.application,
                "relative_deadline": event.relative_deadline,
                "name": event.name,
            }
            for event in trace
        ]
    }


def request_trace_from_dict(data: Mapping[str, Any]) -> RequestTrace:
    """Reconstruct a request trace."""
    events = []
    for entry in _require(data, "events", "request trace"):
        events.append(
            RequestEvent(
                time=float(_require(entry, "time", "request event")),
                application=_require(entry, "application", "request event"),
                relative_deadline=float(
                    _require(entry, "relative_deadline", "request event")
                ),
                name=_require(entry, "name", "request event"),
            )
        )
    return RequestTrace(events)


def schedule_to_dict(schedule: Schedule) -> dict:
    """Serialise a schedule (export only; schedules are recomputed, not loaded)."""
    return {
        "segments": [
            {
                "start": segment.start,
                "end": segment.end,
                "mappings": [
                    {"job": m.job_name, "application": m.application, "config": m.config_index}
                    for m in segment
                ],
            }
            for segment in schedule
        ]
    }


# ---------------------------------------------------------------------- #
# Design-space exploration
# ---------------------------------------------------------------------- #
def exploration_result_to_dict(result) -> dict:
    """Serialise one :class:`~repro.dse.explorer.ExplorationResult`.

    The process-to-core assignment is stored by core name (``"A15.2"``), so
    the document is platform-independent JSON; :func:`exploration_result_from_dict`
    needs the graph and platform back to rebuild the live mapping.
    """
    point = result.operating_point
    entry = {
        "allocation": list(result.allocation),
        "assignment": {
            process: core.name for process, core in result.mapping.assignment.items()
        },
        "simulation": {
            "execution_time": result.simulation.execution_time,
            "energy": result.simulation.energy,
            "core_busy_time": dict(result.simulation.core_busy_time),
            "communication_bytes": result.simulation.communication_bytes,
        },
        "operating_point": {
            "resources": list(point.resources),
            "execution_time": point.execution_time,
            "energy": point.energy,
        },
    }
    if point.frequency_scale != 1.0:
        entry["operating_point"]["frequency_scale"] = point.frequency_scale
    return entry


def exploration_result_from_dict(data: Mapping[str, Any], graph, platform):
    """Reconstruct an :class:`~repro.dse.explorer.ExplorationResult`.

    ``graph`` and ``platform`` provide the live context the JSON document
    references by name (an OPP-swept result re-pins the platform itself via
    the stored ``frequency_scale``, exactly as the explorer did).
    """
    from repro.dse.explorer import ExplorationResult
    from repro.energy.opp import SCALE_EPSILON, scaled_platform
    from repro.mapping.mapping import Core, ProcessMapping
    from repro.mapping.simulate import SimulationResult

    point_data = _require(data, "operating_point", "exploration result")
    point = OperatingPoint(
        resources=ResourceVector(
            int(c) for c in _require(point_data, "resources", "operating point")
        ),
        execution_time=float(_require(point_data, "execution_time", "operating point")),
        energy=float(_require(point_data, "energy", "operating point")),
        frequency_scale=float(point_data.get("frequency_scale", 1.0)),
    )
    if abs(point.frequency_scale - 1.0) > SCALE_EPSILON:
        platform = scaled_platform(platform, point.frequency_scale)
    assignment = {}
    for process, core_name in _require(data, "assignment", "exploration result").items():
        type_name, _, index = str(core_name).rpartition(".")
        if not type_name or not index.isdigit():
            raise SerializationError(
                f"exploration result: malformed core name {core_name!r}"
            )
        assignment[process] = Core(platform.processor_type(type_name), int(index))
    simulation_data = _require(data, "simulation", "exploration result")
    simulation = SimulationResult(
        execution_time=float(
            _require(simulation_data, "execution_time", "simulation result")
        ),
        energy=float(_require(simulation_data, "energy", "simulation result")),
        core_busy_time={
            str(core): float(busy)
            for core, busy in _require(
                simulation_data, "core_busy_time", "simulation result"
            ).items()
        },
        communication_bytes=float(
            _require(simulation_data, "communication_bytes", "simulation result")
        ),
    )
    return ExplorationResult(
        allocation=ResourceVector(
            int(c) for c in _require(data, "allocation", "exploration result")
        ),
        mapping=ProcessMapping(graph, platform, assignment),
        simulation=simulation,
        operating_point=point,
    )


def sweep_result_to_dict(result) -> dict:
    """Serialise a :class:`~repro.dse.sweep.SweepResult` (archive/merge form)."""
    return result.to_dict()


def sweep_result_from_dict(data: Mapping[str, Any]):
    """Reconstruct a :class:`~repro.dse.sweep.SweepResult`.

    The frontier fingerprint is recomputed from the archived tables and
    checked against the stored digest, so a truncated or hand-edited archive
    fails loudly instead of silently merging wrong frontiers.
    """
    from repro.dse.sweep import SweepResult
    from repro.exceptions import WorkloadError

    try:
        return SweepResult.from_dict(data)
    except (KeyError, TypeError, WorkloadError) as error:
        raise SerializationError(f"invalid sweep result: {error}") from None


# ---------------------------------------------------------------------- #
# File helpers
# ---------------------------------------------------------------------- #
def save_json(data: Mapping[str, Any], path: str | Path) -> None:
    """Write a JSON document with stable formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str | Path) -> Any:
    """Read a JSON document, converting file errors to SerializationError."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SerializationError(f"file not found: {path}") from None
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON in {path}: {error}") from None
