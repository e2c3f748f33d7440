"""Serialization of library objects to and from JSON.

The runtime manager of the paper receives its design-time data (platform
description, per-application operating-point tables) as files produced by the
DSE flow.  This package provides the corresponding plain-JSON round-trip for
platforms, configuration tables, jobs, test cases and request traces, plus
small helpers for saving/loading whole experiment setups.
"""

from repro.io.serialization import (
    config_table_from_dict,
    config_table_to_dict,
    exploration_result_from_dict,
    exploration_result_to_dict,
    job_from_dict,
    job_to_dict,
    load_json,
    platform_from_dict,
    platform_to_dict,
    request_trace_from_dict,
    request_trace_to_dict,
    save_json,
    schedule_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
    tables_from_dict,
    tables_to_dict,
    test_case_from_dict,
    test_case_to_dict,
)

__all__ = [
    "platform_to_dict",
    "platform_from_dict",
    "config_table_to_dict",
    "config_table_from_dict",
    "tables_to_dict",
    "tables_from_dict",
    "exploration_result_to_dict",
    "exploration_result_from_dict",
    "sweep_result_to_dict",
    "sweep_result_from_dict",
    "job_to_dict",
    "job_from_dict",
    "test_case_to_dict",
    "test_case_from_dict",
    "request_trace_to_dict",
    "request_trace_from_dict",
    "schedule_to_dict",
    "save_json",
    "load_json",
]
