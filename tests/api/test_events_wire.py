"""Snapshot tests pinning the JSON wire schema of :class:`RunEvent`.

The gateway protocol (:mod:`repro.gateway.protocol`) ships these payloads
over the network, so their shape is a compatibility contract: any change
that breaks a snapshot here is a wire-schema change and must bump
``PROTOCOL_VERSION``.
"""

import collections
import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path
from typing import Any, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExperimentSpec, RunEvent, RunEventKind, Session, WorkloadSpec

# One representative event per kind, with the payload fields the runtime
# manager actually emits (see repro.runtime.manager).  The right-hand side
# of WIRE_SNAPSHOTS is the pinned wire form — literal, not computed.
SAMPLE_EVENTS = {
    RunEventKind.ARRIVAL: RunEvent(
        RunEventKind.ARRIVAL,
        1.5,
        "req0000",
        {"application": "sigma1", "deadline": 9.25},
    ),
    RunEventKind.ADMIT: RunEvent(
        RunEventKind.ADMIT, 1.5, "req0000", {"search_time": 0.0031}
    ),
    RunEventKind.REJECT: RunEvent(
        RunEventKind.REJECT,
        2.0,
        "req0001",
        {"search_time": 0.0007, "reason": "budget"},
    ),
    RunEventKind.COMMIT: RunEvent(
        RunEventKind.COMMIT,
        1.5,
        None,
        {"segments": 2, "speed": 0.7, "jobs": ("req0000",)},
    ),
    RunEventKind.INTERVAL: RunEvent(
        RunEventKind.INTERVAL,
        3.0,
        None,
        {
            "start": 1.5,
            "end": 3.0,
            "energy": 0.75,
            "jobs": ("req0000",),
            "total_energy": 0.75,
        },
    ),
    RunEventKind.FINISH: RunEvent(RunEventKind.FINISH, 3.0, "req0000", {}),
    RunEventKind.KERNEL: RunEvent(
        RunEventKind.KERNEL,
        3.0,
        None,
        {"activations": 2, "commits": 2, "resumed_steps": 5, "replayed_steps": 1},
    ),
}

WIRE_SNAPSHOTS = {
    RunEventKind.ARRIVAL: {
        "kind": "arrival",
        "time": 1.5,
        "request": "req0000",
        "data": {"application": "sigma1", "deadline": 9.25},
    },
    RunEventKind.ADMIT: {
        "kind": "admit",
        "time": 1.5,
        "request": "req0000",
        "data": {"search_time": 0.0031},
    },
    RunEventKind.REJECT: {
        "kind": "reject",
        "time": 2.0,
        "request": "req0001",
        "data": {"search_time": 0.0007, "reason": "budget"},
    },
    RunEventKind.COMMIT: {
        "kind": "commit",
        "time": 1.5,
        "data": {"segments": 2, "speed": 0.7, "jobs": ["req0000"]},
    },
    RunEventKind.INTERVAL: {
        "kind": "interval",
        "time": 3.0,
        "data": {
            "start": 1.5,
            "end": 3.0,
            "energy": 0.75,
            "jobs": ["req0000"],
            "total_energy": 0.75,
        },
    },
    RunEventKind.FINISH: {
        "kind": "finish",
        "time": 3.0,
        "request": "req0000",
        "data": {},
    },
    RunEventKind.KERNEL: {
        "kind": "kernel",
        "time": 3.0,
        "data": {"activations": 2, "commits": 2, "resumed_steps": 5,
                 "replayed_steps": 1},
    },
}


class TestWireSnapshots:
    @pytest.mark.parametrize("kind", sorted(SAMPLE_EVENTS, key=lambda k: k.value))
    def test_to_dict_matches_the_pinned_snapshot(self, kind):
        assert SAMPLE_EVENTS[kind].to_dict() == WIRE_SNAPSHOTS[kind]

    @pytest.mark.parametrize("kind", sorted(SAMPLE_EVENTS, key=lambda k: k.value))
    def test_wire_form_is_plain_json(self, kind):
        payload = SAMPLE_EVENTS[kind].to_dict()
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("kind", sorted(SAMPLE_EVENTS, key=lambda k: k.value))
    def test_round_trip_rebuilds_an_equal_event(self, kind):
        event = SAMPLE_EVENTS[kind]
        rebuilt = RunEvent.from_dict(event.to_dict())
        # Tuples become lists on the wire, so compare wire forms (which are
        # canonical) plus the typed fields that must survive exactly.
        assert rebuilt.kind is event.kind
        assert rebuilt.time == event.time
        assert rebuilt.request == event.request
        assert rebuilt.to_dict() == event.to_dict()

    def test_every_kind_is_covered(self):
        covered = set(SAMPLE_EVENTS) | {RunEventKind.END}
        assert covered == set(RunEventKind), (
            "a new RunEventKind needs a wire snapshot here"
        )


class TestEndEvent:
    """END is the one lossy kind: the live log travels as its summary."""

    @pytest.fixture(scope="class")
    def end_event(self):
        spec = ExperimentSpec(name="wire-end", workload=WorkloadSpec.scenario("S1"))
        events = []
        Session.from_spec(spec).run(on_event=events.append)
        return events[-1]

    def test_end_wire_form_carries_the_log_summary(self, end_event):
        payload = end_event.to_dict()
        assert payload["kind"] == "end"
        summary = payload["data"]["log"]
        assert set(summary) == {
            "requests", "accepted", "rejected", "acceptance_rate",
            "total_energy", "makespan", "activations", "deadline_misses",
            "budget_rejections", "cluster_energy", "fingerprint",
        }
        assert summary == end_event.data["log"].summary()
        assert json.loads(json.dumps(payload)) == payload

    def test_end_fingerprint_is_deterministic_hex(self, end_event):
        summary = end_event.to_dict()["data"]["log"]
        fingerprint = summary["fingerprint"]
        assert isinstance(fingerprint, str) and len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex
        assert fingerprint == end_event.data["log"].fingerprint()

    def test_to_dict_is_idempotent_across_the_round_trip(self, end_event):
        wire = end_event.to_dict()
        assert RunEvent.from_dict(wire).to_dict() == wire


class TestFingerprintStability:
    """The summary fingerprint is the cross-process equivalence witness.

    The gateway (and the trace-equivalence gate in
    ``benchmarks/bench_obs_overhead.py``) compare fingerprints computed in
    different processes, so the digest must be a pure function of the run's
    deterministic fields — stable across interpreters, insensitive to
    wall-clock measurements.
    """

    SPEC_NAME = "wire-fp"

    @pytest.fixture(scope="class")
    def log(self):
        spec = ExperimentSpec(
            name=self.SPEC_NAME, workload=WorkloadSpec.scenario("S1")
        )
        return Session.from_spec(spec).run()

    def test_fingerprint_is_sha256_of_the_deterministic_fields(self, log):
        fingerprint = log.fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)
        assert fingerprint == log.fingerprint()  # pure, not stateful

    def test_fingerprint_matches_across_process_boundaries(self, log):
        program = (
            "from repro.api import ExperimentSpec, Session, WorkloadSpec\n"
            f"spec = ExperimentSpec(name={self.SPEC_NAME!r}, "
            "workload=WorkloadSpec.scenario('S1'))\n"
            "print(Session.from_spec(spec).run().fingerprint())"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        remote = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert remote == log.fingerprint()

    def test_fingerprint_ignores_wall_clock_scheduler_time(self, log):
        doctored = dataclasses.replace(log)
        doctored.outcomes = [
            dataclasses.replace(outcome, scheduler_time=outcome.scheduler_time + 1.0)
            for outcome in log.outcomes
        ]
        assert doctored.fingerprint() == log.fingerprint()

    def test_fingerprint_is_sensitive_to_deterministic_fields(self, log):
        doctored = dataclasses.replace(log)
        doctored.outcomes = [
            dataclasses.replace(outcome, energy=outcome.energy + 1e-9)
            for outcome in log.outcomes
        ]
        assert doctored.fingerprint() != log.fingerprint()
        assert dataclasses.replace(log, activations=log.activations + 1).fingerprint() \
            != log.fingerprint()


class TestFromDictValidation:
    def test_unknown_kind_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="arrival.*commit.*end"):
            RunEvent.from_dict({"kind": "teleport", "time": 1.0})

    def test_missing_kind(self):
        with pytest.raises(ValueError, match="no 'kind'"):
            RunEvent.from_dict({"time": 1.0})

    def test_non_numeric_time(self):
        with pytest.raises(ValueError, match="numeric 'time'"):
            RunEvent.from_dict({"kind": "arrival", "time": "soon"})

    def test_non_mapping_payload(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            RunEvent.from_dict(["arrival", 1.0])

    def test_non_mapping_data(self):
        with pytest.raises(ValueError, match="data must be a mapping"):
            RunEvent.from_dict({"kind": "arrival", "time": 1.0, "data": [1]})

    def test_missing_data_defaults_to_empty(self):
        event = RunEvent.from_dict({"kind": "finish", "time": 2.0, "request": "r0"})
        assert event.data == {}


def _reference_jsonify(value: Any):
    """The wire encoding before its exact-type fast path (the reference)."""
    if isinstance(value, Mapping):
        return {str(key): _reference_jsonify(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonify(entry) for entry in value]
    return value


_Pair = collections.namedtuple("_Pair", "first second")
_Single = collections.namedtuple("_Single", "only")

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_keys = st.text(max_size=4) | st.integers() | st.booleans() | st.none() | st.floats(
    allow_nan=False
)


def _containers(children):
    mappings = st.dictionaries(_keys, children, max_size=4)
    return (
        mappings
        | mappings.map(collections.OrderedDict)
        | mappings.map(types.MappingProxyType)
        | st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.tuples(children, children).map(lambda pair: _Pair(*pair))
        | children.map(_Single)
    )


_values = st.recursive(_scalars, _containers, max_leaves=20)


class TestJsonifyReference:
    """The encoder's exact-type tests change nothing it returns."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.dictionaries(st.text(max_size=6), _values, max_size=5),
        request=st.none() | st.text(max_size=6),
    )
    def test_to_dict_equals_the_reference_encoding(self, data, request):
        event = RunEvent(RunEventKind.COMMIT, 1.25, request, data)
        expected = {"kind": "commit", "time": 1.25}
        if request is not None:
            expected["request"] = request
        expected["data"] = {
            key: _reference_jsonify(value) for key, value in data.items()
        }
        wire = event.to_dict()
        assert wire == expected
        # repr also tells dict from OrderedDict and list from tuple.
        assert repr(wire) == repr(expected)
