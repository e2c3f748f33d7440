"""Unit tests of the gateway wire protocol (no sockets involved)."""

import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExperimentSpec, WorkloadSpec
from repro.gateway.protocol import (
    DEFAULT_TENANT,
    ProtocolError,
    canonical_events,
    error_body,
    error_from,
    iter_sse,
    parse_batch_submission,
    parse_run_submission,
    sse_frame,
)


#: Submission timeouts every parser refuses: not a number, not positive,
#: not finite, or past float range.
BAD_TIMEOUTS = [
    "soon",
    0,
    -1,
    {},
    "nan",
    pytest.param(float("nan"), id="float-nan"),
    "inf",
    pytest.param(10**400, id="int-past-float-range"),
]


def _nested(depth: int) -> list:
    """A list nested ``depth`` levels deep."""
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


def _spec_body(**extra) -> dict:
    spec = ExperimentSpec(
        name="proto", workload=WorkloadSpec.poisson(
            arrival_rate=0.25, num_requests=4, seed=7
        )
    )
    return {"spec": spec.to_dict(), **extra}


class TestRunSubmission:
    def test_minimal_body_defaults(self):
        submission = parse_run_submission(_spec_body())
        assert submission.tenant == DEFAULT_TENANT
        assert submission.session is None
        assert submission.timeout_s is None
        assert submission.spec.name == "proto"

    def test_full_body(self):
        submission = parse_run_submission(
            _spec_body(tenant="acme", session="warm-1", engine="events",
                       timeout_s=30)
        )
        assert submission.tenant == "acme"
        assert submission.session == "warm-1"
        assert submission.timeout_s == 30.0

    def test_missing_spec(self):
        with pytest.raises(ProtocolError, match="needs a 'spec'"):
            parse_run_submission({"tenant": "acme"})

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param({"name": "x", "workload": {"kind": "?"}}, id="bad-workload"),
            pytest.param(
                {"name": "x", "scheduler": {"options": {"x": _nested(5000)}}},
                id="nested-past-the-recursion-limit",
            ),
        ],
    )
    def test_invalid_spec_is_a_protocol_error(self, spec):
        with pytest.raises(ProtocolError, match="invalid experiment spec"):
            parse_run_submission({"spec": spec})

    def test_unknown_table_set_fails_at_submission(self):
        body = _spec_body()
        body["spec"]["tables"] = "papr"
        with pytest.raises(ProtocolError, match="unknown table set 'papr'"):
            parse_run_submission(body)

    def test_unknown_governor_fails_at_submission(self):
        body = _spec_body()
        body["spec"]["energy"] = {"governor": "turbo"}
        with pytest.raises(ProtocolError, match="unknown governor 'turbo'"):
            parse_run_submission(body)

    @pytest.mark.parametrize("tenant", ["", "a b", "a/b", "x" * 129, 7])
    def test_bad_tenant_names(self, tenant):
        with pytest.raises(ProtocolError):
            parse_run_submission(_spec_body(tenant=tenant))

    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
    def test_bad_timeouts(self, timeout):
        with pytest.raises(ProtocolError, match="timeout_s"):
            parse_run_submission(_spec_body(timeout_s=timeout))

    def test_non_mapping_body(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_run_submission(["not", "a", "mapping"])


class TestBatchSubmission:
    def test_defaults_and_seeds(self):
        submission = parse_batch_submission(_spec_body(trials=3, seeds=[1, 2, 3]))
        assert submission.trials == 3
        assert submission.seeds == (1, 2, 3)
        assert parse_batch_submission(_spec_body()).trials == 1

    @pytest.mark.parametrize("trials", [0, -2, "three", 1.5])
    def test_bad_trials(self, trials):
        with pytest.raises(ProtocolError, match="trials"):
            parse_batch_submission(_spec_body(trials=trials))

    @pytest.mark.parametrize("seeds", ["123", [1, "x"], {"a": 1}])
    def test_bad_seeds(self, seeds):
        with pytest.raises(ProtocolError, match="seeds"):
            parse_batch_submission(_spec_body(seeds=seeds))

    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
    def test_bad_timeouts(self, timeout):
        with pytest.raises(ProtocolError, match="timeout_s"):
            parse_batch_submission(_spec_body(timeout_s=timeout))


#: Any JSON value; Python's json reads NaN and the infinities too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
NAMES = st.from_regex(r"[A-Za-z0-9._-]{1,8}", fullmatch=True)

#: Every subtree of a spec that the parser reads; () is the whole spec.
SPEC_PATHS = [
    (),
    ("name",),
    ("platform",),
    ("platform", "name"),
    ("platform", "inline"),
    ("workload",),
    ("workload", "source"),
    ("workload", "options"),
    ("workload", "options", "arrival_rate"),
    ("workload", "options", "num_requests"),
    ("workload", "options", "deadline_factor_range"),
    ("workload", "options", "seed"),
    ("scheduler",),
    ("scheduler", "name"),
    ("scheduler", "options"),
    ("scheduler", "remap_on_finish"),
    ("energy",),
    ("energy", "governor"),
    ("energy", "power_cap_watts"),
    ("energy", "energy_budget_joules"),
    ("dse",),
    ("tables",),
    ("tables_inline",),
    ("engine",),
]

#: The submission's own fields: arbitrary JSON or a value of the right shape.
SUBMISSION_FIELDS = {
    "tenant": JSON_VALUES | NAMES,
    "session": JSON_VALUES | NAMES,
    "timeout_s": JSON_VALUES | st.sampled_from(["nan", "inf", "-inf", "1e400", "2.5"]),
    "trials": JSON_VALUES | st.integers(-1, 4),
    "seeds": JSON_VALUES | st.lists(st.integers(), max_size=3),
    "engine": JSON_VALUES | st.just("events"),
}


def _spec_with(subtrees: dict):
    """A valid spec's dictionary with the given subtrees replaced."""
    if () in subtrees:
        return subtrees[()]
    spec = _spec_body()["spec"]
    for path, value in sorted(subtrees.items()):
        parent = spec
        for key in path[:-1]:
            if not isinstance(parent, dict):
                break
            parent = parent.setdefault(key, {})
        else:
            if isinstance(parent, dict):
                parent[path[-1]] = value
    return spec


class TestAnyBody:
    @settings(max_examples=300, deadline=None)
    @given(
        parse=st.sampled_from([parse_run_submission, parse_batch_submission]),
        subtrees=st.dictionaries(st.sampled_from(SPEC_PATHS), JSON_VALUES, max_size=3),
        fields=st.fixed_dictionaries({}, optional=SUBMISSION_FIELDS),
    )
    def test_a_body_parses_or_raises_a_protocol_error(self, parse, subtrees, fields):
        try:
            submission = parse({"spec": _spec_with(subtrees), **fields})
        except ProtocolError:
            return
        assert submission.timeout_s is None or 0 < submission.timeout_s < math.inf


class TestCanonicalEvents:
    def test_wall_clock_fields_are_stripped(self):
        events = [
            {"kind": "admit", "time": 1.0, "request": "r0",
             "data": {"search_time": 0.123}},
            {"kind": "reject", "time": 2.0, "request": "r1",
             "data": {"search_time": 0.456, "reason": "budget"}},
        ]
        canonical = canonical_events(events)
        assert canonical == [
            {"kind": "admit", "time": 1.0, "request": "r0", "data": {}},
            {"kind": "reject", "time": 2.0, "request": "r1",
             "data": {"reason": "budget"}},
        ]
        # The originals are untouched (canonicalisation copies).
        assert events[0]["data"] == {"search_time": 0.123}

    def test_missing_data_is_tolerated(self):
        assert canonical_events([{"kind": "finish", "time": 1.0}]) == [
            {"kind": "finish", "time": 1.0, "data": {}}
        ]


class TestErrorEnvelopes:
    def test_error_body_shape(self):
        assert error_body("timeout", "too slow") == {
            "error": {"type": "timeout", "message": "too slow"}
        }

    def test_error_from_protocol_error(self):
        body = error_from(ProtocolError("bad tenant"))
        assert body["error"]["type"] == "protocol"

    def test_error_from_generic_exception(self):
        body = error_from(ValueError("nope"))
        assert body["error"] == {"type": "ValueError", "message": "nope"}


class TestSse:
    def test_frame_layout(self):
        frame = sse_frame({"kind": "arrival", "time": 1.0}, 7)
        text = frame.decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == "id: 7"
        assert lines[1] == "event: arrival"
        assert lines[2].startswith("data: ")
        assert json.loads(lines[2][6:]) == {"kind": "arrival", "time": 1.0}
        assert text.endswith("\n\n")

    def test_iter_sse_inverts_frames(self):
        payloads = [
            {"kind": "arrival", "time": 1.0, "request": "r0", "data": {}},
            {"kind": "end", "time": 2.0, "data": {"log": {"requests": 1}}},
        ]
        wire = b"".join(
            sse_frame(payload, index) for index, payload in enumerate(payloads)
        )
        assert list(iter_sse(io.BytesIO(wire))) == payloads

    def test_iter_sse_handles_a_truncated_final_frame(self):
        wire = b'id: 0\nevent: arrival\ndata: {"kind": "arrival", "time": 1.0}'
        assert list(iter_sse(io.BytesIO(wire))) == [
            {"kind": "arrival", "time": 1.0}
        ]
