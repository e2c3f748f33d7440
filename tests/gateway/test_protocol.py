"""Unit tests of the gateway wire protocol (no sockets involved)."""

import io
import json

import pytest

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

    def test_invalid_spec_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="invalid experiment spec"):
            parse_run_submission({"spec": {"name": "x", "workload": {"kind": "?"}}})

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

    @pytest.mark.parametrize("timeout", ["soon", 0, -1, {}])
    def test_bad_timeouts(self, timeout):
        with pytest.raises(ProtocolError):
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
