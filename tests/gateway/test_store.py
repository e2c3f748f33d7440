"""Tests of the gateway session store (no sockets)."""

import dataclasses

from repro.api import ExperimentSpec, WorkloadSpec
from repro.gateway.store import SessionStore


def _spec(seed: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        name="store",
        workload=WorkloadSpec.poisson(arrival_rate=0.25, num_requests=4, seed=seed),
    )


class TestOneKernelCaches:
    def test_anonymous_sessions_are_fresh_but_share_the_daemon_caches(self):
        store = SessionStore()
        first = store.session_for("a", None, _spec())
        second = store.session_for("b", None, _spec())
        assert first is not second
        assert first.kernel_caches is second.kernel_caches
        assert first.kernel_caches is store.kernel_caches


class TestNamedSessions:
    def test_same_spec_reuses_the_stored_session(self):
        store = SessionStore()
        first = store.session_for("a", "warm", _spec())
        again = store.session_for("a", "warm", _spec())
        assert again is first

    def test_changed_spec_rebinds_the_name_but_keeps_the_caches(self):
        store = SessionStore()
        first = store.session_for("a", "warm", _spec(seed=3))
        rebound = store.session_for("a", "warm", _spec(seed=4))
        assert rebound is not first
        assert rebound.kernel_caches is first.kernel_caches
        assert store.named_sessions("a") == ["warm"]

    def test_same_name_in_different_tenants_is_distinct_over_one_caches(self):
        store = SessionStore()
        a = store.session_for("a", "warm", _spec())
        b = store.session_for("b", "warm", _spec())
        assert a is not b
        assert a.kernel_caches is b.kernel_caches is store.kernel_caches
        assert store.session_for("a", "warm", _spec()) is a
        assert store.named_sessions("a") == ["warm"]
        assert store.named_sessions("b") == ["warm"]

    def test_lru_eviction_bounds_all_tenants_together(self):
        store = SessionStore()
        limit = SessionStore.MAX_NAMED_SESSIONS
        spec = _spec()
        for index in range(limit + 2):
            named = dataclasses.replace(spec, name=f"store-{index}")
            store.session_for(f"t{index % 2}", f"s{index}", named)
        names = store.named_sessions("t0") + store.named_sessions("t1")
        assert len(names) == limit
        assert "s0" not in names and "s1" not in names
        assert store.named_sessions("t1")[-1] == f"s{limit + 1}"
