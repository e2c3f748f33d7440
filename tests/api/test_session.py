"""Tests for the :class:`Session` facade and its streaming run events."""

from dataclasses import replace

import pytest

from repro.api import (
    EnergySpec,
    ExperimentSpec,
    RunEventKind,
    SchedulerSpec,
    Session,
    WorkloadSpec,
)
from repro.exceptions import AdmissionError, WorkloadError
from repro.runtime.manager import RuntimeManager
from repro.schedulers import MMKPMDFScheduler
from repro.workload.motivational import (
    motivational_platform,
    motivational_tables,
    motivational_trace,
)
from tests.reference.oracle import ReferenceRuntime


def _poisson_spec(seed: int = 5) -> ExperimentSpec:
    return ExperimentSpec(
        name="session-poisson",
        workload=WorkloadSpec.poisson(arrival_rate=0.25, num_requests=8, seed=seed),
    )


def _log_key(log):
    """Every deterministic field of an execution log, for bit-identity checks."""
    return (
        tuple(log.outcomes and [(o.name, o.accepted, repr(o.completion_time),
                                 repr(o.energy)) for o in log.outcomes]),
        tuple((repr(i.start), repr(i.end), i.job_configs, repr(i.energy))
              for i in log.timeline),
        repr(log.total_energy),
        log.activations,
        log.budget_rejections,
    )


class TestBitIdentity:
    def test_session_reproduces_the_legacy_manager_path(self):
        """Session.from_spec(spec).run() == hand-wired RuntimeManager run."""
        spec = ExperimentSpec(
            name="identity", workload=WorkloadSpec.scenario("S1")
        )
        session_log = Session.from_spec(spec).run()
        legacy = RuntimeManager.from_components(
            motivational_platform(), motivational_tables(), MMKPMDFScheduler()
        )
        legacy_log = legacy.run(motivational_trace("S1"))
        assert _log_key(session_log) == _log_key(legacy_log)

    def test_observed_run_is_bit_identical_to_unobserved(self):
        spec = _poisson_spec()
        events = []
        observed = Session.from_spec(spec).run(on_event=events.append)
        plain = Session.from_spec(spec).run()
        assert _log_key(observed) == _log_key(plain)
        assert events  # something was actually streamed

    def test_run_matches_the_reference_oracle(self):
        spec = _poisson_spec()
        events_log = Session.from_spec(spec).run()
        oracle_log = ReferenceRuntime.from_spec(spec).run(Session.from_spec(spec).trace())
        assert _log_key(events_log) == _log_key(oracle_log)

    def test_batch_fingerprint_matches_a_hand_built_batch(self):
        """Session.run_batch() fingerprints == the same specs run by hand."""
        from repro.service import BatchSpec, SimulationService

        spec = _poisson_spec(seed=3)
        session_results = Session.from_spec(spec).run_batch(trials=3)

        hand_built = tuple(
            ExperimentSpec(
                name=f"session-poisson-t{i:03d}",
                workload=WorkloadSpec.poisson(
                    arrival_rate=0.25, num_requests=8, seed=3 + i
                ),
            )
            for i in range(3)
        )
        hand_results = SimulationService(workers=1).run_batch(
            BatchSpec("session-poisson", hand_built)
        )
        assert session_results.fingerprint() == hand_results.fingerprint()

    def test_run_batch_is_deterministic_across_worker_counts(self):
        spec = _poisson_spec(seed=11)
        serial = Session.from_spec(spec).run_batch(trials=4, workers=1)
        threaded = Session.from_spec(spec).run_batch(
            trials=4, workers=4, executor="thread"
        )
        assert serial.fingerprint() == threaded.fingerprint()


class TestStreaming:
    def test_callback_event_sequence(self):
        spec = ExperimentSpec(name="events", workload=WorkloadSpec.scenario("S1"))
        events = []
        log = Session.from_spec(spec).run(on_event=events.append)
        kinds = [event.kind for event in events]
        # Two S1 arrivals, both admitted, both finishing, with commits and
        # energy ticks in between; no END through the callback-only path is
        # wrong — run() always emits it last.
        assert kinds[0] is RunEventKind.ARRIVAL
        assert kinds[-1] is RunEventKind.END
        assert kinds.count(RunEventKind.ARRIVAL) == len(log.outcomes) == 2
        assert kinds.count(RunEventKind.ADMIT) == len(log.accepted) == 2
        assert kinds.count(RunEventKind.FINISH) == 2
        assert kinds.count(RunEventKind.INTERVAL) == len(log.timeline)
        assert RunEventKind.COMMIT in kinds
        assert events[-1].data["log"] is log
        # Event times never go backwards.
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_rejections_stream_with_a_reason(self):
        # A power cap low enough to reject every feasible schedule.
        spec = ExperimentSpec(
            name="capped",
            workload=WorkloadSpec.scenario("S1"),
            energy=EnergySpec(governor="performance", power_cap_watts=0.001),
        )
        events = []
        log = Session.from_spec(spec).run(on_event=events.append)
        rejects = [e for e in events if e.kind is RunEventKind.REJECT]
        assert rejects and all(e.data["reason"] == "budget" for e in rejects)
        assert log.budget_rejections == len(rejects)

    def test_stream_generator_yields_incrementally_and_ends_with_log(self):
        spec = _poisson_spec()
        kinds = []
        log = None
        for event in Session.from_spec(spec).stream():
            kinds.append(event.kind)
            if event.kind is RunEventKind.END:
                log = event.data["log"]
        assert kinds[-1] is RunEventKind.END
        assert log is not None
        assert _log_key(log) == _log_key(Session.from_spec(spec).run())

    def test_stream_propagates_simulation_failures(self):
        from repro.runtime.trace import RequestEvent, RequestTrace

        trace = RequestTrace([RequestEvent(0.0, "ghost-app", 5.0, "r0")])
        spec = ExperimentSpec(
            name="ghost", workload=WorkloadSpec.from_trace(trace)
        )
        with pytest.raises(AdmissionError):
            for _ in Session.from_spec(spec).stream():
                pass

    def test_abandoned_stream_does_not_leak_the_worker_thread(self):
        import threading
        import time

        spec = ExperimentSpec(
            name="abandoned",
            workload=WorkloadSpec.poisson(arrival_rate=0.5, num_requests=40, seed=1),
        )
        stream = Session.from_spec(spec).stream()
        next(stream)  # start the worker, consume one event
        start = time.perf_counter()
        stream.close()  # abandon mid-run
        assert time.perf_counter() - start < 5.0
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if not any(
                t.name == "repro-session-abandoned" for t in threading.enumerate()
            ):
                break
            time.sleep(0.01)
        assert not any(
            t.name == "repro-session-abandoned" for t in threading.enumerate()
        )

    def test_stream_is_a_context_manager(self):
        spec = _poisson_spec()
        kinds = []
        with Session.from_spec(spec).stream() as events:
            for event in events:
                kinds.append(event.kind)
        assert kinds[0] is RunEventKind.ARRIVAL
        assert kinds[-1] is RunEventKind.END

    def test_early_close_leaves_no_live_worker_thread(self):
        """Breaking out of the with-block mid-run joins the worker."""
        import threading
        import time

        spec = ExperimentSpec(
            name="early-close",
            workload=WorkloadSpec.poisson(arrival_rate=0.5, num_requests=40, seed=1),
        )
        with Session.from_spec(spec).stream() as events:
            next(events)  # worker is running mid-simulation
        # __exit__ has returned: the worker must already be joined, not
        # merely cancelled — no polling grace period.
        assert not any(
            t.name == "repro-session-early-close" for t in threading.enumerate()
        )
        # close() is idempotent and a closed stream stays closed.
        events.close()
        with pytest.raises(StopIteration):
            next(events)

    def test_close_before_first_next_never_starts_the_worker(self):
        import threading

        stream = Session.from_spec(_poisson_spec()).stream()
        stream.close()
        assert not any(
            t.name == "repro-session-session-poisson"
            for t in threading.enumerate()
        )

    def test_run_event_str_is_compact(self):
        spec = ExperimentSpec(name="str", workload=WorkloadSpec.scenario("S1"))
        events = []
        Session.from_spec(spec).run(on_event=events.append)
        text = str(events[0])
        assert "arrival" in text and "sigma1" in text


class TestConcurrentSessions:
    @staticmethod
    def _assert_parallel_batches_match_serial(caches_factory) -> None:
        """Seeded batches of two specs, run in parallel threads on sessions
        built with ``caches_factory()``, equal each spec's serial batch on
        fresh caches."""
        import threading

        from repro.kernel.caches import KernelCaches

        specs = [_poisson_spec(seed=21), _poisson_spec(seed=42)]
        serial = [
            Session.from_spec(spec, kernel_caches=KernelCaches()).run_batch(trials=3)
            for spec in specs
        ]

        parallel_results = [None, None]
        errors = []

        def work(index):
            try:
                session = Session.from_spec(
                    specs[index], kernel_caches=caches_factory()
                )
                parallel_results[index] = session.run_batch(trials=3)
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for reference, observed in zip(serial, parallel_results):
            assert observed is not None
            assert observed.fingerprint() == reference.fingerprint()

    def test_parallel_sessions_with_private_caches_match_serial(self):
        """Independent KernelCaches never leak across parallel sessions."""
        from repro.kernel.caches import KernelCaches

        self._assert_parallel_batches_match_serial(KernelCaches)

    def test_parallel_sessions_sharing_one_caches_match_serial(self):
        """Parallel sessions over one KernelCaches, as every gateway run
        shares the daemon's, get the answers of private caches."""
        import sys

        from repro.kernel.caches import KernelCaches

        shared = KernelCaches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._assert_parallel_batches_match_serial(lambda: shared)
        finally:
            sys.setswitchinterval(interval)


class TestSessionSurface:
    def test_requires_an_experiment_spec(self):
        with pytest.raises(WorkloadError):
            Session({"name": "nope"})

    def test_components_are_cached_per_session(self):
        session = Session.from_spec(_poisson_spec())
        assert session.platform is session.platform
        assert session.tables is session.tables
        # ... but schedulers are fresh per call (they may keep solve state).
        assert session.scheduler() is not session.scheduler()

    def test_from_file(self, tmp_path):
        spec = _poisson_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        session = Session.from_file(path)
        assert session.spec == spec

    def test_to_batch_validates_trials(self):
        spec = _poisson_spec()
        session = Session.from_spec(spec)
        with pytest.raises(WorkloadError):
            session.to_batch(trials=0)
        batch = session.to_batch(trials=2)
        assert [e.workload.options["seed"] for e in batch] == [5, 6]
        assert [e.name for e in batch] == ["session-poisson-t000", "session-poisson-t001"]
        assert [replace(e, name=spec.name, workload=spec.workload) for e in batch] == [
            spec,
            spec,
        ]

    def test_explore_requires_a_dse_section(self):
        with pytest.raises(WorkloadError):
            Session.from_spec(_poisson_spec()).explore()

    def test_batch_over_inline_tables_reuses_the_session_cache(self):
        from repro.api import PlatformSpec
        from repro.io import tables_to_dict
        from repro.workload.motivational import motivational_tables

        spec = ExperimentSpec(
            name="inline-batch",
            platform=PlatformSpec(name="motivational"),
            tables=None,
            tables_inline=tables_to_dict(motivational_tables()),
            workload=WorkloadSpec.poisson(arrival_rate=0.25, num_requests=4, seed=2),
        )
        session = Session.from_spec(spec)
        # Every trial shares the spec's one inline dict and resolves it to
        # the session's table objects (a fresh mapping over shared,
        # immutable ConfigTables), never parsing it again.
        for experiment in session.to_batch(trials=2):
            assert experiment.tables_inline is spec.tables_inline
            tables = experiment.resolve_tables()
            assert tables is not session.tables
            assert tables["lambda1"] is session.tables["lambda1"]
        results = session.run_batch(trials=2)
        assert results.failures == []

    def test_explore_single_graph(self):
        from repro.api import DSESpec, PlatformSpec
        from repro.dataflow import pedestrian_recognition

        spec = ExperimentSpec(
            name="dse-graph",
            platform=PlatformSpec(name="odroid-xu4"),
            dse=DSESpec(),
            tables=None,
        )
        table = Session.from_spec(spec).explore(
            graph=pedestrian_recognition().graph
        )
        assert len(table) > 0
