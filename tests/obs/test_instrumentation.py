"""End-to-end instrumentation: traced runs emit the span tree and stay exact."""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, Session, WorkloadSpec
from repro.api.spec import SchedulerSpec
from repro.obs import Tracer, merged_counts, phase_summary


def _spec(scheduler: str = "mmkp-mdf") -> ExperimentSpec:
    return ExperimentSpec(
        name="obs-test",
        workload=WorkloadSpec.scenario("S1"),
        scheduler=SchedulerSpec(name=scheduler),
    )


def _traced_run(spec: ExperimentSpec):
    tracer = Tracer(name="test")
    with tracer:
        log = Session.from_spec(spec).run()
    return tracer, log


class TestKernelPath:
    def test_span_tree_covers_every_hot_layer(self):
        tracer, _ = _traced_run(_spec())
        names = {span.name for span in tracer.spans()}
        assert {
            "test",  # root
            "rm.run",
            "rm.arrival",
            "phase.snapshot",
            "phase.candidates",
            "phase.solve",
            "phase.commit",
            "solve",
            "energy.accounting",
        } <= names

    def test_pipeline_phases_nest_under_arrivals(self):
        tracer, _ = _traced_run(_spec())
        by_id = {span.span_id: span for span in tracer.spans()}
        phases = [s for s in tracer.spans() if s.name.startswith("phase.")]
        assert phases
        for phase in phases:
            parent = by_id[phase.parent_id]
            assert parent.name in ("rm.arrival", "rm.reschedule")

    def test_solve_span_carries_scheduler_and_feasibility(self):
        tracer, _ = _traced_run(_spec())
        solves = [s for s in tracer.spans() if s.name == "solve"]
        assert solves
        for solve in solves:
            assert solve.annotations["scheduler"] == "mmkp-mdf"
            assert "feasible" in solve.annotations

    def test_commit_spans_record_the_admission_outcome(self):
        tracer, _ = _traced_run(_spec())
        commits = [s for s in tracer.spans() if s.name == "phase.commit"]
        assert commits
        assert {s.annotations["outcome"] for s in commits} <= {
            "admitted",
            "rejected",
            "budget-reject",
        }

    def test_pack_outcome_counts_land_on_solve_phases(self):
        tracer, log = _traced_run(_spec())
        counts = merged_counts(s.to_dict() for s in tracer.spans())
        assert counts.get("pack.resume", 0) + counts.get("pack.scratch", 0) > 0

    def test_energy_counts_accumulate(self):
        tracer, log = _traced_run(_spec())
        counts = merged_counts(s.to_dict() for s in tracer.spans())
        assert counts["energy.intervals"] >= 1
        assert counts["energy.joules"] == pytest.approx(log.total_energy)

    def test_run_span_summarises_the_log(self):
        tracer, log = _traced_run(_spec())
        run = next(s for s in tracer.spans() if s.name == "rm.run")
        assert run.annotations["requests"] == len(log.outcomes)
        assert run.annotations["accepted"] == len(log.accepted)
        assert run.annotations["total_energy"] == pytest.approx(log.total_energy)


class TestEquivalence:
    @pytest.mark.parametrize("scheduler", ["mmkp-mdf", "mmkp-lr", "fixed"])
    def test_traced_run_is_bit_identical_to_untraced(self, scheduler):
        spec = _spec(scheduler)
        untraced = Session.from_spec(spec).run()
        tracer, traced = _traced_run(spec)
        assert len(tracer) > 0
        assert traced.fingerprint() == untraced.fingerprint()

    def test_traced_stream_events_match_untraced_run_events(self):
        from repro.gateway.protocol import canonical_events

        spec = _spec()
        untraced_events = []
        Session.from_spec(spec).run(on_event=untraced_events.append)
        tracer = Tracer(name="stream")
        traced_events = []
        with tracer:
            with Session.from_spec(spec).stream() as events:
                traced_events.extend(events)
        # The stream worker runs in a copied context: spans arrive from it.
        assert any(s.name == "rm.run" for s in tracer.spans())
        canonical = canonical_events(
            e.to_dict() for e in traced_events if e.kind.value != "end"
        )
        expected = canonical_events(
            e.to_dict() for e in untraced_events if e.kind.value != "end"
        )
        assert canonical == expected


class TestCacheCounters:
    def test_solve_cache_counts_hits_and_misses(self):
        spec = _spec("mmkp-lr")
        tracer, _ = _traced_run(spec)
        counts = merged_counts(s.to_dict() for s in tracer.spans())
        lookups = counts.get("cache.solve.hit", 0) + counts.get(
            "cache.solve.miss", 0
        )
        assert lookups > 0

    def test_activation_cache_counters(self):
        from repro.schedulers import MMKPMDFScheduler
        from repro.service.cache import ActivationCache, CachingScheduler
        from repro.workload.motivational import motivational_problem

        cached = CachingScheduler(MMKPMDFScheduler(), ActivationCache())
        tracer = Tracer(name="cache")
        with tracer:
            cached.schedule(motivational_problem("S1"))
            cached.schedule(motivational_problem("S1"))
        counts = merged_counts(s.to_dict() for s in tracer.spans())
        assert counts["cache.activation.miss"] == 1
        assert counts["cache.activation.hit"] == 1


class TestPhaseSummary:
    def test_summary_restricts_to_phase_spans(self):
        tracer, _ = _traced_run(_spec())
        summary = phase_summary(tracer.span_dicts())
        assert "rm.arrival" in summary["phases"]
        assert "test" not in summary["phases"]  # the root is not a phase
        arrival = summary["phases"]["rm.arrival"]
        assert arrival["count"] >= 1
        assert arrival["total_s"] >= arrival["max_s"] >= 0
