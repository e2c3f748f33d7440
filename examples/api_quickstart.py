"""The ``repro.api`` front door: spec → session → streamed run → batch.

Demonstrates the three pieces of the public API working together:

1. a typed :class:`ExperimentSpec` built in code (and round-tripped through
   JSON, the same format ``repro-rm run`` consumes),
2. a streaming :class:`Session` run whose events are printed as they happen,
3. a plugin registered at runtime — a custom trace source — used by a spec
   with zero core edits, and
4. a seeded multi-trial batch through the simulation service.

Run with ``PYTHONPATH=src python examples/api_quickstart.py``.
"""

from repro.api import (
    EnergySpec,
    ExperimentSpec,
    RunEventKind,
    SchedulerSpec,
    Session,
    WorkloadSpec,
    register_trace_source,
)
from repro.runtime.trace import RequestEvent, RequestTrace


def main() -> None:
    # 1. One typed spec instead of scattered kwargs; full JSON round-trip.
    spec = ExperimentSpec(
        name="api-quickstart",
        workload=WorkloadSpec.poisson(arrival_rate=0.3, num_requests=10, seed=7),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
        energy=EnergySpec(governor="schedule-aware"),
    )
    assert ExperimentSpec.from_json(spec.to_json()) == spec
    print(f"spec {spec.name!r}: {spec.scheduler.name} / "
          f"{spec.energy.governor} governor")

    # 2. Stream the run: admission decisions and energy ticks as they happen.
    print("\nstreaming run events:")
    log = None
    for event in Session.from_spec(spec).stream():
        if event.kind is RunEventKind.END:
            log = event.data["log"]
        elif event.kind is not RunEventKind.INTERVAL:  # keep the output short
            print(f"  {event}")
    print(f"-> {len(log.accepted)}/{len(log.outcomes)} admitted, "
          f"{log.total_energy:.2f} J")

    # 3. A third-party trace source, registered — not patched — into the core.
    @register_trace_source("burst")
    def burst_source(tables, *, size, deadline=40.0):
        events = [
            RequestEvent(0.0, application, deadline, f"burst-{index}")
            for index, application in zip(range(size), sorted(tables))
        ]
        return RequestTrace(events)

    burst_spec = ExperimentSpec(
        name="burst-demo",
        workload=WorkloadSpec(source="burst", options={"size": 2}),
    )
    burst_log = Session.from_spec(burst_spec).run()
    print(f"\nplugin trace source: {len(burst_log.outcomes)} burst requests, "
          f"acceptance {burst_log.acceptance_rate * 100:.0f} %")

    # 4. Fan the first spec out into seeded trials (bit-reproducible for any
    # worker count — fingerprints are compared in the test suite).
    results = Session.from_spec(spec).run_batch(trials=8, workers=4)
    aggregate = results.aggregate()
    print(f"\nbatch of {aggregate['traces']} trials: "
          f"acceptance {aggregate['acceptance_rate'] * 100:.1f} %, "
          f"energy {aggregate['total_energy']:.2f} J "
          f"(fingerprint {results.fingerprint()[:12]}...)")


if __name__ == "__main__":
    main()
