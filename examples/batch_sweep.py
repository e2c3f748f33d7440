"""Sweep arrival rates × schedulers through the batch-simulation service.

The seed's examples drive one trace at a time through the runtime manager.
This example shows the ``repro.service`` way: describe the whole parameter
study declaratively as a :class:`~repro.service.jobs.BatchSpec` — one
:class:`~repro.api.ExperimentSpec` per trace, the same description
``Session.run`` takes — fan it out over workers with a shared activation
cache, and post-process the ordered results — here into an acceptance/energy
table per (scheduler, arrival rate) operating point.

Run with::

    PYTHONPATH=src python examples/batch_sweep.py
"""

from repro.service import BatchSpec, SimulationService

ARRIVAL_RATES = [0.1, 0.2, 0.4]
SCHEDULERS = ["mmkp-mdf", "mmkp-lr", "fixed"]
TRACES_PER_POINT = 10
NUM_REQUESTS = 8


def main() -> None:
    spec = BatchSpec.sweep(
        arrival_rates=ARRIVAL_RATES,
        schedulers=SCHEDULERS,
        traces_per_point=TRACES_PER_POINT,
        num_requests=NUM_REQUESTS,
        name="rate-x-scheduler",
    )
    print(
        f"sweep: {len(spec)} traces "
        f"({len(SCHEDULERS)} schedulers × {len(ARRIVAL_RATES)} rates × "
        f"{TRACES_PER_POINT} seeds, {NUM_REQUESTS} requests each)"
    )
    first = spec.experiments[0]
    print(f"first experiment: {first.name}, workload {first.workload.to_dict()}")

    service = SimulationService(workers=4)
    results = service.run_batch(spec)
    assert not results.failures, [f.error for f in results.failures]

    # Group per (scheduler, arrival rate) sweep point.  Job names encode the
    # sweep coordinates; the trace seed pairing makes columns comparable.
    print(f"\n{'scheduler':10s} {'rate':>6s} {'acceptance':>11s} {'energy/trace':>13s} "
          f"{'activations':>12s}")
    for scheduler in SCHEDULERS:
        for rate in ARRIVAL_RATES:
            prefix = f"{scheduler}-rate{rate:g}-"
            point = [r for r in results if r.job_name.startswith(prefix)]
            requests = sum(r.requests for r in point)
            accepted = sum(r.accepted for r in point)
            energy = sum(r.total_energy for r in point) / len(point)
            activations = sum(r.activations for r in point)
            print(
                f"{scheduler:10s} {rate:6.2f} {accepted / requests:10.1%} "
                f"{energy:12.2f}J {activations:12d}"
            )

    totals = results.aggregate()
    cache = service.cache.info()
    print(
        f"\n{totals['traces']} traces, {totals['requests']} requests, "
        f"acceptance {totals['acceptance_rate']:.1%}, "
        f"{totals['activations']} activations; activation cache "
        f"{cache['hits']} hits, {cache['misses']} misses"
    )
    print(f"batch fingerprint: {results.fingerprint()[:16]}… "
          "(identical for any worker count)")


if __name__ == "__main__":
    main()
