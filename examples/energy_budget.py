"""Sweep frequency governors and power budgets over a Poisson workload.

The seed pinned the platform at nominal frequency and reported energy as a
single scalar.  ``repro.energy`` makes frequency a runtime dimension: this
example replays the same batch under every frequency governor
(:meth:`~repro.service.jobs.BatchSpec.with_energy_policy` rewrites the
energy section of every :class:`~repro.api.ExperimentSpec`), prints the
energy/acceptance trade-off each one lands on, shows the per-cluster
busy/idle breakdown the incremental :class:`~repro.energy.EnergyMeter`
integrated online, and finally demonstrates power-cap admission control.

Run with::

    PYTHONPATH=src python examples/energy_budget.py
"""

from repro.analysis import format_energy_breakdown
from repro.energy import GOVERNORS
from repro.service import BatchSpec, SimulationService

ARRIVAL_RATES = [0.15, 0.3]
TRACES_PER_POINT = 8
NUM_REQUESTS = 10
POWER_CAP_WATTS = 1.85


def base_spec() -> BatchSpec:
    return BatchSpec.sweep(
        arrival_rates=ARRIVAL_RATES,
        schedulers=["mmkp-mdf"],
        traces_per_point=TRACES_PER_POINT,
        num_requests=NUM_REQUESTS,
        name="governor-study",
    )


def main() -> None:
    print(f"{len(base_spec())} traces per governor, platform: motivational 2L2B\n")

    print(f"{'governor':16s} {'energy [J]':>12s} {'acceptance':>11s} {'misses':>7s}")
    breakdowns = {}
    for governor in sorted(GOVERNORS):
        spec = base_spec().with_energy_policy(governor=governor)
        results = SimulationService(workers=2).run_batch(spec)
        assert not results.failures, [f.error for f in results.failures]
        aggregate = results.aggregate()
        misses = sum(
            1
            for result in results.ok
            for outcome in result.outcomes
            if outcome.accepted and not outcome.met_deadline
        )
        breakdowns[governor] = results.cluster_energy()
        print(
            f"{governor:16s} {aggregate['total_energy']:12.2f} "
            f"{aggregate['acceptance_rate'] * 100:10.1f}% {misses:7d}"
        )

    print()
    print(format_energy_breakdown(
        breakdowns["schedule-aware"],
        title="per-cluster breakdown (schedule-aware governor)",
    ))

    # Power-cap admission control: the same workload under a cap that forbids
    # the highest-power configurations.
    capped = SimulationService(workers=2).run_batch(
        base_spec().with_energy_policy(power_cap_watts=POWER_CAP_WATTS)
    )
    aggregate = capped.aggregate()
    print(
        f"\nwith a {POWER_CAP_WATTS} W power cap: "
        f"{aggregate['budget_rejections']} of {aggregate['requests']} requests "
        f"rejected by admission control, energy "
        f"{aggregate['total_energy']:.2f} J, acceptance "
        f"{aggregate['acceptance_rate'] * 100:.1f} %"
    )


if __name__ == "__main__":
    main()
