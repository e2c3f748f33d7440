"""E13 — store-aware DSE sweeps: planner dedupe + cross-point batched solves.

The pre-sweep serial path treats every sweep point — one (platform,
scheduler, scenario) combination — as an independent experiment: it rebuilds
the platform's operating-point tables with a fresh
:class:`~repro.dse.explorer.DesignSpaceExplorer` and schedules the
scenario's problems one at a time with a fresh scheduler.  That is the
honest baseline; nothing in the seed code shares work across points.

:func:`~repro.dse.sweep.run_sweep` plans the same points, collapses the
``points × variants`` exploration demand to the unique (platform, variant,
scale) tasks, and drives every MMKP-LR point through a *single*
``schedule_many`` call so same-shape relaxations from different points land
in one stacked solve.  The acceptance bar is **≥ 1.3x** sweep wall clock
over the serial path, with the frontier fingerprint bit-identical to the
baseline tables and a non-zero ``cross_group_deduped`` counter — the
speedup must come from provable shared work, not from approximation.

``run_all.py`` imports :func:`measure_dse_sweep` directly so the gated CI
metric and this pytest bench can never drift apart.  Scale knobs (smoke
mode pins them down): ``REPRO_BENCH_SWEEP_SIZES``,
``REPRO_BENCH_SWEEP_SCENARIOS``, ``REPRO_BENCH_SWEEP_FRACTION``.
"""

import os
import time

from repro.api.registry import schedulers as scheduler_registry
from repro.dse import paper_operating_points
from repro.dse import sweep as sweep_module
from repro.dse.sweep import SweepScenario, SweepSpec, frontier_fingerprint, run_sweep
from repro.knapsack import MMKPProblem, solve_lagrangian_many
from repro.platforms import odroid_xu4
from repro.workload import EvaluationSuite

#: The sweep engine must beat the per-point serial path by at least this.
MIN_SWEEP_SPEEDUP = 1.3


def _scale() -> dict:
    return {
        "input_sizes": tuple(
            os.environ.get("REPRO_BENCH_SWEEP_SIZES", "small").split(",")
        ),
        "scenarios": int(os.environ.get("REPRO_BENCH_SWEEP_SCENARIOS", "3")),
        "fraction": float(os.environ.get("REPRO_BENCH_SWEEP_FRACTION", "0.01")),
    }


def _spec() -> SweepSpec:
    scale = _scale()
    return SweepSpec(
        platforms=("odroid-xu4",),
        input_sizes=scale["input_sizes"],
        schedulers=("mmkp-lr",),
        scenarios=tuple(
            SweepScenario(f"s{index}", fraction=scale["fraction"], seed=2020 + index)
            for index in range(scale["scenarios"])
        ),
    )


def _baseline_point(platform, spec: SweepSpec, scheduler_name, scenario) -> dict:
    """One sweep point the way the pre-sweep serial code runs it.

    Fresh explorer (inside :func:`paper_operating_points`), fresh scheduler,
    one :meth:`schedule` call per problem — no sharing with other points.
    Returns the point's tables plus the same summary fields the sweep's
    policy phase records, so the A/B equality check is field-for-field.
    """
    tables = paper_operating_points(platform, input_sizes=spec.input_sizes)
    suite = EvaluationSuite.generate(tables, scenario.census(), seed=scenario.seed)
    scheduler = scheduler_registry.build(scheduler_name)
    results = [
        scheduler.schedule(problem)
        for _, problem in suite.problems(platform, tables)
    ]
    feasible = [r for r in results if r.feasible]
    return {
        "tables": tables,
        "summary": {
            "point": f"{platform.name}|{scheduler_name}|{scenario.name}",
            "platform": platform.name,
            "scheduler": scheduler_name,
            "scenario": scenario.name,
            "cases": len(results),
            "feasible": len(feasible),
            "energy": sum(r.energy for r in feasible),
            "subgradient_iterations": sum(
                int(r.statistics.get("subgradient_iterations", 0)) for r in results
            ),
        },
    }


def _warm_dense_backend() -> None:
    """Make the process's first stacked solve before the timers start.

    The dense backend imports numpy on its first solve (about 0.1 s), which
    would otherwise land in ``sweep_s``, since the sweep's MMKP-LR policy
    phase is the only stacked solve either side makes.
    """
    problem = MMKPProblem.from_columns([1.0], [[-1.0]], [((1.0,),)])
    solve_lagrangian_many([problem, problem])


def measure_dse_sweep() -> dict:
    """Serial per-point wall time vs one :func:`run_sweep` of the same points."""
    spec = _spec()
    platform = odroid_xu4()
    _warm_dense_backend()

    started = time.perf_counter()
    baseline_points = [
        _baseline_point(platform, spec, scheduler_name, scenario)
        for scheduler_name in spec.schedulers
        for scenario in spec.scenarios
    ]
    baseline_s = time.perf_counter() - started
    baseline_fingerprint = frontier_fingerprint(
        {platform.name: baseline_points[0]["tables"]}
    )

    # A cold engine run: drop the module-level explorer memo so the sweep
    # pays its own exploration, not one a previous caller warmed.
    sweep_module._EXPLORERS.clear()
    started = time.perf_counter()
    result = run_sweep(spec, platforms=(platform,), executor="serial")
    sweep_s = time.perf_counter() - started

    # The speedup only counts if the answers are the same answers.
    assert result.frontier_fingerprint == baseline_fingerprint, (
        "sweep frontier diverged from the per-point serial tables"
    )
    expected = {entry["summary"]["point"]: entry["summary"] for entry in baseline_points}
    assert {p["point"]: p for p in result.points} == expected, (
        "sweep point summaries diverged from the per-point serial schedules"
    )
    solver = result.stats.get("solver", {})
    assert solver.get("cross_group_deduped", 0) > 0, (
        "sweep never shared a relaxation across sweep points"
    )
    assert result.stats["explorations_deduped"] > 0, (
        "sweep planner never deduplicated an exploration"
    )

    return {
        "scale": _scale(),
        "points": len(result.points),
        "explorations_demanded": result.stats["explorations_demanded"],
        "explorations_unique": result.stats["explorations_unique"],
        "explorations_deduped": result.stats["explorations_deduped"],
        "cross_point_deduped_solves": solver.get("cross_group_deduped", 0),
        "solver_requested": solver.get("requested", 0),
        "solver_solved": solver.get("solved", 0),
        "baseline_s": round(baseline_s, 4),
        "sweep_s": round(sweep_s, 4),
        "speedup": round(baseline_s / sweep_s, 2),
        "fingerprint": result.frontier_fingerprint,
    }


def test_dse_sweep_speedup():
    metrics = measure_dse_sweep()
    scale = metrics["scale"]
    print(
        f"\nE13 — DSE sweep ({metrics['points']} points, "
        f"sizes={','.join(scale['input_sizes'])}, fraction={scale['fraction']})"
    )
    print(f"{'configuration':28s} {'wall time':>12s}")
    print(f"{'serial per-point path':28s} {metrics['baseline_s']:11.3f}s")
    print(f"{'run_sweep (serial executor)':28s} {metrics['sweep_s']:11.3f}s")
    print(
        f"speedup: {metrics['speedup']:.1f}x "
        f"({metrics['explorations_deduped']} explorations deduped, "
        f"{metrics['cross_point_deduped_solves']} cross-point solve shares)"
    )
    assert metrics["speedup"] > MIN_SWEEP_SPEEDUP, (
        f"sweep only {metrics['speedup']:.1f}x over the serial path, "
        f"below the {MIN_SWEEP_SPEEDUP:.1f}x floor"
    )
