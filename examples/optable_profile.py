#!/usr/bin/env python
"""Profile the columnar operating-point kernel across a batch sweep.

Demonstrates two pillars of ``repro.optable``:

1. **Interning** — every application table of a sweep canonicalises to one
   shared :class:`~repro.optable.OpTable` per distinct *content* (fingerprint
   hits count tables that were reused instead of rebuilt);
2. **Shared aggregates** — sort orders / minima / the Pareto index are
   computed once per interned table, not once per job per activation.

The throughput of the columnar schedulers against the seed
``list[OperatingPoint]`` paths is recorded by ``benchmarks/run_all.py``
(``scheduling_rate`` in ``BENCH_RESULTS.json``).

Run with::

    PYTHONPATH=src python examples/optable_profile.py
"""

from repro.dse import paper_operating_points, reduced_tables
from repro.optable import as_optable, clear_intern_pool, intern_info
from repro.platforms import odroid_xu4
from repro.workload import EvaluationSuite
from repro.workload.suite import scaled_census


def main() -> None:
    platform = odroid_xu4()

    # ------------------------------------------------------------------ #
    # 1. Interning across a batch sweep
    # ------------------------------------------------------------------ #
    clear_intern_pool()
    tables = reduced_tables(paper_operating_points(platform), max_points=8)
    suite = EvaluationSuite.generate(tables, scaled_census(0.05), seed=2020)
    problems = [case.problem(platform, tables) for case in suite.cases]

    # Touch every job's table the way the schedulers do: identical tables
    # (same application across many jobs and cases) intern to one instance.
    table_ids = set()
    job_tables = 0
    for problem in problems:
        for job in problem.jobs:
            table_ids.add(id(problem.optable_for(job)))
            job_tables += 1
    print("== interning across the batch sweep ==")
    print(f"  job-table references resolved : {job_tables}")
    print(f"  distinct interned OpTables    : {len(table_ids)}")
    print(f"  intern pool after sweep 1     : {intern_info()}")

    # A second sweep (say, the next batch of a service) regenerates the same
    # DSE tables as *new* ConfigTable objects — identical content, so every
    # table resolves to the already interned instance (pure fingerprint hits).
    second_sweep = reduced_tables(paper_operating_points(platform), max_points=8)
    assert all(
        second_sweep[name].optable is tables[name].optable for name in second_sweep
    )
    print(f"  intern pool after sweep 2     : {intern_info()}")

    # ------------------------------------------------------------------ #
    # 2. Shared aggregates
    # ------------------------------------------------------------------ #
    sample = as_optable(next(iter(tables.values())))
    print("== precomputed aggregates of one interned table ==")
    print(f"  points            : {len(sample)}")
    print(f"  fingerprint       : {sample.fingerprint}")
    print(f"  min time / energy : {sample.min_time:.4f}s / {sample.min_energy:.4f}J")
    print(f"  per-cluster demand: max {sample.max_demand}")
    print(f"  energy order      : {sample.order_by_energy}")
    print(f"  Pareto index      : {sample.pareto_index}")


if __name__ == "__main__":
    main()
