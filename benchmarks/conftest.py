"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(see EXPERIMENTS.md) and prints the corresponding rows/series.  The scale of
the underlying workload is controlled by environment variables so the same
harness serves both quick CI runs and full-scale reproductions:

* ``REPRO_BENCH_FRACTION`` — fraction of the Table III census to generate
  (default ``0.05``; ``1.0`` reproduces the full 1676-case workload).
* ``REPRO_BENCH_MAX_POINTS`` — cap on operating points per application used
  for the scheduler comparison (default ``8``); the exhaustive EX-MEM
  reference is exponential in this number.
* ``REPRO_BENCH_SEED`` — workload generator seed (default ``2020``).
* ``REPRO_BENCH_WORKERS`` — worker count for the service-throughput
  benchmark (default ``2``); the ``--workers`` command-line flag overrides
  it for quick smoke runs.
"""

from __future__ import annotations

import os

import pytest


def pytest_addoption(parser):
    """Smoke flag: override the service worker count from the command line."""
    parser.addoption(
        "--workers",
        action="store",
        type=int,
        default=None,
        help="worker count for bench_service_throughput "
        "(default: REPRO_BENCH_WORKERS or 2)",
    )

from repro.analysis import evaluate_suite
from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.schedulers import ExMemScheduler, MMKPLRScheduler, MMKPMDFScheduler
from repro.workload import EvaluationSuite
from repro.workload.suite import scaled_census, table_iii_census

BENCH_FRACTION = float(os.environ.get("REPRO_BENCH_FRACTION", "0.05"))
BENCH_MAX_POINTS = int(os.environ.get("REPRO_BENCH_MAX_POINTS", "8"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2020"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))


@pytest.fixture(scope="session")
def bench_workers(request) -> int:
    """Worker count for the service benchmarks (--workers beats the env var)."""
    value = request.config.getoption("--workers")
    return BENCH_WORKERS if value is None else value


@pytest.fixture(scope="session")
def platform():
    """The Odroid XU4 platform model used throughout the evaluation."""
    return odroid_xu4()


@pytest.fixture(scope="session")
def full_tables(platform):
    """Full DSE-generated operating-point tables (all apps and input sizes)."""
    return paper_operating_points(platform)


@pytest.fixture(scope="session")
def bench_tables(full_tables):
    """Tables capped for the scheduler comparison (EX-MEM tractability)."""
    return reduced_tables(full_tables, max_points=BENCH_MAX_POINTS)


@pytest.fixture(scope="session")
def bench_suite(bench_tables):
    """The evaluation workload at the configured census fraction."""
    census = (
        table_iii_census() if BENCH_FRACTION >= 1.0 else scaled_census(BENCH_FRACTION)
    )
    return EvaluationSuite.generate(bench_tables, census, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_schedulers():
    """The three schedulers of the paper's evaluation."""
    return [ExMemScheduler(), MMKPLRScheduler(), MMKPMDFScheduler()]


@pytest.fixture(scope="session")
def suite_results(bench_suite, platform, bench_tables, bench_schedulers):
    """Every scheduler run on every test case — shared by Fig.2/3/4 and Table IV."""
    # One untimed activation per scheduler class, on a throwaway instance and
    # a problem of its own, pays the process's one-off costs (lazy imports
    # such as MMKP-MDF's pack memo module) before the first timed search.
    # The timed schedulers' own memos stay cold.
    warm_up = bench_suite.cases[0].problem(platform, bench_tables)
    for scheduler in bench_schedulers:
        type(scheduler)().schedule(warm_up)
    return evaluate_suite(bench_suite, platform, bench_tables, bench_schedulers)


@pytest.fixture(scope="session")
def scale_note() -> str:
    """Human-readable reminder of the configured benchmark scale."""
    return (
        f"[workload fraction={BENCH_FRACTION}, max operating points per app="
        f"{BENCH_MAX_POINTS}, seed={BENCH_SEED}]"
    )
