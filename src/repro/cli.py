"""Command-line interface of the runtime-manager reproduction.

The CLI mirrors the typical usage of the library:

* ``repro-rm run`` — run one experiment described by an
  :class:`~repro.api.spec.ExperimentSpec` JSON file through the
  :class:`~repro.api.session.Session` facade (optionally streaming the run
  events, or fanning out into seeded trials).
* ``repro-rm dse`` — run the design-space exploration and export the
  operating-point tables as JSON.
* ``repro-rm workload`` — generate the evaluation test suite (Table III
  census) and export it as JSON.
* ``repro-rm schedule`` — run one scheduler on one exported test case and
  print the resulting mapping segments.
* ``repro-rm evaluate`` — run the full comparison (Fig. 2, Table IV, Fig. 3,
  Fig. 4) on a down-scaled census and print the text reports.
* ``repro-rm motivational`` — reproduce the motivational example (Fig. 1).
* ``repro-rm batch`` — run a batch of online runtime-manager simulations
  described by a :class:`~repro.service.jobs.BatchSpec` JSON file through the
  concurrent :class:`~repro.service.pool.SimulationService` (worker fan-out,
  activation caching) and print its aggregate and cache counts; see
  :mod:`repro.service`.
* ``repro-rm profile`` — run one experiment under several schedulers with
  span tracing enabled (see :mod:`repro.obs`) and print the per-scheduler
  phase-time breakdown; ``run``/``batch`` accept ``--trace out.json`` to
  export a Chrome-trace view of any run.
* ``repro-rm energy`` — replay a batch (or the motivational trace) under a
  frequency governor and report the per-cluster energy breakdown; see
  :mod:`repro.energy`.
* ``repro-rm serve`` — run the scheduler-as-a-service gateway daemon:
  REST submission of experiment specs, SSE streaming of run events,
  one concurrency bound with a FIFO queue, and graceful drain; see
  :mod:`repro.gateway`.
* ``repro-rm submit`` — submit an :class:`~repro.api.spec.ExperimentSpec`
  JSON file to a running gateway and wait for (or stream) the result.

All name-based choices (``--scheduler``, ``--governor``, platform names in
spec files) resolve through the plugin registries of
:mod:`repro.api.registry`, so registered third-party plugins are accepted
everywhere without CLI edits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import Sequence

from repro.analysis import (
    evaluate_suite,
    format_energy_breakdown,
    format_fig2_scheduling_rate,
    format_fig3_scurve,
    format_fig4_search_time,
    format_table_iii,
    format_table_iv,
)
from repro.api.registry import governors as GOVERNORS
from repro.api.registry import schedulers as SCHEDULERS
from repro.api.spec import (
    DSESpec,
    EnergySpec,
    ExperimentSpec,
    SchedulerSpec,
    WorkloadSpec,
)
from repro.cluster import EXECUTORS
from repro.io import (
    load_json,
    save_json,
    tables_from_dict,
    tables_to_dict,
    test_case_from_dict,
    test_case_to_dict,
)
from repro.platforms import odroid_xu4
from repro.workload import EvaluationSuite
from repro.workload.suite import scaled_census, table_iii_census


_EXECUTOR_HELP = (
    "shard coordinator mode (auto: serial for one worker, threads otherwise; "
    "process and cluster: worker processes)"
)


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    """The shared SimulationService flags (one definition for every command)."""
    parser.add_argument(
        "--workers", type=int, default=1, help="worker count for the fan-out"
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="auto",
        help=_EXECUTOR_HELP,
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="activation cache capacity (0 turns the cache off)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="persistent content-addressed cache store (SQLite file); warm "
        "reruns read their activations back across invocations",
    )


def _make_service(args: argparse.Namespace):
    """Build the SimulationService described by the shared flags."""
    from repro.service import SimulationService

    return SimulationService(
        workers=args.workers,
        executor=getattr(args, "executor", "auto"),
        cache_size=getattr(args, "cache_size", 4096),
        store=getattr(args, "store", None),
    )


def _load_batch(path: str):
    """Load a BatchSpec file, returning ``None`` after printing the error."""
    from repro.exceptions import ReproError
    from repro.service import BatchSpec

    try:
        return BatchSpec.load(path)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _broken_pipe_exit() -> int:
    """Exit cleanly after stdout went away mid-stream (e.g. piped to head).

    Redirects stdout to /dev/null so the interpreter's shutdown flush does
    not traceback on the closed pipe; a consumer closing its end is a
    normal way to end a stream, not an error.
    """
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except OSError:
        pass
    return 0


def _make_tracer(args: argparse.Namespace, name: str):
    """A :class:`~repro.obs.Tracer` when ``--trace`` was given, else ``None``."""
    if not getattr(args, "trace", None):
        return None
    from repro.obs import Tracer

    return Tracer(name=name)


def _write_trace(args: argparse.Namespace, tracer) -> None:
    """Export a finished tracer to the ``--trace`` path (Chrome trace JSON)."""
    if tracer is None:
        return
    from repro.obs import write_chrome_trace

    write_chrome_trace(args.trace, tracer)
    print(
        f"wrote {len(tracer)} spans to {args.trace} "
        "(load in Perfetto or chrome://tracing)"
    )


def _print_aggregate(name: str, aggregate: dict) -> None:
    print(
        f"batch {name}: {aggregate['traces']} traces "
        f"({aggregate['failed']} failed), "
        f"{aggregate['requests']} requests, "
        f"acceptance {aggregate['acceptance_rate'] * 100:.1f} %, "
        f"energy {aggregate['total_energy']:.2f} J, "
        f"{aggregate['activations']} activations"
    )


def _cache_line(service) -> str:
    """``repro-rm batch``'s activation-cache line: the memo's hits and misses."""
    from repro.cluster.coordinator import executor_mode

    if service.cache is None:
        return "activation cache: off (--cache-size 0)"
    if executor_mode(service.executor, service.workers) == "process":
        return (
            "activation cache: hits and misses stay in the worker processes "
            f"(--executor {service.executor})"
        )
    info = service.cache.info()
    return (
        f"activation cache: {info['hits']} hits, {info['misses']} misses "
        f"({info['hit_rate'] * 100:.1f} % hit rate)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rm",
        description="Energy-efficient runtime resource management (DATE 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        help="run one experiment from an ExperimentSpec JSON file",
        description=(
            "Load a typed ExperimentSpec (see repro.api.spec), open a Session "
            "over it and run it: a single observed simulation by default, or "
            "a seeded multi-trial batch with --trials."
        ),
    )
    run.add_argument("spec", help="ExperimentSpec JSON file (see repro.api.spec)")
    run.add_argument(
        "--trials",
        type=int,
        default=1,
        help="fan the spec out into N seeded trials (seeded workloads only)",
    )
    run.add_argument(
        "--stream",
        action="store_true",
        help="print every run event (arrivals, commits, finishes, energy ticks)",
    )
    run.add_argument("--output", default=None, help="write the run summary JSON")
    run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome-trace JSON of the run (Perfetto / chrome://tracing)",
    )
    _add_service_options(run)

    dse = subparsers.add_parser("dse", help="generate operating-point tables")
    dse.add_argument("--output", default="operating_points.json", help="output JSON file")
    dse.add_argument(
        "--sizes", nargs="*", default=None, help="input sizes to include (default: all)"
    )
    dse.add_argument(
        "--sweep-opps",
        action="store_true",
        help="also sweep the DVFS operating points (adds a frequency column)",
    )
    dse.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="cap every table at N points (the EX-MEM-sized reduction)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="distributed store-aware design-space sweep",
        description=(
            "Plan a sweep over platforms × OPP scales × schedulers × "
            "scenarios, deduplicate the shared exploration work, fan it out "
            "through the shard coordinator and merge the shards into one "
            "fingerprinted Pareto frontier (see repro.dse.sweep)."
        ),
    )
    sweep.add_argument(
        "--platforms", nargs="*", default=["odroid-xu4"],
        help="platform registry names to sweep",
    )
    sweep.add_argument(
        "--sizes", nargs="*", default=None,
        help="input sizes to include (default: all)",
    )
    sweep.add_argument(
        "--sweep-opps", action="store_true",
        help="also sweep the DVFS operating points per platform",
    )
    sweep.add_argument(
        "--schedulers", nargs="*", default=["mmkp-lr"],
        help="schedulers evaluated per sweep point",
    )
    sweep.add_argument(
        "--scenarios", type=int, default=2,
        help="number of seeded census scenarios per (platform, scheduler)",
    )
    sweep.add_argument(
        "--fraction", type=float, default=0.005,
        help="census fraction of each scenario (Table III down-scaling)",
    )
    sweep.add_argument(
        "--seed", type=int, default=2020,
        help="base seed; scenario i uses seed+i",
    )
    sweep.add_argument(
        "--max-points", type=int, default=None,
        help="cap every policy table at N points",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker count for the fan-out"
    )
    sweep.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="serial",
        help=_EXECUTOR_HELP,
    )
    sweep.add_argument(
        "--store", default=None, metavar="PATH",
        help="content store memoising exploration tasks and solves across "
        "reruns (a warm rerun starts no worker)",
    )
    sweep.add_argument(
        "--output", default=None, help="write the full SweepResult JSON"
    )

    workload = subparsers.add_parser("workload", help="generate the evaluation suite")
    workload.add_argument("--tables", default=None, help="operating-point JSON (default: run DSE)")
    workload.add_argument("--output", default="workload.json", help="output JSON file")
    workload.add_argument("--fraction", type=float, default=1.0, help="census scale factor")
    workload.add_argument("--seed", type=int, default=2020, help="generator seed")

    schedule = subparsers.add_parser("schedule", help="schedule one exported test case")
    schedule.add_argument("testcase", help="JSON file with one test case")
    schedule.add_argument("--tables", required=True, help="operating-point JSON")
    schedule.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="mmkp-mdf")

    evaluate = subparsers.add_parser("evaluate", help="run the full comparison")
    evaluate.add_argument("--fraction", type=float, default=0.05, help="census scale factor")
    evaluate.add_argument("--max-points", type=int, default=8, help="table size cap for EX-MEM")
    evaluate.add_argument("--seed", type=int, default=2020, help="workload seed")
    evaluate.add_argument(
        "--skip-exmem", action="store_true", help="skip the exhaustive reference scheduler"
    )

    subparsers.add_parser("motivational", help="reproduce the motivational example (Fig. 1)")

    batch = subparsers.add_parser(
        "batch",
        help="run a batch of online simulations from a BatchSpec JSON file",
        description=(
            "Run every simulation job of a BatchSpec file through the "
            "concurrent SimulationService: per-job seeding keeps results "
            "bit-identical for any worker count, repeated scheduler "
            "activations are served from the activation cache, and one "
            "failing trace does not abort the batch."
        ),
    )
    batch.add_argument("spec", help="BatchSpec JSON file (see repro.service.jobs)")
    _add_service_options(batch)
    batch.add_argument(
        "--shard", default=None, metavar="I/N", help="run only shard I of N"
    )
    batch.add_argument("--output", default=None, help="write result summaries JSON")
    batch.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome-trace JSON of the batch (Perfetto / chrome://tracing)",
    )

    profile = subparsers.add_parser(
        "profile",
        help="per-scheduler phase-time breakdown of a traced run",
        description=(
            "Run one experiment under several schedulers with span tracing "
            "enabled and print where the time went: per-phase durations "
            "(arrival handling, pipeline snapshot/candidates/solve/commit, "
            "solver activations, energy accounting) plus cache and packer "
            "counters.  Without a spec file, profiles the motivational "
            "scenario workload."
        ),
    )
    profile.add_argument(
        "spec", nargs="?", default=None,
        help="ExperimentSpec JSON file (default: the motivational scenario)",
    )
    profile.add_argument(
        "--scenario", choices=["S1", "S2"], default="S1",
        help="motivational scenario to profile when no spec is given",
    )
    profile.add_argument(
        "--schedulers", nargs="+", default=None, metavar="NAME",
        help="schedulers to profile (default: ex-mem mmkp-lr mmkp-mdf fixed)",
    )
    profile.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also write the merged Chrome trace of every profiled run",
    )

    energy = subparsers.add_parser(
        "energy",
        help="per-cluster energy breakdown under a frequency governor",
        description=(
            "Replay a BatchSpec (or, without --spec, the motivational "
            "scenarios) with the chosen frequency governor and optional "
            "power-cap / energy-budget admission control, then report the "
            "per-cluster busy/idle energy breakdown the incremental "
            "EnergyMeter integrated online."
        ),
    )
    energy.add_argument(
        "--spec", default=None, help="BatchSpec JSON file (default: motivational trace)"
    )
    energy.add_argument(
        "--governor",
        choices=sorted(GOVERNORS),
        default="performance",
        help="frequency governor to run under",
    )
    energy.add_argument(
        "--compare",
        action="store_true",
        help="also print total energy under every other governor",
    )
    energy.add_argument(
        "--power-cap", type=float, default=None, metavar="WATTS",
        help="reject requests whose schedule would exceed this platform power",
    )
    energy.add_argument(
        "--energy-budget", type=float, default=None, metavar="JOULES",
        help="reject requests once the run would exceed this energy budget",
    )
    _add_service_options(energy)
    energy.add_argument("--output", default=None, help="write the breakdown JSON")

    serve = subparsers.add_parser(
        "serve",
        help="run the scheduler-as-a-service gateway daemon",
        description=(
            "Start the asyncio gateway daemon (see repro.gateway): POST "
            "ExperimentSpec JSON to /runs or /batches, stream run events "
            "over SSE from /runs/{id}/events, scrape Prometheus metrics "
            "from /metrics.  SIGTERM/SIGINT drain gracefully: in-flight "
            "runs finish, new submissions get 503."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8023, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=8,
        help="runs executing at once (excess queue in order of arrival)",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=None, metavar="SECONDS",
        help="fail queued submissions that wait longer than this",
    )
    serve.add_argument(
        "--batch-workers", type=int, default=1,
        help="SimulationService workers per batch submission",
    )
    serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="persistent content-addressed cache store behind every "
        "batch submission (SQLite file)",
    )

    store = subparsers.add_parser(
        "store",
        help="inspect or maintain a persistent cache store",
        description=(
            "Maintenance surface of the repro.store content-addressed cache "
            "(the --store flag of run/batch/serve): print hit/size statistics, "
            "garbage-collect entries written by other repro versions, or wipe "
            "the store entirely."
        ),
    )
    store.add_argument("action", choices=["stats", "gc", "clear"])
    store.add_argument(
        "--store", required=True, metavar="PATH", help="store path"
    )
    store.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="gc: additionally trim every cache kind to its N newest entries",
    )
    store.add_argument(
        "--json", action="store_true", help="stats: print the raw JSON"
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit an ExperimentSpec to a running gateway",
        description=(
            "Submit an ExperimentSpec JSON file to a gateway daemon "
            "(repro-rm serve) and wait for the result — or follow the run's "
            "event stream live with --stream.  With --trials N the spec "
            "fans out into a seeded batch on the daemon."
        ),
    )
    submit.add_argument("spec", help="ExperimentSpec JSON file (see repro.api.spec)")
    submit.add_argument(
        "--url",
        default=os.environ.get("REPRO_GATEWAY_URL", "http://127.0.0.1:8023"),
        help="gateway base URL (default: $REPRO_GATEWAY_URL or localhost:8023)",
    )
    submit.add_argument("--tenant", default=None, help="namespace for named sessions")
    submit.add_argument(
        "--session", default=None,
        help="named gateway session to reuse (warm kernel caches)",
    )
    submit.add_argument(
        "--trials", type=int, default=1,
        help="fan the spec out into N seeded trials on the daemon",
    )
    submit.add_argument(
        "--stream", action="store_true",
        help="follow the run's event stream (single runs only)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="queue-to-finish deadline enforced by the daemon",
    )
    submit.add_argument("--output", default=None, help="write the result JSON")
    return parser


# ---------------------------------------------------------------------- #
# Sub-command implementations
# ---------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.events import RunEventKind
    from repro.api.session import Session
    from repro.exceptions import ReproError

    try:
        spec = ExperimentSpec.load(args.spec)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = Session.from_spec(spec)
    tracer = _make_tracer(args, spec.name)
    scope = tracer if tracer is not None else contextlib.nullcontext()

    if args.trials > 1:
        if args.stream:
            print("error: --stream applies to single runs, not --trials batches",
                  file=sys.stderr)
            return 2
        try:
            with scope:
                results = session.run_batch(
                    trials=args.trials, service=_make_service(args)
                )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        _print_aggregate(spec.name, results.aggregate())
        for failure in results.failures:
            print(f"  FAILED {failure.job_name}: {failure.error}")
        _write_trace(args, tracer)
        if args.output:
            save_json(results.to_dict(), args.output)
            print(f"wrote {len(results)} trial summaries to {args.output}")
        return 1 if results.failures else 0

    try:
        with scope:
            if args.stream:
                log = None
                try:
                    # The stream is a context manager: leaving the block — for
                    # any reason — cancels and joins the worker thread, so a
                    # consumer like ``| head`` never leaves a simulation running.
                    with session.stream() as events:
                        for event in events:
                            if event.kind is RunEventKind.END:
                                log = event.data["log"]
                            else:
                                print(event, flush=True)
                except BrokenPipeError:
                    return _broken_pipe_exit()
                except KeyboardInterrupt:
                    print("interrupted", file=sys.stderr)
                    return 130
            else:
                log = session.run()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _write_trace(args, tracer)

    misses = len(log.deadline_misses)
    print(
        f"experiment {spec.name} ({spec.scheduler.name} on "
        f"{spec.platform.name or 'inline platform'}): "
        f"{len(log.outcomes)} requests, "
        f"acceptance {log.acceptance_rate * 100:.1f} %, "
        f"energy {log.total_energy:.2f} J, makespan {log.makespan:.2f} s, "
        f"{misses} deadline misses, {log.budget_rejections} budget rejections"
    )
    if args.output:
        save_json(
            {
                "name": spec.name,
                "scheduler": spec.scheduler.name,
                "requests": len(log.outcomes),
                "accepted": len(log.accepted),
                "rejected": len(log.rejected),
                "acceptance_rate": log.acceptance_rate,
                "total_energy": log.total_energy,
                "makespan": log.makespan,
                "activations": log.activations,
                "deadline_misses": misses,
                "budget_rejections": log.budget_rejections,
                "cluster_energy": log.cluster_energy,
            },
            args.output,
        )
        print(f"wrote run summary to {args.output}")
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    spec = DSESpec(
        input_sizes=tuple(args.sizes) if args.sizes else None,
        sweep_opps=args.sweep_opps,
        max_points=args.max_points,
    )
    tables = spec.build_tables()
    save_json(tables_to_dict(tables), args.output)
    print(f"wrote {len(tables)} operating-point tables to {args.output}")
    for name, table in sorted(tables.items()):
        scales = {point.frequency_scale for point in table}
        note = f", {len(scales)} frequency scales" if len(scales) > 1 else ""
        print(f"  {name}: {len(table)} Pareto points{note}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.dse.sweep import SweepScenario, SweepSpec, run_sweep

    spec = SweepSpec(
        platforms=tuple(args.platforms),
        input_sizes=tuple(args.sizes) if args.sizes else None,
        sweep_opps=args.sweep_opps,
        schedulers=tuple(args.schedulers),
        scenarios=tuple(
            SweepScenario(f"s{index}", fraction=args.fraction, seed=args.seed + index)
            for index in range(args.scenarios)
        ),
        max_points=args.max_points,
    )
    result = run_sweep(
        spec,
        executor=args.executor,
        workers=args.workers,
        store=args.store,
    )
    stats = result.stats
    print(
        f"sweep: {stats['platforms']} platform(s), {stats['variants']} variant(s), "
        f"{stats['points']} point(s) via {stats['executor']}"
        f" ({stats['workers']} worker(s))"
    )
    print(
        f"  explorations: {stats['explorations_unique']} unique of "
        f"{stats['explorations_demanded']} demanded "
        f"({stats['explorations_deduped']} deduped), "
        f"store hits {stats['store_hits']}/{stats['store_hits'] + stats['store_misses']}"
    )
    solver = stats.get("solver")
    if solver:
        print(
            f"  solver: {solver['solved']} solved of {solver['requested']} requested "
            f"in {solver['rounds']} round(s), {solver['deduped']} deduped "
            f"({solver['cross_group_deduped']} cross-point)"
        )
    print(f"  frontier fingerprint: {result.frontier_fingerprint}")
    for point in result.points:
        print(
            f"  {point['point']}: {point['feasible']}/{point['cases']} feasible, "
            f"energy {point['energy']:.3f} J"
        )
    if args.output:
        save_json(result.to_dict(), args.output)
        print(f"wrote sweep result to {args.output}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    if args.tables:
        tables = tables_from_dict(load_json(args.tables))
    else:
        tables = DSESpec().build_tables()
    census = table_iii_census() if args.fraction >= 1.0 else scaled_census(args.fraction)
    suite = EvaluationSuite.generate(tables, census, seed=args.seed)
    save_json(
        {"cases": [test_case_to_dict(case) for case in suite]},
        args.output,
    )
    print(format_table_iii(suite))
    print(f"wrote {len(suite)} test cases to {args.output}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    tables = tables_from_dict(load_json(args.tables))
    case = test_case_from_dict(load_json(args.testcase))
    problem = case.problem(odroid_xu4(), tables)
    scheduler = SCHEDULERS.build(args.scheduler)
    result = scheduler.schedule(problem)
    if not result.feasible:
        print(f"{scheduler.name}: test case {case.name} rejected")
        return 1
    print(f"{scheduler.name}: energy {result.energy:.3f} J, "
          f"search time {result.search_time * 1000:.2f} ms")
    for segment in result.schedule:
        jobs = ", ".join(
            f"{m.job_name}:{m.config_index}" for m in segment
        )
        print(f"  [{segment.start:8.3f}, {segment.end:8.3f})  {jobs}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    platform = odroid_xu4()
    tables = DSESpec(max_points=args.max_points).build_tables()
    suite = EvaluationSuite.generate(tables, scaled_census(args.fraction), seed=args.seed)
    names = ["mmkp-lr", "mmkp-mdf"]
    if not args.skip_exmem:
        names.insert(0, "ex-mem")
    schedulers = [SCHEDULERS.build(name) for name in names]
    results = evaluate_suite(suite, platform, tables, schedulers)
    print(format_table_iii(suite))
    print()
    print(format_fig2_scheduling_rate(results, names))
    print()
    if not args.skip_exmem:
        print(format_table_iv(results, ["mmkp-lr", "mmkp-mdf"], "ex-mem"))
        print()
        print(format_fig3_scurve(results, ["mmkp-lr", "mmkp-mdf"], "ex-mem"))
        print()
    print(format_fig4_search_time(results, names))
    return 0


def _cmd_motivational(args: argparse.Namespace) -> int:
    from repro.api.session import Session

    for scenario in ("S1", "S2"):
        print(f"Scenario {scenario}")
        variants = [
            ("fixed mapper, remap at start", "fixed", False),
            ("fixed mapper, remap at start+finish", "fixed", True),
            ("adaptive mapper (MMKP-MDF)", "mmkp-mdf", False),
        ]
        for label, scheduler, remap in variants:
            spec = ExperimentSpec(
                name=f"motivational-{scenario.lower()}",
                workload=WorkloadSpec.scenario(scenario),
                scheduler=SchedulerSpec(name=scheduler, remap_on_finish=remap),
            )
            log = Session.from_spec(spec).run()
            print(
                f"  {label:38s} energy = {log.total_energy:6.2f} J, "
                f"acceptance = {log.acceptance_rate * 100:5.1f} %"
            )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.exceptions import WorkloadError

    spec = _load_batch(args.spec)
    if spec is None:
        return 2
    if args.shard:
        try:
            index, count = (int(part) for part in args.shard.split("/"))
        except ValueError:
            print(f"invalid --shard {args.shard!r}; expected I/N", file=sys.stderr)
            return 2
        try:
            spec = spec.shard(index, count)
        except WorkloadError as error:
            # Well-formed but out of range — report the real reason.
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        service = _make_service(args)
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    tracer = _make_tracer(args, spec.name)
    scope = tracer if tracer is not None else contextlib.nullcontext()
    with scope:
        results = service.run_batch(spec)
    _print_aggregate(spec.name, results.aggregate())
    for failure in results.failures:
        print(f"  FAILED {failure.job_name}: {failure.error}")
    _write_trace(args, tracer)
    print(_cache_line(service))
    if args.output:
        save_json(results.to_dict(), args.output)
        print(f"wrote {len(results)} result summaries to {args.output}")
    return 1 if results.failures else 0


#: Default scheduler line-up of ``repro-rm profile``.
_PROFILE_SCHEDULERS = ("ex-mem", "mmkp-lr", "mmkp-mdf", "fixed")


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.api.session import Session
    from repro.exceptions import ReproError
    from repro.obs import (
        Tracer,
        chrome_trace,
        merge_chrome_traces,
        phase_summary,
        render_phase_table,
    )

    names = list(args.schedulers) if args.schedulers else list(_PROFILE_SCHEDULERS)
    unknown = [name for name in names if name not in SCHEDULERS]
    if unknown:
        print(
            f"error: unknown scheduler(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(SCHEDULERS))}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.spec:
            base = ExperimentSpec.load(args.spec)
        else:
            base = ExperimentSpec(
                name=f"profile-{args.scenario.lower()}",
                workload=WorkloadSpec.scenario(args.scenario),
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    profiles: dict = {}
    documents = []
    for index, name in enumerate(names):
        spec = dataclasses.replace(
            base, scheduler=dataclasses.replace(base.scheduler, name=name)
        )
        tracer = Tracer(name=name)
        try:
            with tracer:
                log = Session.from_spec(spec).run()
        except ReproError as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 2
        profiles[name] = phase_summary(tracer.span_dicts())
        print(
            f"{name:10s} {len(log.outcomes)} requests, "
            f"acceptance {log.acceptance_rate * 100:5.1f} %, "
            f"energy {log.total_energy:7.2f} J, "
            f"{len(tracer)} spans"
        )
        if args.trace:
            # One Chrome-trace process per scheduler, so the merged view
            # shows the four runs side by side.
            documents.append(
                chrome_trace(tracer, pid=index + 1, process_name=name)
            )
    print()
    print(render_phase_table(profiles))
    if args.trace:
        save_json(merge_chrome_traces(documents), args.trace)
        print(
            f"wrote the merged trace of {len(documents)} runs to {args.trace} "
            "(load in Perfetto or chrome://tracing)"
        )
    return 0


def _motivational_energy_run(governor_name: str, power_cap, energy_budget):
    """Run both motivational scenarios under one governor; return the logs."""
    from repro.api.session import Session

    logs = []
    for scenario in ("S1", "S2"):
        spec = ExperimentSpec(
            name=f"motivational-{scenario.lower()}",
            workload=WorkloadSpec.scenario(scenario),
            energy=EnergySpec(
                governor=governor_name,
                power_cap_watts=power_cap,
                energy_budget_joules=energy_budget,
            ),
        )
        logs.append(Session.from_spec(spec).run())
    return logs


def _cmd_energy(args: argparse.Namespace) -> int:
    governors = sorted(GOVERNORS) if args.compare else [args.governor]
    report: dict = {"governor": args.governor, "totals": {}}
    failures = []

    if args.spec:
        base = _load_batch(args.spec)
        if base is None:
            return 2
        # One service for every governor replay, so --compare reuses the
        # activation cache across replays.  A key is the problem as given,
        # so a hit returns what the plain scheduler returns on it and the
        # totals equal --cache-size 0 runs.
        service = _make_service(args)
        for governor in governors:
            # Only the flags the user actually passed override the spec's
            # per-job policies; the governor is this command's subject and
            # is always applied.
            overrides = {"governor": governor}
            if args.power_cap is not None:
                overrides["power_cap_watts"] = args.power_cap
            if args.energy_budget is not None:
                overrides["energy_budget_joules"] = args.energy_budget
            spec = base.with_energy_policy(**overrides)
            results = service.run_batch(spec)
            aggregate = results.aggregate()
            report["totals"][governor] = aggregate["total_energy"]
            # Failures of *every* governor replay count: a partially failed
            # replay would make the comparison apples-to-oranges.
            failures.extend((governor, failure) for failure in results.failures)
            if governor == args.governor:
                report["clusters"] = results.cluster_energy()
                report["aggregate"] = aggregate
                print(
                    f"batch {base.name}: {aggregate['traces']} traces, "
                    f"acceptance {aggregate['acceptance_rate'] * 100:.1f} %, "
                    f"{aggregate['budget_rejections']} budget rejections"
                )
                print(
                    format_energy_breakdown(
                        report["clusters"],
                        title=f"energy breakdown ({governor} governor)",
                    )
                )
    else:
        for governor in governors:
            logs = _motivational_energy_run(governor, args.power_cap, args.energy_budget)
            report["totals"][governor] = sum(log.total_energy for log in logs)
            if governor == args.governor:
                clusters: dict = {}
                for log in logs:
                    for name, entry in log.cluster_energy.items():
                        merged = clusters.setdefault(
                            name, {"busy": 0.0, "idle": 0.0, "total": 0.0}
                        )
                        for key in merged:
                            merged[key] += entry[key]
                report["clusters"] = clusters
                misses = sum(len(log.deadline_misses) for log in logs)
                print(f"motivational scenarios S1+S2, {misses} deadline misses")
                print(
                    format_energy_breakdown(
                        clusters, title=f"energy breakdown ({governor} governor)"
                    )
                )

    if args.compare:
        failed_by_governor = {}
        for governor, failure in failures:
            failed_by_governor[governor] = failed_by_governor.get(governor, 0) + 1
        print("total energy by governor:")
        for governor in governors:
            marker = " <- selected" if governor == args.governor else ""
            failed = failed_by_governor.get(governor, 0)
            note = f" ({failed} traces FAILED)" if failed else ""
            print(f"  {governor:16s} {report['totals'][governor]:10.3f} J{note}{marker}")
    for governor, failure in failures:
        print(f"  FAILED [{governor}] {failure.job_name}: {failure.error}")
    if args.output:
        save_json(report, args.output)
        print(f"wrote energy report to {args.output}")
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway.server import GatewayConfig, serve

    config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        queue_timeout_s=args.queue_timeout,
        batch_workers=args.batch_workers,
        store_path=args.store,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        # The daemon's own SIGINT handler drains before the loop exits;
        # this catches a second Ctrl-C pressed during the drain.
        pass
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.store import ContentStore

    store = ContentStore.open(args.store)
    try:
        if args.action == "stats":
            stats = store.stats()
            if args.json:
                print(json.dumps(stats, indent=2, sort_keys=True))
                return 0
            print(f"store {stats['path'] or '(in memory)'} "
                  f"(version {stats['version']})")
            namespaces = stats["namespaces"]
            if not namespaces:
                print("  empty")
            for namespace, entry in sorted(namespaces.items()):
                print(f"  {namespace}: {entry['entries']} entries, "
                      f"{entry['bytes']} bytes")
            for kind, counters in sorted(stats["kinds"].items()):
                print(f"  [{kind}] hits {counters['hits']}, "
                      f"misses {counters['misses']}, puts {counters['puts']}")
        elif args.action == "gc":
            outcome = store.gc(max_entries_per_kind=args.max_entries)
            print(f"gc: dropped {outcome['dropped']} stale entries, "
                  f"trimmed {outcome['trimmed']}")
        else:
            store.clear()
            print("store cleared")
        return 0
    finally:
        store.close()


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api.events import RunEvent, RunEventKind
    from repro.exceptions import ReproError
    from repro.gateway.client import GatewayClient, GatewayError

    try:
        spec = ExperimentSpec.load(args.spec)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.trials > 1 and args.stream:
        print("error: --stream applies to single runs, not --trials batches",
              file=sys.stderr)
        return 2

    with GatewayClient(args.url, tenant=args.tenant) as client:
        try:
            if args.trials > 1:
                record = client.submit_batch(
                    spec,
                    trials=args.trials,
                    session=args.session,
                    timeout_s=args.timeout,
                )
                status = client.wait_batch(record["id"])
                if status["state"] != "done":
                    error = status.get("error", {})
                    print(f"error: batch {record['id']} failed: "
                          f"{error.get('message', error)}", file=sys.stderr)
                    return 1
                result = status["result"]
                _print_aggregate(spec.name, result["aggregate"])
                print(f"batch fingerprint {result['fingerprint']}")
            else:
                record = client.submit_run(
                    spec, session=args.session, timeout_s=args.timeout
                )
                if args.stream:
                    try:
                        for payload in client.events(record["id"]):
                            if payload.get("kind") in (
                                RunEventKind.END.value, "error"
                            ):
                                continue  # the final status below reports both
                            print(RunEvent.from_dict(payload), flush=True)
                    except BrokenPipeError:
                        return _broken_pipe_exit()
                    except KeyboardInterrupt:
                        print("interrupted (the run keeps going on the daemon; "
                              f"check it with GET /runs/{record['id']})",
                              file=sys.stderr)
                        return 130
                status = client.wait_run(record["id"])
                if status["state"] != "done":
                    error = status.get("error", {})
                    print(f"error: run {record['id']} failed: "
                          f"{error.get('message', error)}", file=sys.stderr)
                    return 1
                result = status["result"]
                print(
                    f"run {record['id']} ({spec.name}): "
                    f"{result['requests']} requests, "
                    f"acceptance {result['acceptance_rate'] * 100:.1f} %, "
                    f"energy {result['total_energy']:.2f} J, "
                    f"fingerprint {result['fingerprint']}"
                )
            if args.output:
                save_json(status, args.output)
                print(f"wrote gateway result to {args.output}")
            return 0
        except GatewayError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except (ConnectionError, OSError) as error:
            print(f"error: cannot reach gateway at {args.url}: {error}",
                  file=sys.stderr)
            return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (also installed as the ``repro-rm`` script)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "dse": _cmd_dse,
        "sweep": _cmd_sweep,
        "workload": _cmd_workload,
        "schedule": _cmd_schedule,
        "evaluate": _cmd_evaluate,
        "motivational": _cmd_motivational,
        "batch": _cmd_batch,
        "profile": _cmd_profile,
        "energy": _cmd_energy,
        "serve": _cmd_serve,
        "store": _cmd_store,
        "submit": _cmd_submit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
