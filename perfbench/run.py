"""End-to-end benchmark of the repro runtime resource manager.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online-mdf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates untraced and traced passes of the same inputs and
reports the per-layer metrics; it also prints a self-time table and writes
every span to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for the workloads
and the metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Switches that force a reference path or drop the store.  Numbers taken
#: with any of them set are not the defaults, so the benchmark refuses.
ESCAPE_HATCHES = (
    "REPRO_OPTABLE",
    "REPRO_OPTABLE_NUMPY",
    "REPRO_KERNEL",
    "REPRO_SOLVER_NUMPY",
    "REPRO_STORE",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "arrivals_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "runs_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_p99_ms": "ms",
    "warm_runs_per_s": "1/s",
    "energy_j": "J",
    "acceptance_rate": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "overhead")):
        return "ratio"
    return "count"


def environment(workers: int, clients: int) -> dict:
    from repro.gateway.server import GatewayConfig

    try:
        import numpy  # noqa: F401

        have_numpy = True
    except ImportError:
        have_numpy = False
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": have_numpy,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "gateway_config": dataclasses.asdict(GatewayConfig(port=0)),
        "cluster_workers": workers,
        "served_clients": clients,
    }


def measured(workload, name: str, seconds: float, checks) -> dict:
    from perfbench.workloads import SENSITIVITY, Tally, end_to_end, sample_counts

    tally = Tally()
    if name == "served":
        # Three gateway lifetimes, so setup_s is a median of three; their
        # set-ups and in-process runs take about the rest of the time.
        for _ in range(3):
            workload.run_pass(tally, checks, seconds=seconds / 5)
    else:
        # One pass of a fixed input set, sized to take about 20 s on a
        # 2-vCPU host (BENCHMARK.json's run_seconds).
        workload.run_pass(tally, checks)
    print("samples:", json.dumps(sample_counts(tally)))
    print("host speed:", json.dumps(tally.speed.summary(SENSITIVITY[name])))
    print("unscaled:", json.dumps(end_to_end(tally, 1.0)))
    return end_to_end(tally, tally.speed.factor(SENSITIVITY[name]))


def traced(workload, name: str, seconds: float, checks, spans_path: Path) -> dict:
    from perfbench import tracing
    from perfbench.workloads import SENSITIVITY, Tally

    def one_pass(tally, recorder=None):
        if name == "served":
            workload.run_pass(tally, checks, recorder, segments=workload.size.segments)
        elif name == "batch-sweep":
            workload.run_pass(tally, checks, recorder)
        else:
            workload.run_pass(tally, checks, recorder, warm=False)

    recorder = tracing.Recorder()
    plain, timed = Tally(), Tally()
    counter_dir = getattr(workload, "counter_dir", None)
    started = time.perf_counter()
    # An unmeasured pass first, so the first untraced pass is not the only
    # one that pays for the process's cold start.
    one_pass(Tally())
    while True:
        one_pass(plain)
        tracing.install(recorder, counter_dir)
        try:
            one_pass(timed, recorder)
        finally:
            recorder.uninstall()
        if time.perf_counter() - started >= seconds:
            break

    spans = recorder.spans
    metrics = tracing.layer_metrics(spans, timed)
    # Both sides in reference seconds, so a change of host speed between the
    # untraced and the traced passes does not read as tracing overhead.
    sensitivity = SENSITIVITY[name]
    metrics["trace.overhead"] = (timed.speed.host_s * timed.speed.factor(sensitivity)) / (
        plain.speed.host_s * plain.speed.factor(sensitivity)
    ) - 1.0
    # Served runs are windows of their own: a run's spans live on the client,
    # loop and worker threads, tied together by the gateway trace id.  The
    # other workloads count every timed unit, without the speed probes.
    if name == "served":
        windows = timed.windows
    else:
        windows = [(unit.start, unit.end, None) for unit in timed.speed.units]
    metrics["trace.unattributed_share"] = tracing.unattributed_share(spans, windows)
    print(f"self time per boundary, {name}, {timed.passes} traced pass(es):")
    print(tracing.self_time_table(spans, timed.speed.host_s))
    print(
        f"trace.unattributed_share {metrics['trace.unattributed_share']:.4f}  "
        f"trace.overhead {metrics['trace.overhead']:.4f}"
    )
    recorder.write_jsonl(spans_path)
    print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    hatches = [name for name in ESCAPE_HATCHES if name in os.environ]
    if hatches:
        print(f"perfbench: refusing to run with {', '.join(hatches)} set", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    if args.workload in workloads.PINNED:
        os.sched_setaffinity(0, {min(cpus)})
    print("environment:", json.dumps(environment(workloads.WORKERS, workloads.CLIENTS)))

    out = ROOT / ".perfbench"
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = workloads.Checks()
    try:
        workload = workloads.build(args.workload, args.seed, args.size, workdir)
        if args.trace:
            spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = traced(workload, args.workload, args.seconds, checks, spans_path)
            units = {name: layer_unit(name) for name in values}
        else:
            values = measured(workload, args.workload, args.seconds, checks)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    for message in checks.messages:
        print("check failed:", message)
    print("fingerprints:", json.dumps(checks.reference, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in sorted(values)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
