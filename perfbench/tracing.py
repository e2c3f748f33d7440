"""Timing wrappers for the benchmark's traced run.

The traced run (``--trace 1``) wraps the functions :func:`install` names
and records one span per call: name, start, end, parent span and a request
id (an arrival name, a gateway run's trace id or a batch name).  Spans stay in memory and are written out once, when the run ends.
Nothing under ``src/`` changes and no ``repro.obs`` tracer is entered: the
wrappers are installed only for the traced passes and removed afterwards,
so the measured (untraced) passes run the program exactly as users do.

A span's *self* time is its duration minus the durations of its child
spans, where a child is a span opened on the same thread while the parent
was the innermost open span.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path


class Span:
    """One timed call into a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "request", "thread", "extra")

    def __init__(self, name, start, parent, request, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(name, time.perf_counter(), parent, request, threading.get_ident())
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- wrappers ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, request=None, after=None) -> None:
        """Replace ``owner.attr`` by a timed twin until :meth:`uninstall`.

        ``request(*args, **kwargs)`` names the call's request id; ``after(span,
        args, kwargs, result)`` attaches facts from the returned value.
        """
        original = vars(owner)[attr]
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = recorder.open(name, request(*args, **kwargs) if request else None)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self.patch(owner, attr, timed)

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)) if span.parent else None,
                    "request": span.request,
                    "thread": span.thread,
                }
                if span.extra:
                    row["extra"] = span.extra
                handle.write(json.dumps(row, separators=(",", ":"), default=str) + "\n")


# ---------------------------------------------------------------------- #
# The boundaries of the per-layer table
# ---------------------------------------------------------------------- #
def _extra(span: Span, **values) -> None:
    span.extra = values


class _TimedStream:
    """A ``Session.stream`` result whose span lasts until the stream closes.

    The gateway worker encodes and bridges every event while the stream is
    open, so those spans nest under the session span on the same thread.
    """

    def __init__(self, stream, recorder: Recorder, span: Span):
        self._stream = stream
        self._recorder = recorder
        self._span = span
        self._open = True

    def __iter__(self):
        return self

    def __next__(self):
        event = next(self._stream)
        if event.kind.value == "kernel":
            _extra(self._span, **dict(event.data))
        return event

    def __enter__(self):
        self._stream.__enter__()
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        self._stream.close()
        if self._open:
            self._open = False
            self._recorder.close(self._span)


def install(recorder: Recorder, worker_counter_dir: Path | None = None) -> None:
    """Wrap every boundary of the per-layer table."""
    import repro.cluster.coordinator as coordinator
    import repro.dse as dse
    import repro.schedulers.lr as lr
    import repro.schedulers.mdf as mdf
    from repro.api.events import RunEvent
    from repro.api.session import Session
    from repro.energy.accounting import EnergyMeter
    from repro.energy.budget import EnergyBudget
    from repro.energy.governor import ScheduleAwareGovernor
    from repro.gateway import protocol
    from repro.gateway.bridge import EventBridge
    from repro.gateway.client import GatewayClient
    from repro.kernel.pipeline import AdmissionPipeline
    from repro.obs.tracer import current_tracer
    from repro.runtime.manager import RuntimeManager
    from repro.schedulers.base import Scheduler

    wrap = recorder.wrap
    wrap(dse, "paper_operating_points", "dse.explore")
    wrap(Session, "explore", "dse.explore")
    wrap(
        RuntimeManager, "run", "runtime.run",
        after=lambda span, a, k, log: _extra(span, intervals=len(log.timeline)),
    )
    arrival = lambda pipeline, ctx, event: event.name  # noqa: E731
    wrap(AdmissionPipeline, "admit", "kernel.admit", request=arrival)
    wrap(AdmissionPipeline, "reschedule", "kernel.admit")
    wrap(
        Scheduler, "schedule", "schedulers.solve",
        after=lambda span, a, k, result: _extra(span, feasible=bool(result.feasible)),
    )
    wrap(
        mdf, "pack_jobs_edf", "schedulers.pack",
        after=lambda span, a, k, result: _extra(span, success=result is not None),
    )
    wrap(
        lr, "solve_lagrangian", "knapsack",
        after=lambda span, a, k, result: _extra(
            span, problems=1, iterations=result.iterations
        ),
    )
    wrap(
        lr, "solve_lagrangian_many", "knapsack",
        after=lambda span, a, k, results: _extra(
            span,
            problems=len(results),
            iterations=sum(result.iterations for result in results),
        ),
    )
    wrap(ScheduleAwareGovernor, "select_scale", "energy.governor")
    wrap(
        EnergyBudget, "admits", "energy.budget",
        after=lambda span, a, k, verdict: _extra(span, rejected=not verdict),
    )
    wrap(EnergyMeter, "record_table", "energy.meter")
    wrap(EnergyMeter, "record_analytical", "energy.meter")

    # Gateway: client submit, wire parsing, the server worker's session,
    # event encoding, the thread hop and SSE framing.
    def submitted(span, args, kwargs, record):
        span.request = record.get("trace_id")

    wrap(GatewayClient, "submit_run", "gateway.submit", after=submitted)
    wrap(protocol, "parse_run_submission", "gateway.parse")
    wrap(RunEvent, "to_dict", "gateway.encode")
    wrap(EventBridge, "emit", "gateway.bridge")
    wrap(
        protocol, "sse_frame", "gateway.sse",
        request=lambda event, index, trace_id=None: trace_id,
    )
    stream = vars(Session)["stream"]

    @functools.wraps(stream)
    def timed_stream(self, *args, **kwargs):
        tracer = current_tracer()  # the gateway's own per-run tracer
        trace_id = tracer.trace_id if tracer is not None else None
        span = recorder.open("gateway.session", trace_id)
        return _TimedStream(stream(self, *args, **kwargs), recorder, span)

    recorder.patch(Session, "stream", timed_stream)

    # Batch service and cluster.  Jobs run in worker processes, so the
    # per-job time comes from SimulationResult.wall_time and the cluster
    # counts from SimulationService.cluster_stats.
    def batch_done(span, args, kwargs, results):
        service = kwargs.get("service")
        stats = getattr(service, "cluster_stats", None)
        _extra(
            span,
            jobs=len(results),
            job_s=sum(result.wall_time for result in results),
            workers=getattr(service, "workers", 1),
            units=getattr(stats, "units", 0),
            steals=getattr(stats, "steals", 0),
            retries=getattr(stats, "retries", 0),
            failed_units=getattr(stats, "failed_units", 0),
        )

    wrap(
        Session, "run_batch", "service.batch",
        request=lambda session, *args, **kwargs: session.spec.name,
        after=batch_done,
    )
    # Store counters of the worker processes never reach the parent's
    # ContentStore; the worker entry below writes them to files instead.
    if worker_counter_dir is not None and "_process_run_unit" in vars(coordinator):
        recorder.patch(
            coordinator,
            "_process_run_unit",
            functools.partial(_counting_unit, str(worker_counter_dir)),
        )


def _counting_unit(counter_dir: str, job_datas, cache_size, store_token=None):
    """Worker-process shard entry that also reports its store counters."""
    from repro.service import pool

    def counters() -> dict:
        store = pool._PROCESS_STORE
        return store.counters() if store is not None else {}

    before = counters()
    results = pool._process_run_unit(job_datas, cache_size, store_token)
    delta: dict[str, int] = defaultdict(int)
    for kind, values in counters().items():
        for stat, value in values.items():
            delta[stat] += value - before.get(kind, {}).get(stat, 0)
    name = f"{os.getpid()}-{uuid.uuid4().hex}.json"
    Path(counter_dir, name).write_text(json.dumps(delta), encoding="utf-8")
    return results


def collect_worker_counters(counter_dir: Path) -> dict[str, int]:
    """Sum and delete the counter files the worker processes wrote."""
    total: dict[str, int] = defaultdict(int)
    for path in sorted(counter_dir.glob("*.json")):
        for stat, value in json.loads(path.read_text(encoding="utf-8")).items():
            total[stat] += value
        path.unlink()
    return dict(total)


# ---------------------------------------------------------------------- #
# Self time, coverage and the per-layer metrics
# ---------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] += span.duration
    return {id(span): span.duration - children[id(span)] for span in spans}


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            found.append(span)
    return found


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for left, right in sorted(intervals):
        left, right = max(left, cursor), min(right, end)
        if right > left:
            total += right - left
            cursor = right
    return total


def unattributed_share(spans: list[Span], windows) -> float:
    """1 − the share of the windows' wall time that some span covers.

    ``windows`` are ``(start, end, request)`` triples.  A window with a
    request id counts only that request's spans (the served workload's
    client-seen runs); ``None`` counts every span.
    """
    by_request: dict = defaultdict(list)
    every = []
    for span in spans:
        every.append((span.start, span.end))
        if span.request is not None:
            by_request[span.request].append((span.start, span.end))
    wall = sum(end - start for start, end, _ in windows)
    if wall <= 0:
        return 0.0
    hit = sum(
        covered(every if request is None else by_request.get(request, []), start, end)
        for start, end, request in windows
    )
    return 1.0 - hit / wall


def self_time_table(spans: list[Span], wall: float) -> str:
    """A printable per-boundary table: calls, inclusive and self seconds."""
    own = self_times(spans)
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += own[id(span)]
    lines = [f"{'boundary':20s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}"]
    for name, (calls, total, self_s) in sorted(rows.items(), key=lambda item: -item[1][2]):
        share = 100.0 * self_s / wall if wall > 0 else 0.0
        lines.append(f"{name:20s} {calls:9d} {total:10.4f} {self_s:10.4f} {share:6.1f}%")
    return "\n".join(lines)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], tally) -> dict[str, float]:
    """The per-layer metrics of the traced passes that ``tally`` summed.

    Counts, bytes and busy/self seconds are per traced pass (one pass is the
    workload's input set once); ratios are taken over all traced passes.
    Besides the spans, they read the facts the workload collected without a
    wrapper: KERNEL run events, solve-cache counters, the daemon's queue
    wait and the store counters.
    """
    passes = tally.passes
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name: str) -> float:
        return len(by_name[name]) / passes

    def self_s(name: str) -> float:
        return sum(own[id(span)] for span in by_name[name]) / passes

    def busy_s(name: str) -> float:
        return sum(span.duration for span in outermost(spans, name)) / passes

    def extra_sum(name: str, key: str) -> float:
        return sum((span.extra or {}).get(key, 0) for span in by_name[name])

    solves = by_name["schedulers.solve"]
    packs = by_name["schedulers.pack"]
    budgets = by_name["energy.budget"]
    batches = by_name["service.batch"]
    job_s = extra_sum("service.batch", "job_s")
    batch_s = sum(span.duration * (span.extra or {}).get("workers", 1) for span in batches)
    # The KERNEL run event: seen by the online observer, or by the wrapped
    # Session.stream of a served run.
    resumed = tally.kernel_resumed + extra_sum("gateway.session", "resumed_steps")
    replayed = tally.kernel_replayed + extra_sum("gateway.session", "replayed_steps")
    loop_runs = {request for _, _, request in tally.windows if request is not None}
    session_s = sum(
        span.duration for span in by_name["gateway.session"] if span.request in loop_runs
    )
    metrics = {
        "dse.explore.busy_s": busy_s("dse.explore"),
        "api.setup.self_s": self_s("api.setup"),
        "runtime.run.calls": calls("runtime.run"),
        "runtime.run.self_s": self_s("runtime.run"),
        "runtime.intervals": extra_sum("runtime.run", "intervals") / passes,
        "kernel.admit.calls": calls("kernel.admit"),
        "kernel.admit.self_s": self_s("kernel.admit"),
        "kernel.delta_share": ratio(resumed, resumed + replayed),
        "schedulers.solve.calls": calls("schedulers.solve"),
        "schedulers.solve.self_s": self_s("schedulers.solve"),
        "schedulers.feasible_ratio": ratio(
            extra_sum("schedulers.solve", "feasible"), len(solves)
        ),
        "schedulers.pack.calls": calls("schedulers.pack"),
        "schedulers.pack.busy_s": busy_s("schedulers.pack"),
        "schedulers.pack.success_ratio": ratio(
            extra_sum("schedulers.pack", "success"), len(packs)
        ),
        "knapsack.calls": calls("knapsack"),
        "knapsack.problems": extra_sum("knapsack", "problems") / passes,
        "knapsack.iterations": extra_sum("knapsack", "iterations") / passes,
        "knapsack.busy_s": busy_s("knapsack"),
        "optable.solve_cache.hit_ratio": ratio(
            tally.solve_hits, tally.solve_hits + tally.solve_misses
        ),
        "energy.governor.calls": calls("energy.governor"),
        "energy.governor.busy_s": busy_s("energy.governor"),
        "energy.budget.calls": calls("energy.budget"),
        "energy.budget.busy_s": busy_s("energy.budget"),
        "energy.budget.reject_ratio": ratio(
            extra_sum("energy.budget", "rejected"), len(budgets)
        ),
        "energy.meter.calls": calls("energy.meter"),
        "energy.meter.busy_s": busy_s("energy.meter"),
        "gateway.submit.busy_s": busy_s("gateway.submit"),
        "gateway.parse.busy_s": busy_s("gateway.parse"),
        "gateway.queue_wait_s": tally.queue_wait_s / passes,
        "gateway.session.busy_s": busy_s("gateway.session"),
        "gateway.encode.calls": calls("gateway.encode"),
        "gateway.encode.busy_s": busy_s("gateway.encode"),
        "gateway.sse.busy_s": busy_s("gateway.sse"),
        "gateway.bridge.busy_s": busy_s("gateway.bridge"),
        "gateway.overhead_share": (
            1.0 - ratio(session_s, tally.client_s) if tally.client_s else 0.0
        ),
        "service.batch.busy_s": busy_s("service.batch"),
        "service.job.busy_s": job_s / passes,
        "service.overhead_share": 1.0 - ratio(job_s, batch_s) if batches else 0.0,
        "cluster.units": extra_sum("service.batch", "units") / passes,
        "cluster.steals": extra_sum("service.batch", "steals") / passes,
        "cluster.retries": extra_sum("service.batch", "retries") / passes,
        "cluster.failed_units": extra_sum("service.batch", "failed_units") / passes,
    }
    for label in ("cold", "warm"):
        totals = tally.store.get(label, {})
        hits, misses = totals.get("hits", 0), totals.get("misses", 0)
        metrics[f"store.{label}.hits"] = hits / passes
        metrics[f"store.{label}.misses"] = misses / passes
        metrics[f"store.{label}.writes"] = totals.get("puts", 0) / passes
        metrics[f"store.{label}.bytes"] = (
            totals.get("bytes_read", 0) + totals.get("bytes_written", 0)
        ) / passes
        metrics[f"store.{label}.hit_ratio"] = ratio(hits, hits + misses)
    return metrics
