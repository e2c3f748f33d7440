"""The benchmark's three workloads, each driven through the public front doors.

* ``online-mdf`` — ``Session.run`` on seeded Poisson traces over the full
  ``paper`` tables, one fresh ``Session`` per trace.
* ``served`` — a closed loop of two ``GatewayClient`` threads against an
  ``InProcessGateway``.
* ``batch-sweep`` — ``Session.explore`` + ``Session.run_batch`` on the
  cluster executor over fresh SQLite ``ContentStore`` files (cold passes),
  then the same batch on new services over the last store file (warm
  passes).

A *pass* runs a workload's input set once.  The measured run is one pass;
the traced run alternates an untraced and a traced pass of the same inputs.
Every input is derived from the ``--seed`` value.  Every timed unit of work
goes through :class:`perfbench.hostspeed.HostSpeed`, which probes the
host's speed between units.
"""

from __future__ import annotations

import itertools
import random
import re
import resource
import statistics
import threading
import time
import uuid
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import (
    DSESpec,
    EnergySpec,
    ExperimentSpec,
    PlatformSpec,
    RunEventKind,
    SchedulerSpec,
    Session,
    WorkloadSpec,
)

from perfbench import tracing
from perfbench.hostspeed import HostSpeed

#: Worker processes of the cluster executor and client threads of the
#: served loop — the benchmark host has two cores.
WORKERS = 2
CLIENTS = 2
#: How strongly each workload's host time follows the host-speed probe's
#: (see :mod:`perfbench.hostspeed`), as the slope of log host time on log
#: probe time.  Within one set of ten seeds the slopes came out at 0.4-0.7
#: for online-mdf, about 0.2 for the served loop (its requests wait on
#: locks and sockets more than they compute) and 0.6 for its in-process
#: decisions, and 0.5-1.2 for the batch throughput; noise in a run's probe
#: median pulls such slopes towards zero.  Between sets of ten seeds whose
#: probe medians differed by 57 % (online-mdf), 60 % (served) and 30 %
#: (batch-sweep) the medians moved with slopes of about 0.8, 0.7 and 1.3.
SENSITIVITY = {"online-mdf": 0.7, "served": 0.6, "batch-sweep": 1.0}
#: Workloads that run on one CPU, the one the host-speed probe measures.
#: Unpinned, the served loop's throughput moved between 59 and 99 runs/s
#: while the probe stayed within 4 %: its threads waited for the hypervisor
#: to wake the second vCPU.  The single-threaded online-mdf stays free to
#: move off a busy CPU; ``batch-sweep`` needs both CPUs for its two worker
#: processes.
PINNED = ("served",)
TENANT = "perfbench"
#: A submission that takes longer than this counts as a failed operation.
SUBMIT_TIMEOUT_S = 60.0

#: The paper's Fig. 1 numbers the served workload must reproduce: S1 energy
#: (J, two decimals) and S2 acceptance, keyed by (scenario, scheduler, remap).
FIG1_ENERGY = {
    ("S1", "fixed", False): 16.96,
    ("S1", "fixed", True): 15.49,
    ("S1", "mmkp-mdf", False): 14.63,
}
FIG1_ACCEPTANCE = {
    ("S2", "fixed", False): 0.5,
    ("S2", "fixed", True): 0.5,
    ("S2", "mmkp-mdf", False): 1.0,
}
FIG1_SCHEDULERS = (
    ("fixed", False),
    ("fixed", True),
    ("mmkp-mdf", False),
    ("mmkp-lr", False),
    ("ex-mem", False),
)


@dataclass(frozen=True)
class Size:
    """How much work one pass does (``full`` is measured, ``tiny`` tests)."""

    traces: int  # online: traces per pass; served: Poisson specs; batch: mmkp-mdf seeds per rate
    requests: int  # arrivals per generated trace
    lr_traces: int = 0  # batch-sweep: mmkp-lr seeds per rate
    segments: int = 0  # served: closed-loop segments per traced pass
    cycles: int = 1  # served: in-process runs of the whole mix per pass
    setups: int = 1  # batch-sweep: set-ups per pass (the last cold_passes are used)
    warm_passes: int = 1  # batch-sweep: warm reruns per pass
    cold_passes: int = 1  # batch-sweep: cold passes, each on its own fresh store


SIZES = {
    "full": {
        "online-mdf": Size(traces=14, requests=300),
        "served": Size(traces=16, requests=25, segments=8, cycles=2),
        "batch-sweep": Size(
            traces=80, lr_traces=12, requests=30, setups=5, cold_passes=2, warm_passes=2
        ),
    },
    "tiny": {
        "online-mdf": Size(traces=2, requests=30),
        "served": Size(traces=2, requests=8, segments=1),
        "batch-sweep": Size(traces=2, lr_traces=1, requests=6, setups=2, cold_passes=2),
    },
}


# ---------------------------------------------------------------------- #
# Bookkeeping shared by every workload
# ---------------------------------------------------------------------- #
class Checks:
    """Operations attempted and failed, plus the reference fingerprints.

    The first fingerprint seen for a key is the reference; every later
    repetition, traced or not, must reproduce it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reference: dict[str, str] = {}

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems)

    def fingerprint(self, key: str, value: str, problems: list[str]) -> None:
        expected = self.reference.setdefault(key, value)
        if value != expected:
            problems.append(f"{key}: fingerprint {value[:12]} != {expected[:12]}")


@dataclass
class Tally:
    """Samples of one or more passes, reduced by :func:`end_to_end`.

    Times are host seconds; :func:`end_to_end` scales them by the run's
    host-speed factor.
    """

    speed: HostSpeed = field(default_factory=HostSpeed)
    passes: int = 0
    setup_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0  # seconds of the measured runs
    runs: int = 0
    arrivals: int = 0
    run_s: list[float] = field(default_factory=list)
    decision_s: list[float] = field(default_factory=list)
    warm_runs: int = 0
    warm_s: float = 0.0
    # Simulated outcome of the first pass (deterministic for a seed).
    energy_j: float = 0.0
    requests: int = 0
    accepted: int = 0
    # Per-layer facts that need no wrapper.
    kernel_resumed: int = 0
    kernel_replayed: int = 0
    solve_hits: int = 0
    solve_misses: int = 0
    queue_wait_s: float = 0.0
    client_s: float = 0.0
    store: dict[str, dict[str, int]] = field(default_factory=dict)
    # (start, end, request) windows for the traced run's unattributed share.
    windows: list[tuple[float, float, str | None]] = field(default_factory=list)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(tally: Tally, scale: float) -> dict[str, float]:
    """The end-to-end metrics of a measured run, its host seconds
    multiplied by ``scale``."""
    return {
        "setup_s": statistics.median(tally.setup_s) * scale,
        "arrivals_per_s": tally.arrivals / (tally.busy_s * scale),
        "decision_p50_ms": percentile(tally.decision_s, 50) * 1e3 * scale,
        "decision_p99_ms": percentile(tally.decision_s, 99) * 1e3 * scale,
        "runs_per_s": tally.runs / (tally.busy_s * scale),
        "run_p50_ms": percentile(tally.run_s, 50) * 1e3 * scale,
        "run_p99_ms": percentile(tally.run_s, 99) * 1e3 * scale,
        "warm_runs_per_s": tally.warm_runs / (tally.warm_s * scale),
        "energy_j": tally.energy_j,
        "acceptance_rate": tally.accepted / tally.requests,
        "peak_rss_mb": peak_rss_mb(),
    }


def sample_counts(tally: Tally) -> dict[str, int]:
    return {
        "passes": tally.passes,
        "setups": len(tally.setup_s),
        "decisions": len(tally.decision_s),
        "runs": len(tally.run_s),
        "warm_runs": tally.warm_runs,
    }


def _missed(outcomes) -> int:
    return sum(
        1
        for o in outcomes
        if o.accepted and o.completion_time is not None and not o.met_deadline
    )


def observed_run(session, tally: Tally):
    """``Session.run`` with an observer timing each admission decision.

    A decision's latency is the host time from the ARRIVAL event to the
    ADMIT/REJECT event of the same request, as delivered to ``on_event``.
    """
    arrived: dict[str, float] = {}
    decisions = tally.decision_s
    kernel: dict = {}

    def observe(event):
        now = time.perf_counter()
        kind = event.kind
        if kind is RunEventKind.ARRIVAL:
            arrived[event.request] = now
        elif kind is RunEventKind.ADMIT or kind is RunEventKind.REJECT:
            decisions.append(now - arrived.pop(event.request))
        elif kind is RunEventKind.KERNEL:
            kernel.update(event.data)

    log = session.run(on_event=observe)
    tally.kernel_resumed += kernel.get("resumed_steps", 0)
    tally.kernel_replayed += kernel.get("replayed_steps", 0)
    return log


def _solve_counts(session) -> tuple[int, int]:
    """The session's solve-cache hits and misses so far."""
    info = session.kernel_caches.info()
    return info.get("solve_cache_hits", 0), info.get("solve_cache_misses", 0)


def _seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"perfbench/{name}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


# ---------------------------------------------------------------------- #
# online-mdf
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class OnlineConfig:
    rate: float
    scheduler: str
    energy: EnergySpec


ONLINE = {
    # The README quickstart at high load: about half the arrivals admitted.
    "online-mdf": OnlineConfig(
        2.5, "mmkp-mdf", EnergySpec(governor="schedule-aware", power_cap_watts=8.0)
    ),
}


class Online:
    """``Session.run`` per trace, each on a fresh ``Session``."""

    def __init__(self, name: str, seed: int, size: Size):
        config = ONLINE[name]
        self.name = name
        self.specs = [
            ExperimentSpec(
                name=f"{name}-{index}",
                platform=PlatformSpec(name="odroid-xu4"),
                tables="paper",
                workload=WorkloadSpec.poisson(
                    arrival_rate=config.rate,
                    num_requests=size.requests,
                    seed=trace_seed,
                ),
                scheduler=SchedulerSpec(name=config.scheduler),
                energy=config.energy,
            )
            for index, trace_seed in enumerate(_seeds(name, seed, size.traces))
        ]

    def run_pass(self, tally: Tally, checks: Checks, recorder=None, warm=True) -> None:
        first = tally.passes == 0
        for spec in self.specs:
            problems: list[str] = []
            try:
                self._run_trace(spec, tally, checks, problems, recorder, warm, first)
            except Exception as error:  # noqa: BLE001 — counted as a failure
                problems.append(f"{spec.name}: {type(error).__name__}: {error}")
            checks.operation(problems)
        tally.passes += 1

    def _run_trace(self, spec, tally, checks, problems, recorder, warm, first):
        with tally.speed.unit() as setup:
            span = recorder.open("api.setup") if recorder else None
            session = Session.from_spec(spec)
            session.tables
            session.manager()
            if span is not None:
                recorder.close(span)
        tally.setup_s.append(setup.host_s)

        with tally.speed.unit() as run:
            log = observed_run(session, tally)
        tally.busy_s += run.host_s
        tally.runs += 1
        tally.run_s.append(run.host_s)
        tally.arrivals += len(log.outcomes)
        hits, misses = _solve_counts(session)
        tally.solve_hits += hits
        tally.solve_misses += misses
        checks.fingerprint(spec.name, log.fingerprint(), problems)
        if _missed(log.outcomes):
            problems.append(f"{spec.name}: {_missed(log.outcomes)} deadline misses")
        if first:
            tally.energy_j += log.total_energy
            tally.requests += len(log.outcomes)
            tally.accepted += len(log.accepted)
        if warm:
            # The same trace again on the now-warm session: a repeat run
            # must be fingerprint-identical, only faster where caches help.
            with tally.speed.unit() as rerun:
                again = session.run()
            tally.warm_s += rerun.host_s
            tally.warm_runs += 1
            checks.fingerprint(spec.name, again.fingerprint(), problems)


# ---------------------------------------------------------------------- #
# served
# ---------------------------------------------------------------------- #
_QUEUE_WAIT = re.compile(r"^repro_gateway_queue_wait_s_sum (\S+)$", re.MULTILINE)


def queue_wait_s(metrics_text: str) -> float:
    """The admission queue-wait total the daemon exposes on ``GET /metrics``."""
    match = _QUEUE_WAIT.search(metrics_text)
    return float(match.group(1)) if match else 0.0


@dataclass
class Submission:
    started: float
    finished: float
    spec: ExperimentSpec
    trace_id: str | None = None
    summary: dict | None = None
    problems: list[str] = field(default_factory=list)


class Served:
    """Closed-loop gateway clients; every spec has one named session."""

    def __init__(self, seed: int, size: Size):
        self.size = size
        fig1 = [
            ExperimentSpec(
                name=f"fig1-{scenario}-{scheduler}{'-remap' if remap else ''}",
                workload=WorkloadSpec.scenario(scenario),
                scheduler=SchedulerSpec(name=scheduler, remap_on_finish=remap),
            )
            for scenario in ("S1", "S2")
            for scheduler, remap in FIG1_SCHEDULERS
        ]
        poisson = [
            ExperimentSpec(
                name=f"poisson-{index}",
                platform=PlatformSpec(name="odroid-xu4"),
                tables="paper-reduced",
                workload=WorkloadSpec.poisson(
                    arrival_rate=0.5, num_requests=size.requests, seed=trace_seed
                ),
                scheduler=SchedulerSpec(name="mmkp-mdf"),
            )
            for index, trace_seed in enumerate(_seeds("served", seed, size.traces))
        ]
        self.mix = fig1 + poisson
        #: The closed loop's submission order: the Fig. 1 set three times with
        #: the Poisson traces spread evenly among it.  About two thirds of runs
        #: are then Fig. 1 runs, so the median run lands inside their latency
        #: mode rather than in the gap below the Poisson runs, and two clients
        #: seldom run two Poisson traces at once.
        fig1_runs = fig1 * 3
        spread = [(i / len(fig1_runs), spec) for i, spec in enumerate(fig1_runs)]
        spread += [((j + 0.5) / len(poisson), spec) for j, spec in enumerate(poisson)]
        self.cycle = [spec for _, spec in sorted(spread, key=lambda entry: entry[0])]
        #: One in-process session per spec: its first ``Session.run()`` is the
        #: reference fingerprint every served result must match.
        self.sessions = {spec.name: Session.from_spec(spec) for spec in self.mix}
        self.reference = {
            name: session.run().fingerprint() for name, session in self.sessions.items()
        }

    def in_process(self, tally: Tally, checks: Checks) -> None:
        """The mix run in process, for the decision latency of its runs and
        the solve-cache counts of its ``mmkp-lr`` runs.

        The gateway serves these decisions on a worker thread among client,
        loop and stream threads, so their latency there mostly measures GIL
        hand-offs; here they run alone, as in the online workload.
        """
        for _ in range(self.size.cycles):
            with tally.speed.unit():
                for spec in self.mix:
                    session = self.sessions[spec.name]
                    hits, misses = _solve_counts(session)
                    problems = []
                    try:
                        log = observed_run(session, tally)
                        if log.fingerprint() != self.reference[spec.name]:
                            problems.append(f"{spec.name}: in-process rerun differs")
                    except Exception as error:  # noqa: BLE001 — counted as a failure
                        problems.append(f"{spec.name}: {type(error).__name__}: {error}")
                    checks.operation(problems)
                    after_hits, after_misses = _solve_counts(session)
                    tally.solve_hits += after_hits - hits
                    tally.solve_misses += after_misses - misses

    def _check(self, spec, summary, checks: Checks, problems: list[str]) -> None:
        """Served results must equal the in-process run and the paper."""
        if summary["fingerprint"] != self.reference[spec.name]:
            problems.append(f"{spec.name}: served fingerprint differs from Session.run()")
        if summary["deadline_misses"]:
            problems.append(f"{spec.name}: {summary['deadline_misses']} deadline misses")
        scenario = spec.workload.options.get("scenario")
        key = (scenario, spec.scheduler.name, spec.scheduler.remap_on_finish)
        if key in FIG1_ENERGY and round(summary["total_energy"], 2) != FIG1_ENERGY[key]:
            problems.append(f"{spec.name}: {summary['total_energy']} J, paper {FIG1_ENERGY[key]}")
        if key in FIG1_ACCEPTANCE and summary["acceptance_rate"] != FIG1_ACCEPTANCE[key]:
            problems.append(f"{spec.name}: acceptance {summary['acceptance_rate']}")

    def run_pass(
        self,
        tally: Tally,
        checks: Checks,
        recorder=None,
        seconds: float | None = None,
        segments: int | None = None,
    ) -> None:
        """In-process cycles, then one gateway lifetime: start-up with a
        warm-up run per spec, then closed-loop segments for ``seconds`` (at
        least one) or exactly ``segments`` of them."""
        from repro.gateway.client import GatewayClient
        from repro.gateway.server import GatewayConfig, InProcessGateway

        checks.reference.update(self.reference)
        first = tally.passes == 0
        self.in_process(tally, checks)
        with ExitStack() as stack:
            with tally.speed.unit() as setup:
                span = recorder.open("api.setup") if recorder else None
                gateway = stack.enter_context(InProcessGateway(GatewayConfig(port=0)))
                clients = [
                    stack.enter_context(
                        GatewayClient(gateway.base_url, tenant=TENANT, timeout=SUBMIT_TIMEOUT_S)
                    )
                    for _ in range(CLIENTS)
                ]
                warmups = [self._submit(clients[0], spec, stream=False) for spec in self.mix]
                if span is not None:
                    recorder.close(span)
            tally.setup_s.append(setup.host_s)
            for result in warmups:
                self._record(result, checks)
                if first and result.summary is not None:
                    tally.energy_j += result.summary["total_energy"]
                    tally.requests += result.summary["requests"]
                    tally.accepted += result.summary["accepted"]
            waited = queue_wait_s(clients[0].metrics_text())
            loop_started = time.perf_counter()
            segment = 0
            while segment != segments:
                with tally.speed.unit() as unit:
                    done = self._segment(clients, segment)
                self._tally_segment(done, unit, tally, checks)
                segment += 1
                if segments is None and time.perf_counter() - loop_started >= seconds:
                    break
            tally.queue_wait_s += queue_wait_s(clients[0].metrics_text()) - waited
        tally.passes += 1

    def _tally_segment(self, done: list[Submission], unit, tally: Tally, checks) -> None:
        for result in done:
            self._record(result, checks)
            if result.summary is not None:
                latency = result.finished - result.started
                tally.runs += 1
                tally.warm_runs += 1
                tally.arrivals += result.summary["requests"]
                tally.run_s.append(latency)
                tally.client_s += latency
                tally.windows.append((result.started, result.finished, result.trace_id))
        tally.busy_s += unit.host_s
        tally.warm_s += unit.host_s

    def _submit(self, client, spec, stream: bool) -> Submission:
        result = Submission(time.perf_counter(), 0.0, spec)
        try:
            record = client.submit_run(spec, session=spec.name, timeout_s=SUBMIT_TIMEOUT_S)
            result.trace_id = record.get("trace_id")
            if stream:
                last = None
                for last in client.events(record["id"]):
                    pass
                if last is None or last.get("kind") != "end":
                    result.problems.append(f"{spec.name}: stream ended with {last!r}")
                else:
                    result.summary = last["data"]["log"]
            else:
                status = client.wait_run(record["id"])
                if status["state"] != "done":
                    result.problems.append(f"{spec.name}: {status.get('error')}")
                else:
                    result.summary = status["result"]
        except Exception as error:  # noqa: BLE001 — counted as a failure
            result.problems.append(f"{spec.name}: {type(error).__name__}: {error}")
        result.finished = time.perf_counter()
        return result

    def _record(self, result: Submission, checks: Checks) -> None:
        problems = list(result.problems)
        if result.summary is not None:
            self._check(result.spec, result.summary, checks, problems)
        checks.operation(problems)

    def _segment(self, clients, segment: int) -> list[Submission]:
        """One cycle of the mix as a closed loop: each client thread waits
        for its result before it submits the next entry of the cycle.

        Consecutive entries alternate between following the SSE stream and
        long-polling, and every entry swaps its mode from one segment to the
        next.
        """
        counter = itertools.count()
        done: list[Submission] = []

        def client_loop(client) -> None:
            while (position := next(counter)) < len(self.cycle):
                stream = (position + segment) % 2 == 0
                done.append(self._submit(client, self.cycle[position], stream))

        threads = [
            threading.Thread(target=client_loop, args=(client,), name=f"perfbench-client-{n}")
            for n, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return done


# ---------------------------------------------------------------------- #
# batch-sweep
# ---------------------------------------------------------------------- #
BATCH_SCHEDULERS = ("mmkp-mdf", "mmkp-lr")
#: The jobs whose run and decision times make the batch's latency metrics.
#: With the mmkp-lr jobs in, the few heaviest of them set both p99s, which
#: then spread by 0.3 of their median over ten seeds; mmkp-lr decisions are
#: measured on the served workload's Fig. 1 runs.
LATENCY_SCHEDULERS = ("mmkp-mdf",)
BATCH_RATES = (0.5, 1.5)
STORE_STATS = ("hits", "misses", "puts", "bytes_read", "bytes_written")


def _discard(store, path: Path) -> None:
    store.close()
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def _counter_totals(counters: dict[str, dict[str, int]]) -> dict[str, int]:
    return {
        stat: sum(values.get(stat, 0) for values in counters.values())
        for stat in STORE_STATS
    }


class BatchSweep:
    """Explore + cold batch on a fresh store, then warm reruns from it."""

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.size = size
        self.workdir = workdir
        self.specs = [
            ExperimentSpec(
                name=f"batch-{scheduler}-{rate}",
                platform=PlatformSpec(name="odroid-xu4"),
                tables=None,
                dse=DSESpec(max_points=8),
                workload=WorkloadSpec.poisson(
                    arrival_rate=rate, num_requests=size.requests, seed=0
                ),
                scheduler=SchedulerSpec(name=scheduler),
            )
            for scheduler in BATCH_SCHEDULERS
            for rate in BATCH_RATES
        ]
        # An mmkp-lr job costs several mmkp-mdf jobs, so the sweep runs fewer
        # of them; the median job and decision then fall inside the mmkp-mdf
        # mode instead of in the gap between the two schedulers.
        self.seeds = {
            spec.name: _seeds(
                spec.name,
                seed,
                size.lr_traces if spec.scheduler.name == "mmkp-lr" else size.traces,
            )
            for spec in self.specs
        }
        #: Worker processes write their store counters here (traced run).
        self.counter_dir = workdir / "worker-counters"
        self.counter_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, tally: Tally, checks: Checks, recorder=None) -> None:
        from repro.service.pool import SimulationService
        from repro.store import ContentStore

        first = tally.passes == 0
        kept = []  # (path, store, sessions, service) of the last cold_passes set-ups
        for attempt in range(self.size.setups):
            path = self.workdir / f"store-{uuid.uuid4().hex}.db"
            with tally.speed.unit() as setup:
                span = recorder.open("api.setup") if recorder else None
                store = ContentStore.open(path)
                sessions = [Session.from_spec(spec) for spec in self.specs]
                for session in sessions:
                    session.explore(executor="cluster", workers=WORKERS, store=store)
                service = SimulationService(executor="cluster", workers=WORKERS, store=store)
                if span is not None:
                    recorder.close(span)
            tally.setup_s.append(setup.host_s)
            if attempt + self.size.cold_passes < self.size.setups:
                _discard(store, path)
            else:
                kept.append((path, store, sessions, service))
        try:
            colds = []
            for path, store, sessions, service in kept:
                before = _counter_totals(store.counters())
                tracing.collect_worker_counters(self.counter_dir)
                cold, cold_s = self._batches(sessions, service, tally.speed)
                self._store_pass(tally, "cold", store, before)
                tally.busy_s += cold_s
                for session, results in zip(sessions, cold):
                    self._check(session.spec.name, results, checks, tally, first)
                    tally.runs += len(results)
                    tally.arrivals += sum(result.requests for result in results)
                first = False
                colds.append(cold)
            self._latencies(sessions, colds, tally)
            for _ in range(self.size.warm_passes):
                warm_store = ContentStore.open(path)
                try:
                    warm_service = SimulationService(
                        executor="cluster", workers=WORKERS, store=warm_store
                    )
                    warm, warm_s = self._batches(sessions, warm_service, tally.speed)
                    self._store_pass(tally, "warm", warm_store, {})
                finally:
                    warm_store.close()
                tally.warm_s += warm_s
                for session, results in zip(sessions, warm):
                    tally.warm_runs += len(results)
                    self._check(session.spec.name, results, checks, tally, False)
        finally:
            for path, store, _, _ in kept:
                _discard(store, path)
        tally.passes += 1

    @staticmethod
    def _latencies(sessions, colds, tally: Tally) -> None:
        """Run and decision times of the latency jobs, each the smaller of
        its cold passes: a worker process that a neighbour preempts in one
        pass is seldom preempted at the same job in the other."""
        for index, session in enumerate(sessions):
            if session.spec.scheduler.name not in LATENCY_SCHEDULERS:
                continue
            for jobs in zip(*(cold[index] for cold in colds)):
                tally.run_s.append(min(job.wall_time for job in jobs))
                for outcomes in zip(*(job.outcomes for job in jobs)):
                    tally.decision_s.append(min(o.scheduler_time for o in outcomes))

    def _batches(self, sessions, service, speed: HostSpeed):
        """One ``Session.run_batch`` per session, each a timed unit; returns
        the batches' results and host seconds."""
        batches, host_s = [], 0.0
        for session in sessions:
            with speed.unit() as unit:
                batches.append(
                    session.run_batch(seeds=self.seeds[session.spec.name], service=service)
                )
            host_s += unit.host_s
        return batches, host_s

    def _store_pass(self, tally: Tally, label: str, store, before: dict[str, int]) -> None:
        """Parent-side plus worker-side store counters of one pass."""
        totals = tally.store.setdefault(label, dict.fromkeys(STORE_STATS, 0))
        parent = _counter_totals(store.counters())
        workers = tracing.collect_worker_counters(self.counter_dir)
        for stat in STORE_STATS:
            totals[stat] += parent[stat] - before.get(stat, 0) + workers.get(stat, 0)

    def _check(self, name, results, checks: Checks, tally: Tally, first: bool) -> None:
        """One operation per job, plus the batch fingerprint as one more."""
        for result in results:
            problems = []
            if result.error is not None:
                problems.append(f"{result.job_name}: {result.error}")
            if _missed(result.outcomes):
                problems.append(f"{result.job_name}: deadline misses")
            checks.operation(problems)
            if first:
                tally.energy_j += result.total_energy
                tally.requests += result.requests
                tally.accepted += result.accepted
        problems = []
        checks.fingerprint(name, results.fingerprint(), problems)
        checks.operation(problems)


def build(name: str, seed: int, size: str, workdir: Path):
    """The workload object for ``--workload name``."""
    sizes = SIZES[size]
    if name in ONLINE:
        return Online(name, seed, sizes[name])
    if name == "served":
        return Served(seed, sizes[name])
    if name == "batch-sweep":
        return BatchSweep(seed, sizes[name], workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("online-mdf", "served", "batch-sweep")
