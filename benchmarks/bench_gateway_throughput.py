"""E11 — gateway throughput: warm runs/sec through the network daemon.

Measures how fast the scheduler-as-a-service daemon (:mod:`repro.gateway`)
turns submissions into finished runs when its one set of caches is warm —
the steady state of a long-running deployment serving repeat workloads:

* an **in-process** reference: ``Session.run()`` in a plain loop, the upper
  bound no daemon can beat;
* the **gateway warm** path: concurrent blocking clients each driving
  submit → wait over real sockets against one named, warm session.

The acceptance bar of the gateway subsystem is **≥ 50 finished runs/sec
warm** (an absolute floor: the daemon must keep interactive latencies on the
motivational workload, not add an order of magnitude of HTTP overhead).
Correctness before speed: every run — remote or in-process — must produce
the same deterministic result fingerprint.

``run_all.py`` imports :func:`measure_gateway_throughput` directly so the
gated CI metric and this pytest benchmark can never drift apart.
"""

import threading
import time

from repro.api import ExperimentSpec, SchedulerSpec, Session, WorkloadSpec

#: Finished runs measured per configuration (after warm-up).
MEASURE_RUNS = 120
#: Concurrent blocking clients (the acceptance criterion demands >= 8).
CLIENTS = 8
#: Warm-up submissions before the clock starts (cache fill + JIT imports).
WARMUP_RUNS = 8
#: The absolute floor the gate enforces (runs/sec, warm).
MIN_RUNS_PER_S = 50.0


def _bench_spec() -> ExperimentSpec:
    """The motivational workload under the paper's headline scheduler."""
    return ExperimentSpec(
        name="bench-gateway",
        workload=WorkloadSpec.scenario("S1"),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
    )


def _in_process_rate(spec: ExperimentSpec, runs: int) -> tuple[float, str]:
    """Runs/sec (and fingerprint) of a bare Session loop — the upper bound."""
    session = Session.from_spec(spec)
    fingerprint = session.run().fingerprint()  # warm-up + reference result
    started = time.perf_counter()
    for _ in range(runs):
        session.run()
    return runs / (time.perf_counter() - started), fingerprint


def measure_gateway_throughput(
    runs: int = MEASURE_RUNS, clients: int = CLIENTS
) -> dict:
    """Drive ``runs`` warm submissions through a live daemon; return metrics.

    Starts an :class:`InProcessGateway` on an ephemeral port, warms one
    named session, then lets ``clients`` concurrent blocking clients race
    through the measured submissions.  Every result fingerprint must match
    the in-process reference — throughput of wrong answers is worthless.
    """
    from repro.gateway.client import GatewayClient
    from repro.gateway.server import GatewayConfig, InProcessGateway

    spec = _bench_spec()
    in_process_rate, reference = _in_process_rate(spec, max(runs // 4, 10))

    config = GatewayConfig(port=0, max_concurrent=clients)
    with InProcessGateway(config) as gateway:
        with GatewayClient(gateway.base_url) as warm_client:
            for _ in range(WARMUP_RUNS):
                status = warm_client.run(spec, session="bench-warm")
                assert status["result"]["fingerprint"] == reference

        remaining = [runs]
        fingerprints: list[str] = []
        lock = threading.Lock()
        errors: list[BaseException] = []

        def one_client() -> None:
            try:
                with GatewayClient(gateway.base_url) as client:
                    while True:
                        with lock:
                            if remaining[0] <= 0:
                                return
                            remaining[0] -= 1
                        status = client.run(spec, session="bench-warm")
                        with lock:
                            fingerprints.append(status["result"]["fingerprint"])
            except BaseException as error:  # surfaced by the caller
                errors.append(error)

        threads = [
            threading.Thread(target=one_client, name=f"bench-client-{index}")
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

    if errors:
        raise errors[0]
    assert len(fingerprints) == runs
    assert set(fingerprints) == {reference}, "remote results diverged"
    return {
        "runs": runs,
        "clients": clients,
        "runs_per_s_warm": round(runs / elapsed, 1),
        "runs_per_s_in_process": round(in_process_rate, 1),
        "gateway_efficiency": round((runs / elapsed) / in_process_rate, 3),
        "fingerprint": reference,
    }


def test_gateway_throughput():
    metrics = measure_gateway_throughput()
    print(
        f"\nE11 — gateway throughput ({metrics['clients']} concurrent "
        f"clients, {metrics['runs']} warm runs)"
    )
    print(f"{'configuration':28s} {'runs/s':>10s}")
    print(f"{'in-process Session loop':28s} {metrics['runs_per_s_in_process']:10.1f}")
    print(f"{'gateway (warm session)':28s} {metrics['runs_per_s_warm']:10.1f}")
    print(f"gateway/in-process efficiency: {metrics['gateway_efficiency']:.1%}")
    assert metrics["runs_per_s_warm"] >= MIN_RUNS_PER_S, (
        f"gateway sustained {metrics['runs_per_s_warm']:.1f} runs/s warm, "
        f"below the {MIN_RUNS_PER_S:.0f}/s floor"
    )
