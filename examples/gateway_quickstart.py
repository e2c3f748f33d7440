"""The ``repro.gateway`` daemon: scheduler-as-a-service in one process.

Demonstrates the full client-facing surface of the gateway:

1. a daemon started in-process (an :class:`InProcessGateway` on an
   ephemeral port — production deployments use ``repro-rm serve``),
2. a run submitted over HTTP whose Server-Sent Events are streamed live and
   rebuilt into typed :class:`RunEvent` objects,
3. the remote-equivalence contract — the gateway run's result fingerprint
   matches an in-process ``Session.run()`` of the same spec exactly,
4. a warm named session: the second submission reuses the daemon's kernel
   caches and the materialised session,
5. a seeded batch fan-out through ``POST /batches``, and
6. the daemon's health and Prometheus metrics endpoints.

Run with ``PYTHONPATH=src python examples/gateway_quickstart.py``.
"""

from repro.api import (
    ExperimentSpec,
    RunEvent,
    RunEventKind,
    SchedulerSpec,
    Session,
    WorkloadSpec,
)
from repro.gateway import GatewayClient, GatewayConfig, InProcessGateway


def main() -> None:
    spec = ExperimentSpec(
        name="gateway-quickstart",
        workload=WorkloadSpec.poisson(arrival_rate=0.3, num_requests=8, seed=7),
        scheduler=SchedulerSpec(name="mmkp-mdf"),
    )

    with InProcessGateway(GatewayConfig(port=0)) as gateway, GatewayClient(
        gateway.base_url, tenant="quickstart"
    ) as client:
        health = client.healthz()
        print(f"daemon up at {gateway.base_url} "
              f"(protocol {health['protocol']}, status {health['status']})")

        # 1. Submit and follow the live event stream (SSE over plain http).
        record = client.submit_run(spec, session="warm-demo")
        print(f"\nsubmitted {record['id']}; streaming its events:")
        for payload in client.events(record["id"]):
            event = RunEvent.from_dict(payload)
            if event.kind not in (RunEventKind.INTERVAL, RunEventKind.END):
                print(f"  {event}")
        status = client.wait_run(record["id"])
        result = status["result"]
        print(f"-> {result['accepted']}/{result['requests']} admitted, "
              f"{result['total_energy']:.2f} J, "
              f"fingerprint {result['fingerprint'][:16]}…")

        # 2. Remote execution is an equivalence, not an approximation.
        local = Session.from_spec(spec).run()
        assert result["fingerprint"] == local.fingerprint()
        print("remote fingerprint == in-process Session.run() fingerprint")

        # 3. Warm named session: same result, served from warm caches.
        warm = client.run(spec, session="warm-demo")
        assert warm["result"]["fingerprint"] == result["fingerprint"]
        print(f"warm rerun {warm['id']} reproduced the result exactly")

        # 4. Seeded trials fan out on the daemon (POST /batches).
        batch = client.submit_batch(spec, trials=4)
        batch_status = client.wait_batch(batch["id"])
        aggregate = batch_status["result"]["aggregate"]
        print(f"\nbatch {batch['id']}: {aggregate['traces']} trials, "
              f"acceptance {aggregate['acceptance_rate'] * 100:.1f} %, "
              f"fingerprint {batch_status['result']['fingerprint'][:16]}…")

        # 5. Observability: Prometheus text exposition.
        runs_line = next(
            line for line in client.metrics_text().splitlines()
            if line.startswith("repro_gateway_runs_completed")
        )
        print(f"\nmetrics sample: {runs_line}")
    print("daemon drained cleanly")


if __name__ == "__main__":
    main()
