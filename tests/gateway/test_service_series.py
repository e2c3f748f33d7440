"""The ``repro_service_*`` series on ``/metrics`` are the batches' own counts.

Each ``repro_service_*`` counter is the sum, over the finished batch
submissions, of their ``BatchResults.aggregate()`` totals and their
activation memo's hits and misses.  Each summary takes one sample per
completed trace (per admitted request for ``request_energy``).  Single
runs add nothing to any of them.
"""

import pytest

from repro.api import EnergySpec, ExperimentSpec, SchedulerSpec, Session, WorkloadSpec
from repro.gateway.client import GatewayClient
from repro.gateway.server import GatewayConfig, InProcessGateway
from repro.service.pool import SimulationService

#: Two batch submissions, (spec, trials); the second is power capped so
#: that ``budget_rejections`` counts something.
BATCHES = (
    (
        ExperimentSpec(
            name="series-mdf",
            workload=WorkloadSpec.poisson(arrival_rate=0.3, num_requests=8, seed=3),
            scheduler=SchedulerSpec(name="mmkp-mdf"),
        ),
        3,
    ),
    (
        ExperimentSpec(
            name="series-lr-capped",
            workload=WorkloadSpec.poisson(arrival_rate=1.5, num_requests=8, seed=4),
            scheduler=SchedulerSpec(name="mmkp-lr"),
            energy=EnergySpec(power_cap_watts=0.5),
        ),
        2,
    ),
)

COUNTERS = (
    "traces_run",
    "traces_failed",
    "requests_total",
    "requests_accepted",
    "requests_rejected",
    "activations",
    "cache_hits",
    "cache_misses",
    "budget_rejections",
)

SUMMARIES = ("trace_energy", "request_energy", "trace_search_time", "trace_wall_time")


def _samples(text: str) -> dict[str, float]:
    """Sample name (with its labels) → value, for every sample line."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def _service_samples(text: str) -> dict[str, float]:
    return {
        name: value
        for name, value in _samples(text).items()
        if name.startswith("repro_service_")
    }


def _expected_counts(spec: ExperimentSpec, trials: int, aggregate: dict) -> dict:
    """One batch's share of each counter, from its aggregate and from the
    cache counts a fresh service makes on the same batch."""
    service = SimulationService()
    local = Session.from_spec(spec).run_batch(trials=trials, service=service)
    deterministic = {key: value for key, value in aggregate.items()
                     if key != "search_time_total"}
    assert deterministic == {key: value for key, value in local.aggregate().items()
                             if key != "search_time_total"}
    cache = service.cache.info()
    return {
        "traces_run": aggregate["traces"] - aggregate["failed"],
        "traces_failed": aggregate["failed"],
        "requests_total": aggregate["requests"],
        "requests_accepted": aggregate["accepted"],
        "requests_rejected": aggregate["rejected"],
        "activations": aggregate["activations"],
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "budget_rejections": aggregate["budget_rejections"],
    }


@pytest.fixture(scope="module")
def scraped():
    """``/metrics`` before anything ran, after one run and after two batches,
    and each batch's finished status."""
    with (
        InProcessGateway(GatewayConfig(port=0)) as gateway,
        GatewayClient(gateway.base_url) as client,
    ):
        before = client.metrics_text()
        run = client.run(
            ExperimentSpec(
                name="series-run",
                workload=WorkloadSpec.scenario("S1"),
                scheduler=SchedulerSpec(name="mmkp-mdf"),
            )
        )
        assert run["state"] == "done"
        after_run = client.metrics_text()
        statuses = []
        for spec, trials in BATCHES:
            record = client.submit_batch(spec, trials=trials)
            statuses.append(client.wait_batch(record["id"]))
        after_batches = client.metrics_text()
    return before, after_run, after_batches, statuses


class TestServiceSeries:
    def test_every_series_is_served_before_any_batch(self, scraped):
        before, after_run, _, _ = scraped
        samples = _service_samples(before)
        for name in COUNTERS:
            assert samples[f"repro_service_{name}"] == 0
        for name in SUMMARIES:
            assert samples[f"repro_service_{name}_count"] == 0
        assert f"# TYPE repro_service_{COUNTERS[0]} counter" in before
        assert f"# TYPE repro_service_{SUMMARIES[0]} summary" in before
        # A single run is not a batch.
        assert _service_samples(after_run) == samples

    def test_counters_are_the_batches_aggregates_and_cache_counts(self, scraped):
        _, _, text, statuses = scraped
        assert [status["state"] for status in statuses] == ["done", "done"]
        expected = dict.fromkeys(COUNTERS, 0)
        for (spec, trials), status in zip(BATCHES, statuses):
            share = _expected_counts(spec, trials, status["result"]["aggregate"])
            for name in COUNTERS:
                expected[name] += share[name]
        assert expected["budget_rejections"] > 0
        assert expected["cache_misses"] > 0
        samples = _service_samples(text)
        assert {name: samples[f"repro_service_{name}"] for name in COUNTERS} == expected

    def test_summaries_take_one_sample_per_trace_or_admitted_request(self, scraped):
        _, _, text, statuses = scraped
        aggregates = [status["result"]["aggregate"] for status in statuses]
        traces = sum(a["traces"] - a["failed"] for a in aggregates)
        accepted = sum(a["accepted"] for a in aggregates)
        samples = _service_samples(text)
        assert samples["repro_service_trace_energy_count"] == traces
        assert samples["repro_service_trace_search_time_count"] == traces
        assert samples["repro_service_trace_wall_time_count"] == traces
        assert samples["repro_service_request_energy_count"] == accepted
        energy = sum(a["total_energy"] for a in aggregates)
        assert samples["repro_service_trace_energy_sum"] == pytest.approx(
            energy, rel=1e-5
        )
        assert 'repro_service_trace_energy{quantile="0.5"}' in samples
