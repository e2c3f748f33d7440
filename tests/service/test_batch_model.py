"""Batches are tuples of ExperimentSpecs, wired as ``Session.run`` wires one.

The digests below pin the results of representative batches — the CI smoke
file, a DSE batch over a cold and a warm store, motivational and explicit
traces — and the ``repro-rm energy --compare`` totals.  Every executor must
reproduce them bit for bit, with the activation cache on or off, and every
batch result must hold the decisions ``Session.run`` makes for its spec.
"""

import functools

import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.api.spec import (
    DSESpec,
    EnergySpec,
    PlatformSpec,
    SchedulerSpec,
    WorkloadSpec,
)
from repro.cli import main
from repro.dse import tables as dse_tables
from repro.io import tables_to_dict
from repro.runtime.trace import poisson_trace
from repro.service.jobs import BatchSpec
from repro.service.pool import SimulationService, _scheduler_label
from repro.store import ContentStore
from repro.workload.motivational import motivational_platform, motivational_tables

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

EXECUTORS = {
    "serial": dict(workers=1, executor="serial"),
    "thread": dict(workers=2, executor="thread"),
    "cluster": dict(workers=2, executor="cluster"),
}

SMOKE_DIGEST = "8620605705795bd6f43820611045067a91a1c9a9cda40a5d842cb7fd85df20c9"

DSE_DIGESTS = {
    "dse-mmkp-mdf-0.5": "55496e111f3fdf9fef33f59bfc810556fabf90911f035f13f073753b8a28c528",
    "dse-mmkp-mdf-1.5": "8aad1520416828f8fe67f112583e7a67d48a198d891a75b86be7d3b0fb6c97d5",
    "dse-mmkp-lr-0.5": "3f6bc9a45168cacadb281c0323a6dfca3849be9c0f18b66443df4a40c81b643d",
    "dse-mmkp-lr-1.5": "33a9ad05399f718ec364b7828c61cb4741c49945d1cc57ef878573f4d0d0795e",
}

MOTIVATIONAL_DIGEST = "eb2d07752b1ab6784118ef1ac0f74981b590eb15382b82c349be2f6738e5982e"
EXPLICIT_DIGEST = "65c044ef44b8e2682e2103181a2c57b9410c5667e461117ae2fa073de71469ee"

ENERGY_COMPARE_TOTALS = {
    "ondemand": 394.9069858080882,
    "performance": 404.63837315087443,
    "powersave": 328.0191598863797,
    "schedule-aware": 392.2062498038033,
}


def _run(batch, executor: str, **service):
    results = SimulationService(**EXECUTORS[executor], **service).run_batch(batch)
    assert results.failures == [], [r.error for r in results.failures]
    return results


def _dse_specs():
    return [
        ExperimentSpec(
            name=f"dse-{scheduler}-{rate}",
            platform=PlatformSpec(name="odroid-xu4"),
            tables=None,
            dse=DSESpec(max_points=8),
            workload=WorkloadSpec.poisson(arrival_rate=rate, num_requests=6, seed=0),
            scheduler=SchedulerSpec(name=scheduler),
        )
        for scheduler in ("mmkp-mdf", "mmkp-lr")
        for rate in (0.5, 1.5)
    ]


DSE_SEEDS = {"mmkp-mdf": [11, 12, 13], "mmkp-lr": [11]}


def _motivational_batch() -> BatchSpec:
    return BatchSpec(
        "motivational",
        tuple(
            ExperimentSpec(
                name=f"mot-{scenario}-{scheduler}-{int(remap)}",
                workload=WorkloadSpec.scenario(scenario),
                scheduler=SchedulerSpec(name=scheduler, remap_on_finish=remap),
            )
            for scenario in ("S1", "S2")
            for scheduler, remap in (
                ("mmkp-mdf", False),
                ("mmkp-lr", False),
                ("fixed", True),
            )
        ),
    )


def _explicit_batch() -> BatchSpec:
    trace = poisson_trace(
        motivational_tables(), arrival_rate=0.3, num_requests=8, seed=5
    )
    return BatchSpec(
        "explicit",
        tuple(
            ExperimentSpec(
                name=f"explicit-{scheduler}",
                workload=WorkloadSpec.from_trace(trace),
                scheduler=SchedulerSpec(name=scheduler),
            )
            for scheduler in ("mmkp-mdf", "mmkp-lr", "fixed")
        ),
    )


class TestPinnedFingerprints:
    @pytest.mark.parametrize(
        "form", ["smoke_batch.json", "smoke_batch_experiments.json"]
    )
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_smoke_batch_in_either_file_form(self, form, executor):
        batch = BatchSpec.load(SPECS / form)
        assert len(batch) == 10
        assert _run(batch, executor).fingerprint() == SMOKE_DIGEST

    def test_both_smoke_files_describe_one_batch(self):
        assert BatchSpec.load(SPECS / "smoke_batch.json") == BatchSpec.load(
            SPECS / "smoke_batch_experiments.json"
        )

    def test_dse_batch_over_a_cold_then_a_warm_store(self, tmp_path):
        path = tmp_path / "store.db"
        store = ContentStore.open(path)
        sessions = [Session.from_spec(spec) for spec in _dse_specs()]
        for session in sessions:
            session.explore(executor="cluster", workers=2, store=store)
        try:
            for service_store in (store, None):
                if service_store is None:
                    store.close()
                    service_store = ContentStore.open(path)
                service = SimulationService(
                    executor="cluster", workers=2, store=service_store
                )
                digests = {}
                for session in sessions:
                    results = session.run_batch(
                        seeds=DSE_SEEDS[session.spec.scheduler.name], service=service
                    )
                    assert results.failures == []
                    digests[session.spec.name] = results.fingerprint()
                assert digests == DSE_DIGESTS
        finally:
            service_store.close()

    @pytest.mark.parametrize("executor", ["serial", "cluster"])
    def test_motivational_and_explicit_batches(self, executor):
        motivational = _run(_motivational_batch(), executor)
        assert motivational.fingerprint() == MOTIVATIONAL_DIGEST
        assert _run(_explicit_batch(), executor).fingerprint() == EXPLICIT_DIGEST

    def test_energy_compare_totals(self, tmp_path, capsys):
        output = tmp_path / "energy.json"
        code = main(
            [
                "energy",
                "--spec",
                str(SPECS / "smoke_batch.json"),
                "--compare",
                "--output",
                str(output),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads(output.read_text())["totals"] == ENERGY_COMPARE_TOTALS


def _dse_batch() -> BatchSpec:
    """The batch-sweep benchmark's shape: DSE tables, both schedulers, seeds."""
    experiments = ()
    for spec in _dse_specs():
        seeds = DSE_SEEDS[spec.scheduler.name]
        experiments += Session.from_spec(spec).to_batch(seeds=seeds).experiments
    return BatchSpec("dse", experiments)


def _shape(name: str) -> BatchSpec:
    """One batch per spec shape that crosses the process boundary."""
    poisson = WorkloadSpec.poisson(arrival_rate=0.3, num_requests=6, seed=1)
    if name == "named-tables":
        base = ExperimentSpec(
            name=name,
            platform=PlatformSpec(name="odroid-xu4"),
            tables="paper-reduced",
            workload=poisson,
        )
    elif name == "inline":
        base = ExperimentSpec(
            name=name,
            platform=PlatformSpec.from_platform(motivational_platform()),
            tables=None,
            tables_inline=tables_to_dict(motivational_tables()),
            workload=poisson,
        )
    elif name == "options":
        base = ExperimentSpec(
            name=name,
            workload=poisson,
            scheduler=SchedulerSpec(
                name="mmkp-lr", options={"max_subgradient_iterations": 2}
            ),
        )
    elif name == "energy-policy":
        base = ExperimentSpec(
            name=name,
            platform=PlatformSpec(name="odroid-xu4"),
            tables="paper-reduced",
            workload=poisson,
            energy=EnergySpec(governor="schedule-aware", power_cap_watts=6.0),
        )
    elif name == "motivational":
        return _motivational_batch()
    elif name == "smoke":
        return BatchSpec.load(SPECS / "smoke_batch.json")
    elif name == "dse":
        return _dse_batch()
    else:
        assert name == "explicit"
        return _explicit_batch()
    return Session.from_spec(base).to_batch(seeds=[1, 2, 3])


#: Every shape above, checked against ``Session.run`` of each experiment.
SESSION_SHAPES = [
    "named-tables",
    "inline",
    "options",
    "energy-policy",
    "motivational",
    "explicit",
    "smoke",
    "dse",
]


class TestExecutorDeterminism:
    @pytest.mark.parametrize(
        "shape",
        [
            "named-tables",
            "inline",
            "options",
            "energy-policy",
            "motivational",
            "explicit",
        ],
    )
    def test_every_executor_agrees(self, shape):
        batch = _shape(shape)
        digests = {
            executor: _run(batch, executor).fingerprint() for executor in EXECUTORS
        }
        assert len(set(digests.values())) == 1, digests

    def test_dse_section_resolves_from_the_memo_in_every_worker(self, monkeypatch):
        dse_tables._TABLES.clear()
        session = Session.from_spec(_dse_specs()[0])
        session.explore(executor="serial")

        def no_exploration(*args, **kwargs):
            raise AssertionError("a batch job explored the design space again")

        # Forked workers inherit both the memo and this patch.
        monkeypatch.setattr(dse_tables, "paper_operating_points", no_exploration)
        digests = {
            executor: session.run_batch(
                seeds=[1, 2], service=SimulationService(**EXECUTORS[executor])
            )
            for executor in EXECUTORS
        }
        for results in digests.values():
            assert results.failures == [], [r.error for r in results.failures]
        assert len({results.fingerprint() for results in digests.values()}) == 1

    @pytest.mark.parametrize("shape", SESSION_SHAPES)
    def test_an_uncached_batch_equals_session_run(self, shape):
        results = _run(_shape(shape), "serial", cache_size=0)
        assert [_decisions(result) for result in results] == _session_decisions(shape)

    @pytest.mark.parametrize("shape", SESSION_SHAPES)
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_a_cached_batch_equals_session_run(self, executor, shape):
        """The activation memo keys each problem as given, so a cached batch
        makes Session.run's decisions, float for float."""
        service = SimulationService(**EXECUTORS[executor])
        assert service.cache is not None
        results = service.run_batch(_shape(shape))
        assert results.failures == [], [r.error for r in results.failures]
        assert [_decisions(result) for result in results] == _session_decisions(shape)


class TestInlineSections:
    """Inline tables and platforms cost no more per job than shared live ones."""

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.api import spec as spec_module
        from repro.io import serialization

        counts = {"tables": 0, "platform": 0}

        def counting(kind, parse):
            def wrapper(data):
                counts[kind] += 1
                return parse(data)

            return wrapper

        spec_module._INLINE.clear()
        spec_module._INLINE_BY_ID.clear()
        for kind, name in (("tables", "tables_from_dict"), ("platform", "platform_from_dict")):
            monkeypatch.setattr(
                serialization, name, counting(kind, getattr(serialization, name))
            )
        return counts

    def test_copies_of_a_spec_share_its_inline_dicts(self):
        batch = _shape("inline")
        (first, *rest) = batch
        assert all(e.tables_inline is first.tables_inline for e in rest)
        assert all(e.platform is first.platform for e in rest)
        sweep = BatchSpec.sweep(
            arrival_rates=[0.2, 0.3],
            traces_per_point=2,
            num_requests=3,
            platform=motivational_platform(),
            tables=motivational_tables(),
        )
        assert len({id(e.tables_inline) for e in sweep}) == 1
        # Data not yet in JSON shape is still copied into it.
        spec = ExperimentSpec(
            name="tuples",
            scheduler=SchedulerSpec(name="mmkp-lr", options={"pair": (1, 2)}),
        )
        assert spec.scheduler.options == {"pair": [1, 2]}

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_each_inline_section_is_parsed_once_per_process(self, parses, executor):
        batch = _shape("inline")
        _run(batch, executor)
        assert parses == {"tables": 1, "platform": 1}
        # An equal section loaded separately resolves by content.
        reloaded = BatchSpec.from_dict(json.loads(json.dumps(batch.to_dict())))
        assert reloaded.experiments[0].tables_inline is not batch.experiments[0].tables_inline
        assert _run(reloaded, executor).fingerprint() == _run(batch, executor).fingerprint()
        assert parses == {"tables": 1, "platform": 1}


def _decision(outcome) -> tuple:
    """The deterministic fields of one request outcome, floats by ``repr``."""
    return (
        outcome.name,
        outcome.accepted,
        repr(outcome.arrival),
        repr(outcome.deadline),
        repr(outcome.completion_time),
    )


def _decisions(run) -> tuple:
    """A batch result's or an execution log's energy and decisions."""
    return repr(run.total_energy), [_decision(o) for o in run.outcomes]


@functools.lru_cache(maxsize=None)
def _session_decisions(shape: str) -> list:
    """What ``Session.run`` decides for every experiment of the shape."""
    return [_decisions(Session.from_spec(spec).run()) for spec in _shape(shape)]


class TestSchedulerOptions:
    OPTIONS = {"max_subgradient_iterations": 2}

    def _batch(self, options) -> BatchSpec:
        spec = ExperimentSpec(
            name="lr-options" if options else "lr-default",
            workload=WorkloadSpec.poisson(arrival_rate=0.3, num_requests=6, seed=5),
            scheduler=SchedulerSpec(name="mmkp-lr", options=options),
        )
        return Session.from_spec(spec).to_batch(seeds=[5, 6, 7])

    def test_label_keeps_bare_names_and_separates_options(self):
        assert _scheduler_label(SchedulerSpec(name="mmkp-lr")) == "mmkp-lr"
        assert (
            _scheduler_label(SchedulerSpec(name="mmkp-lr", options=self.OPTIONS))
            == 'mmkp-lr{"max_subgradient_iterations":2}'
        )

    def test_option_sets_stay_separate_groups_in_one_batch(self):
        batch = BatchSpec(
            "two-option-sets",
            self._batch({}).experiments + self._batch(self.OPTIONS).experiments,
        )
        results = SimulationService(workers=1).run_batch(batch)
        assert results.failures == []
        labels = ["mmkp-lr", 'mmkp-lr{"max_subgradient_iterations":2}']
        assert [r.scheduler for r in results] == [labels[0]] * 3 + [labels[1]] * 3
        suite = results.to_suite_results()
        assert sorted(suite.schedulers) == sorted(labels)
        assert [len(suite.runs_of(label)) for label in labels] == [3, 3]

    @pytest.mark.parametrize("options_first", [False, True])
    def test_option_sets_never_share_activations(self, options_first):
        batches = [self._batch({}), self._batch(self.OPTIONS)]
        if options_first:
            batches.reverse()
        shared = SimulationService(workers=1)
        for batch in batches:
            cached = shared.run_batch(batch)
            alone = SimulationService(workers=1).run_batch(batch)
            uncached = SimulationService(workers=1, cache_size=0).run_batch(batch)
            # The shared memo serves each option set exactly what a memo of
            # its own would, and what the uncached run computes.
            assert cached.failures == []
            assert cached.fingerprint() == alone.fingerprint() == uncached.fingerprint()
        uncached = SimulationService(workers=1, cache_size=0)
        default, configured = (
            uncached.run_batch(self._batch(options)) for options in ({}, self.OPTIONS)
        )
        assert [r.total_energy for r in default] != [r.total_energy for r in configured]


class TestAccountEnergy:
    def test_batches_honour_account_energy_off(self):
        spec = ExperimentSpec(
            name="no-accounting",
            platform=PlatformSpec(name="odroid-xu4"),
            tables="paper-reduced",
            workload=WorkloadSpec.poisson(arrival_rate=0.3, num_requests=6, seed=1),
            energy=EnergySpec(account_energy=False),
        )
        session = Session.from_spec(spec)
        batch = session.to_batch(seeds=[1, 2, 3])
        for executor in EXECUTORS:
            results = session.run_batch(
                seeds=[1, 2, 3],
                service=SimulationService(**EXECUTORS[executor], cache_size=0),
            )
            assert results.failures == []
            for trial, result in zip(batch, results):
                assert result.cluster_energy == ()
                log = Session.from_spec(trial).run()
                assert result.total_energy == log.total_energy

