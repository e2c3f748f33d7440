"""Energy policy through the batch service, the DSE sweep and the CLI."""

import json

import pytest

from repro.cli import main
from repro.dataflow import audio_filter
from repro.dse import DesignSpaceExplorer
from repro.energy import available_scales
from repro.exceptions import WorkloadError
from repro.platforms import odroid_xu4
from repro.api import ExperimentSpec
from repro.api.spec import EnergySpec, PlatformSpec, WorkloadSpec
from repro.service import BatchSpec, SimulationService


def _sweep(**overrides) -> BatchSpec:
    parameters = dict(
        arrival_rates=[0.25], traces_per_point=3, num_requests=4, name="energy-test"
    )
    parameters.update(overrides)
    return BatchSpec.sweep(**parameters)


class TestBatchEnergyFields:
    def test_round_trip_and_defaults(self):
        spec = _sweep().with_energy_policy(
            governor="schedule-aware", power_cap_watts=5.0, energy_budget_joules=100.0
        )
        assert BatchSpec.from_dict(spec.to_dict()) == spec
        # Unset fields stay out of the serialised form (seed specs unchanged).
        payload = _sweep().to_dict()["experiments"][0]
        assert "energy" not in payload
        assert BatchSpec.from_dict(_sweep().to_dict()).experiments[0].energy == EnergySpec()

    def test_unknown_governor_rejected(self):
        with pytest.raises(WorkloadError):
            _sweep().with_energy_policy(governor="turbo")


class TestServiceEnergy:
    def test_batch_results_carry_cluster_energy(self):
        results = SimulationService().run_batch(_sweep())
        assert not results.failures
        clusters = results.cluster_energy()
        assert set(clusters) == {"little", "big"}
        assert all(entry["total"] > 0 for entry in clusters.values())
        payload = results.to_dict()
        assert payload["results"][0]["cluster_energy"]["big"]["total"] > 0
        assert payload["aggregate"]["budget_rejections"] == 0
        json.dumps(payload)  # stays JSON-ready

    def test_governor_reduces_batch_energy_deterministically(self):
        fixed = SimulationService().run_batch(
            _sweep().with_energy_policy(governor="performance")
        )
        aware = SimulationService().run_batch(
            _sweep().with_energy_policy(governor="schedule-aware")
        )
        assert not fixed.failures and not aware.failures
        assert (
            aware.aggregate()["total_energy"] < fixed.aggregate()["total_energy"]
        )
        # Determinism holds with governors too: any worker count agrees.
        again = SimulationService(workers=3, executor="thread").run_batch(
            _sweep().with_energy_policy(governor="schedule-aware")
        )
        assert again.fingerprint() == aware.fingerprint()

    def test_power_cap_surfaces_budget_rejections(self):
        results = SimulationService().run_batch(
            _sweep().with_energy_policy(power_cap_watts=0.5)
        )
        assert results.aggregate()["budget_rejections"] > 0
        # The batch total is the sum of its traces' counts, and each budget
        # rejection is a rejection.
        assert results.aggregate()["budget_rejections"] == sum(
            r.budget_rejections for r in results.ok
        )
        assert all(r.budget_rejections <= r.rejected for r in results.ok)

    def test_request_energy_sums_to_the_batch_energy(self):
        results = SimulationService().run_batch(_sweep())
        request_energy = [
            o.energy for r in results.ok for o in r.outcomes if o.accepted
        ]
        assert len(request_energy) == results.aggregate()["accepted"] > 0
        assert sum(request_energy) == pytest.approx(
            results.aggregate()["total_energy"], rel=1e-9
        )


class TestDSESweepColumn:
    def test_swept_table_serialises_frequency_column(self, tmp_path):
        from repro.io import load_json, save_json, tables_from_dict, tables_to_dict

        platform = odroid_xu4()
        explorer = DesignSpaceExplorer(platform)
        graph = audio_filter().graph
        table = explorer.explore(
            graph, application_name="audio", opp_scales=available_scales(platform)
        )
        scales = {point.frequency_scale for point in table}
        assert len(scales) > 1  # the frequency column is populated
        assert any(point.frequency_scale < 1.0 for point in table)
        assert table.is_pareto_optimal()

        path = tmp_path / "tables.json"
        save_json(tables_to_dict({"audio": table}), path)
        restored = tables_from_dict(load_json(path))["audio"]
        assert restored == table


class TestInlinePlatformRoundTrip:
    def test_opp_ladders_survive_serialization(self):
        from repro.io import platform_from_dict, platform_to_dict

        platform = odroid_xu4()
        restored = platform_from_dict(platform_to_dict(platform))
        assert restored == platform
        for base, back in zip(platform.processor_types, restored.processor_types):
            assert back.has_opps
            assert back.opps.scales() == base.opps.scales()
            assert back.opps.nominal.power == base.opps.nominal.power
        # A ladder-less platform serialises without the opps key (seed form).
        from repro.platforms import big_little

        payload = platform_to_dict(big_little(2, 2))
        assert all("opps" not in entry for entry in payload["processor_types"])

    def test_malformed_opps_raise_serialization_error(self):
        from repro.exceptions import SerializationError
        from repro.io import platform_from_dict, platform_to_dict

        payload = platform_to_dict(odroid_xu4())
        # Drop the nominal point: the ladder becomes invalid.
        payload["processor_types"][0]["opps"] = [
            point
            for point in payload["processor_types"][0]["opps"]
            if point["speed"] != 1.0
        ]
        with pytest.raises(SerializationError):
            platform_from_dict(payload)

    def test_inline_platform_governor_fingerprint_survives_process_executor(self):
        spec = ExperimentSpec(
            name="inline",
            platform=PlatformSpec.from_platform(odroid_xu4()),
            workload=WorkloadSpec.poisson(0.2, 3, seed=1),
            energy=EnergySpec(governor="schedule-aware"),
        )
        # A worker process rebuilds the platform from the spec's inline
        # dict; the rebuilt platform must keep the governor's OPP ladders.
        ladders = [t.opps for t in spec.platform.build().processor_types]
        assert all(ladder is not None for ladder in ladders)
        serial = SimulationService(workers=1, executor="serial").run_batch([spec])
        processed = SimulationService(workers=2, executor="process").run_batch([spec])
        assert serial.failures == []
        assert processed.fingerprint() == serial.fingerprint()


class TestGovernorRejectsSweptTables:
    def test_manager_refuses_dvfs_swept_tables_under_governor(self):
        from repro.runtime import RuntimeManager
        from repro.schedulers import MMKPMDFScheduler

        platform = odroid_xu4()
        explorer = DesignSpaceExplorer(platform)
        table = explorer.explore(
            audio_filter().graph,
            application_name="audio",
            opp_scales=available_scales(platform),
        )
        from repro.energy import PerformanceGovernor
        from repro.exceptions import SchedulingError

        with pytest.raises(SchedulingError):
            RuntimeManager.from_components(
                platform,
                {"audio": table},
                MMKPMDFScheduler(),
                governor=PerformanceGovernor(),
            )
        # Without a governor the swept table is fine (picking a slow point
        # is the DVFS decision).
        RuntimeManager.from_components(platform, {"audio": table}, MMKPMDFScheduler())


class TestEnergyCLI:
    def test_motivational_energy_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["energy", "--governor", "schedule-aware", "--compare", "--output", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "energy breakdown (schedule-aware governor)" in captured
        assert "total energy by governor:" in captured
        report = json.loads(out.read_text())
        assert report["clusters"]
        assert all(entry["total"] > 0 for entry in report["clusters"].values())
        assert (
            report["totals"]["schedule-aware"] <= report["totals"]["performance"]
        )

    def test_batch_energy_report(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        _sweep().save(spec_path)
        out = tmp_path / "report.json"
        code = main(
            ["energy", "--spec", str(spec_path), "--governor", "ondemand",
             "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["clusters"]) == {"little", "big"}
        assert report["aggregate"]["traces"] == 3
