"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.io import save_json, tables_to_dict
from repro.io import test_case_to_dict as case_to_dict
from repro.workload.motivational import motivational_tables
from repro.workload.testgen import DeadlineLevel, TestCaseGenerator


class TestMotivationalCommand:
    def test_prints_the_three_variants(self, capsys):
        assert main(["motivational"]) == 0
        output = capsys.readouterr().out
        assert "Scenario S1" in output
        assert "Scenario S2" in output
        assert "adaptive mapper (MMKP-MDF)" in output


class TestDseCommand:
    def test_writes_tables(self, tmp_path, capsys):
        output = tmp_path / "points.json"
        assert main(["dse", "--output", str(output), "--sizes", "medium"]) == 0
        data = json.loads(output.read_text())
        assert any(name.endswith("/medium") for name in data)
        assert "Pareto points" in capsys.readouterr().out


class TestWorkloadCommand:
    def test_writes_test_cases(self, tmp_path, capsys):
        tables_path = tmp_path / "tables.json"
        save_json(tables_to_dict(motivational_tables()), tables_path)
        output = tmp_path / "workload.json"
        code = main(
            [
                "workload",
                "--tables",
                str(tables_path),
                "--output",
                str(output),
                "--fraction",
                "0.01",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert len(data["cases"]) >= 8
        assert "Table III" in capsys.readouterr().out


class TestScheduleCommand:
    def test_schedules_an_exported_case(self, tmp_path, capsys):
        tables = motivational_tables()
        tables_path = tmp_path / "tables.json"
        save_json(tables_to_dict(tables), tables_path)
        case = TestCaseGenerator(tables, seed=8).generate_case(2, DeadlineLevel.WEAK)
        case_path = tmp_path / "case.json"
        save_json(case_to_dict(case), case_path)

        code = main(
            [
                "schedule",
                str(case_path),
                "--tables",
                str(tables_path),
                "--scheduler",
                "mmkp-mdf",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "energy" in output
        assert "[" in output  # at least one printed segment


class TestBatchCommand:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        from repro.service import BatchSpec

        spec = BatchSpec.sweep(
            arrival_rates=[0.2],
            traces_per_point=4,
            num_requests=3,
            name="cli-smoke",
        )
        path = tmp_path / "batch.json"
        spec.save(path)
        return path

    def test_runs_a_batch_and_prints_its_cache_counts(
        self, spec_path, tmp_path, capsys
    ):
        output_path = tmp_path / "results.json"
        code = main(
            ["batch", str(spec_path), "--workers", "2", "--output", str(output_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "batch cli-smoke: 4 traces" in output
        activations = json.loads(output_path.read_text())["aggregate"]["activations"]
        hits, misses = _cache_counts(output)
        assert hits + misses == activations > 0

    def test_cache_off_says_so(self, spec_path, capsys):
        assert main(["batch", str(spec_path), "--cache-size", "0"]) == 0
        assert _cache_line(capsys.readouterr().out) == (
            "activation cache: off (--cache-size 0)"
        )

    def test_quiet_is_gone(self, spec_path):
        with pytest.raises(SystemExit):
            main(["batch", str(spec_path), "--quiet"])

    def test_writes_result_summaries(self, spec_path, tmp_path, capsys):
        output_path = tmp_path / "results.json"
        code = main(["batch", str(spec_path), "--output", str(output_path)])
        assert code == 0
        data = json.loads(output_path.read_text())
        assert data["aggregate"]["traces"] == 4
        assert len(data["results"]) == 4

    def test_shard_selects_a_subset(self, spec_path, capsys):
        assert main(["batch", str(spec_path), "--shard", "0/2"]) == 0
        assert "2 traces" in capsys.readouterr().out

    def test_invalid_shard_is_reported(self, spec_path):
        assert main(["batch", str(spec_path), "--shard", "bogus"]) == 2

    def test_failing_jobs_set_exit_code(self, tmp_path, capsys):
        from repro.api import ExperimentSpec, WorkloadSpec
        from repro.runtime import RequestEvent, RequestTrace
        from repro.service import BatchSpec

        ghost = RequestTrace([RequestEvent(0.0, "ghost-app", 5.0, "r0")])
        spec = BatchSpec(
            "failing",
            (ExperimentSpec(name="bad", workload=WorkloadSpec.from_trace(ghost)),),
        )
        path = tmp_path / "failing.json"
        spec.save(path)
        assert main(["batch", str(path)]) == 1
        assert "FAILED bad" in capsys.readouterr().out

    def test_a_store_keeps_only_activations(self, tmp_path, capsys):
        from repro.service import BatchSpec

        spec_path = tmp_path / "lr.json"
        BatchSpec.sweep(
            arrival_rates=[0.5],
            schedulers=["mmkp-lr"],
            traces_per_point=2,
            num_requests=5,
            name="cli-store",
        ).save(spec_path)
        store = str(tmp_path / "store.db")
        for _ in range(2):  # cold, then warm
            assert main(["batch", str(spec_path), "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", store, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["namespaces"]
        assert all(name.startswith("activation:") for name in stats["namespaces"])


    def test_warm_store_counts_hits_where_they_are_made(
        self, spec_path, tmp_path, capsys
    ):
        """A warm serial rerun hits on every activation; on the cluster
        executor the counts stay in the workers, and no hit rate is shown."""
        store = str(tmp_path / "store.db")
        assert main(["batch", str(spec_path), "--store", store]) == 0
        cold = capsys.readouterr().out
        assert main(["batch", str(spec_path), "--store", store]) == 0
        warm = capsys.readouterr().out
        _, cold_misses = _cache_counts(cold)
        assert _cache_counts(warm) == (cold_misses, 0)
        try:
            code = main(
                ["batch", str(spec_path), "--store", store,
                 "--executor", "cluster", "--workers", "2"]
            )
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pools unavailable in this sandbox: {error}")
        assert code == 0
        output = capsys.readouterr().out
        assert "worker processes" in _cache_line(output)
        # No line of the run reports a 0.0 % (or 0.0%) cache hit rate.
        assert not [
            line for line in output.splitlines()
            if "cache" in line and re.search(r"(?<![\d.])0\.0 ?%", line)
        ]


def _cache_line(output: str) -> str:
    """The activation-cache line of ``repro-rm batch``'s output."""
    (line,) = [
        line for line in output.splitlines() if line.startswith("activation cache:")
    ]
    return line


def _cache_counts(output: str) -> tuple[int, int]:
    """The hits and misses the activation-cache line reports."""
    match = re.match(r"activation cache: (\d+) hits, (\d+) misses", _cache_line(output))
    assert match, output
    return int(match[1]), int(match[2])


class TestArgumentParsing:
    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_scheduler_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["schedule", "case.json", "--tables", "t.json", "--scheduler", "magic"])

    def test_store_command_requires_a_store_path(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["store", "stats"])
        assert exit_info.value.code == 2
        assert "--store" in capsys.readouterr().err


class TestRunCommand:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        from repro.api import ExperimentSpec, WorkloadSpec

        spec = ExperimentSpec(
            name="cli-run",
            workload=WorkloadSpec.poisson(arrival_rate=0.25, num_requests=4, seed=2),
        )
        path = tmp_path / "experiment.json"
        spec.save(path)
        return path

    def test_runs_a_single_experiment(self, spec_path, capsys):
        assert main(["run", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "experiment cli-run" in output
        assert "acceptance" in output

    def test_stream_prints_run_events(self, spec_path, capsys):
        assert main(["run", str(spec_path), "--stream"]) == 0
        output = capsys.readouterr().out
        assert "arrival" in output
        assert "commit" in output

    def test_writes_the_summary_json(self, spec_path, tmp_path, capsys):
        output_path = tmp_path / "summary.json"
        assert main(["run", str(spec_path), "--output", str(output_path)]) == 0
        data = json.loads(output_path.read_text())
        assert data["name"] == "cli-run"
        assert data["requests"] == 4
        assert data["accepted"] + data["rejected"] == 4

    def test_trials_fan_out_through_the_service(self, spec_path, tmp_path, capsys):
        output_path = tmp_path / "trials.json"
        code = main(
            [
                "run",
                str(spec_path),
                "--trials",
                "3",
                "--workers",
                "2",
                "--output",
                str(output_path),
            ]
        )
        assert code == 0
        assert "batch cli-run: 3 traces" in capsys.readouterr().out
        data = json.loads(output_path.read_text())
        assert data["aggregate"]["traces"] == 3
        assert {entry["job_name"] for entry in data["results"]} == {
            "cli-run-t000",
            "cli-run-t001",
            "cli-run-t002",
        }

    def test_engine_option_is_gone(self, spec_path, capsys):
        # One time-advance engine is left, so there is nothing to override.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(spec_path), "--engine", "linear"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_trial_results_carry_no_engine_field(self, spec_path, tmp_path):
        output_path = tmp_path / "trials.json"
        code = main(
            ["run", str(spec_path), "--trials", "2", "--output", str(output_path)]
        )
        assert code == 0
        data = json.loads(output_path.read_text())
        assert len(data["results"]) == 2
        assert all("engine" not in entry for entry in data["results"])

    def test_spec_file_with_the_retired_engine_field_runs(self, tmp_path):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"name": "old", "engine": "events"}))
        output_path = tmp_path / "old.json"
        assert main(["run", str(legacy), "--output", str(output_path)]) == 0
        assert "engine" not in json.loads(output_path.read_text())

    def test_invalid_spec_file_reports_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"engine\": \"quantum\"}")
        assert main(["run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unusable_lr_iteration_cap_exits_2(self, tmp_path, capsys):
        from repro.api import ExperimentSpec, SchedulerSpec, WorkloadSpec

        path = tmp_path / "cap.json"
        ExperimentSpec(
            name="cli-cap",
            workload=WorkloadSpec.scenario("S1"),
            scheduler=SchedulerSpec(
                name="mmkp-lr", options={"max_subgradient_iterations": 0}
            ),
        ).save(path)
        assert main(["run", str(path)]) == 2
        assert "max_subgradient_iterations" in capsys.readouterr().err

    def test_missing_spec_file_reports_an_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_streamed_run_matches_plain_run(self, spec_path, tmp_path):
        plain = tmp_path / "plain.json"
        streamed = tmp_path / "streamed.json"
        assert main(["run", str(spec_path), "--output", str(plain)]) == 0
        assert main(["run", str(spec_path), "--stream", "--output", str(streamed)]) == 0
        assert json.loads(plain.read_text()) == json.loads(streamed.read_text())

    def test_stream_with_trials_is_rejected(self, spec_path, capsys):
        assert main(["run", str(spec_path), "--trials", "2", "--stream"]) == 2
        assert "--stream" in capsys.readouterr().err


class TestBatchShardErrors:
    def test_out_of_range_shard_reports_the_real_error(self, tmp_path, capsys):
        from repro.service import BatchSpec

        spec = BatchSpec.sweep(
            arrival_rates=[0.2], traces_per_point=2, num_requests=2, name="s"
        )
        path = tmp_path / "batch.json"
        spec.save(path)
        assert main(["batch", str(path), "--shard", "3/2"]) == 2
        err = capsys.readouterr().err
        assert "invalid shard 3/2" in err
        assert "expected I/N" not in err
