"""Tests for the command-line interface."""

import json

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

    def test_runs_a_batch_and_prints_metrics(self, spec_path, capsys):
        assert main(["batch", str(spec_path), "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "batch cli-smoke: 4 traces" in output
        assert "service metrics" in output
        assert "cache_hit_rate" in output

    def test_writes_result_summaries(self, spec_path, tmp_path, capsys):
        output_path = tmp_path / "results.json"
        code = main(
            ["batch", str(spec_path), "--output", str(output_path), "--quiet"]
        )
        assert code == 0
        data = json.loads(output_path.read_text())
        assert data["aggregate"]["traces"] == 4
        assert len(data["results"]) == 4
        assert "service metrics" not in capsys.readouterr().out

    def test_shard_selects_a_subset(self, spec_path, capsys):
        assert main(["batch", str(spec_path), "--shard", "0/2", "--quiet"]) == 0
        assert "2 traces" in capsys.readouterr().out

    def test_invalid_shard_is_reported(self, spec_path):
        assert main(["batch", str(spec_path), "--shard", "bogus"]) == 2

    def test_failing_jobs_set_exit_code(self, tmp_path, capsys):
        from repro.runtime import RequestEvent, RequestTrace
        from repro.service import BatchSpec, SimulationJob

        ghost = RequestTrace([RequestEvent(0.0, "ghost-app", 5.0, "r0")])
        spec = BatchSpec("failing", (SimulationJob("bad", trace=ghost),))
        path = tmp_path / "failing.json"
        spec.save(path)
        assert main(["batch", str(path), "--quiet"]) == 1
        assert "FAILED bad" in capsys.readouterr().out


class TestArgumentParsing:
    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_scheduler_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["schedule", "case.json", "--tables", "t.json", "--scheduler", "magic"])


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

    def test_trial_results_record_the_event_engine(self, spec_path, tmp_path):
        output_path = tmp_path / "trials.json"
        code = main(
            ["run", str(spec_path), "--trials", "2", "--output", str(output_path)]
        )
        assert code == 0
        data = json.loads(output_path.read_text())
        assert [entry["engine"] for entry in data["results"]] == ["events", "events"]

    def test_invalid_spec_file_reports_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"engine\": \"quantum\"}")
        assert main(["run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

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
