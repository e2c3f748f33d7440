"""Tests for the service metric primitives."""

import math

import pytest

from repro.service.metrics import (
    Counter,
    Histogram,
    ServiceMetrics,
    escape_help_text,
    escape_label_value,
    prometheus_grouped_lines,
    prometheus_lines,
)
from repro.service.pool import SimulationResult


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in (1.0, 3.0, 2.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(10.0)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0 and histogram.max == 4.0
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 4.0
        assert histogram.percentile(0.5) in (2.0, 3.0)

    def test_empty_histogram_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.percentile(0.5))

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    def test_sample_cap_keeps_exact_totals(self):
        histogram = Histogram("h", max_samples=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.total == pytest.approx(4950.0)


class TestReservoir:
    def test_reservoir_keeps_a_subset_of_observed_values(self):
        histogram = Histogram("h", max_samples=16)
        observed = [float(value) for value in range(1000)]
        for value in observed:
            histogram.observe(value)
        assert len(histogram._samples) == 16
        assert set(histogram._samples) <= set(observed)
        assert histogram.min == 0.0 and histogram.max == 999.0

    def test_reservoir_sees_the_whole_stream_not_the_prefix(self):
        # First-N retention would keep only values < 32; Algorithm R keeps a
        # uniform sample, so late observations must be represented.
        histogram = Histogram("h", max_samples=32)
        for value in range(10_000):
            histogram.observe(float(value))
        assert max(histogram._samples) >= 1000
        assert histogram.percentile(0.9) > histogram.percentile(0.1)

    def test_reservoir_is_deterministic_per_name(self):
        def fill(name):
            histogram = Histogram(name, max_samples=8)
            for value in range(500):
                histogram.observe(float(value))
            return histogram

        assert fill("same")._samples == fill("same")._samples
        assert fill("same").percentile(0.5) == fill("same").percentile(0.5)
        assert fill("same")._samples != fill("other")._samples


def ok_result(**overrides):
    fields = dict(
        job_name="job",
        scheduler="mmkp-mdf",
        requests=10,
        accepted=8,
        rejected=2,
        total_energy=50.0,
        makespan=12.0,
        activations=10,
        search_time_total=0.01,
        wall_time=0.02,
    )
    fields.update(overrides)
    return SimulationResult(**fields)


class TestServiceMetrics:
    def test_observe_result_and_snapshot(self):
        metrics = ServiceMetrics()
        metrics.observe_result(ok_result())
        metrics.observe_result(ok_result(job_name="other", accepted=10, rejected=0))
        metrics.observe_result(
            SimulationResult("bad", "mmkp-mdf", "events", error="boom")
        )
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["traces_run"] == 2
        assert snapshot["counters"]["traces_failed"] == 1
        assert snapshot["counters"]["requests_total"] == 20
        assert snapshot["counters"]["requests_accepted"] == 18
        assert metrics.acceptance_rate == pytest.approx(0.9)
        assert snapshot["histograms"]["trace_energy"]["count"] == 2

    def test_observe_cache_and_hit_rate(self):
        metrics = ServiceMetrics()
        metrics.observe_cache({"hits": 30, "misses": 10})
        assert metrics.cache_hit_rate == pytest.approx(0.75)
        assert metrics.snapshot()["derived"]["cache_hit_rate"] == pytest.approx(0.75)

    def test_format_renders_counters(self):
        metrics = ServiceMetrics()
        metrics.observe_result(ok_result())
        text = metrics.format()
        assert "traces_run" in text
        assert "acceptance_rate" in text
        assert "trace_energy" in text


class TestExpositionEscaping:
    def test_label_values_escape_backslash_quote_and_newline(self):
        assert escape_label_value('evil\\label"') == 'evil\\\\label\\"'
        assert escape_label_value("line\nbreak") == "line\\nbreak"
        assert escape_label_value("plain") == "plain"

    def test_help_text_escapes_backslash_and_newline_only(self):
        assert escape_help_text('keep "quotes"\nhere\\') == \
            'keep "quotes"\\nhere\\\\'

    def test_hostile_labels_stay_on_one_exposition_line(self):
        counter = Counter("c", "multi\nline help")
        counter.increment(3)
        lines = prometheus_lines(
            [counter], labels={"tenant": 'evil\\t"en\nant'}
        )
        assert lines == [
            "# HELP repro_c multi\\nline help",
            "# TYPE repro_c counter",
            'repro_c{tenant="evil\\\\t\\"en\\nant"} 3',
        ]


class TestGroupedExposition:
    def _grouped(self):
        solve = Histogram("unused", "")
        for value in (0.1, 0.2, 0.3):
            solve.observe(value)
        commit = Histogram("unused", "")
        return {"phase.solve": solve, "phase.commit": commit}

    def test_one_header_many_label_series(self):
        lines = prometheus_grouped_lines(
            "phase_seconds", "phase durations", self._grouped(), prefix="gw"
        )
        assert lines[0] == "# HELP gw_phase_seconds phase durations"
        assert lines[1] == "# TYPE gw_phase_seconds summary"
        assert sum(line.startswith("# ") for line in lines) == 2
        assert 'gw_phase_seconds_count{phase="phase.solve"} 3' in lines
        assert 'gw_phase_seconds_sum{phase="phase.solve"} 0.6' in lines

    def test_empty_histogram_emits_count_but_no_quantiles(self):
        lines = prometheus_grouped_lines(
            "phase_seconds", "", self._grouped(), prefix="gw"
        )
        assert 'gw_phase_seconds_count{phase="phase.commit"} 0' in lines
        assert not any('phase="phase.commit",quantile=' in line for line in lines)
        assert any('phase="phase.solve",quantile="0.9"' in line for line in lines)

    def test_empty_group_emits_nothing(self):
        assert prometheus_grouped_lines("phase_seconds", "help", {}) == []
