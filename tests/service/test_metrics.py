"""Tests for the service metric primitives."""

import math

import pytest

import repro.service.metrics as metrics_module
from repro.service.metrics import (
    Counter,
    Histogram,
    escape_help_text,
    escape_label_value,
    prometheus_grouped_lines,
    prometheus_lines,
)


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
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 4.0
        assert histogram.percentile(0.5) in (2.0, 3.0)

    def test_empty_histogram_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.percentile(0.5))
        assert all(math.isnan(value) for value in histogram.quantiles((0.1, 0.9)))

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)
        with pytest.raises(ValueError):
            Histogram("h").quantiles((0.5, -0.1))

    def test_quantiles_equal_one_percentile_each(self):
        histogram = Histogram("h")
        for value in (5.0, 1.0, 9.0, 3.0, 7.0, 2.0):
            histogram.observe(value)
        fractions = (0.0, 0.5, 0.9, 0.99, 1.0)
        assert histogram.quantiles(fractions) == [
            histogram.percentile(fraction) for fraction in fractions
        ]

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


@pytest.fixture()
def sorted_args(monkeypatch):
    """Every object the exposition module passes to ``sorted``."""
    calls = []

    def recording_sorted(values, *args, **kwargs):
        calls.append(values)
        return sorted(values, *args, **kwargs)

    monkeypatch.setattr(metrics_module, "sorted", recording_sorted, raising=False)
    return calls


def _reservoir_sorts(calls, histograms) -> dict[str, int]:
    """How often each histogram's reservoir was sorted."""
    return {
        histogram.name: sum(values is histogram._samples for values in calls)
        for histogram in histograms
    }


class TestOneSortPerRender:
    """A scrape sorts each histogram's reservoir once, for all its quantiles."""

    @staticmethod
    def _filled(name: str, values) -> Histogram:
        histogram = Histogram(name, f"{name} help")
        for value in values:
            histogram.observe(value)
        return histogram

    def test_the_summary_lines_are_unchanged(self, sorted_args):
        histogram = self._filled("h", [float(v) for v in range(10, 0, -1)])
        assert prometheus_lines([], [histogram], prefix="p") == [
            "# HELP p_h h help",
            "# TYPE p_h summary",
            "p_h_count 10",
            "p_h_sum 55",
            'p_h{quantile="0.5"} 5',
            'p_h{quantile="0.9"} 9',
            'p_h{quantile="0.99"} 10',
        ]
        assert prometheus_grouped_lines("g", "", {"a": histogram}, prefix="p") == [
            "# TYPE p_g summary",
            'p_g_count{phase="a"} 10',
            'p_g_sum{phase="a"} 55',
            'p_g{phase="a",quantile="0.5"} 5',
            'p_g{phase="a",quantile="0.9"} 9',
            'p_g{phase="a",quantile="0.99"} 10',
        ]
        assert _reservoir_sorts(sorted_args, [histogram]) == {"h": 2}

    def test_each_nonempty_histogram_is_sorted_once(self, sorted_args):
        full = [self._filled(f"h{i}", [0.5 * v for v in range(200)]) for i in range(3)]
        empty = Histogram("empty")
        prometheus_lines([], [*full, empty], prefix="p")
        assert _reservoir_sorts(sorted_args, [*full, empty]) == {
            "h0": 1, "h1": 1, "h2": 1, "empty": 0,
        }
        sorted_args.clear()
        prometheus_grouped_lines(
            "phase_seconds", "", {"a": full[0], "b": empty, "c": full[1]}
        )
        assert _reservoir_sorts(sorted_args, [*full, empty]) == {
            "h0": 1, "h1": 1, "h2": 0, "empty": 0,
        }
