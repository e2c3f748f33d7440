"""OpTable columns, aggregates, fingerprinting and interning."""

import random

import pytest

from repro.core.config import ConfigTable, OperatingPoint
from repro.optable import (
    OpTable,
    as_optable,
    fingerprint_points,
    intern_info,
    iter_point_rows,
    optables_for,
    to_config_table,
)
from repro.platforms.resources import ResourceVector


def points_fixture():
    return [
        OperatingPoint(ResourceVector([2, 0]), 10.0, 4.0),
        OperatingPoint(ResourceVector([0, 1]), 5.0, 7.5),
        OperatingPoint(ResourceVector([2, 1]), 4.0, 9.0),
        OperatingPoint(ResourceVector([1, 1]), 5.0, 7.5),
    ]


class TestColumns:
    def test_columns_mirror_the_rows(self):
        table = as_optable(points_fixture())
        assert table.times == (10.0, 5.0, 4.0, 5.0)
        assert table.energies == (4.0, 7.5, 9.0, 7.5)
        assert table.resources == ((2, 0), (0, 1), (2, 1), (1, 1))
        assert table.scales == (1.0, 1.0, 1.0, 1.0)
        assert table.powers[0] == 4.0 / 10.0
        assert table.dimension == 2
        assert table.demand_columns == ((2, 0, 2, 1), (0, 1, 1, 1))

    def test_container_protocol(self):
        points = points_fixture()
        table = as_optable(points)
        assert len(table) == 4
        assert list(table) == list(points)
        assert table[2] is table.points[2]


class TestAggregates:
    def test_orders_and_minima(self):
        table = as_optable(points_fixture())
        # Stable energy order: the two 7.5-J points keep index order.
        assert table.order_by_energy == (0, 1, 3, 2)
        # Makespan order breaks the 5.0-s tie by energy, then index.
        assert table.order_by_makespan == (2, 1, 3, 0)
        assert table.argmin_time == 2
        assert table.argmin_energy == 0
        assert table.min_time == 4.0
        assert table.min_energy == 4.0
        assert table.max_demand == (2, 1)

    @pytest.mark.parametrize("size", [4, 32, 150])
    def test_orders_and_minima_on_tables_of_any_size(self, size):
        # Few distinct values, so every size has ties the orders and minima
        # must break by index.
        rng = random.Random(size)
        points = [
            OperatingPoint(
                ResourceVector([rng.randrange(1, 3), rng.randrange(0, 3)]),
                float(rng.randrange(1, 6)),
                float(rng.randrange(1, 6)) / 2,
            )
            for _ in range(size)
        ]
        table = as_optable(points)
        times = [p.execution_time for p in points]
        energies = [p.energy for p in points]
        assert table.order_by_energy == tuple(
            sorted(range(size), key=lambda i: (energies[i], i))
        )
        first_fastest = next(i for i, t in enumerate(times) if t == min(times))
        first_cheapest = next(i for i, e in enumerate(energies) if e == min(energies))
        assert table.argmin_time == first_fastest
        assert table.argmin_energy == first_cheapest
        assert table.min_time == min(times)
        assert table.min_energy == min(energies)

    def test_pareto_index_drops_dominated_points(self):
        # Index 3 ((1,1) @ 5.0s/7.5J) is dominated by index 1 ((0,1) with the
        # same time and energy); the appended index 4 is a slower twin of
        # index 2.  Both must drop out of the Pareto index.
        points = points_fixture() + [
            OperatingPoint(ResourceVector([2, 1]), 5.0, 9.0)
        ]
        table = as_optable(points)
        assert table.pareto_index == (0, 1, 2)

    def test_fitting_indices(self):
        table = as_optable(points_fixture())
        assert table.fitting_indices((2, 0)) == (0,)
        assert table.fitting_indices((2, 1)) == (0, 1, 2, 3)
        assert table.fitting_indices((0, 0)) == ()


class TestInterning:
    def test_identical_point_lists_share_one_instance(self):
        first = as_optable(points_fixture())
        second = as_optable(points_fixture())
        assert first is second

    def test_interning_ignores_application_names(self):
        a = ConfigTable("app-a", points_fixture())
        b = ConfigTable("app-b", points_fixture())
        assert a.optable is b.optable

    def test_config_table_optable_is_cached(self):
        table = ConfigTable("app", points_fixture())
        assert table.optable is table.optable

    def test_fingerprint_distinguishes_content(self):
        base = points_fixture()
        changed = list(base)
        changed[0] = OperatingPoint(ResourceVector([2, 0]), 10.0, 4.0001)
        assert fingerprint_points(base) != fingerprint_points(changed)
        scale = list(base)
        scale[0] = OperatingPoint(ResourceVector([2, 0]), 10.0, 4.0, frequency_scale=0.8)
        assert fingerprint_points(base) != fingerprint_points(scale)

    def test_intern_info_counts(self):
        before = intern_info()
        as_optable(points_fixture())
        after = intern_info()
        assert after["tables"] >= before["tables"]
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            as_optable([])


class TestAdapters:
    def test_round_trip_through_config_table(self):
        table = as_optable(points_fixture())
        config = to_config_table(table, "app")
        assert isinstance(config, ConfigTable)
        assert config.points == table.points
        assert config.optable is table

    def test_optables_for_mapping(self):
        tables = {
            "a": ConfigTable("a", points_fixture()),
            "b": ConfigTable("b", points_fixture()[:2]),
        }
        columnar = optables_for(tables)
        assert set(columnar) == {"a", "b"}
        assert all(isinstance(t, OpTable) for t in columnar.values())

    def test_iter_point_rows(self):
        rows = list(iter_point_rows(points_fixture()))
        assert rows[0] == (0, (2, 0), 10.0, 4.0)
        assert len(rows) == 4
