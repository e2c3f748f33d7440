"""The incremental Pareto frontier vs the seed's pairwise reference."""

import random

import pytest

from repro.dse.pareto import DEFAULT_TOLERANCE, pareto_front
from repro.optable import ParetoFrontier, pareto_select
from tests.reference.pareto import pareto_front_reference


def reference_select(vectors, tolerance):
    """Index-level reimplementation of the seed's pairwise filter."""

    def dominates(a, b):
        return all(x <= y + tolerance for x, y in zip(a, b)) and any(
            x < y - tolerance for x, y in zip(a, b)
        )

    survivors = []
    seen = []
    for index, vector in enumerate(vectors):
        if any(
            dominates(other, vector)
            for j, other in enumerate(vectors)
            if j != index
        ):
            continue
        if vector in seen:
            continue
        seen.append(vector)
        survivors.append(index)
    return survivors


class TestParetoSelect:
    def test_simple_front(self):
        assert pareto_select([(1, 5), (2, 2), (3, 3)]) == [0, 1]

    def test_duplicates_collapse_to_first_occurrence(self):
        assert pareto_select([(2, 2), (1, 5), (2, 2)]) == [0, 1]

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(2020)
        for _ in range(300):
            n = rng.randrange(1, 50)
            dim = rng.randrange(1, 4)
            vectors = [
                tuple(float(rng.randrange(0, 7)) for _ in range(dim))
                for _ in range(n)
            ]
            for tolerance in (0.0, DEFAULT_TOLERANCE):
                assert pareto_select(vectors, tolerance) == reference_select(
                    vectors, tolerance
                ), vectors

    def test_mixed_lengths_raise(self):
        with pytest.raises(ValueError):
            pareto_select([(1.0, 2.0), (1.0,)])

    def test_per_dimension_tolerances(self):
        # The second vector beats the first on dim 2 but is 1e-13 worse on
        # dim 1: with an exact first dimension it does not dominate; with
        # slack on both dimensions it does.
        vectors = [(1.0, 2.0), (1.0 + 1e-13, 1.0)]
        assert pareto_select(vectors, (0.0, 1e-12)) == [0, 1]
        assert pareto_select(vectors, (1e-12, 1e-12)) == [1]


class TestParetoFrontier:
    def test_incremental_eviction(self):
        frontier = ParetoFrontier(2)
        assert frontier.add("a", (3.0, 3.0))
        assert frontier.add("b", (1.0, 4.0))
        assert len(frontier) == 2
        # Dominates "a" but not "b".
        assert frontier.add("c", (2.0, 2.0))
        assert frontier.survivors() == ["b", "c"]

    def test_dominated_candidate_rejected(self):
        frontier = ParetoFrontier(2)
        frontier.add("a", (1.0, 1.0))
        assert not frontier.add("b", (2.0, 2.0))
        assert frontier.survivors() == ["a"]

    def test_near_tie_chain_with_tolerance_matches_reference(self):
        # y dominates x, z dominates y, but z does *not* dominate x under the
        # tolerance (z is over-slack worse than x on dim 2): the verification
        # pass must still drop x (the reference drops it because y —
        # dominated itself — dominates x).
        tol = 0.5
        x, y, z = (2.0, 0.0), (1.4, 0.4), (0.8, 0.9)
        for order in ([x, y, z], [z, y, x], [y, z, x]):
            frontier = ParetoFrontier(2, tol)
            for vector in order:
                frontier.add(vector, vector)
            assert frontier.survivors() == [z], order

    def test_dimension_mismatch_raises(self):
        frontier = ParetoFrontier(2)
        with pytest.raises(ValueError):
            frontier.add("a", (1.0,))


class TestParetoFrontFunction:
    def test_behaves_like_reference(self):
        rng = random.Random(7)
        for _ in range(100):
            items = [
                (rng.randrange(0, 5), rng.randrange(0, 5)) for _ in range(rng.randrange(1, 30))
            ]
            assert pareto_front(items, objectives=lambda p: p) == pareto_front_reference(
                items, objectives=lambda p: p
            )

    def test_exposed_tolerance_constant(self):
        assert DEFAULT_TOLERANCE == 1e-12

    def test_tie_key_makes_representative_order_independent(self):
        # Two items with identical costs but different payloads: without a
        # tie_key the input order picks the survivor; with one, the smallest
        # key wins regardless of shuffling.
        a = {"name": "a", "cost": (1.0, 1.0)}
        b = {"name": "b", "cost": (1.0, 1.0)}
        cost = lambda item: item["cost"]  # noqa: E731
        assert pareto_front([a, b], objectives=cost) == [a]
        assert pareto_front([b, a], objectives=cost) == [b]
        key = lambda item: item["name"]  # noqa: E731
        assert pareto_front([a, b], objectives=cost, tie_key=key) == [a]
        assert pareto_front([b, a], objectives=cost, tie_key=key) == [a]

    def test_mixed_lengths_raise(self):
        with pytest.raises(ValueError):
            pareto_front([(1, 2), (1,)], objectives=lambda p: p)
