"""Exhaustive allocation-level design-space exploration.

For one application variant (a KPN graph) and one platform the explorer walks
over every core allocation (how many cores of each type the application may
use), builds a balanced process-to-core mapping, simulates it and records the
resulting operating point.  The final table is Pareto-filtered over the
objectives (per-type core usage, execution time, energy), which mirrors the
paper's statement that operating points handed to the runtime manager are
Pareto-filtered.

With ``opp_scales`` the walk additionally sweeps the platform's DVFS
operating points: every allocation is re-simulated on the platform re-pinned
at each uniform frequency scale (:func:`~repro.energy.opp.scaled_platform`),
and the surviving operating points carry the scale in their
``frequency_scale`` column — slower points trade execution time for energy
and enlarge the Pareto front the runtime manager can pick from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.config import ConfigTable, OperatingPoint
from repro.dataflow.graph import KPNGraph
from repro.dataflow.trace import ProcessTrace, TraceGenerator
from repro.dse.pareto import pareto_front
from repro.energy.opp import SCALE_EPSILON, scaled_platform
from repro.exceptions import MappingError
from repro.mapping.allocate import allocation_cores, balance_processes
from repro.mapping.mapping import ProcessMapping
from repro.mapping.simulate import MappingSimulator, SimulationResult
from repro.platforms.platform import Platform
from repro.platforms.resources import ResourceVector


@dataclass(frozen=True)
class ExplorationResult:
    """One evaluated design point.

    Attributes
    ----------
    allocation:
        The explored core allocation.
    mapping:
        The concrete process-to-core mapping built for the allocation.
    simulation:
        Execution time / energy estimate of the mapping.
    operating_point:
        The resulting operating point (resources are the *used* cores, which
        may be fewer than the allocation when the application has fewer
        processes than allocated cores).
    """

    allocation: ResourceVector
    mapping: ProcessMapping
    simulation: SimulationResult
    operating_point: OperatingPoint


class DesignSpaceExplorer:
    """Enumerate, simulate and Pareto-filter core allocations.

    Parameters
    ----------
    platform:
        The target platform.
    simulator:
        The mapping simulator to use; a default trace-driven simulator with a
        deterministic trace generator is created when omitted.
    max_cores_per_type:
        Optional cap on the allocation per resource type (defaults to the
        platform capacity).

    Examples
    --------
    >>> from repro.dataflow import pedestrian_recognition
    >>> from repro.platforms import odroid_xu4
    >>> explorer = DesignSpaceExplorer(odroid_xu4())
    >>> table = explorer.explore(pedestrian_recognition().graph)
    >>> len(table) > 0
    True
    """

    def __init__(
        self,
        platform: Platform,
        simulator: MappingSimulator | None = None,
        max_cores_per_type: Sequence[int] | None = None,
    ):
        self._platform = platform
        self._scaled_platforms: dict[float, Platform] = {}
        #: Allocation enumeration per graph process count (kernel-style
        #: incrementality: an OPP sweep walks the same allocations once per
        #: scale, and a table-set exploration walks them once per variant —
        #: one explorer instance derives them once and replays the tuple).
        self._allocation_cache: dict[int, tuple[ResourceVector, ...]] = {}
        self._simulator = simulator or MappingSimulator(
            trace_generator=TraceGenerator(iterations=20, jitter=0.1, seed=2020)
        )
        if max_cores_per_type is None:
            self._limit = platform.capacity
        else:
            limit = ResourceVector(max_cores_per_type)
            if not limit.fits_into(platform.capacity):
                raise MappingError(
                    f"allocation limit {limit.counts} exceeds platform capacity "
                    f"{platform.capacity.counts}"
                )
            self._limit = limit

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        platform: Platform | None = None,
        simulator: MappingSimulator | None = None,
    ) -> "DesignSpaceExplorer":
        """Build an explorer from a declarative spec.

        ``spec`` is an :class:`~repro.api.spec.ExperimentSpec` (the platform
        comes from its ``platform`` section) or a bare
        :class:`~repro.api.spec.DSESpec` (then ``platform`` is required).
        This is the DSE half of the ``repro.api`` front door; the
        :class:`~repro.api.session.Session` facade calls it for per-graph
        exploration.
        """
        from repro.api.spec import DSESpec, ExperimentSpec

        if isinstance(spec, ExperimentSpec):
            if platform is None:
                platform = spec.platform.build()
        elif not isinstance(spec, DSESpec):
            raise MappingError(
                f"from_spec expects an ExperimentSpec or DSESpec, "
                f"got {type(spec).__name__}"
            )
        if platform is None:
            raise MappingError("a DSESpec alone needs an explicit platform")
        return cls(platform, simulator=simulator)

    # ------------------------------------------------------------------ #
    # Exploration
    # ------------------------------------------------------------------ #
    def evaluate_allocation(
        self,
        graph: KPNGraph,
        allocation: ResourceVector,
        frequency_scale: float = 1.0,
    ) -> ExplorationResult:
        """Build, simulate and summarise one allocation.

        ``frequency_scale`` re-pins the platform at the given uniform DVFS
        scale before simulating (1.0, the default, is the nominal platform).
        """
        traces = self._simulator.synthetic_traces(graph)
        return self._evaluate(graph, allocation, frequency_scale, traces)

    def _evaluate(
        self,
        graph: KPNGraph,
        allocation: ResourceVector,
        frequency_scale: float,
        traces: Mapping[str, ProcessTrace],
    ) -> ExplorationResult:
        """:meth:`evaluate_allocation` on the graph's already generated traces."""
        platform = self._platform_at(frequency_scale)
        cores = allocation_cores(platform, allocation)
        mapping = balance_processes(graph, platform, cores)
        simulation = self._simulator.simulate(mapping, traces)
        point = OperatingPoint(
            resources=mapping.demand,
            execution_time=simulation.execution_time,
            energy=simulation.energy,
            frequency_scale=frequency_scale,
        )
        return ExplorationResult(allocation, mapping, simulation, point)

    def _platform_at(self, frequency_scale: float) -> Platform:
        """The platform re-pinned at ``frequency_scale`` (cached per scale)."""
        if abs(frequency_scale - 1.0) <= SCALE_EPSILON:
            return self._platform
        key = round(frequency_scale, 12)
        if key not in self._scaled_platforms:
            self._scaled_platforms[key] = scaled_platform(self._platform, frequency_scale)
        return self._scaled_platforms[key]

    def explore_all(
        self, graph: KPNGraph, opp_scales: Sequence[float] | None = None
    ) -> list[ExplorationResult]:
        """Evaluate every allocation whose core count does not exceed the processes.

        Allocating more cores than the application has processes cannot help
        (extra cores would stay idle but still burn static power), so such
        allocations are skipped.  With ``opp_scales`` every allocation is
        evaluated once per scale, slowest first, all on one set of traces.
        """
        scales = (1.0,) if opp_scales is None else tuple(opp_scales)
        allocations = self._allocations_for(graph.num_processes)
        traces = self._simulator.synthetic_traces(graph)
        return [
            self._evaluate(graph, allocation, scale, traces)
            for scale in scales
            for allocation in allocations
        ]

    def _allocations_for(self, num_processes: int) -> tuple[ResourceVector, ...]:
        """The admissible allocations for a graph of ``num_processes`` (cached).

        The enumeration (and its process-count filter) is a pure function of
        the platform limit and the process count, so one explorer derives it
        once per count and reuses it across every sweep point and variant —
        the same enumeration order the seed produced per scale.
        """
        cached = self._allocation_cache.get(num_processes)
        if cached is None:
            cached = tuple(
                allocation
                for allocation in self._platform.allocations(self._limit)
                if allocation.total <= num_processes
            )
            self._allocation_cache[num_processes] = cached
        return cached

    def explore(
        self,
        graph: KPNGraph,
        application_name: str | None = None,
        opp_scales: Sequence[float] | None = None,
    ) -> ConfigTable:
        """Return the Pareto-filtered operating-point table of ``graph``.

        Parameters
        ----------
        graph:
            The application variant to explore.
        application_name:
            Name under which the table is registered; defaults to the graph
            name.
        opp_scales:
            Uniform DVFS scales to sweep in addition to the allocations
            (typically :func:`~repro.energy.opp.available_scales` of the
            platform).  ``None`` keeps the seed's nominal-frequency-only
            exploration.
        """
        results = self.explore_all(graph, opp_scales=opp_scales)
        # ``pareto_front`` runs on the incremental frontier engine of
        # :mod:`repro.optable` (the seed's O(n²) pairwise scan is gone).
        # ``tie_key`` is deliberately NOT passed: the enumeration order of
        # ``explore_all`` is deterministic, and keeping the seed's
        # first-occurrence representative for equal-cost points preserves
        # bit-identical tables (an OPP sweep can produce equal (resources,
        # time, energy) vectors that differ in frequency_scale; re-picking
        # the representative would change the stored scale column).
        front = pareto_front(
            results,
            objectives=lambda r: tuple(r.operating_point.resources)
            + (r.operating_point.execution_time, r.operating_point.energy),
        )
        points = [r.operating_point for r in front]
        table = ConfigTable(application_name or graph.name, points, pareto_filter=True)
        # Pre-intern the columnar twin: identical tables produced anywhere in
        # a sweep (same platform, same variant) resolve to one shared OpTable.
        table.optable
        return table
