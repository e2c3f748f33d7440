"""Trace-driven mapping simulator.

Given a process-to-core mapping and the per-process traces, the simulator
replays the application iteration by iteration: within an iteration every core
executes its processes' trace segments back to back, inter-core channel
traffic adds communication latency, and the iteration completes when the
slowest core (plus its communication) is done — the usual self-timed execution
model for KPN applications where every process works throughout the run (the
paper assumes all threads progress at a constant rate in a fixed
configuration).

Energy combines three parts: busy energy of the cores while they compute, idle
energy of allocated-but-waiting cores for the rest of the iteration, and a
per-byte energy charge for inter-core communication.  This substitutes the
power-analyzer measurements of the paper; the resulting numbers exhibit the
same qualitative big/little trade-offs as Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.dataflow.graph import KPNGraph
from repro.dataflow.trace import ProcessTrace, TraceGenerator
from repro.exceptions import MappingError
from repro.mapping.mapping import ProcessMapping

#: Default DRAM/interconnect bandwidth used for inter-core channel traffic.
DEFAULT_BANDWIDTH_BYTES_PER_S = 800.0e6
#: Default energy cost of moving one byte between two cores.
DEFAULT_ENERGY_PER_BYTE = 0.3e-9


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one full application run under a mapping.

    Attributes
    ----------
    execution_time:
        Estimated wall-clock time of a full run in seconds.
    energy:
        Estimated energy of a full run in joules.
    core_busy_time:
        Per-core busy seconds (keyed by core name).
    communication_bytes:
        Total bytes moved between distinct cores.
    """

    execution_time: float
    energy: float
    core_busy_time: Mapping[str, float]
    communication_bytes: float

    @property
    def average_power(self) -> float:
        """Average power in watts over the run."""
        return self.energy / self.execution_time if self.execution_time > 0 else 0.0


class MappingSimulator:
    """Estimate execution time and energy of process-to-core mappings.

    Parameters
    ----------
    trace_generator:
        Generator used to synthesise per-process traces when the caller does
        not supply measured traces.
    bandwidth_bytes_per_s:
        Inter-core channel bandwidth.
    energy_per_byte:
        Energy charge per inter-core byte.

    Examples
    --------
    >>> from repro.dataflow import audio_filter
    >>> from repro.platforms import odroid_xu4
    >>> from repro.mapping import allocation_cores, balance_processes
    >>> platform = odroid_xu4()
    >>> graph = audio_filter().graph
    >>> mapping = balance_processes(graph, platform, allocation_cores(platform, [0, 2]))
    >>> result = MappingSimulator().simulate(mapping)
    >>> result.execution_time > 0
    True
    """

    def __init__(
        self,
        trace_generator: TraceGenerator | None = None,
        bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S,
        energy_per_byte: float = DEFAULT_ENERGY_PER_BYTE,
    ):
        if bandwidth_bytes_per_s <= 0:
            raise MappingError("bandwidth must be positive")
        if energy_per_byte < 0:
            raise MappingError("energy per byte must be non-negative")
        self._trace_generator = trace_generator or TraceGenerator()
        self._bandwidth = bandwidth_bytes_per_s
        self._energy_per_byte = energy_per_byte

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        mapping: ProcessMapping,
        traces: Mapping[str, ProcessTrace] | None = None,
    ) -> SimulationResult:
        """Simulate one full run of the mapped application.

        Parameters
        ----------
        mapping:
            The process-to-core mapping to evaluate.
        traces:
            Optional measured traces; synthetic traces are generated when
            omitted.
        """
        graph = mapping.graph
        if traces is None:
            traces = self.synthetic_traces(graph)
        missing = set(graph.process_names) - set(traces)
        if missing:
            raise MappingError(f"traces missing for processes: {sorted(missing)}")

        iterations = min(len(traces[name]) for name in graph.process_names)
        cores = mapping.used_cores()
        busy_time = {core.name: 0.0 for core in cores}
        total_time = 0.0
        communication_bytes = 0.0
        communication_time_total = 0.0

        # Hoist the per-process placement out of the iteration loop: the DSE
        # simulates thousands of mappings per sweep, and the core / processor
        # type / trace-segment lookups are iteration-invariant.  The same
        # holds for the inter-core channel traffic — identical in every
        # iteration — so its bytes are derived once and accumulated per
        # iteration in the seed's order (the floats are unchanged).
        placements = [
            (
                mapping.core_of(process_name).name,
                mapping.core_of(process_name).processor_type,
                traces[process_name].segments,
            )
            for process_name in graph.process_names
        ]
        iteration_bytes = 0.0
        for channel in graph.channels:
            if mapping.core_of(channel.source).name == mapping.core_of(channel.target).name:
                continue
            iteration_bytes += channel.bytes_transferred / iterations
        communication_time = iteration_bytes / self._bandwidth

        for iteration in range(iterations):
            # Compute load of every core in this iteration.
            iteration_load = {core.name: 0.0 for core in cores}
            for core_name, processor_type, segments in placements:
                seconds = processor_type.cycles_to_seconds(segments[iteration].cycles)
                iteration_load[core_name] += seconds
                busy_time[core_name] += seconds

            communication_bytes += iteration_bytes
            communication_time_total += communication_time

            # Self-timed execution: the iteration ends when the most loaded
            # core has finished and the data has been moved.
            total_time += max(iteration_load.values()) + communication_time

        energy = self._energy(mapping, busy_time, total_time, communication_bytes)
        return SimulationResult(
            execution_time=total_time,
            energy=energy,
            core_busy_time=busy_time,
            communication_bytes=communication_bytes,
        )

    def synthetic_traces(self, graph: KPNGraph) -> dict[str, ProcessTrace]:
        """The seeded traces :meth:`simulate` synthesises when given none."""
        return self._trace_generator.generate(graph)

    # ------------------------------------------------------------------ #
    # Energy model
    # ------------------------------------------------------------------ #
    def _energy(
        self,
        mapping: ProcessMapping,
        busy_time: Mapping[str, float],
        total_time: float,
        communication_bytes: float,
    ) -> float:
        """Busy + idle energy of the allocated cores plus communication energy."""
        energy = 0.0
        for core in mapping.used_cores():
            busy = min(busy_time[core.name], total_time)
            idle = max(0.0, total_time - busy)
            energy += core.processor_type.busy_energy(busy)
            energy += core.processor_type.idle_energy(idle)
        energy += communication_bytes * self._energy_per_byte
        return energy
