"""Power-cap and energy-budget admission control.

The paper's runtime manager rejects a request when no deadline-feasible
schedule exists.  Deployments add a second rejection axis: thermal/power
envelopes (a cap on instantaneous platform power) and energy budgets (a cap
on the joules a battery or a billing period can supply).  The
:class:`EnergyBudget` encodes both; the runtime manager consults it after
the scheduler found a feasible schedule and before committing, so a request
that fits the deadlines but busts the envelope is rejected exactly like an
infeasible one (the previously committed schedule stays in force).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.config import ConfigTable
from repro.core.segment import TIME_EPSILON, Schedule
from repro.energy.accounting import cluster_power
from repro.energy.opp import OPPDecision
from repro.exceptions import EnergyError
from repro.optable.adapters import optables_for
from repro.platforms.platform import Platform


@dataclass(frozen=True)
class BudgetDecision:
    """Outcome of one admission check; falsy when the request must be rejected."""

    admitted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.admitted


@dataclass(frozen=True)
class EnergyBudget:
    """Admission-control envelope for the runtime manager.

    Parameters
    ----------
    power_cap_watts:
        Maximum instantaneous platform power any committed segment may draw;
        ``None`` disables the cap.
    energy_budget_joules:
        Maximum total energy of the whole run (already consumed energy plus
        the planned remainder); ``None`` disables the budget.

    Examples
    --------
    >>> EnergyBudget(power_cap_watts=5.0).admits(Schedule(), {}, now=0.0,
    ...                                          consumed_joules=0.0).admitted
    True
    """

    power_cap_watts: float | None = None
    energy_budget_joules: float | None = None

    def __post_init__(self) -> None:
        if self.power_cap_watts is not None and self.power_cap_watts <= 0:
            raise EnergyError(
                f"power cap must be positive, got {self.power_cap_watts}"
            )
        if self.energy_budget_joules is not None and self.energy_budget_joules <= 0:
            raise EnergyError(
                f"energy budget must be positive, got {self.energy_budget_joules}"
            )

    @property
    def unconstrained(self) -> bool:
        """``True`` iff neither the cap nor the budget is set."""
        return self.power_cap_watts is None and self.energy_budget_joules is None

    def admits(
        self,
        schedule: Schedule,
        tables: Mapping[str, ConfigTable],
        now: float,
        consumed_joules: float,
        platform: Platform | None = None,
        decision: OPPDecision | None = None,
        *,
        optables: Mapping | None = None,
        ledger=None,
    ) -> BudgetDecision:
        """Check the planned ``schedule`` against the envelope.

        Only the part of the schedule after ``now`` counts: a segment
        straddling ``now`` contributes ``end - now``.  With a ``platform``
        and an OPP ``decision`` the check uses the analytical per-core power
        model (matching governor-mode accounting); otherwise it uses the
        operating-point averages (matching table-mode accounting), so the
        admission test always agrees with how the run will actually be
        metered.

        ``optables`` (the interned column tables, derived from ``tables``
        when omitted) and ``ledger`` (the run's
        :class:`~repro.kernel.state.LoadLedger` busy rows, analytical mode
        only) let the runtime manager share what it already built.
        """
        if optables is None:
            optables = optables_for(tables)
        analytical = platform is not None and decision is not None
        if analytical and ledger is None:
            from repro.kernel.state import LoadLedger

            ledger = LoadLedger(optables, platform.num_resource_types)

        def analytical_power(segment) -> float:
            # Same rows and the same formula as segment_analytical_power.
            return cluster_power(ledger.busy_counts(segment), platform, decision)

        if self.power_cap_watts is not None:
            for segment in schedule:
                if segment.end <= now + TIME_EPSILON:
                    continue
                if analytical:
                    watts = analytical_power(segment)
                else:
                    watts = sum(
                        optables[m.application].powers[m.config_index]
                        for m in segment
                    )
                if watts > self.power_cap_watts + 1e-9:
                    start = segment.start
                    if start < now - TIME_EPSILON:
                        start = now
                    return BudgetDecision(
                        False,
                        f"segment [{start:.3f}, {segment.end:.3f}) draws "
                        f"{watts:.3f} W > cap {self.power_cap_watts:.3f} W",
                    )

        if self.energy_budget_joules is not None:
            planned = 0.0
            for segment in schedule:
                end = segment.end
                if end <= now + TIME_EPSILON:
                    continue
                start = segment.start
                if start < now - TIME_EPSILON:
                    start = now
                duration = end - start
                if analytical:
                    planned += analytical_power(segment) * duration
                else:
                    segment_energy = 0.0
                    for mapping in segment:
                        table = optables[mapping.application]
                        config_index = mapping.config_index
                        segment_energy += (
                            table.energies[config_index]
                            * duration
                            / table.times[config_index]
                        )
                    planned += segment_energy
            total = consumed_joules + planned
            if total > self.energy_budget_joules + 1e-9:
                return BudgetDecision(
                    False,
                    f"plan needs {total:.3f} J > budget "
                    f"{self.energy_budget_joules:.3f} J",
                )

        return BudgetDecision(True)
