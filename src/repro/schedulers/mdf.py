"""MMKP-MDF — the mapping heuristic proposed by the paper (Algorithm 1).

The multi-application mapping problem is treated as a multiple-choice
multi-dimensional knapsack problem: core types are knapsacks whose capacity is
*processing time per type* (cores × analysis horizon), job configurations are
items whose weight is the processing time they consume, and the value is the
(negated) energy.  The heuristic assigns one configuration per job:

1. Select the next job with the *Maximum Difference First* policy — the job
   that would be penalised most if its best feasible configuration were not
   available.
2. Try that job's feasible configurations in non-decreasing energy order; each
   tentative assignment is validated by building the actual mapping segments
   with the EDF packer (Algorithm 2).
3. On success, commit the assignment, keep the packed schedule and charge the
   consumed processing time to the knapsack containers.

If a job ends up with no configuration that yields a feasible packing, the
whole request set is rejected.
"""

from __future__ import annotations

from repro.core.problem import SchedulingProblem
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.schedulers.edf_packer import pack_jobs_edf
from repro.schedulers.policies import JobSelectionPolicy, MaximumDifferencePolicy

#: Numerical slack for capacity/deadline filtering.
_EPSILON = 1e-9


class MMKPMDFScheduler(Scheduler):
    """The paper's MMKP-MDF heuristic.

    Parameters
    ----------
    policy:
        Job-selection policy; defaults to the paper's MDF.  Alternative
        policies exist purely for the ablation benchmarks.

    Examples
    --------
    >>> from repro.workload.motivational import motivational_problem
    >>> result = MMKPMDFScheduler().schedule(motivational_problem("S1"))
    >>> result.feasible
    True
    """

    name = "mmkp-mdf"

    def __init__(self, policy: JobSelectionPolicy | None = None):
        self._policy = policy if policy is not None else MaximumDifferencePolicy()

    @property
    def policy(self) -> JobSelectionPolicy:
        """The job-selection policy in use."""
        return self._policy

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        """Algorithm 1 on the shared columnar :class:`ProblemView`.

        The feasibility filter, the energy ordering and the container
        bookkeeping read the interned OpTable columns; the rounds avoid
        rescanning what cannot have changed:

        * Deadlines and remaining ratios are fixed for the whole activation,
          so one prelude loop per job decides the time-feasibility half of
          NEXTJOBMDF step (i) and builds each entry's remaining energy,
          container demand ``row[k] * remaining`` and per-type maximum.  It
          also fixes the trial order, the seed's stable per-round sort by
          remaining energy; filtering keeps that order.
        * Containers only shrink as configurations commit, so feasibility is
          *monotone*: an entry that failed a round can never pass a later
          one.  Each job keeps its surviving entries plus their per-type
          maximum demand; a round whose containers still cover that maximum
          reuses the previous feasible set without scanning at all.
        * With the paper's MDF policy, a job's selection priority depends
          only on its feasible set; it is recomputed only when that set
          shrank, from the two cheapest surviving entries.  The inlined
          selection replays the policy's arithmetic and its
          ``max((priority, name))`` tie-break.

        The EDF packer underneath resumes from shared placement prefixes
        (see :mod:`repro.kernel.packmemo`).  ``tests/reference`` holds the
        list-based seed of this walk; the equivalence suites assert
        identical decisions and floats.
        """
        view = problem.view()
        containers = problem.processing_capacity()
        dimensions = len(containers)
        epsilon = _EPSILON
        assignment: dict[str, int] = {}
        schedule = None
        packer_calls = 0
        policy_calls = 0

        #: name → [entries, max_demand, feasible_indices, cached_priority],
        #: entries ``(remaining energy, index, demand)`` in trial order.
        records: dict[str, list] = {}
        for job in problem.jobs:
            table = view.optable(job.application)
            horizon = job.deadline - view.now + epsilon
            ratio = job.remaining_ratio
            times = table.times
            resources = table.resources
            energies = table.energies
            entries = []
            max_demand = [0.0] * dimensions
            for index in range(len(times)):
                remaining = times[index] * ratio
                if remaining <= horizon:
                    row = resources[index]
                    demand = []
                    for k in range(dimensions):
                        value = row[k] * remaining
                        demand.append(value)
                        if value > max_demand[k]:
                            max_demand[k] = value
                    entries.append((energies[index] * ratio, index, demand))
            # Indices are unique, so the tuple order is the stable energy
            # order and never compares demands.
            entries.sort()
            records[job.name] = [
                entries,
                max_demand,
                [entry[1] for entry in entries],
                None,
            ]

        def feasible_now(name: str) -> tuple[list[int], bool]:
            """The job's feasible indices plus whether the set just shrank."""
            rec = records[name]
            max_demand = rec[1]
            for k in range(dimensions):
                if max_demand[k] > containers[k] + epsilon:
                    break
            else:
                return rec[2], False
            survivors = []
            max_demand = [0.0] * dimensions
            for entry in rec[0]:
                demand = entry[2]
                for k in range(dimensions):
                    if demand[k] > containers[k] + epsilon:
                        break
                else:
                    survivors.append(entry)
                    for k in range(dimensions):
                        if demand[k] > max_demand[k]:
                            max_demand[k] = demand[k]
            rec[0] = survivors
            rec[1] = max_demand
            rec[2] = [entry[1] for entry in survivors]
            rec[3] = None
            return rec[2], True

        inline_mdf = type(self._policy) is MaximumDifferencePolicy
        unassigned = {job.name for job in problem.jobs}
        while unassigned:
            policy_calls += 1
            if inline_mdf:
                # Inlined MDF selection with cached priorities.  Matches the
                # policy exactly: the first candidate (in problem.jobs
                # order) with no feasible configuration is hopeless and
                # selected immediately; otherwise the maximum of
                # ``(priority, name)`` wins — identical to the seed's
                # ``max(candidates, key=...)`` because names are unique.
                job = None
                config_indices: list[int] = []
                best_key = None
                for candidate in problem.jobs:
                    name = candidate.name
                    if name not in unassigned:
                        continue
                    indices, shrank = feasible_now(name)
                    if not indices:
                        job, config_indices = candidate, indices
                        break
                    rec = records[name]
                    priority = rec[3]
                    if shrank or priority is None:
                        # The policy's priority: difference of the two
                        # smallest remaining energies (same floats), here
                        # the first two entries in trial order.
                        if len(indices) == 1:
                            priority = float("inf")
                        else:
                            priority = rec[0][1][0] - rec[0][0][0]
                        rec[3] = priority
                    key = (priority, name)
                    if best_key is None or key > best_key:
                        best_key = key
                        job, config_indices = candidate, indices
            else:
                candidates = [
                    (candidate, feasible_now(candidate.name)[0])
                    for candidate in problem.jobs
                    if candidate.name in unassigned
                ]
                job, config_indices = self._policy.select(
                    candidates, problem.tables, problem.now
                )

            # Try configurations in non-decreasing remaining-energy order
            # (Algorithm 1, lines 5-14) — identical to the seed loop; the
            # packer underneath resumes from shared placement prefixes.
            table = view.optable(job.application)
            ratio = job.remaining_ratio
            if not inline_mdf:
                # A policy may return its indices in any order.
                energies = table.energies
                config_indices = sorted(
                    config_indices, key=lambda i: energies[i] * ratio
                )
            committed = False
            for config_index in config_indices:
                # The seed copies the assignment per trial; mutating in
                # place (and undoing on rejection) hands the packer the
                # identical mapping without the per-trial dict churn.
                assignment[job.name] = config_index
                packer_calls += 1
                trial_schedule = pack_jobs_edf(problem, assignment)
                if trial_schedule is None:
                    continue
                schedule = trial_schedule
                # Charge the committed configuration to the containers
                # (Algorithm 1, line 12).
                remaining = table.times[config_index] * ratio
                row = table.resources[config_index]
                for k in range(dimensions):
                    containers[k] -= row[k] * remaining
                committed = True
                break

            if not committed:
                # No configuration of this job yields a feasible packing: the
                # request set is rejected (Algorithm 1, line 6).
                assignment.pop(job.name, None)
                return SchedulingResult(
                    schedule=None,
                    statistics={
                        "packer_calls": packer_calls,
                        "policy_calls": policy_calls,
                    },
                )
            unassigned.remove(job.name)

        energy = problem.energy_of(schedule) if schedule is not None else float("inf")
        return SchedulingResult(
            schedule=schedule,
            assignment=assignment,
            energy=energy,
            statistics={"packer_calls": packer_calls, "policy_calls": policy_calls},
        )
