"""Distributed, store-aware design-space sweeps (:func:`run_sweep`).

The paper's headline workflow sweeps platforms × operating points × policies
× scenarios and Pareto-filters the outcome.  :class:`DesignSpaceExplorer`
walks one (platform, variant) pair serially; this module turns a whole sweep
into a plan of deduplicated work units and runs them fast by composing the
three performance layers that already exist:

* **Plan** — sweep points that share a (platform fingerprint, workload
  fingerprint) pair share their allocation enumeration: the planner collapses
  the ``points × variants × scales`` demand down to the unique
  ``(platform, variant, scale)`` exploration tasks and records how many
  evaluations that saved (``explorations_deduped``).
* **Execute** — the calling process owns the
  :class:`~repro.store.ContentStore`: it answers every task stored under
  the ``"dse"`` kind itself and sends only the misses through the
  :class:`~repro.cluster.ShardCoordinator`, in the mode every executor name
  selects (serial, thread or process; work stealing, bounded retry, one
  :class:`~repro.exceptions.WorkloadError` naming the first failed task).
  Workers only explore; the caller writes each explored task's row as its
  work unit completes, so a fully stored sweep starts no worker and an
  interrupted one keeps its finished tasks.
* **Merge** — shard results stream, in plan order, into one incremental
  Pareto frontier per (platform, variant); the resulting tables are
  bit-identical to :meth:`DesignSpaceExplorer.explore` and are summarised by
  a deterministic, executor-independent ``frontier_fingerprint``.
* **Policy phase** — every sweep point's scenario problems are scheduled;
  all points using a batching scheduler (MMKP-LR) are driven through a
  *single* :meth:`~repro.schedulers.lr.MMKPLRScheduler.schedule_many` call,
  so same-shape relaxations from *different* sweep points land in one
  stacked :func:`~repro.knapsack.solve_lagrangian_many` solve
  (``cross_group_deduped`` counts those cross-point shares).

Determinism: exploration is a pure function of (platform, graph, scale), the
merge consumes results in plan order, and batching never changes a schedule —
so the fingerprint and every point summary are independent of the executor,
worker count, store temperature and solver backend (dense numpy or pure loop).
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cluster.coordinator import EXECUTORS, ShardCoordinator, executor_mode
from repro.core.config import ConfigTable, OperatingPoint
from repro.dataflow.applications import paper_applications
from repro.dataflow.graph import KPNGraph
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.tables import platform_fingerprint, reduced_tables
from repro.exceptions import WorkloadError
from repro.obs import tracer as obs
from repro.platforms.platform import Platform
from repro.store.content import ContentStore, resolve_store
from repro.store.memo import Memo
from repro.workload.suite import EvaluationSuite, scaled_census

#: Content-store namespace of memoised exploration tasks.  Bump when the
#: exploration pipeline changes incompatibly.
_STORE_KIND = "dse"
_STORE_VERSION = "v1"


# ---------------------------------------------------------------------- #
# Spec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepScenario:
    """One workload scenario of a sweep: a seeded, down-scaled census suite."""

    name: str
    fraction: float = 0.01
    seed: int = 2020
    minimum_per_bucket: int = 1

    def census(self) -> dict:
        return scaled_census(self.fraction, self.minimum_per_bucket)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fraction": self.fraction,
            "seed": self.seed,
            "minimum_per_bucket": self.minimum_per_bucket,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepScenario":
        return cls(
            name=str(data["name"]),
            fraction=float(data.get("fraction", 0.01)),
            seed=int(data.get("seed", 2020)),
            minimum_per_bucket=int(data.get("minimum_per_bucket", 1)),
        )


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a design-space sweep.

    A sweep point is one (platform, scheduler, scenario) combination; every
    point needs the full (variant × OPP scale) exploration of its platform,
    which is exactly the demand the planner deduplicates.  ``scenarios`` may
    be empty: the sweep then only generates tables (the
    :meth:`~repro.api.session.Session.explore` use).

    This is deliberately *not* part of :mod:`repro.api.spec`'s frozen schema
    snapshot — the sweep surface can evolve without a schema review.
    """

    platforms: tuple[str, ...] = ("odroid-xu4",)
    input_sizes: tuple[str, ...] | None = None
    sweep_opps: bool = False
    schedulers: tuple[str, ...] = ("mmkp-lr",)
    scenarios: tuple[SweepScenario, ...] = ()
    max_points: int | None = None

    def __post_init__(self) -> None:
        if not self.platforms:
            raise WorkloadError("a sweep needs at least one platform")
        if self.scenarios and not self.schedulers:
            raise WorkloadError("scenarios without schedulers: nothing to run")
        if self.max_points is not None and self.max_points <= 0:
            raise WorkloadError("max_points must be positive")

    def to_dict(self) -> dict:
        data: dict = {
            "platforms": list(self.platforms),
            "sweep_opps": self.sweep_opps,
            "schedulers": list(self.schedulers),
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
        }
        if self.input_sizes is not None:
            data["input_sizes"] = list(self.input_sizes)
        if self.max_points is not None:
            data["max_points"] = self.max_points
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        sizes = data.get("input_sizes")
        return cls(
            platforms=tuple(data.get("platforms", ("odroid-xu4",))),
            input_sizes=None if sizes is None else tuple(sizes),
            sweep_opps=bool(data.get("sweep_opps", False)),
            schedulers=tuple(data.get("schedulers", ("mmkp-lr",))),
            scenarios=tuple(
                SweepScenario.from_dict(entry) for entry in data.get("scenarios", ())
            ),
            max_points=data.get("max_points"),
        )


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #
def graph_fingerprint(graph: KPNGraph) -> str:
    """Content fingerprint of a KPN graph (processes, cycles, channels)."""
    payload = repr(
        (
            graph.name,
            tuple((p.name, repr(p.cycles)) for p in graph),
            tuple(
                (c.name, c.source, c.target, repr(c.bytes_transferred))
                for c in graph.channels
            ),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def frontier_fingerprint(tables: Mapping[str, Mapping[str, ConfigTable]]) -> str:
    """Deterministic digest of a sweep's merged Pareto frontiers.

    Canonicalises every surviving operating point with ``repr`` floats (the
    shortest round-tripping form), sorted by platform and variant name — so
    the digest is independent of executor, worker count, store temperature
    and solver backend, and bit-equal tables always collide.
    """
    digest = hashlib.sha256()
    for platform_name in sorted(tables):
        digest.update(platform_name.encode())
        per_platform = tables[platform_name]
        for variant in sorted(per_platform):
            digest.update(variant.encode())
            for point in per_platform[variant]:
                digest.update(
                    repr(
                        (
                            tuple(point.resources),
                            repr(point.execution_time),
                            repr(point.energy),
                            repr(point.frequency_scale),
                        )
                    ).encode()
                )
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Plan
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExplorationTask:
    """One deduplicated unit of exploration work: (platform, variant, scale)."""

    platform: Platform
    platform_fp: str
    variant: str
    graph: KPNGraph
    graph_fp: str
    scale: float

    @property
    def store_key(self) -> tuple:
        return (_STORE_VERSION, self.platform_fp, self.graph_fp, repr(self.scale))


@dataclass(frozen=True)
class SweepPoint:
    """One policy point of the sweep: (platform, scheduler, scenario)."""

    key: str
    platform_name: str
    scheduler: str
    scenario: SweepScenario


@dataclass
class SweepPlan:
    """The planner's output: deduplicated tasks plus the policy points."""

    spec: SweepSpec
    platforms: list[tuple[str, Platform, str, tuple[float, ...]]]
    variants: list[tuple[str, KPNGraph, str]]
    tasks: list[ExplorationTask]
    points: list[SweepPoint]
    stats: dict = field(default_factory=dict)


def _resolve_platform(entry) -> tuple[str, Platform]:
    if isinstance(entry, Platform):
        return entry.name, entry
    from repro.api.registry import platforms as platform_registry

    return str(entry), platform_registry.build(str(entry))


def plan_sweep(
    spec: SweepSpec, platforms: Sequence[Platform | str] | None = None
) -> SweepPlan:
    """Enumerate the sweep and collapse it to unique exploration tasks.

    ``platforms`` overrides the spec's registry names with live platforms
    (the :class:`~repro.api.session.Session` passes its materialised one).
    """
    resolved: list[tuple[str, Platform, str, tuple[float, ...]]] = []
    for entry in platforms if platforms is not None else spec.platforms:
        name, platform = _resolve_platform(entry)
        scales: tuple[float, ...] = (1.0,)
        if spec.sweep_opps:
            from repro.energy.opp import available_scales, ensure_opps

            platform = ensure_opps(platform)
            scales = available_scales(platform)
        fp = platform_fingerprint(platform)
        resolved.append((name, platform, fp, scales))

    variants: list[tuple[str, KPNGraph, str]] = []
    for model in paper_applications().values():
        for variant_name, graph in model.variants().items():
            size = variant_name.split("/", 1)[1]
            if spec.input_sizes is not None and size not in spec.input_sizes:
                continue
            variants.append((variant_name, graph, graph_fingerprint(graph)))
    if not variants:
        raise WorkloadError(
            f"no application variants match input_sizes={spec.input_sizes!r}"
        )

    # Unique tasks: one per (platform fingerprint, variant, scale).  Platforms
    # that fingerprint identically share their tasks; every *sweep point*
    # demands its platform's full variant × scale set, so the gap between
    # demanded and unique evaluations is the planner's structural dedupe.
    tasks: list[ExplorationTask] = []
    task_fps: set[tuple] = set()
    for _, platform, fp, scales in resolved:
        for variant_name, graph, graph_fp in variants:
            for scale in scales:
                task_key = (fp, graph_fp, repr(scale))
                if task_key in task_fps:
                    continue
                task_fps.add(task_key)
                tasks.append(
                    ExplorationTask(
                        platform=platform,
                        platform_fp=fp,
                        variant=variant_name,
                        graph=graph,
                        graph_fp=graph_fp,
                        scale=scale,
                    )
                )

    points: list[SweepPoint] = []
    for name, _, _, _ in resolved:
        for scheduler in spec.schedulers:
            for scenario in spec.scenarios:
                points.append(
                    SweepPoint(
                        key=f"{name}|{scheduler}|{scenario.name}",
                        platform_name=name,
                        scheduler=scheduler,
                        scenario=scenario,
                    )
                )

    per_platform_demand = {
        name: len(variants) * len(scales) for name, _, _, scales in resolved
    }
    # Every policy point re-demands its platform's exploration; with no
    # policy points each platform still demands its tables once.
    demanded = 0
    for name, _, _, _ in resolved:
        point_count = sum(1 for p in points if p.platform_name == name)
        demanded += per_platform_demand[name] * max(1, point_count)
    stats = {
        "platforms": len(resolved),
        "variants": len(variants),
        "points": len(points),
        "explorations_demanded": demanded,
        "explorations_unique": len(tasks),
        "explorations_deduped": demanded - len(tasks),
    }
    return SweepPlan(
        spec=spec,
        platforms=resolved,
        variants=variants,
        tasks=tasks,
        points=points,
        stats=stats,
    )


# ---------------------------------------------------------------------- #
# Task execution (shared by every executor and by worker processes)
# ---------------------------------------------------------------------- #
#: Per-process explorer memo: one explorer per platform fingerprint reuses
#: its allocation enumeration and scaled-platform cache across every task the
#: worker executes — the kernel-style incrementality of the serial path,
#: preserved inside each worker.
_EXPLORERS = Memo("explorer", 8)


def _explorer_for(task: ExplorationTask) -> DesignSpaceExplorer:
    explorer = _EXPLORERS.get(task.platform_fp)
    if explorer is None:
        explorer = DesignSpaceExplorer(task.platform)
        _EXPLORERS.put(task.platform_fp, explorer)
    return explorer


def run_exploration_task(task: ExplorationTask) -> list[OperatingPoint]:
    """Explore one task and return its operating points.

    The points come in the exact enumeration order of
    :meth:`DesignSpaceExplorer.explore_all` for this (variant, scale) slice —
    concatenating slices in plan order reproduces the serial walk.  No store
    is involved: :func:`run_sweep` reads and writes the task's ``dse`` row
    in the calling process.
    """
    explorer = _explorer_for(task)
    return [
        result.operating_point
        for result in explorer.explore_all(task.graph, opp_scales=(task.scale,))
    ]


def _explore_in_worker(tasks) -> list[list[OperatingPoint]]:
    """The coordinator unit of every mode: explore a shard's tasks."""
    return [run_exploration_task(task) for task in tasks]


def _execute(
    plan: SweepPlan,
    coordinator: ShardCoordinator,
    store: ContentStore | None,
    progress,
) -> list[dict]:
    """One ``{"points", "cached"}`` outcome per task, in plan order.

    Every stored task is answered here from its ``dse`` row; only the misses
    go to ``coordinator``, whose workers explore, and the coordinator's
    progress hook writes each miss's row as the miss's unit completes.
    """
    outcomes: list = [None] * len(plan.tasks)
    misses: list[int] = []
    for index, task in enumerate(plan.tasks):
        points = None if store is None else store.get(_STORE_KIND, task.store_key)
        if points is None:
            misses.append(index)
            continue
        outcomes[index] = {"points": points, "cached": True}
        if progress is not None:
            progress(index, outcomes[index])

    def explored(offset: int, points) -> None:
        index = misses[offset]
        if points is not None:
            outcomes[index] = {"points": points, "cached": False}
            if store is not None:
                store.put(_STORE_KIND, plan.tasks[index].store_key, points)
        if progress is not None:
            progress(index, outcomes[index])

    failed: dict[int, str] = {}
    coordinator.run(
        [plan.tasks[index] for index in misses],
        _explore_in_worker,
        lambda offset, error: failed.__setitem__(misses[offset], error),
        explored,
    )
    if failed:
        first = min(failed)
        task = plan.tasks[first]
        raise WorkloadError(
            f"{len(failed)} exploration task(s) failed; first: "
            f"{task.variant}@{task.scale}: {failed[first]}"
        )
    return outcomes


# ---------------------------------------------------------------------- #
# Result
# ---------------------------------------------------------------------- #
@dataclass
class SweepResult:
    """Merged outcome of one sweep (tables, policy summaries, counters)."""

    spec: SweepSpec
    tables: dict[str, dict[str, ConfigTable]]
    frontier_fingerprint: str
    points: list[dict]
    stats: dict

    def tables_for(self, platform_name: str) -> dict[str, ConfigTable]:
        return self.tables[platform_name]

    def to_dict(self) -> dict:
        from repro.io.serialization import tables_to_dict

        return {
            "spec": self.spec.to_dict(),
            "frontier_fingerprint": self.frontier_fingerprint,
            "tables": {
                name: tables_to_dict(per_platform)
                for name, per_platform in self.tables.items()
            },
            "points": [dict(point) for point in self.points],
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepResult":
        from repro.io.serialization import tables_from_dict

        tables = {
            name: tables_from_dict(per_platform)
            for name, per_platform in data["tables"].items()
        }
        # Recompute rather than trust the archived digest: a JSON round trip
        # preserves every float (repr-shortest), so a mismatch means the
        # archive was edited or truncated.
        fingerprint = frontier_fingerprint(tables)
        stored = data.get("frontier_fingerprint")
        if stored is not None and stored != fingerprint:
            raise WorkloadError(
                "archived sweep fingerprint does not match its tables "
                f"({stored} != {fingerprint})"
            )
        return cls(
            spec=SweepSpec.from_dict(data.get("spec", {})),
            tables=tables,
            frontier_fingerprint=fingerprint,
            points=[dict(point) for point in data.get("points", ())],
            stats=dict(data.get("stats", {})),
        )

    def merge(self, other: "SweepResult") -> "SweepResult":
        """Combine two sweep halves (e.g. archived shards) into one result.

        Platforms present in both halves must carry bit-identical tables;
        policy points are unioned by key (first occurrence wins).
        """
        tables = {name: dict(per) for name, per in self.tables.items()}
        for name, per_platform in other.tables.items():
            if name in tables:
                mine = frontier_fingerprint({name: tables[name]})
                theirs = frontier_fingerprint({name: per_platform})
                if mine != theirs:
                    raise WorkloadError(
                        f"cannot merge sweeps: platform {name!r} tables differ"
                    )
            else:
                tables[name] = dict(per_platform)
        seen = {point["point"] for point in self.points}
        points = list(self.points) + [
            point for point in other.points if point["point"] not in seen
        ]
        return SweepResult(
            spec=self.spec,
            tables=tables,
            frontier_fingerprint=frontier_fingerprint(tables),
            points=points,
            stats={"merged_from": [self.stats, other.stats]},
        )


# ---------------------------------------------------------------------- #
# Merge
# ---------------------------------------------------------------------- #
def _merge_tables(
    plan: SweepPlan, outcomes: Sequence[dict]
) -> dict[str, dict[str, ConfigTable]]:
    """Stream task outcomes, in plan order, into per-variant Pareto fronts."""
    # Concatenate the per-(platform_fp, variant) slices in plan order: tasks
    # were generated scale-outer per variant, so the concatenation replays
    # ``explore_all(graph, opp_scales=scales)``'s enumeration exactly and the
    # first-occurrence Pareto representative matches the serial explorer.
    by_pair: dict[tuple[str, str], list[OperatingPoint]] = {}
    for task, outcome in zip(plan.tasks, outcomes):
        by_pair.setdefault((task.platform_fp, task.variant), []).extend(
            outcome["points"]
        )

    per_fp: dict[str, dict[str, ConfigTable]] = {}
    for (fp, variant), points in by_pair.items():
        # One Pareto pass.  The serial explorer runs ``pareto_front`` and
        # then the table's own filter, but both keep exactly the points no
        # other input point dominates (exact on the integer resources, the
        # same slack on time and energy), first occurrence first, so the
        # second pass never drops a point.
        table = ConfigTable(variant, points, pareto_filter=True)
        # Pre-intern the columnar twin, as the serial explorer does.
        table.optable
        per_fp.setdefault(fp, {})[variant] = table

    return {name: per_fp[fp] for name, _, fp, _ in plan.platforms}


# ---------------------------------------------------------------------- #
# Policy phase
# ---------------------------------------------------------------------- #
def _run_policies(
    plan: SweepPlan,
    tables: Mapping[str, Mapping[str, ConfigTable]],
    store: ContentStore | None,
) -> tuple[list[dict], dict]:
    """Schedule every sweep point's scenario problems, batching across points."""
    from repro.api.registry import schedulers as scheduler_registry

    platform_by_name = {name: platform for name, platform, _, _ in plan.platforms}
    policy_tables: dict[str, Mapping[str, ConfigTable]] = {}
    for name in platform_by_name:
        per = tables[name]
        policy_tables[name] = (
            reduced_tables(per, plan.spec.max_points)
            if plan.spec.max_points is not None
            else per
        )

    suites: dict[tuple[str, str], EvaluationSuite] = {}

    def suite_for(point: SweepPoint) -> EvaluationSuite:
        cache_key = (point.platform_name, point.scenario.name)
        suite = suites.get(cache_key)
        if suite is None:
            suite = EvaluationSuite.generate(
                policy_tables[point.platform_name],
                point.scenario.census(),
                seed=point.scenario.seed,
            )
            suites[cache_key] = suite
        return suite

    # One scheduler instance per registry name, shared by every sweep point
    # using it: relaxation memo hits promote across points (and, with the
    # store bound on the memo, across reruns) without ever
    # changing a schedule — solve-cache keys are content-addressed.
    instances: dict[str, object] = {}

    def scheduler_for(name: str):
        instance = instances.get(name)
        if instance is None:
            instance = scheduler_registry.build(name)
            cache = getattr(instance, "solve_cache", None)
            if cache is not None:
                cache.store = store
            instances[name] = instance
        return instance

    point_problems: list[tuple[SweepPoint, list]] = []
    for point in plan.points:
        suite = suite_for(point)
        platform = platform_by_name[point.platform_name]
        problems = [
            problem
            for _, problem in suite.problems(
                platform, policy_tables[point.platform_name]
            )
        ]
        point_problems.append((point, problems))

    # Bucket the points by scheduler: batching schedulers get ONE lock-step
    # schedule_many call spanning every point, which is what buckets
    # same-shape relaxations from different sweep points into single stacked
    # solves; the rest run sequentially per point.
    results_by_point: dict[str, list] = {}
    solver_stats = {
        "problems": 0,
        "rounds": 0,
        "requested": 0,
        "solved": 0,
        "deduped": 0,
        "cross_group_deduped": 0,
    }
    for scheduler_name in plan.spec.schedulers:
        scheduler = scheduler_for(scheduler_name)
        batch = [
            (point, problems)
            for point, problems in point_problems
            if point.scheduler == scheduler_name
        ]
        if not batch:
            continue
        if hasattr(scheduler, "schedule_many"):
            flat_problems: list = []
            flat_groups: list = []
            for point, problems in batch:
                flat_problems.extend(problems)
                flat_groups.extend([point.key] * len(problems))
            scheduled = scheduler.schedule_many(flat_problems, groups=flat_groups)
            cursor = 0
            for point, problems in batch:
                results_by_point[point.key] = scheduled[
                    cursor : cursor + len(problems)
                ]
                cursor += len(problems)
            stats = scheduler.last_batch_stats or {}
            for key in solver_stats:
                solver_stats[key] += stats.get(key, 0)
        else:
            for point, problems in batch:
                results_by_point[point.key] = [
                    scheduler.schedule(problem) for problem in problems
                ]
                solver_stats["problems"] += len(problems)

    summaries = []
    for point, problems in point_problems:
        results = results_by_point[point.key]
        feasible = [r for r in results if r.feasible]
        summaries.append(
            {
                "point": point.key,
                "platform": point.platform_name,
                "scheduler": point.scheduler,
                "scenario": point.scenario.name,
                "cases": len(results),
                "feasible": len(feasible),
                "energy": sum(r.energy for r in feasible),
                "subgradient_iterations": sum(
                    int(r.statistics.get("subgradient_iterations", 0))
                    for r in results
                ),
            }
        )
    return summaries, solver_stats


# ---------------------------------------------------------------------- #
# Driver
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def _sweep_store(store: ContentStore | str | None):
    """The sweep's store: one opened here from a path is closed on exit; a
    passed :class:`ContentStore` stays open for its owner."""
    resolved = resolve_store(store)
    try:
        yield resolved
    finally:
        if resolved is not store:
            resolved.close()


def run_sweep(
    spec: SweepSpec,
    *,
    platforms: Sequence[Platform | str] | None = None,
    executor: str = "serial",
    workers: int = 1,
    unit_size: int | None = None,
    max_retries: int = 2,
    store: ContentStore | str | None = None,
    progress=None,
) -> SweepResult:
    """Plan, execute and merge one design-space sweep.

    Parameters
    ----------
    spec:
        The sweep description.
    platforms:
        Live platforms overriding the spec's registry names.
    executor:
        One of :data:`EXECUTORS`, naming the
        :class:`~repro.cluster.ShardCoordinator` mode the plan's tasks run
        in (:func:`~repro.cluster.executor_mode`).
    workers, unit_size, max_retries:
        Coordinator knobs (``"serial"`` runs one worker).
    store:
        Content store (or path) memoising exploration tasks (``dse`` rows)
        and the policy phase's Lagrangian solves (``solve`` rows) across
        reruns.  Only the calling process touches it: stored tasks are
        answered here, and each explored task's row is written as its work
        unit completes, so a fully stored sweep starts no worker on any
        executor and a warm rerun neither explores nor solves.  A path is
        opened for this call and closed before it returns; a passed store
        stays open.  ``None`` runs without one.
    progress:
        Optional ``(task_index, outcome) -> None`` callback, fired once per
        task: in the calling thread for a stored task, as its work unit
        completes for an explored one (``outcome`` is ``None`` for a failed
        task).
    """
    mode = executor_mode(executor, workers)

    with obs.span("sweep.plan", category="sweep") as span:
        plan = plan_sweep(spec, platforms)
        span.annotate(**plan.stats)
    obs.count("sweep.explorations_deduped", plan.stats["explorations_deduped"])

    with _sweep_store(store) as store:
        coordinator = ShardCoordinator(
            workers, mode=mode, unit_size=unit_size, max_retries=max_retries
        )
        with obs.span(
            "sweep.execute", category="sweep", executor=executor, workers=workers
        ) as span:
            outcomes = _execute(plan, coordinator, store, progress)
            store_hits = sum(1 for outcome in outcomes if outcome["cached"])
            span.annotate(tasks=len(plan.tasks), store_hits=store_hits)
        obs.count("sweep.store_hits", store_hits)

        with obs.span("sweep.merge", category="sweep") as span:
            tables = _merge_tables(plan, outcomes)
            fingerprint = frontier_fingerprint(tables)
            span.annotate(fingerprint=fingerprint)

        point_summaries: list[dict] = []
        solver_stats: dict = {}
        if plan.points:
            with obs.span("sweep.solve", category="sweep") as span:
                point_summaries, solver_stats = _run_policies(plan, tables, store)
                span.annotate(**solver_stats)
            obs.count(
                "sweep.cross_point_deduped", solver_stats.get("cross_group_deduped", 0)
            )

    stats = dict(plan.stats)
    stats["executor"] = executor
    stats["workers"] = workers
    stats["store"] = store is not None
    stats["store_hits"] = store_hits
    stats["store_misses"] = len(plan.tasks) - store_hits
    stats["coordinator"] = coordinator.stats.as_dict()
    if solver_stats:
        stats["solver"] = solver_stats
    return SweepResult(
        spec=spec,
        tables=tables,
        frontier_fingerprint=fingerprint,
        points=point_summaries,
        stats=stats,
    )


__all__ = [
    "EXECUTORS",
    "ExplorationTask",
    "SweepPlan",
    "SweepPoint",
    "SweepResult",
    "SweepScenario",
    "SweepSpec",
    "frontier_fingerprint",
    "graph_fingerprint",
    "plan_sweep",
    "platform_fingerprint",
    "run_exploration_task",
    "run_sweep",
]
