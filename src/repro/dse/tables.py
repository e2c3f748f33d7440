"""Ready-made operating-point tables for the evaluation applications.

These helpers run the full DSE pipeline (application model → allocations →
mapping → simulation → Pareto filter) for the three paper applications and
all their input-size variants on a given platform.  As in the paper, the
tables are computed once at design time: :func:`design_tables` memoises them
per process behind :meth:`~repro.api.spec.DSESpec.build_tables` and
:func:`~repro.workload.named_tables`; :func:`paper_operating_points` is the
un-memoised primitive.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.core.config import ConfigTable
from repro.dataflow.applications import paper_applications
from repro.dse.explorer import DesignSpaceExplorer
from repro.exceptions import WorkloadError
from repro.platforms.odroid import odroid_xu4
from repro.platforms.platform import Platform
from repro.store.memo import Memo

#: Explored table sets by (platform fingerprint, input sizes, OPP sweep, cap).
#: Values are plain dicts of immutable ConfigTables that never leave the memo:
#: every caller gets its own copy of the mapping.
_TABLES = Memo("tables", 16)


def platform_fingerprint(platform: Platform) -> str:
    """Content fingerprint of a platform, OPP ladders included.

    Two registry entries that build value-identical platforms collide — the
    sweep planner then explores the design space once for both, and
    :func:`design_tables` shares one memo entry.  The ladder is part of the
    content because :func:`~repro.energy.opp.scaled_platform` derives the
    scaled platforms from it.
    """
    from repro.io.serialization import platform_to_dict

    payload = json.dumps(platform_to_dict(platform), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def design_tables(
    platform: Platform | None = None,
    input_sizes: tuple[str, ...] | None = None,
    sweep_opps: bool = False,
    max_points: int | None = None,
) -> dict[str, ConfigTable]:
    """The design-time tables, explored at most once per process.

    Same parameters as :func:`paper_operating_points`, plus ``max_points``
    (:func:`reduced_tables` applied to the full set, so a reduced set and
    its full set share one exploration).  The result is memoised by the
    platform's content fingerprint and the options; each call returns a
    fresh ``dict`` over the shared, immutable tables.  Errors are never
    memoised.

    Raises
    ------
    WorkloadError
        When ``input_sizes`` matches no application variant.
    """
    platform = platform or odroid_xu4()
    key = _key(platform, input_sizes, sweep_opps, max_points)
    tables = _TABLES.get(key)
    if tables is None:
        if max_points is None:
            tables = paper_operating_points(platform, input_sizes, sweep_opps)
            if not tables:
                raise WorkloadError(
                    f"no application variants match input_sizes={input_sizes!r}"
                )
        else:
            full = design_tables(platform, input_sizes, sweep_opps)
            tables = reduced_tables(full, max_points=max_points)
        _TABLES.put(key, tables)
    return dict(tables)


def remember_design_tables(
    tables: Mapping[str, ConfigTable],
    platform: Platform | None = None,
    input_sizes: tuple[str, ...] | None = None,
    sweep_opps: bool = False,
    max_points: int | None = None,
) -> None:
    """Memoise tables explored elsewhere as :func:`design_tables`' result.

    The distributed sweep (:meth:`Session.explore
    <repro.api.session.Session.explore>` with an executor) explores the same
    points; recording its tables here lets later resolutions of the same
    key, in this process and in workers forked from it, skip the DSE.
    """
    key = _key(platform or odroid_xu4(), input_sizes, sweep_opps, max_points)
    _TABLES.put(key, dict(tables))


def _key(platform: Platform, input_sizes, sweep_opps: bool, max_points: int | None):
    """The memo key of one table set: platform content plus the options."""
    sizes = tuple(input_sizes) if input_sizes is not None else None
    return (platform_fingerprint(platform), sizes, sweep_opps, max_points)


def paper_operating_points(
    platform: Platform | None = None,
    input_sizes: tuple[str, ...] | None = None,
    sweep_opps: bool = False,
) -> dict[str, ConfigTable]:
    """Operating-point tables for every application/input-size variant.

    Runs the DSE on every call; :func:`design_tables` is the memoised
    resolver the library uses.

    Parameters
    ----------
    platform:
        Target platform; the Odroid XU4 model by default.
    input_sizes:
        Restrict the variants to the given size labels (e.g. ``("medium",)``).
        All sizes are used by default, mirroring the paper's benchmarking with
        several input sizes per application.
    sweep_opps:
        Additionally sweep the platform's DVFS operating points, so the
        tables gain a frequency column (``OperatingPoint.frequency_scale``).
        Platforms without OPP ladders get synthetic default ladders.  The
        default ``False`` reproduces the paper's pinned-frequency tables
        bit-identically.

    Returns
    -------
    dict
        ``"<application>/<size>" → ConfigTable``.

    Examples
    --------
    >>> tables = paper_operating_points(input_sizes=("medium",))
    >>> sorted(t.split("/")[0] for t in tables)
    ['audio_filter', 'pedestrian_recognition', 'speaker_recognition']
    """
    platform = platform or odroid_xu4()
    opp_scales = None
    if sweep_opps:
        from repro.energy.opp import available_scales, ensure_opps

        platform = ensure_opps(platform)
        opp_scales = available_scales(platform)
    explorer = DesignSpaceExplorer(platform)
    tables: dict[str, ConfigTable] = {}
    for model in paper_applications().values():
        for variant_name, graph in model.variants().items():
            size = variant_name.split("/", 1)[1]
            if input_sizes is not None and size not in input_sizes:
                continue
            tables[variant_name] = explorer.explore(
                graph, application_name=variant_name, opp_scales=opp_scales
            )
    return tables


def reduced_tables(
    tables: Mapping[str, ConfigTable], max_points: int
) -> dict[str, ConfigTable]:
    """Restrict every table to ``max_points`` points spread across the Pareto front.

    The exhaustive EX-MEM reference scheduler is exponential in the table
    sizes; the benchmark harness uses this helper to keep its runs tractable
    (the restriction is documented in EXPERIMENTS.md).  The selection keeps
    the extreme points (most energy-efficient and fastest) and fills the rest
    evenly along the execution-time axis, so the reduced tables still span the
    whole latency/energy trade-off the schedulers rely on.
    """
    if max_points <= 0:
        raise ValueError("max_points must be positive")
    reduced = {}
    for name, table in tables.items():
        if len(table) <= max_points:
            reduced[name] = table
            continue
        # The makespan order is a precomputed OpTable aggregate (stable
        # ``(execution_time, energy)`` sort, identical to the seed's).
        columnar = table.optable
        by_time = [table.points[i] for i in columnar.order_by_makespan]
        if max_points == 1:
            selected = [min(by_time, key=lambda p: p.energy)]
        else:
            # Even spread over the time-sorted front; index 0 is the fastest
            # point, the last index is the slowest (typically most efficient).
            positions = [
                round(i * (len(by_time) - 1) / (max_points - 1))
                for i in range(max_points)
            ]
            selected = [by_time[i] for i in sorted(set(positions))]
            most_efficient = table.points[columnar.argmin_energy]
            if most_efficient not in selected:
                if len(selected) >= max_points and len(selected) > 1:
                    # Sacrifice an interior point, never the fastest one.
                    selected.pop(len(selected) // 2)
                selected.append(most_efficient)
        reduced[name] = ConfigTable(name, selected)
    return reduced
