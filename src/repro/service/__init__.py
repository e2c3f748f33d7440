"""``repro.service`` — concurrent batch simulation on top of the runtime manager.

The seed reproduction runs one :class:`~repro.runtime.trace.RequestTrace` at
a time through a single :class:`~repro.runtime.manager.RuntimeManager`.  This
package scales that into a *service*: declarative batches of thousands of
simulations, executed concurrently, with repeated scheduler activations
served from a cache.

Modules
-------
* :mod:`repro.service.events` — heap-based :class:`EventQueue`
  (arrival/finish/segment-boundary/timer events); the runtime manager's
  default ``"events"`` time-advance engine is driven by it.
* :mod:`repro.service.jobs` — :class:`BatchSpec`: a named tuple of
  :class:`~repro.api.spec.ExperimentSpec`\\ s (the description
  ``Session.run`` takes), JSON-serialisable, with sweep, shard and
  energy-policy helpers.
* :mod:`repro.service.cache` — :func:`ActivationCache` /
  :class:`CachingScheduler`: an ``activation`` :class:`~repro.store.memo.Memo`
  over scheduling problems as given, so an activation repeated across
  traces (repeats, governor replays, warm reruns) is solved once.
* :mod:`repro.service.pool` — :class:`SimulationService`: batches fanned
  out through one :class:`~repro.cluster.ShardCoordinator` (serial, thread
  or process mode), each experiment wired by
  ``RuntimeManager.from_spec`` exactly as ``Session.run`` wires it, with
  per-experiment seeding, failure isolation and ordered, bit-reproducible
  results.
* :mod:`repro.service.metrics` — :class:`Counter` and :class:`Histogram`
  and their Prometheus rendering, behind the gateway's ``GET /metrics``.

Usage
-----

Describe a batch declaratively, then run it::

    from repro.service import BatchSpec, SimulationService

    spec = BatchSpec.sweep(
        arrival_rates=[0.1, 0.2, 0.4],
        schedulers=["mmkp-mdf", "mmkp-lr"],
        traces_per_point=25,
        num_requests=10,
    )
    spec.save("sweep.json")                      # shareable, shardable

    service = SimulationService(workers=4)
    results = service.run_batch(BatchSpec.load("sweep.json"))
    print(results.aggregate()["acceptance_rate"])  # the batch's totals
    print(service.cache.info()["hit_rate"])        # its activation-cache counts

Determinism guarantees
----------------------
Every experiment carries its own workload seed and a cache hit returns what
the plain scheduler returns on the same problem, so a batch yields the same
:meth:`~repro.service.pool.BatchResults.fingerprint` for any worker count,
executor and cache state, with each result equal to ``Session.run`` of its
experiment.  Wall-clock fields are excluded from the fingerprint.

Cache semantics
---------------
A cache key is the problem as given — capacity, activation time, every
job's name, application, arrival, deadline and remaining ratio in problem
order, table content fingerprints, scheduler name and options — so a hit
is the plain scheduler's answer to that very problem.  One cache is shared
across all traces of a batch (per worker process under the ``"process"``
and ``"cluster"`` executors); ``cache_size=0`` turns it off.  Its
``info()`` counts the hits and misses; under ``"process"`` and
``"cluster"`` those counts stay in the worker processes.

The corresponding CLI entry point is ``repro-rm batch`` (see
:mod:`repro.cli`).
"""

from repro.service.cache import ActivationCache, CachingScheduler
from repro.service.events import Event, EventKind, EventQueue
from repro.service.metrics import Counter, Histogram

__all__ = [
    "ActivationCache",
    "CachingScheduler",
    "Event",
    "EventKind",
    "EventQueue",
    "Counter",
    "Histogram",
    # Lazily loaded (they depend on repro.runtime, which imports this package):
    "BatchSpec",
    "SimulationService",
    "SimulationResult",
    "BatchResults",
]

#: Lazy attribute → defining submodule.  ``repro.runtime.manager`` imports
#: ``repro.service.events`` while ``jobs``/``pool`` import the spec tree and
#: the runtime manager, so importing those eagerly here would create an
#: import cycle.
_LAZY = {
    "BatchSpec": "repro.service.jobs",
    "SimulationService": "repro.service.pool",
    "SimulationResult": "repro.service.pool",
    "BatchResults": "repro.service.pool",
}

from repro._lazy import lazy_attributes

__getattr__, __dir__ = lazy_attributes(globals(), _LAZY)
