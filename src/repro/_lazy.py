"""Lazy imports: package attributes, and numpy for the two kernels that use it.

Several package inits (:mod:`repro`, :mod:`repro.api`, :mod:`repro.service`)
re-export symbols whose defining modules are expensive to import or would
create import cycles if loaded eagerly.  Instead of three hand-rolled
``__getattr__``/``__dir__`` pairs, each declares a name → module table and
calls::

    __getattr__, __dir__ = lazy_attributes(globals(), _LAZY)

The library is otherwise pure Python.  Two kernels run faster on numpy and
use it when it is installed: Pareto dominance over fronts of 32 or more
points (:func:`repro.optable._backend.dominance_survivors`, the DVFS-swept
DSE fronts) and the stacked Lagrangian solve of
:func:`repro.knapsack.solve_lagrangian_many` (:mod:`repro.knapsack._dense`).
The per-application tables the runtime manager selects over are too small
for ndarrays to pay, so ``import repro`` does not load numpy; the first call
of either kernel does, through :func:`numpy` — the one place numpy is
imported.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
from typing import Callable, Mapping

#: ``True`` when numpy is installed.  It is looked up, not imported;
#: :func:`numpy` still returns ``None`` when an installed numpy fails to
#: import.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


@functools.cache
def numpy():
    """The numpy module, imported on the first call; ``None`` without it.

    A numpy that is installed but fails to import counts as missing, so its
    callers keep their pure-Python path.
    """
    if not HAVE_NUMPY:
        return None
    try:
        import numpy as module
    except ImportError:
        return None
    return module


def lazy_attributes(
    module_globals: dict, mapping: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list]]:
    """Build the ``(__getattr__, __dir__)`` pair for a lazily-exporting package.

    ``mapping`` maps each public attribute name to the module that defines
    it.  Resolved attributes are cached in the package namespace, so every
    name is imported at most once.
    """
    module_name = module_globals["__name__"]

    def __getattr__(name: str):
        if name in mapping:
            value = getattr(importlib.import_module(mapping[name]), name)
            module_globals[name] = value
            return value
        raise AttributeError(f"module {module_name!r} has no attribute {name!r}")

    def __dir__() -> list:
        return sorted(set(module_globals) | set(mapping))

    return __getattr__, __dir__
