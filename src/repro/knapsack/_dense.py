"""Dense-matrix numpy backend of the batched Lagrangian MMKP solver.

The pure-Python subgradient method in :mod:`repro.knapsack.lagrangian` walks
every group and item per iteration and serves every single solve; this
backend serves :func:`~repro.knapsack.solve_lagrangian_many` only.  It runs
the same method on padded ``(groups x max_items)`` value and
``(groups x max_items x dims)`` weight ndarrays — the whole relaxed
selection is one penalty broadcast plus a per-group ``argmax``, the greedy
repair is a masked savings matrix, and :func:`solve_many` stacks same-shape
problems into one 3-D tensor and runs *all* their subgradient loops
lock-step (converged problems drop out of the updates through an active
mask, exactly as if each had broken out of its own loop).

Every fast path reproduces the pure path's floats **bit-identically**:

* penalties, subgradient steps and multiplier projections are elementwise
  operations applied in the pure path's evaluation order;
* group/dimension reductions that the pure path computes with Python's
  left-to-right ``sum`` are evaluated with ``np.add.accumulate`` (a strictly
  sequential accumulation) seeded with the same ``0.0`` start;
* per-group argmaxes and repair-downgrade scans rely on ``np.argmax``'s
  first-occurrence tie rule, which matches the pure loops' strict ``>``
  updates.

The backend runs whenever numpy is installed; numpy is imported on the
first stacked solve, not with :mod:`repro` (see :mod:`repro._lazy`).  Tests and
benchmarks A/B it against the pure loop on one host with
:func:`solver_numpy_override`.  The equivalence suites check both against
the seed subgradient loop of the reference oracle in ``tests/reference``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro import _lazy

_ENABLED = True


def solver_numpy_enabled() -> bool:
    """``True`` when stacked solves run on the dense numpy backend.

    Imports numpy on the first call that finds the backend enabled.
    """
    return _ENABLED and _lazy.numpy() is not None


@contextmanager
def solver_numpy_override(enabled: bool):
    """Pin the dense backend on (where numpy imports) or off within the block."""
    global _ENABLED
    previous, _ENABLED = _ENABLED, bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


class DensePack:
    """Padded ndarray twin of one :class:`~repro.knapsack.mmkp.MMKPProblem`.

    Attributes
    ----------
    values:
        ``(groups, max_items)`` float64; padding slots hold ``-inf`` so no
        argmax can select them.
    weights:
        ``(groups, max_items, dims)`` float64; padding slots hold ``0.0`` so
        penalty broadcasts stay finite.
    mask:
        ``(groups, max_items)`` bool — ``True`` on real items.
    group_sizes:
        The real item count per group (the ragged shape the padding hides).
    capacities:
        ``(dims,)`` float64 copy of the problem capacities.

    Packs are interned on the problem instance (one pack per problem, built
    on first use).
    """

    __slots__ = (
        "values",
        "weights",
        "mask",
        "group_sizes",
        "capacities",
        "shape_key",
    )

    def __init__(self, problem) -> None:
        np = _lazy.numpy()
        values = problem.dense_values
        rows = problem.dense_rows
        num_groups = len(values)
        max_items = max(len(group) for group in values)
        dims = problem.num_dimensions
        self.values = np.full((num_groups, max_items), -np.inf)
        self.weights = np.zeros((num_groups, max_items, dims))
        self.mask = np.zeros((num_groups, max_items), dtype=bool)
        self.group_sizes = tuple(len(group) for group in values)
        for g, (group_values, group_rows) in enumerate(zip(values, rows)):
            size = len(group_values)
            self.values[g, :size] = group_values
            self.weights[g, :size, :] = group_rows
            self.mask[g, :size] = True
        self.capacities = np.asarray(problem.capacities, dtype=float)
        self.shape_key = (num_groups, max_items, dims)


def pack_dense(problem) -> DensePack:
    """The problem's :class:`DensePack`, built once and cached on the problem."""
    pack = getattr(problem, "_dense_pack", None)
    if pack is None:
        pack = DensePack(problem)
        problem._dense_pack = pack
    return pack


# --------------------------------------------------------------------- #
# Sequential reductions (bit-identical to Python's left-to-right sum)
# --------------------------------------------------------------------- #
def _prefix_total(array, counts, batch_index):
    """Left-to-right group sum, truncated at each problem's real group count.

    ``array`` is ``(B, G)`` or ``(B, G, D)``; the result drops axis 1.
    ``np.add.accumulate`` evaluates ``out[i] = out[i-1] + a[i]`` strictly in
    order (unlike ``np.sum``, whose pairwise blocking rounds differently), so
    the prefix at index ``counts[b] - 1`` is the running total over exactly
    problem ``b``'s real groups; the canvas's padding groups never enter it.

    The trailing ``+ 0.0`` reconciles the one representable difference with
    Python's zero-seeded ``sum(...)``: a running IEEE sum seeded with ``0``
    can never be ``-0.0`` (``0 + -0.0`` and ``x + -x`` both round to
    ``+0.0``), while an unseeded accumulation over all ``-0.0`` terms is
    ``-0.0`` — adding ``+0.0`` maps that single case back and is the
    identity everywhere else.
    """
    np = _lazy.numpy()
    acc = np.add.accumulate(array, axis=1)
    if array.ndim == 2:
        return acc[batch_index, counts - 1] + 0.0
    return acc[batch_index, counts - 1, :] + 0.0


# --------------------------------------------------------------------- #
# Batched greedy repair (the pure ``_repair`` lock-stepped over a batch)
# --------------------------------------------------------------------- #
def _repair_stacked(values, weights, mask, capacities, group_counts, limits, selections):
    """Repair ``B`` relaxed selections lock-step.

    Mirrors :func:`repro.knapsack.lagrangian._repair` pass for pass: each
    round checks feasibility, finds the worst-violated dimension and applies
    the single best strictly-positive downgrade — per problem, under a done
    mask, until every problem has returned (feasible, hit its no-downgrade
    break, or exhausted its ``groups * max_group_size`` pass bound in
    ``limits``).  ``group_counts`` holds each problem's real group count on
    the shared canvas; padding groups are fully masked, so they can never be
    downgraded, and the prefix totals never include them.

    Returns ``(feasible, value, selection)`` per problem, where ``selection``
    is ``None`` when even repair failed (value ``-inf``), exactly like the
    pure path's :class:`~repro.knapsack.mmkp.MMKPSolution` fields.
    """
    np = _lazy.numpy()
    batch, num_groups, max_items = values.shape
    current = selections.copy()
    slack = capacities + 1e-9
    divisor = np.where(capacities == 0.0, 1.0, capacities)
    done = np.zeros(batch, dtype=bool)
    out: list[tuple[bool, float, tuple[int, ...] | None]] = [
        (False, float("-inf"), None)
    ] * batch
    batch_index = np.arange(batch)
    batch_col = batch_index[:, None]
    group_row = np.arange(num_groups)[None, :]
    item_cube = np.arange(max_items)[None, None, :]

    passes = 0
    while not done.all():
        selected_rows = weights[batch_col, group_row, current]  # (B, G, D)
        used = _prefix_total(selected_rows, group_counts, batch_index)  # (B, D)
        feasible = (used <= slack).all(axis=1)

        finish_feasible = ~done & feasible
        if finish_feasible.any():
            totals = _prefix_total(
                values[batch_col, group_row, current], group_counts, batch_index
            )
            for b in np.nonzero(finish_feasible)[0]:
                out[b] = (
                    True,
                    float(totals[b]),
                    tuple(int(i) for i in current[b, : group_counts[b]]),
                )
            done |= finish_feasible

        # The pure loop runs ``limit`` passes then re-checks once more; an
        # infeasible problem at its bound has just failed that final check.
        over_limit = ~done & (passes >= limits)
        done |= over_limit
        active = ~done
        if not active.any():
            break

        violations = (used - capacities) / divisor  # (B, D)
        worst = np.argmax(violations, axis=1)  # first max, like pure ``max``
        current_weight = selected_rows[batch_col, group_row, worst[:, None]]  # (B, G)
        column = weights[
            batch_col[:, :, None], group_row[:, :, None], item_cube, worst[:, None, None]
        ]  # (B, G, I)
        savings = np.where(mask, current_weight[:, :, None] - column, -np.inf)
        flat = savings.reshape(batch, num_groups * max_items)
        best_flat = np.argmax(flat, axis=1)  # first occurrence == pure scan order
        best_saving = flat[batch_index, best_flat]

        # ``best_group is None`` break: no strictly positive saving left and
        # the top-of-pass check was infeasible, so the final check re-fails.
        stuck = active & ~(best_saving > 0.0)
        done |= stuck
        apply = active & (best_saving > 0.0)
        if apply.any():
            rows = best_flat // max_items
            items = best_flat % max_items
            targets = np.nonzero(apply)[0]
            current[targets, rows[targets]] = items[targets]
        passes += 1

    return out


# --------------------------------------------------------------------- #
# Batched subgradient loop
# --------------------------------------------------------------------- #
def _stack_packs(packs):
    """Embed same-dimension packs into one shared padded canvas.

    The canvas is ``(B, Gmax, Imax[, D])`` over the batch-wide maxima; each
    problem occupies its top-left corner, with padding *groups* (all items
    masked, value ``-inf``, weight ``0``) below its real ones.  Padding
    groups always argmax to item 0 and the prefix totals stop at the real
    group count, so problems of different sizes share one tensor without any
    representable difference in their arithmetic.
    """
    np = _lazy.numpy()
    batch = len(packs)
    dims = int(packs[0].capacities.shape[0])
    group_max = max(p.values.shape[0] for p in packs)
    item_max = max(p.values.shape[1] for p in packs)
    values = np.full((batch, group_max, item_max), -np.inf)
    weights = np.zeros((batch, group_max, item_max, dims))
    mask = np.zeros((batch, group_max, item_max), dtype=bool)
    capacities = np.empty((batch, dims))
    group_counts = np.empty(batch, dtype=np.int64)
    limits = np.empty(batch, dtype=np.int64)
    for b, pack in enumerate(packs):
        groups, items = pack.values.shape
        values[b, :groups, :items] = pack.values
        weights[b, :groups, :items, :] = pack.weights
        mask[b, :groups, :items] = pack.mask
        capacities[b] = pack.capacities
        group_counts[b] = groups
        limits[b] = groups * max(pack.group_sizes)
    return values, weights, mask, capacities, group_counts, limits


def _solve_stacked(packs, max_iterations: int, initial_step: float):
    """Run the subgradient method on same-dimension packs lock-step.

    Returns one ``(multipliers, dual_bound, best_primal, iterations)`` tuple
    per pack, bit-identical to running the pure loop on each problem alone.
    """
    np = _lazy.numpy()
    batch = len(packs)
    values, weights, mask, capacities, group_counts, limits = _stack_packs(packs)
    dims = capacities.shape[1]
    num_groups = values.shape[1]
    batch_index = np.arange(batch)
    batch_col = batch_index[:, None]
    group_row = np.arange(num_groups)[None, :]

    multipliers = np.zeros((batch, dims))
    best_dual = np.full(batch, np.inf)
    best_multipliers = np.zeros((batch, dims))
    best_value = np.full(batch, -np.inf)
    best_selection: list[tuple[int, ...] | None] = [None] * batch
    best_feasible = [False] * batch
    iterations = np.zeros(batch, dtype=np.int64)
    active = np.ones(batch, dtype=bool)
    repair_memo: list[dict] = [{} for _ in range(batch)]
    previous_selection = np.full((batch, num_groups), -1, dtype=np.int64)

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        # Relaxed selection: padded slots hold value -inf / weight 0, so the
        # penalty leaves them at -inf and no argmax can pick them.  The
        # penalty accumulates per dimension in the pure path's term order.
        penalty = multipliers[:, 0][:, None, None] * weights[..., 0]
        for d in range(1, dims):
            penalty = penalty + multipliers[:, d][:, None, None] * weights[..., d]
        reduced = values - penalty
        selection = np.argmax(reduced, axis=2)  # (B, G), first-occurrence ties

        selected_values = values[batch_col, group_row, selection]  # (B, G)
        selected_rows = weights[batch_col, group_row, selection]  # (B, G, D)
        total_value = _prefix_total(selected_values, group_counts, batch_index)
        used = _prefix_total(selected_rows, group_counts, batch_index)  # (B, D)

        # Relaxed value = value + sum(m * (cap - used)), terms in pure order.
        gap = np.zeros(batch)
        for d in range(dims):
            gap = gap + multipliers[:, d] * (capacities[:, d] - used[:, d])
        relaxed = total_value + gap

        improved = active & (relaxed < best_dual)
        if improved.any():
            best_dual[improved] = relaxed[improved]
            best_multipliers[improved] = multipliers[improved]

        # Primal repair — memoised per problem on the relaxed selection
        # (repair is a pure function of it, so a replay is bit-identical).
        # A problem whose selection is unchanged from the previous iteration
        # re-repairs to the same solution, and the pure path's strict ``>``
        # best update makes an equal value a no-op — so only problems whose
        # selection actually moved do any Python-level work here.
        changed = active & (selection != previous_selection).any(axis=1)
        if changed.any():
            changed_list = [int(b) for b in np.nonzero(changed)[0]]
            keys = [selection[b].tobytes() for b in changed_list]
            need = [
                b for b, key in zip(changed_list, keys) if key not in repair_memo[b]
            ]
            if need:
                subset = np.asarray(need)
                repaired = _repair_stacked(
                    values[subset],
                    weights[subset],
                    mask[subset],
                    capacities[subset],
                    group_counts[subset],
                    limits[subset],
                    selection[subset],
                )
                for b, outcome in zip(need, repaired):
                    repair_memo[b][selection[b].tobytes()] = outcome
            for b, key in zip(changed_list, keys):
                feasible, value, repaired_selection = repair_memo[b][key]
                if feasible and value > best_value[b]:
                    best_value[b] = value
                    best_selection[b] = repaired_selection
                    best_feasible[b] = True
        previous_selection = selection

        subgradient = used - capacities  # (B, D)
        converged = active & (np.abs(subgradient) < 1e-12).all(axis=1)
        if converged.any():
            iterations[converged] = iteration
            active &= ~converged
        if not active.any():
            break

        step = initial_step / (iteration**0.5)
        updated = multipliers + step * subgradient
        updated = np.where(updated > 0.0, updated, 0.0)  # max(0.0, x)
        multipliers = np.where(active[:, None], updated, multipliers)

    iterations[active] = iteration

    results = []
    for b in range(batch):
        count = int(iterations[b])
        results.append(
            (
                tuple(float(m) for m in best_multipliers[b]),
                float(best_dual[b]),
                (
                    best_feasible[b],
                    float(best_value[b]) if best_feasible[b] else float("-inf"),
                    best_selection[b],
                ),
                count,
            )
        )
    return results


def solve_many(problems, max_iterations: int, initial_step: float):
    """Dense solve of many problems, grouped by knapsack dimension count.

    Problems sharing a dimension count are embedded into one padded canvas
    (batch-wide ``Gmax``/``Imax``, see :func:`_stack_packs`) and solved
    lock-step — one bucket per ``dims`` keeps a heterogeneous sweep in as few
    tensors as possible.  The result order follows the input order.
    """
    packs = [pack_dense(problem) for problem in problems]
    buckets: dict[int, list[int]] = {}
    for index, pack in enumerate(packs):
        buckets.setdefault(pack.shape_key[2], []).append(index)
    results: list = [None] * len(packs)
    for indices in buckets.values():
        solved = _solve_stacked(
            [packs[i] for i in indices], max_iterations, initial_step
        )
        for i, result in zip(indices, solved):
            results[i] = result
    return results

