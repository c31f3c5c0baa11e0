"""The vectorized batch evaluation kernel.

:class:`BatchKernel` evaluates many ``evaluate_spec`` calls at once:

1. **Pack** (python, per point): each spec lowers to two
   :class:`~repro.costmodel.DesignRow` parameter rows through the
   delta-evaluation stage tables (:mod:`repro.batch.pack`), mirroring
   the scalar resolver's float arithmetic exactly.  Specs the row
   schema cannot express fall back to scalar ``evaluate_spec``
   (counted as ``batch.fallback_scalar``).
2. **Evaluate** (arrays): the distinct ``(design row, workload)`` pairs
   that no earlier point — in this batch or a previous one — already
   evaluated run through :func:`~repro.costmodel.layer_terms`, the one
   per-layer cost model the simulator also runs.  With numpy the whole
   group computes as (rows x layers) broadcast matrices; without it the
   same body loops row by row on plain floats, which is exactly what
   the simulator does per layer.  Reused pairs count as
   ``batch.delta_hits``.
3. **Assemble** (python, per point): per-design cycle/energy totals
   combine into :class:`~repro.spec.evaluate.SpecEvaluation` results
   with the exact ratio arithmetic of ``compare_designs``.

Certified pruning bounds (:meth:`BatchKernel.bound_calls`) run the same
three steps over the same rows: the 2D row is priced exactly (the very
:data:`~repro.batch.pack.ROW_RESULTS` entry a survivor's evaluation
then reads), the M3D row by :func:`~repro.costmodel.layer_bounds`, the
mandatory terms of the same model.  The kernel keeps the last bound
call's packed points, so a survivor's evaluation reuses its pack and a
pruned sweep packs each point once.  Scalar
:func:`~repro.sweep.bounds.spec_bounds` is a batch of one.

The kernel plugs into ``EvaluationEngine.map_batched`` as the batch
executor for the ``spec.evaluate`` / ``sweep.evaluate`` /
``sweep.bounds`` stages — cache keys, dedup and counters stay identical
to the scalar path, so a batch run warms the same cache a scalar run
reads and vice versa.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

from repro.batch.backend import active_numpy, backend_name, numpy_ops
from repro.batch.pack import (
    ROW_RESULTS,
    PackedPoint,
    WorkloadStage,
    pack_point,
    workload_stage,
)
from repro.costmodel import DesignRow, layer_bounds, layer_terms, scalar_ops
from repro.errors import require
from repro.mapper.cost import BOUND_MARGIN
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import is_enabled as _obs_enabled
from repro.runtime.cache import MISSING
from repro.runtime.memo import add_counts, memo_table
from repro.spec.design import DesignSpec
from repro.spec.evaluate import SpecEvaluation, evaluate_spec
from repro.sweep.bounds import PointBounds, spec_bounds
from repro.tech.pdk import PDK, foundry_m3d_pdk

__all__ = ["BatchKernel"]

#: M3D bound totals: (:func:`_bound_row`, workload key) -> (cycles, energy)
#: lower bounds.  The row key drops the CS count, so every ``tier_pairs`` /
#: ``n_cs`` sibling of a grid point shares one entry.
ROW_BOUNDS = memo_table("batch.bounds")


def _layer_totals(ops, d, f):
    """(cycles, energy) of design x layer pairs: the sums of
    :func:`~repro.costmodel.layer_terms`."""
    _, compute, writeback, dynamic, leakage = layer_terms(ops, d, f)
    return compute + writeback, dynamic + leakage


def _bound_row(row: DesignRow) -> DesignRow:
    """``row`` with the CS-count fields zeroed: the key every
    ``tier_pairs`` / ``n_cs`` sibling shares in :data:`ROW_BOUNDS`."""
    return row._replace(n_cs=0, bandwidth_bits=0, static_power=0.0)


def _design_columns(np, rows: Sequence[DesignRow]):
    """Stack design rows into (R, 1) column vectors for broadcasting."""
    columns = {}
    for name, values in zip(DesignRow._fields, zip(*rows)):
        dtype = bool if name == "row_packing" else np.float64
        columns[name] = np.array(values, dtype=dtype)[:, None]
    return SimpleNamespace(**columns)


def _evaluate_rows(rows: Sequence[DesignRow], stage: WorkloadStage,
                   terms) -> "list[tuple[float, float]]":
    """Network totals of a per-layer ``terms`` function, one per row."""
    np = active_numpy()
    if np is None:
        totals = []
        for row in rows:
            cycles = 0.0
            energy = 0.0
            for feature in stage.layers:
                layer_cycles, layer_energy = terms(scalar_ops, row, feature)
                cycles += layer_cycles
                energy += layer_energy
            totals.append((cycles, energy))
        return totals
    d = _design_columns(np, rows)
    f = stage.columns(np)
    cycles, energy = terms(numpy_ops(np), d, f)
    return list(zip(cycles.sum(axis=1).tolist(), energy.sum(axis=1).tolist()))


def _row_totals(table, terms, keys) -> "tuple[dict, int]":
    """``(totals, delta_hits)`` for ``(row, workload key)`` pairs.

    Delta evaluation: only the distinct pairs no earlier point already
    priced (in ``keys`` or in the memo ``table``) run through ``terms``,
    grouped per workload; every other pair is a hit.
    """
    totals: dict = {}
    pending: dict = {}
    delta_hits = 0
    for key in keys:
        if key in totals or key in pending:
            delta_hits += 1
            continue
        memoized = table.get(key)
        if memoized is not MISSING:
            totals[key] = memoized
            delta_hits += 1
            continue
        pending[key] = None
    groups: dict = {}
    for row, workload_key in pending:
        groups.setdefault(workload_key, []).append(row)
    for workload_key, rows in groups.items():
        stage = workload_stage(*workload_key)
        for row, row_totals in zip(rows, _evaluate_rows(rows, stage, terms)):
            key = (row, workload_key)
            totals[key] = row_totals
            table.put(key, row_totals)
    return totals, delta_hits


def _evaluate_points(
        points: Sequence[PackedPoint]) -> "tuple[list[SpecEvaluation], int]":
    """Evaluations of packed points, plus the delta hits it took."""
    totals, delta_hits = _row_totals(ROW_RESULTS, _layer_totals, [
        (row, point.workload_key)
        for point in points for row in (point.row_2d, point.row_m3d)])
    results = []
    for point in points:
        cycles_2d, energy_2d = totals[(point.row_2d, point.workload_key)]
        cycles_m3d, energy_m3d = totals[(point.row_m3d, point.workload_key)]
        # compare_designs ratio arithmetic, with runtime = cycles * t.
        speedup = (cycles_2d * point.row_2d.cycle_time) \
            / (cycles_m3d * point.row_m3d.cycle_time)
        energy_benefit = energy_2d / energy_m3d
        results.append(SpecEvaluation(
            spec=point.spec,
            n_cs_2d=point.row_2d.n_cs,
            n_cs_m3d=point.row_m3d.n_cs,
            footprint=point.footprint,
            speedup=speedup,
            energy_benefit=energy_benefit,
            edp_benefit=speedup * energy_benefit,
        ))
    return results, delta_hits


def bound_points(
        points: Sequence[PackedPoint]) -> "tuple[list[PointBounds], int]":
    """Certified bounds of packed points, plus the delta hits it took.

    The 2D baseline is priced exactly (its :data:`ROW_RESULTS` entry is
    the one the evaluation of a survivor reads), the M3D design by
    :func:`~repro.costmodel.layer_bounds` memoized on its
    :func:`_bound_row`.
    """
    lower_keys = [(_bound_row(point.row_m3d), point.workload_key)
                  for point in points]
    exact, hits_2d = _row_totals(ROW_RESULTS, _layer_totals, [
        (point.row_2d, point.workload_key) for point in points])
    lower, hits_lb = _row_totals(ROW_BOUNDS, layer_bounds, lower_keys)
    results = []
    for point, lower_key in zip(points, lower_keys):
        cycles_2d, energy_2d = exact[(point.row_2d, point.workload_key)]
        cycles_lb, energy_lb = lower[lower_key]
        runtime_lb = cycles_lb * point.row_m3d.cycle_time
        require(runtime_lb > 0.0 and energy_lb > 0.0,
                "M3D lower bounds must be positive")
        t_ratio = cycles_2d * point.row_2d.cycle_time / runtime_lb
        e_ratio = energy_2d / energy_lb
        results.append(PointBounds(
            spec=point.spec,
            footprint=point.footprint,
            speedup_ub=t_ratio / BOUND_MARGIN,
            energy_benefit_ub=e_ratio / BOUND_MARGIN,
            edp_benefit_ub=t_ratio * e_ratio / BOUND_MARGIN,
        ))
    return results, hits_2d + hits_lb


class BatchKernel:
    """Batched ``evaluate_spec`` against one base PDK.

    ``pdk=None`` means the default foundry M3D PDK, matching
    ``evaluate_spec(spec)``'s default — the kernel then only accepts the
    one-argument call shape, so its results answer exactly the calls the
    scalar path would have made.
    """

    def __init__(self, pdk: PDK | None = None) -> None:
        self.pdk = pdk
        self.base = pdk if pdk is not None else foundry_m3d_pdk()
        self._pdk_verdicts: dict[int, tuple] = {}
        #: The last bound call's packs, ``id(spec) -> (spec, point)``:
        #: a survivor's evaluation reuses its bound-time pack.  Each
        #: entry keeps its spec alive, so a matching id is that spec.
        self._bound_packs: dict[int, tuple] = {}

    def _accepts_pdk(self, pdk) -> bool:
        """Whether a call's explicit PDK matches this kernel's base
        (identity, or content equality cached per object)."""
        if pdk is self.base or pdk is self.pdk:
            return True
        if not isinstance(pdk, PDK):
            return False
        verdict = self._pdk_verdicts.get(id(pdk))
        if verdict is None or verdict[0] is not pdk:
            verdict = (pdk, pdk == self.base)
            self._pdk_verdicts[id(pdk)] = verdict
        return verdict[1]

    def evaluate_specs(
            self, specs: Sequence[DesignSpec]) -> "list[SpecEvaluation]":
        """Evaluate specs directly (no engine cache involved)."""
        if self.pdk is None:
            calls = [((spec,), {}) for spec in specs]
        else:
            calls = [((spec, self.pdk), {}) for spec in specs]
        return self.evaluate_calls(calls)

    def evaluate_calls(
            self,
            calls: "Sequence[tuple[tuple, dict]]") -> "list[SpecEvaluation]":
        """Evaluate normalized ``(args, kwargs)`` ``evaluate_spec`` calls.

        This is the ``batch_fn`` the engine's ``map_batched`` invokes for
        cache-missing calls.  Results are positional; calls the kernel
        cannot take (unexpected shape, mismatched PDK, unsupported spec)
        evaluate through scalar ``evaluate_spec`` — errors those specs
        would raise scalar-side propagate unchanged.
        """
        return self._run(calls, _evaluate_points, evaluate_spec)

    def bound_calls(
            self,
            calls: "Sequence[tuple[tuple, dict]]") -> "list[PointBounds]":
        """Bound normalized ``(args, kwargs)`` ``spec_bounds`` calls.

        The ``batch_fn`` of the streaming sweep's ``sweep.bounds`` stage:
        one vectorized bound per chunk over the same rows the evaluation
        reads, with the same call acceptance and scalar fallback
        (``spec_bounds``) as :meth:`evaluate_calls`.  The packed points
        are kept until the next bound call, so evaluating a survivor
        (the same spec object) does not pack it again.
        """
        self._bound_packs = {}
        return self._run(calls, bound_points, spec_bounds, remember=True)

    def _run(self, calls, price, scalar_fn, remember=False) -> list:
        """Pack the calls this kernel accepts, ``price`` them as one
        batch, and answer the rest through ``scalar_fn``.

        A spec the last bound call packed (checked by identity) reuses
        that pack; with ``remember``, this call's packs are kept.
        """
        known = self._bound_packs
        results: list = [None] * len(calls)
        packed: "list[tuple[int, PackedPoint]]" = []
        fallback: list[int] = []
        for index, (args, kwargs) in enumerate(calls):
            supported = (not kwargs and 1 <= len(args) <= 2
                         and isinstance(args[0], DesignSpec))
            if supported:
                supported = self.pdk is None if len(args) == 1 \
                    else self._accepts_pdk(args[1])
            if supported:
                spec = args[0]
                entry = known.get(id(spec))
                if entry is not None:
                    packed.append((index, entry[1]))
                    continue
                try:
                    point = pack_point(spec, self.base)
                except Exception:
                    # Unsupported or invalid specs take the scalar path,
                    # which raises its own diagnostics.
                    pass
                else:
                    packed.append((index, point))
                    if remember:
                        known[id(spec)] = (spec, point)
                    continue
            fallback.append(index)

        priced, delta_hits = price([point for _, point in packed])
        for (index, _), result in zip(packed, priced):
            results[index] = result
        for index in fallback:
            args, kwargs = calls[index]
            results[index] = scalar_fn(*args, **kwargs)

        add_counts("batch", points=len(calls), delta_hits=delta_hits,
                   fallback_scalar=len(fallback))
        if _obs_enabled():
            registry = _metrics_registry()
            registry.counter("repro_batch_points_total",
                             backend=backend_name()).inc(len(calls))
            registry.counter("repro_batch_delta_hits_total").inc(delta_hits)
            registry.counter("repro_batch_fallback_scalar_total") \
                .inc(len(fallback))
        return results
