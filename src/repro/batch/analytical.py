"""Vectorized Eqs. 1-8: the analytical framework over packed arrays.

:mod:`repro.core.framework` evaluates one (workload, design point) pair
per call; these functions evaluate whole sequences at once.  Sequences
broadcast like numpy: a length-1 sequence pairs with every element of
the longer one (Fig. 8's shape — one workload, one baseline, a grid of
candidates).  With numpy the framework's own equation bodies
(:func:`~repro.core.framework.time_terms` /
:func:`~repro.core.framework.energy_terms`) run on float64 columns;
without it each pair delegates to the scalar framework functions, so the
fallback is bit-identical by construction and the numpy path agrees
within 1e-9 (one body — only the max/min/floor ops turn elementwise).
"""

from __future__ import annotations

from dataclasses import fields
from types import SimpleNamespace
from typing import Sequence

from repro.batch.backend import active_numpy, numpy_ops
from repro.core.framework import (
    DesignPoint,
    Workload,
    energy,
    energy_benefit,
    energy_terms,
    execution_time,
    speedup,
    time_terms,
)
from repro.errors import require

__all__ = [
    "edp_benefit_batch",
    "energy_batch",
    "energy_benefit_batch",
    "execution_time_batch",
    "speedup_batch",
]


def _broadcast(*sequences: Sequence) -> int:
    """Common length of the sequences (each must have it, or length 1)."""
    length = 1
    for sequence in sequences:
        size = len(sequence)
        require(size >= 1, "batch sequences must be non-empty")
        if length == 1:
            length = size
        else:
            require(size in (1, length),
                    f"cannot broadcast batch of {size} against {length}")
    return length


def _pick(sequence: Sequence, index: int):
    return sequence[0] if len(sequence) == 1 else sequence[index]


def _columns(np, items: Sequence, length: int):
    """The dataclass fields of ``items``, broadcast to ``length``, as
    float64 columns under their attribute names."""
    items = [_pick(items, i) for i in range(length)]
    return SimpleNamespace(**{
        field.name: np.array([getattr(item, field.name) for item in items],
                             dtype=np.float64)
        for field in fields(items[0])})


def execution_time_batch(workloads: Sequence[Workload],
                         designs: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 1/4 over pairs; length-1 sequences broadcast."""
    length = _broadcast(workloads, designs)
    np = active_numpy()
    if np is None:
        return [execution_time(_pick(workloads, i), _pick(designs, i))
                for i in range(length)]
    total = time_terms(numpy_ops(np), _columns(np, workloads, length),
                       _columns(np, designs, length))[3]
    return total.tolist()


def energy_batch(workloads: Sequence[Workload],
                 designs: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 6/7 over pairs; length-1 sequences broadcast."""
    length = _broadcast(workloads, designs)
    np = active_numpy()
    if np is None:
        return [energy(_pick(workloads, i), _pick(designs, i))
                for i in range(length)]
    return energy_terms(numpy_ops(np), _columns(np, workloads, length),
                        _columns(np, designs, length)).tolist()


def speedup_batch(workloads: Sequence[Workload],
                  baselines: Sequence[DesignPoint],
                  m3ds: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 5 over triples; length-1 sequences broadcast."""
    length = _broadcast(workloads, baselines, m3ds)
    np = active_numpy()
    if np is None:
        return [speedup(_pick(workloads, i), _pick(baselines, i),
                        _pick(m3ds, i)) for i in range(length)]
    baseline_t = execution_time_batch(workloads, baselines)
    m3d_t = execution_time_batch(workloads, m3ds)
    return (np.array(baseline_t) / np.array(m3d_t)).tolist()


def energy_benefit_batch(workloads: Sequence[Workload],
                         baselines: Sequence[DesignPoint],
                         m3ds: Sequence[DesignPoint]) -> "list[float]":
    """E_2D / E_3D over triples; length-1 sequences broadcast."""
    length = _broadcast(workloads, baselines, m3ds)
    np = active_numpy()
    if np is None:
        return [energy_benefit(_pick(workloads, i), _pick(baselines, i),
                               _pick(m3ds, i)) for i in range(length)]
    baseline_e = energy_batch(workloads, baselines)
    m3d_e = energy_batch(workloads, m3ds)
    return (np.array(baseline_e) / np.array(m3d_e)).tolist()


def edp_benefit_batch(workloads: Sequence[Workload],
                      baselines: Sequence[DesignPoint],
                      m3ds: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 8 over triples: speedup x energy benefit, elementwise."""
    gains = speedup_batch(workloads, baselines, m3ds)
    savings = energy_benefit_batch(workloads, baselines, m3ds)
    return [gain * saving for gain, saving in zip(gains, savings)]
