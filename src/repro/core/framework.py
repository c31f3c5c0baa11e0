"""Equations 1-8 of the paper, implemented verbatim.

The framework abstracts a workload as (F0 compute operations, D0 bits of
on-chip memory traffic) and a design as (peak throughput P_peak, memory
bandwidth B, parallel CS count N, and per-component energies).  Execution
time is the roofline maximum of data-transfer and compute time (after [12]);
energy adds idle terms for the memory and for every CS over its stall time.

All quantities are per *cycle* on the time axis (the paper works in cycles)
and joules on the energy axis.

Eqs. 1/4 and 6/7 are written once, in :func:`time_terms` and
:func:`energy_terms`, on the op set of :class:`~repro.costmodel.ArrayOps`
over any objects carrying :class:`Workload` / :class:`DesignPoint`
attribute names.  The functions here run them on plain numbers
(:data:`~repro.costmodel.scalar_ops`); :mod:`repro.batch.analytical`
runs the same bodies on numpy columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.costmodel import scalar_ops
from repro.errors import require


@dataclass(frozen=True)
class Workload:
    """An abstract workload for the analytical framework.

    Attributes:
        compute_ops: F0 — total compute operations.
        data_bits: D0 — bits of on-chip memory traffic the workload moves
            through the shared interconnect (broadcast to every partition).
        max_partitions: N# — maximum parallel partitions the workload
            admits (math.inf for perfectly parallel workloads).
    """

    compute_ops: float
    data_bits: float
    max_partitions: float = math.inf

    def __post_init__(self) -> None:
        require(self.compute_ops >= 0, "F0 must be non-negative")
        require(self.data_bits >= 0, "D0 must be non-negative")
        require(self.max_partitions >= 1, "N# must be >= 1")

    @property
    def intensity(self) -> float:
        """Operations per bit of memory traffic (Obs. 5's knob)."""
        if self.data_bits == 0:
            return math.inf
        return self.compute_ops / self.data_bits


@dataclass(frozen=True)
class DesignPoint:
    """A design point for the analytical framework (2D: N = 1).

    Attributes:
        n_cs: N — parallel computing sub-systems.
        peak_ops_per_cycle: P_peak — ops/cycle of *one* CS.
        bandwidth_bits_per_cycle: B — total memory bandwidth, bits/cycle
            (each CS receives B / N).
        memory_energy_per_bit: alpha — J/bit of memory access.
        compute_energy_per_op: E_C — J/op.
        cs_idle_energy_per_cycle: E_C^idle — J/cycle of one stalled CS.
        memory_idle_energy_per_cycle: E_M^idle — J/cycle of idle memory.
    """

    n_cs: int
    peak_ops_per_cycle: float
    bandwidth_bits_per_cycle: float
    memory_energy_per_bit: float
    compute_energy_per_op: float
    cs_idle_energy_per_cycle: float = 0.0
    memory_idle_energy_per_cycle: float = 0.0

    def __post_init__(self) -> None:
        require(self.n_cs >= 1, "N must be >= 1")
        require(self.peak_ops_per_cycle > 0, "P_peak must be positive")
        require(self.bandwidth_bits_per_cycle > 0, "B must be positive")
        require(self.memory_energy_per_bit >= 0, "alpha must be non-negative")
        require(self.compute_energy_per_op >= 0, "E_C must be non-negative")
        require(self.cs_idle_energy_per_cycle >= 0, "E_C^idle must be non-negative")
        require(self.memory_idle_energy_per_cycle >= 0, "E_M^idle must be non-negative")

    def with_n_cs(self, n_cs: int) -> "DesignPoint":
        """Copy with a different CS count (bandwidth unchanged)."""
        return replace(self, n_cs=n_cs)

    def with_bandwidth(self, bandwidth_bits_per_cycle: float) -> "DesignPoint":
        """Copy with a different total bandwidth."""
        return replace(self, bandwidth_bits_per_cycle=bandwidth_bits_per_cycle)


def time_terms(ops, workload, design):
    """(N_max, transfer, compute, T) — Eq. 1 (N = 1) and Eq. 4 (general N).

    N_max = min(N#, N) CSs work in parallel, and

    T = max(D0 * N / B,  F0 / (N_max * P_peak))

    The D0 * N / B term models the broadcast of the workload's data to every
    partition over per-partition bandwidth B / N.
    """
    n_max = ops.floor(ops.minimum(workload.max_partitions, design.n_cs))
    transfer = workload.data_bits * design.n_cs / design.bandwidth_bits_per_cycle
    compute = workload.compute_ops / (n_max * design.peak_ops_per_cycle)
    return n_max, transfer, compute, ops.maximum(transfer, compute)


def energy_terms(ops, workload, design):
    """Total energy in joules — Eq. 6 (N = 1) and Eq. 7 (general N).

    E = alpha * D0
        + E_M^idle * (T - D0 * N / B)                 [memory stall]
        + (N - N_max) * E_C^idle * T                  [unused CSs]
        + N * E_C^idle * (T - F0 / (N_max * P_peak))  [compute stall]
        + E_C * F0
    """
    n_max, transfer, compute, t_total = time_terms(ops, workload, design)
    access = design.memory_energy_per_bit * workload.data_bits
    memory_idle = design.memory_idle_energy_per_cycle * (t_total - transfer)
    unused_cs = (design.n_cs - n_max) * design.cs_idle_energy_per_cycle * t_total
    stalled_cs = design.n_cs * design.cs_idle_energy_per_cycle * (t_total - compute)
    ops_energy = design.compute_energy_per_op * workload.compute_ops
    return access + memory_idle + unused_cs + stalled_cs + ops_energy


def used_partitions(workload: Workload, design: DesignPoint) -> int:
    """N_max = min(N#, N): CSs that can actually work in parallel."""
    return time_terms(scalar_ops, workload, design)[0]


def execution_time(workload: Workload, design: DesignPoint) -> float:
    """Execution time in cycles — Eqs. 1/4 (:func:`time_terms`)."""
    return time_terms(scalar_ops, workload, design)[3]


def energy(workload: Workload, design: DesignPoint) -> float:
    """Total energy in joules — Eqs. 6/7 (:func:`energy_terms`)."""
    return energy_terms(scalar_ops, workload, design)


def speedup(workload: Workload, baseline: DesignPoint, m3d: DesignPoint) -> float:
    """Speedup of ``m3d`` over ``baseline`` — Eq. 5."""
    return execution_time(workload, baseline) / execution_time(workload, m3d)


def energy_benefit(workload: Workload, baseline: DesignPoint, m3d: DesignPoint) -> float:
    """Energy benefit E_2D / E_3D of ``m3d`` over ``baseline``."""
    return energy(workload, baseline) / energy(workload, m3d)


def edp_benefit(workload: Workload, baseline: DesignPoint, m3d: DesignPoint) -> float:
    """EDP benefit — Eq. 8: speedup x energy benefit."""
    return (speedup(workload, baseline, m3d)
            * energy_benefit(workload, baseline, m3d))
