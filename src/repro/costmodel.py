"""The per-layer cost model, written once against :class:`ArrayOps`.

One body prices a design x layer pair: :func:`layer_terms`.  Its inputs
are two flat rows — a :class:`DesignRow` holding every design scalar the
model reads and a :class:`LayerRow` holding every layer feature — and
its arithmetic uses only the op set of :class:`ArrayOps`, so the same
body runs in two modes:

* **scalar** (:data:`scalar_ops`) — plain numbers, one pair per call.
  :class:`~repro.perf.simulator.AcceleratorSimulator` runs every layer
  this way, and so does the batch kernel without numpy;
* **arrays** (``repro.batch.backend.numpy_ops``) — broadcast vectors,
  ``d.*`` of shape (R, 1) against ``f.*`` of shape (1, L), so a whole
  batch of designs x layers prices in a handful of ufunc passes.

The two modes share every operation in the same order, which is what
makes the batch kernel agree with the simulator (bit-identically on
the python backend).  :func:`layer_bounds` is the sibling the certified
pruning bounds use: the terms of :func:`layer_terms` that no CS count
can remove.  The analytical framework (:mod:`repro.core.framework`)
writes Eqs. 1-8 on the same op set.

Timing model (validated against the paper's Table I, see DESIGN.md
Sec. 5):

* A conv/FC layer is tiled into weight slabs on each CS's systolic
  array; each slab streams the output feature map plus a pipeline
  fill/drain overhead; slab weight loading is double-buffered and only
  costs time when it exceeds the streaming time (which makes FC layers
  weight-load-bound).
* Across CSs the layer partitions along output-channel tiles: with N CSs
  and Kt tiles, min(N, Kt) CSs are used (the paper's N_max = min(N, N#)).
* Output writeback shares a single chip-level bus in both designs, so it
  does **not** parallelize — this serial term is why the paper's
  per-layer speedups saturate below N (e.g. 7.8x, not 8x, for ResNet-18
  stage 4).
* Pooling runs on the per-CS post-processing vector units, partitioned
  channel-wise.

Energy model (Eqs. 6-7 structure): compute energy per MAC, RRAM
weight-read energy per bit, SRAM streaming energy per bit, output
writeback (SRAM + bus wire), and leakage of every CS and the memory
peripherals over the layer's runtime — idle CSs keep leaking, which is
how the M3D energy stays ~1.0x the 2D baseline's despite the 5.7x
shorter runtime.

This module imports neither numpy nor any other package module that
evaluates designs, so the simulator, the framework and the batch
kernel can all import it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

from repro.tech.constants import SRAM_ENERGY_PER_BIT, WIRE_ENERGY_PER_BIT_MM
from repro.workloads.layers import Layer, LayerKind

__all__ = [
    "ArrayOps",
    "DesignRow",
    "LayerRow",
    "layer_bounds",
    "layer_row",
    "layer_terms",
    "scalar_ops",
]

#: Average on-chip distance of a writeback-bus transfer, mm.
WRITEBACK_WIRE_MM = 5.0


class ArrayOps:
    """The op set shared by the scalar and array formula bodies.

    ``where`` evaluates both branches in scalar mode (like numpy's); every
    formula written on it is total over its domain, so that is safe.
    ``floor`` of a value >= 1 is its ``int`` truncation.
    """

    __slots__ = ("maximum", "minimum", "where", "ceil", "floor")

    def __init__(self,
                 maximum: Callable[[Any, Any], Any],
                 minimum: Callable[[Any, Any], Any],
                 where: Callable[[Any, Any, Any], Any],
                 ceil: Callable[[Any], Any],
                 floor: Callable[[Any], Any]) -> None:
        self.maximum = maximum
        self.minimum = minimum
        self.where = where
        self.ceil = ceil
        self.floor = floor


#: Scalar mode: python builtins over one (design, layer) pair.
scalar_ops = ArrayOps(
    maximum=max,
    minimum=min,
    where=lambda condition, then, otherwise: then if condition else otherwise,
    ceil=math.ceil,
    floor=math.floor,
)


class DesignRow(NamedTuple):
    """One design as a flat parameter row — the batch matrix schema.

    Every field is a scalar the per-layer cost model reads, so two equal
    rows are interchangeable: the row is the key of every per-layer and
    per-network result memo.  Stacked rows form the batch's design
    matrix.

    Attributes:
        n_cs: Parallel CS count N.
        bandwidth_bits: Total weight-read bandwidth, bits/cycle.
        precision_bits: Operand precision.
        read_energy: RRAM read energy, J/bit.
        mac_energy: PE MAC energy, J/op.
        static_power: Chip static power, W.
        cycle_time: Clock period, s.
        rows: Systolic-array input-channel dimension.
        cols: Systolic-array output-channel dimension.
        fill_cycles: Pipeline fill+drain cycles per slab.
        weight_bits_per_slab: Weight bits loaded per slab.
        pool_lanes: Post-processing vector lanes per CS.
        bus_bits: Shared writeback bus width, bits/cycle.
        row_packing: Shallow-channel row-packing mapping enabled.
        batch: Inference batch size.
    """

    n_cs: int
    bandwidth_bits: int
    precision_bits: int
    read_energy: float
    mac_energy: float
    static_power: float
    cycle_time: float
    rows: int
    cols: int
    fill_cycles: int
    weight_bits_per_slab: int
    pool_lanes: int
    bus_bits: int
    row_packing: bool
    batch: int


class LayerRow(NamedTuple):
    """One workload layer as a feature row (one column per layer).

    Attributes:
        is_pool: Pooling layer (vector-unit timing path).
        is_conv: Convolution (kernel passes / row packing apply).
        positions: Output positions streamed per slab (1 for FC).
        out_channels: Output channels K.
        kernel: Square kernel size.
        groups: Channel groups.
        group_in: Input channels per group.
        macs: MAC count.
        weights: Weight count.
        output_elements: Output feature-map elements.
    """

    is_pool: bool
    is_conv: bool
    positions: int
    out_channels: int
    kernel: int
    groups: int
    group_in: int
    macs: int
    weights: int
    output_elements: int


def layer_row(layer: Layer) -> LayerRow:
    """The feature row of one layer."""
    kind = layer.kind
    positions = 1 if kind == LayerKind.FC else layer.out_size * layer.out_size
    groups = layer.channel_groups
    return LayerRow(
        is_pool=kind == LayerKind.POOL,
        is_conv=kind == LayerKind.CONV,
        positions=positions,
        out_channels=layer.out_channels,
        kernel=layer.kernel,
        groups=groups,
        group_in=layer.in_channels // groups,
        macs=layer.macs,
        weights=layer.weights,
        output_elements=layer.output_elements,
    )


def _tiles(ops, d, f):
    """(k_tiles, row_tiles, kernel passes) of the conv/FC slab tiling
    (the arithmetic of :class:`~repro.arch.systolic.SystolicArrayConfig`).
    """
    per_group = ops.maximum(1, ops.ceil(f.out_channels / f.groups / d.cols))
    k_tiles = f.groups * per_group
    packing = d.row_packing & f.is_conv & (f.group_in < d.rows) & (f.kernel > 1)
    row_tiles = ops.where(
        packing,
        ops.maximum(1, ops.ceil(f.group_in * f.kernel / d.rows)),
        ops.maximum(1, ops.ceil(f.group_in / d.rows)))
    passes = ops.where(
        f.is_conv, ops.where(packing, f.kernel, f.kernel * f.kernel), 1)
    return k_tiles, row_tiles, passes


def _dynamic_energy(d, f, fanout):
    """Dynamic energy in joules; ``fanout`` is the output SRAM writes per
    element, ``1 + n_cs``."""
    compute = f.macs * d.batch * d.mac_energy
    # Weight slabs are loaded once regardless of the batch size.
    weights = f.weights * d.precision_bits * d.read_energy
    # Input streaming: `rows` operands enter each array per cycle while
    # `rows * cols` MACs retire, so SRAM read traffic is macs / cols.
    input_reads = f.macs * d.batch / d.cols
    inputs = input_reads * d.precision_bits * SRAM_ENERGY_PER_BIT
    # Outputs: one SRAM write at the producer, a bus transfer, and one
    # SRAM write into each consumer CS's input buffer.
    output_bits = f.output_elements * d.batch * d.precision_bits
    wire = output_bits * WIRE_ENERGY_PER_BIT_MM * WRITEBACK_WIRE_MM
    outputs = output_bits * SRAM_ENERGY_PER_BIT * fanout
    return compute + weights + inputs + outputs + wire


def layer_terms(ops, d, f):
    """(used_cs, compute cycles, writeback cycles, dynamic energy, leakage
    energy) of design x layer pairs.

    ``d`` carries :class:`DesignRow` fields and ``f`` :class:`LayerRow`
    fields — plain scalars under :data:`scalar_ops`, broadcastable
    vectors under the numpy op set.  ``where`` replaces control flow, and
    every branch is total (no division by zero on the untaken side).
    A layer's cycles are ``compute + writeback`` and its energy
    ``dynamic + leakage``.
    """
    k_tiles, row_tiles, passes = _tiles(ops, d, f)
    conv_used = ops.minimum(d.n_cs, k_tiles)
    slabs_per_cs = ops.ceil(k_tiles / conv_used) * row_tiles * passes
    stream = f.positions * d.batch + d.fill_cycles
    # Each CS's weight channel: private bank in M3D, a share of the
    # single channel in (possibly enlarged, Case 1) 2D baselines.
    channel_bits = d.bandwidth_bits / d.n_cs
    weight_load = d.weight_bits_per_slab / channel_bits
    per_slab = ops.maximum(stream, weight_load)
    conv_compute = slabs_per_cs * per_slab
    # Pooling on the per-CS vector lanes.
    pool_used = ops.minimum(
        d.n_cs, ops.maximum(1, ops.ceil(f.out_channels / d.pool_lanes)))
    pool_compute = f.macs * d.batch / d.pool_lanes / pool_used
    used_cs = ops.where(f.is_pool, pool_used, conv_used)
    compute = ops.where(f.is_pool, pool_compute, conv_compute)
    writeback = f.output_elements * d.batch * d.precision_bits / d.bus_bits
    cycles = compute + writeback
    dynamic = _dynamic_energy(d, f, 1 + d.n_cs)
    leakage = d.static_power * cycles * d.cycle_time
    return used_cs, compute, writeback, dynamic, leakage


def layer_bounds(ops, d, f):
    """(cycles, energy) lower bounds of design x layer pairs over every
    CS count: the mandatory terms of :func:`layer_terms`.

    Conv/FC compute is ``row_tiles * passes * stream`` (every slab
    stream-bound, ``ceil(k_tiles / used_cs) >= 1``), pooling runs at full
    channel-tile parallelism, the writeback is exact, the output fan-out
    is its ``n_cs = 1`` value 2 and leakage 0.  Reads no CS-count field.
    """
    _, row_tiles, passes = _tiles(ops, d, f)
    stream = f.positions * d.batch + d.fill_cycles
    conv_compute = row_tiles * passes * stream
    channel_tiles = ops.maximum(1, ops.ceil(f.out_channels / d.pool_lanes))
    pool_compute = f.macs * d.batch / d.pool_lanes / channel_tiles
    compute = ops.where(f.is_pool, pool_compute, conv_compute)
    writeback = f.output_elements * d.batch * d.precision_bits / d.bus_bits
    return compute + writeback, _dynamic_energy(d, f, 2)
