"""The one resolver pipeline: ``DesignSpec -> ResolvedPoint``.

Every sweep and experiment used to hand-roll its own "apply knob, rebuild
the design pair" plumbing; :func:`resolve` is now the single construction
path.  The pipeline:

1. **Tech** — apply the memory-technology preset, then scale the ILV
   pitch by ``beta`` (``scaled_pdk``, the helper that deduplicates the
   former ``core/dse.py`` / ``core/via_pitch.py`` copies).
2. **Arch** — pick the CS preset; build the original 2D baseline and the
   M3D design at ``delta``; multiply the M3D CS count by ``tier_pairs``
   (or pin it to ``n_cs``); under the ``reoptimized`` baseline policy,
   enlarge the 2D baseline to the M3D footprint and refill it per Eq. 9.
3. **Workload** — build the named network, optionally restricted to one
   layer (:func:`build_workload`).

Resolution is deterministic and simulation-free, and memoizes on the
spec's value plus the base PDK's carried content key — *not* on object
identity — so equal specs share work no matter where they came from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.accelerator import (
    AcceleratorDesign,
    baseline_2d_design,
    m3d_design,
    precision_scaled_cs,
    reoptimized_2d_cs_count,
)
from repro.errors import ConfigurationError
from repro.runtime.cache import MISSING
from repro.runtime.keys import stable_key
from repro.runtime.memo import memo_table
from repro.spec.design import DesignSpec, TechSpec, WorkloadSpec
from repro.tech.memories import memory_technology
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.workloads.models import Network, available_networks, build_network
from repro.workloads.transformer import base_encoder, tiny_encoder

__all__ = ["ResolvedPoint", "build_workload", "resolve", "scaled_pdk",
           "tech_pdk"]

#: Resolution memo: (spec, PDK content key) -> ResolvedPoint.
_RESOLVE_MEMO = memo_table("spec.resolve")

#: Scaled-PDK memo: (PDK content hash, beta) -> PDK.
_SCALED_PDK_MEMO = memo_table("spec.scaled_pdk")

#: Tech-section memo: (memory, beta, base PDK content) -> adjusted PDK.
_TECH_PDK_MEMO = memo_table("spec.tech_pdk")

#: Transformer-encoder presets addressable by workload.network (the CNN
#: zoo resolves through repro.workloads.models.build_network).
_ENCODER_PRESETS = {
    "tiny_encoder": tiny_encoder,
    "base_encoder": base_encoder,
}


def scaled_pdk(pdk: PDK, beta: float) -> PDK:
    """``pdk.with_ilv_pitch_factor(beta)``, memoized on content.

    At ``beta == 1`` the PDK is returned unchanged (scaling by 1.0 is a
    bit-identical copy, so preserving identity is free and keeps
    identity-based sharing — e.g. worker invariant shipping — intact).
    This is the one scaled-PDK construction site; ``core/dse.py`` and
    ``core/via_pitch.py`` used to keep private copies.
    """
    if beta == 1.0:
        return pdk
    key = (stable_key(pdk), beta)
    scaled = _SCALED_PDK_MEMO.get(key)
    if scaled is MISSING:
        scaled = pdk.with_ilv_pitch_factor(beta)
        _SCALED_PDK_MEMO.put(key, scaled)
    return scaled


def tech_pdk(tech: TechSpec, base: PDK) -> PDK:
    """The tech-adjusted PDK a :class:`TechSpec` denotes against ``base``.

    Applies the memory-technology preset, then the ILV pitch factor —
    exactly the tech stage of :func:`resolve`.  Memoized per *distinct
    tech section* (keyed on the section's values plus the base PDK's
    content hash), so grids that only vary arch/workload axes build the
    adjusted PDK once instead of once per spec — and every point of such
    a grid shares one PDK *object*, which keeps its carried key and
    identity-based sharing (worker invariant shipping) intact.
    """
    if tech.memory is None and tech.beta == 1.0:
        return base
    key = (tech.memory, tech.beta, stable_key(base))
    pdk = _TECH_PDK_MEMO.get(key)
    if pdk is MISSING:
        pdk = base
        if tech.memory is not None:
            pdk = pdk.with_memory_cell(
                memory_technology(tech.memory).cell(pdk.node))
        pdk = scaled_pdk(pdk, tech.beta)
        _TECH_PDK_MEMO.put(key, pdk)
    return pdk


def build_workload(workload: WorkloadSpec) -> Network:
    """The concrete :class:`Network` a workload spec names.

    ``network`` resolves through the CNN zoo or the transformer-encoder
    presets; ``layer`` (if set) restricts the network to that single
    layer, renamed ``<network>_<layer>`` with spaces underscored — the
    Fig. 10d parallel-layer convention.
    """
    name = workload.network
    if name in _ENCODER_PRESETS:
        network = _ENCODER_PRESETS[name]()
    elif name in available_networks():
        network = build_network(name)
    else:
        known = tuple(available_networks()) + tuple(_ENCODER_PRESETS)
        raise ConfigurationError(
            f"unknown workload network {name!r}; "
            f"choose from {', '.join(sorted(known))}")
    if workload.layer is not None:
        suffix = workload.layer.replace(" ", "_")
        network = Network(
            name=f"{network.name}_{suffix}",
            layers=(network.layer(workload.layer),))
    return network


@dataclass(frozen=True)
class ResolvedPoint:
    """The live objects one :class:`DesignSpec` denotes.

    Attributes:
        spec: The spec this point was resolved from.
        pdk: The tech-adjusted PDK both designs are built on.
        baseline: The 2D baseline (policy per ``spec.arch.baseline``).
        m3d: The M3D design.
        network: The workload network.
    """

    spec: DesignSpec
    pdk: PDK
    baseline: AcceleratorDesign
    m3d: AcceleratorDesign
    network: Network

    @property
    def n_cs_2d(self) -> int:
        """CS count of the 2D baseline."""
        return self.baseline.n_cs

    @property
    def n_cs_m3d(self) -> int:
        """CS count of the M3D design."""
        return self.m3d.n_cs

    @property
    def footprint(self) -> float:
        """Common chip footprint, m^2 (the M3D design's; under the
        ``reoptimized`` policy the baseline is enlarged to match)."""
        return self.m3d.area.footprint


def resolve(spec: DesignSpec, pdk: PDK | None = None) -> ResolvedPoint:
    """Resolve ``spec`` against ``pdk`` (default: the foundry M3D PDK).

    Memoized on ``(spec, stable_key(pdk))``: a spec hashes by value and
    the PDK carries its key, so a hit costs a few microseconds, and
    equal (``==``) specs resolve once per process however they were
    built.  Validation normalizes field types (floats stay floats, ints
    stay ints), so equal specs denote the same designs.
    """
    base = pdk if pdk is not None else foundry_m3d_pdk()
    key = (spec, stable_key(base))
    point = _RESOLVE_MEMO.get(key)
    if point is not MISSING:
        return point
    point = _resolve(spec, base)
    _RESOLVE_MEMO.put(key, point)
    return point


def _resolve(spec: DesignSpec, base: PDK) -> ResolvedPoint:
    tech, arch = spec.tech, spec.arch
    pdk = tech_pdk(tech, base)

    cs = None if arch.cs == "case-study" \
        else precision_scaled_cs(arch.precision_bits)
    original = baseline_2d_design(pdk, arch.capacity_bits, cs=cs)
    single = m3d_design(pdk, arch.capacity_bits, cs=cs,
                        access_width_factor=tech.delta)
    n_cs_m3d = arch.n_cs if arch.n_cs is not None \
        else single.n_cs * arch.tier_pairs
    if n_cs_m3d == single.n_cs:
        m3d = single
    else:
        m3d = m3d_design(pdk, arch.capacity_bits, cs=cs,
                         access_width_factor=tech.delta, n_cs=n_cs_m3d)

    if arch.baseline == "reoptimized":
        n_cs_2d = reoptimized_2d_cs_count(
            grown_footprint=single.area.footprint,
            original_footprint=original.area.footprint,
            cs_area=original.area.cs_unit,
        )
        baseline = baseline_2d_design(
            pdk, arch.capacity_bits, cs=cs, n_cs=n_cs_2d,
            footprint=single.area.footprint)
    else:
        baseline = original

    if arch.precision_bits != baseline.precision_bits:
        baseline = replace(baseline, precision_bits=arch.precision_bits)
    if arch.precision_bits != m3d.precision_bits:
        m3d = replace(m3d, precision_bits=arch.precision_bits)

    return ResolvedPoint(
        spec=spec,
        pdk=pdk,
        baseline=baseline,
        m3d=m3d,
        network=build_workload(spec.workload),
    )
