"""Admissible design-space bounds: cheap certificates for sweep pruning.

The B&B tiling search (:mod:`repro.mapper.cost`) skips a mapping when a
fast *admissible* bound proves it cannot beat the incumbent.
:func:`spec_bounds` lifts that idea from the mapping space to the design
space: for one :class:`~repro.spec.design.DesignSpec` it returns the
point's exact footprint together with a certified *upper* bound on its
EDP benefit, so the streaming executor can discard a grid point that a
frontier member already dominates — without ever pricing its M3D design.

The bound is the mandatory terms of the one per-layer cost model
(:mod:`repro.costmodel`).  The spec packs into the same 2D and M3D
:class:`~repro.costmodel.DesignRow`\\ s its evaluation reads; the 2D row
is priced exactly (the memoized totals a surviving point's evaluation
then reuses), the M3D row by :func:`~repro.costmodel.layer_bounds`: only
the cost-model terms no CS count can remove, so one memo entry serves
every ``tier_pairs`` / ``n_cs`` sibling.  The streaming executor bounds
a whole chunk in one vectorized call
(:meth:`~repro.batch.kernel.BatchKernel.bound_calls`); :func:`spec_bounds`
is a batch of one.  :data:`repro.mapper.cost.BOUND_MARGIN` keeps the
benefit ratio on the admissible side of float reassociation.
Admissibility — ``spec_bounds(spec).edp_benefit_ub >=
evaluate_spec(spec).edp_benefit`` and exact footprints — is what makes
frontier pruning provably exact (``tests/test_streaming_sweep.py``,
``tests/test_batch_kernel.py``, ``tests/test_pareto_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError, require
from repro.runtime.serialize import from_jsonable, to_jsonable
from repro.spec.design import DesignSpec
from repro.spec.evaluate import evaluate_spec
from repro.tech.pdk import PDK, foundry_m3d_pdk

__all__ = ["PointBounds", "spec_bounds"]


@dataclass(frozen=True)
class PointBounds:
    """Certified objective bounds for one (unevaluated) design spec.

    Attributes:
        spec: The bounded spec (so pruning logs are self-describing).
        footprint: Exact chip footprint, m^2 (from resolution alone).
        speedup_ub: Certified upper bound on T_2D / T_3D.
        energy_benefit_ub: Certified upper bound on E_2D / E_3D.
        edp_benefit_ub: Certified upper bound on the EDP benefit.
    """

    spec: DesignSpec
    footprint: float
    speedup_ub: float
    energy_benefit_ub: float
    edp_benefit_ub: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by the disk result cache)."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PointBounds":
        """Inverse of :meth:`to_dict`."""
        bounds = from_jsonable(data)
        require(isinstance(bounds, cls),
                f"expected a serialized {cls.__name__}")
        return bounds


def spec_bounds(spec: DesignSpec, pdk: PDK | None = None) -> PointBounds:
    """Exact footprint plus certified benefit upper bounds for ``spec``.

    A pure function of its arguments (like
    :func:`repro.spec.evaluate.evaluate_spec`), so the evaluation engine
    can content-hash, deduplicate, and pool-dispatch it; the streaming
    executor maps it as its own ``sweep.bounds`` stage.  Specs the row
    schema refuses raise the scalar pipeline's diagnostic.
    """
    # Local import: the batch kernel imports this module.
    from repro.batch.kernel import bound_points
    from repro.batch.pack import UnsupportedSpec, pack_point

    try:
        point = pack_point(spec, pdk if pdk is not None else foundry_m3d_pdk())
    except (UnsupportedSpec, ReproError):
        # The row schema refuses only specs the scalar pipeline rejects;
        # evaluating one raises that pipeline's diagnostic.
        evaluate_spec(spec, pdk)
        raise
    (bounds,), _ = bound_points([point])
    return bounds
