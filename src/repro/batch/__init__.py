"""Vectorized batch evaluation of design specs (ROADMAP item 3).

Public surface:

* :class:`~repro.batch.kernel.BatchKernel` — batched ``evaluate_spec``
  with delta-evaluation between neighboring sweep points.
* :mod:`repro.batch.analytical` — Eqs. 1-8 over packed arrays.
* :mod:`repro.batch.backend` — numpy/pure-python backend selection.

Importing this package never imports numpy eagerly; the kernel degrades
to row-wise python loops when numpy is unavailable.
"""

from repro.batch.backend import backend_name, numpy_available, set_numpy_enabled
from repro.batch.kernel import BatchKernel
from repro.batch.pack import UnsupportedSpec, pack_point, spec_call_key
from repro.costmodel import DesignRow

__all__ = [
    "BatchKernel",
    "DesignRow",
    "UnsupportedSpec",
    "backend_name",
    "numpy_available",
    "pack_point",
    "set_numpy_enabled",
    "spec_call_key",
]
