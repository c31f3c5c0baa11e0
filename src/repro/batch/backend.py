"""Array-backend selection for the vectorized batch kernel.

The cost model and the analytical equations are written once against
the tiny op set of :class:`~repro.costmodel.ArrayOps`
(``maximum``/``minimum``/``where``/``ceil``/``floor``) and run in one of
two modes:

* **numpy** — operands are broadcast arrays, one row per design and one
  column per workload layer, so a whole batch evaluates in a handful of
  ufunc passes;
* **python** — numpy is not importable (or was forced off with
  :func:`set_numpy_enabled`): the *same* formula body runs on plain
  floats (:data:`~repro.costmodel.scalar_ops`), row by row, which keeps the batch path available everywhere
  and gives the numpy mode an exact reference to agree with.

Nothing outside this module imports numpy, so ``import repro.batch``
works on a numpy-less interpreter.
"""

from __future__ import annotations

from repro.costmodel import ArrayOps

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as _numpy
except Exception:  # pragma: no cover
    _numpy = None

_forced_python = False


def numpy_available() -> bool:
    """True when numpy imported successfully (regardless of forcing)."""
    return _numpy is not None


def set_numpy_enabled(enabled: bool) -> bool:
    """Force (``False``) or allow (``True``) numpy; returns the previous
    setting.  Forcing the pure-python mode lets the parity tests compare
    both backends in one process."""
    global _forced_python
    previous = not _forced_python
    _forced_python = not enabled
    return previous


def active_numpy():
    """The numpy module the kernel should use, or ``None`` for python."""
    if _forced_python:
        return None
    return _numpy


def backend_name() -> str:
    """``"numpy"`` or ``"python"`` — what a batch would evaluate with."""
    return "numpy" if active_numpy() is not None else "python"


def numpy_ops(np) -> ArrayOps:
    """The op set bound to a numpy module."""
    return ArrayOps(maximum=np.maximum, minimum=np.minimum,
                    where=np.where, ceil=np.ceil, floor=np.floor)
