"""Stable content-addressed cache keys.

A key is the SHA-256 of the canonical JSON lowering of its parts
(:func:`repro.runtime.serialize.dumps`), so it is

* *stable across processes* — no dependence on ``id()``, ``hash()``
  randomization, or dict iteration order;
* *content-addressed* — two PDKs (or networks, or knob sets) that compare
  equal field-by-field produce the same key, however they were built;
* *sensitive to every field* — changing any constant inside a nested
  dataclass (an ILV pitch, a cell height, a layer shape) changes the key.

A value object that carries its canonical text
(:func:`repro.runtime.serialize.carries_text`) also carries its own key:
``stable_key(pdk)`` hashes the PDK's text once per instance.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.runtime.serialize import dumps, is_carrier

#: Instance attribute under which a carrier keeps ``stable_key(obj)``.
_KEY_ATTR = "_stable_key"


def stable_key(*parts: Any) -> str:
    """Hex digest keying the content of ``parts``.

    Raises:
        TypeError: when a part cannot be lowered to JSON (see
            :func:`repro.runtime.serialize.to_jsonable`); callers that
            want a soft failure catch this and skip caching.
    """
    if len(parts) == 1 and is_carrier(parts[0]):
        carried = parts[0].__dict__  # frozen: bypass __setattr__ on purpose
        key = carried.get(_KEY_ATTR)
        if key is None:
            key = carried[_KEY_ATTR] = _digest(parts)
        return key
    return _digest(parts)


def _digest(parts: tuple) -> str:
    payload = dumps(list(parts))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def call_key(fn: Any, args: tuple, kwargs: dict) -> str:
    """Key for one function call: qualified name + argument content."""
    return stable_key(f"{fn.__module__}.{fn.__qualname__}",
                      list(args), dict(kwargs))
