"""Generic JSON codec and canonical text for the repository's value objects.

Every result object in this codebase is a tree of frozen dataclasses whose
fields are primitives, enums, tuples, dicts, or further dataclasses — and
every field participates in ``__init__``.  That regularity lets one codec
serve the whole repo: :func:`to_jsonable` lowers any such tree to plain
JSON types (tagging dataclasses, enums, and tuples so the shape survives),
and :func:`from_jsonable` reconstructs the original objects, re-running
each dataclass's ``__post_init__`` validation on the way back up.
Reconstruction only resolves classes from ``repro.*`` modules — a cache
file cannot name arbitrary importable types.  Like encoding, decoding is
**one decoder per class**: a type path is resolved (and trust-checked)
the first time it is seen, and its decoder then passes the fields
straight to the constructor, so a cache hit or a checkpoint replay costs
no import machinery per object.  A refused path is never cached.

:func:`dumps` is the one canonical encoder.  Its text is byte-identical
to ``json.dumps(to_jsonable(obj), sort_keys=True, separators=(",",
":"))`` — the form every disk-cache file, cache key
(:mod:`repro.runtime.keys`) and checkpoint digest is made of — but it is
composed from parts instead of built from a lowered tree:

* **One encoder per class.**  Each class gets its encoder on first
  sight: primitives use json's own C routines, a dataclass fills a
  per-class ``%``-template of its sorted field names, containers join
  their items.  On spec sections this beats one ``json.dumps`` over the
  field dict, whose per-call encoder set-up costs more than the fields.
* **Shared value objects carry their text.**  Classes marked with
  :func:`carries_text` (the PDK, :class:`~repro.workloads.models.Network`
  and the four spec sections) build their canonical text on first use
  and keep it on the instance; every later ``dumps`` or key over them
  splices it in.  Each build adds one to the ``serialize.text_builds``
  counter group (per class name), so "computed once" shows up in
  :class:`~repro.runtime.engine.RunReport` and ``--runtime-stats``.
  Text is carried per *object*: sweep expansion interns spec sections
  (:meth:`~repro.spec.sweep.SweepSpec.iter_specs`), so a grid builds one
  text per distinct section tuple, not one per point.  A section built
  separately but equal to another builds its own.
* **Nothing else is cached.**  Per-point objects (a ``DesignSpec``, an
  evaluation, a checkpoint record) are re-encoded on each call, so their
  text never outlives them.

Carried text is valid because value objects are frozen and never mutated
in place — a contract that extends to the few mutable leaves they hold
(``CellLibrary.cells``).  :func:`to_jsonable` itself always returns a
fresh tree, so callers of ``to_dict()`` may freely mutate the result.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json
import operator
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

#: Tag keys used in the lowered representation.
DATACLASS_TAG = "__dataclass__"
ENUM_TAG = "__enum__"
TUPLE_TAG = "__tuple__"
SET_TAG = "__set__"
FROZENSET_TAG = "__frozenset__"
DICT_TAG = "__dict__"

_TAGS = (DATACLASS_TAG, ENUM_TAG, TUPLE_TAG, SET_TAG, FROZENSET_TAG,
         DICT_TAG)
_TAG_SET = frozenset(_TAGS)

#: Module prefix reconstruction is restricted to.
TRUSTED_PREFIX = "repro"

#: Instance attribute under which a carrier keeps its canonical text.
_TEXT_ATTR = "_canonical_text"

#: Classes whose instances carry their canonical text (:func:`carries_text`).
_CARRIERS: set[type] = set()

#: Carried-text builds per class name; :mod:`repro.runtime.memo` reports
#: them as the ``serialize.text_builds`` counter group.
TEXT_BUILDS: dict[str, int] = {}

#: The reference encoding every composed text agrees with.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_quote = encode_basestring_ascii


def carries_text(cls: type) -> type:
    """Class decorator: instances keep their canonical text once built.

    For frozen value objects that many keys share (a PDK, a network, a
    spec section): the first :func:`dumps` over an instance builds its
    text and stores it on the instance, later ones splice it in.
    """
    _CARRIERS.add(cls)
    return cls


def is_carrier(obj: Any) -> bool:
    """Whether ``obj``'s class was marked with :func:`carries_text`."""
    return type(obj) in _CARRIERS


def to_jsonable(obj: Any) -> Any:
    """Lower ``obj`` to a tree of plain JSON types.

    Always builds a fresh tree (callers may mutate the result).

    Raises:
        TypeError: for values outside the supported vocabulary
            (primitives, lists, tuples, str-keyed dicts, enums, and
            dataclass instances).
    """
    return _lower(obj)


def _lower(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {ENUM_TAG: _type_path(type(obj)), "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: _lower(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {DATACLASS_TAG: _type_path(type(obj)), "fields": fields}
    if isinstance(obj, tuple):
        return {TUPLE_TAG: [_lower(item) for item in obj]}
    if isinstance(obj, (set, frozenset)):
        # Sort by canonical text so the lowering (and any hash of it) is
        # independent of insertion order.
        lowered = sorted((_lower(item) for item in obj),
                         key=lambda item: json.dumps(item, sort_keys=True))
        tag = FROZENSET_TAG if isinstance(obj, frozenset) else SET_TAG
        return {tag: lowered}
    if isinstance(obj, list):
        return [_lower(item) for item in obj]
    if isinstance(obj, dict):
        lowered = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot serialize dict key {key!r}: only str keys supported")
            lowered[key] = _lower(value)
        if any(tag in lowered for tag in _TAGS):
            # Escape dicts whose own keys collide with the codec's tags.
            return {DICT_TAG: [[k, v] for k, v in lowered.items()]}
        return lowered
    raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _canonical(obj: Any) -> str:
    """Canonical JSON text of ``obj`` (see the module docstring)."""
    return _ENCODERS[type(obj)](obj)


class _Encoders(dict):
    """Per-class text encoders, each chosen on first sight of its class.

    Composite encoders index this table directly (``_ENCODERS[type(v)](v)``)
    instead of calling :func:`_canonical`, one call less per value.
    """

    def __missing__(self, cls: type) -> Callable[[Any], str]:
        encoder = self[cls] = _encoder_for(cls)
        return encoder


def _encoder_for(cls: type) -> Callable[[Any], str]:
    # Checks run in _lower's order, so both agree on every shape.
    if cls in _CARRIERS:
        return _carrier_encoder(cls)
    if issubclass(cls, (bool, int, float, str)):
        # Subclasses (IntEnum, StrEnum) encode as their value, like json.
        return json.dumps
    if issubclass(cls, enum.Enum):
        # Key order mirrors sort_keys: "__enum__" < "name".
        head = f'{{"{ENUM_TAG}":{_quote(_type_path(cls))},"name":'
        return lambda obj: f"{head}{_quote(obj.name)}}}"
    if dataclasses.is_dataclass(cls):
        return _dataclass_encoder(cls)
    if issubclass(cls, tuple):
        return lambda obj: f'{{"{TUPLE_TAG}":[{_items_text(obj)}]}}'
    if issubclass(cls, list):
        return lambda obj: f"[{_items_text(obj)}]"
    if issubclass(cls, dict):
        return _dict_text
    if issubclass(cls, (set, frozenset)):
        # Sets need the tree-level sort; defer to the tree lowering.
        return lambda obj: _encode(_lower(obj))

    def unsupported(obj: Any) -> str:
        raise TypeError(f"cannot serialize {cls.__name__} value {obj!r}")
    return unsupported


def _items_text(items: Any) -> str:
    encoders = _ENCODERS
    return ",".join([encoders[type(item)](item) for item in items])


def _dataclass_encoder(cls: type) -> Callable[[Any], str]:
    names = sorted(field.name for field in dataclasses.fields(cls))
    # Key order mirrors sort_keys: "__dataclass__" < "fields".  One
    # %-template per class (identifiers cannot hold "%"); only the field
    # texts are formatted per call.
    template = (f'{{"{DATACLASS_TAG}":{_quote(_type_path(cls))},"fields":{{'
                + ",".join(f"{_quote(name)}:%s" for name in names) + "}}")
    if len(names) > 1:
        values = operator.attrgetter(*names)
    else:
        def values(obj: Any) -> tuple:
            return tuple(getattr(obj, name) for name in names)
    encoders = _ENCODERS

    def encode(obj: Any) -> str:
        return template % tuple([encoders[type(value)](value)
                                 for value in values(obj)])
    return encode


def _carrier_encoder(cls: type) -> Callable[[Any], str]:
    build = _dataclass_encoder(cls)
    name = cls.__name__

    def encode(obj: Any) -> str:
        carried = obj.__dict__  # frozen: bypass __setattr__ on purpose
        text = carried.get(_TEXT_ATTR)
        if text is None:
            text = carried[_TEXT_ATTR] = build(obj)
            TEXT_BUILDS[name] = TEXT_BUILDS.get(name, 0) + 1
        return text
    return encode


def _dict_text(obj: dict) -> str:
    if not obj:
        return "{}"
    for key in obj:
        if not isinstance(key, str):
            raise TypeError(
                f"cannot serialize dict key {key!r}: only str keys supported")
    if not _TAG_SET.isdisjoint(obj):
        # Tag-escaped dicts keep insertion order inside a list; defer to
        # the tree lowering for this rare shape.
        return _encode(_lower(obj))
    encoders = _ENCODERS
    return "{" + ",".join([f"{_quote(key)}:{encoders[type(value)](value)}"
                           for key, value in sorted(obj.items())]) + "}"


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: json's spelling of the non-finite floats.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


#: Exact-type leaf encoders, each equal to ``json.dumps`` of the leaf.  A
#: subclass (``IntEnum``, a numpy float) takes the generic path instead.
_LEAF_TEXT: dict[type, Callable[[Any], str]] = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}

_ENCODERS = _Encoders(_LEAF_TEXT)


def from_jsonable(data: Any) -> Any:
    """Reconstruct the object tree lowered by :func:`to_jsonable`."""
    if isinstance(data, dict):
        return _decode_dict(data)
    if isinstance(data, list):
        return [from_jsonable(item) for item in data]
    return data


#: Values :func:`from_jsonable` returns unchanged (decoders skip the call).
_PLAIN = frozenset({str, int, float, bool, type(None)})


def _decode_dict(data: dict) -> Any:
    if DATACLASS_TAG in data:
        path = data[DATACLASS_TAG]
        try:
            decode = _DATACLASS_DECODERS[path]
        except KeyError:
            decode = _dataclass_decoder(path)
        return decode(data["fields"])
    if ENUM_TAG in data:
        path = data[ENUM_TAG]
        try:
            cls = _ENUMS[path]
        except KeyError:
            cls = _enum_class(path)
        return cls[data["name"]]
    if TUPLE_TAG in data:
        return tuple([from_jsonable(item) for item in data[TUPLE_TAG]])
    if SET_TAG in data:
        return {from_jsonable(item) for item in data[SET_TAG]}
    if FROZENSET_TAG in data:
        return frozenset(from_jsonable(item) for item in data[FROZENSET_TAG])
    if DICT_TAG in data:
        return {key: from_jsonable(value) for key, value in data[DICT_TAG]}
    return {key: from_jsonable(value) for key, value in data.items()}


#: Per-type-path decoders, each built once a path resolves (and passes
#: the trust check) for the first time; a refused path is never cached.
_DATACLASS_DECODERS: dict[str, Callable[[dict], Any]] = {}
_ENUMS: dict[str, type] = {}


def _dataclass_decoder(path: str) -> Callable[[dict], Any]:
    cls = _resolve(path)
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise TypeError(f"{path} is not a dataclass")
    plain = _PLAIN

    def decode(fields: dict) -> Any:
        # The constructor, so __post_init__ validates the decoded fields.
        return cls(**{name: value if value.__class__ in plain
                      else from_jsonable(value)
                      for name, value in fields.items()})
    _DATACLASS_DECODERS[path] = decode
    return decode


def _enum_class(path: str) -> type:
    cls = _resolve(path)
    if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
        raise TypeError(f"{path} is not an enum")
    _ENUMS[path] = cls
    return cls


def dumps(obj: Any) -> str:
    """Canonical JSON text for ``obj`` (sorted keys, minimal separators).

    The output is deterministic across processes and Python versions,
    which is what makes it usable both as cache-file content and as
    hash input for :func:`repro.runtime.keys.stable_key`.  Equal to
    ``json.dumps(to_jsonable(obj), sort_keys=True, separators=(",",
    ":"))``; objects marked with :func:`carries_text` are encoded once.
    """
    return _canonical(obj)


def loads(text: str) -> Any:
    """Inverse of :func:`dumps`."""
    return from_jsonable(json.loads(text))


def _type_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    if module_name != TRUSTED_PREFIX and not module_name.startswith(
            TRUSTED_PREFIX + "."):
        raise TypeError(f"refusing to resolve type outside "
                        f"{TRUSTED_PREFIX!r}: {path!r}")
    module = importlib.import_module(module_name)
    target: Any = module
    for part in qualname.split("."):
        target = getattr(target, part)
    return target
