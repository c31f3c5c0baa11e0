"""Declarative sweeps over :class:`~repro.spec.design.DesignSpec` axes.

A :class:`SweepSpec` turns one base spec into many: ``grid`` axes expand
full-factorially (the joint-DSE shape), ``zip`` axes advance in lockstep
(paired knobs, e.g. a delta matched to each capacity), and ``points``
appends an explicit list of extra specs.  Axes name spec fields by dotted
path (``"tech.delta"``, ``"arch.capacity_mb"``) — an unknown path fails at
construction, not halfway through a sweep.

Like the design spec itself, a sweep is frozen, validated, and round-trips
through plain JSON::

    {
      "base": {"workload": {"network": "resnet18"}},
      "grid": {"arch.capacity_mb": [32, 64, 128], "tech.delta": [1.0, 2.0]},
      "zip":  {},
      "points": []
    }

Expansion order is deterministic: zip combinations outermost, then the
grid axes in declaration order (itertools.product semantics), then the
explicit points.

Expansion walks the grid as an odometer over interned sections, each
validated once per distinct tuple of its own axis values, in memory
bounded by axis lengths (:meth:`SweepSpec.iter_specs`).
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping

from repro.errors import ConfigurationError, require
from repro.spec.design import (
    DesignSpec,
    field_paths,
    override_section,
    section_of,
)

__all__ = ["SweepSpec", "load_sweep_spec"]

Axes = tuple[tuple[str, tuple[Any, ...]], ...]


#: ``(path, values)`` grid axes whose duplicate warning already fired.
#: Axis normalization runs once per *construction*, but one logical sweep
#: is reconstructed many times along the streaming paths — wire decode on
#: the server, checkpoint resume, chunk replay — which used to re-warn
#: per reconstruction (once per chunk on streamed sweeps).  Keying the
#: warning on the axis content makes "warn once per sweep" structural
#: instead of relying on the process's ``warnings`` filters.
_warned_duplicate_axes: set = set()


def reset_duplicate_axis_warnings() -> None:
    """Forget which duplicated grid axes have warned (for tests)."""
    _warned_duplicate_axes.clear()


def _warn_duplicate_axis(path: str, values: tuple, dropped: int) -> None:
    try:
        fingerprint = (path, values)
        if fingerprint in _warned_duplicate_axes:
            return
        _warned_duplicate_axes.add(fingerprint)
    except TypeError:
        pass                       # unhashable values: always warn
    warnings.warn(
        f"grid axis {path!r} repeats {dropped} value(s); duplicates "
        "are dropped (first occurrence wins)",
        stacklevel=4)


def _normalized_axes(kind: str, axes: Any) -> Axes:
    """Validate and freeze one axis block (mapping or pair sequence).

    Grid axes deduplicate repeated values (first occurrence wins) with a
    warning: a duplicate grid value would silently expand the same spec
    twice, inflating every count derived from ``len(sweep)``.  The
    warning fires once per distinct ``(axis, values)`` content, however
    many times the sweep is re-normalized (streaming and serving decode
    the same sweep repeatedly); see
    :func:`reset_duplicate_axis_warnings`.  Zip axes keep duplicates —
    their values pair positionally with the other zip axes, so a
    repeated value can still denote a distinct combination.
    """
    if isinstance(axes, Mapping):
        pairs = list(axes.items())
    else:
        pairs = [tuple(pair) for pair in axes]
    valid = set(field_paths()) | {"arch.capacity_mb"}
    normalized: list[tuple[str, tuple[Any, ...]]] = []
    seen: set[str] = set()
    for path, values in pairs:
        if path not in valid:
            raise ConfigurationError(
                f"unknown {kind} axis {path!r}; valid paths: "
                f"{', '.join(sorted(valid))}")
        if path in seen:
            raise ConfigurationError(f"duplicate {kind} axis {path!r}")
        seen.add(path)
        values = tuple(values)
        if kind == "grid":
            unique = tuple(dict.fromkeys(values))
            if len(unique) != len(values):
                _warn_duplicate_axis(path, values,
                                     len(values) - len(unique))
                values = unique
        require(len(values) > 0, f"{kind} axis {path!r} must not be empty")
        normalized.append((path, values))
    return tuple(normalized)


@dataclass(frozen=True)
class SweepSpec:
    """A base design spec plus grid / zip / explicit-point axes.

    Attributes:
        base: The spec every axis perturbs.
        grid: Full-factorial axes, ``((path, values), ...)``; also accepts
            a ``{path: values}`` mapping at construction.
        zipped: Lockstep axes (all the same length); JSON key ``"zip"``.
        points: Extra fully-formed specs appended after the expansion.
    """

    base: DesignSpec = field(default_factory=DesignSpec)
    grid: Axes = ()
    zipped: Axes = ()
    points: tuple[DesignSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _normalized_axes("grid", self.grid))
        object.__setattr__(self, "zipped",
                           _normalized_axes("zip", self.zipped))
        lengths = {len(values) for _, values in self.zipped}
        require(len(lengths) <= 1,
                "zip axes must all have the same length, got lengths "
                f"{sorted(lengths)}")
        object.__setattr__(self, "points", tuple(self.points))
        for point in self.points:
            require(isinstance(point, DesignSpec),
                    "sweep points must be DesignSpec instances")

    # --- expansion --------------------------------------------------------

    def iter_specs(self) -> Iterator[DesignSpec]:
        """Lazily yield every concrete :class:`DesignSpec`, in order.

        This is the streaming counterpart of :meth:`expand`: a
        million-point grid costs one spec of memory at a time, so the
        streaming executor (:mod:`repro.sweep.stream`) can walk grids far
        too large to materialize.  The order is identical to
        :meth:`expand`, and every point equals ``base.updated(changes)``
        for its zip-then-grid ``changes``.

        Expansion is an odometer over interned sections.  Each swept
        section (tech, arch, workload, flow) is built by one validated
        :func:`~repro.spec.design.override_section` call per distinct
        tuple of its own axis values, and every point is assembled from
        the current instances with no second validation; unswept
        sections are the base's own objects.  The zip index is the
        odometer's outermost axis.  A section keeps its instances in a
        table keyed by the position of its innermost moving axis,
        cleared whenever one of its outer axes moves, so memory is
        bounded by axis lengths, not by the grid (a section whose axes
        interleave with another's may then build an equal tuple again).

        Validation stays lazy: an invalid axis value raises when the
        first point holding it is built, with the error
        :meth:`DesignSpec.updated` gives for that point.
        """
        grid = dict(self.grid)
        order = list(dict.fromkeys(
            [path for path, _ in self.zipped] + list(grid)))
        # Odometer axes, outermost first: the zip index (the paths a grid
        # axis does not override), then each grid axis.  Only axes that
        # move become levels; the rest hold their first value.
        lockstep = [(path, values) for path, values in self.zipped
                    if path not in grid]
        axes = [(lockstep, len(self.zipped[0][1]) if self.zipped else 1)]
        axes += [([(path, values)], len(values)) for path, values in self.grid]
        current = {path: values[0]
                   for group, _ in axes for path, values in group}
        levels = [(group, count) for group, count in axes if count > 1]
        level_of = {path: depth for depth, (group, _) in enumerate(levels)
                    for path, _ in group}
        names = [f.name for f in fields(DesignSpec)]
        base_sections = [getattr(self.base, name) for name in names]
        instances = list(base_sections)
        # Per level: the (slot, paths, table) of each section whose
        # innermost level it is, and the tables its moves invalidate.
        inner: list[list] = [[] for _ in levels]
        clears: list[list] = [[] for _ in levels]
        fixed = []                         # swept sections with no level
        for slot, name in enumerate(names):
            paths = [path for path in order if section_of(path) == name]
            depths = sorted({level_of[path] for path in paths
                             if path in level_of})
            if depths:
                table: dict = {}
                inner[depths[-1]].append((slot, paths, table))
                for depth in depths[:-1]:
                    clears[depth].append(table)
            elif paths:
                fixed.append((slot, paths))

        def build(slot: int, paths: list) -> Any:
            try:
                return override_section(
                    base_sections[slot],
                    [(path, current[path]) for path in paths])
            except ConfigurationError:
                # Raise what base.updated raises for this point.  Deeper
                # levels hold its values or those of a point already
                # built (valid ones), which cannot change the error.
                self.base.updated({path: current[path] for path in order})
                raise

        last = len(levels) - 1

        def walk(depth: int) -> Iterator[DesignSpec]:
            group, count = levels[depth]
            for index in range(count):
                for path, values in group:
                    current[path] = values[index]
                for table in clears[depth]:
                    table.clear()
                for slot, paths, table in inner[depth]:
                    instance = table.get(index)
                    if instance is None:
                        instance = table[index] = build(slot, paths)
                    instances[slot] = instance
                if depth == last:
                    yield DesignSpec(*instances)
                else:
                    yield from walk(depth + 1)

        for slot, paths in fixed:
            instances[slot] = build(slot, paths)
        if levels:
            yield from walk(0)
        else:
            yield DesignSpec(*instances)
        yield from self.points

    def chunks(self, size: int) -> Iterator[tuple[DesignSpec, ...]]:
        """Lazily yield the sweep's specs in chunks of ``size``.

        The last chunk may be shorter; no chunk is empty.  Backed by
        :meth:`iter_specs`, so only one chunk is ever materialized.
        """
        require(size >= 1, "chunk size must be >= 1")
        specs = self.iter_specs()
        while True:
            chunk = tuple(itertools.islice(specs, size))
            if not chunk:
                return
            yield chunk

    def expand(self) -> tuple[DesignSpec, ...]:
        """Every concrete :class:`DesignSpec` of the sweep, in order."""
        return tuple(self.iter_specs())

    def __len__(self) -> int:
        count = len(self.zipped[0][1]) if self.zipped else 1
        for _, values in self.grid:
            count *= len(values)
        return count + len(self.points)

    # --- serialization ----------------------------------------------------

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical plain-JSON form; inverse of :meth:`from_jsonable`."""
        return {
            "base": self.base.to_jsonable(),
            "grid": {path: list(values) for path, values in self.grid},
            "zip": {path: list(values) for path, values in self.zipped},
            "points": [point.to_jsonable() for point in self.points],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a sweep from a plain JSON object.

        ``points`` entries are *partial* spec objects merged over ``base``
        (a full spec object therefore overrides everything, which is what
        :meth:`to_jsonable` emits — so the round trip is exact).
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {"base", "grid", "zip", "points"})
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in sweep spec: {', '.join(unknown)}; "
                "allowed: base, grid, zip, points")
        base = DesignSpec.from_jsonable(data.get("base", {}))
        points = []
        for overlay in data.get("points", ()):
            if not isinstance(overlay, Mapping):
                raise ConfigurationError(
                    "sweep points must be JSON objects")
            merged = _merge(base.to_jsonable(), overlay)
            points.append(DesignSpec.from_jsonable(merged))
        return cls(base=base, grid=data.get("grid", {}),
                   zipped=data.get("zip", {}), points=tuple(points))

    def to_json(self, indent: int | None = 2) -> str:
        """The sweep as a JSON document."""
        return json.dumps(self.to_jsonable(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a sweep from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"invalid sweep JSON: {error}") from error
        return cls.from_jsonable(data)

    def fingerprint(self) -> str:
        """Content hash of the canonical JSON form."""
        from repro.runtime.keys import stable_key

        return stable_key("repro.spec.SweepSpec", self.to_jsonable())


def _merge(base: dict[str, Any], overlay: Mapping[str, Any]) -> dict[str, Any]:
    """One-level-deep section merge of a partial spec over a full one."""
    merged = {section: dict(values) for section, values in base.items()}
    for section, values in overlay.items():
        if isinstance(values, Mapping) and section in merged:
            merged[section].update(values)
            if "capacity_mb" in merged[section]:
                merged[section].pop("capacity_bits", None)
        else:
            merged[section] = values
    return merged


def load_sweep_spec(path: str) -> SweepSpec:
    """Read a :class:`SweepSpec` from a JSON file.

    A file holding a plain :class:`DesignSpec` (``tech``/``arch``/
    ``workload`` sections, no axes) loads as a one-point sweep, so ``repro
    sweep --spec`` accepts both shapes.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read sweep {path!r}: {error}") \
            from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid sweep JSON: {error}") from error
    if isinstance(data, Mapping) and not (
            {"base", "grid", "zip", "points"} & set(data)):
        return SweepSpec(base=DesignSpec.from_jsonable(data))
    return SweepSpec.from_jsonable(data)
