"""Per-layer timing from the benchmark's side of the module boundaries.

:func:`install` wraps the public functions of each layer — looked up by
module and name, and rebound everywhere the package imported them — in
:func:`repro.obs.trace.span` calls, so the spans the program already
emits (``engine.map``, ``simulator.run``, ``flow.<stage>``,
``sweep.chunk``, ``cache.*``, ``mapper.*``) nest with the benchmark's
own into one tree.  Nothing in the package is edited; the wrappers
exist only in the traced process.

:func:`layer_table` turns a span forest into self time per layer: a
span's self time is its duration minus its children's, and every span
belongs to exactly one layer, so the rows plus the root's own self time
(``unattributed``) sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Iterable

from repro.obs.trace import Span, span, walk_spans

#: (span name, module, attribute) for every wrapped public function.
#: A dotted attribute is a method (or classmethod) on a class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("spec.expand", "repro.spec.sweep", "SweepSpec.chunks"),
    ("spec.resolve", "repro.spec.resolve", "resolve"),
    ("spec.fingerprint", "repro.spec.design", "DesignSpec.fingerprint"),
    ("runtime.keys", "repro.runtime.keys", "stable_key"),
    ("runtime.keys", "repro.runtime.keys", "call_key"),
    ("runtime.keys", "repro.batch.pack", "spec_call_key"),
    ("runtime.keys", "repro.sweep.checkpoint", "chunk_hash"),
    ("sweep.bounds", "repro.sweep.bounds", "spec_bounds"),
    ("sweep.pareto", "repro.sweep.pareto", "ParetoFrontier.add"),
    ("sweep.pareto", "repro.sweep.pareto",
     "ParetoFrontier.certified_dominator"),
    ("sweep.checkpoint_write", "repro.sweep.checkpoint",
     "SweepCheckpoint.store"),
    ("sweep.checkpoint_read", "repro.sweep.checkpoint",
     "SweepCheckpoint.for_sweep"),
    ("sweep.checkpoint_read", "repro.sweep.checkpoint",
     "SweepCheckpoint.get"),
    ("batch.pack", "repro.batch.pack", "pack_point"),
    ("batch.kernel", "repro.batch.kernel", "BatchKernel.evaluate_calls"),
    ("perf.simulate", "repro.perf.simulator", "simulate"),
    ("physical.flow", "repro.physical.flow", "run_staged_flow"),
)

#: Generator functions: each ``next()`` is timed, not the call.
GENERATORS = frozenset({"SweepSpec.chunks"})

#: Layer of a span, by the first component of its name.  Spans the
#: package emits itself use their module's short name.
LAYER_OF = {
    "spec": "spec", "runtime": "runtime", "engine": "runtime",
    "cache": "runtime", "pmap": "runtime", "sweep": "sweep",
    "batch": "batch", "perf": "perf", "simulator": "perf",
    "mapper": "mapper", "flow": "physical", "physical": "physical",
    "serve": "serve", "bench": "unattributed",
}

#: Rows of the per-layer table, in print order.
LAYERS = ("spec", "runtime", "sweep", "batch", "perf", "mapper",
          "physical", "serve", "unattributed")

def _timed(name: str, fn: Callable, generator: bool) -> Callable:
    if generator:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                with span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)
    return wrapper


def install() -> None:
    """Wrap every target in a span, rebinding each imported alias.

    ``functools.wraps`` keeps ``__module__``/``__qualname__``, which the
    engine's cache keys are built from, so keys are unchanged.
    """
    for module_name in ("repro", "repro.sweep", "repro.batch.kernel",
                        "repro.serve.app", "repro.physical.flow"):
        importlib.import_module(module_name)
    for name, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        generator = attr in GENERATORS
        if "." in attr:
            owner = getattr(module, attr.split(".")[0])
            leaf = attr.split(".")[1]
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                setattr(owner, leaf,
                        classmethod(_timed(name, raw.__func__, generator)))
            else:
                setattr(owner, leaf, _timed(name, raw, generator))
            continue
        original = getattr(module, attr)
        wrapped = _timed(name, original, generator)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro" or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def layer_of(name: str) -> str:
    return LAYER_OF.get(name.split(".", 1)[0], "unattributed")


def layer_table(roots: Iterable[Span]) -> dict[str, float]:
    """Self seconds per layer over a span forest (keys: :data:`LAYERS`)."""
    table = dict.fromkeys(LAYERS, 0.0)
    for node in walk_spans(roots):
        table[layer_of(node.name)] += node.self_time
    return table


def op_stats(roots: Iterable[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: ``(calls, inclusive seconds, self seconds)``.

    Inclusive time counts only the outermost span of a name, so a name
    nested under itself (``stable_key`` inside ``call_key``) is not
    counted twice.
    """
    stats: dict[str, list] = {}

    def visit(node: Span, open_names: frozenset) -> None:
        entry = stats.setdefault(node.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += node.self_time
        if node.name not in open_names:
            entry[1] += node.duration
        inner = open_names | {node.name}
        for child in node.children:
            visit(child, inner)

    for root in roots:
        visit(root, frozenset())
    return {name: (int(c), float(i), float(s))
            for name, (c, i, s) in stats.items()}
