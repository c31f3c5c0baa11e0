"""Lazy checkpoint replay and the per-class decoder.

* :func:`~repro.runtime.serialize.from_jsonable` resolves each type path
  once and still decodes every lowered tree exactly like the generic
  tree walk it replaced (a test-local copy is the oracle), refusing
  types outside ``repro``;
* :class:`~repro.sweep.checkpoint.SweepCheckpoint` holds no records:
  ``get`` decodes one chunk's file on demand, replayed evaluations take
  the live chunk's spec objects, and a record whose embedded spec is not
  the live one re-evaluates;
* records written by the eager-loading store the lazy one replaced
  (checked in under ``tests/data/checkpoint_records``) still replay.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import importlib
import json
import shutil
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dse import joint_grid_sweep
from repro.errors import EvaluationFailure
from repro.faults import FaultPlan, FaultRule, injected_faults
from repro.obs import trace, walk_spans
from repro.runtime.engine import EvaluationEngine
from repro.runtime.keys import call_key
from repro.runtime.pmap import RetryPolicy
from repro.runtime.serialize import dumps, from_jsonable, loads
from repro.spec import DesignSpec, SweepSpec, evaluate_spec
from repro.spec.evaluate import PhysicalSummary, SpecEvaluation
from repro.sweep import (
    ChunkRecord,
    SweepCheckpoint,
    chunk_hash,
    run_streaming_sweep,
    stream_sweep,
)
from repro.tech.stackup import TierKind
from repro.units import MEGABYTE
from repro.workloads.layers import LayerKind

FIXTURE = Path(__file__).parent / "data" / "checkpoint_records"


# --- the decoder against the generic tree walk --------------------------------


def _reference_from_jsonable(data):
    """The generic tree walk (one import per dataclass) the per-class
    decoder replaced; the oracle of the property below."""
    if isinstance(data, list):
        return [_reference_from_jsonable(item) for item in data]
    if not isinstance(data, dict):
        return data
    if "__dataclass__" in data:
        cls = _reference_resolve(data["__dataclass__"])
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"{data['__dataclass__']} is not a dataclass")
        return cls(**{name: _reference_from_jsonable(value)
                      for name, value in data["fields"].items()})
    if "__enum__" in data:
        cls = _reference_resolve(data["__enum__"])
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise TypeError(f"{data['__enum__']} is not an enum")
        return cls[data["name"]]
    if "__tuple__" in data:
        return tuple(_reference_from_jsonable(item)
                     for item in data["__tuple__"])
    if "__set__" in data:
        return {_reference_from_jsonable(item) for item in data["__set__"]}
    if "__frozenset__" in data:
        return frozenset(_reference_from_jsonable(item)
                         for item in data["__frozenset__"])
    if "__dict__" in data:
        return {key: _reference_from_jsonable(value)
                for key, value in data["__dict__"]}
    return {key: _reference_from_jsonable(value)
            for key, value in data.items()}


def _reference_resolve(path):
    module_name, _, qualname = path.partition(":")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise TypeError(f"refusing to resolve {path!r}")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


_floats = st.floats(allow_nan=False, width=64)
_text = st.text(max_size=6)

_specs = st.builds(
    lambda mb, tiers, delta, bits: DesignSpec().updated({
        "arch.capacity_mb": mb, "arch.tier_pairs": tiers,
        "tech.delta": delta, "arch.precision_bits": bits}),
    st.sampled_from([12, 32, 64]), st.integers(1, 8),
    st.floats(1.0, 3.0), st.sampled_from([4, 8]))


def _field_strategy(annotation: str):
    return {"bool": st.booleans(), "float": _floats,
            "str | None": st.none() | _text}[annotation]


_physical = st.builds(PhysicalSummary, **{
    field.name: _field_strategy(field.type)
    for field in dataclasses.fields(PhysicalSummary)})

_evaluations = st.builds(
    SpecEvaluation, spec=_specs, n_cs_2d=st.integers(1, 64),
    n_cs_m3d=st.integers(1, 512), footprint=_floats, speedup=_floats,
    energy_benefit=_floats, edp_benefit=_floats,
    physical=st.none() | _physical)

_failures = st.builds(
    EvaluationFailure, error_type=_text, message=_text,
    path=st.none() | _text, retries=st.integers(0, 3),
    pool_deaths=st.integers(0, 3), spec=st.none() | _specs,
    index=st.none() | st.integers(0, 63))

_records = st.builds(
    ChunkRecord, index=st.integers(0, 10 ** 6),
    specs_hash=st.text("0123456789abcdef", min_size=64, max_size=64),
    pruned=st.integers(0, 64),
    evaluations=st.lists(_evaluations, max_size=3).map(tuple),
    failures=st.lists(_failures, max_size=2).map(tuple))

_leaves = (st.none() | st.booleans() | st.integers() | _floats | _text
           | st.sampled_from(list(LayerKind)) | st.sampled_from(list(TierKind)))

#: Dicts whose own keys collide with the codec's tags (tag-escaped).
_tag_keys = st.sampled_from(["__dataclass__", "__enum__", "__tuple__",
                             "__set__", "__frozenset__", "__dict__"])

_trees = st.recursive(
    _leaves | st.frozensets(st.integers(), max_size=3)
    | st.sets(_text, max_size=3) | _evaluations | _failures,
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_text, children, max_size=3)
        | st.dictionaries(_tag_keys, children, min_size=1, max_size=2)),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(value=_trees | _records)
def test_decoder_matches_the_generic_tree_walk(value):
    lowered = json.loads(dumps(value))
    decoded = from_jsonable(lowered)
    assert decoded == _reference_from_jsonable(lowered) == value
    # == cannot tell a tuple from a list or a set from a frozenset.
    assert dumps(decoded) == dumps(value)


@pytest.mark.parametrize("payload", [
    {"__dataclass__": "os.path:join", "fields": {}},
    {"__enum__": "enum:Enum", "name": "x"},
    [1, {"__tuple__": [{"__dataclass__": "json:JSONDecoder", "fields": {}}]}],
    {"__dataclass__": "repro.spec.design:override_section", "fields": {}},
    {"__enum__": "repro.spec.design:DesignSpec", "name": "x"},
])
def test_untrusted_or_wrong_kind_type_path_raises(payload):
    for _ in range(2):  # a refused path is refused again, not cached
        with pytest.raises(TypeError):
            from_jsonable(payload)


# --- lazy replay ---------------------------------------------------------------


def _engine() -> EvaluationEngine:
    return EvaluationEngine(jobs=1, use_cache=False)


def _grid() -> SweepSpec:
    return SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": [12, 16, 24], "arch.tier_pairs": [1, 2]})


def _pruning_grid() -> SweepSpec:
    """8 points; at chunk size 4 the second chunk prunes 2 of them."""
    return joint_grid_sweep((32 * MEGABYTE, 64 * MEGABYTE), (1.0, 2.0),
                            (1.0,), (1, 2))


def test_unpruned_replay_takes_the_live_specs(tmp_path):
    sweep = _grid()
    cold = run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                               engine=_engine())
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
    assert len(store) == 2 and 1 in store and 2 not in store
    replayed = []
    for index, chunk in enumerate(sweep.chunks(4)):
        record = store.get(index, chunk_hash(chunk), chunk)
        assert record is not None and record.pruned == 0
        assert all(evaluation.spec is spec for evaluation, spec
                   in zip(record.evaluations, chunk, strict=True))
        assert record == store.get(index, chunk_hash(chunk))  # generic
        replayed.extend(record.evaluations)
    assert tuple(replayed) == cold.evaluations
    warm = run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                               engine=_engine())
    assert warm.resumed_chunks == 2
    assert warm.evaluations == cold.evaluations


def test_physical_records_replay_onto_the_live_specs(tmp_path):
    sweep = SweepSpec(base=DesignSpec(), grid={"arch.tier_pairs": [1, 2]})
    cold = run_streaming_sweep(sweep, chunk_size=2, physical=True,
                               checkpoint=tmp_path, engine=_engine())
    assert all(evaluation.physical is not None
               for evaluation in cold.evaluations)
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=2,
                                      physical=True)
    chunk = next(sweep.chunks(2))
    record = store.get(0, chunk_hash(chunk), chunk)
    assert record.evaluations == cold.evaluations
    assert all(evaluation.spec is spec for evaluation, spec
               in zip(record.evaluations, chunk, strict=True))


def test_pruned_records_replay_equal_to_cold(tmp_path):
    sweep = _pruning_grid()
    cold = run_streaming_sweep(sweep, chunk_size=4, prune=True,
                               checkpoint=tmp_path, engine=_engine())
    assert cold.pruned == 2
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4,
                                      prune=True)
    chunks = list(sweep.chunks(4))
    pruned = store.get(1, chunk_hash(chunks[1]), chunks[1])
    assert pruned.pruned == 2 and len(pruned.evaluations) == 2
    assert all(any(evaluation.spec is spec for spec in chunks[1])
               for evaluation in pruned.evaluations)
    warm = run_streaming_sweep(sweep, chunk_size=4, prune=True,
                               checkpoint=tmp_path, engine=_engine())
    assert warm.resumed_chunks == 2 and warm.pruned == 2
    assert warm.evaluations == cold.evaluations


def test_pruned_record_with_a_failure_replays(tmp_path):
    sweep = _pruning_grid()
    chunk = list(sweep.chunks(4))[1]
    survivors = [evaluation.spec for evaluation in run_streaming_sweep(
        sweep, chunk_size=4, prune=True, engine=_engine()).evaluations[4:]]
    assert len(survivors) == 2
    with injected_faults(_failing(survivors[1])):
        cold = run_streaming_sweep(sweep, chunk_size=4, prune=True,
                                   checkpoint=tmp_path, max_failures=-1,
                                   engine=_no_retry_engine())
        store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4,
                                          prune=True)
        record = store.get(1, chunk_hash(chunk), chunk)
        assert (record.pruned, len(record.evaluations)) == (2, 1)
        assert record.failures[0].spec == survivors[1]
        assert record.evaluations[0].spec in chunk
        warm = run_streaming_sweep(sweep, chunk_size=4, prune=True,
                                   checkpoint=tmp_path, max_failures=-1,
                                   engine=_no_retry_engine())
    assert warm.resumed_chunks == 2 and warm.failed == cold.failed == 1
    assert warm.evaluations == cold.evaluations


def _failing(spec: DesignSpec) -> FaultPlan:
    """Every attempt at ``spec`` raises: a deterministic failed point."""
    return FaultPlan(rules=(FaultRule(
        site="task.transient", times=0,
        match=call_key(evaluate_spec, (spec,), {})),))


def _no_retry_engine() -> EvaluationEngine:
    return EvaluationEngine(jobs=1, use_cache=False,
                            retry_policy=RetryPolicy(max_retries=0,
                                                     backoff_base=0.0))


def test_records_with_failures_replay_equal_to_cold(tmp_path):
    sweep = _grid()
    chunk = next(sweep.chunks(4))
    with injected_faults(_failing(chunk[2])):
        cold = run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                                   max_failures=-1, engine=_no_retry_engine())
        assert cold.failed == 1
        store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
        record = store.get(0, chunk_hash(chunk), chunk)
        assert [failure.index for failure in record.failures] == [2]
        assert record.failures[0].spec == chunk[2]
        assert [evaluation.spec for evaluation in record.evaluations] \
            == [chunk[0], chunk[1], chunk[3]]
        assert all(evaluation.spec is spec for evaluation, spec
                   in zip(record.evaluations, (chunk[0], chunk[1], chunk[3])))
        # Still failing: the replay retries the point and matches cold.
        again = run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                                    max_failures=-1,
                                    engine=_no_retry_engine())
    assert again.resumed_chunks == 2 and again.failed == 1
    assert again.evaluations == cold.evaluations
    healed = run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                                 max_failures=-1, engine=_engine())
    reference = run_streaming_sweep(sweep, chunk_size=4, engine=_engine())
    assert healed.failed == 0
    assert healed.evaluations == reference.evaluations


@pytest.mark.parametrize("edit", [
    ('"tier_pairs":1', '"tier_pairs":3'),
    ('"delta":1.0', '"delta":1.5'),
    ('"network":"resnet18"', '"network":"alexnet"'),
])
def test_record_with_an_edited_spec_field_re_evaluates(tmp_path, edit):
    sweep = _grid()
    cold = run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                               engine=_engine())
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
    path = store.directory / "chunk-00000000.json"
    text = path.read_text()
    edited = text.replace(*edit, 1)
    assert edited != text
    json.loads(edited)  # still valid JSON, specs_hash untouched
    path.write_text(edited)
    chunk = next(sweep.chunks(4))
    assert store.get(0, chunk_hash(chunk), chunk) is None
    engine = _engine()
    chunks = list(stream_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                               engine=engine))
    assert [chunk.resumed for chunk in chunks] == [False, True]
    assert sum((chunk.evaluations for chunk in chunks), ()) \
        == cold.evaluations
    stage = next(s for s in engine.report().stages
                 if s.name == "sweep.evaluate")
    assert stage.evaluated == 4


def test_unpruned_record_with_specs_shifted_into_a_failed_slot_re_evaluates(
        tmp_path):
    """Every embedded spec is a live one, in slot order, but the
    evaluations no longer sit in the slots that did not fail."""
    sweep = _grid()
    chunk = next(sweep.chunks(4))
    with injected_faults(_failing(chunk[3])):
        run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                            max_failures=-1, engine=_no_retry_engine())
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
    path = store.directory / "chunk-00000000.json"
    head, key, tail = path.read_text().partition('"failures":')
    texts = ['"spec":' + dumps(spec) for spec in chunk]
    for slot in (2, 1, 0):  # evaluations at slots 0-2 move to 1-3
        head = head.replace(texts[slot], texts[slot + 1], 1)
    path.write_text(head + key + tail)
    assert store.get(0, chunk_hash(chunk)) is not None  # valid record
    assert store.get(0, chunk_hash(chunk), chunk) is None


def test_record_with_an_edited_failure_spec_re_evaluates(tmp_path):
    sweep = _grid()
    chunk = next(sweep.chunks(4))
    with injected_faults(_failing(chunk[1])):
        run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                            max_failures=-1, engine=_no_retry_engine())
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
    path = store.directory / "chunk-00000000.json"
    head, key, tail = path.read_text().partition('"failures":')
    stranger = chunk[1].updated({"arch.tier_pairs": 3})
    assert dumps(chunk[1]) in tail
    path.write_text(head + key + tail.replace(dumps(chunk[1]),
                                              dumps(stranger)))
    assert store.get(0, chunk_hash(chunk)).failures[0].spec == stranger
    assert store.get(0, chunk_hash(chunk), chunk) is None


def test_record_with_slot_numbers_for_specs_re_evaluates(tmp_path):
    """Slot numbers are what replay puts in place of matched specs; a
    file that already holds them is not a record the store wrote."""
    sweep = _grid()
    run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                        engine=_engine())
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
    path = store.directory / "chunk-00000000.json"
    text = path.read_text()
    chunk = next(sweep.chunks(4))
    for slot, spec in enumerate(chunk):
        text = text.replace('"spec":' + dumps(spec), f'"spec":{slot}', 1)
    path.write_text(text)
    assert store.get(0, chunk_hash(chunk), chunk) is None


def test_store_retains_no_evaluations(tmp_path):
    sweep = _grid()
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
    refs = []
    for _ in range(2):  # a cold run the store writes, then a replay
        for chunk in stream_sweep(sweep, chunk_size=4, checkpoint=store,
                                  engine=_engine()):
            refs.extend(weakref.ref(evaluation)
                        for evaluation in chunk.evaluations)
    del chunk
    gc.collect()
    assert len(refs) == 12
    assert all(ref() is None for ref in refs)
    assert len(store) == 2


def test_unwritable_store_keeps_its_records_in_memory(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    store = SweepCheckpoint(blocker, "0123456789abcdef")
    record = ChunkRecord(index=0, specs_hash=chunk_hash([DesignSpec()]),
                         pruned=0, evaluations=())
    assert store.store(record) is False
    assert store.get(0, record.specs_hash) is record
    assert len(store) == 1 and 0 in store and 1 not in store


def test_get_traces_one_decode_span_with_its_bytes(tmp_path):
    sweep = _grid()
    run_streaming_sweep(sweep, chunk_size=4, checkpoint=tmp_path,
                        engine=_engine())
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, chunk_size=4)
    chunk = next(sweep.chunks(4))
    with trace() as tracer:
        assert store.get(0, chunk_hash(chunk), chunk) is not None
        assert store.get(7, chunk_hash(chunk), chunk) is None  # no file
    spans = [node for node in walk_spans(tracer.roots)
             if node.name == "sweep.checkpoint.decode"]
    size = (store.directory / "chunk-00000000.json").stat().st_size
    assert [node.attrs["bytes"] for node in spans] == [size]


# --- records written before lazy replay ---------------------------------------


def test_records_from_the_eager_store_replay_unchanged(tmp_path):
    """The fixture was written by the store that decoded every record up
    front: the plain store's chunk 0 holds a failed point (slot 1), the
    pruned store's chunk 1 pruned 2 points."""
    shutil.copytree(FIXTURE, tmp_path, dirs_exist_ok=True)
    sweep = _pruning_grid()
    for name, prune in (("plain", False), ("pruned", True)):
        store = SweepCheckpoint.for_sweep(tmp_path / name, sweep,
                                          chunk_size=4, prune=prune)
        for index, chunk in enumerate(sweep.chunks(4)):
            text = store._path(index).read_text()
            record = store.get(index, chunk_hash(chunk), chunk)
            assert record == store.get(index, chunk_hash(chunk)) \
                == loads(text)
            assert dumps(record) == text  # byte-identical re-encoding

    engine = _engine()
    plain = run_streaming_sweep(sweep, chunk_size=4, max_failures=-1,
                                checkpoint=tmp_path / "plain", engine=engine)
    reference = run_streaming_sweep(sweep, chunk_size=4, engine=_engine())
    assert plain.resumed_chunks == 2 and plain.failed == 0
    assert plain.evaluations == reference.evaluations
    stage = next(s for s in engine.report().stages
                 if s.name == "sweep.evaluate")
    assert stage.evaluated == 1  # only the recorded failure

    pruned = run_streaming_sweep(sweep, chunk_size=4, prune=True,
                                 checkpoint=tmp_path / "pruned",
                                 engine=_engine())
    fresh = tmp_path / "fresh"
    cold = run_streaming_sweep(sweep, chunk_size=4, prune=True,
                               checkpoint=fresh, engine=_engine())
    assert pruned.resumed_chunks == 2 and pruned.pruned == cold.pruned == 2
    assert pruned.evaluations == cold.evaluations
    written = sorted(fresh.rglob("chunk-*.json"))
    assert [path.read_bytes() for path in written] == [
        path.read_bytes()
        for path in sorted((FIXTURE / "pruned").rglob("chunk-*.json"))]
