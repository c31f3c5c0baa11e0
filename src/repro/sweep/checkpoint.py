"""Crash-safe chunk checkpoints for streaming sweeps.

A streaming sweep's unit of durability is the *chunk*: after a chunk's
evaluations complete, a :class:`ChunkRecord` — the chunk's index, a
content hash of its specs, how many points were pruned, and every
:class:`~repro.spec.evaluate.SpecEvaluation` it produced — lands as one
JSON file, written atomically (temp file + rename, the disk cache's
policy) so a SIGKILL can never leave a torn record.  Restarting the same
sweep replays completed chunks from these records instead of
re-evaluating them; the generic codec round-trips floats through
shortest-repr JSON, so a replayed evaluation compares ``==`` to the
original object.

The store holds no records in memory: :meth:`SweepCheckpoint.store`
writes a record and forgets it, and :meth:`SweepCheckpoint.get` reads
and decodes one chunk's file when the sweep reaches that chunk, so
replay memory is one chunk, like a cold run's.  Given the live chunk, a
record does not rebuild its specs: each evaluation takes the live
(interned) spec of its slot, once the spec embedded in the record is
found to be that spec's canonical text — compared as text and cut out
before the JSON parse, which then skips most of the record's bytes.  An
unpruned record's evaluations must fill exactly the chunk's unfailed
slots; a pruned one's keep slot order.  A record whose specs differ from
the live chunk is refused like a torn one.

Records for different sweeps never collide: each store keys its
subdirectory by :func:`checkpoint_key`, a content hash over the sweep
spec, the PDK, the chunk size (chunk boundaries move with it), the
pruning flag (a pruned chunk legitimately holds fewer evaluations), and
the physical call keywords (physical evaluations carry extra payload
that depends on the thermal solver).  Each
record also embeds its chunk's spec hash, so a stale or foreign file —
like a corrupt one — degrades to "re-evaluate this chunk", never to wrong
results.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import EvaluationFailure, ReproError, require
from repro.faults import corrupt_text as _corrupt_text
from repro.obs.trace import span as _span
from repro.runtime.cache import atomic_write_text
from repro.runtime.keys import stable_key
from repro.runtime.serialize import TUPLE_TAG, dumps, from_jsonable, loads
from repro.spec.design import DesignSpec
from repro.spec.evaluate import SpecEvaluation, physical_call_kwargs
from repro.spec.sweep import SweepSpec
from repro.tech.pdk import PDK

__all__ = ["ChunkRecord", "SweepCheckpoint", "checkpoint_key", "chunk_hash"]


def chunk_hash(specs: Iterable[DesignSpec]) -> str:
    """Content hash identifying one chunk's specs (order-sensitive)."""
    return stable_key("repro.sweep.chunk", list(specs))


def checkpoint_key(sweep: SweepSpec, pdk: PDK | None = None,
                   chunk_size: int = 1, prune: bool = False,
                   physical: bool = False) -> str:
    """Content hash identifying one streaming run's checkpoint store."""
    return stable_key("repro.sweep.checkpoint", sweep.to_jsonable(),
                      None if pdk is None else stable_key(pdk),
                      chunk_size, prune,
                      physical_call_kwargs(True) if physical else False)


@dataclass(frozen=True)
class ChunkRecord:
    """Everything needed to replay one completed chunk.

    Attributes:
        index: The chunk's position in the sweep's chunk sequence.
        specs_hash: :func:`chunk_hash` of the chunk's specs — replay
            refuses a record whose hash does not match the live chunk.
        pruned: Points skipped by certified frontier domination.
        evaluations: Results of the points that were evaluated, in spec
            order (``len(evaluations) + pruned + len(failures)`` = chunk
            size).
        failures: Structured records of points that failed in
            partial-results mode, each carrying its chunk-local spec
            index — resume retries exactly these points and nothing
            else.  Defaults to empty, so records written before this
            field existed deserialize unchanged.
    """

    index: int
    specs_hash: str
    pruned: int
    evaluations: tuple[SpecEvaluation, ...]
    failures: tuple[EvaluationFailure, ...] = ()


#: Errors that make a record file unusable (torn, foreign or stale).
_UNREADABLE = (ValueError, TypeError, LookupError, AttributeError,
               ImportError, ReproError)


class SweepCheckpoint:
    """One streaming run's on-disk chunk records.

    ``SweepCheckpoint(directory, key)`` stores records as
    ``<directory>/<key prefix>/chunk-<index>.json``.  Unreadable files
    and hash mismatches degrade to a miss (the chunk re-evaluates); a
    directory that cannot be created degrades to "nothing persists"
    (records then live in memory for this store's lifetime), matching
    the disk cache's never-fail policy.
    """

    def __init__(self, directory: str | os.PathLike, key: str) -> None:
        require(len(key) >= 16, "checkpoint key must be a content hash")
        self.directory = Path(directory) / key[:16]
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._writable = True
        except OSError:
            self._writable = False
        # Records of an unwritable store only (a writable one keeps none).
        self._records: dict[int, ChunkRecord] = {}

    @classmethod
    def for_sweep(cls, directory: str | os.PathLike, sweep: SweepSpec,
                  pdk: PDK | None = None, chunk_size: int = 1,
                  prune: bool = False,
                  physical: bool = False) -> "SweepCheckpoint":
        """The checkpoint store for one (sweep, pdk, chunking) identity."""
        return cls(directory, checkpoint_key(sweep, pdk=pdk,
                                             chunk_size=chunk_size,
                                             prune=prune,
                                             physical=physical))

    def _path(self, index: int) -> Path:
        return self.directory / f"chunk-{index:08d}.json"

    def get(self, index: int, specs_hash: str,
            chunk: Sequence[DesignSpec] | None = None) -> ChunkRecord | None:
        """The stored record for chunk ``index``, validated by hash.

        Reads and decodes the chunk's file now.  With ``chunk`` (the
        live specs, whose :func:`chunk_hash` is ``specs_hash``) the
        record's evaluations take their specs from it, and a record
        whose embedded specs are not the chunk's is a miss.
        """
        if not self._writable:
            record = self._records.get(index)
            if record is not None and record.specs_hash == specs_hash:
                return record
            return None
        try:
            text = self._path(index).read_text(encoding="utf-8")
        except OSError:
            return None
        with _span("sweep.checkpoint.decode", bytes=len(text)):
            try:
                return _decode_record(text, index, specs_hash, chunk)
            except _UNREADABLE:
                return None  # torn/foreign/stale file: re-evaluate

    def store(self, record: ChunkRecord) -> bool:
        """Persist one record atomically; False when the disk refused.

        The store keeps no copy, unless its directory could not be
        created: then the record stays in memory instead.
        """
        if not self._writable:
            self._records[record.index] = record
            return False
        try:
            text = dumps(record)
        except TypeError:
            return False
        # Fault-injection site: chaos plans corrupt checkpoint bytes
        # here to prove torn records degrade to re-evaluation.
        text = _corrupt_text("checkpoint.corrupt", record.specs_hash, text)
        return atomic_write_text(self._path(record.index), text)

    def __len__(self) -> int:
        try:
            files = sum(1 for _ in self.directory.glob("chunk-*.json"))
        except OSError:
            files = 0
        return len(self._records) + files

    def __contains__(self, index: int) -> bool:
        return index in self._records or self._path(index).is_file()


#: Keys in a record's text.  JSON escapes each quote inside a string, so
#: these only ever start an object key: the spec of an evaluation (or of
#: a failure), and the record's failures, which follow its evaluations.
_SPEC_KEY = '"spec":'
_FAILURES_KEY = '"failures":'


def _decode_record(text: str, index: int, specs_hash: str,
                   chunk: Sequence[DesignSpec] | None) -> ChunkRecord | None:
    """Chunk ``index``'s record from its file text; ``None`` when the text
    is another record, or its specs are not the live ``chunk``'s."""
    if chunk is None:
        record = loads(text)
        if (isinstance(record, ChunkRecord) and record.index == index
                and record.specs_hash == specs_hash):
            return record
        return None
    # Evaluations come first in a record's canonical text, in slot order
    # (pruned and failed slots absent).  Each embedded spec that is the
    # text of the next matching live slot is replaced by the slot's
    # number: the spec check is a text comparison, and the parse skips
    # about 80 % of the bytes.  Failures keep their specs.
    spec_texts = [dumps(spec) for spec in chunk]
    head, failures_key, tail = text.partition(_FAILURES_KEY)
    pieces = head.split(_SPEC_KEY)
    slot = spliced = 0
    for piece in pieces[1:]:
        while slot < len(chunk) and not piece.startswith(spec_texts[slot]):
            slot += 1
        if slot == len(chunk):
            break
        spliced += 1
        pieces[spliced] = f"{slot}{piece[len(spec_texts[slot]):]}"
        slot += 1
    data = json.loads(_SPEC_KEY.join(pieces) + failures_key + tail)
    fields = data["fields"]
    items = fields["evaluations"][TUPLE_TAG]
    if (fields["index"] != index or fields["specs_hash"] != specs_hash
            or len(items) > spliced):  # an embedded spec is not live
        return None
    slots = [item["fields"]["spec"] for item in items]
    if fields["pruned"] == 0:
        # Unpruned: the evaluations fill exactly the slots that did not
        # fail (an equal spec at another slot matches as well).
        failed = {failure.index
                  for failure in from_jsonable(fields.get("failures", ()))}
        live = [slot for slot in range(len(chunk)) if slot not in failed]
        if len(live) != len(slots) or any(
                spec_texts[got] != spec_texts[slot]
                for got, slot in zip(slots, live)):
            return None
        slots = live
    for item, slot in zip(items, slots):
        item["fields"]["spec"] = chunk[slot]
    record = from_jsonable(data)
    known = set(spec_texts)
    if not isinstance(record, ChunkRecord) or (
            len(record.evaluations) + record.pruned + len(record.failures)
            != len(chunk) or any(dumps(failure.spec) not in known
                                 for failure in record.failures)):
        return None
    return record
