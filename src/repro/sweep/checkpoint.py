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

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import EvaluationFailure, require
from repro.faults import corrupt_text as _corrupt_text
from repro.runtime.cache import atomic_write_text
from repro.runtime.keys import stable_key
from repro.runtime.serialize import dumps, loads
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


class SweepCheckpoint:
    """One streaming run's on-disk chunk records.

    ``SweepCheckpoint(directory, key)`` stores records as
    ``<directory>/<key prefix>/chunk-<index>.json``.  Unreadable files
    and hash mismatches degrade to a miss (the chunk re-evaluates); a
    directory that cannot be created degrades to "nothing persists",
    matching the disk cache's never-fail policy.
    """

    def __init__(self, directory: str | os.PathLike, key: str) -> None:
        require(len(key) >= 16, "checkpoint key must be a content hash")
        self.directory = Path(directory) / key[:16]
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._writable = True
        except OSError:
            self._writable = False
        self._records: dict[int, ChunkRecord] = {}
        if self._writable:
            self._load()

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

    def _load(self) -> None:
        try:
            paths = sorted(self.directory.glob("chunk-*.json"))
        except OSError:
            return
        for path in paths:
            try:
                record = loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError, TypeError, KeyError,
                    AttributeError, ImportError):
                continue  # torn/foreign file: that chunk re-evaluates
            if isinstance(record, ChunkRecord):
                self._records[record.index] = record

    def get(self, index: int, specs_hash: str) -> ChunkRecord | None:
        """The stored record for chunk ``index``, validated by hash."""
        record = self._records.get(index)
        if record is not None and record.specs_hash == specs_hash:
            return record
        return None

    def store(self, record: ChunkRecord) -> bool:
        """Persist one record atomically; False when the disk refused."""
        self._records[record.index] = record
        if not self._writable:
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
        return len(self._records)

    def __contains__(self, index: int) -> bool:
        return index in self._records
