"""Host-speed reference: a fixed piece of work timed beside each run.

The benchmark runs on shared machines whose speed drifts: on a shared
2-vCPU, 2.0 GHz host, the same single-threaded loop took
anywhere from 110 to 200 ms, in phases lasting seconds to minutes, with
process CPU time tracking wall time (contention on the physical core,
not time stolen from the process).  Raw host times of one workload then
differ by up to 60 % between runs minutes apart.

Each repetition therefore times :func:`reference_work` twice before and
twice after its measured phase, in the same process.  ``host_factor`` is
``REFERENCE_SECONDS`` over the median of the four timings: the factor by
which this host was faster (> 1) or slower (< 1) than a host that runs
the reference work in ``REFERENCE_SECONDS``.  The runner reports times
multiplied by that factor — host seconds at the reference speed — and
prints the raw figures beside them.  The reference work mixes what the
program spends its time on: building small dicts, canonical JSON,
SHA-256, float arithmetic and small numpy array operations.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

#: Seconds the reference work takes at the reference host speed (roughly
#: what one vCPU of that 2.0 GHz host needs).
REFERENCE_SECONDS = 0.25


def reference_work() -> float:
    """The fixed work; returns a checksum so nothing is optimized away."""
    total = 0.0
    for i in range(12000):
        record = {"index": i, "values": [i * 0.5, i / 3.0, i % 11],
                  "section": {"name": str(i), "kind": i % 7}}
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        total += int(hashlib.sha256(text.encode()).hexdigest()[:4], 16)
        total += sum(value * 1.0001 for value in record["values"])
    try:
        import numpy
    except ImportError:
        return total
    field = numpy.zeros((64, 64))
    source = numpy.ones((64, 64)) * 1e-3
    for _ in range(400):
        field = 0.25 * (numpy.pad(field, ((1, 0), (0, 0)))[:-1, :]
                        + numpy.pad(field, ((0, 1), (0, 0)))[1:, :]
                        + numpy.pad(field, ((0, 0), (1, 0)))[:, :-1]
                        + numpy.pad(field, ((0, 0), (0, 1)))[:, 1:]) + source
    return total + float(field.sum())


def samples(count: int = 2) -> list[float]:
    """Seconds each of ``count`` back-to-back runs of
    :func:`reference_work` takes right now."""
    timings = []
    for _ in range(count):
        start = time.perf_counter()
        reference_work()
        timings.append(time.perf_counter() - start)
    return timings


def host_factor(timings: list[float]) -> float:
    """Speed of this host relative to the reference (> 1 is faster).

    The median keeps one timing caught in a brief stall from skewing
    the factor.
    """
    return REFERENCE_SECONDS / statistics.median(timings)
