"""Seeded workload inputs: sweep grids and the serve request sequence.

Everything here is plain JSON data built from ``random.Random(seed)``;
the program under test only ever sees these generated specs and
requests.  Each workload keeps its amount of work fixed across seeds
(same axis lengths, same request mix) and lets the seed choose *which*
values and in *what order*, so a different seed changes the inputs but
not the size of the job.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

#: Workload names, in the order the runner lists them.
WORKLOADS = ("sweep-batched", "sweep-pruned", "serve-mix", "flow-physical")

#: Machine-readable rationale: why each workload exists, which layers it
#: exercises and which it bypasses.
RATIONALE: dict[str, Any] = json.loads(
    (Path(__file__).with_name("workloads.json")).read_text())

#: Capacity pool (MB) the sweep grids draw from: 12-136.95 MB in
#: 0.05 MB steps, every value large enough for both networks' weights.
CAPACITY_POOL = tuple(round(12 + 0.05 * k, 2) for k in range(2500))
TIER_PAIRS = (1, 2, 4, 8)
PRECISIONS = (4, 8)
NETWORKS = ("resnet18", "mobilenet_v1")

#: Points per streamed chunk for the two analytical sweeps.
SWEEP_CHUNK = 64
#: Points per streamed chunk for the physical sweep (36 points -> 9).
FLOW_CHUNK = 4

#: Physical-sweep pools.  ``tier_pairs`` is always {1, 2}: the flow
#: floorplans one tier pair, so every 2-pair point is an early
#: floorplan-infeasible verdict and every 1-pair point runs all ten
#: stages — half the points on each path, whatever the seed.
FLOW_CAPACITIES = (32, 40, 48, 56, 64, 72, 80)
FLOW_ASPECTS = (0.25, 0.5, 1.0, 2.0, 3.0)
FLOW_FREQUENCIES = (100.0, 150.0, 200.0, 250.0, 300.0)

#: serve-mix request mix: 40 % cache hits, 50 % fresh specs, 10 %
#: small batched sweeps.  The eval median then sits inside the miss
#: distribution rather than in the gap between hits and misses.
SERVE_REQUESTS = 600
SERVE_HIT_SHARE = 0.40
SERVE_SWEEP_SHARE = 0.10
#: A hit repeats a fresh spec served at least this many requests
#: earlier, so it is almost always a cache read; it can still join the
#: identical request in flight on the other connection when that one
#: is slow, which is why the runner's exact counters use hits plus
#: coalesced requests.
HIT_MIN_AGE = 8
#: ...and at most this many requests earlier, so the engine's 4096-entry
#: in-memory cache (which the sweeps also fill) still holds it.
HIT_MAX_AGE = 120
#: Sweep requests: 8 capacities x 4 tier pairs x 2 precisions = 64
#: points, drawn from capacities no eval request uses.
SERVE_SWEEP_CAPACITIES = 8


def _shuffled(rng: random.Random, values) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def sweep_grid(workload: str, seed: int) -> dict[str, Any]:
    """The ``SweepSpec`` JSON of one sweep workload for ``seed``.

    ``sweep-batched``: 500 capacities x 4 tier pairs x 2 precisions x
    2 networks = 8000 points.  ``sweep-pruned``: 63 capacities, 1008
    points; pruning depends on the seeded axis order.
    ``flow-physical``: 3 capacities x 2 tier pairs x 3 aspect ratios x
    2 target frequencies = 36 physical points.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "flow-physical":
        return {"grid": {
            "arch.capacity_mb": rng.sample(FLOW_CAPACITIES, 3),
            "arch.tier_pairs": _shuffled(rng, (1, 2)),
            "flow.aspect_ratio": rng.sample(FLOW_ASPECTS, 3),
            "flow.frequency_mhz": rng.sample(FLOW_FREQUENCIES, 2),
        }}
    sizes = {"sweep-batched": 500, "sweep-pruned": 63}
    if workload not in sizes:
        raise ValueError(f"{workload!r} is not a sweep workload")
    return {"grid": {
        "arch.capacity_mb": rng.sample(CAPACITY_POOL, sizes[workload]),
        "arch.tier_pairs": _shuffled(rng, TIER_PAIRS),
        "arch.precision_bits": _shuffled(rng, PRECISIONS),
        "workload.network": _shuffled(rng, NETWORKS),
    }}


def grid_points(grid: dict[str, Any]) -> int:
    """Number of points a ``{"grid": {...}}`` sweep expands to."""
    count = 1
    for values in grid["grid"].values():
        count *= len(values)
    return count


def _eval_spec(capacity_mb: float, tier_pairs: int, precision: int,
               network: str) -> dict[str, Any]:
    return {"arch": {"capacity_mb": capacity_mb, "tier_pairs": tier_pairs,
                     "precision_bits": precision},
            "workload": {"network": network}}


def serve_requests(seed: int,
                   count: int = SERVE_REQUESTS) -> list[dict[str, Any]]:
    """The seeded closed-loop request sequence for ``serve-mix``.

    Each entry is ``{"kind": "hit" | "miss" | "sweep", "path", "body"}``.
    The number of each kind is fixed; the seed picks the specs and the
    interleaving.  Eval capacities come from even pool slots and sweep
    capacities from odd ones, so a sweep never pre-warms a "fresh" spec.
    """
    rng = random.Random(f"serve-mix:{seed}")
    hits = round(count * SERVE_HIT_SHARE)
    sweeps = round(count * SERVE_SWEEP_SHARE)
    kinds = ["hit"] * hits + ["sweep"] * sweeps \
        + ["miss"] * (count - hits - sweeps)
    rng.shuffle(kinds)
    # The first requests must create something to hit.
    for index in range(HIT_MIN_AGE + 1):
        if kinds[index] == "hit":
            swap = kinds.index("miss", HIT_MIN_AGE + 1)
            kinds[index], kinds[swap] = kinds[swap], kinds[index]
    eval_caps = iter(rng.sample(CAPACITY_POOL[0::2], count))
    sweep_caps = iter(rng.sample(CAPACITY_POOL[1::2],
                                 sweeps * SERVE_SWEEP_CAPACITIES))
    served: list[tuple[int, dict[str, Any]]] = []
    requests: list[dict[str, Any]] = []
    for index, kind in enumerate(kinds):
        if kind == "miss":
            body = _eval_spec(next(eval_caps), rng.choice(TIER_PAIRS),
                              rng.choice(PRECISIONS), rng.choice(NETWORKS))
            served.append((index, body))
            requests.append({"kind": kind, "path": "/v1/eval", "body": body})
        elif kind == "hit":
            # Two identical requests in flight together coalesce, so a
            # hit never repeats the previous request.
            previous = requests[-1]["body"] if requests else None
            eligible = [body for at, body in served
                        if HIT_MIN_AGE <= index - at <= HIT_MAX_AGE
                        and body is not previous]
            if not eligible:        # a long run of sweeps: fall back to a miss
                body = _eval_spec(next(eval_caps), rng.choice(TIER_PAIRS),
                                  rng.choice(PRECISIONS),
                                  rng.choice(NETWORKS))
                served.append((index, body))
                requests.append({"kind": "miss", "path": "/v1/eval",
                                 "body": body})
                continue
            requests.append({"kind": kind, "path": "/v1/eval",
                             "body": rng.choice(eligible)})
        else:
            caps = [next(sweep_caps) for _ in range(SERVE_SWEEP_CAPACITIES)]
            requests.append({"kind": kind, "path": "/v1/sweep", "body": {
                "sweep": {
                    "base": {"workload": {"network": rng.choice(NETWORKS)}},
                    "grid": {"arch.capacity_mb": caps,
                             "arch.tier_pairs": _shuffled(rng, TIER_PAIRS),
                             "arch.precision_bits": _shuffled(
                                 rng, PRECISIONS)}},
                "options": {"batch": True, "chunk_size": 64}}})
    return requests


def sample_indices(seed: int, population: int, size: int,
                   salt: str) -> list[int]:
    """A seeded sorted sample of positions for a correctness check."""
    rng = random.Random(f"{salt}:{seed}")
    return sorted(rng.sample(range(population), min(size, population)))
