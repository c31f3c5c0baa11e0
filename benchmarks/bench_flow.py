"""Staged physical flow benchmark: per-stage caching + invalidation (PR 9).

Drives the 2D/M3D case-study pair through the staged pipeline
(:func:`repro.physical.flow.run_staged_flows`) with a disk-backed
evaluation engine and records in ``BENCH_PR9.json``:

* cold per-stage wall times (every ``flow.<stage>`` call evaluated);
* a warm re-run in a fresh engine over the same cache directory — zero
  stage evaluations, bit-identical outcomes — and the cold/warm wall
  speedup;
* a floorplan-knob sweep (``FlowSpec.aspect_ratio``) over a warm cache:
  content-addressed stage keys keep ``flow.synthesize`` warm across
  every point while the downstream stages re-run, versus an uncached
  arm that re-evaluates everything — the incremental-invalidation
  speedup, in both evaluated-stage-calls and wall time.

``--quick`` shrinks the knob sweep for CI smoke runs; the invariants are
identical.  ``--check`` exits non-zero when a caching invariant fails
(a warm stage re-evaluated, outcomes diverged, or synthesis was
re-synthesized during the knob sweep).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.physical.flow import run_staged_flows  # noqa: E402
from repro.runtime.engine import EvaluationEngine  # noqa: E402
from repro.spec import DesignSpec, FlowSpec  # noqa: E402
from repro.spec.resolve import resolve  # noqa: E402

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR9.json"


def _stage_rows(engine: EvaluationEngine) -> dict:
    return {stage.name: {"evaluated": stage.evaluated,
                         "cache_hits": stage.cache_hits,
                         "wall_s": round(stage.wall_time, 6)}
            for stage in engine.report().stages
            if stage.name.startswith("flow.")}


def measure(quick: bool = False) -> dict:
    try:  # "cold" means an empty result cache, not an unimported numpy
        import repro.physical.thermal_map  # noqa: F401
    except ImportError:
        pass
    point = resolve(DesignSpec())
    designs = (point.baseline, point.m3d)
    ratios = [1.0 + 0.03 * i for i in range(4 if quick else 12)]

    with tempfile.TemporaryDirectory() as cache_dir:
        cold_engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
        start = time.perf_counter()
        cold = run_staged_flows(designs, point.pdk, flow=FlowSpec(),
                                engine=cold_engine)
        cold_s = time.perf_counter() - start
        cold_stages = _stage_rows(cold_engine)

        warm_engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
        start = time.perf_counter()
        warm = run_staged_flows(designs, point.pdk, flow=FlowSpec(),
                                engine=warm_engine)
        warm_s = time.perf_counter() - start
        warm_stages = _stage_rows(warm_engine)

        # Floorplan-knob sweep over the warm cache: synthesis stays warm,
        # everything downstream of the floorplan re-runs per ratio.
        incr_engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
        start = time.perf_counter()
        for ratio in ratios:
            run_staged_flows(designs, point.pdk,
                             flow=FlowSpec(aspect_ratio=ratio),
                             engine=incr_engine)
        incr_s = time.perf_counter() - start
        incr_stages = _stage_rows(incr_engine)

    # Uncached arm: the same knob sweep with every stage re-evaluated.
    flat_engine = EvaluationEngine(jobs=1, use_cache=False)
    start = time.perf_counter()
    for ratio in ratios:
        run_staged_flows(designs, point.pdk,
                         flow=FlowSpec(aspect_ratio=ratio),
                         engine=flat_engine)
    flat_s = time.perf_counter() - start
    flat_stages = _stage_rows(flat_engine)

    incr_evaluated = sum(row["evaluated"] for row in incr_stages.values())
    flat_evaluated = sum(row["evaluated"] for row in flat_stages.values())
    return {
        "benchmark": "staged physical flow: per-stage content-addressed "
                     "caching on the 2D/M3D case-study pair",
        "quick": quick,
        "designs": [design.name for design in designs],
        "knob_sweep_points": len(ratios),
        "cold": {"wall_s": round(cold_s, 4), "stages": cold_stages},
        "warm": {
            "wall_s": round(warm_s, 4),
            "stages": warm_stages,
            "evaluated": sum(r["evaluated"] for r in warm_stages.values()),
            "outcomes_identical": cold == warm,
            "speedup_vs_cold": round(cold_s / warm_s, 2) if warm_s else None,
        },
        "floorplan_knob_sweep": {
            "knob": "flow.aspect_ratio",
            "incremental_wall_s": round(incr_s, 4),
            "uncached_wall_s": round(flat_s, 4),
            "wall_speedup": round(flat_s / incr_s, 2) if incr_s else None,
            "evaluated_stage_calls": incr_evaluated,
            "uncached_stage_calls": flat_evaluated,
            "stage_calls_saved": flat_evaluated - incr_evaluated,
            "synthesize_reevaluated":
                incr_stages["flow.synthesize"]["evaluated"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small knob sweep for CI smoke runs")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help=f"result JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a caching invariant fails")
    args = parser.parse_args(argv)

    result = measure(quick=args.quick)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.check:
        return 0
    failures = []
    if result["warm"]["evaluated"] != 0:
        failures.append("warm re-run evaluated a stage")
    if not result["warm"]["outcomes_identical"]:
        failures.append("warm outcomes diverged from cold outcomes")
    sweep = result["floorplan_knob_sweep"]
    if sweep["synthesize_reevaluated"] != 0:
        failures.append("floorplan knob sweep re-ran flow.synthesize")
    if sweep["evaluated_stage_calls"] >= sweep["uncached_stage_calls"]:
        failures.append("incremental sweep saved no stage evaluations")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
