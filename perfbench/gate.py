"""Correctness gate: the benchmark's outputs against independent paths.

Every check returns ``{"name", "ok", "detail"}``; a failed check counts
as a failed operation.  The checks are:

* pinned — fixed specs evaluated through scalar ``evaluate_spec`` equal
  the values stored in ``reference.json``;
* sweep-batched — replay frontier == cold frontier;
* sweep-pruned — the pruned frontier equals the exhaustive frontier of
  the unpruned grid;
* both sweeps — every repetition found the same frontier, and batched
  results (frontier points plus a seeded grid sample) equal scalar
  ``evaluate_spec`` within :data:`TOLERANCE`;
* serve-mix — a seeded sample of responses equals library
  ``evaluate_spec``;
* flow-physical — the infeasible count matches the per-point verdicts,
  and a seeded sample of verdicts equals direct
  ``evaluate_specs(physical=True)``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable

import workloads

#: Relative tolerance between code paths (batch vs scalar, wire vs lib).
TOLERANCE = 1e-9

#: Fields compared on every evaluation record.
FIELDS = ("n_cs_2d", "n_cs_m3d", "footprint", "speedup", "energy_benefit",
          "edp_benefit")

REFERENCE = Path(__file__).with_name("reference.json")


def evaluation_record(evaluation) -> dict:
    """The fields the correctness gate compares, floats at full width."""
    record = {
        "spec": evaluation.spec.to_jsonable(),
        "n_cs_2d": evaluation.n_cs_2d, "n_cs_m3d": evaluation.n_cs_m3d,
        "footprint": evaluation.footprint, "speedup": evaluation.speedup,
        "energy_benefit": evaluation.energy_benefit,
        "edp_benefit": evaluation.edp_benefit,
    }
    if evaluation.physical is not None:
        record["verdict"] = evaluation.physical.verdict
        record["feasible"] = evaluation.physical.feasible
    return record


def close(a: float, b: float, tolerance: float = TOLERANCE) -> bool:
    return math.isclose(a, b, rel_tol=tolerance, abs_tol=0.0)


def mismatch(got: dict[str, Any], want: dict[str, Any],
             tolerance: float = TOLERANCE) -> str | None:
    """First field where two evaluation records disagree, or ``None``."""
    for field in FIELDS:
        if not close(float(got[field]), float(want[field]), tolerance):
            return f"{field}: {got[field]!r} != {want[field]!r}"
    for field in ("verdict", "feasible"):
        if field in want and got.get(field) != want[field]:
            return f"{field}: {got.get(field)!r} != {want[field]!r}"
    return None


def _result(name: str, failures: list[str], checked: int) -> dict[str, Any]:
    detail = f"{checked} compared" if not failures \
        else f"{len(failures)}/{checked} differ; first: {failures[0]}"
    return {"name": name, "ok": not failures and checked > 0,
            "detail": detail}


def compare_records(name: str, pairs: Iterable[tuple[dict, dict]]
                    ) -> dict[str, Any]:
    failures, checked = [], 0
    for got, want in pairs:
        checked += 1
        problem = mismatch(got, want)
        if problem is not None:
            failures.append(problem)
    return _result(name, failures, checked)


def scalar_record(spec_json: dict[str, Any], physical: bool = False
                  ) -> dict[str, Any]:
    """Library ``evaluate_spec`` on one spec, as a comparable record."""
    from repro.spec import DesignSpec
    from repro.spec.evaluate import evaluate_spec
    return evaluation_record(evaluate_spec(DesignSpec.from_jsonable(spec_json),
                                           physical=physical))


def check_pinned() -> dict[str, Any]:
    pinned = json.loads(REFERENCE.read_text())["evaluations"]
    return compare_records("pinned reference evaluations", (
        (scalar_record(entry["spec"], entry.get("physical", False)), entry)
        for entry in pinned))


def check_reps_agree(reps: list[dict[str, Any]]) -> dict[str, Any]:
    """Every repetition found the same frontier (same seed, same grid)."""
    first = reps[0]["frontier"]
    failures = [f"rep {index} frontier differs"
                for index, rep in enumerate(reps[1:], 1)
                if rep["frontier"] != first]
    return _result("frontier repeats across repetitions", failures,
                   len(reps))


def check_batched_sample(workload: str, seed: int) -> dict[str, Any]:
    from repro.batch.kernel import BatchKernel
    from repro.spec import SweepSpec
    sweep = SweepSpec.from_jsonable(workloads.sweep_grid(workload, seed))
    positions = set(workloads.sample_indices(seed, len(sweep), 48,
                                             f"{workload}-batch-check"))
    specs = [spec for index, spec in enumerate(sweep.iter_specs())
             if index in positions]
    batched = BatchKernel().evaluate_specs(specs)
    return compare_records("batched sample == scalar evaluate_spec", (
        (evaluation_record(got), scalar_record(spec.to_jsonable()))
        for got, spec in zip(batched, specs)))


def check_frontier_scalar(rep: dict[str, Any]) -> dict[str, Any]:
    return compare_records("frontier == scalar evaluate_spec", (
        (record, scalar_record(record["spec"])) for record in rep["frontier"]))


def check_sweep_batched(seed: int, reps: list[dict]) -> list[dict]:
    failures = [f"rep {index}: replay frontier differs"
                for index, rep in enumerate(reps)
                if rep["replay_frontier"] != rep["frontier"]]
    return [_result("replay frontier == cold frontier", failures, len(reps)),
            check_reps_agree(reps), check_frontier_scalar(reps[0]),
            check_batched_sample("sweep-batched", seed)]


def check_sweep_pruned(seed: int, reps: list[dict]) -> list[dict]:
    from repro.runtime.engine import EvaluationEngine
    from repro.spec import SweepSpec
    from repro.sweep import exhaustive_frontier, run_streaming_sweep

    sweep = SweepSpec.from_jsonable(workloads.sweep_grid("sweep-pruned",
                                                         seed))
    full = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                               chunk_size=workloads.SWEEP_CHUNK, batch=True)
    expected = list(dict.fromkeys(
        (x, y) for x, y, _ in exhaustive_frontier(
            (e.footprint, e.edp_benefit, e) for e in full.evaluations)))
    got = [(r["footprint"], r["edp_benefit"]) for r in reps[0]["frontier"]]
    failures = []
    if len(got) != len(expected):
        failures.append(f"{len(got)} frontier points, exhaustive has "
                        f"{len(expected)}")
    else:
        failures = [f"{g} != {w}" for g, w in zip(got, expected)
                    if not (close(g[0], w[0]) and close(g[1], w[1]))]
    return [_result("pruned frontier == exhaustive frontier", failures,
                    len(expected)),
            check_reps_agree(reps), check_frontier_scalar(reps[0]),
            check_batched_sample("sweep-pruned", seed)]


def check_serve(seed: int, reps: list[dict]) -> list[dict]:
    from repro.spec import DesignSpec

    requests = workloads.serve_requests(seed)
    failures, checked = [], 0
    for index, payload in sorted(reps[0]["kept"].items(),
                                 key=lambda item: int(item[0])):
        request = requests[int(index)]
        if request["path"] == "/v1/eval":
            records = [payload["result"]]
            asked = DesignSpec.from_jsonable(request["body"]).to_jsonable()
            if payload["result"]["spec"] != asked:
                failures.append(f"request {index}: served another spec")
        else:
            records = [e for e in payload if e["event"] == "evaluation"]
            end = [e for e in payload if e["event"] == "end"]
            if not end or end[0]["evaluated"] != len(records):
                failures.append(f"request {index}: stream incomplete")
            records = records[::8]
        for record in records:
            checked += 1
            problem = mismatch(record, scalar_record(record["spec"]))
            if problem is not None:
                failures.append(f"request {index}: {problem}")
    return [_result("served responses == library evaluate_spec", failures,
                    checked)]


def check_flow(seed: int, reps: list[dict]) -> list[dict]:
    from repro.runtime.engine import EvaluationEngine
    from repro.spec import DesignSpec
    from repro.spec.evaluate import evaluate_specs
    rep = reps[0]
    verdicts = rep["verdicts"]
    counted = sum(not record["feasible"] for record in verdicts)
    consistency = _result(
        "infeasible count == infeasible verdicts",
        [] if counted == rep["counts"]["infeasible"]
        else [f"{counted} != {rep['counts']['infeasible']}"], len(verdicts))
    positions = workloads.sample_indices(seed, len(verdicts), 6,
                                         "flow-check")
    sample = [verdicts[index] for index in positions]
    direct = evaluate_specs(
        [DesignSpec.from_jsonable(record["spec"]) for record in sample],
        engine=EvaluationEngine(jobs=1), physical=True)
    return [consistency, compare_records(
        "sweep verdicts == direct evaluate_specs(physical=True)",
        ((record, evaluation_record(evaluation))
         for record, evaluation in zip(sample, direct)))]


def run(workload: str, seed: int, reps: list[dict]) -> list[dict]:
    """Every check for one workload's repetitions."""
    checks = {
        "sweep-batched": check_sweep_batched,
        "sweep-pruned": check_sweep_pruned,
        "serve-mix": check_serve,
        "flow-physical": check_flow,
    }[workload](seed, reps)
    return [check_pinned()] + checks
