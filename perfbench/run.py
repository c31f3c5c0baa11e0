"""Seeded end-to-end benchmark of the sweep, serve and physical-flow stack.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-batched --seed 1 \\
        --seconds 30 --trace 0

``--workload all`` runs the four workloads one after another and ends
with one JSON object whose metrics are keyed ``<workload>/<metric>``.

Each repetition runs in a fresh process (``worker.py``), so process-wide
memo tables start empty and imports, numpy, PDK construction and server
start are paid inside ``setup_s``.  Repetitions repeat until ``--seconds``
is used up; then a separate process runs the correctness gate
(``gate.py``) on their outputs.  The report lists every metric with its
unit and sample count, and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every time is reported at a reference host speed: each repetition also
times a fixed piece of reference work before and after its measured
phase, and its times are scaled by how fast that ran (``calibrate.py``
explains why).  The raw figures and the host factor are printed too.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: self time per layer (summing to the traced wall time
with the remainder shown as ``unattributed_s``), per-operation times and
calls, exact counters, and the tracing overhead (traced minus untraced
wall).  A Chrome trace of the first traced repetition is written under
``.perfbench_run/traces/``.

Exact counters (cache hits/misses, bounds calls, points pruned, batch
delta hits and scalar fallbacks, infeasible points, checkpoint bytes)
must repeat exactly across the repetitions of one seed; a mismatch, a
failed request or a failed gate check counts as a failure, and the run
then exits 1.  With no ``src/`` beside the benchmark it exits 2.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics (tracing off), reported on every workload.
END_TO_END = (("setup_s", "s"), ("pts_per_s", "1/s"), ("p50_ms", "ms"),
              ("peak_rss_mb", "MB"))

_STAGE_METRICS = tuple((f"physical.{stage}_s", "s") for stage in (
    "synthesize", "floorplan", "legalize", "route", "clock", "congestion",
    "timing", "power", "thermal", "quality"))

#: Per-layer metrics (``--trace 1``), reported on every workload; a
#: layer a workload bypasses reads 0.
PER_LAYER = (
    ("spec.self_s", "s"), ("spec.expand_s", "s"),
    ("spec.resolve_calls", "count"), ("spec.resolve_s", "s"),
    ("spec.fingerprint_s", "s"),
    ("runtime.self_s", "s"), ("runtime.keys_calls", "count"),
    ("runtime.keys_s", "s"), ("runtime.cache_hits", "count"),
    ("runtime.cache_misses", "count"), ("runtime.dedup_hits", "count"),
    ("runtime.engine_map_s", "s"),
    ("sweep.self_s", "s"), ("sweep.bounds_calls", "count"),
    ("sweep.bounds_s", "s"), ("sweep.pruned", "count"),
    ("sweep.prune_ratio", "ratio"), ("sweep.pareto_s", "s"),
    ("sweep.checkpoint_write_s", "s"), ("sweep.checkpoint_bytes", "bytes"),
    ("sweep.checkpoint_read_s", "s"),
    ("batch.self_s", "s"), ("batch.pack_s", "s"), ("batch.kernel_s", "s"),
    ("batch.points", "count"), ("batch.delta_hits", "count"),
    ("batch.fallback_scalar", "count"),
    ("perf.self_s", "s"), ("perf.simulate_calls", "count"),
    ("perf.simulate_s", "s"),
    ("mapper.self_s", "s"),
    ("physical.self_s", "s"), *_STAGE_METRICS,
    ("physical.flow_calls", "count"), ("physical.infeasible", "count"),
    ("serve.self_s", "s"), ("serve.request_s", "s"), ("serve.engine_s", "s"),
    ("serve.wire_s", "s"), ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("unattributed_s", "s"), ("traced_wall_s", "s"),
    ("untraced_wall_s", "s"), ("trace_overhead_s", "s"),
)

#: Repetitions a run makes at least, whatever ``--seconds`` says.
MIN_REPS = 2
#: A repetition process that runs longer than this is a failure (kept
#: short enough that a run still ends within three minutes).
REP_TIMEOUT = 100.0
#: Where runs keep scratch files and traces, inside the checkout.
RUN_DIR = ROOT / ".perfbench_run"


class RepFailed(RuntimeError):
    """A worker process exited non-zero, timed out or printed no result."""


def spawn(config: dict[str, Any]) -> dict[str, Any]:
    """Run ``worker.py`` with ``config``; return its JSON result.

    The worker leads its own process group, so a timeout kills it and
    anything it started (the ``serve-mix`` server) together.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    config = {**config, "root": str(ROOT), "spawned": time.time()}
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed(f"timed out after {REP_TIMEOUT:g} s") from error
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        raise RepFailed(f"exit {process.returncode}: {tail}")
    return json.loads(lines[-1])


def planned_operations(workload: str, seed: int) -> int:
    if workload == "serve-mix":
        return len(workloads.serve_requests(seed))
    return workloads.grid_points(workloads.sweep_grid(workload, seed))


# --- aggregation -------------------------------------------------------------

def eval_latencies(rep: dict[str, Any], kind: str | None = None
                   ) -> list[float]:
    """Raw latencies of a ``serve-mix`` repetition's answered evals."""
    return [latency for _, k, status, latency in rep["records"]
            if status == 200 and k != "sweep" and kind in (None, k)]


def latencies_ms(workload: str, rep: dict[str, Any], scale: float = 1.0,
                 kind: str | None = None) -> list[float]:
    """A repetition's latency samples: eval requests for ``serve-mix``,
    streamed chunks for the sweeps."""
    raw = eval_latencies(rep, kind) if workload == "serve-mix" \
        else rep["latencies_ms"]
    return [latency * scale for latency in raw]


def end_to_end(workload: str, reps: list[dict], normalize: bool = True
               ) -> dict[str, tuple]:
    """``{name: (value, unit, samples)}`` for :data:`END_TO_END`.

    Times are multiplied by each repetition's host factor (host seconds
    at the reference speed, see ``calibrate.py``) unless ``normalize``
    is false.
    """
    def factor(rep: dict) -> float:
        return rep["host_factor"] if normalize else 1.0

    latencies = [x for rep in reps
                 for x in latencies_ms(workload, rep, factor(rep))]
    return {
        "setup_s": (statistics.median(r["setup_s"] * factor(r)
                                      for r in reps), "s", len(reps)),
        "pts_per_s": (statistics.median(r["points"]
                                        / (r["seconds"] * factor(r))
                                        for r in reps), "1/s", len(reps)),
        "p50_ms": (stats.percentile(latencies, 50.0), "ms", len(latencies)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB", len(reps)),
    }


def report_lines(workload: str, reps: list[dict]) -> list[str]:
    """The other end-to-end figures, with units and sample counts
    (times at the reference host speed), then the raw figures."""
    lines = []
    if workload == "serve-mix":
        rates = [r["requests"] / (r["seconds"] * r["host_factor"])
                 for r in reps]
        lines.append(f"req_per_s        {statistics.median(rates):10.1f} 1/s"
                     f"  (median of {len(rates)} runs)")
        for label, kind in (("eval", None), ("eval hit", "hit"),
                            ("eval miss", "miss")):
            values = [x for rep in reps for x in latencies_ms(
                workload, rep, rep["host_factor"], kind)]
            lines.append(f"{label + ' latency':16s} "
                         f"{stats.summarize(values).describe('ms')}")
        sweeps = [latency * rep["host_factor"] for rep in reps
                  for _, kind, status, latency in rep["records"]
                  if kind == "sweep" and status == 200]
        lines.append("sweep_p50_ms     "
                     f"{stats.summarize(sweeps).describe('ms')}"
                     "  (send to NDJSON end event)")
        busy = sum(sum(r["client_busy_s"]) for r in reps)
        wall = sum(r["seconds"] * len(r["client_busy_s"]) for r in reps)
        lines.append(f"client busy      {busy / wall:10.1%} of client wall "
                     f"({len(reps[0]['client_busy_s'])} closed-loop clients)")
    else:
        chunks = [x for rep in reps
                  for x in latencies_ms(workload, rep, rep["host_factor"])]
        lines.append("chunk latency    "
                     f"{stats.summarize(chunks).describe('ms')}")
        if workload == "sweep-batched":
            rates = [r["points"] / (r["resume_s"] * r["host_factor"])
                     for r in reps]
            lines.append(f"resume_pts_per_s {statistics.median(rates):10.1f} "
                         f"1/s  (median of {len(rates)} runs)")
    factors = [r["host_factor"] for r in reps]
    raw = end_to_end(workload, reps, normalize=False)
    lines.append(f"host factor      {statistics.median(factors):10.3f}  "
                 f"(range {min(factors):.3f}-{max(factors):.3f}); raw: "
                 + ", ".join(f"{name} {value:.4f} {unit}"
                             for name, (value, unit, _) in raw.items()
                             if name != "peak_rss_mb"))
    return lines


def _op(summary: dict, name: str, column: int) -> float:
    return summary["ops"].get(name, (0, 0.0, 0.0))[column]


def per_layer(workload: str, traced: list[dict], untraced: list[dict]
              ) -> dict[str, float]:
    """``{name: value}`` for :data:`PER_LAYER`.

    All values come from one traced repetition, the one with the median
    traced wall time, so the layer rows still sum to its wall time.
    """
    def traced_wall(rep: dict) -> float:
        return rep["seconds"] if workload == "serve-mix" \
            else rep["traced"]["wall_s"]

    rep = sorted(traced, key=traced_wall)[(len(traced) - 1) // 2]
    summary = rep["traced"]
    counts = rep["counts"]
    out: dict[str, float] = dict.fromkeys(
        (name for name, _ in PER_LAYER), 0.0)
    layers = dict(summary["layers"])
    if workload == "serve-mix":
        # The table covers client request time (summed over requests).
        # Engine layers come from the server's thread spans; serve owns
        # the threads' waits (engine lock, stream backpressure) and the
        # event-loop time outside them; time outside the server process
        # (sockets, client) is the unattributed remainder.
        client_s = sum(latency for *_, latency in rep["records"]) / 1e3
        layers["serve"] += max(
            0.0, rep["server_request_s"] - summary["thread_s"])
        layers["unattributed"] = client_s - rep["server_request_s"]
        wall = rep["seconds"]
        eval_client = sum(eval_latencies(rep)) / 1e3
        counts = {**counts, **rep["observed"], **summary["counts"]}
        out.update({
            "serve.request_s": rep["server_eval_s"],
            "serve.engine_s": rep["server_engine_s"],
            "serve.wire_s": eval_client - rep["server_eval_s"],
            "serve.coalesced": counts["coalesced"],
            "serve.rejected": counts["rejected"],
        })
        untraced_walls = [r["seconds"] * r["host_factor"] for r in untraced]
    else:
        wall = summary["wall_s"]
        untraced_walls = [(r["seconds"] + r.get("resume_s", 0.0))
                          * r["host_factor"] for r in untraced]
    for layer, seconds in layers.items():
        key = "unattributed_s" if layer == "unattributed" \
            else f"{layer}.self_s"
        out[key] = seconds
    out.update({
        "spec.expand_s": _op(summary, "spec.expand", 1),
        "spec.resolve_calls": _op(summary, "spec.resolve", 0),
        "spec.resolve_s": _op(summary, "spec.resolve", 1),
        "spec.fingerprint_s": _op(summary, "spec.fingerprint", 1),
        "runtime.keys_calls": _op(summary, "runtime.keys", 0),
        "runtime.keys_s": _op(summary, "runtime.keys", 1),
        "runtime.cache_hits": counts["cache_hits"],
        "runtime.cache_misses": counts["cache_misses"],
        "runtime.dedup_hits": counts["dedup_hits"],
        "runtime.engine_map_s": _op(summary, "engine.map", 2),
        "sweep.bounds_calls": counts.get("bounds_calls", 0),
        "sweep.bounds_s": _op(summary, "sweep.bounds", 1),
        "sweep.pruned": counts.get("pruned", 0),
        "sweep.prune_ratio": (counts.get("pruned", 0)
                              / counts["bounds_calls"]
                              if counts.get("bounds_calls") else 0.0),
        "sweep.pareto_s": _op(summary, "sweep.pareto", 1),
        "sweep.checkpoint_write_s": _op(summary,
                                        "sweep.checkpoint_write", 1),
        "sweep.checkpoint_bytes": counts.get("checkpoint_bytes", 0),
        "sweep.checkpoint_read_s": _op(summary,
                                       "sweep.checkpoint_read", 1),
        "batch.pack_s": _op(summary, "batch.pack", 1),
        "batch.kernel_s": _op(summary, "batch.kernel", 2),
        "batch.points": counts.get("batch_points", 0),
        "batch.delta_hits": counts.get("batch_delta_hits", 0),
        "batch.fallback_scalar": counts.get("batch_fallback_scalar", 0),
        "perf.simulate_calls": _op(summary, "perf.simulate", 0),
        "perf.simulate_s": _op(summary, "perf.simulate", 1),
        "physical.flow_calls": _op(summary, "physical.flow", 0),
        "physical.infeasible": counts.get("infeasible", 0),
        "traced_wall_s": wall,
    })
    for name, _ in _STAGE_METRICS:
        stage = name[len("physical."):-len("_s")]
        out[name] = _op(summary, f"flow.{stage}", 1)
    # Seconds at the reference host speed, like the end-to-end times.
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] *= rep["host_factor"]
    out["untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace_overhead_s"] = out["traced_wall_s"] - out["untraced_wall_s"]
    return out


def layer_table_lines(metrics: dict[str, float], workload: str) -> list[str]:
    rows = [(name[:-len(".self_s")], metrics[name])
            for name, _ in PER_LAYER if name.endswith(".self_s")]
    rows.append(("unattributed", metrics["unattributed_s"]))
    wall = sum(seconds for _, seconds in rows)
    if workload == "serve-mix":
        basis = ("client request time (summed over requests; unattributed "
                 f"is time outside the server) {wall:.4f} s")
    else:
        basis = f"traced wall time {metrics['traced_wall_s']:.4f} s"
    lines = [f"per-layer self time of the median traced repetition, sums "
             f"to {basis}:"]
    for layer, seconds in rows:
        share = seconds / wall if wall else 0.0
        lines.append(f"  {layer:13s} {seconds:10.4f} s {share:7.1%}")
    lines.append(f"  {'total':13s} {sum(s for _, s in rows):10.4f} s")
    lines.append(f"tracing overhead {metrics['trace_overhead_s']:.4f} s "
                 f"(traced {metrics['traced_wall_s']:.4f} s vs untraced "
                 f"{metrics['untraced_wall_s']:.4f} s)")
    return lines


# --- the run -----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[list[dict], list[dict], list[str]]:
    """Repetitions until ``seconds`` is used; returns (untraced, traced,
    failure messages)."""
    untraced: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    trace_dir = RUN_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    durations: list[float] = []
    index = 0
    while True:
        enough = len(untraced) >= MIN_REPS and (not trace or traced)
        elapsed = time.monotonic() - start
        # Start another repetition only if a typical one still fits.
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if len(failures) > 2 or (index >= 2 * MIN_REPS + 2 and not enough):
            break
        is_traced = trace and index % 2 == 1
        scratch = workdir / f"rep{index}"
        scratch.mkdir(parents=True)
        trace_file = None
        if is_traced and not traced:
            trace_file = str(trace_dir / f"{workload}-seed{seed}.trace.json")
        began = time.monotonic()
        try:
            rep = spawn({"mode": "rep", "workload": workload, "seed": seed,
                         "trace": is_traced, "scratch": str(scratch),
                         "trace_file": trace_file})
        except RepFailed as error:
            failures.append(f"repetition {index}: {error}")
        else:
            (traced if is_traced else untraced).append(rep)
        durations.append(time.monotonic() - began)
        shutil.rmtree(scratch, ignore_errors=True)
        index += 1
    return untraced, traced, failures


def counts_failures(reps: list[dict]) -> list[str]:
    """Exact counters must repeat across every repetition of one seed."""
    first = reps[0]["counts"]
    return [f"counters of repetition {index} differ: "
            + ", ".join(f"{key} {first.get(key)} != {rep['counts'].get(key)}"
                        for key in sorted(set(first) | set(rep["counts"]))
                        if first.get(key) != rep["counts"].get(key))
            for index, rep in enumerate(reps[1:], 1)
            if rep["counts"] != first]


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict[str, Any]:
    """Measure, check and report one workload; returns the result object."""
    workdir = RUN_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    checks: list[dict] = []
    # Byte-compile once up front, so a fresh checkout's first repetition
    # does not pay for it inside setup_s.
    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        untraced, traced, failures = measure(workload, seed, seconds, trace,
                                             workdir)
        reps = untraced + traced
        if reps:
            reps_file = workdir / "reps.json"
            reps_file.write_text(json.dumps(untraced or traced))
            try:
                checks = spawn({"mode": "check", "workload": workload,
                                "seed": seed,
                                "reps": str(reps_file)})["checks"]
            except RepFailed as error:
                failures.append(f"correctness gate: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    planned = planned_operations(workload, seed)
    # Operations: every planned point or request of every repetition, every
    # gate check, and every repetition's counters compared with the first.
    attempted = planned * (len(reps) + len(failures)) + len(checks) \
        + max(0, len(reps) - 1)
    failed = planned * len(failures)
    for rep in reps:
        if workload == "serve-mix":
            failed += sum(status != 200 for _, _, status, _ in rep["records"])
            failures.extend(rep["errors"][:3])
    count_problems = counts_failures(reps) if reps else []
    failed += len(count_problems) + sum(not c["ok"] for c in checks)
    failures.extend(count_problems)

    print(f"workload {workload}  seed {seed}  "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    print(f"why: {workloads.RATIONALE[workload]['why']}")
    metrics: dict[str, dict[str, Any]] = {}
    if untraced:
        for name, (value, unit, samples) in end_to_end(workload,
                                                       untraced).items():
            print(f"{name:16s} {value:12.4f} {unit:5s} (n={samples})")
            if not trace:
                metrics[name] = {"value": value, "unit": unit}
        for line in report_lines(workload, untraced):
            print(line)
    if trace and traced and untraced:
        layer_metrics = per_layer(workload, traced, untraced)
        for line in layer_table_lines(layer_metrics, workload):
            print(line)
        units = dict(PER_LAYER)
        for name, value in layer_metrics.items():
            print(f"  {name:28s} {value:14.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    print(f"counters: {json.dumps(reps[0]['counts']) if reps else '{}'}")
    for check in checks:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: "
              f"{check['detail']}")
    for failure in failures:
        print(f"failure: {failure}")
    print(f"error_rate       {failed / max(1, attempted):.6f} "
          f"({failed} failed of {attempted} attempted)")
    expected = dict(PER_LAYER) if trace else dict(END_TO_END)
    correct = (failed == 0 and not failures and bool(checks)
               and set(metrics) == set(expected))
    return {"correct": correct, "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    else:
        # Every workload in turn; metrics are keyed "<workload>/<metric>".
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for workload in workloads.WORKLOADS:
            one = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace))
            print()
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update(
                (f"{workload}/{name}", value)
                for name, value in one["metrics"].items())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
