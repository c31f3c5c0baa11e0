"""One measured repetition (or the correctness gate) in a fresh process.

``run.py`` starts this script once per repetition, so the package's
process-global memo tables (resolve memo, fingerprint cache, batch delta
tables) start empty every time.  The argument is one JSON object::

    {"mode": "rep" | "check", "workload": ..., "seed": ..., "trace": bool,
     "spawned": <time.time() just before the spawn>, "scratch": <dir>,
     "trace_file": <path or null>, "reps": <path of rep results, check>}

The last line of standard output is the JSON result.  ``setup_s`` runs
from the spawn to the point where inputs are built and the package is
imported (numpy and the default PDK included); for ``serve-mix`` it
ends when the server answers ``/v1/health``.  Times are raw; the result
carries the repetition's ``host_factor`` (see ``calibrate.py``), timed
right before and right after the measured phase.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from gate import evaluation_record  # noqa: E402


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file())


def engine_counts(engine) -> dict[str, int]:
    """Exact counters of one engine drive (stage tallies + batch group)."""
    report = engine.report()
    counts = {"cache_hits": 0, "cache_misses": 0, "dedup_hits": 0}
    for stage in report.stages:
        counts["cache_hits"] += stage.cache_hits
        counts["cache_misses"] += stage.cache_misses
        counts["dedup_hits"] += stage.dedup_hits
        if stage.name == "sweep.bounds":
            counts["bounds_calls"] = stage.calls
    for group in report.counters:
        if group.name == "batch":
            for key, value in group.values:
                counts[f"batch_{key}"] = value
    return counts


# --- traced run helpers ------------------------------------------------------

def traced_summary(roots, wall: float) -> dict:
    """Layer self times and per-op stats of one traced drive."""
    import layers

    table = layers.layer_table(roots)
    return {"wall_s": wall, "layers": table, "ops": layers.op_stats(roots)}


def write_trace(roots, path: str | None) -> None:
    if path:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, roots)


# --- sweep workloads ---------------------------------------------------------

def sweep_rep(config: dict) -> dict:
    from repro.batch.backend import active_numpy
    from repro.obs.trace import span, trace
    from repro.runtime.engine import EvaluationEngine
    from repro.spec import SweepSpec
    from repro.sweep import ParetoFrontier, stream_sweep
    from repro.tech.pdk import foundry_m3d_pdk

    workload, seed = config["workload"], config["seed"]
    active_numpy()
    foundry_m3d_pdk()
    if config["trace"]:
        import layers

        layers.install()
    sweep = SweepSpec.from_jsonable(workloads.sweep_grid(workload, seed))
    physical = workload == "flow-physical"
    options = {
        "sweep-batched": {"batch": True, "prune": False},
        "sweep-pruned": {"batch": True, "prune": True},
        "flow-physical": {"physical": True},
    }[workload]
    chunk_size = workloads.FLOW_CHUNK if physical else workloads.SWEEP_CHUNK
    checkpoint = Path(config["scratch"]) / "checkpoint"
    use_checkpoint = workload == "sweep-batched"
    setup_s = time.time() - config["spawned"]

    def drive(engine, name):
        """One streaming drive; returns (seconds, chunk latencies, agg)."""
        frontier = ParetoFrontier()
        agg = {"points": 0, "pruned": 0, "infeasible": 0, "resumed": 0}
        latencies, verdicts = [], []
        start = time.perf_counter()
        with span(f"bench.{name}"):
            for chunk in stream_sweep(
                    sweep, engine=engine, chunk_size=chunk_size,
                    checkpoint=checkpoint if use_checkpoint else None,
                    frontier=frontier, **options):
                latencies.append(chunk.seconds * 1e3)
                agg["points"] += chunk.size
                agg["pruned"] += chunk.pruned
                agg["infeasible"] += chunk.infeasible
                agg["resumed"] += chunk.resumed
                if physical:
                    verdicts.extend(evaluation_record(e)
                                    for e in chunk.evaluations)
        seconds = time.perf_counter() - start
        agg["frontier"] = [evaluation_record(e) for e in frontier.items()]
        agg["verdicts"] = verdicts
        return seconds, latencies, agg

    result: dict = {"setup_s": setup_s}
    reference = calibrate.samples()
    with trace() if config["trace"] else nullcontext() as tracer:
        engine = EvaluationEngine(jobs=1)
        seconds, latencies, agg = drive(engine, "cold")
        counts = engine_counts(engine)
        counts.update(points=agg["points"], pruned=agg["pruned"],
                      infeasible=agg["infeasible"])
        if use_checkpoint:
            counts["checkpoint_bytes"] = dir_bytes(checkpoint)
            resume_s, _, replay = drive(EvaluationEngine(jobs=1), "replay")
            counts["resumed_chunks"] = replay["resumed"]
            result["resume_s"] = resume_s
            result["replay_frontier"] = replay["frontier"]
    roots = tracer.roots if tracer is not None else []
    reference += calibrate.samples()
    result["host_factor"] = calibrate.host_factor(reference)
    result.update(seconds=seconds, points=agg["points"],
                  latencies_ms=latencies, counts=counts,
                  frontier=agg["frontier"], verdicts=agg["verdicts"],
                  peak_rss_mb=peak_rss_mb())
    if roots:
        wall = sum(root.duration for root in roots)
        result["traced"] = traced_summary(roots, wall)
        write_trace(roots, config.get("trace_file"))
    shutil.rmtree(checkpoint, ignore_errors=True)
    return result


# --- serve-mix ---------------------------------------------------------------

def serve_rep(config: dict) -> dict:
    import loadgen

    seed = config["seed"]
    requests = workloads.serve_requests(seed)
    summary_file = Path(config["scratch"]) / "server-trace.json"
    if config["trace"]:
        command = [sys.executable, str(HERE / "serve_traced.py"),
                   str(summary_file), config.get("trace_file") or ""]
    else:
        command = [sys.executable, "-m", "repro"]
    command += ["serve", "--host", "127.0.0.1", "--port", "0",
                "--jobs", "1"]
    server = loadgen.Server(command, cwd=config["root"])
    try:
        server.start()
        setup_s = time.time() - config["spawned"]
        sample = set(workloads.sample_indices(
            seed, len(requests), 48, "serve-check"))
        reference = calibrate.samples()
        load = loadgen.closed_loop(server.port, requests, clients=2,
                                   keep=sample)
        reference += calibrate.samples()
        cache = server.get_json("/v1/cache")
        metrics = loadgen.parse_prometheus(server.get_text("/metrics"))
        rss = peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    stages = cache["stages"]
    hits = sum(s["cache_hits"] for s in stages.values())
    # Whether a repeated spec is a cache read or joins the identical
    # request still in flight on the other connection depends on timing,
    # so only their sum ("served without evaluating") repeats exactly.
    counts = {
        "cache_misses": sum(s["cache_misses"] for s in stages.values()),
        "served_without_evaluating": hits + cache["serve"]["coalesced"],
        "dedup_hits": sum(s["dedup_hits"] for s in stages.values()),
        "rejected": sum(value for key, value in cache["serve"].items()
                        if key.startswith("rejected_")),
        "requests": len(requests),
        "points": load["points"],
    }
    observed = {"cache_hits": hits, "coalesced": cache["serve"]["coalesced"]}
    result = {
        "setup_s": setup_s, "seconds": load["seconds"],
        "host_factor": calibrate.host_factor(reference),
        "points": load["points"], "requests": len(requests),
        "records": load["records"], "kept": load["kept"],
        "client_busy_s": load["client_busy_s"], "counts": counts,
        "observed": observed,
        "errors": load["errors"], "peak_rss_mb": rss,
        "server_eval_s": metrics.get(
            'repro_serve_request_seconds_sum{path="/v1/eval"}', 0.0),
        "server_request_s": sum(
            metrics.get(f'repro_serve_request_seconds_sum{{path="{path}"}}',
                        0.0) for path in ("/v1/eval", "/v1/sweep")),
        "server_engine_s": metrics.get(
            'repro_engine_stage_seconds_sum{stage="serve.eval"}', 0.0),
    }
    if config["trace"]:
        result["traced"] = json.loads(summary_file.read_text())
    return result


# --- correctness gate --------------------------------------------------------

def check(config: dict) -> dict:
    import gate

    reps = json.loads(Path(config["reps"]).read_text())
    return {"checks": gate.run(config["workload"], config["seed"], reps)}


def main() -> int:
    config = json.loads(sys.argv[1])
    if config["mode"] == "check":
        result = check(config)
    elif config["workload"] == "serve-mix":
        result = serve_rep(config)
    else:
        result = sweep_rep(config)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
