"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import http.server
import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# --- percentile helper -------------------------------------------------------

def test_summary_reports_count_and_well_supported_tail():
    values = [float(i) for i in range(1000)]
    summary = stats.summarize(values)
    assert summary.count == 1000
    assert summary.p50 == pytest.approx(499.5)
    assert summary.tail_pct == 99.0
    beyond = sum(value > summary.tail for value in values)
    assert beyond >= stats.MIN_BEYOND


@pytest.mark.parametrize("count, expected", [
    (1000, 99.0), (999, 99.0), (900, 95.0), (200, 95.0), (100, 90.0),
    (40, 75.0), (20, 50.0), (19, None), (1, None)])
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    values = [float(i) for i in range(count)]
    summary = stats.summarize(values)
    assert summary.count == count
    assert summary.tail_pct == expected
    if expected is not None:
        assert sum(value > summary.tail for value in values) \
            >= stats.MIN_BEYOND
        higher = [pct for pct in stats.TAIL_CANDIDATES if pct > expected]
        for pct in higher:
            assert sum(value > stats.percentile(values, pct)
                       for value in values) < stats.MIN_BEYOND


# --- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", ["sweep-batched", "sweep-pruned",
                                      "flow-physical"])
def test_sweep_inputs_are_a_function_of_the_seed(workload):
    assert workloads.sweep_grid(workload, 7) == workloads.sweep_grid(
        workload, 7)
    assert workloads.sweep_grid(workload, 7) != workloads.sweep_grid(
        workload, 8)
    sizes = {workloads.grid_points(workloads.sweep_grid(workload, seed))
             for seed in range(20)}
    assert sizes == {{"sweep-batched": 8000, "sweep-pruned": 1008,
                      "flow-physical": 36}[workload]}


def test_serve_sequence_is_a_function_of_the_seed():
    first = workloads.serve_requests(3)
    assert json.dumps(first) == json.dumps(workloads.serve_requests(3))
    assert json.dumps(first) != json.dumps(workloads.serve_requests(4))
    kinds = [request["kind"] for request in first]
    assert len(first) == workloads.SERVE_REQUESTS
    assert kinds.count("sweep") == 60
    assert abs(kinds.count("hit") - 240) <= 5


def test_hits_repeat_completed_requests_only():
    """A hit repeats a spec first served >= 2 requests earlier and never
    the previous request, so it reads the cache and never coalesces."""
    for seed in range(5):
        requests = workloads.serve_requests(seed)
        first_seen: dict[str, int] = {}
        for index, request in enumerate(requests):
            key = json.dumps(request["body"], sort_keys=True)
            if request["kind"] == "miss":
                assert key not in first_seen
                first_seen[key] = index
            elif request["kind"] == "hit":
                assert index - first_seen[key] >= workloads.HIT_MIN_AGE
                assert request["body"] != requests[index - 1]["body"]


# --- correctness gate --------------------------------------------------------

def _record(**changes):
    record = {"spec": {}, "n_cs_2d": 1, "n_cs_m3d": 8, "footprint": 2.5,
              "speedup": 3.25, "energy_benefit": 1.75, "edp_benefit": 5.6875}
    record.update(changes)
    return record


def test_gate_rejects_a_perturbed_value():
    assert gate.mismatch(_record(), _record()) is None
    assert gate.mismatch(_record(edp_benefit=5.6875 * (1 + 1e-12)),
                         _record()) is None
    assert gate.mismatch(_record(edp_benefit=5.6875 * (1 + 1e-7)),
                         _record()) is not None
    assert gate.mismatch(_record(n_cs_m3d=9), _record()) is not None
    assert gate.mismatch(_record(verdict="timing"),
                         _record(verdict="ok")) is not None
    result = gate.compare_records("perturbed", [
        (_record(), _record()), (_record(speedup=3.5), _record())])
    assert result["ok"] is False
    assert "1/2 differ" in result["detail"]


def test_gate_rejects_a_differing_repetition_and_an_empty_check():
    rep = {"frontier": [_record()]}
    assert gate.check_reps_agree([rep, rep])["ok"]
    assert not gate.check_reps_agree(
        [rep, {"frontier": [_record(footprint=2.6)]}])["ok"]
    assert not gate.compare_records("nothing compared", [])["ok"]


def test_gate_rejects_a_perturbed_served_response():
    pytest.importorskip("repro")
    from repro.spec import DesignSpec
    from repro.spec.evaluate import evaluate_spec

    requests = workloads.serve_requests(0)
    index = next(i for i, r in enumerate(requests) if r["kind"] == "miss")
    body = requests[index]["body"]
    good = gate.evaluation_record(
        evaluate_spec(DesignSpec.from_jsonable(body)))
    rep = {"kept": {str(index): {"result": good}}}
    assert gate.check_serve(0, [rep])[0]["ok"]
    perturbed = dict(good, edp_benefit=good["edp_benefit"] * 1.001)
    rep = {"kept": {str(index): {"result": perturbed}}}
    assert not gate.check_serve(0, [rep])[0]["ok"]


def test_repeated_counters_must_match_exactly():
    same = {"counts": {"cache_hits": 3, "pruned": 5}}
    other = {"counts": {"cache_hits": 3, "pruned": 6}}
    assert run.counts_failures([same, same]) == []
    problems = run.counts_failures([same, other])
    assert len(problems) == 1 and "pruned 5 != 6" in problems[0]


# --- closed-loop load generator ----------------------------------------------

class _SlowHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay = 0.02

    def do_POST(self):                                  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay)
        body = json.dumps({"result": {}}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_closed_loop_reports_its_own_busy_time():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        requests = [{"kind": "miss", "path": "/v1/eval", "body": {}}] * 20
        load = loadgen.closed_loop(server.server_address[1], requests,
                                   clients=2, keep=[0])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert load["errors"] == []
    assert all(record[2] == 200 for record in load["records"])
    assert load["points"] == 20
    # Closed loop: two clients, each waiting 20 ms per request.
    assert load["seconds"] >= 10 * _SlowHandler.delay
    assert len(load["client_busy_s"]) == 2
    # The clients sleep on the socket, so their CPU time is a small share
    # of the wall time: the generator is not the bottleneck.
    assert 0 < sum(load["client_busy_s"]) < 0.5 * 2 * load["seconds"]


# --- the contract ------------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert set(workloads.RATIONALE) == set(workloads.WORKLOADS)
