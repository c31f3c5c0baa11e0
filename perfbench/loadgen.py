"""Closed-loop HTTP load for ``serve-mix`` (stdlib only).

Each client owns one keep-alive connection and sends its next request
only after the previous reply has fully arrived (for ``/v1/sweep``, the
NDJSON ``end`` event), because design-space-exploration clients wait
for each answer.  The clients pull from one ordered queue, so every
request set is the same whatever the interleaving.

Each client also reports its own busy time (thread CPU time): when it
is small next to the wall time, the load generator is not what limits
the measured rate.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import threading
import time
from typing import Any, Iterable


#: Seconds a server gets to print its port and answer ``/v1/health``.
START_TIMEOUT = 60.0


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, command: list[str], cwd: str) -> None:
        self.command = command
        self.cwd = cwd
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        """Spawn, read the listening port, and wait for ``/v1/health``."""
        self.process = subprocess.Popen(
            self.command, cwd=self.cwd, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        deadline = time.monotonic() + START_TIMEOUT
        assert self.process.stdout is not None
        for line in self.process.stdout:
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1]
                                .split("/", 1)[0].split()[0]
                                .rsplit(":", 1)[1])
                break
            if time.monotonic() > deadline:
                break
        if not self.port:
            raise RuntimeError(f"server did not start: {self.command}")
        while self.get_json("/v1/health").get("status") != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def _get(self, path: str) -> bytes:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} -> {response.status}")
            return body
        finally:
            connection.close()

    def get_json(self, path: str) -> Any:
        return json.loads(self._get(path))

    def get_text(self, path: str) -> str:
        return self._get(path).decode("utf-8")

    def stop(self, timeout: float = 30.0) -> int | None:
        """SIGTERM (graceful drain), then wait; kill if it overstays."""
        process = self.process
        if process is None:
            return None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
        return process.returncode


def parse_prometheus(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


def _send(connection: http.client.HTTPConnection,
          request: dict[str, Any]) -> tuple[int, Any, int]:
    """One request; returns ``(status, payload, points delivered)``.

    A sweep's payload is its list of NDJSON events, read to ``end``.
    """
    body = json.dumps(request["body"]).encode("utf-8")
    connection.request("POST", request["path"], body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    if request["path"] != "/v1/sweep" or response.status != 200:
        payload = json.loads(response.read())
        points = 1 if response.status == 200 else 0
        return response.status, payload, points
    events = []
    points = 0
    for line in response:
        event = json.loads(line)
        events.append(event)
        if event["event"] == "evaluation":
            points += 1
        elif event["event"] == "error":
            response.read()
            return 500, events, points
        elif event["event"] == "end":
            response.read()
            break
    return 200, events, points


def closed_loop(port: int, requests: list[dict[str, Any]], clients: int = 2,
                keep: Iterable[int] = ()) -> dict[str, Any]:
    """Drive ``requests`` through ``clients`` closed-loop connections.

    Returns per-request records ``[index, kind, status, latency_ms]``,
    the payloads of the ``keep`` indices, the points delivered, the
    wall seconds, and each client's busy (CPU) seconds.
    """
    keep = set(keep)
    lock = threading.Lock()
    cursor = [0]
    records: list[list] = [None] * len(requests)        # type: ignore
    kept: dict[int, Any] = {}
    busy = [0.0] * clients
    points = [0] * clients
    errors: list[str] = []

    def client(slot: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
        cpu0 = time.thread_time()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                request = requests[index]
                start = time.perf_counter()
                try:
                    status, payload, delivered = _send(connection, request)
                except (OSError, http.client.HTTPException,
                        ValueError) as error:
                    errors.append(f"{index}: {type(error).__name__}: "
                                  f"{error}")
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60)
                    status, payload, delivered = 0, None, 0
                latency = (time.perf_counter() - start) * 1e3
                records[index] = [index, request["kind"], status, latency]
                points[slot] += delivered
                if index in keep:
                    kept[index] = payload
        finally:
            busy[slot] = time.thread_time() - cpu0
            connection.close()

    threads = [threading.Thread(target=client, args=(slot,), daemon=True)
               for slot in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    return {"records": records, "kept": {str(k): v for k, v in kept.items()},
            "points": sum(points), "seconds": seconds,
            "client_busy_s": busy, "errors": errors}
