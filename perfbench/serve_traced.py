"""Launch ``repro serve`` with the benchmark's layer spans installed.

Usage: ``serve_traced.py SUMMARY_JSON TRACE_JSON serve [repro flags...]``
(``TRACE_JSON`` may be empty to skip the Chrome trace).

The server evaluates on executor threads, which do not inherit the
event loop's context, so each engine entry point (one ``/v1/eval``
evaluation, one ``/v1/sweep`` stream) activates its own tracer on its
thread under a ``serve.engine_thread`` root span.  That root's self time
is time the thread spent waiting — for the engine lock, or for the
event loop to drain a stream — not engine work.  On exit (SIGTERM
drain) the collected forest is summarized per layer into SUMMARY_JSON.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from repro.obs.trace import Tracer, set_enabled  # noqa: E402

_roots: list = []
_roots_lock = threading.Lock()


def _traced_entry(method):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        tracer = Tracer()
        token = tracer.activate()
        try:
            with tracer.span("serve.engine_thread"):
                return method(*args, **kwargs)
        finally:
            tracer.deactivate(token)
            with _roots_lock:
                _roots.extend(tracer.roots)
    return wrapper


def main() -> int:
    summary_path, trace_path, cli_args = sys.argv[1], sys.argv[2], \
        sys.argv[3:]
    from repro.cli import main as cli_main
    from repro.runtime.memo import counter_stats
    from repro.serve.app import ReproServer

    set_enabled(True)
    layers.install()
    for name in ("_eval_sync", "_run_sweep_sync"):
        setattr(ReproServer, name, _traced_entry(getattr(ReproServer, name)))
    code = cli_main(cli_args)
    with _roots_lock:
        roots = list(_roots)
    summary = {
        "layers": layers.layer_table(roots),
        "ops": layers.op_stats(roots),
        "thread_s": sum(root.duration for root in roots),
        "counts": {f"batch_{key}": value for group in counter_stats()
                   if group.name == "batch" for key, value in group.values},
    }
    Path(summary_path).write_text(json.dumps(summary))
    if trace_path:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(trace_path, roots)
    return code


if __name__ == "__main__":
    sys.exit(main())
