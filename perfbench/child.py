"""The served side of the benchmark: one process that opens a file.

The driver (``run.py``) synthesizes inputs, then starts this script
and sends it one JSON job on stdin.  Keeping the program in its own
process means its peak RSS, caches and timings hold nothing of the
driver's corpus synthesis or answer checking.  Modes:

* ``passes`` — each pass opens the file fresh (``SnapshotRegistry.
  from_files`` + ``ServeApp``, ready when ``/readyz`` answers 200) and
  sends a fixed request list in process; cold indexes every pass;
* ``closed`` — one open, an untimed warm-up, then one caller sends
  whole blocks of requests in process back to back until time runs
  out;
* ``serve`` — ``ServeApp`` behind ``ThreadingTransport`` on loopback;
  the driver generates the load over HTTP and steers this process
  through a line protocol on stdin.

Replies are JSON lines on stdout.  Response bodies travel back as
text so the driver can check every answer.
"""

from __future__ import annotations

import gc
import json
import socket
import sys
import threading
import time

import common

common.add_program_to_path()

from repro.serve import (Request, ServeApp, SnapshotRegistry,  # noqa: E402
                         ThreadingTransport)
from repro.obs import write_trace  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _request(spec) -> Request:
    body = spec.get("body")
    return Request(method=spec["method"], path=spec["path"],
                   query=dict(spec.get("query") or {}),
                   body=b"" if body is None else json.dumps(body).encode())


class Faults:
    """Deliberate faults for the benchmark's self-test only.

    ``wrong_answer`` alters the ``data`` of the first successful query
    answer; ``stall`` makes every handler wait while request number
    ``at`` sleeps, as a server that stops answering for a while.
    """

    def __init__(self, spec) -> None:
        self.spec = spec or {}
        self._count = 0
        self._lock = threading.Lock()
        self._gate = threading.Lock()

    def install(self) -> None:
        kind = self.spec.get("kind")
        if kind is None:
            return
        original = ServeApp.handle
        faults = self

        def handle(app, request):
            with faults._lock:
                faults._count += 1
                number = faults._count
            if kind == "stall" and number == faults.spec["at"]:
                with faults._gate:
                    time.sleep(faults.spec["seconds"])
            elif kind == "stall":
                with faults._gate:
                    pass
            response = original(app, request)
            if (kind == "wrong_answer" and response.status == 200
                    and request.path.startswith("/v1/")
                    and not faults.spec.get("done")):
                envelope = json.loads(response.body)
                envelope["data"] = {"injected": True}
                response.body = json.dumps(envelope).encode() + b"\n"
                faults.spec["done"] = True
            return response

        ServeApp.handle = handle


def _open(path, deadline):
    """Open and publish until ready; returns ((wall, cpu) seconds, app).

    CPU times here are this thread's, the one the program works on.
    """
    start, cpu = time.perf_counter(), time.thread_time()
    registry = SnapshotRegistry.from_files(path)
    app = ServeApp(registry, deadline_seconds=deadline)
    ready = app.handle(Request("GET", "/readyz"))
    seconds = (time.perf_counter() - start, time.thread_time() - cpu)
    if ready.status != 200:
        raise RuntimeError(f"/readyz answered {ready.status}")
    return seconds, app


def _send(app, spec):
    start, cpu = time.perf_counter(), time.thread_time()
    response = app.handle(_request(spec))
    seconds = time.perf_counter() - start
    return {"status": response.status, "seconds": seconds,
            "cpu_s": time.thread_time() - cpu,
            "body": response.body.decode("utf-8")}


def _finish_trace(layers, job, wall):
    """Write the measured spans and describe them for the driver."""
    if layers is None:
        return None
    spans = layers.spans()
    write_trace(job["trace"], spans, meta={"workload": job["workload"]})
    return {"path": job["trace"], "wall_s": wall}


def run_passes(job, layers):
    """Fresh open + fixed request list, repeated."""
    setups = []
    for _ in range(job["extra_setups"]):
        seconds, app = _open(job["path"], job["deadline"])
        setups.append(seconds)
        del app
        gc.collect()
    passes = []
    wall = 0.0
    qcache = {}
    started = time.perf_counter()
    while len(passes) < job["max_passes"] and (
            len(passes) < job["min_passes"]
            or time.perf_counter() - started < job["seconds"]):
        if layers is not None:
            layers.reset()
        seconds, app = _open(job["path"], job["deadline"])
        results = [_send(app, spec) for spec in job["requests"]]
        setups.append(seconds)
        passes.append(results)
        wall = seconds[0] + sum(result["seconds"] for result in results)
        qcache = app.qcache.stats()
        del app
        gc.collect()
    return {"setup_s": [wall_s for wall_s, _ in setups],
            "setup_cpu_s": [cpu_s for _, cpu_s in setups], "passes": passes,
            "peak_rss_mb": common.peak_rss_mb(),
            "qcache_hits": qcache["hits"],
            "qcache_misses": qcache["misses"],
            "trace": _finish_trace(layers, job, wall)}


def run_closed(job, layers):
    """One open, untimed warm-up, then back-to-back request blocks."""
    setups = []
    app = None
    for _ in range(job["setups"]):
        del app
        gc.collect()
        seconds, app = _open(job["path"], job["deadline"])
        setups.append(seconds)
    for spec in job["warmup"]:
        _send(app, spec)
    if layers is not None:
        layers.reset()
    before = app.qcache.stats()
    results = []
    started = time.perf_counter()
    for block in job["blocks"]:
        if results and time.perf_counter() - started >= job["seconds"]:
            break
        results.extend(_send(app, spec) for spec in block)
    elapsed = time.perf_counter() - started
    wall = sum(result["seconds"] for result in results)
    after = app.qcache.stats()
    return {"setup_s": [wall_s for wall_s, _ in setups],
            "setup_cpu_s": [cpu_s for _, cpu_s in setups], "results": results,
            "elapsed_s": elapsed, "peak_rss_mb": common.peak_rss_mb(),
            "qcache_hits": after["hits"] - before["hits"],
            "qcache_misses": after["misses"] - before["misses"],
            "trace": _finish_trace(layers, job, wall)}


def run_serve(job, layers, commands):
    """HTTP serving, steered by the driver one line at a time.

    Set-up cycles: bind a listening socket and report its port, wait
    for ``go``, then open, publish and start the transport; the
    driver times ``go`` to its first ``/readyz`` 200 and then sends
    ``ready``, which ends the cycle's CPU time here, and ``next`` to
    tear the cycle down and start another.  After the last
    cycle the driver warms the server, sends ``mark`` before the timed
    phases, ``cpu`` within them to read this process's CPU clock and
    ``report`` after them, then ``stop``.
    """
    transport = None
    app = None
    setup_cpu = []
    for _ in range(job["setups"]):
        if transport is not None:
            if commands.readline().strip() != "next":
                transport.stop()
                return None
            transport.stop()
            transport = None
            app = None
            gc.collect()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(64)
        _reply({"port": sock.getsockname()[1]})
        if commands.readline().strip() != "go":
            sock.close()
            return None
        cpu = time.process_time()
        registry = SnapshotRegistry.from_files(job["path"])
        app = ServeApp(registry, deadline_seconds=job["deadline"])
        transport = ThreadingTransport(app, sock=sock, listening=True)
        transport.start()
        if commands.readline().strip() != "ready":
            transport.stop()
            return None
        setup_cpu.append(time.process_time() - cpu)
    try:
        before = None
        while True:
            command = commands.readline().strip()
            if command == "mark":
                if layers is not None:
                    layers.reset()
                before = {"rss_mb": common.current_rss_mb(),
                          "qcache": app.qcache.stats()}
                _reply({"marked": True})
            elif command == "cpu":
                _reply({"cpu_s": time.process_time()})
            elif command == "report":
                after = app.qcache.stats()
                _reply({
                    "setup_cpu_s": setup_cpu,
                    "rss_before_mb": before["rss_mb"],
                    "rss_after_mb": common.current_rss_mb(),
                    "peak_rss_mb": common.peak_rss_mb(),
                    "qcache_hits": after["hits"] - before["qcache"]["hits"],
                    "qcache_misses": (after["misses"]
                                      - before["qcache"]["misses"]),
                    "trace": _finish_trace(layers, job, 0.0),
                })
            else:
                return None
    finally:
        transport.stop()


def main() -> int:
    job = json.loads(sys.stdin.readline())
    # Before any thread starts, so the transport's threads stay here too.
    probe.pin(job["cpu"])
    layers = None
    if job.get("trace"):
        layers = tracing.LayerTracer()
        layers.install()
    Faults(job.get("fault")).install()
    if job["mode"] == "passes":
        _reply(run_passes(job, layers))
    elif job["mode"] == "closed":
        _reply(run_closed(job, layers))
    elif job["mode"] == "serve":
        run_serve(job, layers, sys.stdin)
    else:
        raise SystemExit(f"unknown mode {job['mode']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
