"""The four workloads: inputs from the seed, the measured run, checks.

Every workload follows one shape.  The driver process synthesizes the
inputs from ``--seed`` (corpus, release train, request lists), writes
the ``.rsnap`` / ``.rser`` file, and starts the served side
(``child.py``) on it.  After the timed part it recomputes every answer
untimed from the in-memory corpus with the same endpoint payload
functions and compares the served ``data`` byte for byte in canonical
JSON.  A non-200 response or a mismatch is a failed operation.

Why each workload exists:

* ``cold-open`` — a fresh paper-tier snapshot answers the first query
  of every dataset endpoint in process: store decode, index build and
  metric compute, no transport and no cache hit;
* ``serve-hot`` — cache hits over loopback HTTP from an open-loop
  Poisson stream: routing, cache lookup, encode and transport, no
  compute;
* ``query-miss`` — unique completeness / evaluate / plan POSTs on the
  dependency-semantics paper tier: per-query metric and compat
  compute, indexes already warm, never a cache hit;
* ``series-travel`` — a fresh ``.rser`` open and time travel over
  eleven releases: delta decode and ``at(k)`` materialization.  Its
  last release only reverses the popcon of the one before it, and the
  serve cache keys releases by a fingerprint that ignores popcon, so
  its importance answer comes back stale: a documented, expected
  failure until the fingerprint covers popcon.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
import loadgen
import probe
import tracing

#: Workload names, in the order ``--workload all`` runs them.
NAMES = ("cold-open", "serve-hot", "query-miss", "series-travel")

#: The deadline stays off in every workload.  The program checks it
#: only after an answer is computed, so it bounds nothing; a cold
#: answer that lands just past it on a noisy machine would be thrown
#: away as a 504 in one run and kept in the next.
DEADLINE = None

# serve-hot: fixed open-loop rates, both below the saturation knee of
# the paper tier on a 2-CPU machine, and the scrape period.
HOT_RATES = (("mid", 250.0), ("high", 600.0))
SCRAPE_EVERY_S = 0.5
#: Rounds of one slice per rate plus two closed-loop slices.
HOT_ROUNDS = 8

CHILD_TIMEOUT_S = 170


# --- results ------------------------------------------------------------

@dataclass
class Named:
    """One workload-specific metric as the README names it."""

    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    attempted: int = 0
    failed: int = 0
    #: Failures that are not the documented fingerprint collision.
    unexpected: int = 0
    collisions: int = 0
    e2e: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, Named] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: The workload's primary end-to-end time, for trace.overhead.
    primary_s: float = 0.0
    files: Dict[str, int] = field(default_factory=dict)
    tiers: Dict[str, Dict[str, int]] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def absorb(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.collisions += other.collisions


@dataclass
class Context:
    """Everything a workload needs besides its own logic."""

    seed: int
    seconds: float
    tier: str
    workdir: pathlib.Path
    trace_path: Optional[str] = None
    fault: Optional[Dict[str, object]] = None


# --- shared pieces -----------------------------------------------------

def _spec(method: str, path: str, query=None, body=None) -> Dict:
    return {"method": method, "path": path, "query": dict(query or {}),
            "body": body}


def _endpoint(path: str, method: str):
    from repro.serve import ENDPOINTS
    for endpoint in ENDPOINTS:
        if endpoint.path == path and endpoint.method == method:
            return endpoint
    raise KeyError(f"{method} {path}")


def expected_answer(spec: Dict, subject) -> bytes:
    """The endpoint payload computed directly, in canonical JSON."""
    endpoint = _endpoint(spec["path"], spec["method"])
    params = endpoint.normalize(spec["query"], spec["body"])
    return common.canonical(endpoint.payload(subject, params))


def _start_child() -> subprocess.Popen:
    """The served side, with string hashing fixed: set and dict order
    then repeat from run to run, and so does the work done on them."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        cwd=str(common.ROOT), env=env)


class Child:
    """The served side for one in-process job.

    Started first, so it imports the program while the driver
    synthesizes the inputs; :meth:`run` then sends the job on stdin
    and waits for the reply.  Leaving the ``with`` block always ends
    the process.
    """

    def __init__(self) -> None:
        self.process = _start_child()

    def run(self, job: Dict) -> Dict:
        job = dict(job, cpu=probe.served_cpu())
        out, _ = self.process.communicate(json.dumps(job) + "\n",
                                          timeout=CHILD_TIMEOUT_S)
        if self.process.returncode != 0:
            raise RuntimeError(
                f"served side exited {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if not stream.closed:
                stream.close()


def _paper_config(tier: str, scale: float = 1.0,
                  dependency_semantics: bool = False):
    """The archive: the paper tier's own synthesis at its default seed.

    The paper measures one archive, so every run measures the same
    one; ``--seed`` drives the requests (their bodies, arrival times
    and draws).  Corpus seeds differ in their archetype pool, which
    moves cold costs by more than a benchmark bound.
    """
    from repro.synth.paper import PaperScaleConfig
    if tier == "tiny":
        scale /= 100.0
    return PaperScaleConfig.at_scale(
        scale, dependency_semantics=dependency_semantics)


def _build_snapshot(ctx: Context, name: str, dependency_semantics=False):
    """Synthesize the paper tier and write it to ``<name>.rsnap``."""
    from repro.store import write_snapshot
    from repro.synth.paper import build_paper_corpus
    corpus = build_paper_corpus(_paper_config(
        ctx.tier, dependency_semantics=dependency_semantics))
    path = ctx.workdir / f"{name}.rsnap"
    size = write_snapshot(path, corpus.dataset)
    return corpus, path, size


def _tier_facts(corpus) -> Dict[str, int]:
    return {"packages": len(corpus.dataset.packages),
            "repository_packages": len(corpus.repository),
            "binaries": corpus.n_binaries}


def _syscall_set(rng: random.Random, names: Sequence[str],
                 size: int) -> List[str]:
    """A seeded random API set of a fixed size (cost depends on size)."""
    return sorted(rng.sample(list(names), min(size, len(names))))


def _check(outcome: Outcome, status: int, served: Optional[bytes],
           expected: bytes) -> bool:
    outcome.attempted += 1
    if status == 200 and served == expected:
        return True
    outcome.failed += 1
    outcome.unexpected += 1
    return False


def _setup_metrics(outcome: Outcome, cpu_s: Sequence[float],
                   wall_s: Sequence[float], speed: probe.Probe,
                   note: str) -> None:
    """``setup_s`` is CPU time at the reference speed (see probe.py):
    on a shared host the wall time of the same open moves with whatever
    else the host runs, and its CPU time with the host's speed."""
    measured = common.median(cpu_s)
    outcome.e2e["setup_s"] = probe.at_reference(measured, speed.stop())
    outcome.named["setup_s"] = Named(
        outcome.e2e["setup_s"], "s", len(cpu_s),
        f"CPU at the reference speed, median, {note}")
    outcome.named["setup_cpu_s"] = Named(measured, "s", len(cpu_s),
                                         f"CPU, median, {note}")
    outcome.named["setup_wall_s"] = Named(common.median(wall_s), "s",
                                          len(wall_s), f"median, {note}")
    outcome.named["probe_kernel_ms"] = Named(
        speed.stop() * 1000.0, "ms", speed.samples,
        "speed probe's median kernel time")


def _common_metrics(outcome: Outcome, reply: Dict,
                    speed: probe.Probe) -> None:
    _setup_metrics(outcome, reply["setup_cpu_s"], reply["setup_s"],
                   speed, "open and publish until ready")
    outcome.e2e["peak_rss_mb"] = reply["peak_rss_mb"]
    outcome.named["peak_rss_mb"] = Named(reply["peak_rss_mb"], "MB", 1,
                                         "served-side process")


def _cpu_metrics(outcome: Outcome, cpu_ms: Sequence[float],
                 speed: probe.Probe, note: str) -> None:
    """``cpu_ms_per_op``: the median of per-window CPU per operation,
    at the reference speed."""
    measured = common.median(cpu_ms)
    outcome.e2e["cpu_ms_per_op"] = probe.at_reference(measured,
                                                      speed.stop())
    outcome.named["cpu_ms_per_op"] = Named(
        outcome.e2e["cpu_ms_per_op"], "ms", len(cpu_ms),
        f"CPU at the reference speed, {note}")
    outcome.named["cpu_ms_per_op_measured"] = Named(
        measured, "ms", len(cpu_ms), f"CPU, {note}")


def _cpu_per_op(outcome: Outcome, passes: List[List[Dict]],
                speed: probe.Probe) -> None:
    """Served-side CPU per answer, median pass."""
    _cpu_metrics(outcome, [
        sum(result["cpu_s"] for result in results) / len(results) * 1000.0
        for results in passes], speed,
        "served-side per answer, median pass")


def _layer_metrics(outcome: Outcome, reply: Dict,
                   wall_s: Optional[float] = None) -> None:
    """Per-layer metrics from the served side's written trace."""
    trace = reply.get("trace")
    if trace is None:
        return
    summary = tracing.summarize_trace(trace["path"])
    for layer in tracing.LAYERS:
        outcome.layers[f"{layer}_s"] = summary["self_s"].get(layer, 0.0)
    outcome.layers["series.at.calls"] = float(
        summary["calls"].get("series.at", 0))
    hits, misses = reply["qcache_hits"], reply["qcache_misses"]
    outcome.layers["serve.qcache.hits"] = float(hits)
    outcome.layers["serve.qcache.misses"] = float(misses)
    outcome.layers["serve.qcache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    wall = trace["wall_s"] if wall_s is None else wall_s
    outcome.layers["trace.coverage"] = (
        summary["covered_s"] / wall if wall else 0.0)
    outcome.detail["trace"] = {"path": trace["path"],
                               "spans": summary["spans"],
                               "handle_total_s": summary["handle_total_s"]}


# --- cold-open -----------------------------------------------------------

COLD_EXTRA_SETUPS = 7
#: Cold passes per run: as many as fit the run time, within these.
COLD_MIN_PASSES = 2
COLD_MAX_PASSES = 3


def _cold_requests(ctx: Context, corpus) -> List[Tuple[str, Dict]]:
    """The first query of every dataset endpoint, in a fixed order."""
    rng = random.Random(f"perfbench:cold-open:{ctx.seed}")
    names = corpus.dataset.space.universe_names("syscall")
    return [
        ("importance", _spec("GET", "/v1/importance")),
        ("stats", _spec("GET", "/v1/dataset/stats")),
        ("unweighted", _spec("GET", "/v1/unweighted")),
        ("completeness", _spec("POST", "/v1/completeness", body={
            "supported": _syscall_set(rng, names, 150)})),
        ("curve", _spec("GET", "/v1/completeness/curve")),
        ("plan", _spec("POST", "/v1/advisor/plan", body={
            "modified": _syscall_set(rng, names, 20)})),
        ("evaluate", _spec("POST", "/v1/system/evaluate", body={
            "supported": _syscall_set(rng, names, 150)})),
        ("dep_semantics", _spec("GET", "/v1/dataset/dep_semantics")),
        ("libc_curve", _spec("GET", "/v1/completeness/curve",
                             {"dimension": "libc"})),
    ]


def cold_open(ctx: Context, traced: bool = False) -> Outcome:
    with Child() as child, probe.Probe() as speed:
        corpus, path, size = _build_snapshot(ctx, "cold-open")
        requests = _cold_requests(ctx, corpus)
        reply = child.run({
            "mode": "passes", "workload": "cold-open", "path": str(path),
            "deadline": DEADLINE, "extra_setups": COLD_EXTRA_SETUPS,
            "min_passes": COLD_MIN_PASSES, "max_passes": COLD_MAX_PASSES,
            "seconds": ctx.seconds,
            "requests": [spec for _, spec in requests],
            "trace": ctx.trace_path if traced else None,
            "fault": ctx.fault})
        speed.stop()

    outcome = Outcome(files={"cold-open.rsnap": size},
                      tiers={"paper": _tier_facts(corpus)})
    expected = [_stats_expected(corpus, spec) if name == "stats"
                else expected_answer(spec, corpus.dataset)
                for name, spec in requests]
    for results in reply["passes"]:
        for result, want in zip(results, expected):
            _check(outcome, result["status"],
                   common.served_data(result["body"].encode()), want)

    # Each pass is one cold start; every metric is taken per pass and
    # reported as the median over the passes.  The gated figure is the
    # CPU of all nine first answers over nine: the median of nine
    # unlike answers would sit between two endpoints whose order flips
    # from run to run.
    passes = [[result["seconds"] for result in results]
              for results in reply["passes"]]
    opens = reply["setup_s"][COLD_EXTRA_SETUPS:]
    total = common.median([sum(seconds) for seconds in passes])
    slowest = common.median([max(seconds) for seconds in passes])
    start = common.median([opened + sum(seconds)
                           for opened, seconds in zip(opens, passes)])
    _common_metrics(outcome, reply, speed)
    _cpu_per_op(outcome, reply["passes"], speed)
    outcome.named["cold_start_s"] = Named(
        start, "s", len(passes), "open plus every first answer, median pass")
    outcome.primary_s = total
    outcome.named["first_answer_total_s"] = Named(
        total, "s", len(passes), "sum over the endpoints, median pass")
    outcome.named["first_answer_max_s"] = Named(
        slowest, "s", len(passes), "slowest endpoint, median pass")
    outcome.detail["first_answers_s"] = {
        name: [seconds[index] for seconds in passes]
        for index, (name, _) in enumerate(requests)}
    _layer_metrics(outcome, reply)
    return outcome


# --- serve-hot -----------------------------------------------------------

SERVE_SETUPS = 9


def _popular_queries() -> List[Dict]:
    """Thirty-nine GET queries that all fit the 1,024-entry cache,
    most popular first."""
    from repro.dataset import ALL_DIMENSIONS
    queries = []
    for dimension in ALL_DIMENSIONS:
        queries.append(_spec("GET", "/v1/importance",
                             {"dimension": dimension}))
        queries.append(_spec("GET", "/v1/importance",
                             {"dimension": dimension, "limit": "10"}))
        queries.append(_spec("GET", "/v1/unweighted",
                             {"dimension": dimension, "limit": "10"}))
    for dimension in ("syscall", "ioctl", "fcntl", "prctl", "libc"):
        queries.append(_spec("GET", "/v1/importance",
                             {"dimension": dimension,
                              "universe": "defined", "limit": "20"}))
    for limit in ("5", "25", "50"):
        queries.append(_spec("GET", "/v1/importance", {"limit": limit}))
    for dimension, limit in (("syscall", "0"), ("syscall", "50"),
                             ("syscall", "100"), ("libc", "50"),
                             ("fcntl", "0"), ("ioctl", "0"),
                             ("prctl", "0"), ("pseudofile", "0")):
        queries.append(_spec("GET", "/v1/completeness/curve",
                             {"dimension": dimension, "limit": limit}))
    queries.append(_spec("GET", "/v1/unweighted", {"limit": "0"}))
    queries.append(_spec("GET", "/v1/dataset/stats"))
    return queries


class ServerProcess:
    """The served side in ``serve`` mode, steered over stdin."""

    def __init__(self, job: Dict) -> None:
        self.process = _start_child()
        self._send(json.dumps(dict(job, cpu=probe.served_cpu())))

    def _send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def _read(self) -> Dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("served side exited early")
        return json.loads(line)

    def setup_cycle(self, first: bool) -> Tuple[int, float]:
        """One open-and-publish, timed to the first ``/readyz`` 200."""
        if not first:
            self._send("next")
        port = self._read()["port"]
        start = time.perf_counter()
        self._send("go")
        status, _ = loadgen.get(port, "/readyz")
        seconds = time.perf_counter() - start
        if status != 200:
            raise RuntimeError(f"/readyz answered {status}")
        self._send("ready")
        return port, seconds

    def command(self, name: str) -> Dict:
        self._send(name)
        return self._read()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self._send("stop")
                self.process.stdin.close()
            except OSError:
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _stats_expected(corpus, spec) -> bytes:
    """The stats payload, stamped with the provenance the served
    snapshot carries (the in-memory corpus reports none)."""
    from repro.dataset import footprints_fingerprint
    payload = json.loads(expected_answer(spec, corpus.dataset))
    payload["snapshot"] = {
        "format": "rsnap",
        "fingerprint": footprints_fingerprint(corpus.dataset)}
    return common.canonical(payload)


def _hot_phases(ctx: Context, port: int,
                requests: List[loadgen.HttpRequest], rng: random.Random,
                weights: List[float], closed_order: List[int],
                bodies: loadgen.Bodies, server_cpu: Callable[[], float]):
    """The timed phases: open-loop slices per rate and closed loops.

    ``server_cpu`` reads the server's CPU clock; each round's open-loop
    slices are bracketed by it, because what they send is fixed by the
    schedule, however fast the machine runs.  The closed loops send as
    many requests as the machine allows, and the CPU per request of a
    saturated server differs from that of one waking per request.
    """
    scrape = len(requests) - 1
    # Each round runs one slice at each fixed rate, one saturating
    # closed-loop slice on two connections and one on a single
    # connection, so every phase samples the whole run; the gated
    # figures are medians over the slices, so one hiccup of a shared
    # machine lands in one slice and is outvoted.
    slice_s = ctx.seconds / (HOT_ROUNDS * (len(HOT_RATES) + 2))
    slices: Dict[str, List[List[loadgen.Sample]]] = {
        name: [] for name, _ in HOT_RATES}
    closed_slices: List[Tuple[List[loadgen.Sample], float]] = []
    single_slices: List[Tuple[List[loadgen.Sample], float]] = []
    open_cpu_ms: List[float] = []
    scheduled = 0.0
    for _ in range(HOT_ROUNDS):
        cpu_before = server_cpu()
        for name, rate in HOT_RATES:
            schedule = loadgen.poisson_schedule(
                rng, rate, slice_s, weights, SCRAPE_EVERY_S, scrape,
                scheduled)
            slices[name].append(loadgen.open_loop(
                port, requests, schedule, bodies))
            scheduled += slice_s
        sent = sum(len(slices[name][-1]) for name, _ in HOT_RATES)
        open_cpu_ms.append((server_cpu() - cpu_before) / sent * 1000.0)
        closed_slices.append(loadgen.closed_loop(
            port, requests, closed_order, slice_s, bodies))
        single_slices.append(loadgen.closed_loop(
            port, requests, closed_order, slice_s, bodies, 1))
    return slices, closed_slices, single_slices, open_cpu_ms


def _serve_measure(ctx: Context, server: "ServerProcess",
                   queries: List[Dict],
                   expect: Callable[[], List[bytes]],
                   traced: bool, speed: probe.Probe) -> Outcome:
    """Set-up cycles, warm-up, timed phases, then the answer checks.

    ``expect`` computes the expected answers; it runs while the server
    warms up, since neither is timed.
    """
    rng = random.Random(f"perfbench:serve-hot:{ctx.seed}")
    # Zipf popularity in list order.  The ranking is fixed because
    # answers range from 0.3 to 22 KB: a seed-chosen ranking moved the
    # mix's mean answer size between 2.6 and 4.8 KB over ten seeds.
    weights = [1.0 / (rank + 1) for rank in range(len(queries))]
    scrape = len(queries)
    requests = [loadgen.http_request(q["method"], q["path"], q["query"],
                                     q["body"]) for q in queries]
    requests.append(loadgen.HttpRequest("GET", "/metrics"))
    closed_order = rng.choices(range(len(queries)), weights, k=4096)
    bodies = loadgen.Bodies()

    setups = [server.setup_cycle(cycle == 0)
              for cycle in range(SERVE_SETUPS)]
    port = setups[-1][0]
    warmed: List[loadgen.Sample] = []
    warming = threading.Thread(target=lambda: warmed.extend(
        loadgen.sequential(port, requests[:scrape], bodies)))
    warming.start()
    try:
        expected = expect()
    finally:
        warming.join(timeout=CHILD_TIMEOUT_S)
    if len(warmed) != scrape or any(s.status != 200 for s in warmed):
        raise RuntimeError("the server failed its warm-up")
    # The generator shares this process with the corpus the answers
    # were computed from; a collection walking that heap would stall
    # the generator in the middle of a phase.  The samples it keeps
    # hold no cycles, so nothing is lost by collecting after the end.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        server.command("mark")
        phases = _hot_phases(
            ctx, port, requests, rng, weights, closed_order, bodies,
            lambda: server.command("cpu")["cpu_s"])
    finally:
        gc.enable()
        gc.unfreeze()
    slices, closed_slices, single_slices, open_cpu = phases
    report = server.command("report")
    speed.stop()

    outcome = Outcome()
    verdicts: Dict[Tuple[int, bytes], bool] = {}
    opened = [sample for rate_slices in slices.values()
              for group in rate_slices for sample in group]
    closed = [sample for group, _ in closed_slices + single_slices
              for sample in group]
    scrapes = []
    for sample in opened + closed:
        if sample.query == scrape:
            scrapes.append(sample.round_trip)
            right = True
        else:
            key = (sample.query, sample.body)
            if key not in verdicts:
                verdicts[key] = (common.served_data(sample.body)
                                 == expected[sample.query])
            right = verdicts[key]
        outcome.attempted += 1
        if sample.status != 200 or not right:
            outcome.failed += 1
            outcome.unexpected += 1

    _setup_metrics(outcome, report["setup_cpu_s"],
                   [seconds for _, seconds in setups], speed,
                   "server start-up to the first /readyz 200")
    outcome.e2e["peak_rss_mb"] = report["peak_rss_mb"]
    # The open loop's wall-clock latencies and the closed loops' rates
    # swing with the host's other tenants; the server's CPU per answer
    # much less.
    _cpu_metrics(outcome, open_cpu, speed,
                 "server per open-loop request, median over rounds")
    outcome.detail["round_cpu_ms_per_op"] = open_cpu
    outcome.named["peak_rss_mb"] = Named(report["peak_rss_mb"], "MB", 1,
                                         "server process")
    for name, rate in HOT_RATES:
        latencies = [[s.latency for s in group if s.query != scrape]
                     for group in slices[name]]
        pooled = [value for group in latencies for value in group]
        value, label = common.tail(pooled)
        note = f"{rate:g} req/s Poisson, from scheduled send"
        outcome.named[f"hot_p50_ms.{name}"] = Named(
            common.median(pooled) * 1000.0, "ms", len(pooled), note)
        outcome.named[f"hot_p99_ms.{name}"] = Named(
            value * 1000.0, "ms", len(pooled), f"{label}, {note}")
        outcome.detail[f"slice_p50_ms.{name}"] = [
            common.median(group) * 1000.0 for group in latencies]
    saturated = sum(len(group) for group, _ in closed_slices)
    closed_elapsed = sum(seconds for _, seconds in closed_slices)
    outcome.named["hot_capacity_rps"] = Named(
        saturated / closed_elapsed, "1/s", saturated,
        "closed loop, 2 connections")
    single = [len(group) / seconds for group, seconds in single_slices]
    outcome.named["hot_one_connection_rps"] = Named(
        common.median(single), "1/s",
        sum(len(group) for group, _ in single_slices),
        "closed loop, 1 connection, median over slices")
    outcome.detail["slice_one_connection_rps"] = single
    outcome.primary_s = closed_elapsed / saturated
    lateness = [sample.lateness for sample in opened]
    outcome.detail["lateness_max_ms"] = max(lateness) * 1000.0
    outcome.detail["latency_max_ms"] = max(
        sample.latency for sample in opened) * 1000.0

    if traced:
        round_trips = sum(s.round_trip for s in opened + closed)
        _layer_metrics(outcome, report, wall_s=round_trips)
        handled = outcome.detail["trace"]["handle_total_s"]
        outcome.layers["serve.http_s"] = max(0.0, round_trips - handled)
        outcome.layers["obs.scrape_s"] = common.median(scrapes)
        outcome.layers["serve.rss_growth_mb"] = (
            report["rss_after_mb"] - report["rss_before_mb"])
        outcome.layers["loadgen.lateness_p99_ms"] = common.nearest_rank(
            lateness, 0.99) * 1000.0
    return outcome


def serve_hot(ctx: Context, traced: bool = False) -> Outcome:
    path = ctx.workdir / "serve-hot.rsnap"
    queries = _popular_queries()
    server = ServerProcess({
        "mode": "serve", "workload": "serve-hot", "path": str(path),
        "deadline": DEADLINE, "setups": SERVE_SETUPS,
        "trace": ctx.trace_path if traced else None, "fault": ctx.fault})
    try:
        with probe.Probe() as speed:
            corpus, _, size = _build_snapshot(ctx, "serve-hot")

            def expect() -> List[bytes]:
                return [_stats_expected(corpus, spec)
                        if spec["path"] == "/v1/dataset/stats"
                        else expected_answer(spec, corpus.dataset)
                        for spec in queries]

            outcome = _serve_measure(ctx, server, queries, expect, traced,
                                     speed)
    finally:
        server.close()
    outcome.files = {"serve-hot.rsnap": size}
    outcome.tiers = {"paper": _tier_facts(corpus)}
    return outcome


# --- query-miss ----------------------------------------------------------

MISS_SETUPS = 5
MISS_MAX_BLOCKS = 8
#: Request sizes, one block holds each kind at each size once.  Cost
#: falls several-fold from the smallest supported set to the largest,
#: so drawing sizes at random would move the median by the draw.
SUPPORTED_SIZES = (50, 100, 150, 200, 250)
MODIFIED_SIZES = (5, 10, 20, 30, 40)


def _miss_request(rng: random.Random, kind: str, size: int,
                  names: Sequence[str]) -> Dict:
    chosen = _syscall_set(rng, names, size)
    if kind == "completeness":
        return _spec("POST", "/v1/completeness",
                     body={"supported": chosen})
    if kind == "evaluate":
        return _spec("POST", "/v1/system/evaluate", body={
            "name": f"system-{rng.randrange(1 << 30)}",
            "supported": chosen})
    return _spec("POST", "/v1/advisor/plan", body={"modified": chosen})


def _miss_blocks(rng: random.Random, names: Sequence[str],
                 count: int) -> List[List[Dict]]:
    """Blocks of distinct requests (so none can be a cache hit)."""
    seen = set()
    blocks = []
    for _ in range(count):
        block = []
        for kind in ("completeness", "evaluate", "plan"):
            sizes = MODIFIED_SIZES if kind == "plan" else SUPPORTED_SIZES
            for size in sizes:
                while True:
                    spec = _miss_request(rng, kind, size, names)
                    key = json.dumps(spec, sort_keys=True)
                    if key not in seen:
                        seen.add(key)
                        break
                block.append(spec)
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def query_miss(ctx: Context, traced: bool = False) -> Outcome:
    with Child() as child, probe.Probe() as speed:
        corpus, path, size = _build_snapshot(ctx, "query-miss",
                                             dependency_semantics=True)
        rng = random.Random(f"perfbench:query-miss:{ctx.seed}")
        names = corpus.dataset.space.universe_names("syscall")
        warmup, *blocks = _miss_blocks(rng, names, 1 + MISS_MAX_BLOCKS)
        reply = child.run({
            "mode": "closed", "workload": "query-miss",
            "path": str(path), "deadline": DEADLINE,
            "setups": MISS_SETUPS, "warmup": warmup[:3],
            "blocks": blocks, "seconds": ctx.seconds,
            "trace": ctx.trace_path if traced else None,
            "fault": ctx.fault})
        speed.stop()

    outcome = Outcome(files={"query-miss.rsnap": size},
                      tiers={"paper-depsem": _tier_facts(corpus)})
    requests = [spec for block in blocks for spec in block]
    results = reply["results"]
    for spec, result in zip(requests, results):
        _check(outcome, result["status"],
               common.served_data(result["body"].encode()),
               expected_answer(spec, corpus.dataset))

    seconds = [result["seconds"] for result in results]
    qps = len(results) / reply["elapsed_s"]
    _common_metrics(outcome, reply, speed)
    _cpu_per_op(outcome, [results], speed)
    outcome.primary_s = sum(seconds) / len(seconds)
    value, label = common.tail(seconds)
    outcome.named["miss_qps"] = Named(qps, "1/s", len(seconds),
                                      "one closed-loop caller")
    outcome.named["miss_p50_ms"] = Named(
        common.median(seconds) * 1000.0, "ms", len(seconds))
    outcome.named["miss_tail_ms"] = Named(value * 1000.0, "ms",
                                          len(seconds), label)
    _layer_metrics(outcome, reply)
    return outcome


# --- series-travel -------------------------------------------------------

TRAIN_RELEASES = 10
TRAVEL_EXTRA_SETUPS = 40
TRAVEL_MIN_PASSES = 3
TRAVEL_MAX_PASSES = 12


def _popcon_only(dataset):
    """``dataset`` rebound with its install counts reversed.

    Footprints, dependencies and provides stay the same, so the release
    fingerprint (which hashes footprints only) does too.
    """
    from repro.packages.popcon import PopularityContest
    popcon = dataset.popcon
    names = popcon.packages()
    counts = [popcon.installations(name) for name in names]
    reversed_popcon = PopularityContest(
        popcon.total_installations, dict(zip(names, reversed(counts))))
    return dataset.rebound(reversed_popcon, dataset.repository)


def _travel_requests(ctx: Context, releases) -> List[Dict]:
    """Importance at every release in order, the trends, a diff."""
    rng = random.Random(f"perfbench:series-travel:{ctx.seed}")
    names = releases[0].space.universe_names("syscall")
    requests = [_spec("GET", "/v1/importance", {"release": str(k)})
                for k in range(len(releases))]
    return requests + [
        _spec("GET", "/v1/trend/importance"),
        _spec("POST", "/v1/trend/completeness", body={
            "supported": _syscall_set(rng, names, 150)}),
        _spec("GET", "/v1/release/diff",
              {"from": "0", "to": str(len(releases) - 1)}),
    ]


def series_travel(ctx: Context, traced: bool = False) -> Outcome:
    from repro.dataset import footprints_fingerprint
    from repro.series import write_series
    from repro.synth import EvolutionConfig, evolve_corpus

    with Child() as child, probe.Probe() as speed:
        # The train evolves at its default seed, as the archive does:
        # evolution seeds differ in how much churn lands in each
        # release, which changed travel throughput by up to 40%
        # between seeds.
        ecosystem = evolve_corpus(EvolutionConfig(
            n_releases=TRAIN_RELEASES,
            base=_paper_config(ctx.tier, scale=0.1)))
        releases = ecosystem.datasets()
        releases.append(_popcon_only(releases[-1]))
        path = ctx.workdir / "series-travel.rser"
        size = write_series(path, releases)
        requests = _travel_requests(ctx, releases)
        reply = child.run({
            "mode": "passes", "workload": "series-travel",
            "path": str(path), "deadline": DEADLINE,
            "extra_setups": TRAVEL_EXTRA_SETUPS,
            "min_passes": TRAVEL_MIN_PASSES,
            "max_passes": TRAVEL_MAX_PASSES, "seconds": ctx.seconds,
            "requests": requests,
            "trace": ctx.trace_path if traced else None,
            "fault": ctx.fault})
        speed.stop()

    fingerprints = [footprints_fingerprint(d) for d in releases]
    expected = []
    for spec in requests:
        if "release" in spec["query"]:
            subject = releases[int(spec["query"]["release"])]
            spec = dict(spec, query={})
        else:
            subject = releases
        expected.append(expected_answer(spec, subject))

    outcome = Outcome(files={"series-travel.rser": size},
                      tiers={"paper-tenth": {
                          "releases": len(releases),
                          "packages_first": len(releases[0].packages),
                          "packages_last": len(releases[-1].packages),
                          "binaries_first": ecosystem.base_corpus.n_binaries,
                      }})
    totals = []
    seconds = []
    opens = reply["setup_s"][TRAVEL_EXTRA_SETUPS:]
    for results in reply["passes"]:
        answered: Dict[str, bytes] = {}
        for spec, result, want in zip(requests, results, expected):
            served = common.served_data(result["body"].encode())
            ok = _check(outcome, result["status"], served, want)
            release = spec["query"].get("release")
            if release is None:
                continue
            fingerprint = fingerprints[int(release)]
            if not ok and result["status"] == 200 \
                    and answered.get(fingerprint) == served:
                # The documented defect: an earlier release with the
                # same footprint fingerprint answered from the cache.
                outcome.unexpected -= 1
                outcome.collisions += 1
            answered.setdefault(fingerprint, want)
        totals.append(sum(result["seconds"] for result in results))
        seconds.extend(result["seconds"] for result in results)

    # As on cold-open, the gated figure is taken per pass: the median
    # of fourteen unlike queries would sit between two kinds whose
    # order flips from run to run.
    travel = common.median(totals)
    trip = common.median([opened + total
                          for opened, total in zip(opens, totals)])
    _common_metrics(outcome, reply, speed)
    _cpu_per_op(outcome, reply["passes"], speed)
    outcome.primary_s = travel
    value, label = common.tail(seconds)
    outcome.named["travel_total_s"] = Named(
        travel, "s", len(totals), "median over fresh-open passes")
    outcome.named["travel_trip_s"] = Named(
        trip, "s", len(totals), "open plus every query, median pass")
    outcome.named["travel_p50_ms"] = Named(
        common.median(seconds) * 1000.0, "ms", len(seconds))
    outcome.named["travel_tail_ms"] = Named(value * 1000.0, "ms",
                                            len(seconds), label)
    outcome.named["stale_answers"] = Named(
        float(outcome.collisions), "count", len(totals),
        "expected until release fingerprints cover popcon")
    _layer_metrics(outcome, reply)
    return outcome


# --- dispatch ------------------------------------------------------------

RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "cold-open": cold_open,
    "serve-hot": serve_hot,
    "query-miss": query_miss,
    "series-travel": series_travel,
}
