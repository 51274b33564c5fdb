"""Self-test of the benchmark itself, on the tiny tier.

    python3 perfbench/selftest.py

Runs ``run.py`` the way the benchmark is run, with ``--tier tiny`` so
the whole test takes about a minute, and checks three things:

1. every workload prints every metric of ``BENCHMARK.json`` with its
   unit (end-to-end untraced, per-layer traced), prints its own named
   metrics with units, and fails no operation beyond the documented
   fingerprint collision; the traced run's span file reads back;
2. an injected wrong answer is counted as a failed operation;
3. a deliberately stalled handler shows up as generator lateness and
   as latency from the scheduled send time.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import common
import workloads

#: The workload-specific metrics each workload's report must name.
COMMON = ("setup_s", "setup_cpu_s", "setup_wall_s", "probe_kernel_ms",
          "peak_rss_mb", "cpu_ms_per_op", "cpu_ms_per_op_measured")
NAMED = {
    "cold-open": COMMON + ("cold_start_s", "first_answer_total_s",
                           "first_answer_max_s"),
    "serve-hot": COMMON + ("hot_p50_ms.mid", "hot_p99_ms.mid",
                           "hot_p50_ms.high", "hot_p99_ms.high",
                           "hot_capacity_rps"),
    "query-miss": COMMON + ("miss_qps", "miss_p50_ms", "miss_tail_ms"),
    "series-travel": COMMON + ("travel_total_s", "travel_trip_s",
                               "travel_p50_ms", "travel_tail_ms",
                               "stale_answers"),
}
REPORT_LINE = re.compile(r"^  (\S+) = (\S+) (\S+) \(n=\d+")
OPERATIONS_LINE = re.compile(
    r"^  operations attempted \d+, failed (\d+) \(documented "
    r"fingerprint collisions (\d+), unexpected (\d+)\)$")
STALL_S = 0.5


def _run(workload: str, trace: int, fault=None):
    argv = [sys.executable, str(common.BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", str(trace), "--tier", "tiny"]
    if fault is not None:
        argv += ["--fault", json.dumps(fault)]
    done = subprocess.run(argv, capture_output=True, text=True,
                          cwd=str(common.ROOT), timeout=170, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = json.loads((common.ROOT / ".perfbench"
                         / f"{workload}-seed7-trace{trace}"
                         / "result.json").read_text(encoding="utf-8"))
    return lines, json.loads(lines[-1]), detail


def _operations(lines):
    """(failed, collisions, unexpected) from the report's own line."""
    for line in lines:
        match = OPERATIONS_LINE.match(line)
        if match:
            return tuple(int(group) for group in match.groups())
    raise AssertionError("no operations line in the report")


def check_metrics_printed(spec) -> None:
    for workload in NAMED:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            lines, result, detail = _run(workload, trace)
            printed = result["metrics"]
            for metric in spec[section]:
                got = printed.get(metric["name"])
                assert got is not None, f"{workload}: {metric['name']}"
                assert got["unit"] == metric["unit"], metric["name"]
                assert isinstance(got["value"], (int, float))
            assert set(printed) == {m["name"] for m in spec[section]}
            assert result["correct"] is True, (workload, result)
            failed, collisions, unexpected = _operations(lines)
            assert failed == result["failed"], (workload, result)
            assert unexpected == 0 and failed == collisions, \
                (workload, lines)
            if workload == "series-travel":
                # The stale popcon-only release: one collision a pass.
                stale = detail["named"]["stale_answers"]
                assert collisions >= 1, "the stale release passed"
                assert stale["value"] == stale["samples"], stale
                if not trace:
                    assert collisions == stale["value"], (lines, stale)
            else:
                assert collisions == 0, (workload, lines)
            units = {}
            for line in lines:
                match = REPORT_LINE.match(line)
                if match:
                    units[match.group(1)] = match.group(3)
            for name in NAMED[workload]:
                assert units.get(name), f"{workload}: {name} not printed"
            if trace:
                from repro.obs import read_trace_file
                _, spans = read_trace_file(detail["detail"]["trace"]["path"])
                assert spans, f"{workload}: empty span file"
            print(f"ok  {workload} trace {trace}: "
                  f"{len(printed)} metrics, {len(units)} named")


def check_wrong_answer_counted() -> None:
    _, result, _ = _run("cold-open", 0, {"kind": "wrong_answer"})
    assert result["failed"] == 1, result
    assert result["correct"] is False, result
    print("ok  injected wrong answer counted as failed")


def check_stall_visible() -> None:
    _, clean, clean_detail = _run("serve-hot", 1)
    # Request numbers count every handled request: the /readyz of each
    # set-up and one warm-up request per popular query come first, so
    # ten requests on lands early in the first open-loop slice.
    at = workloads.SERVE_SETUPS + len(workloads._popular_queries()) + 10
    _, stalled, detail = _run("serve-hot", 1, {
        "kind": "stall", "at": at, "seconds": STALL_S})
    late = stalled["metrics"]["loadgen.lateness_p99_ms"]["value"]
    calm = clean["metrics"]["loadgen.lateness_p99_ms"]["value"]
    assert late > 100.0 and late > 5 * calm, (late, calm)
    worst = detail["detail"]["latency_max_ms"]
    assert worst >= 0.9 * STALL_S * 1000.0, worst
    assert detail["detail"]["latency_max_ms"] > \
        clean_detail["detail"]["latency_max_ms"]
    print(f"ok  stall: lateness p99 {late:.1f} ms (clean {calm:.1f} ms), "
          f"worst latency from scheduled send {worst:.1f} ms")


def main() -> int:
    if not common.program_present():
        print("selftest: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    common.add_program_to_path()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    try:
        check_metrics_printed(spec)
        check_wrong_answer_counted()
        check_stall_visible()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
