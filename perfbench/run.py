"""Paper-scale layered benchmark: run one workload and report it.

    python3 perfbench/run.py --workload cold-open --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another.  With
``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` the
workload runs twice, untraced and then traced, and the line carries
every per-layer metric instead.  The lines before it are the human
report: the workload's own named metrics with units and sample counts,
operations attempted and failed, and provenance.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback

import common

BENCHMARK_FILE = common.ROOT / "BENCHMARK.json"
WORKDIR = common.ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tier", choices=("paper", "tiny"),
                        default="paper",
                        help="corpus size; 'tiny' is for the self-test")
    parser.add_argument("--fault", default=None,
                        help="JSON fault to inject (self-test only)")
    return parser.parse_args(argv)


def _measure(workloads, name: str, args, workdir):
    """Run one workload; the traced mode runs it untraced first."""
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, tier=args.tier,
        workdir=workdir, trace_path=str(workdir / "spans.jsonl"),
        fault=json.loads(args.fault) if args.fault else None)
    runner = workloads.RUNNERS[name]
    if not args.trace:
        return runner(ctx)
    base = runner(ctx)
    traced = runner(ctx, traced=True)
    traced.absorb(base)
    traced.layers["trace.overhead"] = traced.primary_s / base.primary_s
    traced.detail["untraced_primary_s"] = base.primary_s
    return traced


def _report(name: str, args, outcome, prov) -> None:
    cpus = prov["cpu_count"]
    marker = "" if prov["comparable_cpu_count"] else (
        f"  [NOT COMPARABLE: reference machine has "
        f"{prov['reference_cpu_count']} CPUs]")
    print(f"workload {name}  seed {args.seed}  tier {args.tier}  "
          f"trace {args.trace}  cpus {cpus}{marker}")
    for metric, named in outcome.named.items():
        note = f", {named.note}" if named.note else ""
        print(f"  {metric} = {named.value:.6g} {named.unit} "
              f"(n={named.samples}{note})")
    print(f"  operations attempted {outcome.attempted}, failed "
          f"{outcome.failed} (documented fingerprint collisions "
          f"{outcome.collisions}, unexpected {outcome.unexpected})")
    print("provenance " + json.dumps(prov, sort_keys=True))


def run_one(name: str, args, spec) -> int:
    import workloads
    workdir = WORKDIR / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = _measure(workloads, name, args, workdir)
    finally:
        for path in workdir.iterdir():
            if path.suffix in (".rsnap", ".rser"):
                path.unlink()
    prov = common.provenance(args.seed, outcome.tiers, outcome.files)
    section = "per_layer" if args.trace else "end_to_end"
    source = outcome.layers if args.trace else outcome.e2e
    metrics = {}
    for metric in spec[section]:
        value = source.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    _report(name, args, outcome, prov)
    result = {"correct": outcome.unexpected == 0 and outcome.attempted > 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    common.write_json(workdir / "result.json", {
        "workload": name, "result": result,
        "named": {key: vars(value) for key, value in outcome.named.items()},
        "end_to_end": outcome.e2e, "per_layer": outcome.layers,
        "detail": outcome.detail, "provenance": prov})
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.program_present():
        print(f"perfbench: no program sources under {common.SRC}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot read {BENCHMARK_FILE}: {exc}",
              file=sys.stderr)
        return 2
    common.add_program_to_path()
    import workloads
    names = (workloads.NAMES if args.workload == "all"
             else (args.workload,))
    for name in names:
        if name not in workloads.RUNNERS:
            print(f"perfbench: unknown workload {name!r}; choose from "
                  f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
            return 2
    for name in names:
        try:
            run_one(name, args, spec)
        except Exception:  # noqa: BLE001 - report and fail the run
            traceback.print_exc()
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
