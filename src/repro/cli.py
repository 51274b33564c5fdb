"""Command-line interface: ``repro-analyze``.

Runs the study and prints selected tables/figures, generates seccomp
policies, evaluates a custom system described by a syscall list, or
keeps the analyzed dataset warm behind an HTTP API (``serve``).

Exit codes follow the usual Unix taxonomy:

* ``0`` — success;
* ``1`` — the run itself failed (analysis fault, I/O error);
* ``2`` — usage error (bad flag, unknown package/experiment);
* ``130`` — interrupted (Ctrl-C), reported without a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .metrics import weighted_completeness
from .study import Study
from .synth import EcosystemConfig

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPT = 130

_EXPERIMENTS = {
    "fig1": "fig1_binary_types",
    "fig2": "fig2_syscall_importance",
    "tab1": "tab1_library_only_syscalls",
    "tab2": "tab2_single_package_syscalls",
    "tab3": "tab3_unused_syscalls",
    "fig3": "fig3_completeness_curve",
    "tab4": "tab4_stages",
    "fig4": "fig4_ioctl",
    "fig5": "fig5_fcntl_prctl",
    "fig6": "fig6_pseudo_files",
    "fig7": "fig7_libc_importance",
    "strip": "libc_strip_analysis",
    "tab5": "tab5_startup_syscalls",
    "tab6": "tab6_linux_systems",
    "tab7": "tab7_libc_variants",
    "fig8": "fig8_unweighted",
    "tab8": "tab8_secure_variants",
    "tab9": "tab9_old_new",
    "tab10": "tab10_portability",
    "tab11": "tab11_power",
    "adoption": "adoption",
    "tab12": "tab12_framework_stats",
    "surface": "attack_surface",
    "decomposition": "libc_decomposition",
    "engine": "engine_report",
    "failures": "failure_report",
    "trace": "trace_report",
    "dataset": "dataset_report",
    "depsem": "dep_semantics_report",
}


def _job_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Reproduce the EuroSys'16 Linux API usage study.")
    parser.add_argument("--fillers", type=int, default=200,
                        help="number of filler packages to synthesize")
    parser.add_argument("--drivers", type=int, default=30,
                        help="number of driver-utility packages")
    parser.add_argument("--scripts", type=int, default=250,
                        help="number of script packages")
    parser.add_argument("--seed", type=int, default=2016,
                        help="ecosystem generation seed")
    parser.add_argument("--jobs", type=_job_count, default=1,
                        metavar="N",
                        help="analysis workers (N>1 fans per-binary "
                             "analysis out over N processes)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="persistent content-addressed analysis "
                             "cache; warm re-runs skip unchanged "
                             "binaries")
    parser.add_argument("--strict", action="store_true",
                        help="fail fast: the first per-binary analysis "
                             "failure aborts the run instead of being "
                             "quarantined")
    parser.add_argument("--max-failures", type=int, default=None,
                        metavar="N",
                        help="abort once more than N binaries are "
                             "quarantined (default: unlimited)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the analysis run's span trace as "
                             "JSON lines (one span per line)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the analysis run's metrics as "
                             "Prometheus-style text")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="print tables/figures from the paper")
    report.add_argument(
        "experiments", nargs="*", default=[],
        help=f"which to print (default: all); "
             f"choices: {', '.join(_EXPERIMENTS)}")
    report.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each experiment's output to DIR/<name>.txt")

    seccomp = sub.add_parser(
        "seccomp", help="generate a seccomp policy for a package")
    seccomp.add_argument("package", help="package name")

    evaluate = sub.add_parser(
        "evaluate", help="weighted completeness of a syscall list")
    evaluate.add_argument(
        "syscalls", help="comma-separated supported syscall names, "
                         "or @file with one name per line")

    sub.add_parser("packages", help="list synthesized packages")

    trace = sub.add_parser(
        "trace", help="dynamically execute a package's binary and "
                      "print its syscall trace (strace-like)")
    trace.add_argument("package", help="package name")
    trace.add_argument("--limit", type=int, default=40,
                       help="events to print")

    identify = sub.add_parser(
        "identify", help="identify a package from an observed "
                         "syscall list (footprint signatures, §6)")
    identify.add_argument(
        "syscalls", help="comma-separated observed syscall names, "
                         "or @file with one name per line")

    disasm = sub.add_parser(
        "disasm", help="disassemble a package's first executable")
    disasm.add_argument("package", help="package name")
    disasm.add_argument("--limit", type=int, default=60,
                        help="instructions to print")

    drift = sub.add_parser(
        "drift", help="simulate a later release and diff API usage")
    drift.add_argument("--shift", type=float, default=0.35,
                       help="fraction of legacy-API users migrated")

    cache = sub.add_parser(
        "cache", help="inspect or clear the analysis record cache "
                      "(requires --cache-dir)")
    cache.add_argument("action", choices=("stats", "clear"),
                       help="stats: entries/size; clear: delete all "
                            "cached records")

    dataset = sub.add_parser(
        "dataset", help="inspect, export, or convert the interned "
                        "footprint dataset behind every metric")
    dataset.add_argument("action",
                         choices=("stats", "export", "convert"),
                         help="stats: per-dimension universe sizes; "
                              "export: write the study's snapshot; "
                              "convert: transcode an existing "
                              "snapshot between JSON and .rsnap "
                              "(no analysis run)")
    dataset.add_argument("--out", metavar="PATH", default=None,
                         help="destination (default: dataset.json / "
                              "dataset.rsnap by --format)")
    dataset.add_argument("--in", dest="input", metavar="PATH",
                         default=None,
                         help="convert source: a JSON or .rsnap "
                              "snapshot (format is sniffed)")
    dataset.add_argument("--format", choices=("json", "binary"),
                         default=None,
                         help="output format (default: inferred from "
                              "--out suffix; export falls back to "
                              "json, convert to the opposite of the "
                              "input format)")

    series = sub.add_parser(
        "series", help="build and query a longitudinal multi-release "
                       "dataset series (.rser: one base snapshot + "
                       "per-release deltas)")
    series.add_argument("action", choices=("build", "stats", "diff"),
                        help="build: evolve a paper-scale corpus over "
                             "N releases and write a .rser; stats: "
                             "shape and storage economics; diff: what "
                             "changed between two releases")
    series.add_argument("--releases", type=int, default=10,
                        metavar="N",
                        help="releases to evolve (build; default: 10)")
    series.add_argument("--scale", type=float, default=0.01,
                        metavar="F",
                        help="paper-scale fraction for the base corpus "
                             "(build; default: 0.01)")
    series.add_argument("--out", metavar="PATH", default="series.rser",
                        help="build destination "
                             "(default: series.rser)")
    series.add_argument("--in", dest="input", metavar="PATH",
                        default=None,
                        help="existing .rser to inspect (stats/diff; "
                             "default: --out)")
    series.add_argument("--from", dest="diff_from", type=int,
                        default=0, metavar="K",
                        help="diff baseline release (default: 0)")
    series.add_argument("--to", dest="diff_to", type=int, default=None,
                        metavar="K",
                        help="diff target release (default: newest)")
    series.add_argument("--dimension", default="syscall",
                        help="API dimension to diff "
                             "(default: syscall)")
    series.add_argument("--weighted", action="store_true",
                        help="diff popcon-weighted importance instead "
                             "of package-count usage")
    series.add_argument("--limit", type=int, default=10, metavar="N",
                        help="risers/fallers to print (default: 10)")
    series.add_argument("--deps", action="store_true",
                        help="stats: also materialize every release "
                             "and report per-release drift of virtual "
                             "packages, provider edges, and "
                             "alternative groups")

    serve = sub.add_parser(
        "serve", help="keep the analyzed dataset warm behind an HTTP "
                      "query API (importance, completeness, advisor, "
                      "...)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port; 0 lets the kernel pick "
                            "(default: 8000)")
    serve.add_argument("--workers", type=_job_count, default=1,
                       metavar="N",
                       help="worker processes; N>1 pre-forks N "
                            "workers sharing one port (SO_REUSEPORT "
                            "where available, inherited socket "
                            "otherwise), each mmap-loading the same "
                            ".rsnap snapshot; SIGHUP hot-reloads the "
                            "snapshot across the fleet (default: 1)")
    serve.add_argument("--cache-entries", type=int, default=1024,
                       metavar="N",
                       help="result-cache capacity (default: 1024)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="result-cache time-to-live "
                            "(default: no TTL)")
    serve.add_argument("--concurrency", type=int, default=0,
                       metavar="N",
                       help="execution slots; 0 means --jobs when "
                            "--jobs > 1, else 8 (default: 0)")
    serve.add_argument("--max-wait-ms", type=int, default=250,
                       metavar="MS",
                       help="bounded wait for a slot before shedding "
                            "with 429 (default: 250)")
    serve.add_argument("--deadline-ms", type=int, default=2000,
                       metavar="MS",
                       help="per-request compute budget; 0 disables "
                            "(default: 2000)")
    serve.add_argument("--no-reload", action="store_true",
                       help="disable the POST /admin/reload endpoint")
    serve.add_argument("--series", metavar="PATH", default=None,
                       help="serve a .rser release train instead of "
                            "analyzing a corpus: ?release= time-travel "
                            "queries plus /v1/trend/* and "
                            "/v1/release/diff (no analysis run)")
    serve.add_argument("--tenant", metavar="NAME=PATH",
                       action="append", default=None,
                       help="mount an extra snapshot or series under "
                            "?tenant=NAME (repeatable); each tenant "
                            "hot-reloads independently")
    return parser


def _study_for(args: argparse.Namespace) -> Study:
    return Study.default(EcosystemConfig(
        n_filler_packages=args.fillers,
        n_driver_packages=args.drivers,
        n_script_packages=args.scripts,
        seed=args.seed,
    ), jobs=args.jobs, cache_dir=args.cache_dir,
       strict=args.strict, max_failures=args.max_failures)


def _export_observability(study: Study,
                          args: argparse.Namespace) -> None:
    """Honor ``--trace-out`` / ``--metrics-out`` for the study run."""
    if not (args.trace_out or args.metrics_out):
        return
    from .obs import write_metrics, write_trace
    stats = study.result.engine_stats
    if args.trace_out:
        count = write_trace(
            args.trace_out, stats.tracer.finished(),
            meta={"backend": stats.backend, "jobs": stats.jobs})
        print(f"trace written to {args.trace_out} ({count} spans)",
              file=sys.stderr)
    if args.metrics_out:
        write_metrics(args.metrics_out, stats.registry)
        print(f"metrics written to {args.metrics_out}",
              file=sys.stderr)


_DEFAULT_OUT = {"json": "dataset.json", "binary": "dataset.rsnap"}


def _format_for(path: Optional[str],
                fallback: Optional[str] = None) -> Optional[str]:
    """Infer a snapshot format from a destination suffix."""
    if path is None:
        return fallback
    return "binary" if path.endswith(".rsnap") else (
        "json" if path.endswith(".json") else fallback)


def _convert_dataset(args: argparse.Namespace) -> int:
    """``dataset convert``: transcode JSON <-> ``.rsnap`` in place.

    No ecosystem build or analysis runs; the snapshot is the sole
    input.  The source format is sniffed from its first bytes, and
    either direction round-trips bit-identically (the formats persist
    the same interned state).
    """
    import pathlib

    from .dataset.codec import (dataset_from_json, dataset_to_json,
                                footprints_fingerprint)
    from .store import load_snapshot, sniff_format, write_snapshot
    if not args.input:
        print("dataset convert requires --in", file=sys.stderr)
        return EXIT_USAGE
    source = pathlib.Path(args.input)
    with source.open("rb") as handle:
        head = handle.read(8)
    in_format = ("binary" if sniff_format(head) == "rsnap"
                 else "json")
    out_format = args.format or _format_for(
        args.out, "json" if in_format == "binary" else "binary")
    if in_format == "binary":
        dataset = load_snapshot(source)
        fingerprint = dataset.source_fingerprint
    else:
        dataset = dataset_from_json(
            source.read_text(encoding="utf-8"))
        fingerprint = footprints_fingerprint(dataset)
    out = args.out or _DEFAULT_OUT[out_format]
    if out_format == "binary":
        written = write_snapshot(out, dataset, fingerprint)
    else:
        text = dataset_to_json(dataset)
        pathlib.Path(out).write_text(text, encoding="utf-8")
        written = len(text)
    print(f"converted {source} ({in_format}) -> {out} "
          f"({out_format}, {written} bytes, "
          f"fingerprint {fingerprint[:12]})")
    return EXIT_OK


def _series_command(args: argparse.Namespace) -> int:
    """``series build|stats|diff``: the longitudinal surface.

    ``build`` needs no prior analysis — it evolves a deterministic
    paper-scale corpus from the global ``--seed`` and persists it as
    one ``.rser``; ``stats`` and ``diff`` only read an existing file.
    """
    from .series import load_series, write_series

    if args.action == "build":
        from .synth import EvolutionConfig, evolve_corpus
        from .synth.paper import PaperScaleConfig
        if args.releases < 1:
            print("series build requires --releases >= 1",
                  file=sys.stderr)
            return EXIT_USAGE
        config = EvolutionConfig(
            n_releases=args.releases,
            base=PaperScaleConfig.at_scale(args.scale,
                                           seed=args.seed),
            seed=args.seed)
        ecosystem = evolve_corpus(config)
        written = write_series(args.out, ecosystem.datasets())
        series = load_series(args.out)
        stats = series.stats()
        print(f"series written to {args.out}: "
              f"{stats['n_releases']} releases, "
              f"{stats['n_packages'][0]} -> {stats['n_packages'][-1]} "
              f"packages, {written} bytes "
              f"(base {stats['base_bytes']}, "
              f"deltas {stats['delta_bytes']})")
        print(f"series fingerprint {stats['series_fingerprint'][:12]}")
        return EXIT_OK

    source = args.input or args.out
    series = load_series(source)
    if args.action == "stats":
        stats = series.stats()
        print(f"series file      : {source}")
        print(f"fingerprint      : {stats['series_fingerprint']}")
        print(f"releases         : {stats['n_releases']}")
        print(f"packages         : {stats['n_packages'][0]} -> "
              f"{stats['n_packages'][-1]}")
        print(f"file size        : {stats['file_size']} bytes")
        print(f"base snapshot    : {stats['base_bytes']} bytes")
        print(f"delta payload    : {stats['delta_bytes']} bytes")
        for release, size in sorted(
                stats["delta_bytes_per_release"].items()):
            print(f"  delta r{release:<4} : {size} bytes")
        if args.deps:
            print("dependency semantics drift:")
            for row in series.dependency_drift():
                print(f"  r{row['release']:<4} "
                      f"virtuals={row['n_virtual_packages']} "
                      f"provider_edges={row['n_provider_edges']} "
                      f"alternative_groups="
                      f"{row['n_alternative_groups']}")
        return EXIT_OK

    # diff
    to = (series.n_releases - 1 if args.diff_to is None
          else args.diff_to)
    diff = series.release_diff(args.diff_from, to,
                               dimension=args.dimension,
                               weighted=args.weighted)
    kind = "importance" if args.weighted else "usage"
    print(f"release {args.diff_from} -> {to} "
          f"({args.dimension} {kind}, "
          f"noise floor {diff.noise_floor:.0%})")
    for title, deltas in (("risers", diff.risers(args.limit)),
                          ("fallers", diff.fallers(args.limit))):
        print(f"{title}:")
        if not deltas:
            print("  (none above the noise floor)")
        for delta in deltas:
            print(f"  {delta.api:<24} {delta.before:>8.2%} -> "
                  f"{delta.after:>8.2%}  ({delta.delta:+.2%})")
    migrated = diff.migrated_pairs()
    if migrated:
        print("migrations in progress:")
        for verdict in migrated:
            print(f"  {verdict.legacy} -> {verdict.preferred} "
                  f"({verdict.legacy_delta:+.2%} / "
                  f"{verdict.preferred_delta:+.2%})")
    return EXIT_OK


def _parse_tenants(specs: Optional[List[str]]) -> Dict[str, str]:
    """``--tenant NAME=PATH`` flags -> an ordered mapping."""
    tenants: Dict[str, str] = {}
    for spec in specs or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ValueError(
                f"--tenant expects NAME=PATH, got {spec!r}")
        if name in tenants:
            raise ValueError(f"duplicate tenant name {name!r}")
        tenants[name] = path
    return tenants


def _read_syscall_list(spec: str) -> List[str]:
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as handle:
            return [line.strip() for line in handle
                    if line.strip() and not line.startswith("#")]
    return [name.strip() for name in spec.split(",") if name.strip()]


def _serve_concurrency(args: argparse.Namespace) -> int:
    concurrency = args.concurrency
    if concurrency <= 0:
        concurrency = args.jobs if args.jobs > 1 else 8
    return concurrency


def _serve(study: Optional[Study], args: argparse.Namespace) -> int:
    """Run the long-lived query server until SIGINT/SIGTERM.

    SIGINT propagates as ``KeyboardInterrupt`` and exits 130 (the
    interrupt taxonomy); SIGTERM drains in-flight requests and exits
    0 — both paths stop accepting, join handler threads, and close
    the socket before returning.
    """
    import signal
    import threading

    try:
        tenants = _parse_tenants(args.tenant)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    if args.workers > 1:
        return _serve_multiworker(study, args, tenants)

    from .serve import (ServeApp, SnapshotHolder, SnapshotRegistry,
                        ThreadingTransport)
    if args.series is not None:
        registry = SnapshotRegistry.from_files(args.series,
                                               tenants=tenants)
    else:
        registry = SnapshotRegistry.of(SnapshotHolder(study.dataset))
        for name, path in tenants.items():
            registry.add(name, SnapshotHolder.from_file(path))
    app = ServeApp(
        registry,
        cache_entries=args.cache_entries,
        cache_ttl_seconds=args.cache_ttl,
        concurrency=_serve_concurrency(args),
        max_wait_seconds=args.max_wait_ms / 1000.0,
        deadline_seconds=(args.deadline_ms / 1000.0
                          if args.deadline_ms > 0 else None),
        allow_reload=not args.no_reload)
    server = ThreadingTransport(app, host=args.host, port=args.port,
                                quiet=True)
    # Handler before the announce line: anyone scripting against the
    # announce may signal immediately after reading it, and the
    # default disposition would kill us mid-boot.
    terminated = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: terminated.set())
    if args.series is not None:
        # File-backed serving gets the same SIGHUP hot-reload verb as
        # the pre-fork fleet; the handler thread keeps the accept loop
        # responsive and a failed reload keeps the old generation.
        def _hup(*_):
            threading.Thread(target=_quiet_reload, args=(app,),
                             name="repro-serve-reload",
                             daemon=True).start()
        signal.signal(signal.SIGHUP, _hup)
    server.start()
    snapshot = app.holder.current()
    what = (f"{snapshot.n_releases} releases"
            if hasattr(snapshot, "n_releases")
            else f"{snapshot.packages} packages")
    if tenants:
        what += f" (+{len(tenants)} tenants)"
    print(f"serving {what} "
          f"(fingerprint {snapshot.fingerprint[:12]}) "
          f"on {server.url}", flush=True)
    try:
        # Timed wait so a signal delivered to a serving thread is
        # still handled promptly: the Python-level handler only runs
        # once the main thread wakes up.
        while not terminated.wait(0.2):
            pass
    finally:
        server.stop()
    return EXIT_OK


def _quiet_reload(app) -> None:
    """Best-effort reload for signal handlers (old snapshot survives)."""
    try:
        app.reload_from_source()
    except Exception as exc:
        print(f"reload failed: {exc}", file=sys.stderr, flush=True)


def _serve_multiworker(study: Optional[Study],
                       args: argparse.Namespace,
                       tenants: Dict[str, str]) -> int:
    """Pre-fork serving: supervisor + N workers over shared files.

    The dataset is exported once as a ``.rsnap`` into a scratch
    directory (a ``--series`` file is used in place, no export);
    every worker mmaps those same bytes, so the corpus occupies the
    page cache once regardless of fleet size.  SIGHUP fans a hot
    reload of every source-bound tenant out to every worker.
    """
    import os
    import shutil
    import signal
    import tempfile
    import threading

    from .serve import WorkerSettings, WorkerSupervisor

    scratch = None
    if args.series is not None:
        snapshot_path = args.series
        popcon = repository = None
        what = "release train"
    else:
        scratch = tempfile.mkdtemp(prefix="repro-serve-")
        snapshot_path = os.path.join(scratch, "dataset.rsnap")
        study.export_dataset(snapshot_path, format="binary")
        popcon, repository = study.popcon, study.repository
        what = f"{len(study.dataset.packages)} packages"
    if tenants:
        what += f" (+{len(tenants)} tenants)"
    supervisor = WorkerSupervisor(
        snapshot_path, workers=args.workers,
        host=args.host, port=args.port,
        popcon=popcon, repository=repository,
        settings=WorkerSettings(
            cache_entries=args.cache_entries,
            cache_ttl_seconds=args.cache_ttl,
            concurrency=_serve_concurrency(args),
            max_wait_seconds=args.max_wait_ms / 1000.0,
            deadline_seconds=(args.deadline_ms / 1000.0
                              if args.deadline_ms > 0 else None)),
        tenants=tenants,
        quiet=True)
    terminated = threading.Event()
    try:
        supervisor.start()
        supervisor.wait_until_ready()
        signal.signal(signal.SIGTERM, lambda *_: terminated.set())
        signal.signal(signal.SIGHUP,
                      lambda *_: supervisor.reload_all())
        print(f"serving {what} "
              f"({supervisor.mode}, {args.workers} workers) "
              f"on {supervisor.url}", flush=True)
        # Timed wait keeps the main thread responsive to SIGTERM and
        # SIGHUP even when the kernel hands the signal to another
        # thread (the Python handler runs in the main thread only).
        while not terminated.wait(0.2):
            pass
    finally:
        supervisor.stop()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and run, mapping failures onto the exit-code taxonomy.

    Argparse usage errors keep their conventional exit status 2;
    interrupts exit 130 with a one-line notice instead of a traceback;
    analysis faults and I/O errors exit 1 with the error message.
    """
    try:
        return _run(argv)
    except SystemExit as exc:  # argparse --help / usage errors
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not our failure, but
        # the output is incomplete.
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:
        from .engine.errors import classify_exception
        fault = classify_exception(exc, stage="cli")
        print(f"error ({fault.error_class}): {fault.message}",
              file=sys.stderr)
        return EXIT_FAILURE


def _run(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "cache":
        # Pure cache maintenance: no ecosystem build, no analysis.
        from .engine import ANALYSIS_VERSION, AnalysisCache
        if not args.cache_dir:
            print("the cache command requires --cache-dir",
                  file=sys.stderr)
            return 2
        cache = AnalysisCache(args.cache_dir)
        if args.action == "stats":
            print(f"cache directory  : {args.cache_dir}")
            print(f"analysis version : {ANALYSIS_VERSION}")
            print(f"cached records   : {cache.entry_count()}")
            print(f"size             : {cache.size_bytes()} bytes")
        else:
            print(f"removed {cache.clear()} cached records")
        return 0

    if args.command == "dataset" and args.action == "convert":
        # Pure snapshot transcoding: no ecosystem build, no analysis.
        return _convert_dataset(args)

    if args.command == "series":
        # Longitudinal series work is file/synth-backed: no analysis.
        return _series_command(args)

    if args.command == "serve" and args.series is not None:
        # Serving a prebuilt release train: no analysis run either.
        return _serve(None, args)

    study = _study_for(args)
    # The analysis ran inside the Study constructor, so the trace and
    # metrics are complete here whatever the subcommand does next.
    _export_observability(study, args)

    if args.command == "serve":
        return _serve(study, args)

    if args.command == "report":
        names = args.experiments or list(_EXPERIMENTS)
        unknown = [n for n in names if n not in _EXPERIMENTS]
        if unknown:
            print(f"unknown experiments: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        save_dir = None
        if args.save:
            import pathlib
            save_dir = pathlib.Path(args.save)
            save_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            output = getattr(study, _EXPERIMENTS[name])()
            print(output.rendered)
            print()
            if save_dir is not None:
                (save_dir / f"{name}.txt").write_text(
                    output.rendered + "\n", encoding="utf-8")
        return 0

    if args.command == "dataset":
        if args.action == "stats":
            print(study.dataset_report().rendered)
        else:
            out_format = args.format or _format_for(args.out, "json")
            path = args.out or _DEFAULT_OUT[out_format]
            written = study.export_dataset(path, format=out_format)
            print(f"dataset snapshot written to {path} "
                  f"({out_format}, {written} bytes)")
        return 0

    if args.command == "seccomp":
        if args.package not in study.repository:
            print(f"unknown package: {args.package}", file=sys.stderr)
            return 2
        print(study.seccomp_policy(args.package).rendered)
        return 0

    if args.command == "evaluate":
        supported = _read_syscall_list(args.syscalls)
        completeness = weighted_completeness(
            supported, study.footprints, study.popcon,
            study.repository)
        print(f"supported syscalls : {len(supported)}")
        print(f"weighted completeness : {completeness:.4%}")
        return 0

    if args.command == "trace":
        if args.package not in study.repository:
            print(f"unknown package: {args.package}", file=sys.stderr)
            return 2
        trace = study.trace_package(args.package)
        print(trace.render(limit=args.limit))
        print(f"({len(trace.events)} events, "
              f"{trace.instructions_executed} instructions, "
              f"{len(trace.syscall_set())} distinct syscalls)")
        return 0

    if args.command == "identify":
        observed = _read_syscall_list(args.syscalls)
        index = study.signature_index()
        result = index.identify(observed)
        if result.exact:
            print(f"exact match: {result.exact}")
        elif result.exact_matches:
            print("exact signature shared by: "
                  + ", ".join(result.exact_matches))
        elif result.candidates:
            print("candidates (best first): "
                  + ", ".join(result.candidates))
        else:
            print("no package covers this observation")
        return 0

    if args.command == "disasm":
        from .analysis.binary import BinaryAnalysis
        from .x86.decoder import linear_sweep
        if args.package not in study.repository:
            print(f"unknown package: {args.package}", file=sys.stderr)
            return 2
        package = study.repository.get(args.package)
        elf_exes = [a for a in package.executables() if a.is_elf]
        if not elf_exes:
            print("package has no ELF executable", file=sys.stderr)
            return 2
        analysis = BinaryAnalysis.from_bytes(elf_exes[0].data)
        print(f"; {args.package}:{elf_exes[0].name}  "
              f"entry={analysis.entry_root():#x}  "
              f"needed={analysis.needed}")
        plt = analysis.elf.plt_map()
        count = 0
        for insn in linear_sweep(analysis.elf.text(),
                                 analysis.elf.text_vaddr()):
            note = ""
            if insn.target in plt:
                note = f"   ; -> {plt[insn.target]}@plt"
            print(f"{insn.address:#010x}  {insn.mnemonic()}{note}")
            count += 1
            if count >= args.limit:
                print("...")
                break
        return 0

    if args.command == "drift":
        from .metrics import UsageDiff
        from .syscalls.table import ALL_NAMES
        # Sharing --cache-dir between the two releases makes this the
        # paper's §2.4 incremental workflow: only binaries whose bytes
        # changed between releases are re-analyzed.
        future = Study.default(EcosystemConfig(
            n_filler_packages=args.fillers,
            n_driver_packages=args.drivers,
            n_script_packages=args.scripts,
            seed=args.seed,
            adoption_shift=args.shift,
        ), jobs=args.jobs, cache_dir=args.cache_dir,
           strict=args.strict, max_failures=args.max_failures)
        diff = UsageDiff(
            study.usage("syscall", universe=ALL_NAMES),
            future.usage("syscall", universe=ALL_NAMES))
        print(f"Release diff at {args.shift:.0%} migration")
        print("\nAPIs gaining users:")
        for delta in diff.risers(8):
            print(f"  {delta.api:16s} {delta.before:7.2%} -> "
                  f"{delta.after:7.2%}  ({delta.delta:+.2%})")
        print("\nAPIs losing users:")
        for delta in diff.fallers(8):
            print(f"  {delta.api:16s} {delta.before:7.2%} -> "
                  f"{delta.after:7.2%}  ({delta.delta:+.2%})")
        migrated = diff.migrated_pairs()
        print(f"\nmigrations detected: "
              f"{', '.join(v.legacy + '->' + v.preferred for v in migrated)}")
        return 0

    if args.command == "packages":
        for package in sorted(study.repository,
                              key=lambda p: p.name):
            probability = study.popcon.install_probability(package.name)
            print(f"{package.name:32s} {package.category:12s} "
                  f"installs={probability:.4f} "
                  f"artifacts={len(package.artifacts)}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
