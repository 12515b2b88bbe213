"""Command line interface: ``repro-cache``.

Subcommands mirror the library's two halves:

* ``list-processors`` / ``list-policies`` — inventory;
* ``infer`` — reverse engineer one cache of a simulated processor;
* ``evaluate`` — miss-ratio table of policies over the workload suite;
* ``bench`` — the same grid as a timed throughput benchmark (``--jobs``);
* ``predictability`` — evict/fill metrics table;
* ``query`` — run one CacheQuery-notation access sequence;
* ``trace`` — replay/filter a JSONL trace file written by ``--trace``;
* ``cache`` — inspect/warm/clear the on-disk automaton store;
* ``db`` — inspect/clear/export the persistent measurement database;
* ``report`` — summarize or diff ``*.ledger.json`` run manifests;
* ``history`` — ingest/check/inspect the run-history database
  (``history ingest benchmarks/results/`` backfills, ``history check``
  is the perf-regression exit-code gate);
* ``dash`` — render the static HTML observability dashboard.

The measurement-driving subcommands accept ``--trace FILE`` (stream
structured events to a JSONL file) and ``--metrics FILE`` (write an
ExperimentResult metrics sidecar plus a ``*.ledger.json`` run manifest
next to it); see OBSERVABILITY.md.  ``--metrics`` composes with the
compiled kernel — only ``--trace`` (which wants per-access events)
routes simulation through the interpreter.  ``--cache-dir DIR`` (spelled
``--dir`` on ``cache``/``db``/``history``/``dash``) points every
persistent store — compiled automata, the measurement DB and the run
history — at one directory; ``infer --db`` persists measurements so a
warm rerun reports ``db.miss == 0`` in its ledger.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.cache import CacheConfig
from repro.core import SimulatedSetOracle, VotingOracle, reverse_engineer, run_query
from repro.core.query import QueryResult
from repro.errors import ReproError, TraceFormatError
from repro.eval.missratio import miss_ratio_matrix
from repro.eval.predictability import predictability_of_policy
from repro.hardware import (
    PROCESSORS,
    HardwarePlatform,
    HardwareSetOracle,
    NoiseModel,
    get_processor,
)
from repro.kernels import (
    kernel_enabled,
    set_kernel_enabled,
    set_vector_enabled,
    vector_enabled,
)
from repro.obs import (
    DEFAULT,
    ExperimentResult,
    JsonlWriter,
    Tracer,
    filter_events,
    format_event,
    install,
    read_jsonl,
    uninstall,
)
from repro.obs import ledger as obs_ledger
from repro.obs import spans as obs_spans
from repro.policies import available, default_policies, get
from repro.runner import ExperimentRunner, clear_memo
from repro.util.tables import format_table
from repro.workloads import workload_suite


def _cmd_list_processors(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(PROCESSORS):
        spec = PROCESSORS[name]
        levels = "; ".join(level.config.describe() for level in spec.levels)
        rows.append([name, spec.description, levels])
    print(format_table(["processor", "description", "levels"], rows))
    return 0


def _cmd_list_policies(args: argparse.Namespace) -> int:
    for name in available():
        print(name)
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    spec = get_processor(args.processor)
    if args.noise > 0:
        spec = type(spec)(
            name=spec.name,
            description=spec.description,
            levels=spec.levels,
            page_size=spec.page_size,
            noise=NoiseModel(counter_noise_rate=args.noise),
        )
    platform = HardwarePlatform(spec, seed=args.seed)
    oracle = HardwareSetOracle(platform, args.level)
    if args.repetitions > 1:
        oracle = VotingOracle(oracle, repetitions=args.repetitions)
    if args.db:
        from repro import measuredb

        wrapped = measuredb.wrap_if_enabled(oracle)
        if wrapped is oracle:
            print(
                "note: oracle reports no provenance (noisy platform?); "
                "measurement DB not used",
                file=sys.stderr,
            )
        oracle = wrapped
    finding = reverse_engineer(oracle)
    print(f"processor : {spec.name}")
    print(f"level     : {args.level} ({platform.level_config(args.level).describe()})")
    print(f"finding   : {finding.summary()}")
    print(f"cost      : {finding.measurements} measurements, {finding.accesses} accesses")
    if finding.spec is not None:
        print(finding.spec.describe())
    if args.check:
        truth = spec.ground_truth[args.level]
        ok = finding.policy_name == truth
        print(f"ground truth: {truth} -> {'MATCH' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = CacheConfig("eval", args.size, args.ways, args.line_size)
    cache_lines = config.num_sets * config.ways
    traces = workload_suite(cache_lines, seed=args.seed)
    policies = args.policies.split(",")
    matrix = miss_ratio_matrix(traces, config, policies, seed=args.seed,
                               jobs=args.jobs)
    print(format_table(["workload"] + matrix.policies(), matrix.rows(),
                       title=f"miss ratios @ {config.describe()}"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Timed run of the evaluation grid through the experiment runner."""
    config = CacheConfig("bench", args.size, args.ways, args.line_size)
    cache_lines = config.num_sets * config.ways
    traces = workload_suite(cache_lines, seed=args.seed)
    policies = args.policies.split(",")
    rows = []
    matrix = None
    for repetition in range(args.repeat):
        clear_memo()  # time real simulation work, not cache hits
        runner = ExperimentRunner(
            jobs=args.jobs,
            reuse_pool=not args.fresh_pool,
            start_method=args.start_method,
        )
        start = time.perf_counter()
        matrix = miss_ratio_matrix(
            traces, config, policies, seed=args.seed, runner=runner
        )
        elapsed = time.perf_counter() - start
        cells = len(matrix.cells)
        mode = f"jobs={args.jobs}" if args.jobs and args.jobs > 1 else "serial"
        rows.append(
            [
                repetition + 1,
                mode,
                cells,
                f"{elapsed:.3f}",
                f"{cells / elapsed:.1f}" if elapsed else "-",
            ]
        )
    print(format_table(
        ["run", "mode", "cells", "seconds", "cells/s"],
        rows,
        title=f"runner throughput @ {config.describe()}",
    ))
    if args.show_matrix and matrix is not None:
        print(format_table(["workload"] + matrix.policies(), matrix.rows(),
                           title="miss ratios"))
    return 0


def _cmd_predictability(args: argparse.Namespace) -> int:
    rows = []
    for name in args.policies.split(","):
        policy = get(name, args.ways)
        try:
            result = predictability_of_policy(name, policy)
        except ReproError as error:
            rows.append([name, args.ways, "-", "-", str(error)])
            continue
        rows.append(
            [
                name,
                args.ways,
                result.evict if result.evict is not None else "unbounded",
                result.fill if result.fill is not None else "unbounded",
                "",
            ]
        )
    print(format_table(["policy", "ways", "evict", "fill", "note"], rows))
    return 0


def format_query_result(result: QueryResult) -> str:
    """Render a structured query result as the classic one-line report."""
    return " ".join(
        f"{outcome.name}={'hit' if outcome.hit else 'miss'}"
        for outcome in result.outcomes
    )


def _cmd_query(args: argparse.Namespace) -> int:
    if args.processor:
        platform = HardwarePlatform(get_processor(args.processor), seed=args.seed)
        oracle = HardwareSetOracle(platform, args.level)
    else:
        oracle = SimulatedSetOracle(get(args.policy, args.ways))
    print(format_query_result(run_query(oracle, args.sequence)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Replay a JSONL trace file: filter, print, summarise."""
    try:
        events = read_jsonl(args.file)
    except OSError as error:
        raise TraceFormatError(f"cannot read trace file: {error}") from error
    where = {}
    for clause in args.where:
        if "=" not in clause:
            raise TraceFormatError(
                f"bad --where clause {clause!r}; expected field=value"
            )
        key, value = clause.split("=", 1)
        where[key] = value
    selected = filter_events(
        events, kinds=args.kind or None, where=where or None, limit=args.limit
    )
    if args.summary:
        counts: dict[str, int] = {}
        for event in selected:
            kind = str(event.get("kind", "?"))
            counts[kind] = counts.get(kind, 0) + 1
        rows = [[kind, counts[kind]] for kind in sorted(counts)]
        rows.append(["total", len(selected)])
        print(format_table(["kind", "events"], rows, title=f"trace {args.file}"))
    else:
        for event in selected:
            print(format_event(event))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Summarize or diff run ledgers written next to metrics sidecars."""
    ledgers = []
    for path in args.files:
        # Every malformed input degrades to a one-line error + exit 2
        # (via ReproError in main) — never a traceback: missing file,
        # truncated JSON, JSON that is not a ledger document.
        try:
            ledgers.append(obs_ledger.read_ledger(path))
        except OSError as error:
            raise ReproError(f"cannot read ledger {path}: {error}") from error
        except ValueError as error:
            raise ReproError(
                f"{path} is not a ledger: invalid JSON ({error})"
            ) from error
        except ReproError as error:
            raise ReproError(f"{path} is not a ledger: {error}") from error
    if args.diff:
        if len(ledgers) != 2:
            raise ReproError("--diff needs exactly two ledger files")
        print(obs_ledger.diff_ledgers(ledgers[0], ledgers[1]))
        return 0
    status = 0
    for index, ledger in enumerate(ledgers):
        if index:
            print()
        print(obs_ledger.format_ledger(ledger))
        if args.against_history:
            from repro.obs import regress as obs_regress

            verdicts = obs_regress.check_run(
                ledger, baseline_ref=args.baseline
            )
            print()
            print(obs_regress.format_verdicts(
                verdicts, title=f"{ledger.name} vs history"
            ))
            if any(verdict.status == "fail" for verdict in verdicts):
                status = 1
    return status


def _add_obs_options(command: argparse.ArgumentParser) -> None:
    """Attach the shared observability options to one subcommand."""
    command.add_argument(
        "--trace", metavar="FILE", default=None, dest="trace_file",
        help="stream structured events to a JSONL trace file",
    )
    command.add_argument(
        "--metrics", metavar="FILE", default=None, dest="metrics_file",
        help="write an ExperimentResult metrics sidecar (JSON)",
    )


def _add_kernel_options(command: argparse.ArgumentParser) -> None:
    """Attach the compiled-kernel switch to one simulation subcommand."""
    group = command.add_mutually_exclusive_group()
    group.add_argument(
        "--kernel", dest="kernel", action="store_true", default=True,
        help="use the compiled simulation kernel where possible (default)",
    )
    group.add_argument(
        "--no-kernel", dest="kernel", action="store_false",
        help="force the interpreted simulator (reference path)",
    )
    command.add_argument(
        "--no-vector", dest="vector", action="store_false", default=True,
        help="keep the scalar kernel engines even when numpy is available",
    )


def _add_cache_options(
    command: argparse.ArgumentParser, flag: str = "--cache-dir"
) -> None:
    """Attach the one persistent-store directory option."""
    command.add_argument(
        flag, metavar="DIR", default=None, dest="cache_dir",
        help="directory of every persistent store — compiled automata, "
        "the measurement DB and the run history (default: "
        "$REPRO_CACHE_DIR or ./.repro-cache)",
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.kernels import store

    if args.action == "stats":
        info = store.stats()
        rows = [
            [
                entry["file"],
                entry["schema"],
                "yes" if entry["current"] else "stale",
                entry["bytes"],
            ]
            for entry in info["artifacts"]
        ]
        print(
            format_table(
                ["artifact", "schema", "current", "bytes"],
                rows,
                title=f"automaton store @ {info['dir']}",
            )
        )
        print(
            f"entries: {info['entries']} ({info['stale_entries']} stale), "
            f"total {info['total_bytes']} bytes, "
            f"schema v{info['schema_version']}"
        )
        from repro.kernels import numpy_available

        print("numpy", "available (vector engine)" if numpy_available()
              else "absent (scalar only)")
        return 0
    if args.action == "clear":
        removed = store.clear(stale_only=args.stale_only)
        which = "stale " if args.stale_only else ""
        print(f"removed {removed} {which}artifact(s) from {store.cache_dir()}")
        return 0
    # warm: resolve + persist each policy's automaton.
    names = args.policies.split(",") if args.policies else available()
    report = store.warm((name, (), args.ways) for name in names)
    rows = [
        [
            entry["policy"],
            entry["ways"],
            entry["status"],
            entry["states"],
            f"{entry['seconds']:.3f}",
        ]
        for entry in report
    ]
    print(
        format_table(
            ["policy", "ways", "status", "states", "seconds"],
            rows,
            title=f"cache warm @ {store.cache_dir()}",
        )
    )
    persisted = sum(1 for entry in report if entry["status"] == "persisted")
    print(f"persisted {persisted}/{len(report)} automata")
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    import json

    from repro import measuredb

    if args.action == "stats":
        info = measuredb.stats()
        rows = [[entry["scope"], entry["rows"]] for entry in info["scopes"]]
        print(
            format_table(
                ["scope", "rows"],
                rows,
                title=f"measurement DB @ {info['path']}",
            )
        )
        print(
            f"rows: {info['total_rows']} in {len(info['scopes'])} scope(s), "
            f"total {info['total_bytes']} bytes, "
            f"schema v{info['schema_version']}, "
            f"{'enabled' if info['enabled'] else 'disabled'}"
        )
        return 0
    if args.action == "clear":
        removed = measuredb.clear(args.scope)
        which = f"scope {args.scope!r}" if args.scope else "all scopes"
        print(f"removed {removed} row(s) ({which}) from {measuredb.db_path()}")
        return 0
    # export: JSON-lines rows, to stdout or --output.
    rows_iter = measuredb.export_rows(args.scope)
    if args.output:
        count = 0
        with open(args.output, "w", encoding="utf-8") as sink:
            for row in rows_iter:
                sink.write(json.dumps(row) + "\n")
                count += 1
        print(f"exported {count} row(s) to {args.output}")
    else:
        for row in rows_iter:
            print(json.dumps(row))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    """Manage the run-history database (ingest/check/stats/clear)."""
    from repro.obs import history as obs_history
    from repro.obs import regress as obs_regress

    if args.action == "ingest":
        report = obs_history.ingest_paths(args.paths)
        for path, status in report["files"]:
            print(f"{status:9s} {path}")
        for path, reason in report["errors"]:
            print(f"error: {path}: {reason}", file=sys.stderr)
        print(
            f"ingested {report['recorded']} new, "
            f"{report['duplicates']} duplicate(s), "
            f"{len(report['errors'])} error(s) "
            f"into {obs_history.history_path()}"
        )
        return 0 if not report["errors"] else 1
    if args.action == "check":
        defaults = {
            "window": obs_regress.DEFAULT_WINDOW,
            "min_samples": obs_regress.DEFAULT_MIN_SAMPLES,
            "wall_threshold": obs_regress.DEFAULT_WALL_THRESHOLD,
            "counter_threshold": obs_regress.DEFAULT_COUNTER_THRESHOLD,
        }
        knobs = {
            name: getattr(args, name) if getattr(args, name) is not None
            else value
            for name, value in defaults.items()
        }
        verdicts = obs_regress.check_history(
            experiments=args.experiment or None,
            baseline_ref=args.baseline,
            **knobs,
        )
        print(obs_regress.format_verdicts(verdicts))
        failed = sum(1 for verdict in verdicts if verdict.status == "fail")
        skipped = sum(1 for verdict in verdicts if verdict.status == "skip")
        print(
            f"checked {len(verdicts)} metric(s): "
            f"{failed} regression(s), {skipped} skipped"
        )
        if failed and args.warn_only:
            print("warn-only: regressions reported, exit suppressed",
                  file=sys.stderr)
            return 0
        return 1 if failed else 0
    if args.action == "stats":
        info = obs_history.stats()
        rows = [
            [entry["name"], entry["runs"], entry["first"], entry["latest"]]
            for entry in info["experiments"]
        ]
        print(format_table(
            ["experiment", "runs", "first", "latest"],
            rows,
            title=f"run history @ {info['path']}",
        ))
        print(
            f"runs: {info['total_runs']} across "
            f"{len(info['experiments'])} experiment(s), "
            f"{info['total_bench_points']} bench point(s), "
            f"total {info['total_bytes']} bytes, "
            f"schema v{info['schema_version']}, "
            f"{'enabled' if info['enabled'] else 'disabled'}"
        )
        return 0
    # clear
    removed = obs_history.clear()
    print(f"removed {removed} row(s) from {obs_history.history_path()}")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    """Render the static HTML observability dashboard."""
    from repro.obs import dash as obs_dash

    results_dir = args.results
    if results_dir is None:
        default = Path("benchmarks") / "results"
        results_dir = default if default.is_dir() else None
    report = obs_dash.render_dashboard(args.output, results_dir=results_dir)
    print(
        f"dashboard: {len(report['pages'])} page(s) -> {args.output} "
        f"({report['runs']} run(s), {report['experiments']} experiment(s), "
        f"{report['bench_points']} bench point(s), "
        f"{report['flagged']} flagged group(s))"
    )
    print(f"open {Path(args.output) / 'index.html'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Reverse engineer and evaluate cache replacement policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-processors", help="show the simulated processor catalog")
    sub.add_parser("list-policies", help="show the policy registry")

    infer = sub.add_parser("infer", help="reverse engineer one cache level")
    infer.add_argument("--processor", required=True, choices=sorted(PROCESSORS))
    infer.add_argument("--level", default="L1")
    infer.add_argument("--noise", type=float, default=0.0,
                       help="counter noise rate per access")
    infer.add_argument("--repetitions", type=int, default=1,
                       help="majority-vote repetitions per measurement")
    infer.add_argument("--seed", type=int, default=0)
    infer.add_argument("--check", action="store_true",
                       help="compare against the catalog ground truth")
    infer.add_argument("--db", action="store_true",
                       help="persist measurements in the measurement DB; a "
                       "warm rerun reports db.miss == 0 in its ledger")
    _add_obs_options(infer)
    _add_kernel_options(infer)
    _add_cache_options(infer)

    evaluate = sub.add_parser("evaluate", help="miss-ratio table over the workload suite")
    evaluate.add_argument("--policies", default=",".join(default_policies("eval")))
    evaluate.add_argument("--size", type=int, default=32 * 1024)
    evaluate.add_argument("--ways", type=int, default=8)
    evaluate.add_argument("--line-size", type=int, default=64)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--jobs", type=int, default=0,
                          help="worker processes for the grid (0 = serial)")
    _add_obs_options(evaluate)
    _add_kernel_options(evaluate)
    _add_cache_options(evaluate)

    bench = sub.add_parser(
        "bench",
        help="timed miss-ratio grid through the parallel experiment runner",
        description="Run the evaluate grid as a benchmark and report "
        "wall-clock throughput; compare --jobs N against the serial default.",
    )
    bench.add_argument("--policies", default=",".join(default_policies("eval")))
    bench.add_argument("--size", type=int, default=64 * 1024)
    bench.add_argument("--ways", type=int, default=8)
    bench.add_argument("--line-size", type=int, default=64)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--jobs", type=int, default=0,
                       help="worker processes for the grid (0 = serial)")
    bench.add_argument("--repeat", type=int, default=1,
                       help="repeat the timed grid this many times")
    bench.add_argument("--fresh-pool", action="store_true",
                       help="tear the worker pool down after every "
                       "repetition instead of reusing the persistent "
                       "pool (baseline for runner.pool.* comparisons)")
    bench.add_argument("--start-method", default=None,
                       choices=("fork", "spawn", "forkserver"),
                       help="multiprocessing start method for pool "
                       "workers (default: platform default)")
    bench.add_argument("--show-matrix", action="store_true",
                       help="also print the resulting miss-ratio table")
    _add_obs_options(bench)
    _add_kernel_options(bench)
    _add_cache_options(bench)

    predict = sub.add_parser("predictability", help="evict/fill metrics table")
    predict.add_argument(
        "--policies", default=",".join(default_policies("predictability"))
    )
    predict.add_argument("--ways", type=int, default=4)

    query = sub.add_parser(
        "query",
        help="run an access-sequence query (CacheQuery notation)",
        description='Example: repro-cache query --policy plru --ways 4 "a b c d 2*@ a?"',
    )
    query.add_argument("sequence", help="query string, e.g. 'a b a? c?'")
    query.add_argument("--policy", default="lru",
                       help="simulated policy to query (ignored with --processor)")
    query.add_argument("--ways", type=int, default=4)
    query.add_argument("--processor", choices=sorted(PROCESSORS), default=None,
                       help="query a catalog processor instead of a bare policy")
    query.add_argument("--level", default="L1")
    query.add_argument("--seed", type=int, default=0)
    _add_obs_options(query)
    _add_kernel_options(query)
    _add_cache_options(query)

    trace = sub.add_parser(
        "trace",
        help="replay/filter a JSONL trace written by --trace",
        description="Example: repro-cache trace run.jsonl --kind oracle. --limit 20",
    )
    trace.add_argument("file", help="JSONL trace file")
    trace.add_argument("--kind", action="append", default=[],
                       help="kind prefix filter (repeatable), e.g. 'oracle.'")
    trace.add_argument("--where", action="append", default=[], metavar="FIELD=VALUE",
                       help="field equality filter (repeatable)")
    trace.add_argument("--limit", type=int, default=None,
                       help="print at most this many events")
    trace.add_argument("--summary", action="store_true",
                       help="print per-kind event counts instead of events")

    cache = sub.add_parser(
        "cache",
        help="manage the on-disk compiled-automaton store (.repro-cache/)",
        description="Example: repro-cache cache warm --policies lru,plru "
        "--ways 8, then repro-cache cache stats",
    )
    cache.add_argument("action", choices=("stats", "warm", "clear"),
                       help="inspect, populate, or empty the artifact store")
    _add_cache_options(cache, "--dir")
    cache.add_argument("--policies", default=None,
                       help="warm: comma-separated names (default: every "
                       "registry policy; unsupported ones are reported)")
    cache.add_argument("--ways", type=int, default=8,
                       help="warm: associativity to compile at")
    cache.add_argument("--stale-only", action="store_true",
                       help="clear: only artifacts from other schema versions")

    db = sub.add_parser(
        "db",
        help="manage the persistent measurement database",
        description="Example: repro-cache db stats, then repro-cache db "
        "export --scope 'sim|policy:lru|()|ways=4' --output rows.jsonl",
    )
    db.add_argument("action", choices=("stats", "clear", "export"),
                    help="inspect, empty, or dump the measurement store")
    _add_cache_options(db, "--dir")
    db.add_argument("--scope", default=None,
                    help="restrict clear/export to one provenance scope")
    db.add_argument("--output", default=None, metavar="FILE",
                    help="export: write JSON lines here instead of stdout")

    report = sub.add_parser(
        "report",
        help="summarize or diff *.ledger.json run manifests",
        description="Example: repro-cache report --diff serial.ledger.json "
        "parallel.ledger.json",
    )
    report.add_argument("files", nargs="+", help="ledger file(s) to read")
    report.add_argument("--diff", action="store_true",
                        help="compare exactly two ledgers side by side")
    report.add_argument("--against-history", action="store_true",
                        help="also judge each ledger against its baseline "
                        "group in the run-history database (exit 1 on "
                        "regression)")
    report.add_argument("--baseline", default=None, metavar="REF",
                        help="with --against-history: pin the baseline to "
                        "runs recorded at this git revision (sha prefix)")

    history = sub.add_parser(
        "history",
        help="manage the run-history database (ingest/check/stats/clear)",
        description="Example: repro-cache history ingest benchmarks/results/ "
        "&& repro-cache history check",
    )
    _add_cache_options(history, "--dir")
    history_sub = history.add_subparsers(dest="action", required=True)
    ingest = history_sub.add_parser(
        "ingest",
        help="backfill history from ledgers and BENCH_*.json files",
        description="Directories are scanned for *.ledger.json and "
        "BENCH_*.json; re-ingesting is idempotent (content fingerprints).",
    )
    ingest.add_argument("paths", nargs="+",
                        help="ledger/BENCH files or directories of them")
    check = history_sub.add_parser(
        "check",
        help="regression-check the latest run of every baseline group",
        description="Exit 1 when any group's newest run regressed against "
        "its baseline window (median + MAD rule); groups with too little "
        "history are skipped, so a cold database passes.",
    )
    check.add_argument("--experiment", action="append", default=[],
                       metavar="NAME",
                       help="restrict to this experiment (repeatable)")
    check.add_argument("--window", type=int, default=None,
                       help="baseline window length (prior runs per group)")
    check.add_argument("--min-samples", type=int, default=None,
                       help="baseline runs required before judging")
    check.add_argument("--wall-threshold", type=float, default=None,
                       help="wall-time ratio that fails (default 1.5)")
    check.add_argument("--counter-threshold", type=float, default=None,
                       help="counter ratio that fails (default 2.0)")
    check.add_argument("--baseline", default=None, metavar="REF",
                       help="pin the baseline to runs recorded at this git "
                       "revision (sha prefix) instead of the sliding window")
    check.add_argument("--warn-only", action="store_true",
                       help="report regressions but always exit 0 (cold-"
                       "cache CI gates)")
    history_sub.add_parser("stats", help="inventory of the history database")
    history_sub.add_parser("clear", help="delete all recorded history")

    dash = sub.add_parser(
        "dash",
        help="render the static HTML observability dashboard",
        description="Example: repro-cache dash -o dash/ — renders a fleet "
        "summary, per-experiment trend pages, bench-trajectory sparklines "
        "and span flame views from the run-history database.",
    )
    dash.add_argument("-o", "--output", default="dash",
                      help="output directory (default: dash/)")
    dash.add_argument("--results", default=None, metavar="DIR",
                      help="results directory for *.trace.jsonl flame views "
                      "(default: benchmarks/results/ when present)")
    _add_cache_options(dash, "--dir")

    return parser


_COMMANDS = {
    "list-processors": _cmd_list_processors,
    "list-policies": _cmd_list_policies,
    "infer": _cmd_infer,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
    "predictability": _cmd_predictability,
    "query": _cmd_query,
    "trace": _cmd_trace,
    "cache": _cmd_cache,
    "db": _cmd_db,
    "report": _cmd_report,
    "history": _cmd_history,
    "dash": _cmd_dash,
}

#: Namespace attributes that belong in a metrics sidecar's params block.
_SIDECAR_PARAM_TYPES = (str, int, float, bool, type(None))


def _sidecar_params(args: argparse.Namespace) -> dict:
    """The scalar subcommand arguments, for sidecar/ledger params blocks."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "trace_file", "metrics_file")
        and isinstance(value, _SIDECAR_PARAM_TYPES)
    }


def _run_with_observability(args: argparse.Namespace) -> int:
    """Dispatch one subcommand under the requested tracing/metrics setup.

    Every invocation starts from a clean slate — the module-wide metrics
    store and span state are reset up front, so back-to-back commands in
    one process (tests, notebooks) never bleed counters into each other.

    Only ``--trace`` installs a tracer; with ``--metrics`` alone the
    compiled kernel stays eligible (its counters flush into the metrics
    store directly), so ``--metrics`` composes with ``--kernel``.  When a
    metrics sidecar is written, a ``*.ledger.json`` run manifest lands
    next to it for ``repro-cache report``, and the ledger is auto-
    recorded into the run-history database (with the runner's per-map
    breakdowns attached).  Without ``--metrics`` no history code runs at
    all — no sqlite file is created.
    """
    trace_file = getattr(args, "trace_file", None)
    metrics_file = getattr(args, "metrics_file", None)
    command = _COMMANDS[args.command]
    kernel_before = kernel_enabled()
    set_kernel_enabled(getattr(args, "kernel", kernel_before))
    vector_before = vector_enabled()
    set_vector_enabled(getattr(args, "vector", vector_before))
    cache_dir = getattr(args, "cache_dir", None)
    cache_dir_before = None
    if cache_dir is not None:
        # One directory holds all three persistent stores: the
        # measurement DB and the run history live beside the automata.
        from repro import measuredb
        from repro.kernels import store

        cache_dir_before = store.cache_dir()
        store.set_cache_dir(cache_dir)
        measuredb.reset()
    DEFAULT.reset()
    obs_spans.reset()
    maps: list[dict] = []
    if metrics_file is not None:
        from repro.runner import core as runner_core

        runner_core.add_map_hook(maps.append)
    start = time.perf_counter()
    try:
        if trace_file is not None:
            with JsonlWriter(trace_file) as sink:
                install(Tracer(keep_events=False, sink=sink))
                try:
                    status = command(args)
                finally:
                    uninstall()
        else:
            status = command(args)
        wall_seconds = time.perf_counter() - start
        if metrics_file is not None:
            # Sidecar + ledger are written (and history recorded) while
            # the --cache-dir override is still in force, so the history
            # row lands in the same directory tree as the other stores.
            result = ExperimentResult(
                name=f"cli-{args.command}",
                params=_sidecar_params(args),
                data={"exit_status": status},
                metrics=DEFAULT.snapshot(),
            )
            Path(metrics_file).write_text(result.to_json(indent=2) + "\n")
            ledger = obs_ledger.build_ledger(
                name=f"cli-{args.command}",
                params=_sidecar_params(args),
                wall_seconds=wall_seconds,
                seed=getattr(args, "seed", None),
                jobs=getattr(args, "jobs", None),
                kernel=getattr(args, "kernel", None),
                counters=DEFAULT.snapshot().get("counters", {}),
                artifacts=[
                    path for path in (metrics_file, trace_file)
                    if path is not None
                ],
            )
            obs_ledger.write_ledger(
                ledger, obs_ledger.ledger_path_for(metrics_file)
            )
            from repro.obs import history as obs_history

            obs_history.record_ledger(
                ledger, source="cli", maps=maps or None
            )
    finally:
        if metrics_file is not None:
            from repro.runner import core as runner_core

            runner_core.remove_map_hook(maps.append)
        set_kernel_enabled(kernel_before)
        set_vector_enabled(vector_before)
        if cache_dir is not None:
            from repro import measuredb
            from repro.kernels import store
            from repro.obs import history as obs_history

            store.set_cache_dir(cache_dir_before)
            measuredb.reset()
            obs_history.reset()
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-cache`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_with_observability(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
