"""Command line interface: ``repro-cache``.

Subcommands mirror the library's two halves:

* ``list-processors`` / ``list-policies`` — inventory;
* ``infer`` — reverse engineer one cache of a simulated processor;
* ``evaluate`` — miss-ratio table of policies over the workload suite;
* ``bench`` — the same grid as a timed throughput benchmark (``--jobs``);
* ``predictability`` — evict/fill metrics table;
* ``query`` — run one CacheQuery-notation access sequence;
* ``cache`` — inspect/warm/clear the on-disk automaton store;
* ``report`` — summarize or diff ``*.ledger.json`` run manifests, or
  (``--gate``) hold fresh ledgers to the committed ones;
* ``dash`` — render the static HTML observability dashboard from ledgers.

The measurement-driving subcommands accept ``--metrics FILE`` (write
the run's ledger, its one run record, to FILE); see OBSERVABILITY.md.
``--cache-dir DIR`` (spelled ``--dir`` on ``cache``) points the compiled
automaton store at DIR.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.cache import CacheConfig
from repro.core import SimulatedSetOracle, VotingOracle, reverse_engineer, run_query
from repro.core.query import QueryResult
from repro.errors import ReproError
from repro.eval.missratio import miss_ratio_matrix
from repro.eval.predictability import predictability_of_policy
from repro.hardware import (
    PROCESSORS,
    HardwarePlatform,
    HardwareSetOracle,
    NoiseModel,
    get_processor,
)
from repro.obs import DEFAULT
from repro.obs import ledger as obs_ledger
from repro.policies import available, default_policies, get
from repro.runner import ExperimentRunner
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
        runner = ExperimentRunner(jobs=args.jobs)
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
            rows.append(predictability_of_policy(name, policy).row())
        except ReproError as error:
            rows.append([name, args.ways, "-", "-", str(error)])
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


def _cmd_report(args: argparse.Namespace) -> int:
    """Summarize, diff or gate run ledgers."""
    if args.gate is not None:
        passed, lines = obs_ledger.gate(args.gate, args.files)
        print("\n".join(lines))
        return 0 if passed else 1
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
    for index, ledger in enumerate(ledgers):
        if index:
            print()
        print(obs_ledger.format_ledger(ledger))
    return 0


def _add_obs_options(command: argparse.ArgumentParser) -> None:
    """Attach the shared observability option to one subcommand."""
    command.add_argument(
        "--metrics", metavar="FILE", default=None, dest="metrics_file",
        help="write the run's ledger (JSON) to FILE",
    )


def _add_cache_options(
    command: argparse.ArgumentParser, flag: str = "--cache-dir"
) -> None:
    """Attach the one persistent-store directory option."""
    command.add_argument(
        flag, metavar="DIR", default=None, dest="cache_dir",
        help="directory of the compiled-automaton store "
        "(default: $REPRO_CACHE_DIR or ./.repro-cache)",
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


def _cmd_dash(args: argparse.Namespace) -> int:
    """Render the static HTML observability dashboard."""
    from repro.obs import dash as obs_dash

    report = obs_dash.render_dashboard(args.output, args.paths)
    print(
        f"dashboard: {len(report['pages'])} page(s) -> {args.output} "
        f"({report['runs']} run(s), {report['experiments']} experiment(s))"
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
    _add_obs_options(infer)
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
    bench.add_argument("--show-matrix", action="store_true",
                       help="also print the resulting miss-ratio table")
    _add_obs_options(bench)
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
    _add_cache_options(query)

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

    report = sub.add_parser(
        "report",
        help="summarize, diff or gate *.ledger.json run manifests",
        description="Example: repro-cache report --diff serial.ledger.json "
        "parallel.ledger.json",
    )
    report.add_argument("files", nargs="+", help="ledger file(s) to read")
    report_mode = report.add_mutually_exclusive_group()
    report_mode.add_argument("--diff", action="store_true",
                             help="compare exactly two ledgers side by side")
    report_mode.add_argument("--gate", metavar="DIR", default=None,
                             help="hold each ledger to DIR/<name>.ledger.json "
                             "by the committed-results rules (exit 1 on any "
                             "failed check)")

    dash = sub.add_parser(
        "dash",
        help="render the static HTML observability dashboard",
        description="Example: repro-cache dash benchmarks/results/ -o dash/ "
        "— renders a fleet summary and per-experiment trend pages with "
        "data-series sparklines from the ledgers named.",
    )
    dash.add_argument("paths", nargs="+",
                      help="ledger files, or directories of *.ledger.json")
    dash.add_argument("-o", "--output", default="dash",
                      help="output directory (default: dash/)")

    return parser


_COMMANDS = {
    "list-processors": _cmd_list_processors,
    "list-policies": _cmd_list_policies,
    "infer": _cmd_infer,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
    "predictability": _cmd_predictability,
    "query": _cmd_query,
    "cache": _cmd_cache,
    "report": _cmd_report,
    "dash": _cmd_dash,
}

#: Namespace attributes that belong in a ledger's params block.
_LEDGER_PARAM_TYPES = (str, int, float, bool, type(None))


def _ledger_params(args: argparse.Namespace) -> dict:
    """The scalar subcommand arguments, for the ledger's params block."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "metrics_file")
        and isinstance(value, _LEDGER_PARAM_TYPES)
    }


def _run_with_observability(args: argparse.Namespace) -> int:
    """Dispatch one subcommand under the requested metrics setup.

    Every invocation starts from a clean slate — the module-wide metrics
    store is reset up front, so back-to-back commands in one process
    (tests, notebooks) never bleed counters into each other.

    The ``--metrics`` file is the run's ledger, for ``repro-cache report``.
    """
    metrics_file = getattr(args, "metrics_file", None)
    command = _COMMANDS[args.command]
    cache_dir = getattr(args, "cache_dir", None)
    cache_dir_before = None
    if cache_dir is not None:
        from repro.kernels import store

        cache_dir_before = store.cache_dir()
        store.set_cache_dir(cache_dir)
    DEFAULT.reset()
    start = time.perf_counter()
    try:
        status = command(args)
        wall_seconds = time.perf_counter() - start
        if metrics_file is not None:
            ledger = obs_ledger.build_ledger(
                name=f"cli-{args.command}",
                params=_ledger_params(args),
                wall_seconds=wall_seconds,
                seed=getattr(args, "seed", None),
                jobs=getattr(args, "jobs", None),
                metrics=DEFAULT.snapshot(),
                data={"exit_status": status},
            )
            obs_ledger.write_ledger(ledger, metrics_file)
    finally:
        if cache_dir is not None:
            from repro.kernels import store

            store.set_cache_dir(cache_dir_before)
    return status


class _Stdout:
    """``sys.stdout`` for one command: notes a write into a closed pipe."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.pipe_closed = False

    def write(self, text: str) -> int:
        return self._guard(self.stream.write, text)

    def flush(self) -> None:
        self._guard(self.stream.flush)

    def _guard(self, operation, *args):
        try:
            return operation(*args)
        except BrokenPipeError:
            self.pipe_closed = True
            raise

    def __getattr__(self, name: str):
        return getattr(self.stream, name)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-cache`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    stdout = sys.stdout = _Stdout(sys.stdout)
    try:
        status = _run_with_observability(args)
        stdout.flush()  # so a closed pipe shows up here, not at exit
        return status
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Only stdout's reader going away (``report ... | head``) ends the
        # command quietly.  Stdout then points at devnull, so the flush at
        # exit cannot raise again, and the status is 128 + SIGPIPE, never
        # 0: a gate cut off mid-report has not passed.
        if not stdout.pipe_closed:
            raise
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stdout.fileno())
        return 141
    finally:
        sys.stdout = stdout.stream


if __name__ == "__main__":
    sys.exit(main())
