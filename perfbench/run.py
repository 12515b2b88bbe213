"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload hw-reverse --seed 0 --seconds 5 --trace 0

The workload runs in a fresh child process (``perfbench/bench.py``)
against a fresh temporary ``REPRO_CACHE_DIR`` under ``.perfbench/``, so a
run touches neither the repository's ``.repro-cache/`` nor
``benchmarks/results/`` nor any run-history database.  With ``--trace 0``
the last line of standard output is a JSON object carrying every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries
every per-layer metric instead, from one extra traced pass.  The lines
before it are a readable report: the environment stamp, each
operation's seconds and measurements, and every metric with its unit.
``--out FILE`` also saves the full record, which
``perfbench/compare.py`` diffs against another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hw-reverse", "sim-reverse", "policy-eval", "policy-eval-par")

#: The child is killed after this long; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 170
#: No timed pass starts when it would end past this point of the run.
PASS_DEADLINE_S = 100

#: The shared-memory layer's failed unlinks, printed by the resource
#: tracker when a process that used the pool exits.
EXIT_WARNING = ("resource_tracker", "No such file or directory")

#: The speed probe's spin time on the reference host.  Host times are
#: reported in reference-host seconds: host seconds x this / the probe's
#: median spin time while they were taken, so a host that is busier for
#: a minute does not read as a slower program.
REFERENCE_PROBE_S = 0.0003


def _reference_s(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _run_child(args, scratch: Path) -> tuple[dict, str]:
    """Run the workload in a fresh process; return its record and stderr."""
    record_path = scratch / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    started = time.monotonic()
    command = [
        sys.executable, "-m", "perfbench.bench",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--started", repr(started),
        "--deadline", repr(started + PASS_DEADLINE_S),
        "--out", str(record_path),
    ]
    if args.trace:
        spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        command += ["--spans", str(spans)]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        sys.stderr.write(err)
        raise SystemExit(f"error: {args.workload} did not finish in {CHILD_TIMEOUT_S} s")
    finally:
        # Pool workers and the resource tracker share the session.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stderr.write(out)
    sys.stderr.write(err)
    if child.returncode != 0 or not record_path.exists():
        raise SystemExit(f"error: benchmark process exited with {child.returncode}")
    return json.loads(record_path.read_text()), err


def _check_reference(record: dict) -> None:
    """On policy-eval-par, every pass's digests must equal the serial run's."""
    reference = record.get("reference")
    if reference is None:
        return
    expected = {}
    for op in reference["operations"]:
        expected.update(op["digest"])
    runs = record["passes"] + ([record["traced"]] if record["traced"] else [])
    for run in runs:
        for op in run["operations"]:
            for part, digest in op["digest"].items():
                if digest != expected.get(part):
                    op["ok"] = False
                    op["detail"] = f"{part} digest {digest} != serial {expected.get(part)}"


def _pass_s(run: dict) -> float:
    return _reference_s(run["wall_s"], run["probe_s"])


def _end_to_end(record: dict) -> dict:
    passes = record["passes"]
    return {
        "wall_s": statistics.median(_pass_s(p) for p in passes),
        "setup_s": _reference_s(record["setup_s"], record["setup_probe_s"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "sim_accesses_per_s": statistics.median(
            sum(op["sim_accesses"] for op in p["operations"]) / _pass_s(p)
            for p in passes
        ),
    }


def _per_layer(record: dict, stderr: str, failed: int, attempted: int) -> dict:
    traced = record["traced"]
    metrics = dict(traced["layers"])
    untraced = statistics.median(_pass_s(p) for p in record["passes"])
    metrics["trace_overhead_s"] = _pass_s(traced) - untraced
    # The resource tracker prints these at exit for the whole process;
    # report them per pool the process ran (each pass forks a fresh one).
    warnings = sum(
        1 for line in stderr.splitlines() if all(part in line for part in EXIT_WARNING)
    )
    metrics["runner.shm.exit_warnings"] = warnings / max(1, record.get("pools", 1))
    metrics["run.error_rate"] = failed / attempted
    return metrics


def _report(record: dict, metrics: dict, units: dict) -> None:
    passes = record["passes"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"passes={len(passes)} traced={record['traced'] is not None}")
    print("host seconds per pass: " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + "; probe ms: " + " ".join(f"{p['probe_s'] * 1000:.3f}" for p in passes))
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    names = [op["name"] for op in passes[0]["operations"]]
    print(f"{'operation':32} {'median_s':>9} {'measurements':>12} {'oracle_accesses':>15}  result")
    for index, name in enumerate(names):
        ops = [p["operations"][index] for p in passes]
        seconds = statistics.median(op["seconds"] for op in ops)
        verdict = "ok" if all(op["ok"] for op in ops) else "FAILED: " + next(
            op["detail"] for op in ops if not op["ok"]
        )
        print(f"{name:32} {seconds:9.3f} {ops[0]['measurements']:12d} "
              f"{ops[0]['oracle_accesses']:15d}  {verdict}")
    print(f"{'metric':40} {'value':>16} unit")
    for name, value in metrics.items():
        print(f"{name:40} {value:16.6g} {units[name]}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        record, stderr = _run_child(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    _check_reference(record)
    runs = record["passes"] + [r for r in (record["reference"], record["traced"]) if r]
    attempted = sum(len(run["operations"]) for run in runs)
    failed = sum(1 for run in runs for op in run["operations"] if not op["ok"])
    if args.trace:
        computed = _per_layer(record, stderr, failed, attempted)
    else:
        computed = _end_to_end(record)
    metrics = {name: computed[name] for name in units}
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {name} is {value}")

    _report(record, metrics, units)
    if args.out is not None:
        record["metrics"] = metrics
        record["units"] = units
        args.out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
