"""Compare two benchmark records saved with ``perfbench/run.py --out``.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare records whose environment stamps differ:
without numpy, for instance, the vector engine and the trie's vector
plans disappear and every ``kernels.*`` number moves.  Otherwise prints
each metric and each operation side by side; on equal seeds it also
lists every operation whose measurement or oracle-access count changed,
which a pure speed-up must never do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _operations(record: dict) -> dict[str, dict]:
    """Median seconds and the counts of each operation over the passes."""
    passes = record["passes"]
    result = {}
    for index, op in enumerate(passes[0]["operations"]):
        result[op["name"]] = {
            "seconds": statistics.median(p["operations"][index]["seconds"] for p in passes),
            "measurements": op["measurements"],
            "oracle_accesses": op["oracle_accesses"],
        }
    return result


def _change(base: float, new: float) -> str:
    return f"{(new - base) / base:+.1%}" if base else "n/a"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())

    if base["environment"] != new["environment"]:
        print("refusing to compare: environment stamps differ", file=sys.stderr)
        for key in sorted(set(base["environment"]) | set(new["environment"])):
            a, b = base["environment"].get(key), new["environment"].get(key)
            if a != b:
                print(f"  {key}: {a!r} vs {b!r}", file=sys.stderr)
        return 2
    if base["workload"] != new["workload"] or set(base["metrics"]) != set(new["metrics"]):
        print("refusing to compare: different workloads or metric sets", file=sys.stderr)
        return 2

    print(f"{base['workload']}: seed {base['seed']} vs seed {new['seed']}")
    print(f"{'metric':40} {'base':>14} {'new':>14} {'change':>8} unit")
    for name, value in base["metrics"].items():
        print(f"{name:40} {value:14.6g} {new['metrics'][name]:14.6g} "
              f"{_change(value, new['metrics'][name]):>8} {base['units'][name]}")

    base_ops, new_ops = _operations(base), _operations(new)
    print(f"{'operation':32} {'base_s':>9} {'new_s':>9} {'change':>8}")
    for name, op in base_ops.items():
        if name in new_ops:
            print(f"{name:32} {op['seconds']:9.3f} {new_ops[name]['seconds']:9.3f} "
                  f"{_change(op['seconds'], new_ops[name]['seconds']):>8}")
    if base["seed"] == new["seed"]:
        moved = [
            name for name, op in base_ops.items()
            if name in new_ops and (
                op["measurements"], op["oracle_accesses"]
            ) != (new_ops[name]["measurements"], new_ops[name]["oracle_accesses"])
        ]
        print("measurement counts: " + ("unchanged" if not moved else "CHANGED on " + ", ".join(moved)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
