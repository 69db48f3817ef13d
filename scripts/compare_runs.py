#!/usr/bin/env python3
"""Compares two perfbench_workload records on their deterministic fields.

Usage:  compare_runs.py PARENT.json CHANGE.json

Each file holds the JSON object that `perfbench_workload --workload <name>
--seed <n>` prints.  The fields perfbench/benchlib.py names DETERMINISTIC
(checksum, aux, vt, every counter and fault_resp_ms) depend only on the
workload and the seed, so a change that claims to move no simulated number
must leave every one of them equal.

Prints every differing field (a list entry by entry) with both values and
its relative change, largest first, then the host allocation delta, which
is for information only: allocations are the simulator's own behaviour,
not simulated output.

Exit status: 0 when every deterministic field is equal, 1 when any differs,
2 when a file cannot be read as a record.
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ untouched, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import benchlib  # noqa: E402


def load(path):
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_runs: error: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(record, dict) or "counters" not in record:
        print(f"compare_runs: error: {path}: not a perfbench_workload record", file=sys.stderr)
        sys.exit(2)
    return record


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def relative_change(a, b):
    """(b - a) / |a| for numbers; infinite for a change from 0, a missing
    field or a non-numeric value."""
    if is_number(a) and is_number(b) and a != 0:
        return (b - a) / abs(a)
    return math.inf


def values(record):
    """The record's deterministic fields (benchlib.flatten), with each list
    split by index so a percentile table compares entry by entry."""
    out = {}
    for key, v in benchlib.flatten(record).items():
        if isinstance(v, tuple):
            out.update((f"{key}[{i}]", x) for i, x in enumerate(v))
        else:
            out[key] = v
    return out


def differences(parent, change):
    """(field, parent value, change value, relative change) for every
    deterministic value that differs, largest change first."""
    a = values(parent)
    b = values(change)
    diffs = [(k, a.get(k), b.get(k), relative_change(a.get(k), b.get(k)))
             for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    diffs.sort(key=lambda d: -abs(d[3]))
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()

    parent = load(args.parent)
    change = load(args.change)
    for key in ("workload", "seed"):
        if parent.get(key) != change.get(key):
            print(f"note: {key} differs: {parent.get(key)} vs {change.get(key)}")

    diffs = differences(parent, change)
    for field, a, b, rel in diffs:
        rel_s = "n/a" if math.isinf(rel) else f"{rel * 100:+.4g}%"
        print(f"{field}: {a} -> {b} ({rel_s})")
    allocs_a = parent.get("host", {}).get("allocs")
    allocs_b = change.get("host", {}).get("allocs")
    if is_number(allocs_a) and is_number(allocs_b):
        print(f"host.allocs: {allocs_a} -> {allocs_b} ({allocs_b - allocs_a:+d}, information only)")
    print(f"{len(diffs)} of {len(values(parent))} deterministic values differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
