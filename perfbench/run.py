#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one named workload of the simulated DSM cluster, checks its result,
and prints every metric by name with its unit.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; a fuller record
(every repetition, the reference run, the checks) is written under the
build directory, results/<workload>-seed<n>-trace<t>.json.

Two kinds of time are measured.  Virtual time is what the simulated cluster
takes (vt_*, speedup, fault response times): it is a function of the seed
and repeats exactly.  Host time is what the simulator takes (wall_s,
setup_s, peak_rss_mb): it is the median over repetitions.

Every repetition is its own perfbench_workload process, built from the
repository's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and run one at a time; the simulator is
single-threaded.  Repetitions run until --seconds is used up, at least
MIN_REPS of them.  A 1-node Sequential run of the same app and seed, not
timed, gives the speedup base and the checksum every repetition must
reproduce; an aborted or mismatching repetition is a failed run.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
prints the per-layer metrics, adding one repetition traced by the
repository's tracer (REPSEQ_TRACE, REPSEQ_TRACE_FILTER) whose span and
instant counts are checked against the counters.

Seeds: the default seed is DEFAULT_SEED; HELD_OUT_SEED is kept out of
development runs so a later claim can be re-checked on it.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the benchmark's own directory untouched
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 424242
MIN_REPS = 2  # the determinism check needs two
CHILD_TIMEOUT_S = 150
# Trace categories of the traced repetition: every layer the trace-derived
# numbers read.  The sim layer's per-fiber-switch instants are left out;
# they dominate an all-category trace and no metric reads them.
TRACE_FILTER = "tmk,rse,net"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures and builds perfbench_workload; returns its path."""
    if not (ROOT / "src").is_dir():
        raise SystemExit(f"perfbench: error: simulator sources not found in {ROOT / 'src'}")
    out = build_dir()
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", "4"],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: error: build step failed: {' '.join(cmd)}")
    return out / "perfbench_workload"


def child_env(trace_file=None):
    """The caller's environment without any REPSEQ_* axis, so a stray
    variable cannot change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPSEQ_")}
    if trace_file is not None:
        env["REPSEQ_TRACE"] = str(trace_file)
        env["REPSEQ_TRACE_FILTER"] = TRACE_FILTER
    return env


def run_child(exe, args, env):
    """One perfbench_workload process: its JSON record, or {"error": why}."""
    try:
        r = subprocess.run([str(exe)] + args, capture_output=True, text=True, env=env,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if r.returncode != 0:
        how = f"killed by signal {-r.returncode}" if r.returncode < 0 else f"exit {r.returncode}"
        last = " | ".join(r.stderr.strip().splitlines()[-3:])
        return {"error": f"{how}: {last}"}
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no JSON record on stdout"}


def measure(exe, workload, seed, seconds):
    """Untraced repetitions until `seconds` is used up, at least MIN_REPS;
    a repetition is not started when it would likely overrun."""
    args = ["--workload", workload, "--seed", str(seed)]
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(run_child(exe, args, child_env()))
        last = time.monotonic() - t0
        if len(runs) >= MIN_REPS and time.monotonic() - start + last > seconds:
            return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    ref_args = ["--workload", args.workload, "--seed", str(args.seed), "--reference"]
    reference = run_child(exe, ref_args, child_env())
    if "error" in reference:
        raise SystemExit(f"perfbench: error: Sequential reference run failed: {reference['error']}")

    runs = measure(exe, args.workload, args.seed, args.seconds)
    traced = None
    if args.trace:
        trace_file = build_dir() / f"trace-{args.workload}-{args.seed}.json"
        traced = run_child(exe, ["--workload", args.workload, "--seed", str(args.seed)],
                           child_env(trace_file))
        trace_file.unlink(missing_ok=True)

    attempted = runs + ([traced] if traced is not None else [])
    why = [benchlib.failure(r, reference["checksum"]) for r in attempted]
    problems = [f"run {i} failed: {w}" for i, w in enumerate(why) if w]
    good = [r for r, w in zip(attempted, why) if w is None]
    good_untraced = [r for r, w in zip(runs, why) if w is None]
    problems += benchlib.nondeterminism(good)
    for r in good:
        problems += benchlib.schema_problems(r) + benchlib.conservation_violations(r)
    failed = sum(1 for w in why if w)
    for p in problems:
        log(f"CHECK FAILED: {p}")
    if not good_untraced:
        print(benchlib.result_line(False, len(attempted), failed, {}))
        return 1

    if args.trace:
        traced_good = traced if traced is not None and why[-1] is None else None
        values, notes = benchlib.per_layer(good_untraced, traced_good, failed / len(attempted))
    else:
        values, notes = benchlib.end_to_end(good_untraced, reference)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  runs {len(attempted)}  failed {failed}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:>18.6f} {unit}{note}")
    record = {"args": vars(args), "reference": reference, "runs": attempted,
              "problems": problems, "metrics": {k: v for k, (v, _) in metrics.items()},
              "notes": notes}
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(benchlib.result_line(not problems, len(attempted), failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
