"""Aggregation for perfbench: medians and quartiles, the tail-percentile
rule, failed-run accounting, determinism and conservation checks, the
metric tables and the result line.

Pure functions over the JSON records perfbench_workload prints, so
test_benchlib.py can pin every rule without running the simulator.
"""

import json
import math
import statistics

# A reported tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10

# The counters perfbench_workload reads from the layers, exactly.
COUNTERS = (
    "sim.events", "sim.peak_live_events", "sim.master_service_s", "sim.cpu_busy_s",
    "net.msgs", "net.wire_kb", "net.seq_msgs", "net.par_msgs", "net.mcast_frames",
    "net.drops", "net.medium_busy_max_s",
    "tmk.page_faults.seq", "tmk.page_faults.par", "tmk.diff_requests.seq",
    "tmk.diff_requests.par", "tmk.diff_kb", "tmk.fault_wait_s.par_max",
    "tmk.recoveries.seq", "tmk.recoveries.par",
    "rse.fwd_requests", "rse.null_acks", "rse.valid_notice_s",
    "policy.sections", "policy.switches", "policy.master_only", "policy.replicated",
    "policy.broadcast",
    "ompnow.seq_sections", "ompnow.parallel_regions",
)

# What the trace-derived numbers read when the traced run failed.
EMPTY_TRACE = {
    "events": 0, "slabs_dropped": 0, "page_fault_spans": 0, "page_fault_s": 0.0,
    "rse_fault_spans": 0, "rse_fault_s": 0.0, "bracket_s": 0.0, "rounds": 0,
    "round_ms": {"count": 0, "mean": 0.0, "pct": []}, "recovery_retries": 0, "fault_retries": 0,
    "section_spans": 0, "section_s": 0.0, "batch_commits": 0, "tree_hops": 0,
}

# Record fields that are functions of the virtual-time schedule alone and so
# must repeat exactly across repetitions of one workload and seed.
DETERMINISTIC = ("checksum", "aux", "vt", "counters", "fault_resp_ms")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_rank(count, want=99):
    """The highest whole percentile <= want with at least MIN_BEYOND of
    `count` samples beyond it; 50 when even the median has fewer."""
    for k in range(want, 50, -1):
        if count * (100 - k) // 100 >= MIN_BEYOND:
            return k
    return 50


def tail(table, want=99):
    """(rank, value) of the reported tail of a {"count", "pct"} table."""
    if table["count"] == 0:
        return want, 0.0
    k = tail_rank(table["count"], want)
    return k, table["pct"][k]


def p50(table):
    return table["pct"][50] if table["count"] else 0.0


# ---------------------------------------------------------------------------
# Failed runs and checks
# ---------------------------------------------------------------------------

def failure(run, reference_checksum):
    """Why a repetition failed, or None.  A failed run aborted (the record
    holds the process's last words) or computed another result than the
    1-node Sequential reference."""
    if "error" in run:
        return run["error"]
    if run["checksum"] != reference_checksum:
        return (f"checksum {run['checksum']!r} differs from the Sequential "
                f"reference {reference_checksum!r}")
    return None


def flatten(record, keys=DETERMINISTIC):
    out = {}

    def walk(prefix, v):
        if isinstance(v, dict):
            for k, sub in v.items():
                walk(f"{prefix}.{k}" if prefix else k, sub)
        else:
            out[prefix] = tuple(v) if isinstance(v, list) else v

    for k in keys:
        walk(k, record.get(k))
    return out


def nondeterminism(runs):
    """Every deterministic field that differs between repetitions."""
    if not runs:
        return []
    base = flatten(runs[0])
    problems = []
    for i, run in enumerate(runs[1:], 1):
        other = flatten(run)
        for key in sorted(set(base) | set(other)):
            if base.get(key) != other.get(key):
                problems.append(f"not deterministic: {key} is {base.get(key)!r} in run 0 "
                                f"but {other.get(key)!r} in run {i}")
    return problems


def schema_problems(run):
    """A successful record must carry exactly the counters the benchmark
    reports."""
    got = set(run.get("counters", {}))
    want = set(COUNTERS)
    if got == want:
        return []
    return [f"counter set mismatch: missing {sorted(want - got)}, unexpected {sorted(got - want)}"]


def to_ns(seconds):
    return round(seconds * 1e9)


def conservation_violations(run):
    c = run["counters"]
    vt = run["vt"]
    out = []
    if c["net.seq_msgs"] + c["net.par_msgs"] != c["net.msgs"]:
        out.append(f"net.seq_msgs + net.par_msgs = {c['net.seq_msgs'] + c['net.par_msgs']} "
                   f"but Network::messages_sent = {c['net.msgs']}")
    if to_ns(vt["seq_s"]) + to_ns(vt["par_s"]) > to_ns(vt["total_s"]):
        out.append(f"vt_seq_s + vt_par_s = {vt['seq_s'] + vt['par_s']} exceeds "
                   f"vt_total_s = {vt['total_s']}")
    return out


def trace_mismatches(traced, counters):
    """Why the trace-derived numbers are incomplete, if they are: ring slabs
    were evicted, or span/instant counts disagree with the counters."""
    out = []
    if traced["slabs_dropped"]:
        out.append(f"{traced['slabs_dropped']} trace ring slabs were dropped")
    checks = (
        ("page-fault + rse-fault spans", traced["page_fault_spans"] + traced["rse_fault_spans"],
         "tmk.page_faults", counters["tmk.page_faults.seq"] + counters["tmk.page_faults.par"]),
        ("round spans", traced["rounds"], "rse.fwd_requests", counters["rse.fwd_requests"]),
        ("recovery-retry + fault-retry instants",
         traced["recovery_retries"] + traced["fault_retries"],
         "tmk.recoveries", counters["tmk.recoveries.seq"] + counters["tmk.recoveries.par"]),
        ("seq-section spans", traced["section_spans"],
         "ompnow.seq_sections", counters["ompnow.seq_sections"]),
    )
    for what, seen, counter, want in checks:
        if seen != want:
            out.append(f"trace has {seen} {what} but {counter} = {want}")
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def setup_samples(runs):
    """One set-up per repetition process, so each is a cold one."""
    return [r["host"]["cluster_ctor_s"] + r["host"]["world_setup_s"] for r in runs]


def host_median(runs, key):
    return median([r["host"][key] for r in runs])


def host_note(what, samples):
    """How many samples a host median is over, and their spread."""
    return f"median of {len(samples)} {what}, IQR/median {spread(samples):.3f}"


def end_to_end(runs, reference):
    """(values, notes) of the end-to-end metrics over good untraced runs."""
    first = runs[0]
    vt = first["vt"]
    walls = [r["host"]["run_s"] for r in runs]
    setups = setup_samples(runs)
    rss = [r["host"]["peak_rss_kb"] / 1024 for r in runs]
    values = {
        "vt_total_s": vt["total_s"],
        "vt_seq_s": vt["seq_s"],
        "vt_par_s": vt["par_s"],
        "speedup": reference["vt"]["total_s"] / vt["total_s"],
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
    }
    notes = {
        "speedup": f"Sequential 1-node vt_total_s {reference['vt']['total_s']:.6g} s",
        "wall_s": host_note("runs", walls),
        "setup_s": host_note("set-ups", setups),
        "peak_rss_mb": host_note("processes", rss),
    }
    return values, notes


def per_layer(runs, traced_run, failed_share):
    """(values, notes) of the per-layer metrics.  `traced_run` is the good
    traced repetition, or None when it failed (its numbers then read 0 and
    obs.trace_truncated 1)."""
    c = runs[0]["counters"]
    wall = host_median(runs, "run_s")
    resp = runs[0]["fault_resp_ms"]
    resp_rank, resp_tail = tail(resp)
    requests = c["tmk.diff_requests.seq"] + c["tmk.diff_requests.par"] + c["rse.fwd_requests"]
    retries = c["tmk.recoveries.seq"] + c["tmk.recoveries.par"]
    values = {name: c[name] for name in COUNTERS}
    values.update({
        "sim.events_per_sec": c["sim.events"] / wall,
        "sim.allocs_per_event": host_median(runs, "allocs") / max(c["sim.events"], 1),
        "sim.alloc_mb": host_median(runs, "alloc_bytes") / 2**20,
        "fault_resp_ms_mean": resp["mean"],
        "fault_resp_ms_p50": p50(resp),
        "fault_resp_ms_p99": resp_tail,
        "tmk.fault_resp_samples": resp["count"],
        "tmk.fault_resp_tail_pct": resp_rank,
        "host.cluster_ctor_s": host_median(runs, "cluster_ctor_s"),
        "host.world_setup_s": host_median(runs, "world_setup_s"),
        "host.run_s": wall,
        "host.report_s": host_median(runs, "report_s"),
        "retry_share": retries / requests if requests else 0.0,
        "failed_runs": failed_share,
    })
    notes = {"retry_share": f"{retries} retries / {requests} requests",
             "fault_resp_ms_mean": f"{resp['count']} samples",
             "fault_resp_ms_p99": f"p{resp_rank} of {resp['count']} samples"}

    if traced_run is None:
        t, overhead, problems = EMPTY_TRACE, 0.0, ["traced run failed"]
    else:
        t = traced_run["traced"]
        overhead = traced_run["host"]["run_s"] / wall
        problems = trace_mismatches(t, c)
    round_rank, round_tail = tail(t["round_ms"])
    values.update({
        "tmk.page_fault_s": t["page_fault_s"],
        "rse.fault_s": t["rse_fault_s"],
        "rse.bracket_s": t["bracket_s"],
        "rse.rounds": t["rounds"],
        "rse.round_ms_p50": p50(t["round_ms"]),
        "rse.round_ms_p99": round_tail,
        "rse.round_ms_tail_pct": round_rank,
        "rse.recovery_retries": t["recovery_retries"],
        "ompnow.section_s": t["section_s"],
        "net.batch_commits": t["batch_commits"],
        "net.tree_hops": t["tree_hops"],
        "obs.trace_overhead": overhead,
        "obs.trace_events": t["events"],
        "obs.trace_truncated": 1 if problems else 0,
    })
    notes["rse.round_ms_p99"] = f"p{round_rank} of {t['rounds']} rounds"
    if problems:
        notes["obs.trace_truncated"] = "; ".join(problems)
    return values, notes


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line.  `metrics` maps name -> (value,
    unit).  Raises ValueError on anything the result schema forbids."""
    if not isinstance(correct, bool):
        raise ValueError("correct must be a bool")
    for name, n in (("attempted", attempted), ("failed", failed)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"{name} must be a non-negative whole number")
    if attempted < 1 or failed > attempted:
        raise ValueError("need 1 <= attempted and failed <= attempted")
    out = {}
    for name, (value, unit) in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": out})
