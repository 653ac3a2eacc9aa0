#!/usr/bin/env python3
"""End-to-end host-time benchmark of dstrain (see e2ebench/README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Builds e2ebench/ (and with it the repository's src/ libraries) in
Release under .bench_build/, runs the workload's Experiments for the
given number of seconds, checks every report's fingerprint, and prints
a human-readable summary followed, as the last line of standard
output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host time per
pass, set-up time, peak RSS); with --trace 1 they are the per-layer
counts, spans and probes, and a Chrome-trace JSON of the spans is
written under .bench_build/e2ebench/.

Other modes:
    --smoke                 shrunken Experiments (self-check)
    --capture-reference     rewrite reference_fingerprints.json from a
                            run of every workload at every pinned seed
"""

import argparse
import concurrent.futures
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
REFERENCE = os.path.join(HERE, "reference_fingerprints.json")

WORKLOADS = ["moe_fattree8", "faults_fattree8"]

DEFAULT_SEED = 1

# Fingerprints are pinned at these seeds; any other seed is checked
# for same-seed replay only.
REFERENCE_SEEDS = range(40)

# Spans a traced pass times directly; together they cover the pass.
TIMED_SPANS = ["memplan.solve", "hw.build", "strategies.plan", "core.setup",
               "core.run", "telemetry.report", "core.teardown"]

# Counts read from each Experiment; they must repeat exactly.
COUNT_UNITS = {
    "sim.events": "count",
    "net.transfers": "count",
    "net.solves": "count",
    "net.rate_updates": "count",
    "net.completion_index_updates": "count",
    "net.capacity_updates": "count",
    "net.cancels": "count",
    "net.reroutes": "count",
    "net.stalled_parks": "count",
    "hw.route_invalidations": "count",
    "net.resilience.collective_timeouts": "count",
    "net.resilience.comm_shrinks": "count",
    "recovery.checkpoints": "count",
    "recovery.recoveries": "count",
    "collectives.invocations": "count",
    "collectives.fabric_bytes": "B",
    "telemetry.buckets_touched": "count",
    "telemetry.memory_bytes": "B",
    "fault.events": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        log("e2ebench: CMakeLists.txt missing")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("e2ebench: build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(workload, seed, seconds, trace, smoke, trace_out):
    """Run the measuring binary; returns (records, returncode, stderr)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\ne2ebench: timed out and killed"
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            err += "\nunparseable output line: " + line[:200]
    return records, proc.returncode, err


def load_reference():
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def reference_for(workload, seed):
    """Pinned fingerprints {experiment: hash} for a seed, or None."""
    return load_reference().get("workloads", {}).get(workload, {}).get(
        str(seed))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def check(workload, seed, smoke, records, returncode, stderr):
    """Correctness of one run: (attempted, failed, messages).

    Each Experiment run counts once in attempted; it fails on a config
    error, an abort, a fingerprint that differs from the reference
    (pinned seeds) or from the same Experiment's first run in this
    process (any seed), or counts that do not repeat.
    """
    messages = []
    failed_runs = set()
    reference = {}
    if seed in REFERENCE_SEEDS and not smoke:
        reference = reference_for(workload, seed)
        if reference is None:
            messages.append(f"no reference fingerprints for {workload} "
                            f"at seed {seed}")
            reference = {}
    first = {}   # experiment -> (hash, counts) of its first run
    attempted = 0
    started = None

    def fail(key, msg):
        failed_runs.add(key)
        messages.append(f"pass {key[0]} {key[1]}: {msg}")

    for rec in records:
        if rec.get("type") == "start":
            started = (rec["pass"], rec["name"])
            continue
        if rec.get("type") != "experiment":
            continue
        started = None
        attempted += 1
        key = (rec["pass"], rec["name"])
        if rec["status"] != "ok":
            fail(key, f"{rec['status']}: {rec.get('error', '')}")
            continue
        name = rec["name"]
        if reference and reference.get(name) != rec["hash"]:
            fail(key, f"fingerprint {rec['hash']} != reference "
                      f"{reference.get(name)}")
        if name not in first:
            first[name] = (rec["hash"], rec["counts"])
        elif first[name] != (rec["hash"], rec["counts"]):
            fail(key, "report or counts differ from the same "
                      "Experiment's first run")
    if started is not None:
        attempted += 1
        fail(started, f"aborted (exit {returncode}): "
                      f"{stderr.strip()[-500:]}")
    elif returncode != 0:
        messages.append(f"benchmark exited {returncode}: "
                        f"{stderr.strip()[-500:]}")
    for name in reference:
        if name not in first:
            messages.append(f"reference experiment {name} never ran")
    attempted = max(attempted, 1)
    # A problem not tied to one Experiment run still fails the run.
    failed = len(failed_runs)
    if messages and not failed:
        failed = 1
    return attempted, min(failed, attempted), messages


def records_of(records, kind):
    return [r for r in records if r.get("type") == kind]


def pass_records(records, traced):
    return [r for r in records_of(records, "pass") if r["traced"] == traced]


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records):
    summary = (records_of(records, "summary") or [{}])[0]
    return {
        "wall_s": (median([r["wall_s"] for r in pass_records(records, 0)]),
                   "s"),
        "setup_s": (median([r["setup_s"]
                            for r in records_of(records, "setup")]), "s"),
        "peak_rss_mb": (summary.get("peak_rss_mb", 0.0), "MB"),
    }


def pass_counts(records):
    """Counts of the first pass, summed over its Experiments."""
    runs = [r for r in records_of(records, "experiment")
            if r["status"] == "ok"]
    total = {}
    for rec in runs:
        if rec["pass"] == runs[0]["pass"]:
            for k, v in rec["counts"].items():
                total[k] = total.get(k, 0) + v
    return total


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(records):
    m = {}
    counts = pass_counts(records)
    for name, unit in COUNT_UNITS.items():
        m[name] = (counts.get(name, 0), unit)
    transfers = counts.get("net.transfers", 0)
    m["net.region_flows_avg"] = (
        ratio(counts.get("net.region_flows", 0),
              counts.get("net.region_solves", 0)), "flows")
    m["net.fast_finish_ratio"] = (
        ratio(counts.get("net.fast_finishes", 0), transfers), "ratio")

    traced = pass_records(records, 1)

    def span(name):
        return median([r["spans"][name] for r in traced])

    # Experiment::run is timed as a whole; the engine's share is what
    # remains after the benchmark's own repeat of the plan and report
    # calls it makes inside.
    plan = span("strategies.plan")
    report = span("telemetry.report")
    engine = span("core.run") - plan - report
    m["memplan.solve_s"] = (span("memplan.solve"), "s")
    m["hw.build_s"] = (span("hw.build"), "s")
    m["strategies.plan_s"] = (plan, "s")
    m["engine.run_s"] = (engine, "s")
    m["telemetry.report_s"] = (report, "s")
    m["engine.ns_per_event"] = (
        ratio(engine * 1e9, counts.get("sim.events", 0)), "ns")
    m["net.ns_per_transfer"] = (ratio(engine * 1e9, transfers), "ns")

    probes = (records_of(records, "probes") or [{"probes": {}}])[0]["probes"]
    event_ns = probes.get("sim.event_ns", 0.0)
    route_ns = probes.get("hw.route_ns", 0.0)
    flow_ns = probes.get("net.flow_ns", 0.0)
    op_ms = probes.get("collectives.op_ms", 0.0)
    flows_per_op = probes.get("collectives.flows_per_op", 0.0)
    m["sim.event_ns"] = (event_ns, "ns")
    m["hw.route_ns"] = (route_ns, "ns")
    m["net.flow_ns"] = (flow_ns, "ns")
    m["net.flow_self_ns"] = (flow_ns - route_ns - 2 * event_ns, "ns")
    m["collectives.op_ms"] = (op_ms, "ms")
    m["collectives.op_self_ms"] = (op_ms - flows_per_op * flow_ns / 1e6,
                                   "ms")
    m["storage.io_ns"] = (probes.get("storage.io_ns", 0.0), "ns")

    # Resident memory left behind per pass: anything above zero is
    # memory the program does not free when an Experiment ends.
    rss = [r["rss_mb"] for r in records_of(records, "pass")]
    m["core.rss_growth_mb"] = (ratio(rss[-1] - rss[0], len(rss) - 1)
                               if rss else 0.0, "MB")

    # Tracing overhead: a whole traced pass (with the benchmark's own
    # extra layer calls and spans) against a whole untraced pass of
    # the same run.
    m["trace.overhead_s"] = (
        median([r["total_s"] for r in traced]) -
        median([r["total_s"] for r in pass_records(records, 0)]), "s")
    # How much of a whole traced pass, timed on its own clock, the
    # directly timed spans account for; the rest is the benchmark's
    # bookkeeping (fingerprints, counts, output).
    m["trace.coverage"] = (
        ratio(sum(span(n) for n in TIMED_SPANS),
              median([r["total_s"] for r in traced])), "ratio")
    return m


def human_summary(workload, seed, records, attempted, failed, messages,
                  e2e):
    walls = [r["wall_s"] for r in pass_records(records, 0)]
    q1, q2, q3 = quartiles(walls) if walls else (0.0, 0.0, 0.0)
    summary = (records_of(records, "summary") or [{}])[0]
    print(f"workload {workload} seed {seed}: {len(walls)} untraced passes")
    print(f"  wall_s      {q2:.4f} s  (quartiles {q1:.4f} .. {q3:.4f})")
    print(f"  setup_s     {e2e['setup_s'][0]:.6f} s")
    print(f"  peak_rss_mb {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"  fail_ratio  {failed / attempted:.4f} ratio "
          f"({failed}/{attempted})")
    print(f"  canary sim.event_ns {summary.get('canary_event_ns', 0.0):.2f}"
          " ns (machine speed; informational)")
    for m in messages:
        print(f"  FAIL {m}")


def capture_one(workload, seed):
    """Fingerprints of one replay-checked run, or None on a failure."""
    records, rc, err = run_binary(workload, seed, 1, 0, False, None)
    _, _, messages = check(workload, -1, False, records, rc, err)
    if messages:
        log(f"{workload} seed {seed}:\n" + "\n".join(messages))
        return None
    return {r["name"]: r["hash"] for r in records
            if r.get("type") == "experiment"}


def capture_reference():
    if not build():
        return 1
    keys = [(w, seed) for w in WORKLOADS for seed in REFERENCE_SEEDS]
    # Fingerprints do not depend on timing, so runs may share the host.
    jobs = max(1, min(3, os.cpu_count() or 1))
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        hashes = list(pool.map(lambda k: capture_one(*k), keys))
    if None in hashes:
        return 1
    table = {}
    for (w, seed), h in zip(keys, hashes):
        table.setdefault(w, {})[str(seed)] = h
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"hash": "FNV-1a-64 of reportFingerprint()",
                   "workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"wrote {REFERENCE}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--capture-reference", action="store_true")
    args = ap.parse_args()
    if args.capture_reference:
        return capture_reference()
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        ap.error("need --workload, a seed >= 0 and --seconds > 0")

    t0 = time.monotonic()
    if not build():
        return 1
    log(f"e2ebench: build took {time.monotonic() - t0:.1f} s")

    trace_out = None
    if args.trace:
        trace_out = os.path.join(
            BUILD, f"trace-{args.workload}-seed{args.seed}.json")
    records, rc, err = run_binary(args.workload, args.seed, args.seconds,
                                  args.trace, args.smoke, trace_out)
    if rc == 2:
        log(err)
        return 1
    attempted, failed, messages = check(args.workload, args.seed,
                                        args.smoke, records, rc, err)
    e2e = end_to_end(records)
    human_summary(args.workload, args.seed, records, attempted, failed,
                  messages, e2e)
    if args.trace:
        metrics = per_layer(records)
        print(f"  chrome trace: {os.path.relpath(trace_out, ROOT)}")
    else:
        metrics = e2e
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
