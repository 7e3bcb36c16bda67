#!/usr/bin/env python3
"""The simulator benchmark: builds lwbench, runs one workload, checks every
replica against the recorded references and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The harness is compiled from the
checkout's own sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. Human-readable lines (every metric
with its unit and sample count, and the failure accounting) go first; the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. NOTES.md explains each one.

    python3 perfbench/run.py --record NAME

re-records NAME's reference fingerprints into perfbench/references.json
(only needed when simulator behaviour changes on purpose).
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")

# Replica seeds come from a fixed pool per workload, so every replica has a
# recorded fingerprint to be checked against. A run with --seed N starts at
# pool offset (N - 1) * stride and walks the pool in order; stride is about
# the number of replicas one run uses, so consecutive seeds use mostly
# different replicas.
WORKLOADS = {
    "paper_n100": {"pool": 128, "stride": 14},
    "scale_n1000c": {"pool": 32, "stride": 3},
    "traced_n200": {"pool": 48, "stride": 3},
    "defense_zoo": {"pool": 128, "stride": 64},
}
ZOO_REPLICAS = 4  # seeds per zoo sweep; lwbench's kZooReplicas

# Hard limit on one lwbench run; the benchmark must exit within 180 s.
CHILD_TIMEOUT_S = 150.0
# Per-replica simulator watchdog (sim::WallClockTimeout).
WATCHDOG_S = 60.0

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("frames_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("detect_frac", "fraction"),
]
# Printed with the end-to-end metrics but not part of the JSON result: they
# are zero on some workloads, spread across seeds beyond any bound the
# benchmark may set, or restate another metric (NOTES.md). The fingerprint
# check already fails any replica whose simulated outcome moves.
REPORTED_ONLY = [
    ("analyze_s", "s"),
    ("isolation_latency_sim_s", "s"),
    ("false_isolations", "count"),
    ("drop_frac", "fraction"),
    ("fail_frac", "fraction"),
    ("process_peak_rss_mb", "MB"),
]
ZOO_BACKENDS = ["liteworp", "leash", "zscore", "none"]
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.queue_max", "count"),
    ("sim.slab_slots", "count"),
    ("sim.unattributed_s", "s"),
    ("phy.self_s", "s"),
    ("phy.frames_tx", "count"),
    ("phy.rx_per_tx", "ratio"),
    ("phy.collided_frac", "fraction"),
    ("mac.events", "count"),
    ("nbr.self_s", "s"),
    ("nbr.events", "count"),
    ("mem.neighbor_bytes", "bytes"),
    ("phase.discovery_s", "s"),
    ("route.self_s", "s"),
    ("route.discoveries", "count"),
    ("route.req_frames", "count"),
    ("phase.attack_s", "s"),
    ("mon.self_s", "s"),
    ("mon.events", "count"),
    ("defense.frames_observed", "count"),
    ("defense.admission_checks", "count"),
    ("defense.alert_msgs", "count"),
    ("defense.storage_bytes", "bytes"),
    ("mem.watch_entries", "count"),
] + [("zoo.%s.cpu_s" % b, "s") for b in ZOO_BACKENDS] + [
    ("crypto.sign_ns", "ns"),
    ("crypto.sign_batch8_ns", "ns"),
    ("crypto.auth_frames", "count"),
    ("obs.overhead_s", "s"),
    ("obs.trace_mb", "MB"),
    ("obs.records", "count"),
    ("scenario.extract_s", "s"),
    ("forensics.read_s", "s"),
    ("forensics.check_s", "s"),
    ("forensics.perfetto_s", "s"),
    ("forensics.perfetto_mb", "MB"),
    ("sweep.cpu_s", "s"),
    ("sweep.parallel_eff", "ratio"),
    ("sweep.json_s", "s"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- statistics ----


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it (a measured value, never an interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p90_is_backed(n, beyond=10):
    """Whether p90 is backed: at least `beyond` samples above it."""
    return n - math.ceil(0.9 * n) >= beyond


# ---- seeds ----


def replica_seeds(workload, seed):
    """The whole pool, starting at this run's offset: seed -> same list."""
    spec = WORKLOADS[workload]
    pool, stride = spec["pool"], spec["stride"]
    if workload == "defense_zoo":
        stride -= stride % ZOO_REPLICAS  # sweeps take aligned seed blocks
    offset = ((seed - 1) * stride) % pool
    return [1 + (offset + i) % pool for i in range(pool)]


# ---- build and child process ----


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds lwbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "lwbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build failed: %s" % error)
            return None
        if done.returncode != 0:
            log("build failed: %s exited %d" % (" ".join(step),
                                                done.returncode))
            return None
    return os.path.join(out, "lwbench")


def run_child(argv, timeout):
    """Runs argv in a fresh process; returns (stdout lines, exit status,
    peak RSS in MB). The peak comes from wait4 on this child alone, so it
    never includes the build or another workload's run. A child still
    running after `timeout` seconds is killed with its process group and
    reported with status "timeout"."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        lines = proc.stdout.readlines()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = "timeout" if timed_out.is_set() else proc.returncode
    return lines, code, usage.ru_maxrss / 1024.0


# ---- checking and aggregation ----


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def reference_key(record):
    point = record.get("point")
    return "%d/%s" % (record["seed"], point) if point else str(record["seed"])


def check_replica(workload, record, references):
    """Returns None when the replica is correct, else why it failed."""
    if not record.get("ok"):
        return record.get("error", "replica failed")
    want = references.get(workload, {}).get(reference_key(record))
    if want is None:
        return "no reference for seed %s" % reference_key(record)
    got = record["fp"]
    drift = [k for k in want if got.get(k) != want[k]]
    if drift or set(got) != set(want):
        return "fingerprint mismatch: " + ", ".join(
            "%s %s != %s" % (k, got.get(k), want.get(k)) for k in drift)
    if "violations" in record:
        if record["violations"]:
            return "check_trace: %d violations (%s)" % (
                record["violations"], record["first_violation"])
        # The offline incident fold and the live metrics count the same
        # mon.isolation events. A completely isolated attacker is always a
        # true-positive incident, but a convicted attacker may still be
        # short of complete isolation at the horizon (NOTES.md), so the TP
        # count bounds malicious_isolated rather than equals it.
        pairs = (("forensic_isolations", "isolation_events"),
                 ("forensic_false_isolations", "false_isolations"))
        for mine, live in pairs:
            if record[mine] != got[live]:
                return "%s %d != %s %d" % (mine, record[mine], live,
                                           got[live])
        if record["forensic_tp"] < got["malicious_isolated"]:
            return "forensic TP %d < malicious_isolated %d" % (
                record["forensic_tp"], got["malicious_isolated"])
    return None


class Tally:
    """Attempted/failed accounting over constructions and replicas."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)


def aggregate(workload, lines, status, rss_mb, references, trace):
    """Folds lwbench's lines into (tally, metrics dict, extra dict)."""
    tally = Tally()
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            tally.add("unparseable harness line: %r" % line[:80])
    setups = []
    for r in records:
        if r.get("kind") == "setup":
            tally.add(None if r.get("ok") else r.get("error", "setup failed"))
            if r.get("ok"):
                setups.append(r["s"])
    good = {"workload": [], "plain": [], "instrumented": []}
    for r in records:
        if r.get("kind") != "replica":
            continue
        reason = check_replica(workload, r, references)
        tally.add(reason)
        if reason is None:
            good[r["mode"]].append(r)
            if r["mode"] != "instrumented" and "setup_s" in r:
                setups.append(r["setup_s"])
    sweeps = [r for r in records if r.get("kind") == "sweep"]
    for r in sweeps:
        if not r.get("ok"):
            tally.add(r.get("error", "sweep failed"))
    if status != 0:
        tally.add("lwbench exited with %s" % status)
    if not any(r.get("kind") in ("replica", "sweep") for r in records):
        tally.add("no replica ran")

    if trace:
        if workload == "defense_zoo":
            timed = {mode: [s["wall_s"] for s in sweeps
                            if s.get("ok") and s["mode"] == mode]
                     for mode in ("plain", "instrumented")}
        else:
            timed = {mode: [r["run_s"] for r in good[mode]]
                     for mode in ("plain", "instrumented")}
        return (tally, per_layer(workload, records, good, sweeps),
                {"instrumented": len(timed["instrumented"]),
                 "plain_run_s": median(timed["plain"]),
                 "instrumented_run_s": median(timed["instrumented"])})
    return tally, *end_to_end(workload, good["workload"], sweeps, setups,
                              rss_mb, tally)


def end_to_end(workload, reps, sweeps, setups, rss_mb, tally):
    steps, run_s, fps, pipeline, rss = [], [], [], [], []
    if workload == "defense_zoo":
        for s in (s for s in sweeps if s.get("ok")):
            rss.append(s["peak_rss_mb"])
            run_s.append(s["wall_s"])
            fps.append(s["frames"] / s["wall_s"])
            pipeline.append(s["wall_s"] + s["json_s"])
        steps = [1e3 * r["run_s"] / r["sim_s"] for r in reps]
    else:
        for r in reps:
            rss.append(r["peak_rss_mb"])
            steps.extend(r["steps_ms"])
            run_s.append(r["run_s"])
            fps.append(r["fp"]["frames_transmitted"] / r["run_s"])
            pipeline.append(r["setup_s"] + r["run_s"] + r["extract_s"] +
                            r.get("analyze_s", 0.0))
    outcomes = [r["fp"] for r in reps]
    malicious = sum(r["malicious"] for r in reps)
    originated = sum(f["data_originated"] for f in outcomes)
    metrics = {
        "setup_s": median(setups),
        "run_s": median(run_s),
        "frames_per_s": median(fps),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "pipeline_s": median(pipeline),
        "peak_rss_mb": median(rss) if all(rss) else rss_mb,
        "detect_frac": (sum(f["malicious_isolated"] for f in outcomes) /
                        malicious if malicious else 0.0),
    }
    extra = {
        "analyze_s": median([r["analyze_s"] for r in reps
                             if "analyze_s" in r]),
        "isolation_latency_sim_s": median([r["latency"] for r in reps]),
        "false_isolations": (statistics.mean(f["false_isolations"]
                                             for f in outcomes) if reps else 0.0),
        "drop_frac": (sum(f["data_dropped_malicious"] for f in outcomes) /
                      originated if originated else 0.0),
        "fail_frac": tally.failed / max(1, tally.attempted),
        "process_peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setups), "run_s": len(run_s), "frames_per_s": len(fps),
        "step_ms_p50": len(steps), "step_ms_p90": len(steps),
        "pipeline_s": len(pipeline), "peak_rss_mb": len(rss),
        "process_peak_rss_mb": 1,
        "detect_frac": len(reps), "analyze_s": len(
            [r for r in reps if "analyze_s" in r]),
        "isolation_latency_sim_s": len(reps), "false_isolations": len(reps),
        "drop_frac": len(reps), "fail_frac": tally.attempted,
    }
    return metrics, {"values": extra, "samples": samples}


def per_layer(workload, records, good, sweeps):
    """Medians over the instrumented replicas (or sweeps) of each layer
    metric; 0 for a layer the workload never runs."""
    values = {name: [] for name, _ in PER_LAYER}
    if workload == "defense_zoo":
        plain = [s for s in sweeps if s.get("ok") and s["mode"] == "plain"]
        inst = [s for s in sweeps if s.get("ok") and
                s["mode"] == "instrumented"]
        for p, i in zip(plain, inst):
            values["obs.overhead_s"].append(i["wall_s"] - p["wall_s"])
    else:
        inst = good["instrumented"]
        by_seed = {r["seed"]: r for r in good["plain"]}
        for i in inst:
            if i["seed"] in by_seed:
                values["obs.overhead_s"].append(
                    i["run_s"] - by_seed[i["seed"]]["run_s"])
    for r in inst:
        for name, value in r.get("layers", {}).items():
            values[name].append(value)
    for r in records:
        if r.get("kind") == "crypto":
            for name in ("crypto.sign_ns", "crypto.sign_batch8_ns"):
                values[name].append(r[name])
    return {name: median(v) for name, v in values.items()}


# ---- output ----


def result_line(tally, metrics, units):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    })


def print_table(workload, trace, metrics, units, extra, tally, rss_mb):
    print("workload %s (%s run)" % (workload, "traced" if trace else
                                     "end-to-end"))
    samples = extra.get("samples", {})
    rows = list(units) + (REPORTED_ONLY if not trace else [])
    values = dict(metrics, **extra.get("values", {}))
    for name, unit in rows:
        n = samples.get(name)
        print("  %-26s %16.6g %-9s%s" % (name, values[name], unit,
                                          "" if n is None else " n=%d" % n))
    if not trace and samples.get("step_ms_p90", 0) and \
            not p90_is_backed(samples["step_ms_p90"]):
        print("  note: fewer than 10 step samples above p90")
    if trace:
        print("  medians over %d instrumented replicas (sweeps on "
              "defense_zoo); plain run_s %.6g s, instrumented %.6g s" % (
                  extra["instrumented"], extra["plain_run_s"],
                  extra["instrumented_run_s"]))
    print("  attempted %d, failed %d" % (tally.attempted, tally.failed))
    for reason in tally.reasons[:10]:
        print("  FAILED: %s" % reason)


# ---- entry points ----


def write_references(references):
    """One fingerprint per line, seeds in numeric order, so a re-recording
    diffs line by line."""
    def order(key):
        seed, _, point = key.partition("/")
        return int(seed), point

    blocks = []
    for workload in sorted(references):
        fps = references[workload]
        rows = ['  "%s": %s' % (key, json.dumps(fps[key], sort_keys=True,
                                                separators=(",", ":")))
                for key in sorted(fps, key=order)]
        blocks.append('"%s": {\n%s\n}' % (workload, ",\n".join(rows)))
    with open(REFERENCES, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


def record(workload):
    binary = build()
    if binary is None:
        return 1
    seeds = list(range(1, WORKLOADS[workload]["pool"] + 1))
    lines, status, _ = run_child(
        [binary, "--workload=" + workload,
         "--seeds=" + ",".join(map(str, seeds)), "--record"], 3600)
    if status != 0:
        log("recording failed: lwbench exited with %s" % status)
        return 1
    fps = {}
    for line in lines:
        r = json.loads(line)
        fps[reference_key(r)] = r["fp"]
    references = load_references() if os.path.exists(REFERENCES) else {}
    references[workload] = fps
    write_references(references)
    log("recorded %d fingerprints for %s" % (len(fps), workload))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if args.record:
        return record(args.record)
    if not args.workload:
        parser.error("--workload is required")
    if not os.path.exists(REFERENCES):
        log("missing %s" % REFERENCES)
        return 1
    references = load_references()
    binary = build()
    if binary is None:
        return 1

    argv = [binary, "--workload=" + args.workload,
            "--seeds=" + ",".join(map(str, replica_seeds(args.workload,
                                                         args.seed))),
            "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
            "--watchdog=%g" % WATCHDOG_S]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        argv.append("--spans=" + os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed)))
    lines, status, rss_mb = run_child(argv, CHILD_TIMEOUT_S)
    for line in lines:
        if '"kind":"spans"' in line:
            log("harness spans: %s" % line.strip())
    tally, metrics, extra = aggregate(args.workload, lines, status, rss_mb,
                                      references, args.trace)
    units = PER_LAYER if args.trace else END_TO_END
    print_table(args.workload, args.trace, metrics, units, extra, tally,
                rss_mb)
    print(result_line(tally, metrics, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
