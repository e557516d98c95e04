#!/usr/bin/env python3
"""BeeHive simulator benchmark: one command, every metric, a correctness gate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady-blog --seed 1 \
        --seconds 20 --trace 0

It builds perfbench/driver.cc against the repo's src/ (Release, into
.bench_build/perfbench), then runs the workload as a fixed plan of
fresh single-threaded driver processes:

* replicas: the workload's simulation with sub-seeds derived from
  --seed (how many follows from --seconds); their simulated results
  and their host costs are pooled;
* one duplicate of replica 0, which must repeat its simulated results
  bit for bit (and adds one more set-up sample);
* set-up-only processes, so that set-up time is a median of several;
* with --trace 1, replica 0 once more with telemetry on, for the
  per-layer metrics, the critical path and the host-time spans.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit status is non-zero when the build fails or a correctness
check fails. See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# Replicas per second of --seconds (at least MIN_REPLICAS): at 20 s,
# 9 / 3 / 24 replicas of about 3.6 / 9 / 1.1 host seconds each on a
# 4-vCPU VM. Fixed numbers, not measured, so the plan (and every
# simulated result) depends only on --seed and --seconds. storm-pybbs
# uses many short replicas: each replica's p99 sits on one of the
# blackhole clusters, so their mean steadies with the replica count.
REPLICAS_PER_SECOND = {
    "steady-blog": 0.45,
    "burst-pybbs": 0.15,
    "storm-pybbs": 1.2,
}
MIN_REPLICAS = 3
SETUP_ONLY_RUNS = 5
CHILD_TIMEOUT_S = 150

# Exact simulated results compared between runs of one sub-seed.
SIM_KEYS = ["issued", "completed", "failed", "double_completions",
            "samples", "beyond_p99", "sim_p50_ms", "sim_p99_ms",
            "sim_goodput_rps", "sim_done_frac", "sim_cost_usd",
            "sim_stabilize_s", "sim_end_s", "sim_events", "within_limit",
            "latencies_s"]

E2E_UNITS = {
    "setup_s": "s",
    "sim_req_per_host_s": "req/s",
    "sim_req_per_ref": "req/pass",
    "peak_rss_mb": "MB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_goodput_rps": "req/s",
    "sim_done_frac": "fraction",
    "sim_cost_usd": "USD",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the driver incrementally."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr):
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_driver",
           "-j", "4"]
    return subprocess.call(cmd, stdout=sys.stderr,
                           stderr=sys.stderr) == 0


def sub_seed(seed, replica):
    """Replica seeds: distinct, deterministic, never 0."""
    return (seed * 1000003 + replica * 7919 + 1) % (1 << 62) or 1


def run_child(workload, seed, mode, trace_out=None):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if trace_out:
        cmd += ["--trace", "--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("driver exited with %d (%s)" %
                           (proc.returncode, " ".join(cmd[1:])))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, p):
    """Percentile by nearest rank (as sim::SampleSet computes it)."""
    n = len(sorted_values)
    idx = max(0, min(n - 1, math.ceil(p / 100.0 * n) - 1))
    return sorted_values[idx]


def sim_view(result):
    return {k: result["sim"][k] for k in SIM_KEYS}


def pooled(replicas):
    """Simulated end-to-end metrics over all replicas.

    p50 is taken over every replica's requests together. p99 is each
    replica's own p99, averaged over the replicas: storm-pybbs
    latencies cluster at whole multiples of the 5 s blackhole and its
    99th percentile sits between two clusters, so a pooled p99 jumps
    from one cluster to the next from seed to seed, while the mean of
    many replicas' p99s moves by one replica's share at a time.
    """
    lat = [sorted(r["sim"]["latencies_s"]) for r in replicas]
    everything = sorted(x for v in lat for x in v)
    issued = sum(r["sim"]["issued"] for r in replicas)
    completed = sum(r["sim"]["completed"] for r in replicas)
    within = sum(r["sim"]["within_limit"] for r in replicas)
    sim_s = sum(r["sim"]["measured_sim_s"] for r in replicas)
    p50 = nearest_rank(everything, 50.0)
    p99 = statistics.fmean(nearest_rank(v, 99.0) for v in lat)
    return {
        "issued": issued,
        "completed": completed,
        "samples": len(everything),
        "beyond_p99": sum(1 for x in everything if x > p99),
        "sim_p50_ms": p50 * 1e3,
        "sim_p99_ms": p99 * 1e3,
        "sim_goodput_rps": within / sim_s,
        "sim_done_frac": completed / issued,
        "sim_cost_usd": statistics.fmean(
            r["sim"]["sim_cost_usd"] for r in replicas),
        "goodput_limit_s": replicas[0]["sim"]["goodput_limit_s"],
    }


class Gate:
    """Collects correctness-check failures."""

    def __init__(self):
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)
            log("perfbench: CHECK FAILED: " + what)


def check_replica(gate, workload, tag, r):
    s = r["sim"]
    gate.check(s["issued"] == s["completed"] + s["failed"],
               "%s: issued != completed + failed" % tag)
    gate.check(s["double_completions"] == 0,
               "%s: %d request(s) completed twice" %
               (tag, s["double_completions"]))
    gate.check(s["samples"] <= s["completed"],
               "%s: more latency samples than completions" % tag)
    if workload != "storm-pybbs":
        gate.check(s["failed"] == 0, "%s: %d request(s) failed" %
                   (tag, s["failed"]))


def run_plan(workload, seed, seconds, trace):
    n = max(MIN_REPLICAS, round(seconds * REPLICAS_PER_SECOND[workload]))
    gate = Gate()
    replicas = []
    for i in range(n):
        r = run_child(workload, sub_seed(seed, i), "run")
        check_replica(gate, workload, "replica %d" % i, r)
        replicas.append(r)
    dup = run_child(workload, sub_seed(seed, 0), "run")
    gate.check(sim_view(dup) == sim_view(replicas[0]),
               "same seed run twice gave different simulated results")
    setups = [r["setup_s"] for r in replicas + [dup]]
    for i in range(SETUP_ONLY_RUNS):
        setups.append(run_child(workload, sub_seed(seed, i),
                                "setup")["setup_s"])

    pool = pooled(replicas)
    gate.check(pool["samples"] > 0, "no latency samples")
    if workload == "storm-pybbs":
        gate.check(pool["beyond_p99"] >= 10,
                   "only %d samples beyond p99" % pool["beyond_p99"])

    runs = replicas + [dup]
    host_done = sum(r["sim"]["completed"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        # The duplicate does replica 0's work once more: one more
        # host sample at no extra plan cost.
        "sim_req_per_host_s": host_done / sum(
            r["host"]["measured_cpu_s"] for r in runs),
        "sim_req_per_ref": host_done / sum(
            r["host"]["measured_cpu_s"] / r["host"]["ref_pass_s"]
            for r in runs),
        "peak_rss_mb": statistics.fmean(r["host"]["peak_rss_mb"]
                                        for r in replicas),
    }
    for k in ("sim_p50_ms", "sim_p99_ms", "sim_goodput_rps",
              "sim_done_frac", "sim_cost_usd"):
        metrics[k] = pool[k]

    print("workload %s seed %d: %d replicas + 1 duplicate, "
          "%d set-up samples" % (workload, seed, n, len(setups)))
    print("latency samples %d, beyond p99 %d, goodput limit %.3g s" %
          (pool["samples"], pool["beyond_p99"], pool["goodput_limit_s"]))
    print("host per process: " + ", ".join(
        "%.2f" % (r["sim"]["completed"] * r["host"]["ref_pass_s"] /
                  r["host"]["measured_cpu_s"])
        for r in runs) + " req/pass; " +
          ", ".join("%.4f" % s for s in setups) + " s set-up")

    result = {
        "attempted": pool["issued"],
        "failed": pool["issued"] - pool["completed"],
    }
    if not trace:
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                             for k, v in metrics.items()}
        return gate, result

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, "%s-seed%d-host.json" %
                              (workload, seed))
    traced = run_child(workload, sub_seed(seed, 0), "run", trace_path)
    gate.check(sim_view(traced) == sim_view(replicas[0]),
               "traced and untraced runs gave different simulated "
               "results")
    result["metrics"] = per_layer(workload, replicas[0], dup, traced,
                                  pool)
    cp = traced["critical_path"]
    gate.check(cp["span_violations"] == 0,
               "%d span violations" % cp["span_violations"])
    gate.check(cp["bad_sums"] == 0,
               "%d requests whose phases do not sum to their latency" %
               cp["bad_sums"])
    gate.check(traced["counters"]["spans_dropped"] == 0,
               "span ring buffer dropped spans")
    print("host-time spans: " + os.path.relpath(trace_path, ROOT))
    return gate, result


def per_layer(workload, base, dup, traced, pool):
    """Per-layer metrics of replica 0 from its untraced and traced runs."""
    c = traced["counters"]
    k = traced["kernels"]
    cp = traced["critical_path"]
    hb, hd, ht = base["host"], dup["host"], traced["host"]
    done = base["sim"]["completed"]
    untraced_cpu = statistics.fmean([hb["measured_cpu_s"],
                                     hd["measured_cpu_s"]])

    def g(name):
        return c.get(name, 0)

    def per(num, den):
        return num / den if den else 0.0

    flights = g("offload.flights")
    retries = g("offload.retries_total")
    db_ops = g("db.ops") + g("fn.db_ops")
    gc_cycles = g("gc.cycles") + g("gc.fn_cycles")
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("setup.testbed_s", statistics.fmean(
        [base["setup_testbed_s"], dup["setup_testbed_s"]]), "s")
    put("setup.profiling_s", statistics.fmean(
        [base["setup_profiling_s"], dup["setup_profiling_s"]]), "s")
    put("sim.events_per_req", per(g("sim.events_dispatched"), done),
        "count")
    put("sim.host_ns_per_event", k["event_ns"], "ns")
    put("vm.instr_per_req", per(g("vm.instructions"),
                                g("server.requests")), "count")
    put("vm.native_calls_per_req", per(g("vm.native_calls"),
                                       g("server.requests")), "count")
    put("vm.host_ns_per_instr", k["vm_ns_per_instr"], "ns")
    put("vm.heap_ms_per_vm", k["heap_ms_per_vm"], "ms")
    put("faas.instances", g("faas.instances_total"), "count")
    put("db.ops_per_req", per(db_ops, done), "count")
    put("db.host_ns_per_op", k["db_ns_per_op"], "ns")
    put("core.host_ns_per_materialize", k["materialize_ns"], "ns")
    put("server.host_us_per_admit",
        per(hb["admit_cpu_s"] * 1e6, base["sim"]["issued"]), "us")
    put("sync.objects_per_flight", per(g("sync.objects_transferred"),
                                       flights), "count")
    put("sync.host_ns_per_object", k["sync_ns_per_object"], "ns")
    put("offload.flights", flights, "count")
    put("offload.warm_frac", per(g("offload.warm_dispatches"), flights),
        "fraction")
    put("offload.useful_frac", per(g("offload.completed"),
                                   flights + retries), "fraction")
    put("offload.retries", retries, "count")
    put("offload.local_fallbacks", g("offload.local_fallbacks_total"),
        "count")
    put("offload.deadline_expirations",
        g("offload.deadline_expirations_total"), "count")
    put("gc.cycles", g("gc.cycles"), "count")
    put("gc.fn_cycles", g("gc.fn_cycles"), "count")
    put("gc.bytes_copied", g("gc.bytes_copied") +
        g("gc.fn_bytes_copied"), "bytes")
    put("gc.host_us_per_cycle", k["gc_us_per_cycle"], "us")
    put("faas.cold_boots", g("faas.cold_boots"), "count")
    put("faas.warm_boots", g("faas.warm_boots"), "count")
    put("faas.restore_boots", g("faas.restore_boots"), "count")
    put("proxy.reconnects", g("proxy.reconnects"), "count")
    put("proxy.read_retries", g("proxy.read_retries"), "count")
    put("proxy.dup_writes_suppressed", g("proxy.dup_writes_suppressed"),
        "count")
    put("chaos.faults_per_req", per(g("chaos.total"), done), "count")
    put("chaos.net_drops", g("chaos.net_drops"), "count")
    for phase in ("queue", "exec", "db", "boot", "fetch", "native",
                  "sync", "gc", "net", "offload"):
        put("cp.%s_ms" % phase, cp[phase], "ms")
    # The client envelope's own self time is folded into "other".
    put("cp.other_ms", cp["other"] + cp["request"], "ms")
    put("cp.total_ms", cp["total_ms"], "ms")

    # Host attribution: traced counts x kernel unit costs, over the
    # untraced measured-phase CPU. The remainder is reported too.
    parts = {
        "sim": g("sim.events_dispatched") * k["event_ns"] * 1e-9,
        "vm": g("vm.instructions") * k["vm_ns_per_instr"] * 1e-9,
        "db": db_ops * k["db_ns_per_op"] * 1e-9,
        "core.materialize": db_ops * k["materialize_ns"] * 1e-9,
        "core.sync": g("sync.objects_transferred") *
        k["sync_ns_per_object"] * 1e-9,
        "gc": gc_cycles * k["gc_us_per_cycle"] * 1e-6,
        "vm.heap": g("faas.instances_total") * k["heap_ms_per_vm"] * 1e-3,
    }
    attributed = sum(parts.values())
    for name, secs in parts.items():
        put("host.%s_frac" % name, per(secs, untraced_cpu), "fraction")
    put("host.attributed_frac", per(attributed, untraced_cpu), "fraction")
    put("host.unattributed_frac", 1.0 - per(attributed, untraced_cpu),
        "fraction")
    put("host.sys_frac", per(hb["sys_cpu_s"], hb["measured_cpu_s"]),
        "fraction")
    # In reference passes, so machine drift between the runs cancels.
    put("trace.overhead_frac",
        per(ht["measured_cpu_s"] / ht["ref_pass_s"],
            statistics.fmean([hb["measured_cpu_s"] / hb["ref_pass_s"],
                              hd["measured_cpu_s"] / hd["ref_pass_s"]]))
        - 1.0, "fraction")
    put("ref.pass_ms", hb["ref_pass_s"] * 1e3, "ms")
    put("sim.latency_samples", pool["samples"], "count")
    put("sim.samples_beyond_p99", pool["beyond_p99"], "count")
    stab = base["sim"]["sim_stabilize_s"]
    put("sim.stabilize_s", stab if workload == "burst-pybbs" else 0.0, "s")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(REPLICAS_PER_SECOND))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    try:
        gate, result = run_plan(args.workload, args.seed, args.seconds,
                                args.trace == 1)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as e:
        log("perfbench: run failed: %s" % e)
        return 3
    for name, m in result["metrics"].items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    out = {"correct": not gate.failures,
           "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": result["metrics"]}
    print(json.dumps(out))
    return 0 if not gate.failures else 1


if __name__ == "__main__":
    sys.exit(main())
