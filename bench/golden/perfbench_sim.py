#!/usr/bin/env python3
"""Pin perfbench's simulated results.

Runs the unchanged benchmark (perfbench/run.py, --trace 0) for every
workload on seeds 1 and 7 and compares its five simulated end-to-end
metrics (sim_p50_ms, sim_p99_ms, sim_goodput_rps, sim_done_frac,
sim_cost_usd) with perfbench_sim.txt next to this script, byte for
byte. Host-time metrics are not compared: they vary run to run.

    python3 bench/golden/perfbench_sim.py [--record]

Run from any directory; it uses the checkout this script lives in.
Exit status 1 on any difference, on a run that fails, or on a run
whose correctness gate fails. --record rewrites the golden (only when
simulated output changes on purpose; say why in CHANGES.md).

storm-pybbs runs for 3 seconds, not 1: its pooled-tail check needs 10
samples beyond p99, which the 1-second plan's three replicas do not
reach.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "perfbench_sim.txt")

PLAN = [("steady-blog", 1), ("burst-pybbs", 1), ("storm-pybbs", 3)]
SEEDS = [1, 7]
METRICS = ["sim_p50_ms", "sim_p99_ms", "sim_goodput_rps",
           "sim_done_frac", "sim_cost_usd"]


def run(workload, seed, seconds):
    """One perfbench run; returns its golden lines or None on failure."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    label = "%s seed %d" % (workload, seed)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print("%s: perfbench exited %d" % (label, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("%s: perfbench correctness gate failed" % label)
        return None
    return ["%s seed=%d %s %r" % (workload, seed, m,
                                  result["metrics"][m]["value"])
            for m in METRICS]


def main():
    record = sys.argv[1:] == ["--record"]
    if sys.argv[1:] and not record:
        print("usage: %s [--record]" % sys.argv[0], file=sys.stderr)
        return 2
    got = []
    for workload, seconds in PLAN:
        for seed in SEEDS:
            lines = run(workload, seed, seconds)
            if lines is None:
                return 1
            got.extend(lines)
    if record:
        with open(GOLDEN, "w") as f:
            f.write("\n".join(got) + "\n")
        print("recorded %s" % GOLDEN)
        return 0
    with open(GOLDEN) as f:
        want = f.read().splitlines()
    status = 0
    for w, g in zip(want, got):
        if w != g:
            print("golden: %s\n   got: %s" % (w, g))
            status = 1
    if len(want) != len(got):
        print("golden has %d lines, run gave %d" % (len(want), len(got)))
        status = 1
    if status == 0:
        print("perfbench simulated results match golden (%d values)"
              % len(got))
    return status


if __name__ == "__main__":
    sys.exit(main())
