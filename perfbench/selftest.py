#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then checks that
  1. one seed gives identical count metrics (and simulated digest) twice,
  2. a second seed changes the simulated commits,
  3. a doctored result trips the output check (coherency violation, lost
     transaction, no commits): the run reports "correct": false, counts
     every repetition as failed and exits non-zero,
  4. the traced run reports every per-layer metric in BENCHMARK.json, with
     the control counts of each workload (no GEM operations on dc_pcl; no
     data-disk I/O and under 0.5 messages per commit on scale_out_256).
Exits 0 when every check passes. Takes about a minute.
"""

import json
import os
import subprocess
import sys

import run as bench

COUNTS = ("events_per_commit", "allocs_per_commit")


def invoke(binary, workload, seed, trace=0, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().split("\n")
    digest = next(l for l in lines if l.startswith("digest: "))
    return proc.returncode, digest, json.loads(lines[-1])


def main():
    failures = []

    def expect(ok, what):
        print("%s: %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    binary = bench.build(bench.build_dir())

    _, d1, r1 = invoke(binary, "dc_pcl", 1)
    _, d2, r2 = invoke(binary, "dc_pcl", 1)
    expect(r1["correct"] and r2["correct"], "seed 1 runs pass the check")
    for k in COUNTS:
        expect(r1["metrics"][k]["value"] == r2["metrics"][k]["value"],
               "seed 1 twice gives the same %s" % k)
    expect(d1 == d2, "seed 1 twice gives the same simulated digest")

    _, d3, _ = invoke(binary, "dc_pcl", 2)
    commits = lambda d: d.split()[1]
    expect(commits(d3) != commits(d1), "seed 2 changes the simulated commits")

    for field in ("coherency", "lost", "commits"):
        code, _, r = invoke(binary, "dc_pcl", 1, extra=("--doctor", field))
        expect(code != 0 and not r["correct"] and
               r["failed"] == r["attempted"] > 0,
               "doctored %s trips the output check" % field)

    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    code, _, r = invoke(binary, "dc_pcl", 1, trace=1)
    expect(code == 0 and r["correct"], "traced dc_pcl run passes the check")
    expect(sorted(r["metrics"]) == sorted(per_layer),
           "traced run reports exactly the per-layer metrics")
    expect(r["metrics"]["storage.gem_ops_per_commit"]["value"] == 0,
           "dc_pcl makes no GEM operations")
    expect(r["metrics"]["workload.trace_gen_s"]["value"] == 0,
           "dc_pcl generates no trace")
    code, _, r = invoke(binary, "scale_out_256", 1, trace=1)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    expect(code == 0 and r["correct"], "traced scale_out_256 run passes")
    expect(m["storage.disk_ios_per_commit"] == 0,
           "scale_out_256 makes no data-disk I/O")
    expect(m["net.messages_per_commit"] < 0.5,
           "scale_out_256 sends under 0.5 messages per commit")
    expect(m["storage.gem_ops_per_commit"] > 0,
           "scale_out_256 makes GEM operations")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
