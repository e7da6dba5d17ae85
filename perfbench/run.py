#!/usr/bin/env python3
"""End-to-end benchmark of the pi2m image-to-mesh pipeline.

One run of one workload (the benchmark contract):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark binary from the sources of this checkout (first call only,
into .bench_build/), runs it, and prints its result object as the last
line of stdout. Every workload, with the summary tables (end-to-end metrics
with units, the 1-thread/4-thread scaling line, per-layer self times and
tracing coverage):

    python3 perfbench/run.py --summary [--seeds 1,2,3] [--seconds <s>]

BENCHMARK.json at the repository root names the workloads, the metrics and
the run length (run_seconds, the default of --seconds); perfbench/README.md
describes them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
EXE = os.path.join(BUILD_DIR, "pi2m_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (SPEC, e))


def build():
    """Configures and builds the benchmark binary; a no-op when up to date."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no pi2m sources next to the benchmark (missing %s)" % need)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pi2m_perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if rc != 0:
            fail("build step %s exited with %d" % (cmd[:2], rc))


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [EXE, "--spec", SPEC, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return p.returncode, p.stdout.splitlines()


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return "%.4g" % v
    return "%.4f" % v


def span_layers(workload, seed):
    """Per-layer names of the spans in a traced run, in order of first use:
    each span's self time is reported as <span>_s, the job span's own as
    pipeline.unaccounted_s."""
    path = os.path.join(OUT_DIR, "traces",
                        "%s-seed%d-trace1.json" % (workload, seed))
    with open(path) as f:
        names = [e["name"] for e in json.load(f)["traceEvents"]]
    layers = ["pipeline.unaccounted_s" if n == "pipeline.job" else n + "_s"
              for n in names]
    return list(dict.fromkeys(layers))


def summary(spec, seeds, seconds):
    workloads = [w["name"] for w in spec["workloads"]]
    e2e, correct, layers, fingerprints, spans = {}, {}, {}, {}, []
    for w in workloads:
        runs = []
        for s in seeds:
            rc, out = run_binary(w, s, seconds, False)
            if rc != 0:
                fail("%s seed %d exited with %d" % (w, s, rc))
            res = json.loads(out[-1])
            runs.append(res)
            print("%-17s seed %-4d correct=%s attempted=%d failed=%d" %
                  (w, s, res["correct"], res["attempted"], res["failed"]),
                  file=sys.stderr)
        e2e[w] = {m["name"]: statistics.median(
            r["metrics"][m["name"]]["value"] for r in runs)
            for m in spec["end_to_end"]}
        correct[w] = all(r["correct"] for r in runs)
        rc, out = run_binary(w, seeds[0], seconds, True)
        if rc != 0:
            fail("%s traced run exited with %d" % (w, rc))
        layers[w] = {k: v["value"]
                     for k, v in json.loads(out[-1])["metrics"].items()}
        # The line before the result is "fingerprint {...}".
        fingerprints[w] = json.loads(out[-2].split(" ", 1)[1])
        spans += [k for k in span_layers(w, seeds[0]) if k not in spans]

    fp = fingerprints[workloads[0]]
    print("host: %s, nproc %s | build %s [%s] %s | simd %s | git %s" %
          (fp["cpu_model"], fp["nproc"], fp["build_type"], fp["cxx_flags"],
           fp["compiler"], fp["simd"], fp["git"]))
    print("seeds %s, %s s per run" % (",".join(map(str, seeds)), seconds))
    for w in workloads:
        print("  %-17s %s | %s" % (w, fingerprints[w]["inputs"],
                                   fingerprints[w]["layout"]))

    print("\nEnd-to-end (median over seeds of each run's median):")
    print("  %-24s %-6s" % ("metric", "unit") +
          "".join("%18s" % w for w in workloads))
    for m in spec["end_to_end"]:
        print("  %-24s %-6s" % (m["name"], m["unit"]) +
              "".join("%18s" % fmt(e2e[w][m["name"]]) for w in workloads))
    print("  %-31s" % "outputs correct" +
          "".join("%18s" % correct[w] for w in workloads))

    if "delaunay-mesh-1t" in e2e and "delaunay-mesh-4t" in e2e:
        one = e2e["delaunay-mesh-1t"]["mesh_s"]
        four = e2e["delaunay-mesh-4t"]["mesh_s"]
        speedup = one / four
        print("\nScaling (Delaunay, same image): mesh_s %.4f s at 1 thread / "
              "%.4f s at 4 threads = speedup %.2fx, efficiency %.2f "
              "(speedup / 4)" % (one, four, speedup, speedup / 4))

    print("\nPer-layer self time from the traced run (median traced job, "
          "seed %d; share of pipeline.job_s):" % seeds[0])
    print("  %-24s" % "span" + "".join("%18s" % w for w in workloads))
    for k in spans:
        cells = []
        for w in workloads:
            v, job = layers[w].get(k, 0), layers[w]["pipeline.job_s"]
            cells.append("%18s" % ("-" if v == 0 else "%.4f %5.1f%%" %
                                   (v, 100 * v / job if job else 0)))
        print("  %-24s" % k + "".join(cells))
    for k in ("pipeline.job_s", "pipeline.accounted_frac", "trace.overhead_s"):
        print("  %-24s" % k +
              "".join("%18s" % fmt(layers[w][k]) for w in workloads))
    print("\nOther per-layer metrics (traced run):")
    for m in spec["per_layer"]:
        if m["name"] in spans or m["name"] in (
                "pipeline.job_s", "pipeline.accounted_frac",
                "trace.overhead_s"):
            continue
        print("  %-26s %-6s" % (m["name"], m["unit"]) +
              "".join("%18s" % fmt(layers[w][m["name"]]) for w in workloads))
    print("  On serve-small-2x2, pipeline.job_s runs from submit to the "
          "terminal state and serve.decode_s precedes it.\n  Its "
          "imaging.edt_s and core.refine_s come from the job manifests and "
          "lie inside serve.run_s.\n  runtime.*_s are summed over the "
          "refinement workers.")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "summary.json")
    with open(path, "w") as f:
        json.dump({"seeds": seeds, "seconds": seconds,
                   "fingerprint": fingerprints, "correct": correct,
                   "end_to_end": e2e, "per_layer": layers}, f, indent=1)
    print("\nsummary written to %s" % os.path.relpath(path, ROOT))


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true")
    ap.add_argument("--seeds", default="1")
    a = ap.parse_args()
    if not a.summary and a.workload is None:
        ap.error("need --workload or --summary")
    build()
    if a.summary:
        summary(spec, [int(s) for s in a.seeds.split(",")], a.seconds)
        return 0
    rc, out = run_binary(a.workload, a.seed, a.seconds, a.trace == 1)
    if rc != 0:
        fail("pi2m_perfbench exited with %d" % rc)
    for line in out:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
