#!/usr/bin/env python3
"""Summarize a pi2m Chrome trace (produced by `pi2m --trace FILE`).

Reports, without opening a browser:
  * per-phase wall time (the `phase.*` spans),
  * operation counts and mean durations (`op.*` / `bw.*` spans),
  * rollback rate (rollback instants vs. attempted operations),
  * steal locality (intra-socket / intra-blade / inter-blade split),
  * contention-manager wait time, and the dropped-event counter.

With `--manifest MANIFEST.json` (the `--json-report` output of the same
run) it additionally reports the element-throughput economics of the
hybrid interior fill: elements/s, us/element, the interior (BCC template)
vs shell (Delaunay) tet split, and the lattice fill/seed counters.

With two trace files, prints the two summaries side by side (e.g. to
compare contention managers or thread counts on the same input).

With `--diff A.json B.json` (two run manifests), prints every manifest
phase of the two runs side by side with the delta B - A, in seconds and
percent.

Usage: tools/trace_summary.py TRACE.json [OTHER_TRACE.json]
                              [--manifest MANIFEST.json]
       tools/trace_summary.py --diff A.json B.json
"""

import argparse
import json
import sys
from collections import defaultdict


def load_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if "traceEvents" not in doc:
        sys.exit(f"{path}: not a trace-event file (no 'traceEvents' key)")
    return doc


def summarize(doc):
    """Reduce one trace document to a flat {section: {name: value}} dict."""
    spans = defaultdict(lambda: [0, 0.0])  # name -> [count, total_us]
    instants = defaultdict(int)            # name -> count
    parks = defaultdict(lambda: [0, 0.0])  # tid -> [count, total_us]
    threads = set()
    tid_names = {}
    for ev in doc["traceEvents"]:
        ph = ev.get("ph")
        if ph == "X":
            agg = spans[ev["name"]]
            agg[0] += 1
            agg[1] += ev.get("dur", 0.0)
            if ev["name"] == "idle.park":
                agg = parks[ev.get("tid", 0)]
                agg[0] += 1
                agg[1] += ev.get("dur", 0.0)
        elif ph == "i":
            instants[ev["name"]] += 1
        elif ph == "M" and ev.get("name") == "thread_name":
            threads.add(ev["args"]["name"])
            tid_names[ev.get("tid", 0)] = ev["args"]["name"]

    s = {}
    s["lanes"] = {"threads": ", ".join(sorted(threads)) or "(unnamed)"}

    phases = {
        name[len("phase."):]: total / 1e6
        for name, (_, total) in spans.items()
        if name.startswith("phase.")
    }
    for name, (_, total) in spans.items():
        if name.startswith("edt.pass_"):
            phases.setdefault("edt passes", 0.0)
            phases["edt passes"] += total / 1e6
    s["phase wall time (s)"] = {k: f"{v:.3f}" for k, v in phases.items()}

    ops = {}
    for name, (count, total) in sorted(spans.items()):
        if name.startswith(("op.", "bw.", "cm.", "idle")):
            mean_us = total / count if count else 0.0
            ops[name] = f"{count:>8} x {mean_us:9.1f} us"
    s["spans (count x mean)"] = ops

    attempts = spans["op.insert"][0] + spans["op.remove"][0]
    rollbacks = instants.get("rollback", 0)
    aborts = instants.get("bw.abort", 0)
    rates = {"operation attempts": str(attempts)}
    if attempts:
        rates["rollbacks"] = f"{rollbacks} ({100.0 * rollbacks / attempts:.2f}%)"
        rates["cavity aborts"] = f"{aborts} ({100.0 * aborts / attempts:.2f}%)"
    s["rollback"] = rates

    steal_names = ("steal.intra_socket", "steal.intra_blade",
                   "steal.inter_blade")
    total_steals = sum(instants.get(n, 0) for n in steal_names)
    steals = {"total": str(total_steals), "begs": str(instants.get("lb.beg", 0))}
    if total_steals:
        for n in steal_names:
            c = instants.get(n, 0)
            steals[n[len("steal."):]] = (
                f"{c} ({100.0 * c / total_steals:.1f}%)")
    s["steals"] = steals

    # Adaptive idle policy: timed parks per worker thread, plus the wakeup
    # traffic (lb.unpark = giver-side unparks after a batch publication).
    parking = {"unparks sent": str(instants.get("lb.unpark", 0))}
    for tid in sorted(parks):
        count, total = parks[tid]
        mean_us = total / count if count else 0.0
        lane = tid_names.get(tid, f"tid {tid}")
        parking[lane] = (
            f"{count:>6} parks x {mean_us:8.1f} us  ({total / 1e6:.3f} s)")
    s["parking (per thread)"] = parking

    other = doc.get("otherData", {})
    s["trace"] = {
        "events": str(len(doc["traceEvents"])),
        "dropped": str(other.get("dropped_events", "?")),
        "schema": str(other.get("schema", "?")),
    }
    return s


def throughput_section(manifest_path):
    """Element throughput + hybrid interior-fill economics from a manifest."""
    with open(manifest_path) as f:
        man = json.load(f)
    metrics = man.get("metrics", {})
    rows = {}
    total = int(metrics.get("mesh.tets", 0))
    if "mesh.elements_per_second" in metrics:
        rows["elements/s"] = f"{metrics['mesh.elements_per_second']:,.0f}"
        rows["us/element"] = f"{metrics.get('mesh.us_per_element', 0.0):.2f}"
    if "mesh.interior_tets" in metrics and total:
        interior = int(metrics["mesh.interior_tets"])
        shell = int(metrics.get("mesh.shell_tets", total - interior))
        rows["interior tets (BCC)"] = (
            f"{interior:>10} ({100.0 * interior / total:.1f}%)")
        rows["shell tets (Delaunay)"] = (
            f"{shell:>10} ({100.0 * shell / total:.1f}%)")
    filled = int(metrics.get("lattice.cells_filled", 0))
    if filled:
        rows["lattice cubes"] = str(filled)
        rows["lattice interface vertices"] = (
            str(int(metrics.get("lattice.interface_vertices", 0))))
        rows["lattice fill"] = f"{metrics.get('lattice.fill_sec', 0.0):.3f} s"
        rows["lattice seed"] = f"{metrics.get('lattice.seed_sec', 0.0):.3f} s"
    elif "interior" in man.get("config", {}):
        rows["interior mode"] = (
            f"{man['config']['interior']} (no lattice band engaged)")
    return rows


def print_single(s):
    for section, rows in s.items():
        if not rows:
            continue
        print(f"{section}:")
        width = max(len(k) for k in rows)
        for k, v in rows.items():
            print(f"  {k:<{width}}  {v}")
        print()


def print_pair(a, b, name_a, name_b):
    for section in dict.fromkeys(list(a) + list(b)):
        rows_a, rows_b = a.get(section, {}), b.get(section, {})
        keys = list(dict.fromkeys(list(rows_a) + list(rows_b)))
        if not keys:
            continue
        kw = max(len(k) for k in keys)
        vw = max([len(str(rows_a.get(k, "-"))) for k in keys] + [len(name_a)])
        print(f"{section}:")
        print(f"  {'':<{kw}}  {name_a:<{vw}}  {name_b}")
        for k in keys:
            print(f"  {k:<{kw}}  {str(rows_a.get(k, '-')):<{vw}}  "
                  f"{rows_b.get(k, '-')}")
        print()


def load_manifest(path):
    with open(path) as f:
        man = json.load(f)
    if "phases" not in man:
        sys.exit(f"{path}: not a run manifest (no 'phases' key)")
    return man


def print_diff(path_a, path_b):
    """Manifest phases of two runs side by side with their deltas."""
    pa = load_manifest(path_a)["phases"]
    pb = load_manifest(path_b)["phases"]
    names = list(dict.fromkeys(list(pa) + list(pb)))
    # No total row: phases nest (refine includes lattice_fill/lattice_seed),
    # so their sum is not the job time.
    rows = [(n, pa.get(n), pb.get(n)) for n in names]
    nw = max(len(n) for n, _, _ in rows)
    print(f"A = {path_a}")
    print(f"B = {path_b}")
    print(f"  {'phase':<{nw}}  {'A (s)':>9}  {'B (s)':>9}  "
          f"{'B-A (s)':>9}  {'B-A':>8}")
    for name, a, b in rows:
        fa = f"{a:9.3f}" if a is not None else f"{'-':>9}"
        fb = f"{b:9.3f}" if b is not None else f"{'-':>9}"
        if a is None or b is None:
            delta, pct = f"{'-':>9}", f"{'-':>8}"
        else:
            delta = f"{b - a:+9.3f}"
            pct = f"{100.0 * (b - a) / a:+7.1f}%" if a > 0 else f"{'-':>8}"
        print(f"  {name:<{nw}}  {fa}  {fb}  {delta}  {pct}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", nargs="?",
                    help="Chrome trace JSON from pi2m --trace")
    ap.add_argument("other", nargs="?",
                    help="second trace: print both summaries side by side")
    ap.add_argument("--manifest",
                    help="pi2m run manifest (--json-report) of the same run: "
                         "adds element-throughput and lattice counters")
    ap.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                    help="two run manifests: print their phases side by "
                         "side with the delta B - A")
    args = ap.parse_args()

    if args.diff:
        if args.trace or args.manifest:
            ap.error("--diff takes two manifests and no trace")
        print_diff(*args.diff)
        return
    if args.trace is None:
        ap.error("a trace file (or --diff A.json B.json) is required")

    first = summarize(load_trace(args.trace))
    if args.manifest:
        first["element throughput"] = throughput_section(args.manifest)
    if args.other is None:
        print_single(first)
    else:
        second = summarize(load_trace(args.other))
        print_pair(first, second, args.trace, args.other)


if __name__ == "__main__":
    main()
