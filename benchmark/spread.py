#!/usr/bin/env python3
"""Spread report of the benchmark: repeated runs, quartiles per cell.

Called by run.sh (which builds first). For each of --sets sets it runs
--repeat runs of every workload, each with its own seed, and prints per
(workload, metric): n, q1, median, q3, IQR / median and the bound. It
exits non-zero if a run was incorrect or lost transactions, if a cell's
IQR / median exceeds half its bound (setup_s is reported, not gated: the
contract does not gate its spread), if two sets' medians differ by more
than half the bound, or if `replay` did not repeat exactly for one seed.

--quick measures 5-second windows: a smoke test, never reported numbers.
--trace-check runs each seed traced as well and prints what tracing moved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bin_dir, workload, seed, seconds, trace):
    """One run: (result line, other-group line, replay digest or None)."""
    binary = "tetrabft-benchmark-trace" if trace else "tetrabft-benchmark"
    cmd = [os.path.join(bin_dir, binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    other, digest = None, None
    for line in done.stderr.splitlines():
        if line.startswith("other: "):
            other = json.loads(line[len("other: "):])
        elif line.startswith("note: digest "):
            digest = line[len("note: digest "):]
        elif line.startswith("INCORRECT"):
            print(f"  {workload} seed {seed}: {line}")
    return result, other, digest


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeat", type=int, required=True)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    seconds = 5 if args.quick else contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload:
        workloads = [args.workload]
    bin_dir = os.path.join(ROOT, args.bin_dir) if not os.path.isabs(args.bin_dir) else args.bin_dir

    ok = True
    cells = {}  # (set, workload, metric) -> [values]
    moved = {}  # (workload, metric) -> [traced / untraced - 1]
    for s in range(args.sets):
        for k in range(args.repeat):
            seed = args.seed + 1000 * s + k
            for w in workloads:
                result, _, _ = run_once(bin_dir, w, seed, seconds, trace=False)
                print(f"set {s} seed {seed} {w}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
                ok &= result["correct"] and result["failed"] == 0
                untraced = values(result)
                for name, value in untraced.items():
                    cells.setdefault((s, w, name), []).append(value)
                if args.trace_check:
                    traced, other, _ = run_once(bin_dir, w, seed, seconds, trace=True)
                    ok &= traced["correct"]
                    for name, value in values(other).items():
                        base = untraced[name]
                        moved.setdefault((w, name), []).append(value / base - 1 if base else 0.0)

    if "replay" in workloads:
        first = run_once(bin_dir, "replay", args.seed, seconds, trace=False)
        again = run_once(bin_dir, "replay", args.seed, seconds, trace=False)
        other = run_once(bin_dir, "replay", args.seed + 1, seconds, trace=False)
        exact = ["commit_p50_ms", "commit_p99_ms", "fault_commit_p99_ms"]
        same = first[2] == again[2] and all(
            values(first[0])[m] == values(again[0])[m] for m in exact)
        exact_layers = [n for n in values(first[1]) if n.split(".")[0] in ("core", "wire")
                        or n in ("engine.events_per_block", "store.wal_bytes_per_tx")]
        same &= all(values(first[1])[n] == values(again[1])[n] for n in exact_layers)
        print(f"replay seed {args.seed} twice: digest {first[2]} / {again[2]} -> "
              f"{'identical' if same else 'DIFFERENT'}; seed {args.seed + 1}: "
              f"{'differs' if other[2] != first[2] else 'SAME DIGEST'}")
        ok &= same and other[2] != first[2]

    print(f"\n{'workload':13} {'metric':20} set  n {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    medians = {}
    for (s, w, name), xs in sorted(cells.items(), key=lambda c: (c[0][1], c[0][2], c[0][0])):
        q1, med, q3 = quartiles(xs)
        spread = (q3 - q1) / med if med else 0.0
        medians[(s, w, name)] = med
        gated = name != "setup_s" and len(xs) >= 4
        flag = ""
        if gated and spread > bounds[name] / 2:
            flag, ok = "  <-- spread above half the bound", False
        print(f"{w:13} {name:20} {s:3} {len(xs):2} {q1:12.4f} {med:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {bounds[name]:6.2f}{flag}")
    if args.sets > 1:
        print(f"\n{'workload':13} {'metric':20} {'median set 0':>13} {'median set 1':>13} {'worse by':>9}")
        for w in workloads:
            for name in bounds:
                a, b = medians[(0, w, name)], medians[(1, w, name)]
                worse = (b / a - 1) * (1 if better[name] == "lower" else -1) if a else 0.0
                flag = ""
                if abs(worse) > bounds[name] / 2:
                    flag, ok = "  <-- sets disagree", False
                print(f"{w:13} {name:20} {a:13.4f} {b:13.4f} {worse:+9.4f}{flag}")
    if moved:
        print(f"\n{'workload':13} {'metric':20} traced vs untraced, median over seeds")
        for (w, name), xs in sorted(moved.items()):
            print(f"{w:13} {name:20} {statistics.median(xs):+8.4f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
