#!/usr/bin/env python3
"""Build and run mtsim's benchmark.

    python3 perfbench/run.py --workload contended --seed 1 --seconds 20
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program (perfbench/mtbench.cpp)
is compiled together with the library sources into .bench_build/ on first
use; later runs rebuild only what changed. The last line of standard
output is the result: one JSON object with the keys correct, attempted,
failed and metrics. --trace 1 reports the per-layer metrics of
BENCHMARK.json instead of the end-to-end ones and writes the recorded
spans to .bench_build/perfbench/spans/. --selftest runs every workload at a tiny
size and checks the metric names and units against BENCHMARK.json and
the nesting of the spans.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the benchmark program; returns its path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD], stdout=sys.stderr,
                   check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "mtbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "mtbench")


def run(binary, args):
    """Run the program; returns (exit code, stdout lines)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def self_times(spans, kids, root):
    """Duration minus the union of the children's intervals, per span."""
    out = {}
    stack = [root]
    while stack:
        s = spans[stack.pop()]
        covered, hi = 0.0, s["start"]
        for a, b in sorted((spans[k]["start"], spans[k]["end"])
                           for k in kids[s["id"]]):
            a = max(a, hi)
            if b > a:
                covered += b - a
                hi = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
        stack.extend(kids[s["id"]])
    return out


def check_spans(path, workload):
    """Spans nest, self times are >= 0, layer spans fit in each pass."""
    with open(path) as f:
        doc = json.load(f)
    spans, workers = doc["spans"], doc["workers"]
    kids = {s["id"]: [] for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ends before it starts")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            kids[p["id"]].append(s["id"])
            if s["start"] < p["start"] or s["end"] > p["end"]:
                problems.append(f"span {s['id']} ({s['name']}) lies outside "
                                f"its parent {p['id']} ({p['name']})")
            if p["name"] == "simulation" and s["sim"] != p["sim"]:
                problems.append(f"span {s['id']} has another simulation "
                                "id than its parent")
    passes = [s for s in spans if s["parent"] < 0 and s["name"] == workload]
    if not passes:
        problems.append("no pass span recorded")
    for root in [s for s in spans if s["parent"] < 0]:
        for sid, t in self_times(spans, kids, root["id"]).items():
            if t < -1e-9:
                problems.append(f"span {sid} has negative self time {t}")
    for p in passes:
        layer_sum = sum(spans[k]["end"] - spans[k]["start"]
                        for sim in kids[p["id"]]
                        if spans[sim]["name"] == "simulation"
                        for k in kids[sim])
        wall = p["end"] - p["start"]
        if layer_sum > wall * workers:
            problems.append(f"pass {p['id']}: per-simulation layer spans sum "
                            f"to {layer_sum} s, more than wall {wall} s "
                            f"x {workers} workers")
    return problems


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(os.path.join(BUILD, "selftest"), exist_ok=True)
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", w, "--seed", "7", "--seconds", "0.5",
                    "--trace", str(trace), "--tiny"]
            spans = os.path.join(BUILD, "selftest", f"spans-{w}.json")
            if trace:
                args += ["--spans", spans]
            code, lines = run(binary, args)
            where = f"{w} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or \
                        not math.isfinite(v["value"]):
                    problems.append(f"{where}: {k} = {v['value']}")
            if trace:
                problems += [f"{where}: {p}" for p in check_spans(spans, w)]
        print(f"selftest: {w} checked", file=sys.stderr)
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(binary)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        code, lines = run(binary, cmd)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if code != 0 or not lines:
        print(f"run.py: benchmark exited with code {code}", file=sys.stderr)
        return 1
    json.loads(lines[-1])  # the result line must parse
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
