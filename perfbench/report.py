"""One command for the whole benchmark: checker self-test, every workload
untraced over several seeds with the run-to-run spread of each end-to-end
metric, one traced run per workload with its per-layer metrics and tracing
overhead, and the CLI hardening probe.

    python3 perfbench/report.py                 # 3 seeds per workload
    python3 perfbench/report.py --runs 10 --sets 2 --out summary.json

Each run is a fresh `run.py` process, one after another.  The spread of a
metric is (Q3 - Q1) / median over the runs of a set, with quartiles from
`statistics.quantiles(values, n=4)`; it should stay below a third of the
metric's bound in BENCHMARK.json.  With `--sets 2` the second set's medians
are compared with the first set's.  Runs last BENCHMARK.json's
`run_seconds`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import run as bench

BENCHMARK = harness.ROOT / "BENCHMARK.json"


def check_manifest(doc: dict) -> list[str]:
    """Names and units in BENCHMARK.json must be the ones run.py reports."""
    problems = []
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    if list(e2e) != bench.END_TO_END or any(e2e[k] != harness.UNITS[k] for k in e2e):
        problems.append("end_to_end names or units differ from run.END_TO_END")
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if layer != bench.PER_LAYER_UNITS:
        problems.append("per_layer names or units differ from run.PER_LAYER_UNITS")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(bench.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    return problems


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, full record) of one benchmark process; the record
    gains the process's wall time, set-up and checks included."""
    cmd = [sys.executable, str(harness.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(harness.result_path(workload, seed, trace).read_text())
    record["process_wall_s"] = wall
    return result, record


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else (0.0 if q3 == q1 else float("inf")), "values": values}


def run_set(workload: str, seeds: list[int], seconds: int, bounds: dict) -> dict:
    values: dict[str, list[float]] = {}
    wall_values: dict[str, list[float]] = {}
    failed = attempted = 0
    walls = []
    for seed in seeds:
        result, record = run_once(workload, seed, seconds, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in record["end_to_end"].items():
            values.setdefault(k, []).append(v)
        for k, v in record["end_to_end_wall"].items():
            wall_values.setdefault(k, []).append(v)
        walls.append(record["process_wall_s"])
        print(f"  seed {seed} ({walls[-1]:.1f} s wall, host slowdown {record['host_slowdown']:.3f}): "
              + ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    rows = {k: spread(v) for k, v in values.items()}
    wall_rows = {k: spread(wall_values[k]) for k in bounds}
    print(f"  {'metric':26s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for k, row in rows.items():
        bound = bounds.get(k)
        mark = ""
        if bound is not None:  # steady below a third of the bound; OVER fails the bound itself
            mark = "ok" if row["spread"] < bound / 3 else ("wide" if row["spread"] <= bound else "OVER")
        b3 = f"{bound / 3:8.4f}" if bound is not None else " " * 8
        print(f"  {k:26s} {harness.UNITS[k]:6s} {row['median']:12.5g} {row['q1']:12.5g} {row['q3']:12.5g} "
              f"{row['spread']:8.4f} {b3} {mark}")
    print("  wall-time spreads, for comparison: "
          + ", ".join(f"{k} {row['spread']:.4f}" for k, row in wall_rows.items()))
    print(f"  operations {attempted}, failed {failed}, error rate {failed / attempted:.4g}")
    return {"seeds": seeds, "attempted": attempted, "failed": failed, "wall_s": walls, "metrics": rows,
            "wall_metrics": wall_rows}


def main(argv=None) -> int:
    doc = json.loads(BENCHMARK.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=3, help="seeds per workload and set (at least 2)")
    p.add_argument("--sets", type=int, default=1, help="sets of runs; medians of later sets are compared with the first")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, help="write a JSON summary here")
    args = p.parse_args(argv)
    seconds = doc["run_seconds"]
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    problems = check_manifest(doc)
    for msg in problems:
        print(f"BENCHMARK.json: {msg}")

    import selftest

    print("checker self-test")
    fl = harness.import_floretion()
    checks = selftest.selftest(fl)
    for r in checks:
        ok = r["accepts_real"] and r["rejects_corrupted"]
        print(f"  {'PASS' if ok else 'FAIL'} {r['workload']:14s} {r['operation']:16s} {r['corruption']}")

    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"] for m in doc["end_to_end"]}
    summary: dict = {"environment": harness.environment("all", args.first_seed, seconds, 0),
                     "selftest": checks, "workloads": {}}
    for name in (w["name"] for w in doc["workloads"]):
        mod = importlib.import_module(bench.WORKLOADS[name])
        wl = summary["workloads"][name] = {"why": mod.WHY, "sizes": mod.SIZES, "sets": []}
        for s in range(args.sets):
            seeds = list(range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs))
            print(f"{name}: set {s + 1}, seeds {seeds[0]}-{seeds[-1]}, {seconds} s each", flush=True)
            wl["sets"].append(run_set(name, seeds, seconds, bounds))
        for s, later in enumerate(wl["sets"][1:], start=2):
            for k, bound in bounds.items():
                first, now = wl["sets"][0]["metrics"][k]["median"], later["metrics"][k]["median"]
                worse = (now - first) / first if better[k] == "lower" else (first - now) / first
                print(f"  set {s} vs set 1: {k:20s} {worse:+.4f} of the first median (bound {bound}) "
                      f"{'ok' if worse <= bound else 'WORSE'}")
        result, record = run_once(name, args.first_seed, seconds, 1)
        layers = {k: m["value"] for k, m in result["metrics"].items()}
        wl["traced"] = {"per_layer": layers, "trace_overhead": record["trace_overhead"],
                        "plain_copies": record["untraced"], "traced_copies": record["traced"]}
        o = record["trace_overhead"]
        print(f"{name}: traced run, seed {args.first_seed}; tracing overhead per operation median "
              f"{o['median_pct']:+.2f}%, quartiles {o['q1_pct']:+.2f}% to {o['q3_pct']:+.2f}% (per round; zero rows omitted)")
        for k, v in layers.items():
            if v:
                print(f"  {k:40s} {v:14.6g} {bench.PER_LAYER_UNITS[k]}")
        if name == "cli":  # the probe ran after every cli run; show the last one
            last_seed = wl["sets"][-1]["seeds"][-1]
            rec = json.loads(harness.result_path("cli", last_seed, 0).read_text())["after_run"]
            wl["hardening_probe"] = rec
            print(f"cli: hardening probe, error rate {rec['hardening_error_rate']:.3f}")
            for p_ in rec["hardening_probe"]:
                print(f"  {'ok  ' if p_['handled'] else 'FAIL'} {p_['input']}: exit {p_['exit']}, {p_['says']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    bad = problems or [r for r in checks if not (r["accepts_real"] and r["rejects_corrupted"])]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
