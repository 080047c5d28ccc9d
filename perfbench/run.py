"""Benchmark of the floretion package: one workload per run, one process,
one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from `src/` of
that checkout (byte-compiled first); without it the run exits with an error
and prints no result.  Workloads: algebra-dense, streams, tiles, cli.

`--trace 0` measures the end-to-end metrics with tracing off, as times at
the nominal host speed (see harness); the wall times are in the record.
Set-up is repeated `harness.SETUP_REPEATS` times, once before the timed
loop and the other times spread over it (untimed), and its median is
reported.  `--trace 1` runs
every operation twice in a row on the same inputs, once plain and once with
spans around every call into the package, alternating which copy goes
first, and reports the per-layer metrics and the tracing overhead (the
median over operations of the traced time over the plain time, minus one).
Per-layer calls, work counts and self times are per round: every round has
the same operation mix, so they compare across runs and commits.

Every operation's output is checked; a failed check counts as a failed
operation and does not stop the run.  Human-readable lines come first; the
last line of stdout is the JSON result.  A full record, with the
environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time

import harness
import wl_cli
from tracer import SpanSink, Tracer

WORKLOADS = {
    "algebra-dense": "wl_algebra",
    "streams": "wl_streams",
    "tiles": "wl_tiles",
    "cli": "wl_cli",
}

END_TO_END = ["setup_s", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"]

#: Spans whose calls and self time are reported for every workload.
LAYER_SPANS = [
    "algebra.mul",
    "algebra.pow",
    "algebra.parity_split",
    "algebra.conjugate",
    "algebra.to_json",
    "algebra.from_json",
    "centralizer.counts",
    "centralizer.tiles",
    "centralizer.scan",
    "centralizer.sigma_sums",
    "centralizer.check_vanishing",
    "packed.mul_many",
    "sequences.coeff_stream",
    "sequences.find_recurrence",
    "sequences.write_b_file",
    "render.render_tiling",
    "symmetry.apply_perm_word",
]
CLI_COMMANDS = ["mul", "pow", "coeff", "split", "symmetry", "centroid", "render",
                "centralizer", "vanishing", "seq", "error"]

PER_LAYER_UNITS: dict[str, str] = {}
for _name in LAYER_SPANS:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "algebra.mul.term_pairs": "count",
    "algebra.mul.pairs_per_s": "1/s",
    "centralizer.words_scanned": "count",
    "centralizer.scan_words_per_s": "1/s",
    "centralizer.tiles_listed": "count",
    "packed.mul_many.products": "count",
    "packed.mul_many.bytes_computed": "B",
    "sequences.powers": "count",
    "sequences.max_coeff_digits": "count",
    "sequences.recurrence_found_ratio": "ratio",
    "render.svg_bytes": "B",
    "render.bytes_per_s": "B/s",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
})
for _cmd in CLI_COMMANDS:
    PER_LAYER_UNITS[f"cli.{_cmd}.p50_ms"] = "ms"
PER_LAYER_UNITS.update({"trace.overhead_pct": "%", "trace.spans": "count"})


def set_up(fl, wl, seed: int, sink: SpanSink):
    """One set-up: import in a fresh interpreter, generate the inputs, warm
    up.  Returns the plan, the seconds it took at the nominal host speed
    and its wall seconds."""
    before = harness.reference_seconds()
    t_import = harness.import_seconds()
    t0 = time.perf_counter()
    plan = wl.plan(fl, seed, sink)
    for op in plan.warmup:  # warm-up outputs are not judged; the timed ones are
        harness.run_op(op)
    wall = t_import + time.perf_counter() - t0
    return plan, harness.at_reference_speed(wall, before, harness.reference_seconds()), wall


def timed_run(fl, wl, seed: int, seconds: float, sink: SpanSink):
    """The untraced run: set up once, then run the timed loop with the other
    set-ups at even steps of its round time, and any not yet made (the
    loop ends early when a whole round would not fit) after it.  Returns
    (plan, samples, round time, set-up times as (at nominal speed, wall))."""
    plan, *first = set_up(fl, wl, seed, sink)
    times = [tuple(first)]
    due = [seconds * k / harness.SETUP_REPEATS for k in range(1, harness.SETUP_REPEATS)]

    def pause(busy: float) -> None:
        if due and busy >= due[0]:
            due.pop(0)
            times.append(set_up(fl, wl, seed, sink)[1:])

    samples, busy = harness.measure(plan.rounds, seconds, pause)
    for _ in due:
        times.append(set_up(fl, wl, seed, sink)[1:])
    return plan, samples, busy, times


def traced_run(fl, plan, seconds: float, sink: SpanSink):
    """Run every operation twice in a row on the same inputs, plain and
    traced, alternating which copy goes first, so that both copies see the
    same machine state and neither always finds the caches warmer.  Whole
    rounds, started only if predicted to end within `seconds`.  Returns
    (plain samples, traced samples, tracer)."""
    plain: list = []
    traced: list = []
    tracer = Tracer()

    def traced_op(op):
        sink.tracer = tracer
        tracer.install(fl)
        try:
            with tracer.op_span(op.kind):
                return harness.run_op(op)
        finally:
            tracer.uninstall()
            sink.tracer = None

    start = time.perf_counter()
    last = 0.0
    r = 0
    while r == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for i, op in enumerate(plan.rounds[r % len(plan.rounds)]):
            if (r + i) % 2:
                traced.append(traced_op(op))
                plain.append(harness.run_op(op))
            else:
                plain.append(harness.run_op(op))
                traced.append(traced_op(op))
        last = time.perf_counter() - t0
        r += 1
    return plain, traced, tracer


def overhead(plain, traced) -> dict[str, float]:
    """Quartiles over operations of traced time / plain time, minus one, in %."""
    ratios = [t.seconds / p.seconds for p, t in zip(plain, traced)]
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    return {"median_pct": 100.0 * (q2 - 1.0), "q1_pct": 100.0 * (q1 - 1.0),
            "q3_pct": 100.0 * (q3 - 1.0), "operations": len(ratios)}


def peak_rss(plan) -> float:
    return plan.peak_rss_mb() if plan.peak_rss_mb else harness.own_peak_rss_mb()


def median_ms(fn, k: int = 5) -> float:
    return 1000.0 * statistics.median(fn() for _ in range(k))


def layer_metrics(tracer: Tracer, rounds: int, samples, trace_overhead: dict) -> dict[str, float]:
    rows = tracer.self_times()
    c = tracer.counts
    out: dict[str, float] = {}
    for name in LAYER_SPANS:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        calls = c.get(f"{name}.loop_calls", row["calls"])
        out[f"{name}.calls"] = calls / rounds
        out[f"{name}.self_s"] = row["self_s"] / rounds

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def rate(num, den):
        return num / den if den else 0.0

    out["algebra.mul.term_pairs"] = c["algebra.mul.term_pairs"] / rounds
    out["algebra.mul.pairs_per_s"] = rate(c["algebra.mul.term_pairs"], total("algebra.mul"))
    out["centralizer.words_scanned"] = c["centralizer.words_scanned"] / rounds
    out["centralizer.scan_words_per_s"] = rate(c["centralizer.words_scanned"], total("centralizer.scan"))
    out["centralizer.tiles_listed"] = c["centralizer.tiles_listed"] / rounds
    out["packed.mul_many.products"] = c["packed.mul_many.products"] / rounds
    out["packed.mul_many.bytes_computed"] = c["packed.mul_many.bytes_computed"] / rounds
    out["sequences.powers"] = c["sequences.powers"] / rounds
    out["sequences.max_coeff_digits"] = c["sequences.max_coeff_digits"]
    out["sequences.recurrence_found_ratio"] = rate(c["sequences.recurrences_found"], c["sequences.recurrences_searched"])
    out["render.svg_bytes"] = c["render.svg_bytes"] / rounds
    out["render.bytes_per_s"] = rate(c["render.svg_bytes"], total("render.render_tiling"))
    # interpreter start-up and package import bear on every set-up time and on
    # every cli call, so they are measured in every traced run
    out["cli.startup_ms"] = median_ms(harness.startup_seconds)
    out["cli.import_ms"] = median_ms(lambda: harness.import_seconds("floretion.cli"))
    kinds = harness.per_kind(samples)
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.p50_ms"] = kinds.get(cmd, {}).get("p50_ms", 0.0)
    out["trace.overhead_pct"] = trace_overhead["median_pct"]
    out["trace.spans"] = len(tracer.spans) / rounds
    return out


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for k, v in metrics.items():
        print(f"  {k:40s} {v:16.6g} {units.get(k, '')}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    fl = harness.import_floretion()
    wl = importlib.import_module(WORKLOADS[args.workload])
    env = harness.environment(args.workload, args.seed, args.seconds, args.trace)
    env["pinned_cpu"] = harness.pin_to_one_cpu()
    print("environment: " + json.dumps(env))
    sink = SpanSink()
    record = {"environment": env, "why": wl.WHY, "sizes": wl.SIZES}

    if args.trace == 0:
        plan, samples, busy, setup_times = timed_run(fl, wl, args.seed, args.seconds, sink)
        rss = peak_rss(plan)
        e2e = harness.end_to_end(samples, statistics.median(t for t, _ in setup_times), rss)
        wall = harness.end_to_end(harness.walls(samples), statistics.median(w for _, w in setup_times), rss)
        host = statistics.median(x.wall_s / x.seconds for x in samples)
        result_metrics = {k: {"value": e2e[k], "unit": harness.UNITS[k]} for k in END_TO_END}
        record.update(setup_times_s=setup_times, end_to_end=e2e, end_to_end_wall=wall, host_slowdown=host,
                      per_kind=harness.per_kind(samples), round_s=busy)
        print_metrics(f"{args.workload}: wall times ({busy:.1f} s of rounds)", wall, harness.UNITS)
        print(f"{args.workload}: host ran at 1/{host:.3f} of the nominal speed (median over operations)")
        print_metrics(f"{args.workload}: end to end, at the nominal host speed", e2e, harness.UNITS)
        checked = samples
    else:
        plan, setup_s, _ = set_up(fl, wl, args.seed, sink)
        plain, samples, tracer = traced_run(fl, plan, args.seconds, sink)
        rss = peak_rss(plan)
        untraced = harness.end_to_end(plain, setup_s, rss)
        e2e = harness.end_to_end(samples, setup_s, rss)
        trace_overhead = overhead(plain, samples)
        rounds = len(samples) // len(plan.rounds[0])
        layers = layer_metrics(tracer, rounds, samples, trace_overhead)
        result_metrics = {k: {"value": layers[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}
        spans_path = harness.result_path(args.workload, args.seed, 1, "-spans.jsonl")
        harness.RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        all_spans = tracer.self_times()
        record.update(
            untraced=untraced, traced=e2e, trace_overhead=trace_overhead, per_layer=layers, rounds=rounds,
            spans=all_spans, counts=dict(tracer.counts), spans_file=spans_path.name,
            per_kind=harness.per_kind(samples),
        )
        print_metrics(f"{args.workload}: plain copies", untraced, harness.UNITS)
        print_metrics(f"{args.workload}: traced copies ({rounds} rounds)", e2e, harness.UNITS)
        print(f"{args.workload}: tracing overhead per operation, median {trace_overhead['median_pct']:+.2f}%, "
              f"quartiles {trace_overhead['q1_pct']:+.2f}% to {trace_overhead['q3_pct']:+.2f}%")
        print(f"{args.workload}: all spans, per round (calls, self s, total s)")
        for name, row in sorted(all_spans.items()):
            print(f"  {name:40s} {row['calls'] / rounds:10.1f} {row['self_s'] / rounds:12.6f} {row['total_s'] / rounds:12.6f}")
        print_metrics(f"{args.workload}: per layer (per round where a count or time)", layers, PER_LAYER_UNITS)
        checked = plain + samples

    failures = [x for x in checked if not x.ok]
    if args.workload == "cli":
        record["after_run"] = wl_cli.after_run()
    record["failures"] = [(x.kind, x.error) for x in failures[:20]]
    for kind, error in record["failures"]:
        print(f"FAILED {kind}: {error}")
    path = harness.write_result(args.workload, args.seed, args.trace, record)
    print(f"record: {path.relative_to(harness.ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
