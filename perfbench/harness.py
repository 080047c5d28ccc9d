"""Shared machinery of the benchmark: locating the package under test, the
closed-loop timer, metric reduction, environment capture and result files.

A workload module exposes `NAME`, `WHY`, `SIZES` and `plan(fl, seed, sink)
-> Plan`.  A plan is a pool of rounds; every round lists the same operation
kinds in the same order with its own seeded inputs, so a run made of whole
rounds always has the same operation mix whatever its seed.

Reported times are at a nominal host speed.  On a shared 2-vCPU Intel Xeon
host the speed of fixed pure-Python code flips between states up to about
1.7x apart, each lasting seconds to minutes, so the wall time of the same
work differs by more than 25% between runs a few minutes apart.  A fixed
reference loop, independent of the package, is timed between operations;
each operation's wall time is multiplied by REFERENCE_S over the loop's
time around it.  Wall times are kept in the record beside the rescaled ones.
"""

from __future__ import annotations

import bisect
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: Nominal time of one pass of `reference_loop`: every time the benchmark
#: reports is expressed at the host speed where the loop takes this long.
REFERENCE_S = 0.0025
#: The reference loop is timed again before an operation once this much
#: wall time has passed since it was last timed.
PROBE_EVERY_S = 0.2


@dataclass
class Op:
    """One operation: `run` calls into the package, `check` judges its output
    independently and returns True when it is right."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Plan:
    rounds: list[list[Op]]
    warmup: list[Op] = field(default_factory=list)
    #: Measures peak memory after the timed loop when the work happens
    #: outside this process; by default the process's own peak is reported.
    peak_rss_mb: Callable[[], float] | None = None


def interleave(*blocks: list[Op]) -> list[Op]:
    """One round from blocks of operations, each block spread evenly over
    the round, so that every block's samples span the whole run rather
    than sitting in one stretch of it."""
    placed = [((i + 0.5) / len(block), b, op) for b, block in enumerate(blocks) for i, op in enumerate(block)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM restarts at exec;
    `ru_maxrss` does not, so it would include the parent that spawned us."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_floretion():
    """Import the package from this checkout's `src/`, byte-compiled first so
    that every run, the first included, imports from cached bytecode."""
    init = SRC / "floretion" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} is missing; run from a checkout of the repository")
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import floretion

    got = Path(floretion.__file__).resolve().parent
    if got != init.parent.resolve():
        raise SystemExit(f"error: imported floretion from {got}, not from {init.parent}")
    return floretion


def import_seconds(module: str = "floretion") -> float:
    """Wall time of importing `module` in a fresh interpreter, timed inside it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def startup_seconds() -> float:
    """Wall time of starting and stopping a bare interpreter (`python -c pass`)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


# -- host speed ------------------------------------------------------------------------


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the children it starts, on one CPU, so that
    the reference loop is timed on the CPU the operations run on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_loop() -> int:
    """Fixed pure-Python work of the kind the package's exact paths do
    (integer arithmetic, dict updates, small tuples), independent of the
    package, so that its time tracks the speed the host gives this process."""
    acc: dict[int, int] = {}
    for i in range(12000):
        key = (i * 7) & 255
        acc[key] = acc.get(key, 0) + divmod(i * i, 97)[1]
    return len(acc)


def reference_seconds() -> float:
    """The faster of two passes of the reference loop, so that an interrupt
    in one pass does not count as a change of host speed."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Wall time rescaled to the nominal host speed, from the reference
    loop's time just before and just after the timed interval."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)


# -- the closed loop ---------------------------------------------------------------


@dataclass
class Sample:
    kind: str
    seconds: float
    ok: bool
    error: str | None = None
    #: wall time, when `seconds` was rescaled to the nominal host speed
    wall_s: float | None = None


def run_op(op: Op) -> Sample:
    """Time one operation, then check its output outside the timed region.
    An exception or a rejected output is a failed operation, not an abort."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing operation is counted, the run goes on
        return Sample(op.kind, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(out))
    except Exception as exc:  # a check that cannot even read the output rejects it
        return Sample(op.kind, dt, False, f"check raised {type(exc).__name__}: {exc}")
    return Sample(op.kind, dt, ok, None if ok else "output rejected by check")


def measure(rounds: list[list[Op]], seconds: float, pause: Callable[[float], None] | None = None) -> tuple[list[Sample], float]:
    """Run whole rounds back to back, one operation at a time (one closed-loop
    client), and start a round only if it is predicted to end within
    `seconds` of round time.  `pause(busy)`, when given, is called after
    every operation with the round time so far; its own time is neither
    measured nor counted.  The reference loop is timed between operations,
    at least every `PROBE_EVERY_S`, and each sample's time is rescaled to
    the nominal host speed from the probes on either side of it (its wall
    time is kept in `wall_s`).  Returns the samples and the wall round time."""
    samples: list[Sample] = []
    starts: list[float] = []
    probes: list[tuple[float, float]] = []

    def probe() -> None:
        t = time.perf_counter()
        probes.append((t, reference_seconds()))

    probe()
    busy = 0.0
    last = 0.0
    r = 0
    while r == 0 or busy + last <= seconds:
        last = 0.0
        for op in rounds[r % len(rounds)]:
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probe()
            t0 = time.perf_counter()
            samples.append(run_op(op))
            starts.append(t0)
            last += time.perf_counter() - t0
            if pause is not None:
                pause(busy + last)
        busy += last
        r += 1
    probe()
    times = [t for t, _ in probes]
    for x, t0 in zip(samples, starts):
        i = bisect.bisect_right(times, t0)  # probes[i - 1] ran before the op, probes[i] after it
        x.wall_s = x.seconds
        x.seconds = at_reference_speed(x.seconds, probes[i - 1][1], probes[i][1])
    return samples, busy


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten samples
    beyond it: the eleventh-largest sample.  With fewer than eleven samples
    it falls back to the maximum and reports the 100th percentile."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(samples: list[Sample], setup_s: float, peak_rss_mb: float) -> dict[str, Any]:
    lat = [x.seconds for x in samples]
    tail_s, tail_pct = tail(lat)
    failed = sum(1 for x in samples if not x.ok)
    return {
        "setup_s": setup_s,
        # operations per second of operation time: checks are not counted
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail_s,
        "latency_tail_percentile": tail_pct,
        "error_rate": failed / len(lat),
        "peak_rss_mb": peak_rss_mb,
        "operations": len(lat),
        "failed": failed,
    }


UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "latency_tail_percentile": "%",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
    "operations": "count",
    "failed": "count",
}


def walls(samples: list[Sample]) -> list[Sample]:
    """The samples with their wall times, for the record."""
    return [Sample(x.kind, x.wall_s if x.wall_s is not None else x.seconds, x.ok, x.error) for x in samples]


def per_kind(samples: list[Sample]) -> dict[str, dict[str, float]]:
    out: dict[str, list[float]] = {}
    for x in samples:
        out.setdefault(x.kind, []).append(x.seconds)
    return {k: {"count": len(v), "p50_ms": 1000.0 * statistics.median(v)} for k, v in out.items()}


# -- environment and result files ------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from `.git`
    directly so that nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def result_path(workload: str, seed: int, trace: int, suffix: str = ".json") -> Path:
    return RESULTS / f"{workload}-s{seed}-t{trace}{suffix}"


def write_result(workload: str, seed: int, trace: int, record: dict[str, Any]) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = result_path(workload, seed, trace)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return path
