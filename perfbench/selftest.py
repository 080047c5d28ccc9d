"""Checker self-test: every workload's check accepts a real result and
rejects a corrupted copy of it, so the checks are not vacuous.

    python3 perfbench/selftest.py

Corruptions: a flipped product sign and a single flipped term
(algebra-dense), an off-by-one stream term (streams), a dropped tile, a
count one short, one word moved from minus to plus and plus and minus
swapped (tiles), a wrong stdout and a traceback (cli).  Exits 1 if any
check fails to accept or to reject.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import harness
import wl_algebra
import wl_cli
import wl_streams
import wl_tiles
from tracer import SpanSink

SEED = 12345


def _op(wl, fl, kind):
    for op in wl.plan(fl, SEED, SpanSink()).rounds[0]:
        if op.kind == kind:
            return op
    raise LookupError(kind)


def _flip_sign(fl, z):
    return fl.Element(z.order, {w: -q for w, q in z.terms.items()})


def _flip_one(fl, z):
    first = min(z.terms)
    return fl.Element(z.order, {w: (-q if w == first else q) for w, q in z.terms.items()})


def _bump_term(out):
    stream, rec, text = out
    k = len(stream) // 2
    return stream[:k] + [stream[k] + 1] + stream[k + 1:], rec, text


def _drop_tile(t):
    return dataclasses.replace(t, plus=t.plus[1:])


def _wrong_stdout(res):
    return subprocess.CompletedProcess(res.args, res.returncode, res.stdout.rstrip("\n") + "0\n", res.stderr)


def _traceback(res):
    return subprocess.CompletedProcess(res.args, 2, "", "Traceback (most recent call last):\nerror: boom\n")


CASES = [
    (wl_algebra, "mul_o4_64x256", "flipped product sign", _flip_sign),
    (wl_algebra, "mul_o5_256x256", "one term's sign flipped", _flip_one),
    (wl_algebra, "square_o5_256", "flipped product sign", _flip_sign),
    (wl_algebra, "pow3_o4_16", "flipped product sign", _flip_sign),
    (wl_streams, "padovan_m40", "off-by-one stream term", lambda fl, out: _bump_term(out)),
    (wl_streams, "fibonacci_q_m60", "off-by-one stream term", lambda fl, out: _bump_term(out)),
    (wl_streams, "random_o3_k4_m40", "off-by-one stream term", lambda fl, out: _bump_term(out)),
    (wl_tiles, "tiles_o6", "dropped tile", lambda fl, out: _drop_tile(out)),
    (wl_tiles, "counts_o10", "one count short", lambda fl, out: (out[0] - 1, out[1])),
    (wl_tiles, "counts_o11", "one word moved from minus to plus", lambda fl, out: (out[0] + 1, out[1] - 1)),
    (wl_tiles, "counts_identity_o9", "plus and minus swapped", lambda fl, out: (out[1], out[0])),
    (wl_cli, "mul", "wrong stdout", lambda fl, out: _wrong_stdout(out)),
    (wl_cli, "error", "traceback on stderr", lambda fl, out: _traceback(out)),
]


def selftest(fl) -> list[dict]:
    rows = []
    for wl, kind, corruption, corrupt in CASES:
        op = _op(wl, fl, kind)
        out = op.run()
        rows.append({
            "workload": wl.NAME, "operation": kind, "corruption": corruption,
            "accepts_real": bool(op.check(out)), "rejects_corrupted": not op.check(corrupt(fl, out)),
        })
    return rows


def main() -> int:
    fl = harness.import_floretion()
    rows = selftest(fl)
    for r in rows:
        verdict = "PASS" if r["accepts_real"] and r["rejects_corrupted"] else "FAIL"
        print(f"{verdict} {r['workload']:14s} {r['operation']:16s} {r['corruption']}: "
              f"accepts real {r['accepts_real']}, rejects corrupted {r['rejects_corrupted']}")
    return 0 if all(r["accepts_real"] and r["rejects_corrupted"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
