"""cli: `python -m floretion` subprocesses, one at a time, for the README
commands with seeded arguments, plus a fixed share of malformed requests.

A call costs interpreter start-up and the numpy and package imports, which
the in-process workloads pay once in set-up.  Every round has the same
fifteen requests: eleven well-formed ones, whose stdout must equal the
answer the library gives in-process, and four malformed ones, which must
exit with code 2, print one stderr line and no traceback.  Peak memory is
that of the largest well-formed request, measured untimed after the loop.

The malformed requests in the timed mix are ones the package rejects
properly at the commit that introduced this benchmark.  The inputs that
ROADMAP item 4 reports as mishandled there are run once after the timed
loop by `hardening_probe`, and their outcome is recorded beside the run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

from harness import HERE, ROOT, Op, Plan, child_env
from oracle import odd, unpack

NAME = "cli"
WHY = "python -m floretion subprocesses for the README commands with seeded small arguments, 4 of 15 malformed; interpreter start-up and imports dominate"
SIZES = (
    "per round 15 requests: mul (3 words of length 3-8), pow (order-2 element, m 2-5), coeff, "
    "split, symmetry apply, centroid, render depth 2-3, centralizer count (order 8), "
    "centralizer listing (order 2-3), vanishing (order 3-4), seq padovan (m 20-40); "
    "4 malformed: bad word character, length mismatch, render depth 9, element JSON without order"
)
POOL = 4
PERMS = ("rot", "rot2", "swap24", "swap14", "swap12", "241")


def call(argv, stdin: str | None = None, launcher: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*launcher, sys.executable, "-m", "floretion", *argv], input=stdin, capture_output=True,
        text=True, env=child_env(), cwd=ROOT, timeout=120,
    )


def largest_child_mb(requests) -> float:
    """Peak memory of the largest request, each run once more through
    `spawn.py` (untimed), which reports the command's own peak."""
    launcher = (sys.executable, str(HERE / "spawn.py"))
    return max(int(call(argv, stdin, launcher).stdout.splitlines()[-1]) for argv, stdin in requests) / 1024.0


def well_formed(out: subprocess.CompletedProcess, expected: str) -> bool:
    return out.returncode == 0 and out.stdout == expected and out.stderr == ""


def rejected(out: subprocess.CompletedProcess) -> bool:
    """Exit code 2, nothing on stdout, one `error:` line on stderr."""
    lines = out.stderr.splitlines()
    return (
        out.returncode == 2 and out.stdout == "" and len(lines) == 1
        and lines[0].startswith("error: ") and "Traceback" not in out.stderr
    )


def request(kind, argv, stdin, expected, sink) -> Op:
    """A request and its check; well-formed when `expected` is its stdout."""
    def run():
        with sink.span(f"cli.{kind}"):
            return call(argv, stdin)

    if expected is None:
        return Op(kind, run, rejected)
    return Op(kind, run, lambda out: well_formed(out, expected))


def _word(rng, n):
    return unpack(rng.randrange(4**n), n)


def _element(fl, rng, n, k):
    return fl.Element(n, {_word(rng, n): rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(k)})


def round_requests(fl, rng: random.Random) -> list[tuple]:
    """(kind, argv, stdin, expected stdout or None when malformed).  Expected
    answers come from the library, formatted as the CLI documents."""
    reqs = []

    def add(kind, argv, expected, stdin=None):
        reqs.append((kind, argv, stdin, expected))

    n = rng.randint(3, 8)
    ws = [_word(rng, n) for _ in range(3)]
    letters = rng.random() < 0.5
    acc = fl.parse_signed_word(ws[0])
    for w in ws[1:]:
        acc = fl.signed_word_mul(acc, fl.parse_signed_word(w))
    add("mul", ["mul", *ws] + (["--letters"] if letters else []), fl.format_signed_word(acc, letters) + "\n")

    x = _element(fl, rng, 2, 4)
    text = fl.element_to_json(x)
    m = rng.randint(2, 5)
    add("pow", ["pow", "-", "-m", str(m)], fl.element_to_json(x**m) + "\n", text)
    w = _word(rng, 2)
    add("coeff", ["coeff", "-", w, "-m", str(m)], f"{(x**m).coeff(w)}\n", text)
    even, odd_part = x.parity_split()
    add("split", ["split", "-"],
        json.dumps({"even": fl.algebra.element_to_dict(even), "odd": fl.algebra.element_to_dict(odd_part)}) + "\n", text)

    perm, w = rng.choice(PERMS), _word(rng, rng.randint(2, 6))
    add("symmetry", ["symmetry", "apply", perm, "--word", w], fl.apply_perm_word(fl.parse_perm(perm), w) + "\n")

    w, d1 = _word(rng, rng.randint(1, 8)), rng.choice(("0.5", "1", "0.25", "2"))
    p = fl.centroid(w, float(d1))
    add("centroid", ["centroid", w, "--d1", d1], f"{p.x:.12g} {p.y:.12g}\n")

    depth, labels = rng.randint(2, 3), rng.random() < 0.5
    add("render", ["render", str(depth)] + (["--labels"] if labels else []), fl.render_tiling(depth, labels=labels))

    # fixed order: the order-8 scan is the largest child, so peak memory
    # does not depend on the seed
    w = _word(rng, 8)
    plus, minus = fl.centralizer_counts(w)
    add("centralizer", ["centralizer", w, "--count-only"], f"plus {plus}\nminus {minus}\ntotal {plus + minus}\n")
    w = _word(rng, rng.randint(2, 3))
    t = fl.centralizer_tiles(w)
    add("centralizer", ["centralizer", w],
        f"plus {len(t.plus)}: {' '.join(sorted(t.plus))}\nminus {len(t.minus)}: {' '.join(sorted(t.minus))}\ntotal {t.total}\n")

    while True:
        w = _word(rng, rng.randint(3, 4))
        if not odd(w):
            break
    add("vanishing", ["vanishing", w], ("true" if fl.check_vanishing(w) else "false") + "\n")

    m = rng.randint(20, 40)
    _, _, y = fl.padovan_elements()
    stream = [4 * q for q in fl.coeff_stream(y, "14", m)]
    rec = fl.find_recurrence(stream, 4)
    add("seq", ["seq", "--preset", "padovan", "--word", "ik", "--mmax", str(m), "--scale", "4", "--recurrence"],
        " ".join(str(q) for q in stream) + f"\n{rec}\n")

    bad = _word(rng, 4)
    add("error", ["mul", bad[:2] + "x" + bad[3:], bad], None)
    add("error", ["mul", _word(rng, 3), _word(rng, 4)], None)
    add("error", ["render", "9"], None)
    add("error", ["pow", "-", "-m", "2"], None, json.dumps({"terms": []}))
    return reqs


def plan(fl, seed: int, sink) -> Plan:
    rng = random.Random(seed)
    pool = [round_requests(fl, rng) for _ in range(POOL)]
    rounds = [[request(kind, argv, stdin, expected, sink) for kind, argv, stdin, expected in reqs] for reqs in pool]
    well_formed_0 = [(argv, stdin) for _, argv, stdin, expected in pool[0] if expected is not None]
    return Plan(rounds, warmup=[rounds[0][0], rounds[0][-1]], peak_rss_mb=lambda: largest_child_mb(well_formed_0))


#: Malformed inputs ROADMAP item 4 reports as mishandled: (label, argv, stdin).
HARDENING = [
    ("element terms not a list", ["pow", "-", "-m", "2"], '{"order": 2, "terms": 5}'),
    ("element order true", ["pow", "-", "-m", "2"], '{"order": true, "terms": []}'),
    ("centroid --d1 nan", ["centroid", "71", "--d1", "nan"], None),
    ("render --r0 nan", ["render", "1", "--r0", "nan"], None),
    ("bench --iterations 0", ["bench", "--iterations", "0", "--scan-order", "0"], None),
    ("centralizer --threads 0", ["centralizer", "17", "--threads", "0"], None),
    ("centralizer --threads -3", ["centralizer", "17", "--threads", "-3"], None),
]


def hardening_probe() -> list[dict]:
    out = []
    for label, argv, stdin in HARDENING:
        res = call(argv, stdin)
        shown = res.stderr.strip().splitlines()[-1:] or res.stdout.strip().splitlines()[:1] or [""]
        out.append({"input": label, "handled": rejected(res), "exit": res.returncode, "says": shown[0][:80]})
    return out


def after_run() -> dict:
    """Not timed and not part of attempted/failed: the timed mix holds only
    requests the package is expected to pass, the probe shows known defects."""
    probe = hardening_probe()
    bad = [p for p in probe if not p["handled"]]
    print(f"hardening probe: {len(bad)}/{len(probe)} malformed inputs mishandled (error rate {len(bad) / len(probe):.3f})")
    for p in probe:
        print(f"  {'ok  ' if p['handled'] else 'FAIL'} {p['input']}: exit {p['exit']}, {p['says']}")
    return {"hardening_probe": probe, "hardening_error_rate": len(bad) / len(probe)}
