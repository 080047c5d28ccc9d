"""tiles: centralizer scans, tile listing, tiling render with overlays,
digit-permutation actions on tile lists, and bulk packed products.

The packed kernel, numpy, string unpacking and geometry do the work; the
exact algebra does none.  Every round has the same 21 operations: six
short ones (a tile list at order 6, counts of the identity word and of a
seeded word at order 9, a render with overlays at depth 5, permutations
over depth-5 and depth-6 tile lists), a middle block of ten at 50 to 80 ms
(four renders with overlays at depth 6 and four tile lists at order 8, one
order-10 count, one 2M-pair `packed_mul_many` batch) and five of about 0.2
to 0.3 s (three order-11 counts, two order-9 tile lists).  The median falls
among the depth-6 renders and order-8 tile lists, and the tail among the
longest.  Both are pure-Python work, which the rescaling to the nominal
host speed (see harness) follows more closely than the numpy scans.

Order-12 counts (about 1 s each) are left out: a 25-s run holds too few of
them for the tail to fall among them in every run, and with fewer than
eleven the tail would move between them and the order-11 counts as the
number of rounds changes with the host's speed.

Counts are compared exactly, plus and minus each, with the O(n) count in
`oracle.centralizer_counts`.  Every word but the identity splits evenly
(4**n / 4 each), so the identity count is the one that shows plus and
minus swapped.
"""

from __future__ import annotations

import random

import numpy as np

from harness import Op, Plan, interleave
from oracle import centralizer_counts, pack, unpack

NAME = "tiles"
WHY = "centralizer counts at orders 9-11, tile lists at orders 6-9, depth 5 and 6 SVG renders with overlays, symmetry on tile lists, a 2M-pair packed batch; the scan ROADMAP item 2 replaces"
SIZES = (
    "per round: centralizer_counts of 3 words at order 11, 1 at order 10, 1 at order 9 and "
    "the identity word at order 9; centralizer_tiles at order 6, 4 times at order 8 and twice "
    "at order 9; render_tiling at depth 5 and 4 times at depth 6 with plus/minus overlays; "
    "6 digit permutations over depth-5 and depth-6 tile lists; "
    "packed_mul_many on 2,000,000 seeded pairs at order 12"
)
POOL = 4
BATCH = 2_000_000
SAMPLES = 16


def _word(rng: random.Random, n: int) -> str:
    while True:
        w = unpack(rng.randrange(4**n), n)
        if w != "7" * n:
            return w


def _sign(fl, b: str, c: str) -> int:
    return fl.word_mul(b, c).sign


def _tile_ok(fl, b: str, c: str, sign: int) -> bool:
    """c commutes with b and the common product has the given sign."""
    return _sign(fl, b, c) == _sign(fl, c, b) == sign


def counts(fl, rng, n, identity=False) -> Op:
    w = "7" * n if identity else _word(rng, n)
    expected = centralizer_counts(fl.word_mul, w)
    kind = f"counts_identity_o{n}" if identity else f"counts_o{n}"
    return Op(kind, lambda: fl.centralizer_counts(w), lambda out: tuple(out) == expected)


def tiles(fl, rng, n) -> Op:
    w = _word(rng, n)
    picks = [rng.random() for _ in range(SAMPLES)]
    expected = centralizer_counts(fl.word_mul, w)

    def check(t) -> bool:
        if t.base != w or (len(t.plus), len(t.minus)) != expected:
            return False
        return all(
            _tile_ok(fl, w, part[int(p * len(part))], sign)
            for part, sign in ((t.plus, 1), (t.minus, -1)) if part
            for p in picks
        )

    return Op(f"tiles_o{n}", lambda: fl.centralizer_tiles(w), check)


def render(fl, rng, n) -> Op:
    t = fl.centralizer_tiles(_word(rng, n))
    extra = {c: "highlight-plus" for c in t.plus}
    extra.update({c: "highlight-minus" for c in t.minus})

    def check(svg: str) -> bool:
        return (
            svg.count("<polygon ") == 4**n
            and svg.count('highlight-plus"') == len(t.plus)
            and svg.count('highlight-minus"') == len(t.minus)
            and svg.rstrip().endswith("</svg>")
        )

    return Op(f"render_d{n}", lambda: fl.render_tiling(n, extra_classes=extra), check)


def symmetry(fl, rng, n, sink) -> Op:
    """All six digit permutations over a tile list.  Even permutations are
    automorphisms and odd ones anti-automorphisms, so either way pi(c)
    commutes with pi(b) and the product keeps its sign."""
    t = fl.centralizer_tiles(_word(rng, n))
    words = list(t.plus + t.minus)
    signs = [1] * len(t.plus) + [-1] * len(t.minus)
    picks = [rng.randrange(len(words)) for _ in range(SAMPLES)]

    def run():
        out = []
        for pi in fl.ALL_PERMS:
            with sink.span("symmetry.apply_perm_word", calls=len(words)):
                out.append((pi, [fl.apply_perm_word(pi, c) for c in words]))
        return out

    def check(out) -> bool:
        if len(out) != 6:
            return False
        for pi, images in out:
            image = dict(zip("1247", pi.images + ("7",)))
            pb = "".join(image[d] for d in t.base)
            if len(set(images)) != len(words):
                return False
            for i in picks:
                if images[i] != "".join(image[d] for d in words[i]) or not _tile_ok(fl, pb, images[i], signs[i]):
                    return False
        return True

    return Op(f"symmetry_d{n}", run, check)


def batch(fl, rng, xs, ys, n) -> Op:
    picks = [rng.randrange(BATCH) for _ in range(SAMPLES)]

    def check(out) -> bool:
        signs, prods = out
        if signs.shape != (BATCH,) or prods.shape != (BATCH,):
            return False
        for i in picks:
            s, w = fl.word_mul(unpack(int(xs[i]), n), unpack(int(ys[i]), n))
            if int(signs[i]) != s or int(prods[i]) != pack(w):
                return False
        return True

    return Op(f"mul_many_o{n}", lambda: fl.packed_mul_many(xs, ys, n), check)


def round_ops(fl, rng, xs, ys, sink) -> list[Op]:
    short = [
        tiles(fl, rng, 6),
        symmetry(fl, rng, 5, sink),
        counts(fl, rng, 9, identity=True),
        render(fl, rng, 5),
        counts(fl, rng, 9),
        symmetry(fl, rng, 6, sink),
    ]
    middle = [
        render(fl, rng, 6),
        tiles(fl, rng, 8),
        counts(fl, rng, 10),
        render(fl, rng, 6),
        tiles(fl, rng, 8),
        batch(fl, rng, xs, ys, 12),
        render(fl, rng, 6),
        tiles(fl, rng, 8),
        render(fl, rng, 6),
        tiles(fl, rng, 8),
    ]
    longest = [counts(fl, rng, 11), tiles(fl, rng, 9), counts(fl, rng, 11), tiles(fl, rng, 9), counts(fl, rng, 11)]
    return interleave(short, middle, longest)


def plan(fl, seed: int, sink) -> Plan:
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    xs = gen.integers(0, 4**12, BATCH, dtype=np.uint64)
    ys = gen.integers(0, 4**12, BATCH, dtype=np.uint64)
    rounds = [round_ops(fl, rng, xs, ys, sink) for _ in range(POOL)]
    warm = [tiles(fl, rng, 6), counts(fl, rng, 8), render(fl, rng, 3), symmetry(fl, rng, 3, sink), batch(fl, rng, xs, ys, 12)]
    return Plan(rounds, warmup=warm)
