"""`floretion bench`: time the product kernels, word parse and pack, dense
`Element` squares, a sparse `Element` product, the JSON round trip, the
vanishing check, three coefficient streams, an integral and a rational
recurrence continuation, a cold and a cached overlay render, a centralizer
listing and four README commands end to end as fresh `python -m floretion`
processes."""

from __future__ import annotations

import os
import platform
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from .algebra import Element, element_from_json, element_to_json
from .centralizer import centralizer_tiles, check_vanishing
from .packed import lane_masks, pack_words, packed_mul_many, unpack_words
from .render import _tile_lines, render_tiling
from .sequences import coeff_stream, fibonacci_elements, find_recurrence, padovan_elements
from .words import all_words, parse_word, unpack_word, word_mul

#: Seed of the random word pairs and dense elements, so every run times the same inputs.
SEED = 20260808

#: README commands timed as fresh processes: (record name, label, argv, stdin).
#: `mul`, the count and the listing load no numpy; `pow` multiplies, so it
#: does.  The listing prints 131,072 letter-spelled tiles of order 9.
CLI_COMMANDS = (
    ("cli_mul_s", "mul iji jek", ["mul", "iji", "jek"], None),
    ("cli_centralizer_count_s", "centralizer 1711111 --count-only", ["centralizer", "1711111", "--count-only"], None),
    ("cli_pow_s", "pow - -m 3", ["pow", "-", "-m", "3"],
     '{"order": 2, "terms": [{"word": "12", "coeff": "1/2"}, {"word": "77", "coeff": "1"}]}'),
    ("cli_centralizer_letters_s", "centralizer 124712471 --letters", ["centralizer", "124712471", "--letters"], None),
)

#: The directory holding this package, put first on the children's PYTHONPATH.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git_commit() -> str | None:
    try:
        r = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cli(argv: list[str], stdin: str | None) -> None:
    """Run `python -m floretion argv` on this package in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    r = subprocess.run(
        [sys.executable, "-m", "floretion", *argv], input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )
    if r.returncode:
        raise ValueError(f"floretion {' '.join(argv)} exited {r.returncode}: {r.stderr.strip()[-200:]}")


def _uncached(x: Element) -> Element:
    """x without its cached packed form, so that a timed product packs its
    operands as their first product does."""
    return Element._canonical(x.order, x.terms)


def environment() -> dict:
    """Python and numpy versions, CPU and commit of this run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def run(n: int, iters: int, m: int) -> tuple[list[str], dict]:
    """Time `iters` random order-n word products and, unless m is 0, an order-m
    tile listing.  Returns the lines to print and every number printed, as
    {name: {"value", "unit"}} with each timing's runs in "runs_s"."""
    metrics = {}
    def note(name, value, unit, runs=()):
        metrics[name] = {"value": value, "unit": unit, **({"runs_s": runs} if runs else {})}
        return value

    def timed(name, k, fn, per=None, before=None):
        """Call fn k times, each after an untimed call of `before` if given;
        record every run and the fastest, in seconds or as `per` products per
        second.  Returns that number and the last result."""
        runs = []
        for _ in range(k):
            if before is not None:
                before()
            t0 = time.perf_counter()
            out = fn()
            runs.append(time.perf_counter() - t0)
        value, unit = (min(runs), "s") if per is None else (per / min(runs), "products/s")
        return note(name, value, unit, runs), out

    note("order", n, "word length")
    note("iterations", iters, "products")

    full, _ = lane_masks(n)
    rng = random.Random(SEED)
    ax = np.array([rng.randint(0, full) for _ in range(iters)], dtype=np.uint64)
    ay = np.array([rng.randint(0, full) for _ in range(iters)], dtype=np.uint64)
    xw, yw = unpack_words(ax, n), unpack_words(ay, n)

    for i in range(min(1000, iters)):  # warmup
        word_mul(xw[i], yw[i])

    rate_word, ref = timed("word_mul", 1, lambda: [word_mul(a, b) for a, b in zip(xw, yw)], iters)
    del xw, yw  # before the reference is packed: 38 MB less peak RSS at 1M pairs
    ref_signs = np.fromiter((s for s, _ in ref), dtype=np.int8, count=iters)
    ref_words = pack_words([w for _, w in ref], n)
    packed_mul_many(ax, ay, n)  # warmup pays allocation cost
    rate_batch, (signs, prods) = timed("packed_batch", 3, lambda: packed_mul_many(ax, ay, n), iters)

    agree = int(np.count_nonzero((signs == ref_signs) & (prods == ref_words)))
    ratio = note("packed_batch_speedup", rate_batch / rate_word, "x word_mul")
    note("cross_check_agree", agree, "products")
    lines = [
        f"order {n}, {iters} random products per kernel",
        f"word_mul      {rate_word:12.0f} products/s",
        f"packed batch  {rate_batch:12.0f} products/s  ({ratio:.1f}x word_mul)",
        f"cross-check   {agree}/{iters} agree",
    ]
    if agree != iters:
        raise ValueError("kernel cross-check failed")

    # the algebra-dense workload's operands: parse letter words, then pack them in one call
    rng = random.Random(SEED)
    letters = ["".join(rng.choice("ijke") for _ in range(5)) for _ in range(256)]
    t_words, _ = timed("word_parse_pack_order5_256", 3, lambda: pack_words([parse_word(w, 5) for w in letters], 5))
    lines.append(f"parse_word + pack_words order 5: 256 letter words in {t_words * 1e3:.3f} ms")

    for k in (4, 5, 6):
        rng = random.Random(SEED)  # a dense element: all 4**k words
        x = Element(k, {w: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for w in all_words(k)})
        t_square, square = timed(f"element_square_order{k}", 3, lambda: (c := _uncached(x)) * c)
        note(f"element_square_order{k}_terms_in", len(x.terms), "terms")
        note(f"element_square_order{k}_terms_out", len(square.terms), "terms")
        lines.append(f"Element square order {k}: {len(x.terms)} terms -> {len(square.terms)} terms in {t_square:.4f} s")
    # the shapes of the algebra-dense workload's 8 x 256 product and JSON round trip
    rng = random.Random(SEED)
    x, y, z = (Element(5, {unpack_word(v, 5): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                           for v in rng.sample(range(4**5), k)}) for k in (8, 256, 256))
    t_sparse, _ = timed("element_product_order5_8x256", 3, lambda: _uncached(x) * _uncached(y))
    lines.append(f"Element product order 5: 8 x 256 terms in {t_sparse * 1e3:.3f} ms")
    # the shape of its 16-term order-4 cube: x * (x * x) multiplies a product's result again
    rng = random.Random(SEED)
    x = Element(4, {unpack_word(v, 4): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                    for v in rng.sample(range(4**4), 16)})
    t_cube, cube = timed("element_cube_order4_16", 3, lambda: _uncached(x) ** 3)
    note("element_cube_order4_16_terms_out", len(cube.terms), "terms")
    lines.append(f"Element cube order 4: 16 terms -> {len(cube.terms)} terms in {t_cube * 1e3:.3f} ms")
    t_json, _ = timed("element_json_round_trip_order5_256", 3, lambda: element_from_json(element_to_json(z)))
    lines.append(f"Element JSON round trip order 5: 256 terms in {t_json * 1e3:.3f} ms")
    for k, word in ((8, "12121212"), (32, "1247" * 8)):
        t_vanish, vanishes = timed(f"check_vanishing_order{k}", 3, lambda: check_vanishing(word))
        lines.append(f"check_vanishing {word}: {str(vanishes).lower()} in {t_vanish * 1e3:.3f} ms")

    _, _, y = padovan_elements()
    t_stream, stream = timed("coeff_stream_padovan_ik_200", 3, lambda: coeff_stream(y, "ik", 200))
    lines.append(f"coeff_stream padovan ik: 200 powers in {t_stream:.4f} s")
    # the two stages of that stream's exact arithmetic, on its own terms
    t_rec, rec = timed("find_recurrence_padovan_ik_200", 3, lambda: find_recurrence(stream, 4))
    lines.append(f"find_recurrence padovan ik: 200 terms in {t_rec * 1e3:.3f} ms")
    t_extend, _ = timed("recurrence_extend_padovan_ik_190", 3, lambda: rec.extend(stream[:10], 190))
    lines.append(f"Recurrence.extend padovan ik: 190 terms in {t_extend * 1e3:.3f} ms")
    # Padovan's rule is integral; this one, of the rational Fibonacci preset, is not
    _, _, z = fibonacci_elements(Fraction(3, 2), Fraction(-2, 3), Fraction(1, 3))
    stream = coeff_stream(z, "ij", 200)
    rec = find_recurrence(stream, 4)
    t_extend, _ = timed("recurrence_extend_fibonacci_q_190", 3, lambda: rec.extend(stream[:10], 190))
    lines.append(f"Recurrence.extend fibonacci 3/2,-2/3,1/3 ij: 190 terms in {t_extend * 1e3:.3f} ms")
    # sparse elements, each its whole head; the order-6 one spans 512 words, the widest span here
    for k, terms, head in ((3, 4, 18), (6, 10, 130)):
        rng = random.Random(SEED)
        z = Element(k, {w: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for w in rng.sample(sorted(all_words(k)), terms)})
        t_head, _ = timed(f"coeff_stream_random_order{k}_head", 3, lambda: coeff_stream(z, z.support()[0], head))
        lines.append(f"coeff_stream random order {k}: {head} powers of {terms} terms in {t_head * 1e3:.3f} ms")

    # the tiles workload's overlay renders, 4**6 - 1 packing the identity word: the cold row
    # builds the cached tiling on every run, the cached row draws another overlay on it
    rng = random.Random(SEED)
    for name, label, before in (("render_tiling_depth6", "", _tile_lines.cache_clear), ("render_tiling_depth6_cached", " cached", None)):
        t = centralizer_tiles(unpack_word(rng.randrange(4**6 - 1), 6))
        extra = dict.fromkeys(t.plus, "highlight-plus") | dict.fromkeys(t.minus, "highlight-minus")
        t_render, _ = timed(name, 3, lambda: render_tiling(6, extra_classes=extra), before=before)
        lines.append(f"render_tiling depth 6{label}: 4096 tiles, plus/minus overlay of {t.base}, in {t_render * 1e3:.3f} ms")

    if m:
        t_scan, t = timed("centralizer_scan", 1, lambda: centralizer_tiles("1" + "7" * (m - 1)))
        note("centralizer_scan_order", m, "word length")
        note("centralizer_tiles_listed", t.total, "tiles")
        note("centralizer_plus", len(t.plus), "tiles")
        note("centralizer_minus", len(t.minus), "tiles")
        lines.append(f"centralizer scan order {m}: {t.total} tiles listed in {t_scan:.3f} s (plus {len(t.plus)}, minus {len(t.minus)})")

    for name, label, argv, stdin in CLI_COMMANDS:
        t_cli, _ = timed(name, 3, lambda: _cli(argv, stdin))
        lines.append(f"CLI {label}: {t_cli * 1e3:.1f} ms wall, fresh process")
    return lines, metrics
