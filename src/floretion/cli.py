"""Command-line front end.

One subcommand per operation family; words are accepted in digit or letter
spelling, output uses digits unless --letters is passed, and all numeric
output is exact unless --float is passed.  Errors exit nonzero with a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import Element, element_from_json, element_to_dict, element_to_json
from .centralizer import SCAN_MAX_ORDER, centralizer_counts, centralizer_tiles, check_vanishing
from .geometry import centroid
from .packed import lane_masks, pack_word, packed_mul, packed_mul_many, unpack_word
from .render import render_tiling
from .sequences import (
    coeff_stream,
    fibonacci_elements,
    find_recurrence,
    padovan_elements,
    write_b_file,
)
from .symmetry import (
    apply_perm_element,
    apply_perm_word,
    axis_words,
    cyclic_orbit_points,
    is_axis_symmetric,
    local_cycle,
    parse_perm,
)
from .words import (
    format_signed_word,
    format_word,
    parse_signed_word,
    parse_word,
    signed_word_mul,
    word_mul,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_element(path: str) -> Element:
    return element_from_json(_read_text(path))


def _parse_coords(text: str | None):
    if text is None:
        return None
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"invalid coordinate list {text!r}") from None


# -- subcommand handlers ---------------------------------------------------------


def _cmd_mul(args) -> int:
    if len(args.words) < 2:
        raise ValueError("mul needs at least two words")
    operands = [parse_signed_word(t) for t in args.words]
    n = len(operands[0].word)
    for sw in operands[1:]:
        if len(sw.word) != n:
            raise ValueError("all words must have the same length")
    acc = operands[0]
    for sw in operands[1:]:
        acc = signed_word_mul(acc, sw)
    print(format_signed_word(acc, args.letters))
    return 0


def _cmd_pow(args) -> int:
    x = _load_element(args.element)
    print(element_to_json(x**args.power))
    return 0


def _cmd_coeff(args) -> int:
    x = _load_element(args.element)
    q = (x**args.power).coeff(args.word)
    print(float(q) if args.float else q)
    return 0


def _cmd_split(args) -> int:
    x = _load_element(args.element)
    even, odd = x.parity_split()
    print(json.dumps({"even": element_to_dict(even), "odd": element_to_dict(odd)}))
    return 0


def _cmd_symmetry_apply(args) -> int:
    pi = parse_perm(args.perm)
    if args.word is not None:
        print(format_word(apply_perm_word(pi, parse_word(args.word)), args.letters))
    elif args.element is not None:
        print(element_to_json(apply_perm_element(pi, _load_element(args.element))))
    else:
        raise ValueError("symmetry apply needs --word or --element")
    return 0


def _cmd_symmetry_axis(args) -> int:
    x = _load_element(args.element)
    print("true" if is_axis_symmetric(x, args.axis) else "false")
    return 0


def _cmd_symmetry_orbit(args) -> int:
    w = parse_word(args.word)
    coords = _parse_coords(args.coords)
    points = cyclic_orbit_points(w, coords, args.d1)
    shifted = w
    for p in points:
        print(f"{format_word(shifted, args.letters)} {p.x:.12g} {p.y:.12g}")
        shifted = local_cycle(shifted, coords)
    return 0


def _cmd_centroid(args) -> int:
    p = centroid(parse_word(args.word), args.d1)
    print(f"{p.x:.12g} {p.y:.12g}")
    return 0


def _cmd_render(args) -> int:
    extra = None
    if args.highlight_axis is not None:
        extra = {w: "highlight" for w in axis_words(args.highlight_axis, args.depth)}
    svg = render_tiling(
        args.depth, args.r0, labels=args.labels, letters=args.letters, extra_classes=extra
    )
    _write_text(args.output, svg)
    return 0


def _cmd_centralizer(args) -> int:
    w = parse_word(args.word)
    if args.count_only and args.svg is None:
        counts, parts = centralizer_counts(w), ((), ())
    else:
        t = centralizer_tiles(w)
        counts, parts = (len(t.plus), len(t.minus)), (t.plus, t.minus)
    if args.svg is not None:
        extra = {c: "highlight-plus" for c in t.plus}
        extra.update({c: "highlight-minus" for c in t.minus})
        svg = render_tiling(len(w), args.r0, extra_classes=extra)
    for label, count, part in zip(("plus", "minus"), counts, parts):
        listing = "" if args.count_only else ": " + " ".join(sorted(format_word(c, args.letters) for c in part))
        print(f"{label} {count}{listing}")
    print(f"total {sum(counts)}")
    if args.svg is not None:
        _write_text(args.svg, svg)
    return 0


def _cmd_vanishing(args) -> int:
    print("true" if check_vanishing(parse_word(args.word)) else "false")
    return 0


def rational(text: str) -> Fraction:
    """Fraction(text); a zero denominator raises ValueError, which argparse reports in one line."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_seed(text: str) -> tuple[Fraction, Fraction, Fraction]:
    try:
        a, b, c = (rational(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"seed must be three comma-separated rationals, got {text!r}") from None
    return a, b, c


def _b_file_text(values: list[Fraction], offset: int) -> str:
    out = io.StringIO()
    write_b_file(out, values, offset)
    return out.getvalue()


def _cmd_seq(args) -> int:
    if (args.preset is None) == (args.element is None):
        raise ValueError("seq needs exactly one of --preset or --element")
    if args.preset is not None:
        if args.preset in ("fib", "fibonacci"):
            _, _, x = fibonacci_elements(*_parse_seed(args.seed))
        else:
            _, _, x = padovan_elements()
    else:
        x = _load_element(args.element)
    stream = coeff_stream(x, args.word, args.mmax)
    scaled = [args.scale * q for q in stream]
    rec = find_recurrence(stream, args.max_order) if args.recurrence else None
    b_files = []
    if args.bfile is not None:
        b_files.append((args.bfile, _b_file_text(scaled, args.offset)))
    if args.bfile_parts is not None:
        num_path, den_path = args.bfile_parts
        b_files.append((num_path, _b_file_text([Fraction(q.numerator) for q in scaled], args.offset)))
        b_files.append((den_path, _b_file_text([Fraction(q.denominator) for q in scaled], args.offset)))
    if args.float:
        print(" ".join(f"{float(q):.12g}" for q in scaled))
    else:
        print(" ".join(str(q) for q in scaled))
    if args.recurrence:
        print(f"no recurrence of order <= {args.max_order}" if rec is None else rec)
    for path, text in b_files:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def _cmd_bench(args) -> int:
    n = args.order
    iters = args.iterations
    m = args.scan_order
    if iters < 1:
        raise ValueError(f"iterations must be >= 1, got {iters}")
    if not 0 <= m <= SCAN_MAX_ORDER:
        raise ValueError(f"scan order must be in 0..{SCAN_MAX_ORDER}, got {m}")
    full, _ = lane_masks(n)
    rng = random.Random(args.rng_seed)
    xs = [rng.randint(0, full) for _ in range(iters)]
    ys = [rng.randint(0, full) for _ in range(iters)]
    xw = [unpack_word(v, n) for v in xs]
    yw = [unpack_word(v, n) for v in ys]

    for i in range(min(1000, iters)):  # warmup
        word_mul(xw[i], yw[i])
        packed_mul(xs[i], ys[i], n)

    t0 = time.perf_counter()
    ref = [word_mul(a, b) for a, b in zip(xw, yw)]
    t_word = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = [packed_mul(a, b, n) for a, b in zip(xs, ys)]
    t_packed = time.perf_counter() - t0

    ax = np.array(xs, dtype=np.uint64)
    ay = np.array(ys, dtype=np.uint64)
    signs, prods = packed_mul_many(ax, ay, n)  # warmup pays allocation cost
    t_batch = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        signs, prods = packed_mul_many(ax, ay, n)
        t_batch = min(t_batch, time.perf_counter() - t0)

    agree = sum(
        1
        for (sw, ww), (sp, wp), sb, wb in zip(ref, fast, signs.tolist(), prods.tolist())
        if sw == sp == sb and pack_word(ww) == wp == wb
    )
    rate_word = iters / t_word
    rate_packed = iters / t_packed
    rate_batch = iters / t_batch
    print(f"order {n}, {iters} random products per kernel")
    print(f"word_mul      {rate_word:12.0f} products/s")
    print(f"packed_mul    {rate_packed:12.0f} products/s  ({rate_packed / rate_word:.1f}x word_mul)")
    print(f"packed batch  {rate_batch:12.0f} products/s  ({rate_batch / rate_word:.1f}x word_mul)")
    print(f"cross-check   {agree}/{iters} agree")
    if agree != iters:
        raise ValueError("kernel cross-check failed")

    if m:
        t0 = time.perf_counter()
        t = centralizer_tiles("1" + "7" * (m - 1))
        t_scan = time.perf_counter() - t0
        print(
            f"centralizer scan order {m}: {t.total} tiles listed in {t_scan:.3f} s "
            f"(plus {len(t.plus)}, minus {len(t.minus)})"
        )
    return 0


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors as one `error:` line and exit code 2, like every other
    error; subparsers are built from this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="floretion",
        description="Word algebra over the digits 1, 2, 4, 7 (quaternionic letters i, j, k, e): "
        "products, triangle-tiling geometry, symmetry actions, centralizer tiles and "
        "power-coefficient sequences.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="multiply two or more equal-length signed words")
    p.add_argument("words", nargs="+", metavar="WORD")
    p.add_argument("--letters", action="store_true", help="print letters ijke instead of digits")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("pow", help="raise an element (JSON file, or - for stdin) to a power")
    p.add_argument("element")
    p.add_argument("-m", "--power", type=int, required=True)
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("coeff", help="coefficient of a word in an element or one of its powers")
    p.add_argument("element")
    p.add_argument("word")
    p.add_argument("-m", "--power", type=int, default=1)
    p.add_argument("--float", action="store_true")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("split", help="split an element into its even and odd parity parts")
    p.add_argument("element")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("symmetry", help="digit permutation actions")
    ssub = p.add_subparsers(dest="action", required=True)
    q = ssub.add_parser("apply", help="apply a digit permutation to a word or element")
    q.add_argument("perm", help="rot, rot2, swap24, swap14, swap12, identity, or images like 241")
    q.add_argument("--word")
    q.add_argument("--element")
    q.add_argument("--letters", action="store_true")
    q.set_defaults(func=_cmd_symmetry_apply)
    q = ssub.add_parser("axis", help="test reflection symmetry of an element about an axis digit")
    q.add_argument("axis", choices=["1", "2", "4"])
    q.add_argument("--element", required=True)
    q.set_defaults(func=_cmd_symmetry_axis)
    q = ssub.add_parser("orbit", help="centroids of a word under the synchronized digit cycle")
    q.add_argument("word")
    q.add_argument("--coords", help="1-based coordinates to cycle, e.g. 1,3 (default: all)")
    q.add_argument("--d1", type=float, default=0.5, help="first step length (default 0.5)")
    q.add_argument("--letters", action="store_true")
    q.set_defaults(func=_cmd_symmetry_orbit)

    p = sub.add_parser("centroid", help="tile centroid of a word")
    p.add_argument("word")
    p.add_argument("--d1", type=float, default=0.5, help="first step length (default 0.5)")
    p.set_defaults(func=_cmd_centroid)

    p = sub.add_parser("render", help="render the depth-n tiling as SVG")
    p.add_argument("depth", type=int)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--r0", type=float, default=1.0, help="depth-0 circumradius (default 1)")
    p.add_argument("--labels", action="store_true", help="label each tile with its word")
    p.add_argument("--letters", action="store_true")
    p.add_argument("--highlight-axis", choices=["1", "2", "4"], help="highlight the words on this axis")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("centralizer", help="enumerate the centralizer tile set of a word")
    p.add_argument("word")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--letters", action="store_true")
    p.add_argument("--svg", help="write an SVG with plus/minus tiles highlighted")
    p.add_argument("--r0", type=float, default=1.0)
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("vanishing", help="check the component-sum cancellation for a word squaring to the identity")
    p.add_argument("word")
    p.set_defaults(func=_cmd_vanishing)

    p = sub.add_parser("seq", help="coefficient stream of element powers")
    p.add_argument("--preset", choices=["fib", "fibonacci", "padovan"], help="built-in order-two construction")
    p.add_argument("--seed", default="-1,1,-1", help="A,B,C seed coefficients for the fibonacci preset")
    p.add_argument("--element", help="element JSON file, or - for stdin")
    p.add_argument("--word", required=True, help="basis word to track")
    p.add_argument("--mmax", type=int, required=True, help="number of powers")
    p.add_argument("--scale", type=rational, default=Fraction(1), help="multiply printed terms")
    p.add_argument("--float", action="store_true")
    p.add_argument("--recurrence", action="store_true", help="detect a linear recurrence")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--bfile", help="write 'index value' lines (integer terms only)")
    p.add_argument(
        "--bfile-parts",
        nargs=2,
        metavar=("NUM", "DEN"),
        help="write numerators and denominators as two b-files",
    )
    p.add_argument("--offset", type=int, default=1, help="first index for b-file output")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("bench", help="measure the packed kernel against the digitwise reference")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--iterations", type=int, default=200_000)
    p.add_argument("--scan-order", type=int, default=10, help="also time a centralizer tile listing of this order (0 to skip)")
    p.add_argument("--rng-seed", type=int, default=20260808)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
