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
import os
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .algebra import Element, element_from_json, element_to_dict, element_to_json
from .centralizer import SCAN_MAX_ORDER, _sorted_listing, centralizer_counts, centralizer_tiles, check_vanishing
from .geometry import centroid
from .render import _check_limits, render_tiling
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
)


def _emit(lines: list[str], outputs: list[tuple[str | None, str]]) -> None:
    """Print `lines` and write each (path, text) output, None or - meaning stdout.
    Files are written first, so a failed write leaves stdout empty; outputs to - follow `lines`."""
    printed = "".join(f"{line}\n" for line in lines)
    for path, text in sorted([(None, printed), *outputs], key=lambda o: o[0] in (None, "-")):
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


#: Largest exponent `pow -m` and `coeff -m` take and longest stream `seq
#: --mmax` prints.  At the cap, on a 2-vCPU x86-64 host, the rational
#: Fibonacci stream (seed 3/2,-2/3,1/3) takes about 1.5 s and prints 15 MB,
#: and the Padovan stream 0.35 s.  Powers of small order-3 elements outgrow
#: the interpreter's integer-to-text digit limit first, which is refused in
#: one line as soon as the stream reaches it: a 31-term order-3 stream at
#: term 1663, after 0.44 s, where computing all 4096 terms took 2.5 s.
MAX_POWER = 4096

#: Largest `bench --iterations`: at 1M pairs a whole `bench` call takes about
#: 7 s and 315 MB of peak RSS on a 2-vCPU x86-64 host, nearly all of it in
#: the `word_mul` reference and its Python lists; the packed batch is 15 ms.
MAX_ITERATIONS = 1_000_000


def _check_cap(value: int, option: str, cap: int = MAX_POWER) -> None:
    if value > cap:
        raise ValueError(f"{option} must be at most {cap}, got {value}")


@cache
def _power_of_ten(digits: int) -> int:
    return 10**digits


def _unprintable(q: Fraction) -> bool:
    """Whether q's numerator or denominator has more decimal digits than
    the interpreter converts to text.  Judged by bit length, so no integer
    is converted; only at the boundary bit length is one compared with
    10**limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return False
    top = _power_of_ten(limit)
    return any(v.bit_length() >= top.bit_length() and abs(v) >= top for v in (q.numerator, q.denominator))


def _check_printable(values: list[Fraction], option: str | None, label) -> None:
    """Refuse an `_unprintable` value, naming `label(i)` for the first such
    values[i] and the option to lower, if one is given."""
    for i, q in enumerate(values):
        if _unprintable(q):
            limit = sys.get_int_max_str_digits()
            lower = f"; lower {option}" if option else ""
            raise ValueError(f"{label(i)} has more than {limit} digits, the most Python prints{lower}")


def _check_coeffs(x: Element, option: str | None) -> None:
    """`_check_printable` on x's coefficients, naming the word of the first refused."""
    words = x.support()
    _check_printable([x.terms[w] for w in words], option, lambda i: f"the coefficient of {words[i]}")


def _load_element(path: str) -> Element:
    if path == "-":
        return element_from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return element_from_json(fh.read())


def _parse_coords(text: str | None):
    if text is None:
        return None
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"invalid coordinate list {text!r}") from None


# -- subcommand handlers ---------------------------------------------------------
# Each returns the (lines, outputs) `main` passes to `_emit`: a call that raises writes nothing.


def _cmd_mul(args) -> tuple:
    if len(args.words) < 2:
        raise ValueError("mul needs at least two words")
    operands = [parse_signed_word(t) for t in args.words]
    acc = operands[0]
    for sw in operands[1:]:
        acc = signed_word_mul(acc, sw)
    return [format_signed_word(acc, args.letters)], []


def _cmd_pow(args) -> tuple:
    _check_cap(args.power, "-m/--power")
    x = _load_element(args.element)
    _check_coeffs(x, None)  # no exponent fixes an input past the limit
    p = x**args.power
    _check_coeffs(p, "-m/--power")
    return [element_to_json(p)], []


def _cmd_coeff(args) -> tuple:
    _check_cap(args.power, "-m/--power")
    x = _load_element(args.element)
    if not args.float:
        _check_coeffs(x, None)
    q = (x**args.power).coeff(args.word)
    if not args.float:
        _check_printable([q], "-m/--power", lambda i: f"the coefficient of {args.word}")
    return [str(float(q) if args.float else q)], []


def _cmd_split(args) -> tuple:
    x = _load_element(args.element)
    _check_coeffs(x, None)
    even, odd = x.parity_split()
    return [json.dumps({"even": element_to_dict(even), "odd": element_to_dict(odd)})], []


def _cmd_symmetry_apply(args) -> tuple:
    if (args.word is None) == (args.element is None):
        raise ValueError("symmetry apply needs exactly one of --word or --element")
    pi = parse_perm(args.perm)
    if args.word is not None:
        return [format_word(apply_perm_word(pi, parse_word(args.word)), args.letters)], []
    y = apply_perm_element(pi, _load_element(args.element))
    _check_coeffs(y, None)
    return [element_to_json(y)], []


def _cmd_symmetry_axis(args) -> tuple:
    x = _load_element(args.element)
    return ["true" if is_axis_symmetric(x, args.axis) else "false"], []


def _cmd_symmetry_orbit(args) -> tuple:
    w = parse_word(args.word)
    coords = _parse_coords(args.coords)
    points = enumerate(cyclic_orbit_points(w, coords, args.d1))
    return [f"{format_word(local_cycle(w, coords, k), args.letters)} {p.x:.12g} {p.y:.12g}" for k, p in points], []


def _cmd_centroid(args) -> tuple:
    p = centroid(parse_word(args.word), args.d1)
    return [f"{p.x:.12g} {p.y:.12g}"], []


def _cmd_render(args) -> tuple:
    _check_limits(args.depth, args.r0)  # before the axis words, 2**depth of them
    extra = None
    if args.highlight_axis is not None:
        extra = {w: "highlight" for w in axis_words(args.highlight_axis, args.depth)}
    svg = render_tiling(
        args.depth, args.r0, labels=args.labels, letters=args.letters, extra_classes=extra
    )
    return [], [(args.output, svg)]


def _cmd_centralizer(args) -> tuple:
    w = parse_word(args.word)
    outputs = []
    if args.svg is not None:
        _check_limits(len(w), args.r0)
        t = centralizer_tiles(w)
        extra = {c: "highlight-plus" for c in t.plus}
        extra.update({c: "highlight-minus" for c in t.minus})
        outputs.append((args.svg, render_tiling(len(w), args.r0, extra_classes=extra)))
    if args.count_only:
        counts = centralizer_counts(w)
        lines = [f"{label} {count}" for label, count in zip(("plus", "minus"), counts)]
    else:
        texts = _sorted_listing(w, args.letters)
        counts = [text.count(" ") for text in texts]
        lines = [f"{label} {count}: {text[1:]}" for label, count, text in zip(("plus", "minus"), counts, texts)]
    lines.append(f"total {sum(counts)}")
    return lines, outputs


def _cmd_vanishing(args) -> tuple:
    return ["true" if check_vanishing(parse_word(args.word)) else "false"], []


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


def _cmd_seq(args) -> tuple:
    _check_cap(args.mmax, "--mmax")
    if (args.preset is None) == (args.element is None):
        raise ValueError("seq needs exactly one of --preset or --element")
    fibonacci = args.preset in ("fib", "fibonacci")
    if args.seed is not None and not fibonacci:
        raise ValueError("--seed applies only to --preset fibonacci")
    # one file named twice would hold only the later write; - (stdout) may repeat
    files = [os.path.realpath(p) for p in (args.bfile, *(args.bfile_parts or ())) if p not in (None, "-")]
    if len(set(files)) < len(files):
        raise ValueError("two b-file outputs name the same file")
    if args.preset is not None:
        if fibonacci:
            _, _, x = fibonacci_elements(*_parse_seed("-1,1,-1" if args.seed is None else args.seed))
        else:
            _, _, x = padovan_elements()
    else:
        x = _load_element(args.element)
    printed = not args.float or args.bfile is not None or args.bfile_parts is not None
    # a stream that grows past the digit limit ends at that term, the only one to check
    stream = coeff_stream(x, args.word, args.mmax, (lambda q: _unprintable(args.scale * q)) if printed else None)
    scaled = [args.scale * q for q in stream]
    if printed:
        _check_printable(scaled[-1:], "--mmax", lambda i: f"term {len(scaled)} of the stream")
    # beyond 2D + 2 terms (D = 2**n) the stream follows its head's minimal rule
    rec = find_recurrence(stream[: 2 * max(2**x.order, args.max_order) + 2], args.max_order) if args.recurrence else None
    b_files = []
    if args.bfile is not None:
        b_files.append((args.bfile, _b_file_text(scaled, args.offset)))
    if args.bfile_parts is not None:
        num_path, den_path = args.bfile_parts
        b_files.append((num_path, _b_file_text([Fraction(q.numerator) for q in scaled], args.offset)))
        b_files.append((den_path, _b_file_text([Fraction(q.denominator) for q in scaled], args.offset)))
    lines = [" ".join(f"{float(q):.12g}" if args.float else str(q) for q in scaled)]
    if args.recurrence:
        lines.append(f"no recurrence of order <= {args.max_order}" if rec is None else str(rec))
    return lines, b_files


def _cmd_bench(args) -> tuple:
    _check_cap(args.iterations, "--iterations", MAX_ITERATIONS)
    if args.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {args.iterations}")
    if not 0 <= args.scan_order <= SCAN_MAX_ORDER:
        raise ValueError(f"scan order must be in 0..{SCAN_MAX_ORDER}, got {args.scan_order}")
    from . import bench  # numpy and the timed code load only after the checks
    lines, metrics = bench.run(args.order, args.iterations, args.scan_order)
    record = {"environment": bench.environment(), "metrics": metrics} if args.json is not None else None
    return lines, [] if record is None else [(args.json, json.dumps(record, indent=2) + "\n")]


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
    p.add_argument("-m", "--power", type=int, required=True, help=f"exponent, at most {MAX_POWER}")
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("coeff", help="coefficient of a word in an element or one of its powers")
    p.add_argument("element")
    p.add_argument("word")
    p.add_argument("-m", "--power", type=int, default=1, help=f"exponent (default 1), at most {MAX_POWER}")
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
    p.add_argument("word", help="a word squaring to the identity")
    p.set_defaults(func=_cmd_vanishing)

    p = sub.add_parser(
        "seq",
        help="coefficient stream of element powers",
        description="Coefficient stream of a word in X, X**2, ..., X**mmax.  At order n every "
        "stream obeys a linear recurrence of order <= 2**n, so after 2**(n+1) + 2 powers the "
        "stream is continued by its minimal recurrence.  With --recurrence, a rule found is "
        "proved for every m once --mmax >= 2**(n+1) and --max-order >= 2**n; a 'no recurrence' "
        "answer is always a proof, since a rule that held for the whole stream would hold for "
        "the terms searched.",
    )
    p.add_argument("--preset", choices=["fib", "fibonacci", "padovan"], help="built-in order-two construction")
    p.add_argument("--seed", help="A,B,C seed coefficients for the fibonacci preset (default -1,1,-1)")
    p.add_argument("--element", help="element JSON file, or - for stdin")
    p.add_argument("--word", required=True, help="basis word to track")
    p.add_argument("--mmax", type=int, required=True, help=f"number of powers, at most {MAX_POWER}")
    p.add_argument("--scale", type=rational, default=Fraction(1), help="multiply printed terms")
    p.add_argument("--float", action="store_true")
    p.add_argument("--recurrence", action="store_true", help="detect a linear recurrence")
    p.add_argument("--max-order", type=int, default=4, help="largest recurrence order searched (default 4)")
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
    p.add_argument("--iterations", type=int, default=200_000, help=f"word pairs timed (default 200000), at most {MAX_ITERATIONS}")
    p.add_argument("--scan-order", type=int, default=10, help="also time a centralizer tile listing of this order (0 to skip)")
    p.add_argument("--json", metavar="PATH", help="also write every number, with its unit, and the environment as JSON")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(*args.func(args))
    except (ValueError, OSError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
