"""Shared generators for randomized (seeded) test loops."""

import math
from fractions import Fraction

from floretion.algebra import Element
from floretion.centralizer import _transfer, sigma_sums
from floretion.geometry import DEFAULT_R0, centroid, is_upward, tile_polygon
from floretion.render import _STYLE, _check_limits, _fmt
from floretion.sequences import Recurrence
from floretion.symmetry import apply_perm_element, axis_reflection
from floretion.words import DIGITS, MAX_ORDER, all_words, format_word, noncentral_count, parse_word, word_mul

_LETTER_TO_DIGIT = {"i": "1", "j": "2", "k": "4", "e": "7"}
_DIGIT_TO_LETTER = {d: c for c, d in _LETTER_TO_DIGIT.items()}


def paper_rule(cx: int, cy: int) -> tuple[int, int]:
    """The paper's XNOR/AND rule on two 2-bit digit codes, as stated, not
    reduced: (sign, result code).  Oracle for `words._lane_rule`."""
    a, b = cx >> 1, cx & 1
    c, d = cy >> 1, cy & 1
    unsigned = ((1 ^ a ^ c) << 1) | (1 ^ b ^ d)
    m = (b & c) + ((1 ^ a ^ b) & d) + (a & (1 ^ c ^ d))
    return (1 if m & 1 else -1), unsigned


def reference_parse_word(text: str, order: int | None = None) -> str:
    """Oracle for `parse_word`: one character at a time through two dicts."""
    out = []
    for ch in text:
        if ch in DIGITS:
            out.append(ch)
        elif ch in _LETTER_TO_DIGIT:
            out.append(_LETTER_TO_DIGIT[ch])
        else:
            raise ValueError(f"invalid word character {ch!r} in {text!r}")
    if not out:
        raise ValueError("empty word")
    if len(out) > MAX_ORDER:
        raise ValueError(f"word length {len(out)} exceeds maximum order {MAX_ORDER}")
    word = "".join(out)
    if order is not None and len(word) != order:
        raise ValueError(f"expected a word of length {order}, got {text!r}")
    return word


def reference_format_word(word: str, letters: bool = False) -> str:
    """Oracle for `format_word`: one dict lookup per digit."""
    if letters:
        return "".join(_DIGIT_TO_LETTER[d] for d in word)
    return word


def random_fraction(rng, lo=-4, hi=4, denominators=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(denominators))


def random_word(rng, n: int) -> str:
    return "".join(rng.choice(DIGITS) for _ in range(n))


def random_element(rng, n: int, max_terms: int = 6) -> Element:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_word(rng, n)] = random_fraction(rng)
    return Element(n, terms)


def reference_mul(x: Element, y: Element) -> Element:
    """Oracle for `Element.__mul__`: one `word_mul` and one exact Fraction
    multiply-add per term pair."""
    out = {}
    for bw, q in x.terms.items():
        for cw, r in y.terms.items():
            s, pw = word_mul(bw, cw)
            out[pw] = out.get(pw, 0) + (q * r if s > 0 else -q * r)
    return Element(x.order, out)


def reference_scan(word: str) -> tuple[list[str], list[str]]:
    """Plus and minus tile lists of a canonical word in canonical order, by
    the list-based transfer: each state carries its word prefixes as a list
    and every prefix is extended by its own string concatenation."""
    return _transfer(word, [""], lambda ps, d: [p + d for p in ps])


def reference_listing(word: str, letters: bool = False) -> str:
    """The `centralizer` CLI's stdout for a listing, formatted by sorting
    the spelled words of each `reference_scan` part."""
    parts = reference_scan(parse_word(word))
    lines = [f"{label} {len(part)}: " + " ".join(sorted(format_word(" ".join(part), letters).split()))
             for label, part in zip(("plus", "minus"), parts)]
    return "".join(f"{line}\n" for line in lines) + f"total {sum(map(len, parts))}\n"


def reference_square_sums(word: str) -> list[int]:
    """Sums of squared coefficients of the exact `Element` products
    plus*plus, plus*minus, minus*plus and minus*minus of the component sums."""
    plus, minus = sigma_sums(word)
    return [sum(q * q for q in (x * y).terms.values()) for x, y in ((plus, plus), (plus, minus), (minus, plus), (minus, minus))]


def reference_vanishing(word: str) -> bool:
    """Oracle for `check_vanishing`: both component sums built as `Element`s
    from the tile listing and multiplied in both orders."""
    w = parse_word(word)
    if noncentral_count(w) % 2:
        raise ValueError(
            f"{w!r} squares to minus the identity (odd non-7 digit count); the vanishing identity needs a square equal to the identity"
        )
    plus, minus = sigma_sums(w)
    return (minus * plus).is_zero() and (plus * minus).is_zero()


def random_axis_symmetric(rng, n: int, axis: str, max_terms: int = 5) -> Element:
    """A nonzero element fixed by the reflection about `axis`."""
    tau = axis_reflection(axis)
    while True:
        x = random_element(rng, n, max_terms)
        sym = x + apply_perm_element(tau, x)
        if not sym.is_zero():
            return sym


def _solve_exact(rows, rhs):
    """One exact solution of rows @ x = rhs (free variables zero), or None
    when the system is inconsistent.  Gauss-Jordan over Fractions."""
    ncols = len(rows[0])
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(m):
            break
    if any(m[i][-1] != 0 for i in range(r, len(m))):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        sol[c] = m[i][-1]
    return sol


def reference_recurrence(seq, max_order: int):
    """Oracle for `find_recurrence`: for k = 1, 2, ..., max_order solve the
    full shifted system a(m) = sum c_i a(m-i) over every m >= k and return
    the first consistent one, or None."""
    seq = [Fraction(v) for v in seq]
    for k in range(1, max_order + 1):
        sol = _solve_exact([seq[m - k : m][::-1] for m in range(k, len(seq))], seq[k:])
        if sol is not None:
            return Recurrence(tuple(sol))
    return None


def reference_extend(rec: Recurrence, seed, count: int) -> list[Fraction]:
    """Oracle for `Recurrence.extend`: each new term summed in exact
    `Fraction` steps from the coefficients and the tail."""
    out = [Fraction(v) for v in seed]
    for _ in range(count):
        out.append(sum(c * out[-1 - i] for i, c in enumerate(rec.coeffs)))
    return out[len(seed) :]


def reference_stream(x: Element, word: str, m_max: int) -> list[Fraction]:
    """Oracle for `coeff_stream`: one exact product per power."""
    w = parse_word(word, x.order)
    out = []
    acc = x
    for m in range(1, m_max + 1):
        if m > 1:
            acc = acc * x
        out.append(acc.terms.get(w, Fraction(0)))
    return out


def reference_render(n, r0=DEFAULT_R0, labels=False, letters=False, extra_classes=None) -> str:
    """Oracle for `render_tiling`: one `tile_polygon`, `centroid` and
    `is_upward` call per word of `all_words`, every float formatted anew."""
    _check_limits(n, r0)
    extra = dict(extra_classes or {})

    half_width = r0 * math.sqrt(3.0) / 2.0
    margin = 0.05 * r0
    vx = -(half_width + margin)
    vy = -(r0 + margin)
    vw = 2 * (half_width + margin)
    vh = 1.5 * r0 + 2 * margin
    stroke = r0 / 2**n * 0.04
    font = r0 / 2**n * 0.55

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
        "  <style>",
        _STYLE + f"    polygon {{ stroke-width: {_fmt(stroke)}; }}",
        "  </style>",
    ]
    for w in all_words(n):
        cls = "up" if is_upward(w) else "down"
        if w in extra:
            cls += " " + extra[w]
        pts = " ".join(f"{_fmt(p.x)},{_fmt(-p.y)}" for p in tile_polygon(w, r0))
        lines.append(f'  <polygon class="{cls}" points="{pts}"/>')
        if labels:
            c = centroid(w, r0 / 2.0)
            lines.append(
                f'  <text x="{_fmt(c.x)}" y="{_fmt(-c.y)}" font-size="{_fmt(font)}">'
                f"{format_word(w, letters)}</text>"
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
