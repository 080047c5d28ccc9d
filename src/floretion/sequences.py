"""Coefficient streams of element powers and exact linear-recurrence
detection.

Tracking one basis word's coefficient through X, X**2, X**3, ... yields an
exact rational sequence.  The order-n algebra tensored with the complex
numbers is the algebra of 2**n x 2**n complex matrices, so the minimal
polynomial of any element X has degree D <= 2**n, and every coefficient
stream satisfies a linear recurrence with constant coefficients of order
<= D.  `find_recurrence` recovers the minimal one up to a requested order
with one fraction-free Berlekamp-Massey pass over the terms scaled to
integers -- exact, with no `Fraction` per step; float fitting would
misreport minimality, so none is used.  Given 2D + 2 terms, that pass
returns the stream's minimal recurrence for every m, not only for the
terms it saw; `coeff_stream` therefore computes at most 2D + 2 powers and
continues the stream by that recurrence, whose `extend` sums each new term
in integers and pays one gcd for it.  An element with integer coefficients
acts by an integer matrix, so by Gauss's lemma its streams follow integral
rules; `extend` then keeps the terms as integers over one fixed denominator
and that gcd is against a small number.

Two small order-two constructions are packaged because their streams hit
classical sequences: one whose tracked coefficients obey the Fibonacci
rule (halved), and one that follows the Padovan rule a(m+3) = a(m+1) + a(m).

Streams index from m = 1: values[i] is the coefficient in X**(i+1).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Callable, Iterable, Sequence

from .algebra import Element, _fraction, _numerators
from .words import _non_integer, parse_word


def coeff_stream(
    x: Element, word: str, m_max: int, until: Callable[[Fraction], bool] | None = None
) -> list[Fraction]:
    """Coefficients of `word` in x**1 .. x**m_max, exactly.

    The first min(m_max, 2D + 2) terms come from powers, D = 2**x.order:
    from `kernels.power_numerators` while |span of supp(x)| * |x| is at most
    `packed._BLOCK_PAIRS`, else from Element products.  Later terms follow
    the recurrence `find_recurrence` finds in them, which is proved for
    every m because D bounds the stream's order.

    With `until`, the stream ends at its first term t with until(t) true,
    t included, so a caller that refuses such a term computes none after
    it (the CLI refuses a term too long to print).
    """
    if _non_integer(m_max) or m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    w = parse_word(word, x.order)
    degree = 2**x.order
    count = min(m_max, 2 * degree + 2)
    if not x.terms:
        head = [Fraction(0)] * count
    else:
        from . import kernels

        form = _numerators(x)
        nums = kernels.power_numerators(form, x.order, w, count)
        head = None if nums is None else [_fraction(p, form[2] ** m) for m, p in enumerate(nums, 1)]
    if head is None:
        head, acc = [x.terms.get(w, Fraction(0))], x
        for _ in range(1, count):
            acc = acc * x
            head.append(acc.terms.get(w, Fraction(0)))
    stop = next((i for i, t in enumerate(head) if until(t)), None) if until else None
    if stop is not None:
        return head[: stop + 1]
    if m_max == len(head):
        return head
    rec = find_recurrence(head, degree)
    if rec is None:
        raise ArithmeticError(f"stream exceeds the degree bound {degree} of order {x.order}")
    return head + rec.extend(head, m_max - len(head), until)


@dataclass(frozen=True)
class Recurrence:
    """a(m) = coeffs[0]*a(m-1) + ... + coeffs[k-1]*a(m-k), exact."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def holds_on(self, seq: Sequence[Fraction]) -> bool:
        """True when every term after the first `order` follows the rule."""
        k = self.order
        return len(seq) <= k or list(seq[k:]) == self.extend(seq[:k], len(seq) - k)

    def extend(
        self, seed: Sequence[Fraction], count: int, until: Callable[[Fraction], bool] | None = None
    ) -> list[Fraction]:
        """Continue a sequence by `count` further terms from its tail, or up
        to and including the first new term t with until(t) true.

        Exact, in integers, by one of two loops picked by Q, the lcm of the
        coefficients' denominators.  An integral rule (Q = 1; by Gauss's
        lemma the rule of every stream of an element with integer
        coefficients) keeps each term an integer N_m over the tail's common
        denominator L, which never grows: a new term is sum c_i N_(m-i) over
        L, and its `Fraction` costs one gcd against the small L.

        A rational rule is p_i / Q and the terms are reduced
        numerator/denominator pairs, so a new term is
        sum p_i N_(m-i) (L / D_(m-i)) over L Q, L the lcm of the denominators
        it reads.  Reducing that `Fraction` is the one gcd of full size per
        term (L's gcds are cheap: those denominators mostly divide one
        another).  Scaling a rational stream to integers instead (by Q**m)
        makes that gcd far larger: on the rational Fibonacci preset such a
        loop is faster up to a few hundred terms but 1.4-1.5x slower at 1000.
        """
        k = self.order
        if len(seed) < k:
            raise ValueError(f"need at least {k} seed terms, got {len(seed)}")
        coeffs = [Fraction(c) for c in self.coeffs]
        q = math.lcm(*(c.denominator for c in coeffs))
        tail = [Fraction(v) for v in seed[len(seed) - k :]]
        out = []
        if q == 1:
            # the window holds N_(m-k) .. N_(m-1), oldest first, as ps does c_k .. c_1
            lcd = math.lcm(*(v.denominator for v in tail))
            ps = [c.numerator for c in reversed(coeffs)]
            window = deque((v.numerator * (lcd // v.denominator) for v in tail), maxlen=k)
            for _ in range(count):
                s = sum(map(operator.mul, ps, window))
                v = _fraction(s, lcd)
                out.append(v)
                if until and until(v):
                    break
                window.append(s)
            return out
        rule = [(i, c.numerator * (q // c.denominator)) for i, c in enumerate(coeffs, 1) if c]
        nums = [v.numerator for v in tail]
        dens = [v.denominator for v in tail]
        for _ in range(count):
            lcd = math.lcm(*(dens[-i] for i, _ in rule))
            v = _fraction(sum(p * nums[-i] * (lcd // dens[-i]) for i, p in rule), lcd * q)
            out.append(v)
            if until and until(v):
                break
            nums.append(v.numerator)
            dens.append(v.denominator)
        return out

    def __str__(self) -> str:
        body = " + ".join(f"{c}*a(m-{i + 1})" for i, c in enumerate(self.coeffs))
        return f"a(m) = {body}"


def find_recurrence(seq: Sequence[Fraction], max_order: int) -> Recurrence | None:
    """Minimal exact linear recurrence of order <= max_order, or None.

    One Berlekamp-Massey pass (Massey 1969), fraction-free over the terms
    scaled to integers, finds the shortest rule a(m) = sum c_i a(m-i) that
    holds for every supplied m at or past its order L.  A sequence of
    N >= 2L terms has exactly one such rule of order L; requiring
    2*max_order + 2 terms keeps that true for every order the search may
    return.  L never shrinks, so the pass stops
    with None as soon as L exceeds max_order.  None is a result, not an
    error: the sequence simply has no short recurrence.  An all-zero
    sequence gives the order-1 rule a(m) = 0.
    """
    if _non_integer(max_order) or max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    need = 2 * max_order + 2
    if len(seq) < need:
        raise ValueError(f"need at least {need} terms for max_order {max_order}, got {len(seq)}")
    # A recurrence is unchanged when the whole sequence is scaled, so run
    # on integers a over one common denominator.
    pairs = [(v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio() for v in seq]
    den = math.lcm(*(d for _, d in pairs))
    a = [p * (den // d) for p, d in pairs]
    # Fraction-free (no division by b_disc): the int list c stands for the
    # connection polynomial c / c[0] of the rational pass, and a discrepancy
    # d is the rational one times c[0] * den, so every d == 0 and grow
    # decision is the rational pass's.  b / b[0] is the polynomial before
    # the last length change, and b_disc that step's discrepancy times
    # b[0] * den (the rational 1 at the start).  Invariant: c[0] > 0, the
    # running scale, never zero since it only ever gains a nonzero factor
    # b_disc; dividing c by its content keeps it positive and the entries
    # small.  Both polynomials have degree <= max_order.
    c = [1] + [0] * max_order
    b, b_disc = list(c), den
    length, shift = 0, 1
    # a[m - i] for i = 0 .. length is r[n - 1 - m + i]: one slice, in c's order
    n, r = len(a), a[::-1]
    for m in range(n):
        d = sum(map(operator.mul, c, r[n - 1 - m : n - m + length]))
        if d == 0:
            shift += 1
            continue
        grow = 2 * length <= m
        if grow and m + 1 - length > max_order:
            return None
        prev = c
        c = [b_disc * v for v in c]
        for i in range(max_order + 1 - shift):
            c[i + shift] -= d * b[i]
        g = math.gcd(*c)
        c = [v // g for v in c] if c[0] > 0 else [-v // g for v in c]
        if grow:
            length, b, b_disc, shift = m + 1 - length, prev, d, 1
        else:
            shift += 1
    return Recurrence(tuple(Fraction(-v, c[0]) for v in c[1 : length + 1]) or (Fraction(0),))


# -- packaged order-two constructions -------------------------------------------


def fibonacci_elements(
    a: Fraction | int | str = -1,
    b: Fraction | int | str = 1,
    c: Fraction | int | str = -1,
) -> tuple[Element, Element, Element]:
    """(mixer, seed, product) of the order-two Fibonacci-style construction.

    The mixer averages eight basis words with weight 1/4; the seed puts the
    three parameters on ei, ej, ek.  Their product Z satisfies
    Z**3 + a*Z**2 + b*c*Z = 0, so every tracked coefficient stream obeys
    a(m) = -a*a(m-1) - b*c*a(m-2).  The defaults (-1, 1, -1) make that the
    Fibonacci rule; the ij stream is then half the Fibonacci numbers.
    """
    mixer = Element(2, dict.fromkeys(("17", "71", "11", "22", "44", "24", "42", "77"), Fraction(1, 4)))
    seed = Element(2, {"71": Fraction(a), "72": Fraction(b), "74": Fraction(c)})
    return mixer, seed, mixer * seed


def padovan_elements() -> tuple[Element, Element, Element]:
    """(mixer, seed, product) of the order-two Padovan construction.

    The product Y satisfies Y**4 = Y**2 + Y, so tracked streams follow
    a(m+3) = a(m+1) + a(m); four times the ik stream is the Padovan
    sequence 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, ...
    """
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    mixer = Element(2, {"77": 3 * quarter, "11": quarter, "22": quarter, "44": -quarter})
    seed = Element(
        2,
        {"17": half, "12": half, "14": half, "27": -half, "21": half, "42": half},
    )
    return mixer, seed, mixer * seed


# -- b-file output ---------------------------------------------------------------


def write_b_file(out: IO[str], values: Iterable[Fraction], offset: int = 1) -> None:
    """Write "index value" lines; values must all be integers.

    Rational streams are rejected with a pointer to the numerator and
    denominator export the CLI offers instead.  The lines go out in one
    write after every term is checked, so nothing is written when a term
    is rejected.
    """
    lines = []
    for i, v in enumerate(values, offset):
        q = v if isinstance(v, (int, Fraction)) else Fraction(v)
        if q.denominator != 1:
            raise ValueError(
                f"term {i} is {q}, not an integer; "
                "export numerators and denominators separately instead"
            )
        lines.append(f"{i} {q.numerator}\n")
    out.write("".join(lines))
