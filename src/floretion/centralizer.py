"""Centralizer tile sets of basis words.

Two words' products in either order always share their unsigned word (the
lane rule is XNOR, which is symmetric), so `c` centralizes `b` exactly when
the two product signs agree; otherwise cb = -bc.  The tile set of a word
collects every positive word that centralizes it, split into a plus and a
minus component by the sign of the common product -- the split is by
product sign, NOT by commutation versus anticommutation (everything in the
tile set commutes).

For any non-identity word the tile set covers exactly half of the 4**n
tiles, and doubling for signs gives the 4**n-element centralizer in the
signed group.  When the word squares to the identity, the two component
sums multiply to zero in both orders; `check_vanishing` tests that
cancellation exactly.

Both the product sign and commutation are products of per-digit factors,
so counting and listing run one four-state transfer over positions: a
2-bit state (bit 0 the anticommuting parity, bit 1 a minus sign so far)
takes each digit's XOR mask (`_masks`); counts carry an integer per state
and listings one text per state, each word in it followed by a space, so
appending a digit to every word is one `str.replace`.  The state is an XOR
of per-digit masks, so positions may go in either direction: canonical
tiles append left to right, and the CLI's sorted listing prepends right to
left in the spelling's rank order.  `check_vanishing` diagonalizes the pair
transfer by Walsh-Hadamard characters, so a product's sum of squared
coefficients is an entrywise product of 256-entry tables, exact at any order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import prod

from .algebra import Element
from .words import DIGIT_CODE, DIGITS, format_word, identity_word, local_mul, noncentral_count, parse_word, word_mul

#: Tile listings are capped here.  An order-n word has 4**n / 2 tiles and
#: the identity word all 4**n: at order 12 that is 16.8M tiles, 2.7 s and a
#: 1.4 GB peak for `centralizer_tiles` in process on a 2-vCPU x86-64 host
#: (8.4M tiles, 1.4 s and 714 MB for any other word), the largest listing
#: this package signs up for.  Counts have no cap.
SCAN_MAX_ORDER = 12


@dataclass(frozen=True)
class CentralizerTiles:
    """The positive words commuting with `base`, split by product sign.

    `plus` and `minus` are in canonical (ascending packed) order.  The
    identity word always lands in `plus`; `base` itself lands by the sign
    of its square.
    """

    base: str
    plus: tuple[str, ...]
    minus: tuple[str, ...]

    @property
    def total(self) -> int:
        return len(self.plus) + len(self.minus)


def commutes(b: str, c: str) -> bool:
    """True when bc = cb; false means bc = -cb (same unsigned word)."""
    if len(b) != len(c):
        raise ValueError(f"length mismatch: {len(b)} vs {len(c)}")
    return word_mul(b, c).sign == word_mul(c, b).sign


@cache
def _masks(b: str) -> list[int]:
    """Per digit d in code order, its XOR on a state: bit 0 if d anticommutes with b, bit 1 if d * b < 0."""
    return [(local_mul(d, b)[0] != local_mul(b, d)[0]) | (local_mul(d, b)[0] < 0) << 1 for d in DIGITS]


def _transfer(word: str, start, append, digits: str = DIGITS):
    """The four-state transfer over a word's positions, in any order: digit d,
    taken in the order of `digits`, maps a state's value v to `append(v, d)`,
    from `start` at state 0, and values meeting in a state sum by `+=`.
    Returns the values at states 0 (plus) and 2 (minus)."""
    n, states = len(word), {0: start}
    for r, b in enumerate(word, 1):
        nxt, masks = defaultdict(type(start)), _masks(b)
        for d in digits:
            m = masks[DIGIT_CODE[d]]
            for s, v in states.items():
                if r < n or not (s ^ m) & 1:
                    nxt[s ^ m] += append(v, d)
        states = nxt
    return states[0], states[2]


def centralizer_counts(word: str) -> tuple[int, int]:
    """(plus count, minus count) without materializing the word lists."""
    return _transfer(parse_word(word), 1, lambda k, d: k)


def _listable(word: str) -> str:
    """`word`, or ValueError past `SCAN_MAX_ORDER`."""
    if len(word) > SCAN_MAX_ORDER:
        raise ValueError(f"tile listing supports order <= {SCAN_MAX_ORDER}; got {len(word)}")
    return word


# Keep the name: perfbench/tracer.py wraps `_scan_masks` in every traced run.
def _scan_masks(word: str) -> tuple[str, str]:
    """Plus and minus tiles of a canonical word, in canonical order, as two
    texts with a space after each word.

    Digits go in code order outside the states, and position r is the most
    significant lane so far, so every text stays in ascending packed order.
    """
    return _transfer(_listable(word), " ", lambda t, d: t.replace(" ", d + " "))


def _sorted_listing(word: str, letters: bool = False) -> tuple[str, str]:
    """Plus and minus tiles of a canonical word as two texts with a space
    before each word, spelled in letters on request, sorted as strings with
    no sort: positions go right to left, prepending digits in the spelling's
    rank order (1247, or 7124 as e < i < j < k)."""
    texts = _transfer(_listable(word)[::-1], " ", lambda t, d: t.replace(" ", " " + d), "7124" if letters else DIGITS)
    return format_word(texts[0], letters), format_word(texts[1], letters)


def centralizer_tiles(word: str) -> CentralizerTiles:
    """Full tile-set enumeration, split by the sign of the common product."""
    w = parse_word(word)
    plus, minus = _scan_masks(w)
    plus, minus = plus.split(), minus.split()  # the texts go before the tuples are built
    return CentralizerTiles(base=w, plus=tuple(plus), minus=tuple(minus))


def signed_centralizer_order(word: str) -> int:
    """Order of the centralizer in the signed group: twice the tile count.

    Only defined for non-identity words; the identity is central and its
    centralizer is the whole signed group of order 2 * 4**n.
    """
    w = parse_word(word)
    if w == identity_word(len(w)):
        raise ValueError(
            f"the identity word is central; its signed centralizer is the whole group of order {2 * 4 ** len(w)}"
        )
    n_plus, n_minus = centralizer_counts(w)
    return 2 * (n_plus + n_minus)


def sigma_sums(word: str) -> tuple[Element, Element]:
    """The two component sums as elements: (sum over plus, sum over minus)."""
    t = centralizer_tiles(word)
    n, one = len(t.base), Fraction(1)
    # listed tiles are canonical words, so the term builder has nothing to check
    return Element._canonical(n, dict.fromkeys(t.plus, one)), Element._canonical(n, dict.fromkeys(t.minus, one))


@cache
def _gram(b: str) -> list[int]:
    """W_b[16a + c] = sum over u of lam_u[a] * lam_u[c], with lam_u[a] the sum
    of sign(d * e) * (-1)**popcount(a & (m(d) | m(e) << 2)) over d * e = +-u."""
    pairs = [(local_mul(d, e), md | me << 2) for d, md in zip(DIGITS, _masks(b)) for e, me in zip(DIGITS, _masks(b))]
    lam = [[sum(s * (-1) ** (a & x).bit_count() for (s, v), x in pairs if v == u) for a in range(16)] for u in DIGITS]
    return [sum(v[a] * v[c] for v in lam) for a in range(16) for c in range(16)]


def _square_sums(word: str) -> list[int]:
    """Sums of squared coefficients of plus*plus, plus*minus, minus*plus, minus*minus: each
    is sum_i (-1)**popcount(i & 17F) * prod_r W_{b_r}[i] / 256, F = left | right << 2,
    or ArithmeticError if that is not an integer."""
    prods = [prod(w) for w in zip(*map(_gram, word))]
    sums = [sum(-p if (i & 17 * f).bit_count() % 2 else p for i, p in enumerate(prods)) for f in (0, 8, 2, 10)]
    if any(t % 256 for t in sums):
        raise ArithmeticError(f"inexact square sums at order {len(word)}")
    return [t // 256 for t in sums]


def check_vanishing(word: str) -> bool:
    """Whether both mixed products of the component sums vanish.

    Requires the base word to square to the identity, i.e. an even count of
    non-7 digits; words squaring to minus the identity are rejected.
    """
    w = parse_word(word)
    if noncentral_count(w) % 2:
        raise ValueError(
            f"{w!r} squares to minus the identity (odd non-7 digit count); the vanishing identity needs a square equal to the identity"
        )
    return _square_sums(w)[1:3] == [0, 0]
