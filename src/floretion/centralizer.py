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
so counting and listing run one four-state transfer over positions: the
state is the parity of anticommuting digit pairs so far and the sign so
far.  One transfer loop serves both, and only the value carried per state
differs: counts carry an integer, O(n) sums at any order; listings carry
the word prefixes and grow them one digit at a time, sized to the output.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element
from .words import DIGITS, identity_word, local_mul, noncentral_count, parse_word, word_mul

#: Tile listings are capped here.  An order-n word has 4**n / 2 tiles and
#: the identity word all 4**n: at order 12 that is 16.8M tiles, 3.8 s and a
#: 1.5 GB peak in process on a 2-vCPU x86-64 host (8.4M tiles, 2.7 s and
#: 903 MB for any other word), the largest listing this package signs up
#: for.  Counts have no cap.
SCAN_MAX_ORDER = 12

#: `check_vanishing` multiplies two sums of 4**(n-1) words with coefficient
#: 1, so 16**10 < 2**53 keeps both products on the exact float64 matrix path
#: of `Element.__mul__` up to order 10.  Fresh-process CLI calls on a 2-vCPU
#: x86-64 host, whose speed drifts, took 0.28-0.29 s (38 MB peak) at order 8,
#: 0.57-0.69 s (77 MB) at order 9 and 0.95-1.23 s (141 MB) at order 10.  Order
#: 11 would fall to the packed path's 4**20 term pairs per product, hours
#: of work.
VANISHING_MAX_ORDER = 10


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


def _transitions(word: str) -> list[list[tuple[str, bool, int]]]:
    """Per digit b of `word`, for d in code order: (d, d anticommutes with b, sign of d * b)."""
    return [
        [(d, local_mul(d, b)[0] != local_mul(b, d)[0], local_mul(d, b)[0]) for d in DIGITS]
        for b in word
    ]


def _transfer(word: str, start, append):
    """The four-state transfer over a canonical word's positions.  Each state
    (odd anticommuting parity, sign) carries a value, `start` at first; digit
    d maps v to `append(v, d)`, and values meeting in a state sum by `+=`.
    Returns the values at (even, +1) and (even, -1)."""
    n = len(word)
    states = {(False, 1): start}
    for r, step in enumerate(_transitions(word), 1):
        nxt = defaultdict(type(start))
        for d, anti, s in step:
            for (odd, sign), v in states.items():
                if r < n or odd == anti:
                    nxt[odd ^ anti, sign * s] += append(v, d)
        states = nxt
    return states[False, 1], states[False, -1]


def centralizer_counts(word: str) -> tuple[int, int]:
    """(plus count, minus count) without materializing the word lists."""
    return _transfer(parse_word(word), 1, lambda k, d: k)


# Keep the name: perfbench/tracer.py wraps `_scan_masks` in every traced run.
def _scan_masks(word: str) -> tuple[list[str], list[str]]:
    """Plus and minus tile lists of a canonical word, in canonical order.

    Digits go in code order outside the states, and position r is the most
    significant lane so far, so every list stays in ascending packed order.
    """
    if len(word) > SCAN_MAX_ORDER:
        raise ValueError(f"tile listing supports order <= {SCAN_MAX_ORDER}; got {len(word)}")
    return _transfer(word, [""], lambda ps, d: [p + d for p in ps])


def centralizer_tiles(word: str) -> CentralizerTiles:
    """Full tile-set enumeration, split by the sign of the common product."""
    w = parse_word(word)
    plus, minus = _scan_masks(w)
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


def check_vanishing(word: str) -> bool:
    """Whether both mixed products of the component sums vanish.

    Requires the base word to square to the identity, i.e. an even count of
    non-7 digits; words squaring to minus the identity are rejected, and so
    are words above `VANISHING_MAX_ORDER`.
    """
    w = parse_word(word)
    if len(w) > VANISHING_MAX_ORDER:
        raise ValueError(f"the vanishing check supports order <= {VANISHING_MAX_ORDER}; got {len(w)}")
    if noncentral_count(w) % 2:
        raise ValueError(
            f"{w!r} squares to minus the identity (odd non-7 digit count); the vanishing identity needs a square equal to the identity"
        )
    plus, minus = sigma_sums(w)
    return (minus * plus).is_zero() and (plus * minus).is_zero()
