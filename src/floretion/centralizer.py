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

Enumeration is a flat scan over all 4**n packed words through the
vectorized lane kernel, chunked to bound memory and mergeable across
threads without changing the canonically ordered result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import Element
from .packed import pack_word, packed_mul_many, unpack_word
from .words import identity_word, noncentral_count, parse_word, word_mul

#: Exhaustive scans are capped here: 4**12 is ~16.7M words, a few seconds
#: of vectorized work and the largest budget this package signs up for.
SCAN_MAX_ORDER = 12

_CHUNK = 1 << 20


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


def _check_scan_order(n: int) -> None:
    if n > SCAN_MAX_ORDER:
        raise ValueError(
            f"exhaustive scan supports order <= {SCAN_MAX_ORDER} (4**{SCAN_MAX_ORDER} words); got {n}"
        )


def _scan_chunk(pb: int, n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Plus/minus membership masks for packed words in [start, stop)."""
    cs = np.arange(start, stop, dtype=np.uint64)
    pbs = np.uint64(pb)
    sign_cb, _ = packed_mul_many(cs, pbs, n)
    sign_bc, _ = packed_mul_many(pbs, cs, n)
    commuting = sign_cb == sign_bc
    return commuting & (sign_cb == 1), commuting & (sign_cb == -1)


def _scan_masks(word: str, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    n = len(word)
    _check_scan_order(n)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    pb = pack_word(word)
    total = 4**n
    spans = [(s, min(s + _CHUNK, total)) for s in range(0, total, _CHUNK)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda sp: _scan_chunk(pb, n, *sp), spans))
    else:
        parts = [_scan_chunk(pb, n, *sp) for sp in spans]
    plus = np.concatenate([p for p, _ in parts])
    minus = np.concatenate([m for _, m in parts])
    return plus, minus


def centralizer_counts(word: str, threads: int = 1) -> tuple[int, int]:
    """(plus count, minus count) without materializing the word lists."""
    w = parse_word(word)
    plus, minus = _scan_masks(w, threads)
    return int(plus.sum()), int(minus.sum())


def centralizer_tiles(word: str, threads: int = 1) -> CentralizerTiles:
    """Full tile-set enumeration, split by the sign of the common product."""
    w = parse_word(word)
    n = len(w)
    plus, minus = _scan_masks(w, threads)
    return CentralizerTiles(
        base=w,
        plus=tuple(unpack_word(int(v), n) for v in np.flatnonzero(plus)),
        minus=tuple(unpack_word(int(v), n) for v in np.flatnonzero(minus)),
    )


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


def sigma_sums(word: str, threads: int = 1) -> tuple[Element, Element]:
    """The two component sums as elements: (sum over plus, sum over minus)."""
    t = centralizer_tiles(word, threads)
    n = len(t.base)
    return (
        Element(n, {w: 1 for w in t.plus}),
        Element(n, {w: 1 for w in t.minus}),
    )


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
    plus, minus = sigma_sums(w)
    return (minus * plus).is_zero() and (plus * minus).is_zero()
