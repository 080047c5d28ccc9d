"""Bit-lane packed words and the lane-parallel multiplication kernel.

A length-n word packs into an unsigned integer with one 2-bit lane per
digit: the digit at position r (1-based, counted from the left of the word)
occupies bits [2(r-1), 2(r-1)+1], so position 1 sits in the least
significant lane.  Each lane holds the digit's 2-bit code (digit >> 1),
which makes every integer in [0, 4**n) a valid packed word and makes
enumeration of all words a plain integer range.

The kernel applies the local XNOR/AND rule to all lanes at once:

    product lanes = XNOR(x, y)  masked to 2n bits,
    sign          = (-1) ** (n + popcount(t1 ^ t2 ^ t3))

where t1, t2, t3 collect the rule's three AND terms per lane (XOR-collapsing
them preserves the parity of the full sum, since popcounts add mod 2 under
XOR).  The kernel is locked against the digitwise reference by an exhaustive
oracle over all pairs up to n = 4 in the tests, not trusted from derivation.

`packed_mul_many` is the kernel; it runs over numpy arrays, so one call
multiplies a whole batch of word pairs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .words import CODE_DIGIT, DIGIT_CODE, check_order

_LANE_WIDTH = 2


@lru_cache(maxsize=None)
def lane_masks(n: int) -> tuple[int, int]:
    """(full, low) masks for order n: all 2n lane bits, and every low lane bit."""
    check_order(n)
    full = (1 << (_LANE_WIDTH * n)) - 1
    return full, full // 3


def pack_word(word: str) -> int:
    """Pack a canonical digit word into its lane integer."""
    bits = 0
    for r, d in enumerate(word):
        try:
            bits |= DIGIT_CODE[d] << (_LANE_WIDTH * r)
        except KeyError:
            raise ValueError(f"invalid digit {d!r} in {word!r}") from None
    return bits


def unpack_word(bits: int, n: int) -> str:
    """Unpack a lane integer of order n back to its digit word."""
    full, _ = lane_masks(n)
    if bits & ~full or bits < 0:
        raise ValueError(f"stray bits above lane {2 * n} in {bits:#x}")
    return "".join(CODE_DIGIT[(bits >> (_LANE_WIDTH * r)) & 3] for r in range(n))


def packed_identity(n: int) -> int:
    """Packed form of the all-7 identity word (every lane set to 11)."""
    return lane_masks(n)[0]


def packed_mul_many(xs, ys, n: int):
    """Lane-parallel products of packed order-n words, pairwise over numpy
    arrays (broadcasting allowed; plain ints give 0-d arrays).

    Returns (signs, products) with signs int8 in {+1, -1} and products
    uint64.  Raises ValueError when an input is negative or has bits above
    lane 2n.
    """
    full_i, lo_i = lane_masks(n)
    full = np.uint64(full_i)
    lo = np.uint64(lo_i)
    one = np.uint64(1)
    try:
        xs = np.asarray(xs, dtype=np.uint64)
        ys = np.asarray(ys, dtype=np.uint64)
    except OverflowError:
        raise ValueError("packed words must be nonnegative integers below 2**64") from None
    # checked before the kernel, so these temporaries are freed before its own
    if ((xs | ys) & ~full).any():
        raise ValueError(f"stray bits above lane {2 * n}")
    z = ~(xs ^ ys) & full
    ax = (xs >> one) & lo
    bx = xs & lo
    ay = (ys >> one) & lo
    by = ys & lo
    t = (bx & ay) ^ (~(ax ^ bx) & lo & by) ^ (ax & ~(ay ^ by) & lo)
    # bitwise_count yields uint8; n <= 32 keeps the sum well below overflow
    parity = (np.bitwise_count(t) + np.uint8(n)) & np.uint8(1)
    signs = np.int8(1) - np.int8(2) * parity.astype(np.int8)
    return signs, z
