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

`_odd_lanes` is the one copy of that formula.  `packed_mul_many` runs it on
numpy arrays, a whole batch of word pairs per call, with numpy-scalar masks
(with Python-int masks the formula takes about 30% longer);
`packed_mul_pairs` runs it on Python ints, for batches of a few hundred
pairs, where numpy's fixed cost per call is most of the time.
`unpack_words` decodes a batch of packed words in one pass.  Negative or
oversized words and float arrays raise ValueError instead of wrapping.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .words import CODE_DIGIT, DIGIT_CODE, DIGITS, check_order

_LANE_WIDTH = 2
#: ASCII digit of each 2-bit lane code (DIGITS is in code order).
_CODE_BYTES = np.frombuffer(DIGITS.encode("ascii"), dtype=np.uint8)
_NOT_WORDS = "packed words must be nonnegative integers below 2**64"


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


def unpack_words(packed, n: int) -> list[str]:
    """Unpack an array of order-n lane integers to digit words, in order.

    Builds one (N, n) table of ASCII digits and decodes it once, so the
    cost per word is one string slice.  Raises ValueError like `unpack_word`.
    """
    arr = _packed_words(n, packed)[0].reshape(-1)
    shifts = np.arange(0, _LANE_WIDTH * n, _LANE_WIDTH, dtype=np.uint64)
    text = _CODE_BYTES[(arr[:, None] >> shifts) & np.uint64(3)].tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def packed_identity(n: int) -> int:
    """Packed form of the all-7 identity word (every lane set to 11)."""
    return lane_masks(n)[0]


def packed_mul_many(xs, ys, n: int):
    """Lane-parallel products of packed order-n words, pairwise over numpy
    arrays (broadcasting allowed; plain ints give 0-d arrays).

    Returns (signs, products) with signs int8 in {+1, -1} and products
    uint64.  Raises ValueError when an input is not a nonnegative integer
    or has bits above lane 2n.
    """
    full, lo = lane_masks(n)
    xs, ys = _packed_words(n, xs, ys)
    # bitwise_count yields uint8; n <= 32 keeps the sum well below overflow
    parity = (np.bitwise_count(_odd_lanes(xs, ys, np.uint64(lo))) + np.uint8(n)) & np.uint8(1)
    signs = np.int8(1) - np.int8(2) * parity.astype(np.int8)
    return signs, ~(xs ^ ys) & np.uint64(full)


def _packed_words(n: int, *arrays) -> list[np.ndarray]:
    """The inputs as uint64 arrays (uint64 input is not copied); ValueError
    unless all are packed order-n words.  Numpy input needs an integer dtype
    and no negative entry; Python ints convert exactly or overflow.  Stray
    bits are checked over all inputs at once, before any kernel allocates."""
    words = []
    for a in arrays:
        kind = a.dtype.kind if hasattr(a, "dtype") and a.size else "u"
        if kind not in "iu" or (kind == "i" and (a < 0).any()):
            raise ValueError(_NOT_WORDS)
        try:
            words.append(np.asarray(a, dtype=np.uint64))
        except OverflowError:
            raise ValueError(_NOT_WORDS) from None
    if (reduce(np.bitwise_or, words) & ~np.uint64(lane_masks(n)[0])).any():
        raise ValueError(f"stray bits above lane {2 * n}")
    return words


def packed_mul_pairs(xs, ys, n: int) -> list[tuple[int, int]]:
    """Products of every pair (x, y) of packed order-n words, x-major, in
    plain Python ints: a list of (sign, product) with sign +1 or -1.

    `packed_mul_many`'s lane formula without numpy, for batches of a few
    hundred pairs.  Raises ValueError when an input is negative
    or has bits above lane 2n.
    """
    full, lo = lane_masks(n)
    if any(w < 0 or w & ~full for w in (*xs, *ys)):
        raise ValueError(f"stray bits above lane {2 * n}")
    return [(-1 if (_odd_lanes(x, y, lo).bit_count() + n) & 1 else 1, ~(x ^ y) & full) for x in xs for y in ys]


def _odd_lanes(x, y, lo):
    """t1 ^ t2 ^ t3 of the module docstring at the low bit of each lane, for
    Python ints or uint64 arrays (then `lo` must be a numpy scalar)."""
    ax = (x >> 1) & lo
    bx = x & lo
    ay = (y >> 1) & lo
    by = y & lo
    return (bx & ay) ^ (~(ax ^ bx) & lo & by) ^ (ax & ~(ay ^ by) & lo)
