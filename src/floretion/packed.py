"""Bit-lane packed words and the lane-parallel multiplication kernel.

A length-n word packs into an unsigned integer with one 2-bit lane per
digit: the digit at position r (1-based, counted from the left of the word)
occupies bits [2(r-1), 2(r-1)+1], so position 1 sits in the least
significant lane.  Each lane holds the digit's 2-bit code (digit >> 1),
which makes every integer in [0, 4**n) a valid packed word and makes
enumeration of all words a plain integer range.

The kernel applies the local rule, reduced mod 2 in `floretion.words`, to
all lanes at once with bitwise operators, which act lane by lane:

    products = ~(x ^ y) & full,
    minus    = ~((x >> 1) ^ y ^ ((y >> 1) & (x ^ (x >> 1))) ^ (x & y)) & lo,
    signs    = (-1) ** popcount(minus),

full and lo masking the 2n lane bits and each lane's low bit.  `_lanes`
runs `words._lane_rule`, the one copy of the rule, on numpy arrays with
numpy-scalar masks and shift.  Tests lock the rule to the paper's unreduced
form and the kernel to the digitwise reference over all pairs up to n = 4.
`packed_mul_many` runs it on a whole batch of word pairs per call, in
blocks that stay in L2 cache; every `Element` product on the packed path
goes through it.

`pack_words` and `unpack_words` encode and decode a batch of words in one
pass each; the one-word `pack_word` and `unpack_word` are pure Python, live
in `floretion.words` and are re-exported here.  Negative or oversized words
and floats, in arrays or not, raise ValueError instead of wrapping or
truncating; the stray-bit check is one OR reduction per input, so it holds
no array of the batch's size.

This module, `floretion.kernels` and `floretion.bench` import numpy at
their top.  `floretion.kernels`, which imports this module, loads on the
first `Element` product, and the package loads this module on first access
to `floretion.packed`, `packed_mul_many` or `packed_identity`, so importing
`floretion` loads no numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .words import _LANE_WIDTH, _NOT_WORDS, DIGIT_CODE, DIGITS, _lane_rule, check_order, pack_word, unpack_word

#: ASCII digit of each 2-bit lane code (DIGITS is in code order).
_CODE_BYTES = np.frombuffer(DIGITS.encode("ascii"), dtype=np.uint8)
#: `bytes.translate` table to each ASCII digit's lane code; 255 marks a
#: byte that is not a digit.
_BYTE_CODES = bytes(DIGIT_CODE.get(chr(b), 255) for b in range(256))

#: Pairs per block of a large `packed_mul_many` call, and per call of the
#: packed `Element` product: a block's uint64 temporaries are 128 KB each,
#: so the lane formula's passes over them stay in a core's L2 cache.
_BLOCK_PAIRS = 1 << 14


@lru_cache(maxsize=None)
def lane_masks(n: int) -> tuple[int, int]:
    """(full, low) masks for order n: all 2n lane bits, and every low lane bit."""
    check_order(n)
    full = (1 << (_LANE_WIDTH * n)) - 1
    return full, full // 3


def pack_words(words: Sequence[str], n: int) -> np.ndarray:
    """Pack canonical digit words of order n into a uint64 array, in order.

    Translates the joined words to lane codes in one pass, read as one
    (N, n) uint8 table, and sums each row against the lane weights 4**r in
    one `np.einsum`, which widens the codes through a small buffer, so
    besides the codes nothing larger than the result is allocated.  Raises
    ValueError like `pack_word` on a bad digit, and on a word whose length
    is not n.
    """
    check_order(n)
    if words and set(map(len, words)) != {n}:
        bad = next(w for w in words if len(w) != n)
        raise ValueError(f"word {bad!r} is not of order {n}")
    # a non-ASCII character becomes one "?" byte, which the table rejects
    codes = "".join(words).encode("ascii", "replace").translate(_BYTE_CODES)
    if 255 in codes:
        for w in words:
            pack_word(w)
    lanes = np.frombuffer(codes, dtype=np.uint8).reshape(-1, n)
    weights = np.uint64(1 << _LANE_WIDTH) ** np.arange(n, dtype=np.uint64)
    return np.einsum("ij,j->i", lanes, weights, dtype=np.uint64)


def unpack_words(packed, n: int) -> list[str]:
    """Unpack an array of order-n lane integers to digit words, in order.

    Builds one (N, n + 1) table of ASCII digits, each row ending in a
    space, decodes it once and splits it on the spaces, so no Python code
    runs per word.  Raises ValueError like `unpack_word`.
    """
    arr = _packed_words(n, packed)[0].reshape(-1)
    shifts = np.arange(0, _LANE_WIDTH * n, _LANE_WIDTH, dtype=np.uint64)
    table = np.full((arr.size, n + 1), ord(" "), dtype=np.uint8)
    table[:, :n] = _CODE_BYTES[(arr[:, None] >> shifts) & np.uint64(3)]
    return table.tobytes().decode("ascii").split()


def packed_identity(n: int) -> int:
    """Packed form of the all-7 identity word (every lane set to 11)."""
    return lane_masks(n)[0]


def packed_mul_many(xs, ys, n: int):
    """Lane-parallel products of packed order-n words, pairwise over numpy
    arrays (broadcasting allowed; plain ints give numpy scalars).

    Returns (signs, products) with signs int8 in {+1, -1} and products
    uint64.  Raises ValueError when an input is not a nonnegative integer
    or has bits above lane 2n, before anything is computed.

    A call of more than `_BLOCK_PAIRS` pairs allocates its two outputs once
    and writes them a block of pairs at a time along their leading axis,
    slicing broadcast inputs without expanding them, so its peak memory is
    the outputs plus one block's temporaries (unless one row along that
    axis holds more than a block).  A call of at most one block computes
    its outputs in one pass.  The rule makes about seventeen passes over
    arrays of a block's size, so a block in L2 cache pays: on a 2-vCPU Xeon
    2,000,000 order-12 pairs take 16-19 ms, against 36-42 ms in one pass.
    """
    full, lo = map(np.uint64, lane_masks(n))
    xs, ys = _packed_words(n, xs, ys)
    # sizes first, so that a call of at most one block adds no numpy call;
    # nonempty inputs broadcast to the larger extent on each axis
    if xs.size * ys.size <= _BLOCK_PAIRS or (
        math.prod(map(max, zip_longest(xs.shape[::-1], ys.shape[::-1], fillvalue=1))) <= _BLOCK_PAIRS
    ):
        return _lanes(xs, ys, full, lo)
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    signs, prods = np.empty(shape, dtype=np.int8), np.empty(shape, dtype=np.uint64)
    # blocks of whole rows along the leading axis, the inputs given its ndim
    xs, ys = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (xs, ys))
    step = max(1, _BLOCK_PAIRS * shape[0] // signs.size)
    for r in range(0, shape[0], step):
        block = slice(r, r + step)
        x, y = (a[block] if len(a) > 1 else a for a in (xs, ys))
        signs[block], prods[block] = _lanes(x, y, full, lo)
    return signs, prods


def _lanes(xs, ys, full, lo):
    """(signs, products) of the lane rule on uint64 words xs, ys; a Python-int
    shift would cost every call about 1 us."""
    prods, minus = _lane_rule(xs, ys, full, lo, np.uint64(1))
    signs = np.int8(1) - np.int8(2) * (np.bitwise_count(minus) & np.uint8(1)).astype(np.int8)
    return signs, prods


def _packed_words(n: int, *arrays) -> list[np.ndarray]:
    """The inputs as uint64 arrays (uint64 input is not copied); ValueError
    unless all are packed order-n words.  Numpy input needs an integer dtype
    and no negative entry; other input, a scalar or (nested) list, needs
    nonnegative ints in every entry (bool counts, float does not) and
    converts exactly or overflows.  Stray bits are checked by one OR
    reduction per input, before any kernel allocates, so the check holds no
    array of the inputs' (broadcast) size."""
    words = []
    for a in arrays:
        if hasattr(a, "dtype"):
            kind = a.dtype.kind if a.size else "u"
            if kind not in "iu" or (kind == "i" and (a < 0).any()):
                raise ValueError(_NOT_WORDS)
        elif not all(isinstance(v, (int, np.integer)) and v >= 0 for v in np.asarray(a, dtype=object).flat):
            raise ValueError(_NOT_WORDS)
        try:
            words.append(np.asarray(a, dtype=np.uint64))
        except OverflowError:
            raise ValueError(_NOT_WORDS) from None
    if max(int(np.bitwise_or.reduce(w, axis=None)) for w in words) > lane_masks(n)[0]:
        raise ValueError(f"stray bits above lane {2 * n}")
    return words

