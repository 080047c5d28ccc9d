"""The numpy kernels of exact products, apart from the `Element` layer.

Its entries, `integer_form`, `product_terms` and `power_numerators`, build
or take integer forms and return ints, lists and arrays; `floretion.algebra`,
which loads this module on the first product and caches each Element's
form, builds the `Fraction`s.  Nothing here imports `floretion.algebra`.

`product_terms` sums the signed numerator products per product word on one
of two routes, chosen by one comparison (X = max|num x|, Y = max|num y|):

- The matrix route, at padded order m = n + n % 2 in `_MATRIX_ORDERS`,
  from `_MATRIX_PAIRS_PER_ENTRY` * 4**m term pairs and while
  16**m * X * Y < 2**53.  Over Q, H (x) H is the 4 x 4 matrices by
  a (x) b -> (x -> a x conj(b)), so an order-m word is a 2**m x 2**m signed
  permutation matrix, the Kronecker product of its order-2 blocks'; an odd
  order runs as x (x) 7, an algebra map.  One encode per operand, one
  float64 matmul and one decode by the trace form (`_matrix_sums`).
  Exact: a block matrix has one +-1 per row and column, and 4 of the 16
  blocks are nonzero at each position, so an operand's entries are at most
  2**m * X, the product's 8**m * X * Y, and a decoded sum (2**m times a
  coefficient, adding the 2**m entries its word's matrix selects)
  16**m * X * Y.  Every partial sum, in whatever order BLAS adds, is an
  integer no larger than the sum of its terms' absolute values, so below
  2**53 float64 holds each exactly.
- The packed route, every other product (`_packed_sums`): blocks of at most
  `packed._BLOCK_PAIRS` term pairs through `packed_mul_many`, added into
  one slot per word up to order 7; above, raw blocks wait until they
  outnumber the running sorted sums and one `_sum_by_key` sorts them in,
  so each pair is sorted once and memory never follows the pair count.
  Sums are int64 when X * Y * min(|x|, |y|) < 2**62, else Python ints.

One `np.gcd` then reduces every nonzero sum over xden * yden, and up to
order 7 the words come from the cached `_word_table`.  `power_numerators`,
the span kernel, gives stream heads without products while x is sparse.
`packed_mul_many` is looked up on `packed` at each call, so a wrapper
installed there (perfbench/tracer.py) sees every block.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import compress
from typing import Iterable

import numpy as np

from . import packed
from .words import CODE_DIGIT, DIGIT_CODE, local_mul, pack_word

#: Integer sums stay in int64 while no partial sum can reach this.
_INT64_LIMIT = 1 << 62

#: float64 holds every integer of magnitude below this exactly.
_FLOAT64_EXACT = 1 << 53

#: Padded orders of the matrix route.  At order 2 it never beats the packed
#: route, whose 16 x 16 products cost less than its fixed numpy calls; at
#: order 10 a 2**10 x 2**10 float64 matrix is 8 MB.
_MATRIX_ORDERS = range(4, 11, 2)

#: K: a product takes the matrix route from K * 4**m term pairs, about where
#: it starts to beat the packed route at padded order 4 (measured; see README).
_MATRIX_PAIRS_PER_ENTRY = 16


def integer_form(terms: dict, n: int) -> tuple[np.ndarray, list[int], int, int]:
    """The integer form of the order-n terms: their packed words, their
    numerators over their least common denominator, that denominator, all
    in the order of `terms`, and the largest |numerator|, which bounds the
    sums of every product."""
    # packed first, so that the peak of `pack_words` does not add to the pairs
    keys = packed.pack_words(list(terms), n)
    pairs = [q.as_integer_ratio() for q in terms.values()]
    den = math.lcm(*(d for _, d in pairs))
    nums = [p * (den // d) for p, d in pairs]
    return keys, nums, den, max(map(abs, nums), default=0)


def product_terms(xform: tuple, yform: tuple, n: int) -> tuple[Iterable[str], list[int], list[int]]:
    """The nonzero terms of the product of two nonempty order-n integer
    forms, in ascending packed order: their words and each coefficient's
    coprime numerator and positive denominator."""
    xs, xnum, xden, xtop = xform
    ys, ynum, yden, ytop = yform
    top = xtop * ytop
    m = n + n % 2
    if m in _MATRIX_ORDERS and len(xs) * len(ys) >= _MATRIX_PAIRS_PER_ENTRY * 4**m and 16**m * top < _FLOAT64_EXACT:
        keys, sums = np.arange(4**n, dtype=np.uint64), _matrix_sums(xs, xnum, ys, ynum, n)
    else:
        keys, sums = _packed_sums(xs, xnum, ys, ynum, n, top)
    nonzero = sums != 0
    sums, keys, den = sums[nonzero], keys[nonzero], xden * yden
    if den.bit_length() > 63:  # numpy raises OverflowError on such an int next to int64
        sums = sums.astype(object)
    gs = np.gcd(sums, den)  # object dtype calls math.gcd
    # up to order 7 both routes return every key, nonzero or not
    words = compress(_word_table(n), nonzero.tolist()) if 4**n <= packed._BLOCK_PAIRS else packed.unpack_words(keys, n)
    return words, (sums // gs).tolist(), (den // gs).tolist()


@cache
def _word_table(n: int) -> list[str]:
    """All 4**n order-n words, indexed by packed key: built on the first
    product at order n and kept (about 1.1 MB at order 7)."""
    return packed.unpack_words(np.arange(4**n, dtype=np.uint64), n)


def power_numerators(form: tuple, n: int, word: str, count: int) -> list[int] | None:
    """Numerators over den**1 .. den**count of the canonical `word`'s
    coefficients in x**1 .. x**count, x of order n with the nonempty integer
    form `form` over den; None when the span of supp(x) times |x| exceeds
    `packed._BLOCK_PAIRS` (the caller then multiplies Elements).

    Right multiplication by a word maps each word to +- one word, so the
    powers of x stay in the words that supp(x) generates.  With keys
    relabelled r = key ^ full, the lane product XNOR becomes XOR,
    r(u v) = r(u) ^ r(v), so those words are the GF(2) span of the
    relabelled support, 2**rank words.  They are numbered as the span is
    built from {0}, doubling at each support word r not yet in it: u ^ r
    takes number(u) + the size so far, so numbers multiply by XOR too.
    Over the span, x**m is an integer vector a over d**m, d the common
    denominator of x, and one right multiplication by x = sum num_j v_j / d
    is

        a'[t] = sum_j a[t ^ c_j] * s_tj * num_j,

    c_j the number of v_j and s_tj the sign of word(t ^ c_j) v_j = +-word(t),
    all signs from one `packed_mul_many` call.  A word outside the span
    has coefficient 0 in every power.

    Exact: each term of a'[t] is at most max|a| * |num_j|, so every partial
    sum, in whatever order numpy adds, is at most max|a| * sum|num_j|.  Sums
    run in int64 while that is below 2**62 and in Python ints from the
    first step where it could reach it.
    """
    xs, xnum, _, top = form
    full = packed.packed_identity(n)
    rs = [key ^ full for key in xs.tolist()]
    # the span in number order: a new word r puts u ^ r at number(u) | size
    number = {0: 0}
    for r in rs:
        if r not in number:
            if len(xs) * 2 * len(number) > packed._BLOCK_PAIRS:
                return None
            size = len(number)
            number.update([(u ^ r, i | size) for u, i in number.items()])
    t = number.get(pack_word(word) ^ full)
    if t is None:  # the word is outside the span
        return [0] * count
    span = np.fromiter(number, dtype=np.uint64, count=len(number))
    cols = np.fromiter(map(number.get, rs), dtype=np.intp, count=len(rs))
    idx = np.arange(len(span))[:, None] ^ cols
    signs, _ = packed.packed_mul_many(span[idx] ^ np.uint64(full), xs, n)
    total = sum(map(abs, xnum))
    dtype = np.int64 if total < _INT64_LIMIT else object
    coef = signs * np.array(xnum, dtype=dtype)
    a = np.zeros(len(span), dtype=dtype)
    a[cols] = xnum  # top >= max|a|
    out = []
    for m in range(1, count + 1):
        if m > 1:
            if a.dtype != object and top * total >= _INT64_LIMIT:
                top = int(np.abs(a).max())
                if top * total >= _INT64_LIMIT:
                    a, coef = a.astype(object), coef.astype(object)
            a = (a[idx] * coef).sum(axis=1)
            top *= total
        out.append(int(a[t]))
    return out


def _packed_sums(xs, xnum, ys, ynum, n: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending packed words and the exact numerator sum at each, by
    blocked `packed_mul_many` calls; `top` is max|xnum| * max|ynum|."""
    # For a fixed left word and product word the right word is fixed, so
    # each product word gathers at most min(|x|, |y|) numerator products.
    dtype = np.int64 if top * min(len(xs), len(ys)) < _INT64_LIMIT else object
    xnum = np.array(xnum, dtype=dtype)
    ynum = np.array(ynum, dtype=dtype)
    # one kernel block per call, which bounds the memory a product holds
    # besides its result
    cols = min(len(ys), packed._BLOCK_PAIRS)
    rows = packed._BLOCK_PAIRS // cols
    # Up to order 7 blocks add into one slot per word, unsorted.  Above,
    # blocks[0] holds the running sums and the rest are raw pending blocks,
    # which one sort sums into it once they outnumber it: each pair is
    # sorted once, and both stay within a small multiple of the result.
    dense = 4**n <= packed._BLOCK_PAIRS
    size = 4**n if dense else 0
    blocks = [(np.arange(size, dtype=np.uint64), np.zeros(size, dtype=dtype))]
    for r in range(0, len(xs), rows):
        for c in range(0, len(ys), cols):
            signs, prods = packed.packed_mul_many(xs[r : r + rows, None], ys[None, c : c + cols], n)
            vals = (signs * (xnum[r : r + rows, None] * ynum[None, c : c + cols])).ravel()
            if dense:
                np.add.at(blocks[0][1], prods.ravel().astype(np.intp), vals)
                continue
            blocks.append((prods.ravel(), vals))
            if sum(len(k) for k, _ in blocks[1:]) > len(blocks[0][0]):
                blocks = [_sum_by_key(blocks)]
    return _sum_by_key(blocks) if len(blocks) > 1 else blocks[0]


def _sum_by_key(blocks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct keys of the (keys, values) blocks and the exact
    sum of the values at each, by one sort.  Sums stay in the values'
    dtype (never float64, which `np.bincount` would use)."""
    keys = np.concatenate([k for k, _ in blocks])
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(np.concatenate([v for _, v in blocks])[order], starts)


@cache
def _block_matrices() -> np.ndarray:
    """The (16, 4, 4) matrices of the order-2 blocks.  Block v = c1 + 4*c2
    of a packed key holds digits a = code c1 (the left one) and b = code c2,
    and maps to x -> a x conj(b) on the quaternions, rows and columns
    indexed by digit code.  a (x) b -> (x -> a x conj(b)) is the algebra
    isomorphism from order 2 onto the 4 x 4 matrices.  Built on the first
    matrix product and kept."""
    table = np.zeros((16, 4, 4))
    for v in range(16):
        a, b = CODE_DIGIT[v & 3], CODE_DIGIT[v >> 2]
        for c in range(4):
            s1, ax = local_mul(a, CODE_DIGIT[c])
            s2, axb = local_mul(ax, b)
            table[v, DIGIT_CODE[axb], c] = s1 * s2 * (1 if b == "7" else -1)
    return table


def _to_matrix(keys: np.ndarray, nums: list[int], m: int) -> np.ndarray:
    """The 2**m x 2**m matrix of sum nums[i] * word(keys[i]) at even order m:
    the Kronecker product of the block matrices, one matmul per block."""
    blocks = _block_matrices().reshape(16, 16)
    t = np.zeros(4**m)
    t[keys.astype(np.intp)] = nums
    for _ in range(m // 2):  # most significant block -> trailing (row, column)
        t = t.reshape(16, -1).T @ blocks
    return t.reshape((4,) * m).transpose([*range(0, m, 2), *range(1, m, 2)]).reshape(2**m, 2**m)


def _from_matrix(z: np.ndarray, m: int) -> np.ndarray:
    """2**m times the coefficients of the element whose matrix is z, indexed
    by packed key: the trace form tr(P_w^T z), since tr(P_u^T P_w) is 2**m
    when u = w and 0 otherwise.  The inverse of `_to_matrix`."""
    k, blocks = m // 2, _block_matrices().reshape(16, 16)
    t = z.reshape((4,) * m).transpose([a for j in range(k) for a in (j, k + j)])
    for _ in range(k):
        t = t.reshape(16, -1).T @ blocks.T  # (row, column) -> block
    return t.reshape(-1)


def _matrix_sums(xs: np.ndarray, xnum: list[int], ys: np.ndarray, ynum: list[int], n: int) -> np.ndarray:
    """Numerator sums of the product per packed order-n word, as an int64
    array indexed by the word, by one float64 matrix product at the padded
    order m = n + n % 2.  An odd order appends a 7 (lane n set to code 3),
    and the product is read back from the words whose top lane is 3.

    Exact only while 16**m * max|xnum| * max|ynum| < 2**53, which
    `product_terms` checks (the module docstring derives the bound).  Under
    it every decoded sum is an integer-valued float64 below 2**53, so its
    int64 cast is exact and the checks run on integers: raises
    ArithmeticError if a sum has a low bit set below bit m (it is not a
    multiple of 2**m), or a padded product has a term outside the
    top-lane-3 words.
    """
    m = n + n % 2
    pad = np.uint64(3 << 2 * n if n % 2 else 0)
    sums = _from_matrix(_to_matrix(xs | pad, xnum, m) @ _to_matrix(ys | pad, ynum, m), m).astype(np.int64)
    head = 4**m - 4**n  # words whose top lane is not 3, at odd n; none at even n
    if (sums & (2**m - 1)).any() or sums[:head].any():
        raise ArithmeticError(f"inexact matrix product at order {n}")
    return sums[head:] >> m
