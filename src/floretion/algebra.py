"""Exact linear combinations of basis words, with multiplication and the
digitwise conjugation / parity structure.

An Element of order n is a finite map from length-n words to exact
rationals.  Multiplication extends the signed word product bilinearly.
Coefficients are `fractions.Fraction` throughout so that the recurrence and
cancellation identities the package tests can be checked exactly; this
includes the truncated exponential, whose partial sums are exact too.

Products run on integer numerators: both supports are packed, and their
coefficients become integer numerators over one common denominator per
side.  Two paths then sum the signed numerator products per product word,
chosen by one comparison in `Element.__mul__`:

- The matrix path.  The order-n algebra is H^(x n), and over Q, H (x) H is
  the 4 x 4 matrices by a (x) b -> (x -> a x conj(b)), so a word of even
  order m is a 2**m x 2**m signed permutation matrix, the Kronecker
  product of its order-2 blocks' matrices.  An odd order runs at m = n + 1
  as x (x) 7.  A product is one encode per operand, one float64 matrix
  product and one decode by the trace form.  It runs for padded orders 4
  to 10 once the term pairs reach K * 4**m (K = 16, measured), and only
  while 16**m * max|num x| * max|num y| < 2**53, which keeps every partial
  sum an exactly held integer; the derivation is in `Element.__mul__`.
- The packed path, every other product: `packed_mul_many` multiplies
  bounded blocks of term pairs, summed per product word (with `np.add.at`
  up to order 7; above, raw blocks fold into the running sums by one sort,
  once per pair) in int64 when no sum can reach 2**62 and in Python ints
  otherwise.  Sparse products, orders 1 and 2, products past the float64
  bound and every order above 10 need it.

The head powers of a coefficient stream skip `Element` products while x
is sparse: `_power_coeffs` steps one integer vector over the words supp(x)
generates, right multiplication by x being one signed gather there.

An Element caches its integer form (packed keys, numerators over their
least common denominator, that denominator, the largest |numerator|) in
its `_packed` slot, built by `_numerators` alone on first use, so an
operand used again, as in x * x or a power, is packed once.

A product builds its terms eagerly and in bulk: one `np.gcd` reduces
every sum over the common denominator, `_fractions` sets the reduced
`Fraction`s' slots in one loop, and up to order 7 the words come from the
cached `_word_table`.  The JSON writer formats its text directly, and the
reader takes plain "p/q" coefficients through `int`, not `Fraction`'s parser.

numpy and `floretion.packed` load on the first product in a process, not
at import: `_numerators`, where every product starts, calls `_load`, which
binds the module globals `np` and `packed` once.  Sums, differences,
conjugation, parity, JSON and canonical term order (a sort by the
reversed word) need neither, so neither do the CLI commands built on them.

Canonical form: zero coefficients are never stored, and serialized term
order is ascending packed word value, so equal elements serialize
identically.  The constructor is the one term builder; `map_basis` and
the JSON reader pass it unsummed (word, coefficient) pairs, and results
canonical by construction, sums and differences among them, skip it
through `Element._canonical`.
"""

from __future__ import annotations

import json
import math
import operator
import re
from fractions import Fraction
from functools import cache
from itertools import compress, product
from typing import Callable, Iterable, Mapping

from .words import (
    CODE_DIGIT,
    DIGIT_CODE,
    _non_integer,
    check_order,
    format_word,
    identity_word,
    local_mul,
    noncentral_count,
    pack_word,
    parse_word,
)

#: numpy and `floretion.packed`, bound by `_load` on the first product.
np = packed = None

#: Integer sums stay in int64 while no partial sum can reach this.
_INT64_LIMIT = 1 << 62

#: float64 holds every integer of magnitude below this exactly.
_FLOAT64_EXACT = 1 << 53

#: Padded orders of the matrix path.  At order 2 it never beats the packed
#: path, whose 16 x 16 products cost less than its fixed numpy calls; at
#: order 10 a 2**10 x 2**10 float64 matrix is 8 MB.
_MATRIX_ORDERS = range(4, 11, 2)

#: K: a product takes the matrix path from K * 4**m term pairs, about where
#: it starts to beat the packed path at padded order 4 (measured; see README).
_MATRIX_PAIRS_PER_ENTRY = 16

#: Sort key of canonical term order: the word reversed, most significant lane first.
_reversed = operator.itemgetter(slice(None, None, -1))


class Element:
    """An exact-rational linear combination of order-n basis words.

    Treat instances as immutable values: every operation returns a new
    Element and the term map is never mutated after construction.  The one
    slot set later is `_packed`, a cache of what `terms` determine (see
    `_numerators`).
    """

    __slots__ = ("order", "terms", "_packed")

    def __init__(self, order: int, terms: Mapping[str, Fraction | int | str] | Iterable[tuple[str, Fraction | int | str]] | None = None):
        """Terms from a mapping or (word, coefficient) pairs in one pass: each word parsed
        and each coefficient made a Fraction once, repeated words summed, zero sums dropped."""
        check_order(order)
        clean: dict[str, Fraction] = {}
        if terms:
            for word, coeff in terms.items() if isinstance(terms, Mapping) else terms:
                q = coeff if type(coeff) is Fraction else Fraction(coeff)
                w = parse_word(word, order)
                clean[w] = clean[w] + q if w in clean else q
            clean = {w: q for w, q in clean.items() if q}
        object.__setattr__(self, "order", operator.index(order))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through `_canonical`: restoring
        # the slots one by one would go through `__setattr__`
        return Element._canonical, (self.order, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Element":
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> "Element":
        """The multiplicative identity: 1 times the all-7 word."""
        return cls(order, {identity_word(order): 1})

    @classmethod
    def _canonical(cls, order: int, terms: dict[str, Fraction]) -> "Element":
        """Wrap terms already in canonical form (canonical words, nonzero
        Fraction coefficients) without checking them again."""
        x = object.__new__(cls)
        object.__setattr__(x, "order", order)
        object.__setattr__(x, "terms", terms)
        object.__setattr__(x, "_packed", None)
        return x

    # -- basics ------------------------------------------------------------

    def coeff(self, word: str) -> Fraction:
        """Coefficient of a basis word (zero when absent)."""
        return Fraction(self.terms.get(parse_word(word, self.order), 0))

    def support(self) -> list[str]:
        """Words with nonzero coefficient, in canonical order: ascending
        packed value, which is the order of the reversed words as strings
        (lane 1 is the least significant, and digit codes follow ASCII)."""
        return sorted(self.terms, key=_reversed)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    __hash__ = None  # mutable-looking mapping payload; not hashable

    def __repr__(self) -> str:
        return f"Element({self.order}, {{{', '.join(f'{w!r}: {str(self.terms[w])!r}' for w in self.support())}}})"

    def __str__(self) -> str:
        return format_element(self)

    # -- linear structure ----------------------------------------------------

    def _require_same_order(self, other: "Element") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._combined(other, operator.add)

    def __neg__(self) -> "Element":
        return Element._canonical(self.order, {w: -q for w, q in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._combined(other, operator.sub)

    def _combined(self, other: "Element", op) -> "Element":
        """self + other or self - other (`op`) on the canonical term maps, so
        no word is parsed again: words in both combine by `op`, the others
        are copied (negated in a difference), and zero sums are dropped."""
        self._require_same_order(other)
        terms = dict(self.terms)
        neg = op is operator.sub
        for w, q in other.terms.items():
            if w in terms:
                terms[w] = op(terms[w], q)
            else:
                terms[w] = -q if neg else q
        return Element._canonical(self.order, {w: q for w, q in terms.items() if q})

    def scaled(self, c: Fraction | int | str) -> "Element":
        c = Fraction(c)  # nonzero multiples of canonical terms are canonical
        return Element._canonical(self.order, {w: c * q for w, q in self.terms.items()} if c else {})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scaled(c)
        return NotImplemented

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        """Exact product; an int or Fraction scales.  A zero operand gives zero at once.

        Both sides become integer numerators over one common denominator
        each (`_numerators`, cached on the operand); two paths sum their
        signed products per product word.  The nonzero sums s_i over
        den = xden * yden reduce at once in numpy, gcd(s_i, den) by one
        `np.gcd` (in Python ints when den needs more than 63 bits), and
        `_fractions` sets their slots.  The result's own integer form is
        left to `_numerators`, should it be multiplied in turn.

        *Matrix path.*  Let m = n + n % 2 (an odd order runs as x (x) 7,
        an algebra map), X = max|num x| and Y = max|num y|.  It runs when
        m is in `_MATRIX_ORDERS` (4 to 10), the pair count |x| * |y| is at least
        `_MATRIX_PAIRS_PER_ENTRY` * 4**m, and 16**m * X * Y < 2**53; see
        `_matrix_sums`.  Exactness: every block matrix has one entry +-1 in
        each row and column, and at each position 4 of the 16 blocks are
        nonzero, so an entry of an operand's matrix sums 2**m signed
        numerators, |entry| <= 2**m * X.  An entry of the matrix product
        sums 2**m products of such entries, <= 8**m * X * Y.  A decoded sum
        is 2**m times a coefficient and adds the 2**m entries its word's
        matrix selects, <= 16**m * X * Y.  Every partial sum on the way,
        in the encode, the matmul and the decode in whatever order BLAS
        adds, is an integer no larger than the sum of its terms' absolute
        values, so below 2**53 float64 holds each exactly.

        *Packed path.*  Every other product: term pairs go through
        `packed_mul_many` in blocks of at most `packed._BLOCK_PAIRS`; they
        add into one slot per word while 4**n <= that, else raw blocks wait
        until they outnumber the running sorted (word, sum) arrays, and one
        `_sum_by_key` sorts them in.  Memory never follows the pair count.
        Sums are int64 when X * Y * min(|x|, |y|) < 2**62, else Python ints.
        """
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        if not (self.terms and other.terms):
            return Element.zero(n)
        xs, xnum, xden, xtop = _numerators(self)
        ys, ynum, yden, ytop = _numerators(other)
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
        # up to order 7 both paths return every key, nonzero or not
        words = compress(_word_table(n), nonzero.tolist()) if 4**n <= packed._BLOCK_PAIRS else packed.unpack_words(keys, n)
        return Element._canonical(n, dict(zip(words, _fractions((sums // gs).tolist(), (den // gs).tolist()))))

    def __pow__(self, m: int) -> "Element":
        if _non_integer(m) or m < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {m}")
        m = operator.index(m)
        if not m:
            return Element.one(self.order)
        # square and multiply from the lowest set bit: m = 2**k costs k products
        result, base = None, self
        while m:
            if m & 1:
                result = base if result is None else result * base
            m >>= 1
            if m:
                base = base * base
        return result

    # -- conjugation and parity ------------------------------------------------

    def conjugate(self) -> "Element":
        """Digitwise quaternionic conjugation: negate words with an odd
        number of non-7 digits.  An involutive anti-automorphism."""
        return Element._canonical(
            self.order,
            {w: (-q if noncentral_count(w) % 2 else q) for w, q in self.terms.items()},
        )

    def parity_split(self) -> tuple["Element", "Element"]:
        """(even part, odd part) by the parity of the non-7 digit count."""
        even: dict[str, Fraction] = {}
        odd: dict[str, Fraction] = {}
        for w, q in self.terms.items():
            (odd if noncentral_count(w) % 2 else even)[w] = q
        return Element._canonical(self.order, even), Element._canonical(self.order, odd)

    @property
    def even_part(self) -> "Element":
        return self.parity_split()[0]

    @property
    def odd_part(self) -> "Element":
        return self.parity_split()[1]

    def map_basis(self, word_map: Callable[[str], str]) -> "Element":
        """Relabel basis words through `word_map`, carrying coefficients."""
        return Element(self.order, ((word_map(w), q) for w, q in self.terms.items()))


def _load() -> None:
    """Bind the module globals `np` and `packed` on the first call; after
    that a call costs one comparison.  Imported in this order, so `packed`
    is set only once both are."""
    global np, packed
    if packed is None:
        import numpy as np
        from . import packed


def _numerators(x: Element) -> tuple[np.ndarray, list[int], int, int]:
    """x's packed words, its integer numerators over their least common
    denominator, that denominator, all in the order of `x.terms`, and the
    largest |numerator|, which bounds the sums of every product.
    Every product starts here, so this is where numpy loads.  Built once
    per Element, whose terms never change, and kept in its `_packed` slot;
    nothing else sets that slot."""
    _load()
    if x._packed is None:
        # packed first, so that the peak of `pack_words` does not add to the pairs
        keys = packed.pack_words(list(x.terms), x.order)
        pairs = [q.as_integer_ratio() for q in x.terms.values()]
        den = math.lcm(*(d for _, d in pairs))
        nums = [p * (den // d) for p, d in pairs]
        object.__setattr__(x, "_packed", (keys, nums, den, max(map(abs, nums), default=0)))
    return x._packed


def _fractions(ps: list[int], qs: list[int]) -> list[Fraction]:
    """Fractions p / q for coprime pairs of an int p and an int q > 0, the two
    slots set in one loop as CPython 3.12+'s private `Fraction._from_coprime_ints`
    does.  Tests pin `Fraction.__slots__`."""
    out = []
    for p, q in zip(ps, qs):
        r = object.__new__(Fraction)
        r._numerator, r._denominator = p, q
        out.append(r)
    return out


def _fraction(p: int, q: int) -> Fraction:
    """p / q as a reduced Fraction, for an int p and an int q > 0: one gcd,
    then the slots set as in `_fractions` (inlined, since `Recurrence.extend`
    calls this once per term)."""
    g = math.gcd(p, q)
    r = object.__new__(Fraction)
    r._numerator, r._denominator = p // g, q // g
    return r


@cache
def _word_table(n: int) -> list[str]:
    """All 4**n order-n words, indexed by packed key: built on the first
    product at order n and kept (about 1.1 MB at order 7)."""
    return packed.unpack_words(np.arange(4**n, dtype=np.uint64), n)


def _power_coeffs(x: Element, word: str, count: int) -> list[Fraction] | None:
    """Coefficients of the canonical `word` in x**1 .. x**count, or None when
    the span of supp(x) times |x| exceeds `packed._BLOCK_PAIRS` (the caller
    then multiplies Elements, on the matrix path only while the numerators
    of the powers stay under its float64 bound).

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
    n = x.order
    if not x.terms:
        return [Fraction(0)] * count
    xs, xnum, den, top = _numerators(x)
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
        return [Fraction(0)] * count
    span = np.fromiter(number, dtype=np.uint64, count=len(number))
    cols = np.fromiter(map(number.get, rs), dtype=np.intp, count=len(rs))
    idx = np.arange(len(span))[:, None] ^ cols
    # looked up on the module so a wrapper installed there sees the call
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
        out.append(_fraction(int(a[t]), den**m))
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
            # looked up on the module so a wrapper installed there
            # (perfbench/tracer.py) sees every block
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

    Exact only while 16**m * max|xnum| * max|ynum| < 2**53, which the caller
    checks (`Element.__mul__` derives the bound).  Under it every decoded
    sum is an integer-valued float64 below 2**53, so its int64 cast is
    exact and the checks run on integers: raises ArithmeticError if a sum
    has a low bit set below bit m (it is not a multiple of 2**m), or a
    padded product has a term outside the top-lane-3 words.
    """
    m = n + n % 2
    pad = np.uint64(3 << 2 * n if n % 2 else 0)
    sums = _from_matrix(_to_matrix(xs | pad, xnum, m) @ _to_matrix(ys | pad, ynum, m), m).astype(np.int64)
    head = 4**m - 4**n  # words whose top lane is not 3, at odd n; none at even n
    if (sums & (2**m - 1)).any() or sums[:head].any():
        raise ArithmeticError(f"inexact matrix product at order {n}")
    return sums[head:] >> m


def sierpinski_support(n: int) -> Element:
    """Sum of all corner-only words {1,2,4}**n, each with coefficient 1.

    The support tiles form the order-n Sierpinski-type triangle; the element
    is fixed by every digitwise permutation of {1, 2, 4}.
    """
    check_order(n)
    return Element(n, {"".join(t): 1 for t in product("124", repeat=n)})


# -- serialization --------------------------------------------------------------


#: A coefficient text that `int` reads as written: "-?[0-9]+(/[0-9]+)?".
_PLAIN_COEFF = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def element_to_dict(x: Element) -> dict:
    """Canonical JSON-ready form: terms sorted by packed word value."""
    terms = [{"word": w, "coeff": str(x.terms[w])} for w in x.support()]
    return {"order": x.order, "terms": terms}


def element_from_dict(data) -> Element:
    if not isinstance(data, dict) or "order" not in data or "terms" not in data:
        raise ValueError('element JSON must have "order" and "terms"')
    order, entries = data["order"], data["terms"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f'"order" must be an integer, got {order!r}')
    if not isinstance(entries, list):
        raise ValueError(f'"terms" must be a list, got {type(entries).__name__}')
    return Element(order, map(_json_term, entries))


def _json_term(entry) -> tuple[str, Fraction]:
    """A checked "terms" entry as a (word, coefficient) pair.  The constructor
    pulls entries one at a time, so the first faulty entry is the one reported."""
    if not isinstance(entry, dict) or "word" not in entry or "coeff" not in entry:
        raise ValueError(f'term entries need "word" and "coeff": {entry!r}')
    text = str(entry["coeff"])
    try:
        # plain text with a nonzero denominator skips the Fraction parser;
        # `int` raises ValueError past 4300 digits, as that parser does
        m = _PLAIN_COEFF.fullmatch(text)
        q = _fraction(int(m[1]), d) if m and (d := int(m[2] or 1)) else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid coefficient {entry['coeff']!r}: {exc}") from None
    return str(entry["word"]), q


def element_to_json(x: Element) -> str:
    """Canonical JSON text: terms sorted by packed word value, exact coefficients.
    The text is `json.dumps(element_to_dict(x))`, formatted directly: words are
    digits and coefficients `str(Fraction)`, so nothing needs escaping."""
    t = x.terms
    terms = ", ".join(['{"word": "%s", "coeff": "%s"}' % (w, t[w]) for w in x.support()])
    return '{"order": %d, "terms": [%s]}' % (x.order, terms)


def element_from_json(text: str) -> Element:
    """Parse the JSON form; accepts letter-spelled words and "p/q" strings."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid element JSON: {exc}") from None
    return element_from_dict(data)


# -- exponential ----------------------------------------------------------------


#: Series length giving well-past-double-precision convergence for the
#: unit-scale elements exercised in the tests.
DEFAULT_EXP_TERMS = 20


def exp_truncated(x: Element, terms: int = DEFAULT_EXP_TERMS) -> Element:
    """Truncated exponential series: the exact sum of x**m / m! for m < terms."""
    if _non_integer(terms) or terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    acc = term = Element.one(x.order)
    for m in range(1, terms):
        term = (term * x).scaled(Fraction(1, m))
        acc = acc + term
    return acc


def format_element(x: Element, letters: bool = False) -> str:
    """Human-readable exact form, canonical term order."""
    if not x.terms:
        return "0"
    parts = []
    for w in x.support():
        q = x.terms[w]
        lead = "- " if q < 0 else ("+ " if parts else "")
        parts.append(f"{lead}{abs(q)}*{format_word(w, letters)}")
    return " ".join(parts)
