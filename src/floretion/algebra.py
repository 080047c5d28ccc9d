"""Exact linear combinations of basis words, with multiplication and the
digitwise conjugation / parity structure.

An Element of order n is a finite map from length-n words to exact
rationals.  Multiplication extends the signed word product bilinearly.
Coefficients are `fractions.Fraction` throughout so that the recurrence and
cancellation identities the package tests can be checked exactly; this
includes the truncated exponential, whose partial sums are exact too.

Products run on packed words: both supports are packed, their coefficients
become integer numerators over one common denominator per side, and
`packed_mul_many` multiplies bounded blocks of term pairs.  The signed
numerator products are summed per product word (with `np.add.at` up to
order 7, by sorting each block above) in int64 when no sum can reach 2**62
and in Python ints otherwise, so the result is exact either way.
Products of at most `_PYTHON_PAIRS` term pairs use `packed_mul_pairs` and a
dict of Python-int sums instead, with no numpy call at all.

Canonical form: zero coefficients are never stored, and serialized term
order is ascending packed word value, so equal elements serialize
identically.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

import numpy as np

from . import packed
from .packed import pack_word, unpack_word, unpack_words
from .words import (
    check_order,
    format_word,
    identity_word,
    noncentral_count,
    parse_word,
)

#: Term pairs per `packed_mul_many` call in a product, which bounds the
#: memory a product holds besides its result.
_BLOCK_PAIRS = 1 << 14

#: Integer sums stay in int64 while no partial sum can reach this.
_INT64_LIMIT = 1 << 62

#: Products of at most this many term pairs skip numpy.  Numpy's fixed cost
#: per call is most of the time of such a product, and it speeds up and slows
#: down with the host differently from interpreted code; without it a small
#: product's time follows the interpreter alone.
_PYTHON_PAIRS = 256


class Element:
    """An exact-rational linear combination of order-n basis words.

    Treat instances as immutable values: every operation returns a new
    Element and the term map is never mutated after construction.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[str, Fraction | int | str] | None = None):
        check_order(order)
        clean: dict[str, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                q = Fraction(coeff)
                if q == 0:
                    continue
                w = parse_word(word, order)
                clean[w] = clean.get(w, Fraction(0)) + q
            clean = {w: q for w, q in clean.items() if q != 0}
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

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
        return x

    # -- basics ------------------------------------------------------------

    def coeff(self, word: str) -> Fraction:
        """Coefficient of a basis word (zero when absent)."""
        return self.terms.get(parse_word(word, self.order), Fraction(0))

    def support(self) -> list[str]:
        """Words with nonzero coefficient, in canonical order."""
        return sorted(self.terms, key=pack_word)

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
        self._require_same_order(other)
        out = dict(self.terms)
        for w, q in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + q
        return Element(self.order, out)

    def __neg__(self) -> "Element":
        return Element._canonical(self.order, {w: -q for w, q in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scaled(self, c: Fraction | int | str) -> "Element":
        c = Fraction(c)
        return Element(self.order, {w: c * q for w, q in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scaled(c)
        return NotImplemented

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        """Exact product; an int or Fraction scales.

        Term pairs go through `packed_mul_many` in blocks of at most
        `_BLOCK_PAIRS`; they add into one slot per word while 4**n <=
        `_BLOCK_PAIRS`, else block sums fold into one sorted (word, sum)
        pair of arrays.  Memory never follows the pair count.  Numerator
        sums are int64 when max|num x| * max|num y| * min(|x|, |y|) <
        2**62, else Python ints.  Products of at most `_PYTHON_PAIRS`
        pairs run in plain Python (`_small_product`).
        """
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        if not self.terms or not other.terms:
            return Element(n, {})
        xs, xnum, xden = _numerators(self.terms)
        ys, ynum, yden = _numerators(other.terms)
        if len(xs) * len(ys) <= _PYTHON_PAIRS:
            return _small_product(xs, xnum, ys, ynum, xden * yden, n)
        xs = np.array(xs, dtype=np.uint64)
        ys = np.array(ys, dtype=np.uint64)
        # For a fixed left word and product word the right word is fixed, so
        # each product word gathers at most min(|x|, |y|) numerator products.
        bound = max(map(abs, xnum)) * max(map(abs, ynum)) * min(len(xs), len(ys))
        dtype = np.int64 if bound < _INT64_LIMIT else object
        xnum = np.array(xnum, dtype=dtype)
        ynum = np.array(ynum, dtype=dtype)
        cols = min(len(ys), _BLOCK_PAIRS)
        rows = _BLOCK_PAIRS // cols
        # Up to order 7 blocks add into one slot per word, unsorted.  Above,
        # blocks[0] holds the running sums and the rest are pending sorted
        # block sums, folded in once they outgrow it, so both stay within a
        # small multiple of the result's size.
        dense = 4**n <= _BLOCK_PAIRS
        blocks = [(np.arange(4**n, dtype=np.uint64), np.zeros(4**n, dtype=dtype))] if dense else []
        for r in range(0, len(xs), rows):
            for c in range(0, len(ys), cols):
                # looked up on the module so a wrapper installed there
                # (perfbench/tracer.py) sees every block
                signs, prods = packed.packed_mul_many(xs[r : r + rows, None], ys[None, c : c + cols], n)
                vals = (signs * (xnum[r : r + rows, None] * ynum[None, c : c + cols])).ravel()
                if dense:
                    np.add.at(blocks[0][1], prods.ravel().astype(np.intp), vals)
                    continue
                blocks.append(_sum_by_key(prods.ravel(), vals))
                if sum(len(k) for k, _ in blocks[1:]) > len(blocks[0][0]):
                    blocks = [_merge(blocks)]
        keys, sums = _merge(blocks) if len(blocks) > 1 else blocks[0]
        nonzero = sums != 0
        den = xden * yden
        coeffs = [Fraction(s, den) for s in sums[nonzero].tolist()]
        return Element._canonical(n, dict(zip(unpack_words(keys[nonzero], n), coeffs)))

    def __pow__(self, m: int) -> "Element":
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {m}")
        result = Element.one(self.order)
        base = self
        while m:
            if m & 1:
                result = result * base
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
        out: dict[str, Fraction] = {}
        for w, q in self.terms.items():
            nw = word_map(w)
            out[nw] = out.get(nw, Fraction(0)) + q
        return Element(self.order, out)


def _numerators(terms: Mapping[str, Fraction]) -> tuple[list[int], list[int], int]:
    """Packed words, integer numerators over one common denominator, and
    that denominator."""
    den = math.lcm(*(q.denominator for q in terms.values()))
    return [pack_word(w) for w in terms], [q.numerator * (den // q.denominator) for q in terms.values()], den


def _small_product(xs: list[int], xnum: list[int], ys: list[int], ynum: list[int], den: int, n: int) -> Element:
    """The product for few term pairs, in Python ints throughout: signed
    numerator products summed per packed product word in a dict."""
    sums: dict[int, int] = {}
    vals = (a * b for a in xnum for b in ynum)
    for (sign, z), v in zip(packed.packed_mul_pairs(xs, ys, n), vals):
        sums[z] = sums.get(z, 0) + (v if sign > 0 else -v)
    terms = {unpack_word(z, n): Fraction(sums[z], den) for z in sorted(sums) if sums[z]}
    return Element._canonical(n, terms)


def _sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct keys and the exact sum of `vals` at each.  Sums
    stay in `vals`' dtype (never float64, which `np.bincount` would use)."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(vals[order], starts)


def _merge(blocks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Fold (keys, sums) blocks into one sorted pair."""
    return _sum_by_key(np.concatenate([k for k, _ in blocks]), np.concatenate([v for _, v in blocks]))


def sierpinski_support(n: int) -> Element:
    """Sum of all corner-only words {1,2,4}**n, each with coefficient 1.

    The support tiles form the order-n Sierpinski-type triangle; the element
    is fixed by every digitwise permutation of {1, 2, 4}.
    """
    check_order(n)
    return Element(n, {"".join(t): 1 for t in product("124", repeat=n)})


# -- serialization --------------------------------------------------------------


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
    terms: dict[str, Fraction] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "word" not in entry or "coeff" not in entry:
            raise ValueError(f'term entries need "word" and "coeff": {entry!r}')
        w = parse_word(str(entry["word"]), order)
        try:
            q = Fraction(str(entry["coeff"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid coefficient {entry['coeff']!r}: {exc}") from None
        terms[w] = terms.get(w, Fraction(0)) + q
    return Element(order, terms)


def element_to_json(x: Element) -> str:
    """Canonical JSON text: terms sorted by packed word value, exact coefficients."""
    return json.dumps(element_to_dict(x))


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
    if terms < 1:
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
