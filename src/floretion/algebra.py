"""Exact linear combinations of basis words, with multiplication and the
digitwise conjugation / parity structure.

An Element of order n is a finite map from length-n words to exact
rationals.  Multiplication extends the signed word product bilinearly.
Coefficients are `fractions.Fraction` throughout so that the recurrence and
cancellation identities the package tests can be checked exactly; this
includes the truncated exponential, whose partial sums are exact too.

Products run on integers: `_numerators` alone builds an operand's integer
form, on its first use, and caches it in the `_packed` slot, so x * x or a
power packs x once; `floretion.kernels` sums and reduces the product, and
`__mul__` builds the result's `Fraction`s.  The kernels, and numpy with
them, load on the first product in a process, not at import: sums,
differences, conjugation, parity, JSON and canonical term order (a sort by
the reversed word) need neither, so neither do the CLI commands built on
them.  The JSON writer formats its text directly, and the reader takes
plain "p/q" coefficients through `int`, not `Fraction`'s parser.

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
from itertools import product
from typing import Callable, Iterable, Mapping

from .words import _non_integer, check_order, format_word, identity_word, noncentral_count, parse_word

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

        Both operands' integer forms (`_numerators`) go to
        `kernels.product_terms`, which picks the route and returns the
        reduced terms as integers; `_fractions` sets their slots.  The
        result's own integer form is left to `_numerators`, should it be
        multiplied in turn.
        """
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        if not (self.terms and other.terms):
            return Element.zero(n)
        from . import kernels

        words, ps, qs = kernels.product_terms(_numerators(self), _numerators(other), n)
        return Element._canonical(n, dict(zip(words, _fractions(ps, qs))))

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


def _numerators(x: Element) -> tuple:
    """x's integer form, `kernels.integer_form` of its terms.  Built once per
    Element, whose terms never change, and kept in its `_packed` slot;
    nothing else sets that slot."""
    if x._packed is None:
        from . import kernels

        object.__setattr__(x, "_packed", kernels.integer_form(x.terms, x.order))
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
