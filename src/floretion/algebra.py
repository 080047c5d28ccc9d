"""Exact linear combinations of basis words, with multiplication and the
digitwise conjugation / parity structure.

An Element of order n is a finite map from length-n words to exact
rationals.  Multiplication extends the signed word product bilinearly.
Coefficients are `fractions.Fraction` throughout so that the recurrence and
cancellation identities the package tests can be checked exactly; this
includes the truncated exponential, whose partial sums are exact too.

Canonical form: zero coefficients are never stored, and serialized term
order is ascending packed word value, so equal elements serialize
identically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

from .packed import pack_word
from .words import (
    check_order,
    format_word,
    identity_word,
    noncentral_count,
    parse_word,
    word_mul,
)


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
        return Element(self.order, {w: -q for w, q in self.terms.items()})

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
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_order(other)
        out: dict[str, Fraction] = {}
        for bw, q in self.terms.items():
            for cw, r in other.terms.items():
                s, pw = word_mul(bw, cw)
                out[pw] = out.get(pw, 0) + (q * r if s > 0 else -q * r)
        return Element(self.order, out)

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
        return Element(
            self.order,
            {w: (-q if noncentral_count(w) % 2 else q) for w, q in self.terms.items()},
        )

    def parity_split(self) -> tuple["Element", "Element"]:
        """(even part, odd part) by the parity of the non-7 digit count."""
        even: dict[str, Fraction] = {}
        odd: dict[str, Fraction] = {}
        for w, q in self.terms.items():
            (odd if noncentral_count(w) % 2 else even)[w] = q
        return Element(self.order, even), Element(self.order, odd)

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
