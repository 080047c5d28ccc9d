"""Exact element arithmetic, conjugation, parity, exponential, JSON."""

import json
import math
import random
from fractions import Fraction

import pytest

from floretion.algebra import (
    Element,
    element_from_json,
    element_to_json,
    exp_truncated,
    format_element,
    sierpinski_support,
)
from helpers import random_element, random_fraction

F = Fraction


def test_zero_and_add():
    x = Element(2, {"12": F(1, 2), "44": 3})
    assert x + Element.zero(2) == x
    assert Element(2, {"12": F(1, 2)}) + Element(2, {"12": F(1, 2)}) == Element(2, {"12": 1})
    assert x + (-x) == Element.zero(2)
    assert (x - x).is_zero()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Element(2, {"12": 1}) + Element(3, {"123": 1})
    with pytest.raises(ValueError):
        Element(2, {"12": 1}) * Element(3, {"123": 1})
    with pytest.raises(ValueError):
        Element(2, {"123": 1})


def test_zero_coefficients_never_stored():
    x = Element(2, {"12": 0, "44": 1})
    assert "12" not in x.terms
    y = Element(2, {"12": 1}) + Element(2, {"12": -1})
    assert y.terms == {}


def test_letters_accepted_in_terms():
    assert Element(2, {"ij": 1}) == Element(2, {"12": 1})


def test_mul_examples():
    ii = Element(2, {"11": 1})
    assert ii * ii == Element(2, {"77": 1})
    x = Element(3, {"124": F(2, 3), "777": -2})
    assert x * Element.one(3) == x
    assert Element.one(3) * x == x


def test_mul_scalar():
    x = Element(2, {"12": F(1, 2)})
    assert 2 * x == Element(2, {"12": 1})
    assert x * 2 == Element(2, {"12": 1})
    assert x.scaled(F(2, 3)) == Element(2, {"12": F(1, 3)})


def test_bilinearity_random():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        x, y, z = (random_element(rng, n) for _ in range(3))
        a, b = random_fraction(rng), random_fraction(rng)
        assert (a * x + b * y) * z == a * (x * z) + b * (y * z)
        assert z * (a * x + b * y) == a * (z * x) + b * (z * y)


def test_associativity_random():
    rng = random.Random(32)
    for _ in range(25):
        n = rng.randint(1, 3)
        x, y, z = (random_element(rng, n) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_pow():
    x = Element(2, {"12": 1, "77": F(1, 2)})
    assert x**0 == Element.one(2)
    assert x**1 == x
    assert x**5 == x * x * x * x * x
    with pytest.raises(ValueError):
        x**-1


def test_conjugate_basics():
    assert Element.one(3).conjugate() == Element.one(3)
    # two non-7 digits: fixed
    assert Element(2, {"12": 1}).conjugate() == Element(2, {"12": 1})
    # one non-7 digit: negated
    assert Element(2, {"17": 1}).conjugate() == Element(2, {"17": -1})


def test_conjugate_is_involutive_antiautomorphism():
    rng = random.Random(33)
    for _ in range(25):
        n = rng.randint(1, 3)
        x, y = random_element(rng, n), random_element(rng, n)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_parity_split_basics():
    e3 = Element.one(3)
    even, odd = e3.parity_split()
    assert even == e3 and odd.is_zero()
    x = Element(2, {"11": 1, "17": 1})
    even, odd = x.parity_split()
    assert even == Element(2, {"11": 1})
    assert odd == Element(2, {"17": 1})


def test_parity_split_is_conjugation_eigensplit():
    rng = random.Random(34)
    half = F(1, 2)
    for _ in range(25):
        x = random_element(rng, rng.randint(1, 3))
        even, odd = x.parity_split()
        assert even + odd == x
        assert even == half * (x + x.conjugate())
        assert odd == half * (x - x.conjugate())


def test_odd_part_of_square_identity():
    rng = random.Random(35)
    for _ in range(40):
        x = random_element(rng, rng.randint(1, 3))
        lhs = (x * x).odd_part
        rhs = 2 * (x * x.odd_part).odd_part
        assert lhs == rhs


def test_parity_of_powers():
    rng = random.Random(36)
    for _ in range(15):
        n = rng.randint(1, 3)
        x = random_element(rng, n)
        odd = x.odd_part
        even = x.even_part
        for m in range(0, 9):
            p = odd**m
            assert (p.odd_part if m % 2 else p.even_part) == p
            q = even**m
            assert q.even_part == q


def test_coeff():
    x = Element(2, {"12": 1, "44": 2})
    assert x.coeff("44") == 2
    assert x.coeff("kk") == 2
    assert x.coeff("77") == 0
    with pytest.raises(ValueError):
        x.coeff("124")


def test_sierpinski_support():
    s = sierpinski_support(2)
    assert len(s.terms) == 9
    assert all(q == 1 for q in s.terms.values())
    assert "77" not in s.terms and "17" not in s.terms
    assert s.coeff("12") == 1


def test_json_roundtrip_and_canonical_order():
    x = Element(2, {"71": F(-3, 2), "12": 1, "77": F(5)})
    text = element_to_json(x)
    assert element_from_json(text) == x
    data = json.loads(text)
    # ascending packed value: 71 packs below 12, 12 below 77
    assert [t["word"] for t in data["terms"]] == ["71", "12", "77"]
    assert data["terms"][0]["coeff"] == "-3/2"


def test_json_accepts_letters():
    x = element_from_json('{"order": 2, "terms": [{"word": "ij", "coeff": "1/3"}]}')
    assert x == Element(2, {"12": F(1, 3)})


def test_json_errors():
    with pytest.raises(ValueError):
        element_from_json("not json")
    with pytest.raises(ValueError):
        element_from_json('{"order": 2}')
    with pytest.raises(ValueError):
        element_from_json('{"order": 2, "terms": [{"word": "12", "coeff": "x"}]}')
    with pytest.raises(ValueError):
        element_from_json('{"order": "2", "terms": []}')
    with pytest.raises(ValueError):
        element_from_json('{"order": 2, "terms": 5}')
    with pytest.raises(ValueError):
        element_from_json('{"order": true, "terms": []}')


def test_format_element():
    x = Element(2, {"71": F(-3, 2), "12": 1})
    assert format_element(x) == "- 3/2*71 + 1*12"
    assert format_element(x, letters=True) == "- 3/2*ei + 1*ij"
    assert format_element(Element.zero(2)) == "0"


def test_exp_zero_is_identity():
    assert exp_truncated(Element.zero(2), 12) == Element.one(2)


def test_exp_scalar_case():
    x = Element(2, {"77": 1})
    e = exp_truncated(x, 30)
    assert abs(e.coeff("77") - math.e) < 1e-9
    assert len(e.terms) == 1


def test_exp_accepts_exact_elements():
    x = Element(1, {"1": F(1, 2)})
    e = exp_truncated(x, 25)
    # exact partial sums in the span of e and i: cos(1/2) e + sin(1/2) i
    assert set(e.terms) == {"7", "1"} and all(isinstance(q, F) for q in e.terms.values())
    assert abs(e.coeff("7") - math.cos(0.5)) < 1e-12
    assert abs(e.coeff("1") - math.sin(0.5)) < 1e-12


def test_exp_terms_validation():
    with pytest.raises(ValueError):
        exp_truncated(Element.zero(1), 0)


def test_element_immutability():
    x = Element(2, {"12": 1})
    with pytest.raises(AttributeError):
        x.order = 3
