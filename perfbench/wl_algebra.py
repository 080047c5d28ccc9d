"""algebra-dense: exact `Element` products, squares, small powers, the parity
maps, the JSON round trip and `check_vanishing`, on seeded random elements
at orders 3 to 5 with supports from 4 to 256 terms.

Nearly all the time is the O(|x|*|y|) `word_mul` loop of `Element.__mul__`.
Every round has the same 23 operations; the seed picks the words and
coefficients.  Eight are short (up to 4k term pairs, the parity maps, the
JSON round trip, one vanishing check), ten are 64x256 products at order 4
(16k pairs) and five are 256x256 products and squares at orders 4 and 5
(65k pairs).  The median falls about a third of the way into the ten equal
64x256 products and the tail among the five equal largest ones (see
harness.interleave for how the blocks are spread over a round), so that
neither moves from one kind of operation to another from run to run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Op, Plan, interleave
from oracle import coeff_of_product, odd, rep_product_ok, spot_words, unpack

NAME = "algebra-dense"
WHY = "exact Element products of 4-256 terms at orders 3-5 plus powers, parity, JSON and vanishing; the word_mul loop that ROADMAP item 1 vectorizes"
SIZES = (
    "per round: products 4x8 (order 3), 16x256, 10 x 64x256 and 2 x 256x256 (order 4), 8x256 "
    "and 256x256 (order 5); squares of 256 terms (orders 4 and 5); x**4 of 8 terms "
    "(order 3), x**3 of 16 terms (order 4); parity split + conjugate and JSON round trip of "
    "256 terms (order 5); check_vanishing of one order-4 word"
)
POOL = 4


def _element(fl, rng: random.Random, n: int, k: int):
    words = rng.sample(range(4**n), k)
    coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)) for _ in words]
    return fl.Element(n, {unpack(w, n): q for w, q in zip(words, coeffs)})


def _product_op(fl, rng, kind, factors, run):
    """Spot-check three seeded words of the support and one random word
    exactly, and every term through the matrix representation."""
    n = factors[0].order
    picks = [rng.random() for _ in range(3)]
    extra = [unpack(rng.randrange(4**n), n)]

    def check(z) -> bool:
        if z.order != n:
            return False
        return rep_product_ok(factors, z) and all(
            z.terms.get(w, 0) == coeff_of_product(fl.word_mul, factors, w)
            for w in spot_words(z.terms, picks, extra)
        )

    return Op(kind, run, check)


def product(fl, rng, n, a, b):
    x, y = _element(fl, rng, n, a), _element(fl, rng, n, b)
    return _product_op(fl, rng, f"mul_o{n}_{a}x{b}", [x, y], lambda: x * y)


def square(fl, rng, n, a):
    x = _element(fl, rng, n, a)
    return _product_op(fl, rng, f"square_o{n}_{a}", [x, x], lambda: x * x)


def power(fl, rng, n, a, m):
    x = _element(fl, rng, n, a)
    return _product_op(fl, rng, f"pow{m}_o{n}_{a}", [x] * m, lambda: x**m)


def parity(fl, rng, n, a):
    x = _element(fl, rng, n, a)

    def run():
        even, odd_part = x.parity_split()
        return even, odd_part, x.conjugate()

    def check(out) -> bool:
        even, odd_part, conj = out
        if set(even.terms) | set(odd_part.terms) != set(x.terms) or set(even.terms) & set(odd_part.terms):
            return False
        if any(odd(w) for w in even.terms) or not all(odd(w) for w in odd_part.terms):
            return False
        return conj.terms == {w: (-q if odd(w) else q) for w, q in x.terms.items()}

    return Op(f"parity_o{n}_{a}", run, check)


def json_round_trip(fl, rng, n, a):
    import json

    x = _element(fl, rng, n, a)

    def run():
        text = fl.element_to_json(x)
        return text, fl.element_from_json(text)

    def check(out) -> bool:
        text, y = out
        data = json.loads(text)
        return data["order"] == n and len(data["terms"]) == len(x.terms) and y.terms == x.terms

    return Op(f"json_o{n}_{a}", run, check)


def vanishing(fl, rng, n):
    while True:
        w = unpack(rng.randrange(4**n), n)
        if not odd(w) and w != "7" * n:
            break
    # the theorem: a word squaring to the identity has vanishing mixed products
    return Op(f"vanishing_o{n}", lambda: fl.check_vanishing(w), lambda out: out is True)


def round_ops(fl, rng: random.Random) -> list[Op]:
    short = [
        product(fl, rng, 3, 4, 8),
        power(fl, rng, 3, 8, 4),
        parity(fl, rng, 5, 256),
        json_round_trip(fl, rng, 5, 256),
        product(fl, rng, 5, 8, 256),
        power(fl, rng, 4, 16, 3),
        vanishing(fl, rng, 4),
        product(fl, rng, 4, 16, 256),
    ]
    middle = [product(fl, rng, 4, 64, 256) for _ in range(10)]
    largest = [
        product(fl, rng, 4, 256, 256),
        square(fl, rng, 4, 256),
        product(fl, rng, 5, 256, 256),
        product(fl, rng, 4, 256, 256),
        square(fl, rng, 5, 256),
    ]
    return interleave(short, middle, largest)


def plan(fl, seed: int, sink) -> Plan:
    rng = random.Random(seed)
    rounds = [round_ops(fl, rng) for _ in range(POOL)]
    warm = [product(fl, rng, 3, 4, 8), product(fl, rng, 4, 16, 256), power(fl, rng, 4, 16, 3),
            parity(fl, rng, 5, 256), json_round_trip(fl, rng, 5, 256), vanishing(fl, rng, 4)]
    return Plan(rounds, warmup=warm)
