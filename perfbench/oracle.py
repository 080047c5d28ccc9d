"""Independent checks shared by the workloads.

They rebuild what they need from the digit rule (`word_mul`, the package's
reference product, which no fast path replaces) and from plain string and
integer arithmetic, never from the function under test.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

import numpy as np

DIGITS = "1247"

#: 2x2 complex matrices of i, j, k and e (digits 1, 2, 4, 7): ij = k,
#: jk = i, ki = j, i*i = j*j = k*k = -e.
QUATERNION = np.array(
    [[[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]], [[1, 0], [0, 1]]], dtype=complex
)


def unpack(bits: int, n: int) -> str:
    """Digit word of a packed order-n integer (position 1 in the low lane)."""
    return "".join(DIGITS[(bits >> (2 * r)) & 3] for r in range(n))


def pack(word: str) -> int:
    return sum(DIGITS.index(d) << (2 * r) for r, d in enumerate(word))


def odd(word: str) -> bool:
    """True when the word has an odd count of non-7 digits."""
    return sum(d != "7" for d in word) % 2 == 1


def coeff_of_product(word_mul: Callable, factors: Sequence, w: str) -> Fraction:
    """Coefficient of word `w` in factors[0] * ... * factors[-1].

    For each term b of the first factor exactly one word c has b*c = +/-w
    (c is the unsigned part of b*w, since b*b = +/- identity), so the cost is
    the product of the support sizes of all factors but the last.
    """
    if len(factors) == 1:
        return factors[0].terms.get(w, Fraction(0))
    total = Fraction(0)
    for b, q in factors[0].terms.items():
        c = word_mul(b, w).word
        rest = coeff_of_product(word_mul, factors[1:], c)
        if rest:
            total += word_mul(b, c).sign * q * rest
    return total


def centralizer_counts(word_mul: Callable, word: str) -> tuple[int, int]:
    """(plus, minus): the numbers of words c that commute with `word`, split
    by the sign of c*word.

    A product's sign is the product of its digits' signs, and c commutes with
    b exactly when an even number of digit pairs anticommute.  So a four-state
    count over positions (anticommuting parity, sign so far), built from
    single-digit products, gives both numbers in O(n) steps.
    """
    states = Counter({(0, 1): 1})
    for b in word:
        step = Counter()
        for d in DIGITS:
            sign = word_mul(d, b).sign
            flip = int(sign != word_mul(b, d).sign)
            for (parity, s), k in states.items():
                step[(parity ^ flip, s * sign)] += k
        states = step
    return states[(0, 1)], states[(0, -1)]


def spot_words(terms: dict, picks: Sequence[float], extra: Sequence[str]) -> list[str]:
    """Words to spot-check: seeded picks from the result's support (so a sign
    error cannot hide behind zero coefficients) plus fixed extra words."""
    support = sorted(terms)
    chosen = [support[int(p * len(support))] for p in picks] if support else []
    return chosen + list(extra)


def rep(terms: dict, n: int) -> np.ndarray:
    """Image of an order-n element in the faithful 2**n-dimensional complex
    representation: each word maps to the Kronecker product of its digits'
    quaternion matrices, position 1 outermost."""
    c = np.zeros((4,) * n, dtype=complex)
    for w, q in terms.items():
        c[tuple(DIGITS.index(d) for d in w)] = float(q)
    operands = [c, list(range(n))]
    for r in range(n):
        operands += [QUATERNION, [r, n + r, 2 * n + r]]
    out = np.einsum(*operands, list(range(n, 3 * n)), optimize=True)
    return out.reshape(2**n, 2**n)


def rep_product_ok(factors: Sequence, z) -> bool:
    """z equals the product of `factors` in the representation, within float
    rounding.  Unlike a spot check this sees every term: one wrong sign moves
    the image by twice that term's coefficient."""
    n = z.order
    want = reduce(np.matmul, [rep(f.terms, n) for f in factors])
    scale = max(1.0, float(np.abs(want).max()))
    return bool(np.allclose(rep(z.terms, n), want, rtol=0.0, atol=1e-9 * scale))
