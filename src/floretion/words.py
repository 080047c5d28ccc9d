"""Words over the digit alphabet {1, 2, 4, 7} and their signed multiplication.

A word of length n is a string of digits from {1, 2, 4, 7}, read left to
right.  The digits carry quaternionic meaning through the letter aliases
1 <-> i, 2 <-> j, 4 <-> k, 7 <-> e, stated once as the `str.translate`
tables `_TO_DIGITS` and `_TO_LETTERS`.  Two words of equal length multiply
digit by digit: each position contributes a local quaternionic product (a
sign and a result digit), the result digits form the product word and the
local signs multiply into one global sign.  The local rule itself is
Boolean.  Each digit d is encoded by the two-bit code d >> 1 (the top two
bits of its octal value):

    1 -> 00,   2 -> 01,   4 -> 10,   7 -> 11.

For codes x = (a, b) and y = (c, d), the product's unsigned code is the
bitwise XNOR (a XNOR c, b XNOR d), and its sign is (-1)**(m + 1) with

    m = (b AND c) + ((a XNOR b) AND d) + (a AND (c XNOR d)).

Reduced mod 2 (each XNOR is 1 XOR ..., and the two (a AND d) terms cancel),
m = a XOR d XOR (c AND (a XOR b)) XOR (b AND d).  `_lane_rule` evaluates it
with bitwise operators, which act lane by lane: on a pair of codes to build
`LOCAL_TABLE`, and on whole packed words in `floretion.packed`.

The 16-entry table generated by this rule is exactly the quaternion table
with the convention ij = k, jk = i, ki = j and i**2 = j**2 = k**2 = -e,
e acting as identity; tests pin all 16 entries.

Signs are always carried as the integers +1 / -1, never as booleans.

A word also packs into an integer, one 2-bit lane of digit codes per
position, position 1 in the least significant lane: `pack_word` and
`unpack_word` convert one word in pure Python, and `floretion.packed` runs
the lane rule on numpy arrays of such integers.  They live here, beside
the digit codes, so that sorting words into canonical order needs no numpy.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

DIGITS = "1247"

#: Largest word length accepted anywhere in the package.  The packed kernel
#: stores one 2-bit lane per digit, so 32 digits fill a 64-bit lane field.
MAX_ORDER = 32

#: `str.translate` tables: letters to digits, digits to letters, and one
#: deleting the four digits, which only a non-digit survives.
_TO_DIGITS = str.maketrans("ijke", DIGITS)
_TO_LETTERS = str.maketrans(DIGITS, "ijke")
_DROP_DIGITS = str.maketrans("", "", DIGITS)

#: Two-bit code of each digit (the digit's octal value shifted right by one).
DIGIT_CODE = {"1": 0, "2": 1, "4": 2, "7": 3}
CODE_DIGIT = {c: d for d, c in DIGIT_CODE.items()}

#: Bits per digit in a packed word.
_LANE_WIDTH = 2
_NOT_WORDS = "packed words must be nonnegative integers below 2**64"


class SignedWord(NamedTuple):
    """A word together with a sign in {+1, -1}."""

    sign: int
    word: str


def _lane_rule(x, y, full, lo, one=1):
    """(product lanes, minus lanes) of the rule on lane words x, y within
    `full`: ints, or uint64 arrays with numpy-scalar masks and shift `one`.
    At a lane's low bit x >> 1 holds a, x b, y >> 1 c and y d; minus is 1
    where m is 0.  XOR with a mask complements y before it broadcasts."""
    a = x >> one
    return x ^ (y ^ full), (a ^ (y ^ lo) ^ ((y >> one) & (x ^ a)) ^ (x & y)) & lo


#: (x, y) -> (sign, digit) for all 16 digit pairs, generated from the
#: Boolean rule above.
LOCAL_TABLE: dict[tuple[str, str], tuple[int, str]] = {
    (CODE_DIGIT[cx], CODE_DIGIT[cy]): (-1 if minus else 1, CODE_DIGIT[cz])
    for cx in range(4)
    for cy in range(4)
    for cz, minus in [_lane_rule(cx, cy, 3, 1)]
}


def local_mul(x: str, y: str) -> tuple[int, str]:
    """Product of two digits: (sign, digit).  Total on {1, 2, 4, 7}."""
    try:
        return LOCAL_TABLE[(x, y)]
    except KeyError:
        raise ValueError(f"not a digit pair: {x!r}, {y!r}") from None


def parse_word(text: str, order: int | None = None) -> str:
    """Normalize word text to canonical digit form.

    Accepts the digit spelling ("124"), the letter spelling ("ijk"), or any
    per-character mix.  Rejects empty words, words longer than MAX_ORDER,
    and, when `order` is given, words of any other length.
    """
    # a digit word of an accepted length is already canonical
    if type(text) is str and text and not text.strip(DIGITS) and len(text) <= MAX_ORDER and order in (None, len(text)):
        return text
    word = str.translate(text, _TO_DIGITS)
    if bad := word.translate(_DROP_DIGITS):
        raise ValueError(f"invalid word character {bad[0]!r} in {text!r}")
    if not word:
        raise ValueError("empty word")
    if len(word) > MAX_ORDER:
        raise ValueError(f"word length {len(word)} exceeds maximum order {MAX_ORDER}")
    if order is not None and len(word) != order:
        raise ValueError(f"expected a word of length {order}, got {text!r}")
    return word


def parse_signed_word(text: str, order: int | None = None) -> SignedWord:
    """Parse word text with an optional leading sign ("-kjj", "+12", "42")."""
    sign = 1
    body = text
    if body[:1] == "-":
        sign, body = -1, body[1:]
    elif body[:1] == "+":
        body = body[1:]
    return SignedWord(sign, parse_word(body, order))


def format_word(word: str, letters: bool = False) -> str:
    """Render a canonical word, in letters (ijke) on request."""
    return word.translate(_TO_LETTERS) if letters else word


def format_signed_word(sw: SignedWord, letters: bool = False) -> str:
    body = format_word(sw.word, letters)
    return "-" + body if sw.sign < 0 else body


def _non_integer(v) -> bool:
    """Whether v is a bool or has no `__index__`, so cannot be a count or an order."""
    return type(v) is bool or not hasattr(v, "__index__")


def check_order(n: int) -> None:
    """Raise ValueError unless n is an integer (not a bool) in 1..MAX_ORDER."""
    if _non_integer(n) or not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {n}")


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
    check_order(n)
    if not isinstance(bits, int) or bits < 0:
        raise ValueError(_NOT_WORDS)
    if bits >> (_LANE_WIDTH * n):
        raise ValueError(f"stray bits above lane {2 * n} in {bits:#x}")
    return "".join(CODE_DIGIT[(bits >> (_LANE_WIDTH * r)) & 3] for r in range(n))


def identity_word(n: int) -> str:
    """The all-7 word of length n, the multiplicative identity."""
    check_order(n)
    return "7" * n


def noncentral_count(word: str) -> int:
    """Number of digits in {1, 2, 4}, i.e. positions not equal to 7."""
    return len(word) - word.count("7")


def all_words(n: int) -> Iterator[str]:
    """All 4**n words of length n in canonical (ascending packed) order.

    Position 1 varies fastest, so the sequence starts 11..1, 21..1, 41..1.
    """
    check_order(n)
    for tup in product(DIGITS, repeat=n):
        yield "".join(tup[::-1])


def word_mul(a: str, b: str) -> SignedWord:
    """Digitwise product of two equal-length words with collected sign."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    sign = 1
    out = []
    table = LOCAL_TABLE
    try:
        for pair in zip(a, b):
            s, d = table[pair]
            sign *= s
            out.append(d)
    except KeyError:
        raise ValueError(f"invalid digit in {a!r} or {b!r}") from None
    return SignedWord(sign, "".join(out))


def signed_word_mul(u: SignedWord, v: SignedWord) -> SignedWord:
    s, w = word_mul(u.word, v.word)
    return SignedWord(u.sign * v.sign * s, w)


def signed_word_inverse(u: SignedWord) -> SignedWord:
    """Inverse in the signed group.

    Every word squares to +/- the identity word (digit 7 squares to +e,
    the other three digits to -e), so the inverse of +/-b is +/-b up to
    that square's sign.
    """
    square_sign = -1 if noncentral_count(u.word) % 2 else 1
    return SignedWord(u.sign * square_sign, u.word)
