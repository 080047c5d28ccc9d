"""Digit-level products, word products, and the signed group structure."""

import random
from itertools import product

import pytest

from floretion.words import (
    CODE_DIGIT,
    DIGIT_CODE,
    DIGITS,
    MAX_ORDER,
    SignedWord,
    _lane_rule,
    all_words,
    format_signed_word,
    format_word,
    identity_word,
    local_mul,
    noncentral_count,
    parse_signed_word,
    parse_word,
    signed_word_inverse,
    signed_word_mul,
    word_mul,
)
from helpers import paper_rule, reference_format_word, reference_parse_word

# Hand-written quaternion table (rows = left factor), from the defining
# relations ij = k, jk = i, ki = j, i^2 = j^2 = k^2 = -e, e the identity.
# This is the independent oracle the Boolean rule must reproduce.
QUAT_TABLE = {
    ("i", "i"): (-1, "e"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"), ("i", "e"): (1, "i"),
    ("j", "i"): (-1, "k"), ("j", "j"): (-1, "e"), ("j", "k"): (1, "i"), ("j", "e"): (1, "j"),
    ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "e"), ("k", "e"): (1, "k"),
    ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"), ("e", "e"): (1, "e"),
}

LETTER = {"1": "i", "2": "j", "4": "k", "7": "e"}
DIGIT = {v: k for k, v in LETTER.items()}


def test_digit_code_roundtrip():
    for d in DIGITS:
        assert CODE_DIGIT[DIGIT_CODE[d]] == d
    for c in range(4):
        assert DIGIT_CODE[CODE_DIGIT[c]] == c


def test_letter_aliases():
    assert parse_word("ijke") == "1247"
    assert format_word("1247", letters=True) == "ijke"
    assert parse_word("1j4e") == "1247"
    assert parse_word("ijke", 4) == parse_word("1247", 4) == parse_word("i2k7") == "1247"
    assert parse_word("e" * MAX_ORDER, MAX_ORDER) == "7" * MAX_ORDER


def test_local_mul_matches_quaternion_table():
    for (lx, ly), (sign, lz) in QUAT_TABLE.items():
        assert local_mul(DIGIT[lx], DIGIT[ly]) == (sign, DIGIT[lz])


def test_lane_rule_matches_paper_rule_on_codes():
    # the reduced rule on Python ints, against the rule as the paper states it
    for cx, cy in product(range(4), repeat=2):
        sign, code = paper_rule(cx, cy)
        assert _lane_rule(cx, cy, 3, 1) == (code, int(sign < 0))


def test_local_mul_spot_values():
    assert local_mul("4", "2") == (-1, "1")  # k*j = -i
    assert local_mul("1", "1") == (-1, "7")  # i*i = -e
    for x in DIGITS:
        assert local_mul("7", x) == (1, x)
        assert local_mul(x, "7") == (1, x)


def test_local_mul_rejects_non_digits():
    with pytest.raises(ValueError):
        local_mul("3", "1")


def test_word_mul_example():
    assert word_mul(parse_word("iji"), parse_word("jek")) == SignedWord(-1, "422")
    sw = word_mul("121", "274")
    assert format_signed_word(sw, letters=True) == "-kjj"


def test_identity_word():
    assert identity_word(2) == "77"
    assert identity_word(1) == "7"
    with pytest.raises(ValueError):
        identity_word(0)
    for b in all_words(3):
        assert word_mul(identity_word(3), b) == SignedWord(1, b)
        assert word_mul(b, identity_word(3)) == SignedWord(1, b)


def test_square_law():
    # every word squares to +/- identity, sign by the non-7 digit count
    for n in (1, 2, 3):
        for b in all_words(n):
            assert word_mul(b, b) == SignedWord((-1) ** noncentral_count(b), "7" * n)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        word_mul("12", "124")


def test_unsigned_part_is_symmetric():
    for n in (1, 2, 3):
        for a in all_words(n):
            for b in all_words(n):
                assert word_mul(a, b).word == word_mul(b, a).word


def test_associativity_exhaustive_small():
    for n in (1, 2):
        words = list(all_words(n))
        for a, b, c in product(words, repeat=3):
            ab = word_mul(a, b)
            bc = word_mul(b, c)
            left = signed_word_mul(ab, SignedWord(1, c))
            right = signed_word_mul(SignedWord(1, a), bc)
            assert left == right


def test_associativity_randomized():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(3, 8)
        a, b, c = ("".join(rng.choice(DIGITS) for _ in range(n)) for _ in range(3))
        left = signed_word_mul(word_mul(a, b), SignedWord(1, c))
        right = signed_word_mul(SignedWord(1, a), word_mul(b, c))
        assert left == right


def test_group_closure_has_order_2_4n():
    for n in (1, 2, 3):
        elems = {SignedWord(1, w) for w in all_words(n)}
        while True:
            grown = elems | {signed_word_mul(u, v) for u in elems for v in elems}
            if grown == elems:
                break
            elems = grown
        assert len(elems) == 2 * 4**n


def test_signed_inverse():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        u = SignedWord(rng.choice((1, -1)), "".join(rng.choice(DIGITS) for _ in range(n)))
        assert signed_word_mul(u, signed_word_inverse(u)) == SignedWord(1, "7" * n)
        assert signed_word_mul(signed_word_inverse(u), u) == SignedWord(1, "7" * n)


def test_parse_word_errors():
    with pytest.raises(ValueError, match="^empty word$"):
        parse_word("")
    with pytest.raises(ValueError, match="^invalid word character '5' in '125'$"):
        parse_word("125")
    with pytest.raises(ValueError, match="^invalid word character 'x' in '1x'$"):
        parse_word("1x")
    with pytest.raises(ValueError, match="^expected a word of length 3, got '12'$"):
        parse_word("12", order=3)
    with pytest.raises(ValueError, match="^expected a word of length 3, got 'ij'$"):
        parse_word("ij", order=3)
    for text in ("1" * (MAX_ORDER + 1), "i" * (MAX_ORDER + 1)):
        for order in (None, MAX_ORDER + 1):
            with pytest.raises(ValueError, match=f"^word length {MAX_ORDER + 1} exceeds maximum order {MAX_ORDER}$"):
                parse_word(text, order)
    assert parse_word("1" * MAX_ORDER) == "1" * MAX_ORDER


def test_parse_word_matches_reference_oracle():
    # every string of length 0-3 over the digits, the letters and five bad characters
    alphabet = "1247ijke" + "x5 I\u00e9"
    for n in range(4):
        for chars in product(alphabet, repeat=n):
            text = "".join(chars)
            for order in (None, 1, 2, 3, 4):
                try:
                    want = reference_parse_word(text, order)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        parse_word(text, order)
                    assert str(got.value) == str(exc)
                else:
                    assert parse_word(text, order) == want


@pytest.mark.parametrize("text", [list("12"), None, 12, b"12"])
def test_parse_word_rejects_non_str(text):
    with pytest.raises(TypeError):
        parse_word(text)


def test_format_word_matches_reference_oracle():
    for n in range(1, 5):
        for w in all_words(n):
            for letters in (False, True):
                assert format_word(w, letters) == reference_format_word(w, letters)


def test_parse_signed_word():
    assert parse_signed_word("-kjj") == SignedWord(-1, "422")
    assert parse_signed_word("+12") == SignedWord(1, "12")
    assert parse_signed_word("42") == SignedWord(1, "42")
    assert format_signed_word(SignedWord(-1, "422")) == "-422"


def test_all_words_order_and_count():
    words = list(all_words(2))
    assert len(words) == 16
    assert words[0] == "11"
    # position 1 varies fastest
    assert words[1] == "21"
    assert words[4] == "12"
    assert len(set(words)) == 16
