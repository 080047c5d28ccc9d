"""Centralizer tile sets: counts, component split, vanishing products."""

import random
import tracemalloc

import pytest

from floretion import centralizer
from floretion.algebra import Element
from floretion.centralizer import (
    SCAN_MAX_ORDER,
    _square_sums,
    centralizer_counts,
    centralizer_tiles,
    check_vanishing,
    commutes,
    sigma_sums,
    signed_centralizer_order,
)
from floretion.packed import unpack_word
from floretion.words import (
    SignedWord,
    all_words,
    identity_word,
    noncentral_count,
    parse_word,
    signed_word_inverse,
    signed_word_mul,
    word_mul,
)
from helpers import random_word, reference_scan, reference_square_sums, reference_vanishing


def brute_force_tiles(b: str) -> tuple[list[str], list[str]]:
    """Direct double-loop oracle over the digitwise product."""
    plus, minus = [], []
    for c in all_words(len(b)):
        bc = word_mul(b, c)
        cb = word_mul(c, b)
        if bc == cb:
            (plus if bc.sign == 1 else minus).append(c)
    return plus, minus


def test_commutes_examples():
    for b in all_words(2):
        assert commutes(b, "77")
    assert not commutes("1", "2")  # ij = k but ji = -k
    assert commutes(parse_word("ii"), parse_word("jk"))
    with pytest.raises(ValueError):
        commutes("1", "11")


def test_commutes_means_equal_else_negated():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 5)
        b = "".join(rng.choice("1247") for _ in range(n))
        c = "".join(rng.choice("1247") for _ in range(n))
        bc, cb = word_mul(b, c), word_mul(c, b)
        assert bc.word == cb.word  # unsigned parts always agree
        if commutes(b, c):
            assert bc == cb
        else:
            assert bc.sign == -cb.sign


def test_tiles_of_ii():
    t = centralizer_tiles(parse_word("ii"))
    assert set(t.plus) == {"11", "22", "44", "77"}
    assert set(t.minus) == {"17", "24", "42", "71"}
    assert t.total == 8


def test_tiles_of_identity():
    for n in (1, 2, 3):
        t = centralizer_tiles(identity_word(n))
        assert len(t.plus) == 4**n
        assert t.minus == ()


def random_words(seed: int, orders, per_order: int) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice("1247") for _ in range(n)) for n in orders for _ in range(per_order)]


def test_tiles_match_brute_force():
    # transfer over positions vs the direct digitwise oracle, canonical order included
    words = [b for n in (1, 2, 3, 4) for b in all_words(n)] + random_words(63, (5, 6, 7), 3)
    for b in words:
        plus, minus = brute_force_tiles(b)
        t = centralizer_tiles(b)
        assert list(t.plus) == plus
        assert list(t.minus) == minus


def test_scan_texts_match_reference_scan():
    # one text per state, each word followed by a space, split into the
    # canonical lists that the list-based transfer builds
    words = [b for n in (1, 2, 3, 4) for b in all_words(n)]
    words += random_words(66, (5, 6, 7, 8), 3) + [identity_word(n) for n in (5, 6, 7, 8)]
    for b in words:
        plus, minus = reference_scan(b)
        assert centralizer._scan_masks(b) == ("".join(w + " " for w in plus), "".join(w + " " for w in minus))
        t = centralizer_tiles(b)
        assert (t.plus, t.minus) == (tuple(plus), tuple(minus))


def test_sorted_listing_in_either_spelling():
    # digits rank 1 < 2 < 4 < 7 and letters e < i < j < k, so 7 leads in letters
    assert centralizer._sorted_listing("77") == (" 11 12 14 17 21 22 24 27 41 42 44 47 71 72 74 77", "")
    assert centralizer._sorted_listing("11", letters=True) == (" ee ii jj kk", " ei ie jk kj")
    with pytest.raises(ValueError, match=f"order <= {SCAN_MAX_ORDER}; got {SCAN_MAX_ORDER + 1}"):
        centralizer._sorted_listing("1" * (SCAN_MAX_ORDER + 1))


def test_tiles_canonical_order_and_membership():
    t = centralizer_tiles("124")
    from floretion.packed import pack_word

    assert list(t.plus) == sorted(t.plus, key=pack_word)
    assert list(t.minus) == sorted(t.minus, key=pack_word)
    assert identity_word(3) in t.plus
    assert "124" in (t.plus + t.minus)


def test_one_half_law():
    for n in (1, 2, 3):
        for b in all_words(n):
            if b == identity_word(n):
                continue
            t = centralizer_tiles(b)
            assert t.total == 4**n // 2


def test_counts_match_tiles():
    # every word up to n = 3: counts and listings share one transfer loop,
    # last-position filter included
    words = [w for n in (1, 2, 3) for w in all_words(n)]
    words += ["1711"] + random_words(64, range(1, 10), 2) + [identity_word(n) for n in (5, 9)]
    for b in words:
        t = centralizer_tiles(b)
        assert centralizer_counts(b) == (len(t.plus), len(t.minus))


def test_signed_centralizer_order():
    assert signed_centralizer_order("11") == 16
    assert signed_centralizer_order("1") == 4  # {+-i, +-e}
    rng = random.Random(62)
    for _ in range(5):
        b = "".join(rng.choice("1247") for _ in range(3))
        if b == "777":
            continue
        assert signed_centralizer_order(b) == 64
    with pytest.raises(ValueError):
        signed_centralizer_order("77")


def test_scan_order_cap():
    """Listings stop at SCAN_MAX_ORDER; counts answer at any order.

    The identity word commutes with every word, all with sign +1.  For any
    other word b, pick a position where b is not 7.  There the four digits
    form two pairs, {b's digit, 7} commuting with b's digit and the other two
    anticommuting, and swapping c's digit within its pair keeps commutation
    and flips the product sign.  So plus and minus pair up, 4**(n-1) each.
    """
    with pytest.raises(ValueError):
        centralizer_tiles("1" * (SCAN_MAX_ORDER + 1))
    for n in (SCAN_MAX_ORDER + 1, 32):
        assert centralizer_counts(identity_word(n)) == (4**n, 0)
        for b in random_words(n, (n,), 3) + ["1" + "7" * (n - 1), "7" * (n - 1) + "4"]:
            if b != identity_word(n):
                assert centralizer_counts(b) == (4 ** (n - 1), 4 ** (n - 1))
    (b,) = random_words(65, (32,), 1)
    assert signed_centralizer_order(b) == 4**32


def test_sigma_sums_example():
    plus, minus = sigma_sums(parse_word("ii"))
    assert plus == Element(2, {"11": 1, "22": 1, "44": 1, "77": 1})
    assert minus == Element(2, {"17": 1, "24": 1, "42": 1, "71": 1})
    assert (minus * plus).is_zero()
    assert (plus * minus).is_zero()


def test_sigma_sums_identity_word():
    plus, minus = sigma_sums("77")
    assert len(plus.terms) == 16
    assert minus.is_zero()


def test_vanishing_exhaustive():
    for n in (1, 2, 3):
        for b in all_words(n):
            if noncentral_count(b) % 2:
                with pytest.raises(ValueError):
                    check_vanishing(b)
            else:
                assert check_vanishing(b)


def test_vanishing_orders_5_and_6():
    rng = random.Random(56)
    for n in (5, 6):
        checked = 0
        while checked < 3:
            b = random_word(rng, n)
            if noncentral_count(b) % 2 == 0 and b != identity_word(n):
                assert check_vanishing(b)
                checked += 1


def test_vanishing_order_8():
    # the closed form: no tile listing and no product, 4**7 tiles per sum
    rng = random.Random(88)
    checked = 0
    while checked < 2:
        b = random_word(rng, 8)
        if noncentral_count(b) % 2 == 0 and b != identity_word(8):
            assert check_vanishing(b)
            checked += 1


def _traced_peak(f):
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_component_product_memory_is_bounded():
    # Each product runs twice: as is on the matrix path, and with one side
    # scaled by 2**30, past its float64 bound, on the packed path.
    # 1024 x 1024 term pairs; one unblocked outer product peaks near 40 MB
    plus, minus = sigma_sums("121277")
    assert len(plus.terms) * len(minus.terms) == 2**20
    for left in (plus, plus.scaled(2**30)):
        z, peak = _traced_peak(lambda: left * minus)
        assert z.is_zero()
        assert peak < 16 * 2**20
    # 4M pairs in 256 blocks of 4096 distinct words each: kept apart until
    # the end instead of folded into the running sums, they peak near 50 MB
    every = Element(6, dict.fromkeys(all_words(6), 1))
    for left in (plus, plus.scaled(2**30)):
        _, peak = _traced_peak(lambda: left * every)
        assert peak < 16 * 2**20


def test_sparse_product_memory_is_bounded_above_order_7():
    # 2048 x 2048 order-8 terms, one side scaled by 2**30, past the float64
    # bound, on the packed path: 4M pairs into at most 4**8 words.  Pending
    # blocks fold into the running sums once they outnumber them; one sort
    # over every pair would hold 64 MB of keys and values alone
    rng = random.Random(8)
    x, y = (Element(8, {unpack_word(v, 8): rng.choice((-1, 1)) for v in rng.sample(range(4**8), 2048)}) for _ in "xy")
    big = x.scaled(2**30)
    z, peak = _traced_peak(lambda: big * y)
    assert peak < 32 * 2**20
    assert z == (x * y).scaled(2**30)  # x * y takes the matrix path


def test_sigma_eigen_relations():
    # when b squares to the identity, right/left action of b on each
    # component sum is multiplication by the component's sign
    for n in (1, 2, 3):
        for b in all_words(n):
            if noncentral_count(b) % 2:
                continue
            be = Element(n, {b: 1})
            plus, minus = sigma_sums(b)
            for sig, eps in ((plus, 1), (minus, -1)):
                if sig.is_zero():
                    continue
                assert sig * be == eps * sig
                assert be * sig == eps * sig


def test_conjugacy_orbit_is_pair():
    # conjugating a non-identity word sweeps exactly {b, -b}
    for n in (1, 2, 3):
        en = identity_word(n)
        for b in all_words(n):
            sb = SignedWord(1, b)
            orbit = set()
            for g in all_words(n):
                sg = SignedWord(1, g)
                conj = signed_word_mul(signed_word_mul(sg, sb), signed_word_inverse(sg))
                orbit.add(conj)
            if b == en:
                assert orbit == {sb}
            else:
                assert orbit == {SignedWord(1, b), SignedWord(-1, b)}


def _vanishing_outcome(word):
    """(bool, None) or (None, ValueError text) of `check_vanishing` on one
    word, asserted equal to the oracle's."""
    outs = []
    for fn in (check_vanishing, reference_vanishing):
        try:
            outs.append((fn(word), None))
        except ValueError as e:
            outs.append((None, str(e)))
    assert outs[0] == outs[1], word
    assert outs[0][0] is None or type(outs[0][0]) is bool
    return outs[0]


def test_vanishing_matches_reference_oracle():
    # every word of orders 1-5, then seeded words at orders 6-10: the same
    # bool, or the same ValueError text for a word squaring to minus the identity
    outcomes = [_vanishing_outcome(b) for n in range(1, 6) for b in all_words(n)]
    rng = random.Random(610)
    outcomes += [_vanishing_outcome(random_word(rng, n)) for n in range(6, 11) for _ in range(5)]
    assert {o for o, _ in outcomes} == {True, None}
    # letter spelling is parsed before the check
    assert _vanishing_outcome("ijij") == (True, None)
    # above order 10 the oracle runs only its rejection, which comes before any product
    for n in range(11, 33):
        assert _vanishing_outcome("1" + "7" * (n - 1))[0] is None


def test_square_sums_match_exact_products():
    # sum of squared coefficients of plus*plus, plus*minus, minus*plus and
    # minus*minus: every word up to order 4, seeded words at orders 5 and 6
    rng = random.Random(56)
    words = [b for n in range(1, 5) for b in all_words(n)] + [random_word(rng, n) for n in (5, 5, 5, 6, 6)]
    words += [identity_word(5), identity_word(6)]
    nonzero = 0
    for b in words:
        sums = _square_sums(b)
        assert sums == reference_square_sums(b), b
        nonzero += sum(1 for s in sums if s)
    # the zero test discriminates: most products are nonzero
    assert nonzero > len(words)


def test_square_sums_raise_on_inexact_tables(monkeypatch):
    monkeypatch.setattr(centralizer, "_gram", lambda b: [1] + [0] * 255)
    with pytest.raises(ArithmeticError, match="inexact square sums at order 2"):
        _square_sums("12")

