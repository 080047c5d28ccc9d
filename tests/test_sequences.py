"""Coefficient streams, exact recurrence detection, packaged constructions."""

import io
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from floretion import packed
from floretion.algebra import Element
from floretion.sequences import (
    Recurrence,
    coeff_stream,
    fibonacci_elements,
    find_recurrence,
    padovan_elements,
    write_b_file,
)
from floretion.words import all_words, word_mul
from helpers import (
    _solve_exact,
    random_element,
    random_fraction,
    random_word,
    reference_extend,
    reference_recurrence,
    reference_stream,
)

F = Fraction


def test_coeff_stream_identity_element():
    e2 = Element.one(2)
    assert coeff_stream(e2, "77", 5) == [1, 1, 1, 1, 1]
    assert coeff_stream(e2, "12", 3) == [0, 0, 0]


def test_coeff_stream_validation():
    with pytest.raises(ValueError):
        coeff_stream(Element.one(2), "777", 3)
    with pytest.raises(ValueError):
        coeff_stream(Element.one(2), "77", 0)


def test_fibonacci_stream_and_cubic_relation():
    mixer, seed, z = fibonacci_elements(-1, 1, -1)
    assert seed == Element(2, {"71": -1, "72": 1, "74": -1})
    assert mixer.coeff("17") == F(1, 4) and len(mixer.terms) == 8
    assert z == mixer * seed
    stream = coeff_stream(z, "ij", 6)
    assert stream == [F(1, 2), F(1, 2), F(1), F(3, 2), F(5, 2), F(4)]
    assert (z**3).coeff("ij") == 1


def test_fibonacci_cubic_vanishes_for_random_parameters():
    rng = random.Random(71)
    for _ in range(15):
        a, b, c = (random_fraction(rng, -5, 5) for _ in range(3))
        _, _, z = fibonacci_elements(a, b, c)
        assert (z**3 + a * (z**2) + (b * c) * z).is_zero()


def test_padovan_relation_and_stream():
    mixer, seed, y = padovan_elements()
    assert mixer == Element(2, {"77": F(3, 4), "11": F(1, 4), "22": F(1, 4), "44": F(-1, 4)})
    assert y == mixer * seed
    assert y**4 == y**2 + y
    stream = coeff_stream(y, "ik", 11)
    assert [4 * q for q in stream] == [1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12]
    assert 4 * (y**5).coeff("ik") == 2


def test_find_recurrence_fibonacci():
    _, _, z = fibonacci_elements()
    rec = find_recurrence(coeff_stream(z, "12", 6), 2)
    assert rec is not None
    assert rec.order == 2
    assert rec.coeffs == (F(1), F(1))
    assert str(rec) == "a(m) = 1*a(m-1) + 1*a(m-2)"


def test_find_recurrence_padovan():
    _, _, y = padovan_elements()
    rec = find_recurrence(coeff_stream(y, "14", 11), 4)
    assert rec is not None
    assert rec.coeffs == (F(0), F(1), F(1))
    # minimality: no shorter recurrence fits
    assert find_recurrence(coeff_stream(y, "14", 11), 2) is None


def test_find_recurrence_constant_and_zero():
    assert find_recurrence([F(3)] * 8, 1).coeffs == (F(1),)
    zero = find_recurrence([F(0)] * 8, 2)
    assert zero is not None and zero.order == 1
    assert zero.holds_on([F(0)] * 8)
    # a lone nonzero term: order 3, all coefficients zero, as the oracle says
    sparse = [F(0), F(0), F(1), F(0), F(0), F(0), F(0), F(0)]
    assert find_recurrence(sparse, 3).coeffs == (F(0), F(0), F(0))
    assert find_recurrence(sparse, 2) is None
    # leading zeros before a geometric tail
    lead = [F(0), F(0)] + [F(2) ** m for m in range(8)]
    assert find_recurrence(lead, 3).coeffs == (F(2), F(0), F(0))
    # exactly 2 * max_order + 2 terms of an order-3 rule
    tri = Recurrence((F(1), F(-1), F(1, 2)))
    exact = [F(1), F(0), F(2)] + tri.extend([F(1), F(0), F(2)], 5)
    assert len(exact) == 2 * 3 + 2
    assert find_recurrence(exact, 3) == tri
    # a sequence no longer than the order holds vacuously
    assert tri.holds_on([F(5), F(7)]) and tri.holds_on([F(5), F(7), F(9)])


def test_find_recurrence_insufficient_terms():
    with pytest.raises(ValueError):
        find_recurrence([F(1)] * 9, 4)
    with pytest.raises(ValueError):
        find_recurrence([F(1)] * 8, 0)


def test_find_recurrence_none_when_no_short_rule():
    # factorial growth beats any fixed-order constant recurrence
    seq = [F(1)]
    for m in range(2, 14):
        seq.append(seq[-1] * m)
    assert find_recurrence(seq, 3) is None


def test_recurrence_soundness_against_generator():
    rng = random.Random(72)
    for _ in range(25):
        k = rng.randint(1, 4)
        coeffs = tuple(random_fraction(rng, -2, 2) for _ in range(k))
        seed = [random_fraction(rng, -3, 3) for _ in range(k)]
        gen = Recurrence(coeffs)
        seq = list(seed) + gen.extend(seed, 2 * 4 + 2)
        rec = find_recurrence(seq, 4)
        assert rec is not None
        assert rec.order <= k
        assert rec.holds_on(seq)
        # the detected rule continues the sequence identically
        assert rec.extend(seq, 50) == gen.extend(seq, 50)


def _oracle_cases(rng):
    """(sequence, max_order) pairs from seeded families: random rational
    recurrences of order 0-10, with and without one perturbed term; all-zero
    and sparse 0/1 sequences; coefficient streams of random order-2/3 elements
    at every admissible max_order."""
    for _ in range(1500):
        max_order = rng.randint(1, 8)
        k = rng.randint(0, 10)
        seed = [random_fraction(rng) for _ in range(k)]
        gen = Recurrence(tuple(random_fraction(rng, -2, 2) for _ in range(k)))
        total = 2 * max_order + 2 + rng.randint(0, 6)
        seq = (seed + gen.extend(seed, total))[:total]
        if rng.random() < 0.3:
            seq[rng.randrange(total)] += random_fraction(rng, 1, 3)
        yield seq, max_order
    for _ in range(300):
        max_order = rng.randint(1, 8)
        total = 2 * max_order + 2 + rng.randint(0, 4)
        p = rng.choice((0.0, 0.1, 0.3))
        yield [F(int(rng.random() < p)) for _ in range(total)], max_order
    for _ in range(30):
        x = random_element(rng, rng.choice((2, 3)))
        stream = reference_stream(x, random_word(rng, x.order), 18)
        for max_order in range(1, 9):
            yield stream, max_order


def test_find_recurrence_matches_reference_oracle():
    rng = random.Random(20261018)
    count = 0
    for seq, max_order in _oracle_cases(rng):
        assert find_recurrence(seq, max_order) == reference_recurrence(seq, max_order), (seq, max_order)
        count += 1
    assert count >= 2000


def _extend_cases(rng):
    """(recurrence, seed, count): rational coefficients and seeds of orders
    1-8 with some coefficients zero, integer rules with integer and with
    rational seeds, long integer-rule continuations, order 1, the empty rule,
    and rules whose terms' denominators grow without bound."""
    for _ in range(300):
        k = rng.randint(1, 8)
        coeffs = [random_fraction(rng, -3, 3, (1, 2, 3, 5, 7)) for _ in range(k)]
        if rng.random() < 0.5:
            coeffs[rng.randrange(k)] = F(0)
        seed = [random_fraction(rng, -9, 9, (1, 2, 4, 9)) for _ in range(rng.randint(k, k + 3))]
        yield Recurrence(tuple(coeffs)), seed, rng.randint(0, 40)
    for _ in range(40):  # integer rules and seeds
        k = rng.randint(1, 4)
        yield Recurrence(tuple(F(rng.randint(-3, 3)) for _ in range(k))), [F(rng.randint(-5, 5)) for _ in range(k)], 60
    for _ in range(40):  # order 1: geometric, including 0 and -1
        yield Recurrence((random_fraction(rng, -3, 3, (1, 2, 7)),)), [random_fraction(rng)], 50
    yield Recurrence((F(0), F(0))), [F(1, 2), F(3)], 5
    for _ in range(60):  # integer rules over seeds of mixed denominators
        k = rng.randint(1, 6)
        coeffs = [F(rng.randint(-3, 3)) for _ in range(k)]
        coeffs[rng.randrange(k)] = F(0)
        seed = [random_fraction(rng, -9, 9, (1, 2, 4, 9)) for _ in range(rng.randint(k, k + 3))]
        yield Recurrence(tuple(coeffs)), seed, rng.randint(0, 60)
    for _ in range(5):  # long integer-rule continuations from rational seeds
        k = rng.randint(2, 5)
        rec = Recurrence(tuple(F(rng.randint(-2, 2)) for _ in range(k)))
        yield rec, [random_fraction(rng, -5, 5, (1, 2, 4, 9)) for _ in range(k)], 300
    for n in range(4):  # the empty rule continues any seed with zeros
        yield Recurrence(()), [random_fraction(rng) for _ in range(n)], 7
    for _ in range(10):  # long streams with growing denominators
        rec = Recurrence((F(rng.choice((-3, 3)), 2), F(2, rng.choice((7, 9))), F(-1, 5)))
        yield rec, [random_fraction(rng, -5, 5, (1, 3, 5)) for _ in range(3)], 300


def test_recurrence_extend_matches_reference_extend():
    rng = random.Random(20261021)
    zeros = 0
    for rec, seed, count in _extend_cases(rng):
        out = rec.extend(seed, count)
        assert out == reference_extend(rec, seed, count), (rec, seed, count)
        # built by `algebra._fraction`: reduced with a positive denominator,
        # so a zero term reads 0/1
        assert all(
            type(v) is F and type(v.numerator) is int and v.denominator > 0
            and math.gcd(v.numerator, v.denominator) == 1
            for v in out
        )
        zeros += out.count(0)
    assert zeros > 0
    # long growing denominators really grew
    assert max(v.denominator for v in out).bit_length() > 500


def test_recurrence_extend_until_is_a_prefix_of_the_full_continuation():
    # an integer rule from a rational seed, and a rational rule
    cases = (
        (Recurrence((F(1), F(0), F(-2))), [F(1, 2), F(-4, 9), F(3, 4)]),
        (Recurrence((F(3, 2), F(2, 9), F(-1, 5))), [F(1, 3), F(-2), F(4, 5)]),
    )
    for rec, seed in cases:
        full = rec.extend(seed, 80)
        assert full == reference_extend(rec, seed, 80)
        for stop in (0, 1, 17, 79):
            target = full[stop]
            assert rec.extend(seed, 80, until=lambda t: t == target) == full[: full.index(target) + 1]
        assert rec.extend(seed, 80, until=lambda t: False) == full


def test_integer_elements_have_integer_rules():
    # Gauss's lemma: an element with integer coefficients acts by an integer
    # matrix, whose minimal polynomial is monic in Z[x]; so is every monic
    # factor of it, and the rule of each coefficient stream is one
    rng = random.Random(20261023)
    for n in (1, 2, 3):
        degree = 2**n
        head, m = 2 * degree + 2, 2 * degree + 2 + 40
        words = sorted(all_words(n))
        for trial in range(8):  # the first dense: every word
            size = len(words) if trial == 0 else rng.randint(1, 4)
            x = Element(n, {w: rng.choice((-1, 1)) * rng.randint(1, 3) for w in rng.sample(words, size)})
            for w in {*rng.sample(sorted(x.terms), min(3, size)), random_word(rng, n)}:
                rec = find_recurrence(coeff_stream(x, w, head), degree)
                assert rec is not None and all(c.denominator == 1 for c in rec.coeffs), (x, w, rec)
                assert coeff_stream(x, w, m) == reference_stream(x, w, m), (x, w)


def test_find_recurrence_edge_cases_match_reference():
    rng = random.Random(20261022)
    cases = [([F(0)] * 12, 4), ([F(0)] * 10, 1)]
    for lead in range(1, 6):  # leading zeros before rational recurrences
        k = rng.randint(1, 3)
        seed = [random_fraction(rng, 1, 4) for _ in range(k)]
        gen = Recurrence(tuple(random_fraction(rng, -2, 2, (1, 3)) for _ in range(k)))
        cases.append(([F(0)] * lead + seed + gen.extend(seed, 14), 4 + lead))
        cases.append(([F(0)] * lead + [F(1)] + [F(0)] * 9, 4))
    seq = [F(1)]  # factorial growth: no short rule
    for m in range(2, 16):
        seq.append(seq[-1] * random_fraction(rng, 1, 5, (1, 2)) * m)
    cases.append((seq, 4))
    _, _, z = fibonacci_elements(F(3, 2), F(-2, 3), F(1, 3))
    cases.append((coeff_stream(z, "ij", 300), 4))
    results = []
    for seq, max_order in cases:
        rec = find_recurrence(seq, max_order)
        assert rec == reference_recurrence(seq, max_order), (seq, max_order)
        results.append(rec)
    assert results[0] == Recurrence((F(0),)) and results[-2] is None
    assert results[-1] is not None and results[-1].order == 2


def test_recurrence_extend_and_holds_on():
    fib = Recurrence((F(1), F(1)))
    assert fib.extend([F(1), F(1)], 5) == [2, 3, 5, 8, 13]
    assert fib.holds_on([F(1), F(1), F(2), F(3), F(5)])
    assert not fib.holds_on([F(1), F(1), F(2), F(4)])
    with pytest.raises(ValueError):
        fib.extend([F(1)], 3)
    # `until` ends the continuation at its first match, the match included
    assert fib.extend([F(1), F(1)], 5, until=lambda t: t > 2) == [2, 3]
    assert fib.extend([F(1), F(1)], 5, until=lambda t: t > 100) == [2, 3, 5, 8, 13]


def test_coeff_stream_until_stops_at_the_first_match():
    # Padovan at order 2 has a 10-term head (2D + 2), then its continuation
    _, _, y = padovan_elements()
    full = coeff_stream(y, "ik", 60)
    for bound in (F(0), F(1, 4), F(1), F(100), F(10**6)):
        stop = next((i for i, t in enumerate(full) if t > bound), len(full) - 1)
        assert coeff_stream(y, "ik", 60, until=lambda t: t > bound) == full[: stop + 1]
    assert coeff_stream(y, "ik", 3, until=lambda t: False) == full[:3]


def test_order_two_streams_admit_order_four_recurrences():
    # finite-dimensionality bound in order two: every tracked stream of a
    # random element satisfies a recurrence of order <= 4
    rng = random.Random(73)
    words2 = ["".join(t) for t in product("1247", repeat=2)]
    for _ in range(5):
        x = Element(2, {w: random_fraction(rng, -3, 3, (1, 2)) for w in rng.sample(words2, 6)})
        for u in words2:
            assert find_recurrence(reference_stream(x, u, 20), 4) is not None


def test_padovan_recurrence_consistent_on_all_tracked_words():
    _, _, y = padovan_elements()
    words2 = ["".join(t) for t in product("1247", repeat=2)]
    for u in words2:
        stream = reference_stream(y, u, 20)
        rec = find_recurrence(stream[:12], 4)
        assert rec is not None and rec.order <= 3
        # detected rule reproduces the longer exact stream
        assert rec.extend(stream[:12], 8) == stream[12:]


def test_degree_bound_minimal_polynomial():
    # x**D lies in the span of 1, x, ..., x**(D-1) for D = 2**n: the bound
    # that lets coeff_stream continue a stream by its recurrence
    rng = random.Random(20261019)
    for n in (1, 2, 3):
        degree = 2**n
        words = list(all_words(n))
        for trial in range(12):
            if trial < 3:  # dense: every word, rational coefficients
                x = Element(n, {w: random_fraction(rng) for w in words})
            else:
                x = random_element(rng, n, max_terms=rng.randint(1, 8))
            powers = [Element.one(n)]
            for _ in range(degree):
                powers.append(powers[-1] * x)
            rows = [[p.coeff(w) for p in powers] for w in words]
            assert _solve_exact([r[:degree] for r in rows], [r[degree] for r in rows]) is not None, (n, x)
            if trial < 3:  # and the bound is reached: x**(D-1) is not in the lower span
                assert _solve_exact([r[: degree - 1] for r in rows], [r[degree - 1] for r in rows]) is None, (n, x)


def _stream_cases(rng):
    """(element, word) pairs: seeded random elements of orders 1-3 and a few
    of order 4, both presets on every word, seeded rational Fibonacci seeds,
    then edge cases of the span kernel `kernels.power_numerators`."""
    for n, count in ((1, 12), (2, 12), (3, 10), (4, 3)):
        for _ in range(count):
            x = random_element(rng, n, max_terms=rng.randint(1, 6))
            yield x, rng.choice(sorted(x.terms) or ["7" * n])
            yield x, random_word(rng, n)
    words2 = ["".join(t) for t in product("1247", repeat=2)]
    for x in (padovan_elements()[2], fibonacci_elements()[2]):
        for u in words2:
            yield x, u
    for _ in range(6):
        _, _, z = fibonacci_elements(*(random_fraction(rng, -4, 4, (1, 2, 3, 5)) for _ in range(3)))
        yield z, rng.choice(words2)
    # numerators near 2**12: max|a| * sum|num| passes 2**62 a few powers into
    # the 18-power head, so the head's sums move from int64 to Python ints
    words3 = sorted(all_words(3))
    x = Element(3, {w: F(rng.choice((-1, 1)) * rng.randint(2**12, 2**13), rng.choice((1, 3))) for w in rng.sample(words3, 4)})
    yield from ((x, w) for w in sorted(x.terms))
    # four numerators of 2**30 - 1 keep the second power's sums in int64,
    # 4 * (2**30 - 1)**2 < 2**62; four of 2**30 sit on the bound and switch
    for c in (2**30 - 1, 2**30):
        x = Element(3, {w: rng.choice((-1, 1)) * c for w in rng.sample(words3, 4)})
        yield from ((x, w) for w in sorted(x.terms))
    # supp(x) generates only words ending in 77, so 124 is outside the span
    x = Element(3, {"177": F(1, 2), "277": -3, "477": 2})
    yield from ((x, w) for w in ("124", "777", "477"))
    yield Element.zero(3), "777"
    x = Element(3, {"124": F(-2, 3)})
    yield from ((x, w) for w in ("124", "777", "421"))
    yield Element(3, {"777": F(5, 7)}), "777"


def test_coeff_stream_matches_reference_stream():
    # every stream length around the 2D + 2 powers, and long streams
    rng = random.Random(20261020)
    for x, word in _stream_cases(rng):
        head = 2 * 2**x.order + 2
        m_top = 200 if x.order < 4 else 60
        ref = reference_stream(x, word, m_top)
        for m in sorted({1, 2, head - 1, head, head + 1, head + 2, rng.randint(1, m_top), m_top}):
            assert coeff_stream(x, word, m) == ref[:m], (x, word, m)


def _calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or real(*args))
    return calls


def _span(x) -> set[str]:
    """The words supp(x) generates, closed under `word_mul`."""
    words, new = set(), {"7" * x.order}
    while new:
        words |= new
        new = {word_mul(u, v)[1] for u in new for v in x.terms} - words
    return words


def _spanning(rng, n: int, rank: int, size: int) -> list[str]:
    """`size` distinct order-n words spanning 2**rank words: `rank` random
    words, each outside the span of those before, then products of random
    subsets of them."""
    gens, span = [], {"7" * n}
    while len(gens) < rank:
        g = random_word(rng, n)
        if g not in span:
            gens.append(g)
            span |= {word_mul(u, g)[1] for u in span}
    words = set(gens)
    while len(words) < size:
        w = "7" * n
        for g in rng.sample(gens, rng.randint(2, rank)):
            w = word_mul(w, g)[1]
        words.add(w)
    return sorted(words)


def test_kernel_head_route(monkeypatch):
    # the kernel runs while |span| * |x| <= packed._BLOCK_PAIRS, else Element products
    rng = random.Random(20261021)
    products = _calls(monkeypatch, Element, "__mul__")

    def coeffs(words):
        return {w: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for w in words}

    u, v = "1247", "2471"
    cases = [  # (x, |span|, word, powers, kernel)
        *((Element(n, coeffs(rng.sample(sorted(all_words(n)), terms))), 4**n, "1" * n, 2 * 2**n + 2, kernel)
          for n, terms, kernel in ((3, 64, True), (4, 64, True), (4, 65, False), (4, 256, False))),
        # the identity word relabels to 0, which every span holds already
        (Element(3, coeffs(["777", "124", "412"])), 4, "124", 18, True),
        # the third word is the product of the first two, so it adds nothing to the span
        (Element(4, coeffs([u, v, word_mul(u, v)[1]])), 4, "7777", 34, True),
        # one term: its span is itself and the identity
        (Element(5, coeffs(["12471"])), 2, "77777", 66, True),
        # the word is outside the span, so every coefficient is 0
        (Element(6, coeffs(["177777", "217777", "777777"])), 4, "447777", 130, True),
    ]
    # either side of the bound at a span of 2**10 words: 15 * 2**10 and 17 * 2**10 pairs
    for n in (5, 12):
        for terms, kernel in ((15, True), (17, False)):
            words = _spanning(rng, n, 10, terms)
            cases.append((Element(n, coeffs(words)), 2**10, words[0], 6, kernel))
    for x, size, word, m, kernel in cases:
        span = _span(x)
        assert len(span) == size and (size * len(x.terms) <= packed._BLOCK_PAIRS) is kernel
        products.clear()
        stream = coeff_stream(x, word, m)
        assert (not products) is kernel, (x.order, len(x.terms), word)
        assert stream == reference_stream(x, word, m) and any(stream) is (word in span)


def test_padovan_stream_makes_no_element_product(monkeypatch):
    _, _, y = padovan_elements()
    products = _calls(monkeypatch, Element, "__mul__")
    batches = _calls(monkeypatch, packed, "packed_mul_many")
    assert coeff_stream(y, "14", 200)[:12] == [F(v, 4) for v in (1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16)]
    assert not products and len(batches) <= 2


def test_write_b_file():
    out = io.StringIO()
    write_b_file(out, [F(5), F(-3), F(0)], offset=1)
    assert out.getvalue() == "1 5\n2 -3\n3 0\n"
    out = io.StringIO()
    write_b_file(out, [F(2)], offset=10)
    assert out.getvalue() == "10 2\n"
    with pytest.raises(ValueError):
        write_b_file(io.StringIO(), [F(1, 2)])
