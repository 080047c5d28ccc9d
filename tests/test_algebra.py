"""Exact element arithmetic, conjugation, parity, exponential, JSON."""

import ast
import copy
import functools
import inspect
import json
import math
import pickle
import random
import re
from fractions import Fraction
from itertools import chain

import pytest

from floretion import algebra, kernels
from floretion.algebra import (
    Element,
    element_from_json,
    element_to_dict,
    element_to_json,
    exp_truncated,
    format_element,
    sierpinski_support,
)
from floretion.centralizer import sigma_sums
from floretion.packed import pack_word, unpack_word
from floretion.render import render_tiling
from floretion.sequences import coeff_stream, find_recurrence
from floretion.symmetry import local_cycle
from floretion.words import all_words
from helpers import random_element, random_fraction, random_word, reference_mul

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
    with pytest.raises(ValueError, match="order mismatch: 2 vs 3"):
        Element(2, {"12": 1}) - Element(3, {"124": 1})
    with pytest.raises(ValueError):
        Element(2, {"12": 1}) * Element(3, {"123": 1})
    with pytest.raises(ValueError):
        Element(2, {"123": 1})


@pytest.mark.parametrize("order", [2.0, True, False, "2", None, 1.5])
def test_non_integer_orders_rejected(order):
    from floretion.packed import pack_words

    for build in (
        lambda: Element(order, {"12": 1}),
        lambda: pack_words(["12"], order),
        lambda: list(all_words(order)),
        lambda: sierpinski_support(order),
    ):
        with pytest.raises(ValueError, match=f"^order must be in 1..32, got {order}$"):
            build()


def test_numpy_integer_orders_accepted():
    import numpy as np

    x = Element(np.int64(2), {"12": 1})
    assert x * x == Element(2, {"77": 1})
    assert list(all_words(np.int64(1))) == ["1", "2", "4", "7"]


def test_numpy_integer_order_is_stored_as_int():
    import numpy as np

    x = Element(np.int64(2), {"12": 1})
    assert type(x.order) is int and type((x * x).order) is int and type((x * Element(2, {"44": 3})).order) is int
    assert element_from_json(element_to_json(x)) == x
    assert json.loads(element_to_json(x * x))["order"] == 2


def test_zero_coefficients_never_stored():
    x = Element(2, {"12": 0, "44": 1})
    assert "12" not in x.terms
    y = Element(2, {"12": 1}) + Element(2, {"12": -1})
    assert y.terms == {}


def test_letters_accepted_in_terms():
    assert Element(2, {"ij": 1}) == Element(2, {"12": 1})


def test_constructor_pairs_match_mapping():
    # "12", "ij" and "1j" spell one word; "44" and "kk" cancel; int, str and
    # Fraction coefficients
    pairs = [("12", 1), ("ij", F(1, 2)), ("44", 2), ("1j", "1/3"), ("kk", -2), ("77", "-5/7")]
    expect = {"12": F(11, 6), "77": F(-5, 7)}
    for terms in (pairs, dict(pairs), (p for p in pairs)):
        x = Element(2, terms)
        assert x.terms == expect
        assert all(type(q) is Fraction for q in x.terms.values())
    assert Element(2, [("12", 1), ("ij", F(-1, 2)), ("1j", "-1/2")]).terms == {}
    assert Element(2, [("12", 0), ("77", 0)]).terms == {}
    zero = Element.zero(2)
    for x in (Element(2), Element(2, {}), Element(2, None), Element(2, []), Element(2, iter(()))):
        assert x == zero and x.terms == {} and x.is_zero()
    with pytest.raises(ValueError):
        Element(2, [("12", 1), ("123", 1)])


def test_add_sub_match_term_builder():
    # sums and differences merge the canonical term maps; the constructor,
    # fed both operands' (negated) pairs, is the reference
    rng = random.Random(20261020)
    for n in (1, 2, 3, 4):
        dense = Element(n, {w: random_fraction(rng, -9, 9, _MIXED) for w in all_words(n)})
        for _ in range(10):
            x, y = random_element(rng, n, max_terms=12), random_element(rng, n, max_terms=12)
            for a, b in ((x, y), (x, x), (x, -x), (dense, x), (x, dense), (x, Element.zero(n)), (Element.zero(n), y)):
                total, diff = a + b, a - b
                assert total.terms == Element(n, chain(a.terms.items(), b.terms.items())).terms
                assert diff.terms == Element(n, chain(a.terms.items(), ((w, -q) for w, q in b.terms.items()))).terms
                assert all(type(q) is Fraction and q != 0 for q in chain(total.terms.values(), diff.terms.values()))
        assert (dense - dense).is_zero() and dense + dense == dense.scaled(2)


def test_scaled_and_relabeled_terms():
    rng = random.Random(9)
    for n in (1, 2, 3):
        x = random_element(rng, n)
        assert x.scaled(0).terms == {} and (0 * x).is_zero()
        y = x.scaled("2/3")
        assert y.terms == {w: F(2, 3) * q for w, q in x.terms.items()}
        assert all(type(q) is Fraction for q in y.terms.values())
        assert x.scaled(F(-1)) == -x
        # a map sending words together adds their coefficients
        total = sum(x.terms.values())
        assert x.map_basis(lambda w: "7" * n).terms == ({"7" * n: total} if total else {})


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


def _assert_mul_exact(x, y):
    z = x * y
    assert z == reference_mul(x, y)
    assert all(type(q) is Fraction and q != 0 for q in z.terms.values())
    # built by `algebra._fraction`, so reduced here rather than by the constructor
    assert all(
        type(q.numerator) is int and q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1
        for q in z.terms.values()
    )
    assert list(z.terms) == sorted(z.terms, key=pack_word)
    return z


def test_fraction_builder_matches_the_constructor():
    # the builder sets Fraction's two slots directly; a Python that changes
    # that layout fails here instead of building wrong values
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    rng = random.Random(2026)
    big = 2**200
    ps = [0, 1, -1, big, -big, big - 1, 1 - big] + [rng.randint(-big, big) for _ in range(40)]
    ps += [rng.randint(-99, 99) for _ in range(40)]
    qs = [1, 2, 3, 7, 2**61 - 1, 2**64, 2**200, 6 * 10**30] + [rng.randint(1, big) for _ in range(20)]
    for p in ps:
        for q in qs + [abs(p) or 1, 4 * (abs(p) or 1)]:
            r, ref = algebra._fraction(p, q), Fraction(p, q)
            assert type(r) is Fraction and type(r.numerator) is int and type(r.denominator) is int
            assert (r, hash(r), str(r), r.numerator, r.denominator) == (
                ref, hash(ref), str(ref), ref.numerator, ref.denominator
            )
    # the bulk builder takes the reduced pairs
    refs = [Fraction(p, q) for p in ps for q in qs]
    built = algebra._fractions([r.numerator for r in refs], [r.denominator for r in refs])
    assert all(type(r) is Fraction and type(r.numerator) is int and type(r.denominator) is int for r in built)
    assert [(r, hash(r), str(r)) for r in built] == [(r, hash(r), str(r)) for r in refs]
    assert algebra._fractions([], []) == []


#: Denominators with no common factor, so the common denominators differ per side.
_MIXED = (1, 2, 3, 5, 7, 9, 11)


def test_mul_matches_reference_sparse_and_dense():
    rng = random.Random(20261018)
    # order 7 is the largest summed into one slot per word, 8 and 32 sum by sorting
    for n in (1, 2, 3, 4, 5, 7, 8, 32):
        for _ in range(8):
            x = random_element(rng, n, max_terms=10)
            y = Element(n, {random_word(rng, n): random_fraction(rng, denominators=_MIXED) for _ in range(6)})
            single = Element(n, {random_word(rng, n): random_fraction(rng, 1, 9, _MIXED)})
            for a, b in ((x, y), (x, -x), (single, y), (Element.one(n), x), (Element.zero(n), x)):
                _assert_mul_exact(a, b)
                _assert_mul_exact(b, a)
        _assert_mul_exact(Element.zero(n), Element.zero(n))
    for n in range(1, 5):
        dense = Element(n, {w: random_fraction(rng, -9, 9, _MIXED) for w in all_words(n)})
        _assert_mul_exact(dense, dense)
        _assert_mul_exact(dense, -dense)
        _assert_mul_exact(random_element(rng, n, max_terms=5), dense)
    words5 = list(all_words(5))
    x = Element(5, {w: random_fraction(rng, -9, 9, _MIXED) for w in rng.sample(words5, 200)})
    y = Element(5, {w: random_fraction(rng, -9, 9, _MIXED) for w in rng.sample(words5, 150)})
    _assert_mul_exact(x, y)
    # an operand longer than one block of term pairs is split on both sides
    long = Element(8, {unpack_word(v, 8): random_fraction(rng, 1, 9) for v in rng.sample(range(4**8), 17_000)})
    short = random_element(rng, 8, max_terms=3)
    assert len(long.terms) > 2**14
    _assert_mul_exact(short, long)
    _assert_mul_exact(long, short)


def test_mul_full_cancellation():
    # the component sums of an involutive word annihilate each other
    plus, minus = sigma_sums("1212")
    assert reference_mul(plus, minus).is_zero()
    _assert_mul_exact(plus, minus)
    _assert_mul_exact(minus, plus)


def test_mul_exact_across_int64_limit():
    # int64 sums are used while max|num x| * max|num y| * min(|x|, |y|) < 2**62:
    # 15 terms of +-2**29 stay just below, 16 sit on the limit (Python ints)
    rng = random.Random(62)
    words = list(all_words(2))
    for k in (15, 16):
        for _ in range(6):
            x = Element(2, {w: rng.choice((-1, 1)) * 2**29 for w in rng.sample(words, k)})
            y = Element(2, {w: rng.choice((-1, 1)) * 2**29 for w in rng.sample(words, k)})
            _assert_mul_exact(x, y)
    top = Element(2, dict.fromkeys(words, 2**29))
    _assert_mul_exact(top, top)
    _assert_mul_exact(Element(2, dict.fromkeys(words[:15], 2**29)), top)
    # numerators near 2**40 over mixed denominators: products near 2**80
    for n in (2, 3, 5):
        for _ in range(4):
            x = Element(n, {random_word(rng, n): F(2**40 + rng.randint(-99, 99), rng.choice(_MIXED)) for _ in range(12)})
            y = Element(n, {random_word(rng, n): F(-(2**40) + rng.randint(-99, 99), rng.choice(_MIXED)) for _ in range(12)})
            _assert_mul_exact(x, y)
            _assert_mul_exact(x, x)


def test_mul_exact_over_denominators_past_int64(monkeypatch):
    # den = xden * yden >= 2**63 while the numerator sums fit int64: the sums
    # reduce in Python ints, on both paths; numerators near 2**40 make
    # object-dtype sums, over small and large denominators
    calls = _count_matrix_calls(monkeypatch)
    rng = random.Random(63)
    primes = (2**32 - 5, 2**32 + 15, 2**33 + 17)
    # 64 x 64 terms take the matrix path at orders 3 and 4, 256 x 256 at order 5
    for n, k in ((2, 16), (3, 64), (4, 64), (5, 256)):
        x = Element(n, {unpack_word(v, n): F(rng.randint(-9, 9) or 1, primes[0]) for v in rng.sample(range(4**n), k)})
        y = Element(n, {unpack_word(v, n): F(rng.randint(-9, 9) or 1, primes[1]) for v in rng.sample(range(4**n), k)})
        (_, _, xden, _), (_, _, yden, _) = algebra._numerators(x), algebra._numerators(y)
        assert xden * yden >= 2**63
        del calls[:]
        for a, b in ((x, y), (y, x), (x, x), (random_element(rng, n), y))[: 1 if n == 5 else 4]:
            _assert_mul_exact(a, b)
            _assert_built_on_use(a * b)
        assert bool(calls) == (n > 2)
        big = Element(n, {random_word(rng, n): F(2**40 + rng.randint(-99, 99), rng.choice(primes)) for _ in range(12)})
        for a, b in ((big, big), (big, x), (x, big)):
            _assert_mul_exact(a, b)
            _assert_built_on_use(a * b)


def test_result_words_come_from_the_word_table(monkeypatch):
    # up to order 7 the cached table of all words spells a product's terms;
    # above it `unpack_words` spells the nonzero keys
    from floretion import packed

    for n in range(1, 8):
        assert kernels._word_table(n) == packed.unpack_words(list(range(4**n)), n)
    real, calls = packed.unpack_words, []
    monkeypatch.setattr(packed, "unpack_words", lambda keys, n: calls.append(n) or real(keys, n))
    rng = random.Random(88)
    for n in (1, 4, 7, 8):
        x, y = random_element(rng, n, max_terms=20), random_element(rng, n, max_terms=20)
        _assert_mul_exact(x, y)
        assert calls == ([8] if n == 8 else [])


def test_mul_sparse_order_32():
    # a length-4**32 accumulator could not be allocated, so this pins sparse sums
    rng = random.Random(32)
    x = random_element(rng, 32, max_terms=40)
    y = random_element(rng, 32, max_terms=40)
    _assert_mul_exact(x, y)
    _assert_mul_exact(x, x)
    _assert_mul_exact(x, Element.one(32))


@pytest.mark.parametrize("n", [8, 9, 10, 12])
def test_sparse_sums_sort_each_pair_once(n, monkeypatch):
    # above order 7 raw blocks of pairs wait until they outnumber the running
    # sums, then one sort sums them all in: 128 x 1024 terms are 8 blocks and
    # several folds, in int64 and, with numerators near 2**40 and 2**20, in
    # Python ints; each pair is pending in exactly one fold
    real, folds = kernels._sum_by_key, []

    def spy(blocks):
        folds.append((sum(len(k) for k, _ in blocks[1:]), blocks[-1][1].dtype))
        return real(blocks)

    monkeypatch.setattr(kernels, "_sum_by_key", spy)
    rng = random.Random(n)

    def sample(k, coeff=lambda: rng.choice((-1, 1)) * random_fraction(rng, 1, 9, _MIXED)):
        return Element(n, {unpack_word(v, n): coeff() for v in rng.sample(range(4**n), k)})

    x, y = sample(128), sample(1024)
    big_x = sample(128, lambda: F(rng.choice((-1, 1)) * 2**40 + rng.randint(-99, 99), rng.choice(_MIXED)))
    big_y = sample(1024, lambda: F(rng.choice((-1, 1)) * 2**20 + rng.randint(-99, 99), rng.choice(_MIXED)))
    for a, b, dtype in ((x, y, "int64"), (big_x, big_y, "object")):
        del folds[:]
        _assert_built_on_use(_assert_mul_exact(a, b))
        assert len(folds) > 2 and {str(d) for _, d in folds} == {dtype}
        assert sum(k for k, _ in folds) == len(a.terms) * len(b.terms) == 8 * 2**14
    # e squares to 1, so a (1 + e) times (1 - e) b cancels to zero
    e = Element(n, {"12" + "7" * (n - 2): 1})
    assert e * e == Element.one(n)
    left, right = sample(16) * (Element.one(n) + e), (Element.one(n) - e) * sample(512)
    del folds[:]
    z = _assert_mul_exact(left, right)
    assert z.is_zero() and len(folds) > 1
    _assert_built_on_use(z)


def _matrix_mul(x, y):
    """x * y through the matrix path's numerator sums alone, whatever the
    dispatch rule of `Element.__mul__` would choose."""
    n = x.order
    (xs, xnum, xden, _), (ys, ynum, yden, _) = algebra._numerators(x), algebra._numerators(y)
    sums = kernels._matrix_sums(xs, xnum, ys, ynum, n)
    words = [unpack_word(v, n) for v in range(4**n)]
    return Element(n, zip(words, (Fraction(s, xden * yden) for s in sums.tolist())))


def test_matrix_path_matches_reference():
    rng = random.Random(20261019)
    for n in range(1, 7):
        # dense squares up to order 4; above, the oracle's per-pair loop is
        # too slow for them and the byte-identity test covers them
        x = Element(n, {w: random_fraction(rng, -9, 9, _MIXED) for w in all_words(n)}) if n <= 4 else random_element(rng, n, 40)
        y = random_element(rng, n, max_terms=30)
        single = Element(n, {random_word(rng, n): random_fraction(rng, 1, 9, _MIXED)})
        one, zero = Element.one(n), Element.zero(n)
        for a, b in ((x, x), (x, -x), (x, y), (y, x), (single, x), (x, single), (single, single), (one, x), (x, one), (zero, x), (x, zero)):
            assert _matrix_mul(a, b) == reference_mul(a, b)
        assert _matrix_mul(Element.zero(n), Element.zero(n)).is_zero()
    # the component sums of an involutive word annihilate each other
    for word in ("12", "127", "1212", "12127", "121212"):
        plus, minus = sigma_sums(word)
        assert _matrix_mul(plus, minus).is_zero() and _matrix_mul(minus, plus).is_zero()
    assert reference_mul(*sigma_sums("12127")).is_zero()


def test_matrix_path_refuses_inexact_sums(monkeypatch):
    # a decoded sum off a multiple of 2**m, or (odd order) a term outside the
    # words whose padded top lane is 7, raises instead of being rounded
    real = kernels._from_matrix
    for n, index, bump in ((4, -1, 1), (3, -1, 1), (3, 0, 2**4)):
        def corrupted(z, m, index=index, bump=bump):
            sums = real(z, m)
            sums[index] += bump
            return sums

        monkeypatch.setattr(kernels, "_from_matrix", corrupted)
        x = Element(n, {"1" * n: 1, "7" * n: 2})
        with pytest.raises(ArithmeticError):
            _matrix_mul(x, x)


def _count_matrix_calls(monkeypatch) -> list:
    calls = []
    real = kernels._matrix_sums
    monkeypatch.setattr(kernels, "_matrix_sums", lambda *args: calls.append(args[-1]) or real(*args))
    return calls


def test_matrix_path_float64_bound(monkeypatch):
    # the matrix path runs while 16**m * max|num x| * max|num y| < 2**53, from
    # 16 * 4**m term pairs: order 4 (m = 4, 64 x 64 terms) with 2**18 against
    # 2**19 - 1 is just below the bound, against 2**19 on it; likewise order 5
    # (m = 6, 256 x 256 terms) with 2**14 against 2**15 - 1 and 2**15
    calls = _count_matrix_calls(monkeypatch)
    rng = random.Random(53)
    for n, terms, top in ((4, 64, 18), (5, 256, 14)):
        words = list(all_words(n))
        x = Element(n, {w: rng.choice((-1, 1)) * 2**top for w in rng.sample(words, terms)})
        for ytop, matrix in ((2 ** (top + 1) - 1, True), (2 ** (top + 1), False)):
            y = Element(n, {w: rng.choice((-1, 1)) * ytop for w in rng.sample(words, terms)})
            del calls[:]
            _assert_mul_exact(x, y)
            assert calls == ([n] if matrix else [])
    # one term pair fewer than 16 * 4**m stays on the packed path, at order 4
    # and at order 3, padded to m = 4; at order 2, no matrix order, so does a
    # dense square of 16 * 4**2 pairs
    for n, xterms, yterms, matrix in ((4, 64, 63, False), (3, 64, 64, True), (3, 64, 63, False), (2, 16, 16, False)):
        words = list(all_words(n))
        x, y = Element(n, dict.fromkeys(words[:xterms], 1)), Element(n, dict.fromkeys(words[:yterms], 1))
        del calls[:]
        _assert_mul_exact(x, y)
        assert calls == ([n] if matrix else [])


def test_element_layer_holds_no_numpy():
    # `algebra` neither imports nor names numpy or `packed`; the kernels
    # import nothing from `algebra`
    def bound(module):
        tree = ast.parse(inspect.getsource(module))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {getattr(node, "module", None)} | {a.name for a in node.names} | {a.asname for a in node.names}
        return names

    assert not {"np", "numpy", "packed"} & (bound(algebra) | set(vars(algebra)))
    assert "algebra" not in bound(kernels)


def test_matrix_and_packed_paths_give_identical_json(monkeypatch):
    # products forced onto each path (the dispatch constants patched) give
    # byte-identical JSON at orders 1-10, near-bound numerators included
    calls = _count_matrix_calls(monkeypatch)
    rng = random.Random(1010)
    for n in range(1, 11):
        m = n + n % 2
        near = math.isqrt((2**53 - 1) // 16**m)  # near * near * 16**m < 2**53

        def sample(k, coeff):
            return Element(n, {unpack_word(v, n): coeff() for v in rng.sample(range(4**n), min(k, 4**n))})

        # numerators up to 4 * lcm(1, 2, 3, 4): within the bound at order 10 too
        x = sample(160, lambda: random_fraction(rng))
        y = sample(100, lambda: random_fraction(rng))
        big = sample(60, lambda: rng.choice((-1, 1)) * (near - rng.randrange(3)))
        cases = [(x, y), (x, x), (x, -x), (y, x), (sample(1, lambda: F(3, 7)), x), (Element.one(n), y), (big, big)]
        if n <= 6:
            cases.append(sigma_sums(("12" * n)[:n]))
        for a, b in cases:
            monkeypatch.setattr(kernels, "_MATRIX_ORDERS", range(2, 11, 2))
            monkeypatch.setattr(kernels, "_MATRIX_PAIRS_PER_ENTRY", 0)
            del calls[:]
            via_matrix = element_to_json(a * b)
            assert calls == [n]
            monkeypatch.setattr(kernels, "_MATRIX_ORDERS", ())
            assert element_to_json(a * b) == via_matrix


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


def test_pow_exponent_is_checked_as_an_order():
    # any integer with __index__, numpy's too; bools, floats and negatives are refused
    import numpy as np

    x = Element(2, {"12": 1, "77": F(1, 2)})
    assert x ** np.int64(3) == x**3 and x ** np.uint8(0) == Element.one(2)
    for m in (True, False, 3.0, np.float64(2.0), -1, np.int64(-2)):
        with pytest.raises(ValueError, match=f"^exponent must be a nonnegative integer, got {m}$"):
            x**m


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda k: coeff_stream(Element(2, {"12": 1, "77": F(1, 2)}), "12", k), "m_max must be >= 1"),
        (lambda k: find_recurrence([F(1)] * 12, k), "max_order must be >= 1"),
        (lambda k: exp_truncated(Element(2, {"12": 1}), k), "terms must be >= 1"),
        (lambda k: local_cycle("1247", None, k), "times must be an integer"),
        (render_tiling, r"render depth must be in 1\.\.8"),
    ],
    ids=["coeff_stream", "find_recurrence", "exp_truncated", "local_cycle", "render_tiling"],
)
def test_integer_parameters_are_checked_as_orders(call, message):
    # as for the exponent: numpy integers work, bools and floats get the ValueError
    import numpy as np

    assert call(np.int64(2)) == call(2)
    for v in (True, 2.5, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match=f"^{message}, got {v}$"):
            call(v)


@pytest.mark.parametrize(("m", "products"), [(0, 0), (1, 0), (2, 1), (4, 2), (5, 3)])
def test_pow_products(m, products, monkeypatch):
    # square and multiply from the lowest set bit, never multiplying by one
    calls = []
    real = algebra._numerators
    monkeypatch.setattr(algebra, "_numerators", lambda *args: calls.append(1) or real(*args))
    x = Element(2, {"12": 1, "77": F(1, 2)})
    assert x**m == functools.reduce(reference_mul, [x] * m, Element.one(2))
    assert len(calls) == 2 * products  # one call per operand


def _assert_cached_form(z):
    """z's cached packed form equals the form computed from its terms alone."""
    assert z._packed is not None
    keys, nums, den, top = z._packed
    fresh_keys, fresh_nums, fresh_den, fresh_top = algebra._numerators(Element._canonical(z.order, z.terms))
    assert keys.dtype == fresh_keys.dtype and keys.tolist() == fresh_keys.tolist()
    assert (nums, den, top) == (fresh_nums, fresh_den, fresh_top)
    assert type(top) is int and top == max(map(abs, nums), default=0)


def _assert_built_on_use(z):
    """A product leaves its packed form unset; `_numerators` builds it on
    first use, from the terms alone."""
    assert z._packed is None
    algebra._numerators(z)
    _assert_cached_form(z)


def test_packed_cache_equals_recomputation(monkeypatch):
    # `_numerators` alone builds the cached form, on an operand or on a
    # product's result when it is used, and it is what the terms give, on
    # both paths, int64 and object sums, cancelling products, squares and powers
    calls = _count_matrix_calls(monkeypatch)
    rng = random.Random(2016)
    for n in range(1, 7):

        def sample(k, coeff=lambda: rng.choice((-1, 1)) * random_fraction(rng, 1, 9, _MIXED)):
            return Element(n, {unpack_word(v, n): coeff() for v in rng.sample(range(4**n), min(k, 4**n))})

        dense, x, y = sample(4**n), sample(30), sample(20)
        big = sample(12, lambda: F(2**40 + rng.randint(-99, 99), rng.choice(_MIXED)))
        cases = [(x, y), (y, x), (big, x), (big, big), (dense, dense), (dense, x), (x, -x)]
        if n > 1:
            cases.append(sigma_sums(("12" * n)[: n - n % 2] + "7" * (n % 2)))
        del calls[:]
        for a, b in cases:
            z = a * b
            _assert_built_on_use(z)
            for e in (a, b):
                _assert_cached_form(e)
            assert z == Element(n, a.terms) * Element(n, b.terms)
        assert (cases[-1][0] * cases[-1][1]).is_zero() or n == 1
        assert bool(calls) == (n > 2)  # dense products take the matrix path from padded order 4
        fresh = Element(n, x.terms)
        square = fresh * fresh
        _assert_built_on_use(square)
        small = sample(5)
        for m in (3, 5):
            power = Element(n, small.terms) ** m
            _assert_built_on_use(power)
            assert power == functools.reduce(reference_mul, [small] * m)
        # the head kernel reads the form `_numerators` built on a product
        w = random_word(rng, n)
        assert coeff_stream(square, w, 6) == coeff_stream(Element(n, square.terms), w, 6)
        # every Element, products included, leaves the slot empty until `_numerators` runs
        built = (Element(n, x.terms), Element._canonical(n, x.terms), x + y, x - y, -x, x.scaled(F(2, 3)),
                 x.conjugate(), *x.parity_split(), Element.zero(n) * x, x * y, dense * x, small**3)
        assert all(e._packed is None for e in built)


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


def test_canonical_order_is_packed_order():
    # support() and the JSON terms ascend by packed value: every word up to
    # order 5, and seeded words at orders 12, 20 and 32
    rng = random.Random(1232)
    supports = [list(all_words(n)) for n in range(1, 6)]
    supports += [[random_word(rng, n) for _ in range(300)] for n in (12, 20, 32)]
    for words in supports:
        rng.shuffle(words)
        x = Element(len(words[0]), dict.fromkeys(words, 1))
        want = sorted(set(words), key=pack_word)
        assert x.support() == want
        assert [t["word"] for t in json.loads(element_to_json(x))["terms"]] == want


def test_json_accepts_letters():
    x = element_from_json('{"order": 2, "terms": [{"word": "ij", "coeff": "1/3"}]}')
    assert x == Element(2, {"12": F(1, 3)})


def test_json_repeated_terms_add_up():
    entries = [("12", "1/2"), ("ij", 1), ("44", "2"), ("kk", -2), ("12", "1/3")]
    text = json.dumps({"order": 2, "terms": [{"word": w, "coeff": c} for w, c in entries]})
    x = element_from_json(text)
    assert x.terms == {"12": F(11, 6)}
    assert element_to_json(x) == '{"order": 2, "terms": [{"word": "12", "coeff": "11/6"}]}'


#: Coefficient texts for the JSON reader: plain ones it reads through
#: `int`, and every other one, which goes through `Fraction` as before.
_COEFF_TEXTS = [
    "0", "-0", "007", "-12/18", "1/0", "0/0", "-0/5", "+3", " 3", "3 ", "1_000", "1.5", "1e3", "--3", "3/-4",
    "3/", "/3", "1/2/3", "", "-", "x", "\u0663", "1/\u0663", "9" * 4300, "9" * 5000, "-" + "9" * 5000 + "/7",
    "1/" + "9" * 5000, "9" * 5000 + "/0",
]


def test_json_coefficient_fast_path_matches_fraction(monkeypatch):
    # a coefficient read through `int` equals `Fraction(text)` in value, and
    # where `Fraction` raises, the reader's message is the one it gave before
    rng = random.Random(4300)
    texts = _COEFF_TEXTS + [str(random_fraction(rng, -10**30, 10**30, (1, 6, 10**20))) for _ in range(200)]
    texts += [f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}" for _ in range(200)]
    real, fast = algebra._fraction, []
    monkeypatch.setattr(algebra, "_fraction", lambda p, q: fast.append((p, q)) or real(p, q))
    plain = re.compile(r"-?[0-9]+(/[0-9]+)?")
    for coeff in texts + [7, -3, 1.5, True, None]:
        text = str(coeff)
        del fast[:]
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ValueError) as got:
                algebra._json_term({"word": "12", "coeff": coeff})
            assert str(got.value) == f"invalid coefficient {coeff!r}: {exc}"
            continue
        word, q = algebra._json_term({"word": "12", "coeff": coeff})
        assert word == "12" and type(q) is Fraction and type(q.numerator) is int
        assert (q, str(q), q.denominator) == (want, str(want), want.denominator)
        assert bool(fast) == bool(plain.fullmatch(text))


def test_json_writer_matches_json_dumps():
    # the directly formatted text is byte-identical to json.dumps of the dict form
    rng = random.Random(1606)
    for n in range(1, 7):
        dense = Element(n, {unpack_word(v, n): random_fraction(rng, -99, 99, _MIXED) for v in rng.sample(range(4**n), min(4**n, 300))})
        big = Element(n, {random_word(rng, n): F(rng.randint(-(2**90), 2**90), rng.randint(1, 2**70)) for _ in range(10)})
        for x in (dense, big, random_element(rng, n), Element.one(n), Element.zero(n), dense * big):
            assert element_to_json(x) == json.dumps(element_to_dict(x))
            assert element_from_json(element_to_json(x)) == x


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


def test_copy_deepcopy_and_pickle_round_trip():
    rng = random.Random(17)
    x = random_element(rng, 3, 8)
    y = x * x  # a product's result carries its packed form
    for z in (x, y, Element.zero(2), Element.one(4)):
        for clone in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert type(clone) is Element
            assert clone == z and clone.order == z.order and clone.terms == z.terms
            assert clone * Element.one(z.order) == z
            with pytest.raises(AttributeError, match="immutable"):
                clone.order = 1
            with pytest.raises(AttributeError, match="immutable"):
                clone.terms = {}
