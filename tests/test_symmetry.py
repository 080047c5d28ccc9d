"""Digit permutations: dispatch on parity, axis symmetry, twisted
commutation, and cyclic orbits."""

import math
import random
import re
from fractions import Fraction

import pytest

from floretion.algebra import Element, exp_truncated, sierpinski_support
from floretion.geometry import centroid, elementary_vector
from floretion.symmetry import (
    ALL_PERMS,
    IDENTITY,
    ROTATE,
    ROTATE2,
    SWAP_12,
    SWAP_14,
    SWAP_24,
    Perm,
    apply_perm_element,
    apply_perm_word,
    axis_reflection,
    axis_words,
    cyclic_orbit_points,
    is_axis_symmetric,
    local_cycle,
    parse_perm,
    twisted_commute_check,
)
from floretion.words import SignedWord, all_words, signed_word_inverse, word_mul
from helpers import random_axis_symmetric, random_element


def test_perm_group_structure():
    assert len(set(ALL_PERMS)) == 6
    for p in ALL_PERMS:
        assert p * p.inverse() == IDENTITY
        for q in ALL_PERMS:
            r = p * q
            assert r in ALL_PERMS
            assert r.sign == p.sign * q.sign  # parity is a homomorphism
    assert ROTATE * ROTATE == ROTATE2
    assert ROTATE * ROTATE2 == IDENTITY


def test_perm_parities():
    assert IDENTITY.is_even and ROTATE.is_even and ROTATE2.is_even
    assert not (SWAP_12.is_even or SWAP_14.is_even or SWAP_24.is_even)


def test_perm_call_and_validation():
    assert ROTATE("1") == "2" and ROTATE("2") == "4" and ROTATE("4") == "1"
    assert ROTATE("7") == "7"
    with pytest.raises(ValueError):
        ROTATE("5")
    with pytest.raises(ValueError):
        Perm(("1", "1", "2"))


def test_parse_perm():
    assert parse_perm("rot") == ROTATE
    assert parse_perm("swap24") == SWAP_24
    assert parse_perm("241") == ROTATE
    assert parse_perm("124->241") == ROTATE
    assert parse_perm("identity") == IDENTITY
    with pytest.raises(ValueError):
        parse_perm("314->241")
    with pytest.raises(ValueError):
        parse_perm("bogus")


def test_apply_perm_word():
    assert apply_perm_word(SWAP_24, "124") == "142"
    assert apply_perm_word(ROTATE, "17") == "27"
    for pi in ALL_PERMS:
        assert apply_perm_word(pi, "777") == "777"


def test_apply_perm_word_matches_digitwise_action():
    for pi in ALL_PERMS:
        assert apply_perm_word(pi, "") == ""
        for n in range(1, 5):
            for w in all_words(n):
                assert apply_perm_word(pi, w) == "".join(pi(d) for d in w)


@pytest.mark.parametrize("digit", ["", "12", "24", "124", "77"])
def test_perm_call_rejects_non_digits(digit):
    # exactly one of 1, 2, 4 and 7: no substring of "124", no repeated 7
    for pi in ALL_PERMS:
        with pytest.raises(ValueError, match=f"^not a digit: {re.escape(repr(digit))}$"):
            pi(digit)


@pytest.mark.parametrize("word", ["3", "12x4", "1 2", "ijk", "12\u00e9", "7\u0661", "x247", "1247x", "1x7\u00e9"])
def test_apply_perm_word_rejects_non_digits(word):
    # the first bad character, wherever it is, in the message `Perm.__call__` raises on it
    bad = next(d for d in word if d not in "1247")
    for pi in ALL_PERMS:
        with pytest.raises(ValueError, match=f"^not a digit: {re.escape(repr(bad))}$") as got:
            apply_perm_word(pi, word)
        with pytest.raises(ValueError) as want:
            pi(bad)
        assert str(got.value) == str(want.value)


def test_apply_perm_element_is_linear():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 3)
        x, y = random_element(rng, n), random_element(rng, n)
        pi = rng.choice(ALL_PERMS)
        assert apply_perm_element(pi, x + y) == apply_perm_element(pi, x) + apply_perm_element(pi, y)


def test_apply_perm_element_matches_the_map_basis_route():
    # the relabelled terms equal the constructor's parse and sum of the
    # permuted words, term order included, for every permutation
    rng = random.Random(4106)
    for n in range(1, 7):
        for x in (random_element(rng, n, max_terms=40), sierpinski_support(n), Element.one(n), Element.zero(n)):
            for pi in ALL_PERMS:
                got = apply_perm_element(pi, x)
                want = x.map_basis(lambda w, pi=pi: apply_perm_word(pi, w))
                assert got == want and list(got.terms) == list(want.terms)
                assert got.order == n and got._packed is None


def test_even_perms_are_automorphisms():
    rng = random.Random(42)
    for pi in (IDENTITY, ROTATE, ROTATE2):
        for _ in range(20):
            n = rng.randint(1, 3)
            x, y = random_element(rng, n), random_element(rng, n)
            assert apply_perm_element(pi, x * y) == apply_perm_element(pi, x) * apply_perm_element(pi, y)


def test_odd_perms_are_antiautomorphisms():
    rng = random.Random(43)
    for pi in (SWAP_12, SWAP_14, SWAP_24):
        for _ in range(20):
            n = rng.randint(1, 3)
            x, y = random_element(rng, n), random_element(rng, n)
            assert apply_perm_element(pi, x * y) == apply_perm_element(pi, y) * apply_perm_element(pi, x)


def test_axis_symmetry_examples():
    for n in (1, 2, 3):
        s = sierpinski_support(n)
        e = Element.one(n)
        for axis in "124":
            assert is_axis_symmetric(s, axis)
            assert is_axis_symmetric(e, axis)
    # ij - ji flips under the reflection fixing 4 (it swaps 1 and 2)
    x = Element(2, {"12": 1, "21": -1})
    assert not is_axis_symmetric(x, "4")
    assert x + apply_perm_element(SWAP_12, x) == Element.zero(2)
    with pytest.raises(ValueError):
        is_axis_symmetric(x, "7")


def test_axis_reflection_lookup():
    assert axis_reflection("1") == SWAP_24
    assert axis_reflection("2") == SWAP_14
    assert axis_reflection("4") == SWAP_12


def test_same_axis_product_rule():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randint(1, 3)
        axis = rng.choice("124")
        tau = axis_reflection(axis)
        x = random_axis_symmetric(rng, n, axis)
        y = random_axis_symmetric(rng, n, axis)
        assert apply_perm_element(tau, x * y) == y * x


def test_different_axis_product_identity():
    # tau_a(XY) always equals gamma_ab(Y) X under the symmetry premises
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randint(1, 3)
        a, b = rng.choice("124"), rng.choice("124")
        tau_a, tau_b = axis_reflection(a), axis_reflection(b)
        x = random_axis_symmetric(rng, n, a)
        y = random_axis_symmetric(rng, n, b)
        gamma = tau_a * tau_b
        assert apply_perm_element(tau_a, x * y) == apply_perm_element(gamma, y) * x


def test_twisted_commute_check_equals_axis_symmetry_of_product():
    rng = random.Random(46)
    for _ in range(30):
        n = rng.randint(1, 3)
        a, b = rng.choice("124"), rng.choice("124")
        x = random_axis_symmetric(rng, n, a)
        y = random_axis_symmetric(rng, n, b)
        assert twisted_commute_check(x, y, a, b) == is_axis_symmetric(x * y, a)


def test_twisted_commute_same_axis_is_commutation():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = rng.choice("124")
        x = random_axis_symmetric(rng, n, a)
        y = random_axis_symmetric(rng, n, a)
        assert twisted_commute_check(x, y, a, a) == (x * y == y * x)


def test_twisted_commute_trivial_and_sierpinski_cases():
    e2 = Element.one(2)
    assert twisted_commute_check(e2, e2, "1", "2")
    rng = random.Random(48)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = rng.choice("124")
        x = random_axis_symmetric(rng, n, a)
        s = sierpinski_support(n)
        assert twisted_commute_check(x, s, a, a) == (x * s == s * x)


def test_twisted_commute_rejects_asymmetric_inputs():
    x = Element(2, {"12": 1})  # not symmetric about axis 1
    y = Element.one(2)
    with pytest.raises(ValueError):
        twisted_commute_check(x, y, "1", "1")
    with pytest.raises(ValueError):
        twisted_commute_check(y, x, "1", "1")


def test_powers_preserve_axis_symmetry():
    rng = random.Random(49)
    for _ in range(10):
        n = rng.randint(1, 3)
        axis = rng.choice("124")
        tau = axis_reflection(axis)
        x = random_axis_symmetric(rng, n, axis)
        p = Element.one(n)
        for m in range(1, 9):
            p = p * x
            assert apply_perm_element(tau, p) == p
            # coefficientwise pairing across the reflection
            for w, q in p.terms.items():
                assert p.coeff(apply_perm_word(tau, w)) == q


def test_exp_preserves_axis_symmetry():
    rng = random.Random(50)
    for _ in range(8):
        n = rng.randint(1, 2)
        axis = rng.choice("124")
        x = random_axis_symmetric(rng, n, axis).scaled(Fraction(1, 4))
        e = exp_truncated(x, 20)
        tau = axis_reflection(axis)
        assert apply_perm_element(tau, e) == e


def test_basis_unit_inverse_keeps_axis_symmetry():
    for n in (1, 2, 3):
        for axis in "124":
            tau = axis_reflection(axis)
            for w in axis_words(axis, n):
                assert apply_perm_word(tau, w) == w
                inv = signed_word_inverse(SignedWord(1, w))
                assert apply_perm_word(tau, inv.word) == inv.word
                prod = word_mul(w, inv.word)
                assert prod.sign * inv.sign == 1 and prod.word == "7" * n


def test_local_cycle():
    assert local_cycle("124") == "241"
    assert local_cycle("124", coords=[1]) == "224"
    assert local_cycle("124", coords=[1, 3], times=2) == "422"
    assert local_cycle("77") == "77"
    with pytest.raises(ValueError):
        local_cycle("124", coords=[4])
    with pytest.raises(ValueError):
        local_cycle("124", coords=[])


def test_cyclic_orbit_order_one():
    pts = cyclic_orbit_points("1", d1=0.5)
    expect = [elementary_vector(d).scaled(0.5) for d in "124"]
    for p, q in zip(pts, expect):
        assert p.dist(q) < 1e-15


def test_cyclic_orbit_equilateral_exhaustive_small():
    from floretion.words import all_words

    for n in (1, 2, 3, 4):
        for b in all_words(n):
            if b == "7" * n:
                continue
            p0, p1, p2 = cyclic_orbit_points(b)
            d01, d12, d20 = p0.dist(p1), p1.dist(p2), p2.dist(p0)
            assert abs(d01 - d12) <= 1e-12 and abs(d12 - d20) <= 1e-12
            assert d01 > 0


def test_cyclic_orbit_random_subsets():
    rng = random.Random(51)
    for _ in range(300):
        n = rng.randint(1, 6)
        b = "".join(rng.choice("1247") for _ in range(n))
        coords = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        if all(b[r - 1] == "7" for r in coords):
            with pytest.raises(ValueError):
                cyclic_orbit_points(b, coords)
            continue
        p0, p1, p2 = cyclic_orbit_points(b, coords)
        d01, d12, d20 = p0.dist(p1), p1.dist(p2), p2.dist(p0)
        assert abs(d01 - d12) <= 1e-12 and abs(d12 - d20) <= 1e-12


def test_cyclic_orbit_single_coordinate_side_length():
    # cycling one non-7 coordinate r walks a triangle of side d_r * sqrt(3)
    rng = random.Random(52)
    for _ in range(100):
        n = rng.randint(1, 6)
        b = "".join(rng.choice("1247") for _ in range(n))
        non7 = [r for r in range(1, n + 1) if b[r - 1] != "7"]
        if not non7:
            continue
        r = rng.choice(non7)
        p0, p1, _ = cyclic_orbit_points(b, [r], d1=0.5)
        side = (0.5 / 2 ** (r - 1)) * math.sqrt(3.0)
        assert abs(p0.dist(p1) - side) <= 1e-12


def test_cyclic_orbit_rejects_all_seven_selection():
    with pytest.raises(ValueError):
        cyclic_orbit_points("77")
    with pytest.raises(ValueError):
        cyclic_orbit_points("17", coords=[2])


def test_axis_words():
    ws = axis_words("1", 3)
    assert len(ws) == 8
    assert set(ws) == {a + b + c for a in "17" for b in "17" for c in "17"}
    with pytest.raises(ValueError):
        axis_words("7", 2)
    for n in (0, -2, 33):
        with pytest.raises(ValueError, match=f"^order must be in 1..32, got {n}$"):
            axis_words("1", n)


def test_orbit_matches_centroid_of_cycled_words():
    b = "1247"
    p0, p1, p2 = cyclic_orbit_points(b, d1=0.5)
    assert p0.dist(centroid(b)) == 0.0
    assert p1.dist(centroid(local_cycle(b))) == 0.0
    assert p2.dist(centroid(local_cycle(local_cycle(b)))) == 0.0
