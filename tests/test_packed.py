"""Packed lane encoding and the bit-parallel kernel against the digitwise
reference."""

import random

import numpy as np
import pytest

from floretion.packed import (
    lane_masks,
    pack_word,
    packed_identity,
    packed_mul_many,
    packed_mul_pairs,
    unpack_word,
    unpack_words,
)
from floretion.words import all_words, parse_word, word_mul


def test_pack_unpack_roundtrip_exhaustive():
    for n in (1, 2, 3):
        for i, w in enumerate(all_words(n)):
            assert pack_word(w) == i  # canonical order is ascending packed value
            assert unpack_word(i, n) == w


def test_pack_unpack_roundtrip_random_large():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(4, 32)
        v = rng.randint(0, 4**n - 1)
        assert pack_word(unpack_word(v, n)) == v


def test_unpack_words_matches_unpack_word():
    for n in (1, 2, 3, 4):
        assert unpack_words(np.arange(4**n, dtype=np.uint64), n) == list(all_words(n))
    rng = random.Random(12)
    for n in range(1, 33):
        vals = [rng.randint(0, 4**n - 1) for _ in range(50)] + [0, 4**n - 1]
        assert unpack_words(np.array(vals, dtype=np.uint64), n) == [unpack_word(v, n) for v in vals]
    assert unpack_words(np.array([], dtype=np.uint64), 5) == []


def test_unpack_words_rejects_stray_bits():
    for n in (1, 4, 31):
        with pytest.raises(ValueError, match=f"stray bits above lane {2 * n}"):
            unpack_words(np.array([0, 4**n], dtype=np.uint64), n)
    with pytest.raises(ValueError):
        unpack_words([-1], 3)


def test_packed_identity():
    assert unpack_word(packed_identity(5), 5) == "77777"


def test_packed_mul_example():
    n = 3
    s, p = packed_mul_many(pack_word(parse_word("iji")), pack_word(parse_word("jek")), n)
    assert s == -1
    assert unpack_word(int(p), n) == parse_word("kjj")


def test_packed_mul_identity():
    e = packed_identity(4)
    s, p = packed_mul_many(e, e, 4)
    assert (int(s), int(p)) == (1, e)


def test_packed_mul_matches_word_mul_exhaustive():
    # the kernel's sign formula is locked by this oracle, not by derivation
    for n in (1, 2, 3, 4):
        words = list(all_words(n))
        k = len(words)
        signs, prods = packed_mul_many(np.arange(k)[:, None], np.arange(k)[None, :], n)
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                ref = word_mul(a, b)
                assert signs[i, j] == ref.sign and unpack_word(int(prods[i, j]), n) == ref.word


def test_packed_mul_matches_word_mul_random_wide():
    rng = random.Random(99)
    for n in (5, 8, 13, 21, 32):
        xs = [rng.randint(0, 4**n - 1) for _ in range(500)]
        ys = [rng.randint(0, 4**n - 1) for _ in range(500)]
        signs, prods = packed_mul_many(xs, ys, n)
        for x, y, sign, packed in zip(xs, ys, signs.tolist(), prods.tolist()):
            ref = word_mul(unpack_word(x, n), unpack_word(y, n))
            assert sign == ref.sign and unpack_word(packed, n) == ref.word


def test_stray_bits_rejected():
    with pytest.raises(ValueError):
        packed_mul_many(1 << 6, 0, 3)
    with pytest.raises(ValueError):
        packed_mul_many(0, -1, 3)
    with pytest.raises(ValueError):  # one stray word in a batch rejects the batch
        packed_mul_many(np.arange(64, dtype=np.uint64), np.array([0, 1 << 6] * 32, dtype=np.uint64), 3)
    with pytest.raises(ValueError):
        unpack_word(1 << 4, 2)


def test_non_words_rejected_not_wrapped():
    # negative and float numpy input used to wrap or truncate to a valid word
    bad = [
        lambda: packed_mul_many(np.array([-1], dtype=np.int64), np.array([5], dtype=np.int64), 32),
        lambda: unpack_words(np.array([-2], dtype=np.int32), 32),
        lambda: unpack_words(np.array([2.7]), 3),
        lambda: packed_mul_many(np.array([2.7]), np.array([1.0]), 3),
        lambda: packed_mul_many(np.array([1, 2]), np.array([True, False]), 3),
        lambda: unpack_words([2**64], 32),
        lambda: unpack_words([1, -1], 3),
    ]
    for call in bad:
        with pytest.raises(ValueError, match="nonnegative integers below 2\\*\\*64"):
            call()
    # nonnegative signed input, Python ints across 2**63 and empty input still work
    signs, prods = packed_mul_many(np.array([3], dtype=np.int32), np.array([3], dtype=np.int64), 1)
    assert signs.tolist() == [1] and prods.tolist() == [3]
    assert unpack_words([5, 2**63], 32) == [unpack_word(5, 32), unpack_word(2**63, 32)]
    assert unpack_words(np.array([], dtype=np.uint64), 3) == [] == unpack_words([], 3)


def test_order_bounds():
    with pytest.raises(ValueError):
        lane_masks(0)
    with pytest.raises(ValueError):
        lane_masks(33)


def test_batch_kernel_matches_scalar():
    rng = random.Random(5)
    for n in (1, 2, 4, 7, 10, 12):
        xs = np.array([rng.randint(0, 4**n - 1) for _ in range(512)], dtype=np.uint64)
        ys = np.array([rng.randint(0, 4**n - 1) for _ in range(512)], dtype=np.uint64)
        signs, prods = packed_mul_many(xs, ys, n)
        for x, y, s, p in zip(xs.tolist(), ys.tolist(), signs.tolist(), prods.tolist()):
            assert (s, unpack_word(p, n)) == word_mul(unpack_word(x, n), unpack_word(y, n))


def test_plain_int_pairs_match_batch_kernel():
    # every pair up to n = 4, then seeded words up to n = 32
    for n in (1, 2, 3, 4):
        words = list(range(4**n))
        signs, prods = packed_mul_many(np.array(words)[:, None], np.array(words)[None, :], n)
        assert packed_mul_pairs(words, words, n) == list(zip(signs.ravel().tolist(), prods.ravel().tolist()))
    rng = random.Random(32)
    for n in (5, 9, 16, 32):
        xs = [rng.randint(0, 4**n - 1) for _ in range(40)]
        ys = [rng.randint(0, 4**n - 1) for _ in range(30)]
        signs, prods = packed_mul_many(np.array(xs, dtype=np.uint64)[:, None], np.array(ys, dtype=np.uint64)[None, :], n)
        assert packed_mul_pairs(xs, ys, n) == list(zip(signs.ravel().tolist(), prods.ravel().tolist()))
    assert packed_mul_pairs([], [1, 2], 2) == []


def test_plain_int_pairs_reject_stray_bits():
    with pytest.raises(ValueError):
        packed_mul_pairs([1 << 6], [0], 3)
    with pytest.raises(ValueError):
        packed_mul_pairs([0], [0, -1], 3)


def test_batch_kernel_broadcasts():
    n = 6
    xs = np.arange(100, dtype=np.uint64)
    signs, prods = packed_mul_many(xs, np.uint64(packed_identity(n)), n)
    assert (signs == 1).all()
    assert (prods == xs).all()
