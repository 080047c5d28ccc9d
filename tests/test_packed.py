"""Packed lane encoding and the bit-parallel kernel against the digitwise
reference."""

import random
import tracemalloc

import numpy as np
import pytest

import floretion
from floretion import packed as packed_module
from floretion.packed import (
    _BLOCK_PAIRS,
    lane_masks,
    pack_word,
    pack_words,
    packed_identity,
    packed_mul_many,
    unpack_word,
    unpack_words,
)
from floretion.words import _lane_rule, all_words, parse_word, word_mul
from helpers import paper_rule


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


def test_pack_words_matches_pack_word_exhaustive():
    for n in range(1, 6):
        words = list(all_words(n))
        packed = pack_words(words, n)
        assert packed.dtype == np.uint64
        assert packed.tolist() == [pack_word(w) for w in words]
        assert pack_words(words[::-1], n).tolist() == [pack_word(w) for w in words[::-1]]
    rng = random.Random(13)
    for n in range(6, 33):
        words = ["".join(rng.choice("1247") for _ in range(n)) for _ in range(20)]
        assert pack_words(words, n).tolist() == [pack_word(w) for w in words]
    assert pack_words([], 3).tolist() == []


def test_pack_words_memory_is_bounded():
    # 262,144 order-10 words, the size of an order-10 sigma_sums component;
    # the joined text and its encoded copy (n bytes per word each) set the
    # peak, about 2.5 times the 8-byte-per-word result; an (N, n) uint64
    # lane table would take 10 times the result
    words = unpack_words(np.arange(0, 4**10, 4, dtype=np.uint64), 10)
    tracemalloc.start()
    try:
        packed = pack_words(words, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed.tolist() == list(range(0, 4**10, 4))
    assert peak < 3 * packed.nbytes


def test_pack_words_rejects_bad_words():
    for bad in ("12x", "3", "1é", "1 ", "i2"):
        with pytest.raises(ValueError) as single:
            pack_word(bad)
        words = ["1" * len(bad), bad]
        with pytest.raises(ValueError) as batch:
            pack_words(words, len(bad))
        assert str(batch.value) == str(single.value)
    # lengths that add up to n * count still name the misfit word
    with pytest.raises(ValueError, match="'1' is not of order 2"):
        pack_words(["1", "222"], 2)
    with pytest.raises(ValueError, match="order 3"):
        pack_words(["12"], 3)
    with pytest.raises(ValueError):
        pack_words(["1"], 0)


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


def test_python_floats_rejected_not_truncated():
    # floats outside numpy arrays used to truncate: [2.7] unpacked as '411'
    bad = [
        lambda: unpack_words([2.7], 3),
        lambda: unpack_words([1, 2.0], 3),
        lambda: unpack_words([[1], [2.5]], 3),
        lambda: packed_mul_many(2.7, 1.0, 3),
        lambda: packed_mul_many(5, 1.0, 3),
        lambda: packed_mul_many([1, 2], [3, 0.5], 3),
        lambda: unpack_words([np.int64(-1)], 32),
        # the plain-int path rejects floats and negatives with the same message
        lambda: unpack_word(2.7, 3),
        lambda: unpack_word(-1, 3),
    ]
    for call in bad:
        with pytest.raises(ValueError, match="nonnegative integers below 2\\*\\*64"):
            call()
    # bool is an int; Python ints across 2**63 and numpy ints still work
    signs, prods = packed_mul_many(True, [5, 2**63 >> 58], 3)
    assert prods.tolist() == packed_mul_many(np.array(1), np.array([5, 32]), 3)[1].tolist()
    assert signs.tolist() == packed_mul_many(1, [5, 32], 3)[0].tolist()
    assert unpack_words([5, 2**63, np.uint64(7)], 32) == [unpack_word(w, 32) for w in (5, 2**63, 7)]


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


def test_batch_kernel_broadcasts():
    n = 6
    xs = np.arange(100, dtype=np.uint64)
    signs, prods = packed_mul_many(xs, np.uint64(packed_identity(n)), n)
    assert (signs == 1).all()
    assert (prods == xs).all()


def _word_mul_table(n):
    """(signs, products) of word_mul over all order-n word pairs, indexed by packed words."""
    words = list(all_words(n))
    refs = [word_mul(a, b) for a in words for b in words]
    signs = np.array([r.sign for r in refs], dtype=np.int8).reshape(len(words), -1)
    prods = np.array([pack_word(r.word) for r in refs], dtype=np.uint64).reshape(len(words), -1)
    return signs, prods


def _check_against_table(xs, ys, n, table):
    signs, prods = packed_mul_many(xs, ys, n)
    shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
    assert signs.dtype == np.int8 and prods.dtype == np.uint64
    assert signs.shape == prods.shape == shape
    bx, by = np.broadcast_arrays(np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp))
    assert (signs == table[0][bx, by]).all() and (prods == table[1][bx, by]).all()


@pytest.mark.parametrize("pairs", [_BLOCK_PAIRS - 1, _BLOCK_PAIRS, _BLOCK_PAIRS + 1, 3 * _BLOCK_PAIRS + 5])
def test_blocked_kernel_matches_word_mul_at_block_boundaries(pairs):
    n = 3
    table = _word_mul_table(n)
    rng = np.random.default_rng(pairs)
    xs, ys = rng.integers(0, 4**n, pairs, dtype=np.uint64), rng.integers(0, 4**n, pairs, dtype=np.uint64)
    _check_against_table(xs, ys, n, table)  # 1-D
    _check_against_table(xs, np.uint64(37), n, table)  # (k,) x 0-d
    _check_against_table(37, ys, n, table)  # 0-d x (k,)
    _check_against_table(xs[None, :], ys, n, table)  # (1, k) x (k,): one row, one block
    # (k, 1) x (1, k'), (k, 1) x (k',) and (2, k, 1) x (1, k'), with k * k' near the pair count
    k = int(pairs**0.5)
    cols = pairs // k
    _check_against_table(xs[:k, None], ys[None, :cols], n, table)
    _check_against_table(xs[:k, None], ys[:cols], n, table)
    _check_against_table(xs[: 2 * k].reshape(2, k, 1), ys[None, :cols], n, table)


@pytest.mark.parametrize("n", [1, 12, 32])
def test_lane_rule_matches_paper_rule_lane_by_lane(n):
    # at order 32, x >> 1 moves bit 63 into the top lane's low bit
    full, lo = lane_masks(n)
    rng = np.random.default_rng(n)
    edges = np.array([[0, full, full, 0], [full, 0, full, 0]], dtype=np.uint64)
    xs, ys = np.concatenate([rng.integers(0, 4**n, (2, 5000), dtype=np.uint64), edges], axis=1)
    prods, minus = _lane_rule(xs, ys, np.uint64(full), np.uint64(lo), np.uint64(1))
    codes = [paper_rule(cx, cy) for cx in range(4) for cy in range(4)]
    sign_table = np.array([s for s, _ in codes]).reshape(4, 4)
    code_table = np.array([c for _, c in codes], dtype=np.uint64).reshape(4, 4)
    assert not (prods & ~np.uint64(full)).any() and not (minus & ~np.uint64(lo)).any()
    for r in range(n):
        shift = np.uint64(2 * r)
        cx, cy = ((xs >> shift) & np.uint64(3)).astype(np.intp), ((ys >> shift) & np.uint64(3)).astype(np.intp)
        assert ((prods >> shift) & np.uint64(3) == code_table[cx, cy]).all()
        assert ((minus >> shift) & np.uint64(1) == (sign_table[cx, cy] < 0)).all()
    # Python ints give the same lanes
    for x, y, p, m in zip(xs[-20:].tolist(), ys[-20:].tolist(), prods[-20:].tolist(), minus[-20:].tolist()):
        assert _lane_rule(x, y, full, lo) == (p, m)


def test_blocked_kernel_matches_word_mul_at_order_12():
    _check_blocked_against_word_mul(12)


def test_blocked_kernel_matches_word_mul_at_order_32():
    _check_blocked_against_word_mul(32)


def _check_blocked_against_word_mul(n):
    """1-D, (k, 1) x (1, k') and 1-D x 0-d calls of more than one block, against
    `word_mul` on every pair of the last block and a sample of the others."""
    rng = np.random.default_rng(n)
    pairs = 3 * _BLOCK_PAIRS + 5
    xs, ys = rng.integers(0, 4**n, pairs, dtype=np.uint64), rng.integers(0, 4**n, pairs, dtype=np.uint64)
    for x, y in ((xs, ys), (xs[:200, None], ys[None, :200]), (xs, np.uint64(4**n - 1))):
        signs, prods = packed_mul_many(x, y, n)
        bx, by = np.broadcast_arrays(x, y)
        picks = list(range(signs.size - 300, signs.size)) + rng.integers(0, signs.size, 300).tolist()
        for i in picks:
            a, b = int(bx.flat[i]), int(by.flat[i])
            ref = word_mul(unpack_word(a, n), unpack_word(b, n))
            assert (int(signs.flat[i]), int(prods.flat[i])) == (ref.sign, pack_word(ref.word))


def test_blocked_kernel_small_and_empty_shapes():
    # plain ints give numpy scalars, empty input empty arrays of the broadcast shape
    signs, prods = packed_mul_many(pack_word("124"), pack_word("712"), 3)
    assert type(signs) is np.int8 and type(prods) is np.uint64
    empty = np.array([], dtype=np.uint64)
    for x, y, shape in (
        (empty, empty, (0,)),
        (empty, 5, (0,)),
        (np.zeros((0, 5), dtype=np.uint64), np.zeros((3 * _BLOCK_PAIRS, 1, 1), dtype=np.uint64), (3 * _BLOCK_PAIRS, 0, 5)),
    ):
        signs, prods = packed_mul_many(x, y, 3)
        assert signs.shape == prods.shape == shape
        assert signs.dtype == np.int8 and prods.dtype == np.uint64
    with pytest.raises(ValueError):  # shapes that do not broadcast, above one block
        packed_mul_many(np.zeros(2 * _BLOCK_PAIRS, dtype=np.uint64), np.zeros(3 * _BLOCK_PAIRS, dtype=np.uint64), 3)


def test_blocked_kernel_rejects_a_stray_bit_in_the_last_block(monkeypatch):
    # a stray bit in the last block only rejects the whole call before any block runs
    n = 5
    xs = np.zeros(3 * _BLOCK_PAIRS + 5, dtype=np.uint64)
    xs[-1] = 1 << (2 * n)
    calls = []
    lanes = packed_module._lanes
    monkeypatch.setattr(packed_module, "_lanes", lambda *a: calls.append(1) or lanes(*a))
    with pytest.raises(ValueError, match=f"stray bits above lane {2 * n}"):
        packed_mul_many(xs, np.uint64(3), n)
    with pytest.raises(ValueError, match=f"stray bits above lane {2 * n}"):
        packed_mul_many(np.zeros((4, 1), dtype=np.uint64), xs, n)
    assert not calls
    packed_mul_many(xs[:-1], np.uint64(3), n)
    assert len(calls) == 4


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_kernel_memory_is_bounded():
    # a one-pass call peaked at about 5 times its outputs (2**20 pairs) and
    # at about 2 times (1024 x 1024 broadcast, 19 MB); blocked, a call holds
    # its outputs and one block's temporaries
    n = 12
    rng = np.random.default_rng(20)
    xs, ys = rng.integers(0, 4**n, 1 << 20, dtype=np.uint64), rng.integers(0, 4**n, 1 << 20, dtype=np.uint64)
    for x, y in ((xs, ys), (xs[:1024, None], ys[None, :1024])):
        (signs, prods), peak = _traced_peak(lambda: packed_mul_many(x, y, n))
        assert signs.size == 1 << 20
        assert peak <= 1.25 * (signs.nbytes + prods.nbytes)


#: `dir(floretion)` when the package imported `floretion.packed` eagerly.
_PUBLIC_NAMES = """
ALL_PERMS CentralizerTiles DIGITS Element IDENTITY MAX_ORDER Mat2 Perm ROTATE ROTATE2 Recurrence SWAP_12
SWAP_14 SWAP_24 SignedWord Vec2 __builtins__ __cached__ __doc__ __file__ __loader__ __name__ __package__
__path__ __spec__ __version__ algebra all_words apply_perm_element apply_perm_word axis_reflection axis_words
centralizer centralizer_counts centralizer_tiles centroid check_vanishing coeff_stream commutes
cyclic_orbit_points dihedral_matrix element_from_json element_to_json elementary_vector exp_truncated
fibonacci_elements find_recurrence format_element format_signed_word format_word geometry identity_word
is_axis_symmetric is_upward local_cycle local_mul noncentral_count pack_word packed packed_identity
packed_mul_many padovan_elements parse_perm parse_signed_word parse_word render render_tiling sequences
sierpinski_support sigma_sums signed_centralizer_order signed_word_inverse signed_word_mul symmetry
tile_polygon twisted_commute_check unpack_word word_mul words write_b_file
""".split()


def test_public_api_unchanged_by_lazy_numpy():
    assert set(dir(floretion)) >= set(_PUBLIC_NAMES)
    for name in _PUBLIC_NAMES:
        getattr(floretion, name)
    assert floretion.packed_mul_many is floretion.packed.packed_mul_many
    assert floretion.pack_word is floretion.packed.pack_word is floretion.words.pack_word
    assert floretion.unpack_word is floretion.packed.unpack_word is floretion.words.unpack_word
    from floretion import packed_identity, unpack_word

    assert unpack_word(packed_identity(3), 3) == "777"
    with pytest.raises(AttributeError, match="no attribute 'packed_words'"):
        floretion.packed_words
