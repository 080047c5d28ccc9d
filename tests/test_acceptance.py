"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with its measured numbers (run with -s to see them).

Criteria 1-15 assert exact values or stated tolerances, several with
wall-clock budgets.  Criterion 16 is a performance report: numbers are
printed, not asserted.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from floretion import cli
from floretion.algebra import Element
from floretion.centralizer import centralizer_counts, centralizer_tiles, check_vanishing, sigma_sums
from floretion.geometry import centroid, dihedral_matrix, tile_polygon
from floretion.packed import packed_mul_many
from floretion.sequences import (
    coeff_stream,
    fibonacci_elements,
    find_recurrence,
    padovan_elements,
)
from floretion.symmetry import (
    ALL_PERMS,
    apply_perm_element,
    apply_perm_word,
    axis_words,
    cyclic_orbit_points,
)
from floretion.words import (
    DIGIT_CODE,
    LOCAL_TABLE,
    all_words,
    identity_word,
    local_mul,
    noncentral_count,
    word_mul,
)
from helpers import random_element, random_fraction, random_word

F = Fraction

QUAT_TABLE = {
    ("1", "1"): (-1, "7"), ("1", "2"): (1, "4"), ("1", "4"): (-1, "2"), ("1", "7"): (1, "1"),
    ("2", "1"): (-1, "4"), ("2", "2"): (-1, "7"), ("2", "4"): (1, "1"), ("2", "7"): (1, "2"),
    ("4", "1"): (1, "2"), ("4", "2"): (-1, "1"), ("4", "4"): (-1, "7"), ("4", "7"): (1, "4"),
    ("7", "1"): (1, "1"), ("7", "2"): (1, "2"), ("7", "4"): (1, "4"), ("7", "7"): (1, "7"),
}


def report(cid: int, message: str) -> None:
    print(f"PASS {cid:02d} {message}")


def test_c01_table_fidelity():
    pairs = list(QUAT_TABLE)
    for p in pairs:  # warmup
        local_mul(*p)
    t0 = time.perf_counter()
    results = [local_mul(*p) for p in pairs]
    elapsed = time.perf_counter() - t0
    assert results == [QUAT_TABLE[p] for p in pairs]
    assert elapsed < 1e-3
    report(1, f"table fidelity: all 16 digit products exact in {elapsed * 1e6:.1f} us")


def test_c02_worked_product(capsys):
    assert word_mul("121", "274") == (-1, "422")
    assert cli.main(["mul", "iji", "jek", "--letters"]) == 0
    assert capsys.readouterr().out.strip() == "-kjj"
    assert cli.main(["mul", "iji", "jek"]) == 0
    assert capsys.readouterr().out.strip() == "-422"
    report(2, "worked product: mul iji jek = -kjj exactly")


def table_products(xs: list[int], ys: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, packed products) of the pairs, read lane by lane from
    LOCAL_TABLE with a numpy gather: a reference independent of the
    word-wide kernel (the table shares its rule, and the quaternion table
    in test_words pins it)."""
    sign_table = np.zeros((4, 4), dtype=np.int64)
    code_table = np.zeros((4, 4), dtype=np.uint64)
    for (a, b), (sign, d) in LOCAL_TABLE.items():
        sign_table[DIGIT_CODE[a], DIGIT_CODE[b]] = sign
        code_table[DIGIT_CODE[a], DIGIT_CODE[b]] = DIGIT_CODE[d]
    ax, ay = np.array(xs, dtype=np.uint64), np.array(ys, dtype=np.uint64)
    signs = np.ones(len(xs), dtype=np.int64)
    prods = np.zeros(len(xs), dtype=np.uint64)
    for r in range(n):
        shift = np.uint64(2 * r)
        lx = ((ax >> shift) & np.uint64(3)).astype(np.intp)
        ly = ((ay >> shift) & np.uint64(3)).astype(np.intp)
        signs *= sign_table[lx, ly]
        prods |= code_table[lx, ly] << shift
    return signs, prods


def test_c03_kernel_oracle():
    t0 = time.perf_counter()
    checked = 0
    batches = []
    for n in (1, 2, 3, 4):
        k = 4**n
        batches.append((n, [i for i in range(k) for _ in range(k)], list(range(k)) * k))
    rng = random.Random(808)
    for n in (4, 5, 6, 7, 8):
        top = 4**n - 1
        pairs = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(200_000)]
        batches.append((n, [x for x, _ in pairs], [y for _, y in pairs]))
    for n, xs, ys in batches:
        ref_signs, ref_prods = table_products(xs, ys, n)
        signs, prods = packed_mul_many(xs, ys, n)
        assert signs.shape == prods.shape == (len(xs),)
        assert np.array_equal(signs, ref_signs) and np.array_equal(prods, ref_prods)
        checked += len(xs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"kernel oracle: {checked} packed products identical to the LOCAL_TABLE gather in {elapsed:.1f} s")


def test_c04_equivariance():
    t0 = time.perf_counter()
    mats = [(pi, dihedral_matrix(pi)) for pi in ALL_PERMS]
    worst = 0.0
    for n in range(1, 6):
        for b in all_words(n):
            p = centroid(b)
            for pi, m in mats:
                err = centroid(apply_perm_word(pi, b)).dist(m.apply(p))
                worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(4, f"equivariance: worst |P(pi b) - rho(pi) P(b)| = {worst:.2e} over n<=5 in {elapsed:.1f} s")


def test_c05_no_cancellation():
    min_norm = math.inf
    count = 0
    for n in range(1, 7):
        for b in all_words(n):
            if b == identity_word(n):
                continue
            min_norm = min(min_norm, centroid(b).norm())
            count += 1
    assert min_norm > 0.0
    report(5, f"no cancellation: {count} non-identity centroids, min norm {min_norm:.6e} > 0")


def test_c06_antiautomorphism_dispatch():
    rng = random.Random(606)
    n = 3
    for _ in range(100):
        x, y = random_element(rng, n), random_element(rng, n)
        for pi in ALL_PERMS:
            lhs = apply_perm_element(pi, x * y)
            if pi.is_even:
                assert lhs == apply_perm_element(pi, x) * apply_perm_element(pi, y)
            else:
                assert lhs == apply_perm_element(pi, y) * apply_perm_element(pi, x)
    report(6, "automorphism dispatch: 100 random pairs, all six permutations, exact")


def test_c07_centralizer_counts():
    t0 = time.perf_counter()
    scanned = 0
    for n in (1, 2, 3, 4):
        for b in all_words(n):
            if b == identity_word(n):
                continue
            n_plus, n_minus = centralizer_counts(b)
            assert n_plus + n_minus == 4**n // 2
            assert 2 * (n_plus + n_minus) == 4**n
            scanned += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"centralizer counts: all {scanned} non-identity words (n<=4) give 4^n/2 in {elapsed:.1f} s")


def test_c08_example_base_ii():
    t = centralizer_tiles("11")
    assert set(t.plus) == {"11", "22", "44", "77"}
    assert set(t.minus) == {"17", "24", "42", "71"}
    plus, minus = sigma_sums("11")
    assert (minus * plus).is_zero()
    report(8, "base ii: plus {ii,jj,kk,ee}, minus {ie,jk,kj,ei}, minus*plus = 0")


def test_c09_vanishing_products():
    checked = 0
    for n in (1, 2, 3):
        for b in all_words(n):
            if noncentral_count(b) % 2:
                continue
            plus, minus = sigma_sums(b)
            assert (minus * plus).is_zero()
            assert (plus * minus).is_zero()
            checked += 1
    # seeded words squaring to the identity at every order 4-32, by the closed form
    rng = random.Random(932)
    seeded = 0
    for n in range(4, 33):
        words = [b for b in (random_word(rng, n) for _ in range(40)) if noncentral_count(b) % 2 == 0][:3]
        assert len(words) == 3 and all(check_vanishing(b) is True for b in words)
        seeded += len(words)
    report(9, f"vanishing: both component-sum products zero for all {checked} involutive words, n<=3, and {seeded} seeded, n=4..32")


def test_c10_parity_identity():
    rng = random.Random(1010)
    for _ in range(100):
        x = random_element(rng, rng.randint(1, 3))
        assert (x * x).odd_part == 2 * (x * x.odd_part).odd_part
    report(10, "parity identity: (X^2)_odd = 2(X X_odd)_odd for 100 random X, exact")


def test_c11_equilateral_orbits():
    worst = 0.0
    checked = 0
    for n in (1, 2, 3, 4):
        for b in all_words(n):
            if b == identity_word(n):
                continue
            p0, p1, p2 = cyclic_orbit_points(b)
            d = (p0.dist(p1), p1.dist(p2), p2.dist(p0))
            worst = max(worst, max(d) - min(d))
            checked += 1
    rng = random.Random(1111)
    done = 0
    while done < 1000:
        n = rng.randint(1, 6)
        b = "".join(rng.choice("1247") for _ in range(n))
        coords = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        if all(b[r - 1] == "7" for r in coords):
            continue
        p0, p1, p2 = cyclic_orbit_points(b, coords)
        d = (p0.dist(p1), p1.dist(p2), p2.dist(p0))
        worst = max(worst, max(d) - min(d))
        done += 1
    assert worst <= 1e-12
    report(11, f"equilateral orbits: {checked} global + 1000 local orbits, worst side spread {worst:.2e}")


def test_c12_fibonacci_exit_ramp():
    _, _, z = fibonacci_elements(-1, 1, -1)
    stream = coeff_stream(z, "12", 6)
    assert stream == [F(1, 2), F(1, 2), F(1), F(3, 2), F(5, 2), F(4)]
    rec = find_recurrence(stream, 2)
    assert rec is not None and rec.coeffs == (F(1), F(1))
    report(12, "fibonacci ramp: ij stream 1/2,1/2,1,3/2,5/2,4 and detected rule a(m)=a(m-1)+a(m-2)")


def test_c13_padovan_exit_ramp():
    _, _, y = padovan_elements()
    stream = coeff_stream(y, "14", 11)
    assert [4 * q for q in stream] == [1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12]
    assert y**4 == y**2 + y
    rng = random.Random(1313)
    for _ in range(20):
        a, b, c = (random_fraction(rng, -5, 5) for _ in range(3))
        _, _, z = fibonacci_elements(a, b, c)
        assert (z**3 + a * (z**2) + (b * c) * z).is_zero()
    report(13, "padovan ramp: 4[ik]Y^m padovan, Y^4 = Y^2 + Y, cubic relation for 20 random seeds")


def test_c14_recurrence_bound_order_two():
    rng = random.Random(1414)
    words2 = ["".join(t) for t in product("1247", repeat=2)]
    for _ in range(50):
        x = Element(2, {w: random_fraction(rng, -3, 3, (1, 2)) for w in rng.sample(words2, rng.randint(3, 8))})
        powers = []
        acc = Element.one(2)
        for _ in range(20):
            acc = acc * x
            powers.append(acc)
        for u in words2:
            stream = [p.coeff(u) for p in powers]
            assert find_recurrence(stream, 4) is not None
    report(14, "finite-dimension bound: all 16 streams of 50 random order-2 elements fit order <= 4")


def test_c15_tiling_partition_and_axis_highlight():
    from floretion.geometry import Vec2

    def area(tri):
        p0, p1, p2 = tri
        return 0.5 * abs((p1.x - p0.x) * (p2.y - p0.y) - (p2.x - p0.x) * (p1.y - p0.y))

    s = math.sqrt(3.0) / 2.0
    parent = area((Vec2(0.0, 1.0), Vec2(-s, -0.5), Vec2(s, -0.5)))
    worst = 0.0
    for n in range(1, 6):
        total = sum(area(tile_polygon(w, 1.0)) for w in all_words(n))
        worst = max(worst, abs(total - parent))
    assert worst <= 1e-9
    highlighted = axis_words("1", 3)
    assert len(highlighted) == 8
    assert set(highlighted) == {"".join(t) for t in product("17", repeat=3)}
    report(15, f"tiling partition: depth<=5 area defect {worst:.2e}; axis highlight has 8 tiles")


def test_c16_performance_report(capsys):
    assert cli.main(["bench", "--order", "8", "--iterations", "100000", "--scan-order", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "cross-check   100000/100000 agree" in lines
    assert any(line.startswith(f"centralizer scan order 10: {4**10 // 2} tiles listed") for line in lines)
    report(16, "performance (reported, not asserted): " + "; ".join(" ".join(line.split()) for line in lines))
