"""Centroid map, tile polygons, orientation, and the dihedral matrices."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from floretion.geometry import (
    Mat2,
    Vec2,
    centroid,
    dihedral_matrix,
    elementary_vector,
    is_upward,
    tile_polygon,
)
from floretion.render import render_tiling
from floretion.symmetry import ALL_PERMS, ROTATE, SWAP_24, apply_perm_word, cyclic_orbit_points
from floretion.words import all_words, parse_word

SQRT3_2 = math.sqrt(3.0) / 2.0


def shoelace(p0, p1, p2) -> float:
    return 0.5 * abs(
        (p1.x - p0.x) * (p2.y - p0.y) - (p2.x - p0.x) * (p1.y - p0.y)
    )


def test_elementary_vectors():
    assert elementary_vector("2") == Vec2(0.0, 1.0)
    assert elementary_vector("7") == Vec2(0.0, 0.0)
    v1 = elementary_vector("1")
    assert abs(v1.x - math.cos(math.radians(330))) < 1e-15
    assert abs(v1.y - math.sin(math.radians(330))) < 1e-15
    v4 = elementary_vector("4")
    assert abs(v4.x - math.cos(math.radians(210))) < 1e-15
    assert abs(v4.y - math.sin(math.radians(210))) < 1e-15
    with pytest.raises(ValueError):
        elementary_vector("3")


def test_corner_vectors_sum_to_zero():
    s = elementary_vector("1") + elementary_vector("2") + elementary_vector("4")
    assert s.norm() < 1e-15


def test_centroid_identity_word_is_origin():
    for n in (1, 3, 6):
        assert centroid("7" * n).norm() == 0.0


def test_centroid_after_a_seven_steps_backward():
    # the leading 7 contributes nothing and flips the second step
    d1 = 0.5
    p = centroid("71", d1)
    v1 = elementary_vector("1")
    assert abs(p.x + (d1 / 2) * v1.x) < 1e-15
    assert abs(p.y + (d1 / 2) * v1.y) < 1e-15


def test_centroid_rejects_bad_scale():
    for d1 in (0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            centroid("12", d1)
        with pytest.raises(ValueError):
            tile_polygon("12", d1)


_SCALED = {
    "render_tiling": lambda v: render_tiling(1, r0=v),
    "centroid": lambda v: centroid("12", v),
    "tile_polygon": lambda v: tile_polygon("12", v),
    "cyclic_orbit_points": lambda v: cyclic_orbit_points("12", None, v),
}


@pytest.mark.parametrize("call", _SCALED.values(), ids=_SCALED)
def test_scale_is_read_as_one_float(call):
    # a real past the float range reads as +-inf and is refused in one line,
    # which never formats it with str (that raises past 4300 digits); a bool
    # or a non-real is refused, a numpy float is a real
    assert call(np.float64(0.5)) == call(0.5)
    for v in (10**400, 10**5000, -(10**5000), Fraction(10**5000, 3), True, "1", math.nan):
        with pytest.raises(ValueError, match=r"^(circumradius|step scale) must be positive with 2\*(r0|d1) finite, got [^\n]*$"):
            call(v)


def test_no_cancellation():
    # first non-7 step outweighs everything after it
    min_norm = math.inf
    for n in range(1, 7):
        for b in all_words(n):
            if b == "7" * n:
                continue
            min_norm = min(min_norm, centroid(b).norm())
    assert min_norm > 0
    # the tightest word still clears the geometric bound d_n = 2^-n
    assert min_norm > 0.5 / 2**6


def test_centroids_pairwise_distinct():
    for n in range(1, 7):
        pts = np.array([[p.x, p.y] for p in (centroid(b) for b in all_words(n))])
        min_d2 = math.inf
        for i in range(0, len(pts), 512):
            block = pts[i : i + 512]
            d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            # mask self distances
            for r in range(len(block)):
                d2[r, i + r] = math.inf
            min_d2 = min(min_d2, float(d2.min()))
        assert min_d2 > 0.0


def test_orientation_rules():
    assert is_upward("17") is False
    assert is_upward("77") is True  # even length, zero non-7 digits
    assert is_upward("7") is False
    for n in (1, 2, 3):
        for tup in product("124", repeat=n):
            assert is_upward("".join(tup)) is True


def test_orientation_recursion():
    # appending a corner digit keeps orientation; appending 7 flips it
    for n in range(1, 5):
        for b in all_words(n):
            for d in "1247":
                child = b + d
                if d == "7":
                    assert is_upward(child) is not is_upward(b)
                else:
                    assert is_upward(child) is is_upward(b)


def test_tile_polygon_equilateral_and_centered():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        b = "".join(rng.choice("1247") for _ in range(n))
        r0 = rng.choice([0.5, 1.0, 2.0])
        p0, p1, p2 = tile_polygon(b, r0)
        r = r0 / 2**n
        side = r * math.sqrt(3.0)
        assert abs(p0.dist(p1) - side) < 1e-12
        assert abs(p1.dist(p2) - side) < 1e-12
        assert abs(p2.dist(p0) - side) < 1e-12
        c = centroid(b, r0 / 2)
        mean = Vec2((p0.x + p1.x + p2.x) / 3, (p0.y + p1.y + p2.y) / 3)
        assert mean.dist(c) < 1e-12
        for p in (p0, p1, p2):
            assert abs(p.dist(c) - r) < 1e-12


def test_tile_polygon_of_corner_shares_parent_apex():
    p = tile_polygon("2", 1.0)
    assert any(v.dist(Vec2(0.0, 1.0)) < 1e-15 for v in p)


def test_tile_polygon_of_seven_is_medial_triangle():
    parent = [Vec2(0.0, 1.0), Vec2(-SQRT3_2, -0.5), Vec2(SQRT3_2, -0.5)]
    midpoints = [
        Vec2((a.x + b.x) / 2, (a.y + b.y) / 2)
        for a, b in ((parent[0], parent[1]), (parent[1], parent[2]), (parent[2], parent[0]))
    ]
    child = tile_polygon("7", 1.0)
    for m in midpoints:
        assert any(v.dist(m) < 1e-15 for v in child)


def test_depth_one_partition():
    parent_area = shoelace(Vec2(0.0, 1.0), Vec2(-SQRT3_2, -0.5), Vec2(SQRT3_2, -0.5))
    total = sum(shoelace(*tile_polygon(d, 1.0)) for d in "1247")
    assert abs(total - parent_area) < 1e-9


def _point_in_triangle(points: np.ndarray, tri, eps: float) -> np.ndarray:
    """Strict interior test of many points against one triangle."""
    inside = np.ones(len(points), dtype=bool)
    verts = [(v.x, v.y) for v in tri]
    area2 = (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1]) - (
        verts[2][0] - verts[0][0]
    ) * (verts[1][1] - verts[0][1])
    orient = 1.0 if area2 > 0 else -1.0
    for i in range(3):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % 3]
        cross = (bx - ax) * (points[:, 1] - ay) - (by - ay) * (points[:, 0] - ax)
        inside &= orient * cross > eps
    return inside


def test_tiling_partition_depths_1_to_5():
    parent_area = shoelace(Vec2(0.0, 1.0), Vec2(-SQRT3_2, -0.5), Vec2(SQRT3_2, -0.5))
    for n in range(1, 6):
        polys = [tile_polygon(w, 1.0) for w in all_words(n)]
        total = sum(shoelace(*poly) for poly in polys)
        assert abs(total - parent_area) < 1e-9
        # no tile's centroid lies strictly inside any other tile
        pts = np.array([[c.x, c.y] for c in map(centroid, all_words(n))])
        eps = 1e-12
        for j, poly in enumerate(polys):
            inside = _point_in_triangle(pts, poly, eps)
            inside[j] = False
            assert not inside.any()


def test_tritile_fields():
    w = parse_word("ij")
    assert w == "12"
    assert is_upward(w) is True
    poly = tile_polygon(w, 2.0)
    c = centroid(w, 1.0)
    assert all(abs(p.dist(c) - 0.5) < 1e-15 for p in poly)
    mean = Vec2(sum(p.x for p in poly) / 3, sum(p.y for p in poly) / 3)
    assert mean.dist(c) < 1e-15


def test_dihedral_identity():
    m = dihedral_matrix(ALL_PERMS[0])
    assert (m.a, m.b, m.c, m.d) == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-15)


def test_dihedral_rotation_is_plus_120():
    m = dihedral_matrix(ROTATE)
    # +120 degrees: v(1) at 330 maps to v(2) at 90
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    assert (m.a, m.b, m.c, m.d) == pytest.approx((c, -s, s, c), abs=1e-12)
    assert m.apply(elementary_vector("1")).dist(elementary_vector("2")) < 1e-12
    assert m.det() == pytest.approx(1.0, abs=1e-12)


def test_dihedral_reflections():
    m = dihedral_matrix(SWAP_24)
    assert m.det() == pytest.approx(-1.0, abs=1e-12)
    # fixes the axis through v(1)
    v1 = elementary_vector("1")
    assert m.apply(v1).dist(v1) < 1e-12


def test_dihedral_matrices_are_orthogonal():
    for pi in ALL_PERMS:
        m = dihedral_matrix(pi)
        # M^T M = I
        assert m.a * m.a + m.c * m.c == pytest.approx(1.0, abs=1e-12)
        assert m.b * m.b + m.d * m.d == pytest.approx(1.0, abs=1e-12)
        assert m.a * m.b + m.c * m.d == pytest.approx(0.0, abs=1e-12)
        assert m.det() == pytest.approx(pi.sign, abs=1e-12)
        for d in "1247":
            assert m.apply(elementary_vector(d)).dist(elementary_vector(pi(d))) < 1e-12


def test_equivariance_exhaustive():
    mats = [(pi, dihedral_matrix(pi)) for pi in ALL_PERMS]
    worst = 0.0
    for n in range(1, 6):
        for b in all_words(n):
            p = centroid(b)
            for pi, m in mats:
                err = centroid(apply_perm_word(pi, b)).dist(m.apply(p))
                worst = max(worst, err)
    assert worst <= 1e-12


def test_mat2_apply():
    m = Mat2(0.0, -1.0, 1.0, 0.0)
    assert m.apply(Vec2(1.0, 0.0)) == Vec2(0.0, 1.0)
