"""Plane geometry of the recursive triangular tiling.

Each word labels one tile of the subdivision that repeatedly splits an
upward equilateral triangle into four: the corner subtriangles carry the
digits 1, 2, 4 (toward the vertices at 330, 90 and 210 degrees) and the
central, inverted subtriangle carries 7.  The centroid map walks the word
left to right, stepping half the current circumradius toward the chosen
corner; a 7 contributes no step but flips the direction of every later
step, which is exactly what the central tile's inverted orientation
requires.

Corner directions are fixed unit vectors evaluated once from exact
multiples of 30 degrees, so repeated maps accumulate no rotation drift and
the symmetry assertions in the tests hold to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING

from .words import noncentral_count

if TYPE_CHECKING:  # pragma: no cover
    from .symmetry import Perm

_SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scaled(self, c: float) -> "Vec2":
        return Vec2(c * self.x, c * self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


ORIGIN = Vec2(0.0, 0.0)

#: Unit step direction of each digit: 1 at 330 deg, 2 at 90 deg, 4 at 210 deg,
#: 7 stepless.
UNIT_VECTOR = {
    "1": Vec2(_SQRT3_2, -0.5),
    "2": Vec2(0.0, 1.0),
    "4": Vec2(-_SQRT3_2, -0.5),
    "7": ORIGIN,
}

#: Default circumradius of the depth-0 triangle, and the step scale it fixes.
DEFAULT_R0 = 1.0
DEFAULT_STEP = DEFAULT_R0 / 2.0


def _scale(value, what: str, name: str) -> float:
    """A length scale read as one float: ValueError unless it is a real, not
    a bool, with 0 < 2 * value < inf.  An int or Fraction too large for a
    float reads as +-inf; the message shows that float or the type, never
    `str(value)`, which raises past Python's integer-to-text limit."""
    real = isinstance(value, Real) and type(value) is not bool
    try:
        v = float(value) if real else math.nan
    except OverflowError:
        v = math.inf if value > 0 else -math.inf
    if not 0 < 2 * v < math.inf:  # every coordinate is below 2 * value
        raise ValueError(f"{what} must be positive with 2*{name} finite, got {v if real else type(value).__name__}")
    return v


def elementary_vector(digit: str) -> Vec2:
    """Unit corner direction of a digit (the zero vector for 7)."""
    try:
        return UNIT_VECTOR[digit]
    except KeyError:
        raise ValueError(f"not a digit: {digit!r}") from None


def centroid(word: str, d1: float = DEFAULT_STEP) -> Vec2:
    """Centroid of the tile labelled by `word`, with first step length d1.

    Steps halve at each depth; each digit 7 flips the sign of all later
    steps.  With d1 = R0/2 this is the centroid of the tile inside the
    depth-0 triangle of circumradius R0 centered at the origin.
    """
    x = y = 0.0
    sign_step = 1.0
    step = _scale(d1, "step scale", "d1")
    for ch in word:
        v = elementary_vector(ch)
        x += sign_step * step * v.x
        y += sign_step * step * v.y
        if ch == "7":
            sign_step = -sign_step
        step *= 0.5
    return Vec2(x, y)


def is_upward(word: str) -> bool:
    """True when the tile points upward: the count of non-7 digits has the
    same parity as the word length (each 7 inverts its subtree once)."""
    return noncentral_count(word) % 2 == len(word) % 2


#: Vertex directions emitted apex-first: 90, 210, 330 degrees for an upward
#: tile, negated for a downward one.
_VERTEX_ORDER = ("2", "4", "1")


def tile_polygon(word: str, r0: float = DEFAULT_R0) -> tuple[Vec2, Vec2, Vec2]:
    """The three vertices of a word's tile inside a depth-0 triangle of
    circumradius r0; equilateral, circumradius r0 / 2**n."""
    r0 = _scale(r0, "circumradius", "r0")
    c = centroid(word, r0 / 2.0)
    r = r0 / (2 ** len(word))
    flip = 1.0 if is_upward(word) else -1.0
    return tuple(c + UNIT_VECTOR[d].scaled(flip * r) for d in _VERTEX_ORDER)  # type: ignore[return-value]


@dataclass(frozen=True)
class Mat2:
    """A 2x2 real matrix acting on Vec2 by multiplication."""

    a: float
    b: float
    c: float
    d: float

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def det(self) -> float:
        return self.a * self.d - self.b * self.c


def dihedral_matrix(pi: "Perm") -> Mat2:
    """The plane symmetry sending each corner direction v(a) to v(pi(a)).

    The images of v(1) and v(2) determine the matrix; v(4) = -v(1) - v(2)
    follows along.  Rotations (even permutations) come out with determinant
    +1 and the digit cycle 1 -> 2 -> 4 -> 1 is the +120 degree rotation
    under the corner angles above; transpositions are the axis reflections,
    determinant -1.
    """
    u1, u2 = UNIT_VECTOR["1"], UNIT_VECTOR["2"]
    w1, w2 = UNIT_VECTOR[pi("1")], UNIT_VECTOR[pi("2")]
    det = u1.x * u2.y - u1.y * u2.x
    return Mat2(
        (w1.x * u2.y - w2.x * u1.y) / det,
        (w2.x * u1.x - w1.x * u2.x) / det,
        (w1.y * u2.y - w2.y * u1.y) / det,
        (w2.y * u1.x - w1.y * u2.x) / det,
    )
