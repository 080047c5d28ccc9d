"""Digitwise permutation actions on words and elements.

A permutation of the digits {1, 2, 4} (always fixing 7) acts on a word by
relabelling every position, and extends linearly to elements.  Even
permutations respect products; odd permutations (the transpositions, which
are the reflections of the tiling's three axes) reverse them:

    even:  pi(XY) = pi(X) pi(Y)
    odd:   pi(XY) = pi(Y) pi(X)

so reflection symmetry of a product reduces to plain or twisted commutation
of its factors.  The cyclic action 1 -> 2 -> 4 -> 1, applied in any chosen
set of coordinates holding at least one non-7 digit there, moves a tile
centroid around an equilateral triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .algebra import Element
from .geometry import Vec2, centroid
from .words import _DROP_DIGITS, _non_integer, check_order, parse_word

_CORNER_DIGITS = "124"


@dataclass(frozen=True)
class Perm:
    """A permutation of the digits {1, 2, 4}; 7 is always fixed.

    `images` lists the images of 1, 2, 4 in that order, as digit characters.
    Composition `p * q` applies q first: (p * q)(d) = p(q(d)).
    """

    images: tuple[str, str, str]

    def __post_init__(self):
        if tuple(sorted(self.images)) != ("1", "2", "4"):
            raise ValueError(f"images must be a permutation of 1, 2, 4: {self.images!r}")
        # `str.translate` table of the whole-word action, for `apply_perm_word`
        object.__setattr__(self, "_table", str.maketrans(_CORNER_DIGITS, "".join(self.images)))

    @classmethod
    def from_images(cls, text: str) -> "Perm":
        """Build from the images of 1, 2, 4 written as a 3-character string,
        e.g. "241" for the cycle sending 1 to 2, 2 to 4, 4 to 1."""
        if len(text) != 3:
            raise ValueError(f"need exactly three image digits, got {text!r}")
        return cls((text[0], text[1], text[2]))

    def __call__(self, digit: str) -> str:
        if digit not in ("1", "2", "4", "7"):
            raise ValueError(f"not a digit: {digit!r}")
        return digit.translate(self._table)

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(tuple(self(other(d)) for d in _CORNER_DIGITS))  # type: ignore[arg-type]

    def inverse(self) -> "Perm":
        inv = {img: d for d, img in zip(_CORNER_DIGITS, self.images)}
        return Perm((inv["1"], inv["2"], inv["4"]))

    @property
    def is_even(self) -> bool:
        # On three symbols: identity and 3-cycles are even, transpositions odd.
        fixed = sum(1 for d, img in zip(_CORNER_DIGITS, self.images) if d == img)
        return fixed != 1

    @property
    def sign(self) -> int:
        return 1 if self.is_even else -1

    def __str__(self) -> str:
        return "124->" + "".join(self.images)


IDENTITY = Perm(("1", "2", "4"))
ROTATE = Perm(("2", "4", "1"))  # 1 -> 2 -> 4 -> 1
ROTATE2 = ROTATE * ROTATE
SWAP_24 = Perm(("1", "4", "2"))
SWAP_14 = Perm(("4", "2", "1"))
SWAP_12 = Perm(("2", "1", "4"))

ALL_PERMS = (IDENTITY, ROTATE, ROTATE2, SWAP_24, SWAP_14, SWAP_12)

_ALIASES = {
    "id": IDENTITY,
    "identity": IDENTITY,
    "rot": ROTATE,
    "rot2": ROTATE2,
    "swap24": SWAP_24,
    "swap14": SWAP_14,
    "swap12": SWAP_12,
}

#: The reflection fixing each axis digit: it swaps the other two corners.
AXIS_REFLECTION = {"1": SWAP_24, "2": SWAP_14, "4": SWAP_12}


def axis_reflection(axis: str) -> Perm:
    """The transposition fixing `axis` (a corner digit), i.e. the reflection
    of the tiling in that corner's axis."""
    try:
        return AXIS_REFLECTION[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 1, 2, 4, got {axis!r}") from None


def parse_perm(text: str) -> Perm:
    """Parse a CLI permutation name: an alias ("rot", "swap24"), an image
    string ("241"), or the arrow form ("124->241")."""
    t = text.strip().lower()
    if t in _ALIASES:
        return _ALIASES[t]
    if "->" in t:
        src, _, dst = t.partition("->")
        if src.strip() != "124":
            raise ValueError(f"arrow form must start from 124, got {text!r}")
        t = dst.strip()
    return Perm.from_images(t)


def apply_perm_word(pi: Perm, word: str) -> str:
    """Apply a digit permutation at every position of a word."""
    out = word.translate(pi._table)
    if bad := out.translate(_DROP_DIGITS):
        raise ValueError(f"not a digit: {bad[0]!r}")
    return out


def apply_perm_element(pi: Perm, x: Element) -> Element:
    """Linear extension of the digitwise action to an element.  The action
    maps canonical words one to one onto canonical words, so the terms are
    relabelled without the constructor's parse and sum."""
    return Element._canonical(x.order, {w.translate(pi._table): q for w, q in x.terms.items()})


def is_axis_symmetric(x: Element, axis: str) -> bool:
    """True when the axis reflection fixes x exactly."""
    return apply_perm_element(axis_reflection(axis), x) == x


def twisted_commute_check(x: Element, y: Element, axis_x: str, axis_y: str) -> bool:
    """Whether the product of two axis-symmetric elements keeps x's axis
    symmetry, i.e. x*y equals gamma(y)*x with gamma the composite of the
    two reflections.

    Both symmetry premises are verified, not trusted: without them the
    criterion is meaningless.  With equal axes gamma is the identity and the
    check is ordinary commutation.
    """
    if not is_axis_symmetric(x, axis_x):
        raise ValueError(f"first element is not symmetric about axis {axis_x}")
    if not is_axis_symmetric(y, axis_y):
        raise ValueError(f"second element is not symmetric about axis {axis_y}")
    gamma = axis_reflection(axis_x) * axis_reflection(axis_y)
    return x * y == apply_perm_element(gamma, y) * x


def _check_coords(coords: Iterable[int] | None, n: int) -> Iterable[int]:
    """The checked 1-based coordinates of a length-n word (all by default)."""
    if coords is None:
        return range(1, n + 1)
    out = tuple(sorted(set(coords)))
    for r in out:
        if not 1 <= r <= n:
            raise ValueError(f"coordinate {r} out of range 1..{n}")
    if not out:
        raise ValueError("empty coordinate set")
    return out


def local_cycle(word: str, coords: Iterable[int] | None = None, times: int = 1) -> str:
    """Apply the cycle 1 -> 2 -> 4 -> 1 `times` times in the selected
    1-based coordinates (all of them by default), fixing 7 everywhere."""
    if _non_integer(times):
        raise ValueError(f"times must be an integer, got {times}")
    w = parse_word(word)
    return _cycle(w, _check_coords(coords, len(w)), (IDENTITY, ROTATE, ROTATE2)[times % 3])


def _cycle(w: str, sel: Iterable[int], pi: Perm) -> str:
    """Apply `pi` at the checked coordinates `sel` of canonical word `w`."""
    return "".join(pi(d) if r in sel else d for r, d in enumerate(w, 1))


def cyclic_orbit_points(
    word: str, coords: Iterable[int] | None = None, d1: float = 0.5
) -> tuple[Vec2, Vec2, Vec2]:
    """Centroids of a word and its two synchronized cyclic shifts.

    The selected coordinates must contain at least one non-7 digit;
    otherwise the three points coincide and no triangle exists.  The
    returned points are always the vertices of an equilateral triangle.
    """
    w = parse_word(word)
    sel = _check_coords(coords, len(w))
    if all(w[r - 1] == "7" for r in sel):
        raise ValueError("all selected coordinates hold the digit 7; the orbit is a single point")
    w1, w2 = _cycle(w, sel, ROTATE), _cycle(w, sel, ROTATE2)
    return centroid(w, d1), centroid(w1, d1), centroid(w2, d1)


def axis_words(axis: str, n: int) -> list[str]:
    """The 2**n words using only `axis` and 7: exactly the words fixed by
    the reflection about that axis, lying on it in the tiling."""
    axis_reflection(axis)  # validates the digit
    check_order(n)
    out = [""]
    for _ in range(n):
        out = [w + d for w in out for d in (axis, "7")]
    return out
