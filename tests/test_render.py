"""SVG output: counts, classes, determinism."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from floretion.centralizer import centralizer_tiles
from floretion.render import RENDER_MAX_DEPTH, _tile_lines, render_tiling
from floretion.symmetry import axis_words
from floretion.words import format_word
from helpers import random_word, reference_render

#: Option sets of the oracle comparison: default and odd radii, labels, letters.
_OPTIONS = (
    {},
    {"labels": True},
    {"labels": True, "letters": True},
    {"r0": 0.7},
    {"r0": 0.7, "labels": True, "letters": True},
    {"r0": 3.3},
    {"r0": 1e-3, "labels": True},
)

#: (depth, index into _OPTIONS) in call order: more tilings than `_tile_lines`
#: keeps, so entries are evicted and built again, repeats that reuse one, and
#: neighbours that differ only in `labels` or only in `letters`.
_CACHE_CALLS = (
    (6, 0), (5, 0), (6, 0), (6, 0), (5, 0), (1, 1), (6, 0), (1, 0), (1, 2), (2, 2), (2, 1),
    (3, 3), (7, 4), (3, 3), (8, 5), (4, 6), (8, 5), (5, 0), (2, 0), (1, 1),
)


def _first_difference(svg: str, ref: str) -> tuple | None:
    """None if svg == ref, else the first differing line number and lines:
    pytest's own report on two unequal SVGs of a megabyte runs for over an hour."""
    lines = enumerate(zip_longest(svg.splitlines(), ref.splitlines()))
    return None if svg == ref else next((i, a, b) for i, (a, b) in lines if a != b)


def test_polygon_counts():
    assert render_tiling(1).count("<polygon") == 4
    assert render_tiling(2).count("<polygon") == 16
    assert render_tiling(3).count("<polygon") == 64


def test_orientation_classes():
    svg = render_tiling(2)
    assert svg.count('class="up"') == 10  # 3^2 corner-only words + the 7 words of one flip-back
    assert svg.count('class="down"') == 6


def test_axis_highlight():
    extra = {w: "highlight" for w in axis_words("1", 3)}
    svg = render_tiling(3, extra_classes=extra)
    assert svg.count("highlight") >= 8
    assert svg.count('class="up highlight"') + svg.count('class="down highlight"') == 8


def test_centralizer_classes():
    svg = render_tiling(1, extra_classes={"1": "highlight-plus", "7": "highlight-minus"})
    assert svg.count('class="up highlight-plus"') == 1
    assert svg.count('class="down highlight-minus"') == 1


def test_deterministic_output():
    a = render_tiling(3, labels=True)
    b = render_tiling(3, labels=True)
    assert a == b


def test_labels_and_letters():
    svg = render_tiling(1, labels=True, letters=True)
    assert svg.count("<text") == 4
    assert ">i</text>" in svg and ">e</text>" in svg
    plain = render_tiling(1, labels=True)
    assert ">1</text>" in plain


def test_header_and_viewbox():
    svg = render_tiling(1)
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="' in svg
    assert svg.rstrip().endswith("</svg>")


def test_depth_validation():
    with pytest.raises(ValueError):
        render_tiling(0)
    with pytest.raises(ValueError):
        render_tiling(RENDER_MAX_DEPTH + 1)
    # a real that overflows a float, a bool or a non-real is refused in one line too
    for r0 in (-1.0, 0.0, math.nan, math.inf, -math.inf, 10**400, Fraction(10**400), True, False, "1", None, 1j):
        with pytest.raises(ValueError, match="circumradius must be positive"):
            render_tiling(2, r0=r0)


def test_equal_radii_share_one_cached_tiling():
    _tile_lines.cache_clear()
    svgs = {render_tiling(3, r0=r0) for r0 in (1, 1.0, np.float64(1), np.int64(1), Fraction(1))}
    assert svgs == {reference_render(3, r0=1.0)}
    assert _tile_lines.cache_info().misses == 1 and _tile_lines.cache_info().currsize == 1


@pytest.mark.parametrize("options", _OPTIONS, ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "plain")
def test_render_matches_reference_oracle(options):
    for n in range(1, 8):
        assert _first_difference(render_tiling(n, **options), reference_render(n, **options)) is None, n


def test_overlay_render_matches_reference_oracle():
    rng = random.Random(20261019)
    for n in (3, 3, 6, 6):
        t = centralizer_tiles(random_word(rng, n))
        extra = dict.fromkeys(t.plus, "highlight-plus") | dict.fromkeys(t.minus, "highlight-minus")
        assert _first_difference(render_tiling(n, extra_classes=extra), reference_render(n, extra_classes=extra)) is None


def test_cached_tilings_match_reference_oracle():
    rng = random.Random(20261021)
    _tile_lines.cache_clear()
    for i, (n, k) in enumerate(_CACHE_CALLS):
        t = centralizer_tiles(random_word(rng, n))
        # plus/minus tiles, with a key one digit too long and a letter-spelled key, which match no tile
        overlay = dict.fromkeys(t.plus, "highlight-plus") | dict.fromkeys(t.minus, "highlight-minus")
        overlay |= {t.base + "1": "highlight", format_word(t.base, letters=True): "highlight"}
        extra = (overlay, None, {})[i % 3]
        svg = render_tiling(n, extra_classes=extra, **_OPTIONS[k])
        assert _first_difference(svg, reference_render(n, extra_classes=extra, **_OPTIONS[k])) is None, (i, n, k)
    info = _tile_lines.cache_info()
    assert info.hits > 0 and info.misses > len(set(_CACHE_CALLS))


def test_overlay_leaves_no_classes_behind():
    render_tiling(4, labels=True, extra_classes={w: "highlight" for w in axis_words("1", 4)})
    assert render_tiling(4, labels=True) == reference_render(4, labels=True)
    svg = render_tiling(4, labels=True, extra_classes={"7777": "highlight-minus"})
    assert svg.count(" highlight") == 1 and svg == reference_render(4, labels=True, extra_classes={"7777": "highlight-minus"})


def test_class_must_be_a_str():
    with pytest.raises(TypeError):
        render_tiling(1, extra_classes={"1": 5})
