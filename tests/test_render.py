"""SVG output: counts, classes, determinism."""

import math
import random

import pytest

from floretion.centralizer import centralizer_tiles
from floretion.render import RENDER_MAX_DEPTH, render_tiling
from floretion.symmetry import axis_words
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
    for r0 in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            render_tiling(2, r0=r0)


@pytest.mark.parametrize("options", _OPTIONS, ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "plain")
def test_render_matches_reference_oracle(options):
    for n in range(1, 8):
        assert render_tiling(n, **options) == reference_render(n, **options), n


def test_overlay_render_matches_reference_oracle():
    rng = random.Random(20261019)
    for n in (3, 3, 6, 6):
        t = centralizer_tiles(random_word(rng, n))
        extra = dict.fromkeys(t.plus, "highlight-plus") | dict.fromkeys(t.minus, "highlight-minus")
        assert render_tiling(n, extra_classes=extra) == reference_render(n, extra_classes=extra)
