"""SVG output: counts, classes, determinism."""

import math

import pytest

from floretion.render import RENDER_MAX_DEPTH, render_tiling
from floretion.symmetry import axis_words


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
