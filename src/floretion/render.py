"""Deterministic SVG output for the triangular tiling.

One <polygon> per tile, emitted in canonical word order with fixed-width
coordinate formatting, so identical inputs always produce byte-identical
files.  Math coordinates have y pointing up; SVG has y pointing down, so y
is negated at formatting time (labels would mirror under a transform).

Polygon classes: "up" / "down" from the tile orientation, plus an optional
extra class per word ("highlight", "highlight-plus", "highlight-minus").
"""

from __future__ import annotations

import math
from typing import Mapping

from .geometry import DEFAULT_R0, tiles
from .words import format_word

#: Depth cap for rendering; 4**8 polygons is already a ~10 MB file.
RENDER_MAX_DEPTH = 8

_STYLE = """\
    polygon { fill: #f4f1ea; stroke: #55504a; }
    polygon.down { fill: #d8d2c8; }
    polygon.highlight { fill: #f2b134; }
    polygon.highlight-plus { fill: #69b578; }
    polygon.highlight-minus { fill: #d95d4e; }
    text { font-family: monospace; fill: #1c1b19; text-anchor: middle; dominant-baseline: middle; }
"""


def _fmt(v: float) -> str:
    # fixed decimals for byte-stable output; 6 digits resolves depth-8 tiles
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def render_tiling(
    n: int,
    r0: float = DEFAULT_R0,
    labels: bool = False,
    letters: bool = False,
    extra_classes: Mapping[str, str] | None = None,
) -> str:
    """SVG text for the full depth-n tiling.

    `extra_classes` maps words to one additional polygon class each; words
    absent from the tiling are ignored.
    """
    if not 1 <= n <= RENDER_MAX_DEPTH:
        raise ValueError(f"render depth must be in 1..{RENDER_MAX_DEPTH}, got {n}")
    if not 0 < r0 < math.inf:
        raise ValueError(f"circumradius must be positive and finite, got {r0}")
    extra = dict(extra_classes or {})

    half_width = r0 * math.sqrt(3.0) / 2.0
    margin = 0.05 * r0
    vx = -(half_width + margin)
    vy = -(r0 + margin)
    vw = 2 * (half_width + margin)
    vh = 1.5 * r0 + 2 * margin
    stroke = r0 / 2**n * 0.04
    font = r0 / 2**n * 0.55

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
        "  <style>",
        _STYLE + f"    polygon {{ stroke-width: {_fmt(stroke)}; }}",
        "  </style>",
    ]
    for tile in tiles(n, r0):
        cls = "up" if tile.upward else "down"
        if tile.word in extra:
            cls += " " + extra[tile.word]
        pts = " ".join(f"{_fmt(p.x)},{_fmt(-p.y)}" for p in tile.polygon())
        lines.append(f'  <polygon class="{cls}" points="{pts}"/>')
        if labels:
            c = tile.centroid
            lines.append(
                f'  <text x="{_fmt(c.x)}" y="{_fmt(-c.y)}" font-size="{_fmt(font)}">'
                f"{format_word(tile.word, letters)}</text>"
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
