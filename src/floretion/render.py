"""Deterministic SVG output for the triangular tiling.

One <polygon> per tile, emitted in canonical word order with fixed-width
coordinate formatting, so identical inputs always produce byte-identical
files.  Math coordinates have y pointing up; SVG has y pointing down, so y
is negated at formatting time (labels would mirror under a transform).

The centroid map reads a word left to right, one halved step per digit, and
a 7 flips every later step, so the 4**n centroids are prefix sums: one walk
over the prefixes, one level per position, yields every tile's centroid and
orientation sign in canonical order.  Each partial sum repeats the float
operations of `geometry.centroid` in the same order, so every coordinate is
the same double, and the vertices are placed as `geometry.tile_polygon`
places them.  The vertices fall on a small lattice of distinct values, so
each distinct double is formatted once per tiling through a memo.

Only the overlay classes change from call to call, so a tiling is walked and
formatted once: `_tile_lines` keeps the two most recent tilings (depth, r0,
labels, letters), each polygon's text split around its class, and a call
joins the pieces with its own classes.  Two entries fit one depth-5 and one
depth-6 tiling drawn in turn.  A cached tiling holds about 0.9 MB at depth
6, 13 MB at depth 8 and 18 MB at depth 8 with labels (tracemalloc).

Polygon classes: "up" / "down" from the tile orientation, plus an optional
extra class per word ("highlight", "highlight-plus", "highlight-minus").
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

from .geometry import _VERTEX_ORDER, DEFAULT_R0, UNIT_VECTOR, _scale
from .words import _non_integer, format_word

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


class _FmtMemo(dict):
    """`_fmt` of each float key, computed on first lookup."""

    def __missing__(self, v: float) -> str:
        s = self[v] = _fmt(v)
        return s


def _check_limits(n: int, r0: float) -> float:
    """ValueError unless `render_tiling` takes depth n and circumradius r0;
    returns r0 as the float the tiling is drawn from (the viewBox spans
    about 1.83*r0)."""
    if _non_integer(n) or not 1 <= n <= RENDER_MAX_DEPTH:
        raise ValueError(f"render depth must be in 1..{RENDER_MAX_DEPTH}, got {n}")
    return _scale(r0, "circumradius", "r0")


@lru_cache(maxsize=2)
def _tile_lines(n: int, r0: float, labels: bool, letters: bool) -> tuple[tuple[str, ...], ...]:
    """The depth-n tiling in canonical order as three tuples: the words, each
    polygon's text up to its up/down class, and the rest of it from the
    closing quote on, with the tile's <text> line when `labels` is set."""
    font = r0 / 2**n * 0.55
    # prefix walk: (word, centroid x, y, sign of the next step); the digit
    # loop is outermost, so position 1 varies fastest, as in `all_words`
    tiles = [("", 0.0, 0.0, 1.0)]
    step = r0 / 2.0
    for _ in range(n):
        tiles = [
            (w + d, x + s * step * v.x, y + s * step * v.y, -s if d == "7" else s)
            for d, v in UNIT_VECTOR.items()
            for w, x, y, s in tiles
        ]
        step *= 0.5
    # a tile points up exactly when its word holds an even number of 7s,
    # that is when its final sign is +1; the vertices sit at sign * r
    (ax, ay), (bx, by), (cx, cy) = ((UNIT_VECTOR[d].x, UNIT_VECTOR[d].y) for d in _VERTEX_ORDER)
    r = r0 / 2**n
    f = _FmtMemo()
    words, heads, tails = [], [], []
    for w, x, y, s in tiles:
        a = s * r
        tail = (
            f'" points="{f[x + a * ax]},{f[-(y + a * ay)]} '
            f'{f[x + a * bx]},{f[-(y + a * by)]} {f[x + a * cx]},{f[-(y + a * cy)]}"/>'
        )
        if labels:
            tail += f'\n  <text x="{f[x]}" y="{f[-y]}" font-size="{f[font]}">{format_word(w, letters)}</text>'
        words.append(w)
        heads.append('  <polygon class="up' if s > 0 else '  <polygon class="down')
        tails.append(tail)
    return tuple(words), tuple(heads), tuple(tails)


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
    r0 = _check_limits(n, r0)
    extra = dict(extra_classes or {})

    half_width = r0 * math.sqrt(3.0) / 2.0
    margin = 0.05 * r0
    vx = -(half_width + margin)
    vy = -(r0 + margin)
    vw = 2 * (half_width + margin)
    vh = 1.5 * r0 + 2 * margin
    stroke = r0 / 2**n * 0.04

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
        "  <style>",
        _STYLE + f"    polygon {{ stroke-width: {_fmt(stroke)}; }}",
        "  </style>",
    ]
    # `+`, not an f-string, so that a class that is not a str raises TypeError
    lines += [
        head + " " + extra[w] + tail if w in extra else head + tail
        for w, head, tail in zip(*_tile_lines(n, r0, bool(labels), bool(labels and letters)))
    ]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
