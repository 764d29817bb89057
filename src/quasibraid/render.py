"""Deterministic SVG rendering of crossing graphs, loops, and braid words.

Output is plain SVG 1.1 text with every float at six decimals, so identical
inputs produce byte-identical documents.  In plane pictures the crossing
locus is colored by generator index from a fixed palette, each edge carries a
small arrowhead showing its co-orientation, branch points are crosses, and
the optional loop is drawn with direction arrows and a basepoint dot.  Braid
diagrams put strand 1 at the top and draw a positive letter s_k with strand
k+1 passing over strand k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch import BranchData
from .crossing_graph import CrossingGraph
from .errors import InputError
from .paths import LoopPath
from .words import BraidWord

__all__ = ["RenderScene", "render_plane_svg", "render_braid_svg", "PALETTE"]

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
)

_PLANE_SIZE = 640.0
_MARGIN = 46.0
_LOOP_SAMPLES_PER_PRIMITIVE = 96


def _f(value: float) -> str:
    out = f"{value:.6f}"
    # Avoid the two distinct encodings of zero.
    if out == "-0.000000":
        return "0.000000"
    return out


def label_color(label: int) -> str:
    return PALETTE[(label - 1) % len(PALETTE)]


@dataclass(frozen=True)
class RenderScene:
    """Viewport plus the SVG fragments of one figure, before wrapping."""

    width: float
    height: float
    scale: float
    fragments: tuple[str, ...]

    def document(self) -> str:
        body = "\n".join(self.fragments)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_f(self.width)}" height="{_f(self.height)}" '
            f'viewBox="0 0 {_f(self.width)} {_f(self.height)}">\n'
            f"{body}\n</svg>\n"
        )


def _plane_mapper(region: tuple[float, float, float, float]):
    x0, y0, x1, y1 = region
    if not (x1 > x0 and y1 > y0):
        raise InputError(f"region must have positive area, got {region}")
    span = max(x1 - x0, y1 - y0)
    scale = (_PLANE_SIZE - 2.0 * _MARGIN) / span
    width = (x1 - x0) * scale + 2.0 * _MARGIN
    height = (y1 - y0) * scale + 2.0 * _MARGIN

    def to_svg(z: complex) -> tuple[float, float]:
        return (
            _MARGIN + (z.real - x0) * scale,
            _MARGIN + (y1 - z.imag) * scale,
        )

    return to_svg, width, height, scale


def _polyline_attr(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{_f(x)},{_f(y)}" for x, y in points)


def _arrowhead(
    tip: tuple[float, float], direction: complex, size: float, color: str
) -> str:
    d = direction / abs(direction)
    left = -d * complex(math.cos(0.45), math.sin(0.45))
    right = -d * complex(math.cos(-0.45), math.sin(-0.45))
    pts = [
        tip,
        (tip[0] + size * left.real, tip[1] + size * left.imag),
        (tip[0] + size * right.real, tip[1] + size * right.imag),
    ]
    return f'<polygon points="{_polyline_attr(pts)}" fill="{color}"/>'


def render_plane_svg(
    graph: CrossingGraph,
    loop: LoopPath | None,
    branch: BranchData,
) -> str:
    """SVG of the crossing locus, the branch points, and an optional loop."""
    to_svg, width, height, scale = _plane_mapper(graph.region)
    frags: list[str] = [
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>'
    ]

    for cell in graph.flagged:
        ax, ay = to_svg(complex(cell[0], cell[3]))
        w = (cell[2] - cell[0]) * scale
        h = (cell[3] - cell[1]) * scale
        frags.append(
            f'<rect x="{_f(ax)}" y="{_f(ay)}" width="{_f(w)}" height="{_f(h)}" '
            'fill="#fdd835" fill-opacity="0.45" stroke="none"/>'
        )

    seen_labels: list[int] = []
    for seg in graph.segments:
        if seg.label not in seen_labels:
            seen_labels.append(seg.label)
    seen_labels.sort()

    for edge in graph.edges:
        color = label_color(edge.label)
        pts = [to_svg(p) for p in edge.points]
        frags.append(
            f'<polyline points="{_polyline_attr(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="2.2"/>'
        )
        mid_index = len(edge.points) // 2
        a = edge.points[max(mid_index - 1, 0)]
        b = edge.points[min(mid_index, len(edge.points) - 1)]
        if a == b and len(edge.points) > 1:
            a, b = edge.points[0], edge.points[-1]
        tangent = b - a
        if tangent != 0:
            normal = 1j * tangent / abs(tangent)
            mid = 0.5 * (a + b)
            base = to_svg(mid)
            tip_plane = mid + normal * (9.0 / scale)
            tip = to_svg(tip_plane)
            frags.append(
                f'<line x1="{_f(base[0])}" y1="{_f(base[1])}" '
                f'x2="{_f(tip[0])}" y2="{_f(tip[1])}" '
                f'stroke="{color}" stroke-width="1.4"/>'
            )
            # Screen coordinates flip the vertical axis.
            screen_dir = complex(normal.real, -normal.imag)
            frags.append(_arrowhead(tip, screen_dir, 5.0, color))

    for v in graph.vertices:
        x, y = to_svg(v)
        frags.append(
            f'<path d="M {_f(x - 5)} {_f(y - 5)} L {_f(x + 5)} {_f(y + 5)} '
            f'M {_f(x - 5)} {_f(y + 5)} L {_f(x + 5)} {_f(y - 5)}" '
            'stroke="#000000" stroke-width="1.8" class="branch-point"/>'
        )

    if loop is not None:
        count = _LOOP_SAMPLES_PER_PRIMITIVE * len(loop.primitives)
        ts = np.linspace(0.0, 1.0, count + 1)
        pts = [to_svg(complex(z)) for z in loop.sample_points(ts)]
        frags.append(
            f'<polyline points="{_polyline_attr(pts)}" fill="none" '
            'stroke="#111111" stroke-width="1.6" stroke-dasharray="7,3" class="loop"/>'
        )
        for t in (0.125, 0.375, 0.625, 0.875):
            tip = to_svg(loop.point_at(t))
            d = loop.direction_at(t)
            screen_dir = complex(d.real, -d.imag)
            frags.append(_arrowhead(tip, screen_dir, 7.0, "#111111"))
        bx, by = to_svg(loop.point_at(0.0))
        frags.append(
            f'<circle cx="{_f(bx)}" cy="{_f(by)}" r="4.0" fill="#111111" '
            'class="basepoint"/>'
        )

    legend_x = width - _MARGIN - 86.0
    legend_y = _MARGIN * 0.35
    frags.append(
        f'<g class="legend" font-family="sans-serif" font-size="13">'
    )
    row = 0
    for label in seen_labels:
        y = legend_y + 18.0 * row
        frags.append(
            f'<line x1="{_f(legend_x)}" y1="{_f(y)}" x2="{_f(legend_x + 26)}" '
            f'y2="{_f(y)}" stroke="{label_color(label)}" stroke-width="3"/>'
        )
        frags.append(
            f'<text x="{_f(legend_x + 34)}" y="{_f(y + 4.5)}" '
            f'fill="#111111">s{label}</text>'
        )
        row += 1
    y = legend_y + 18.0 * row
    frags.append(
        f'<path d="M {_f(legend_x + 9)} {_f(y - 4)} L {_f(legend_x + 17)} {_f(y + 4)} '
        f'M {_f(legend_x + 9)} {_f(y + 4)} L {_f(legend_x + 17)} {_f(y - 4)}" '
        'stroke="#000000" stroke-width="1.8"/>'
    )
    frags.append(
        f'<text x="{_f(legend_x + 34)}" y="{_f(y + 4.5)}" fill="#111111">'
        "branch point</text>"
    )
    frags.append("</g>")

    scene = RenderScene(width, height, scale, tuple(frags))
    return scene.document()


_SLOT = 64.0
_GAP = 44.0
_BRAID_MARGIN = 34.0


def render_braid_svg(word: BraidWord) -> str:
    """SVG braid diagram: strand 1 on top, positive s_k puts strand k+1 over k.

    Each letter becomes one crossing column; negative letters carry the class
    ``crossing neg`` (and positive ``crossing pos``) so both kinds can be
    counted in the output.
    """
    n = word.strands
    m = len(word.letters)
    width = 2.0 * _BRAID_MARGIN + _SLOT * max(m, 1)
    height = 2.0 * _BRAID_MARGIN + _GAP * (n - 1)

    def row_y(row: int) -> float:
        return _BRAID_MARGIN + _GAP * (row - 1)

    frags: list[str] = [
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>'
    ]
    # occupancy[row - 1] = strand id currently in that row; ids fix colors
    occupancy = list(range(1, n + 1))
    xs = _BRAID_MARGIN

    def strand_color(strand_id: int) -> str:
        return PALETTE[(strand_id - 1) % len(PALETTE)]

    for letter in word.letters:
        x0, x1 = xs, xs + _SLOT
        k = letter.index
        for row in range(1, n + 1):
            if row in (k, k + 1):
                continue
            y = row_y(row)
            frags.append(
                f'<line x1="{_f(x0)}" y1="{_f(y)}" x2="{_f(x1)}" y2="{_f(y)}" '
                f'stroke="{strand_color(occupancy[row - 1])}" stroke-width="2.4"/>'
            )
        y_top, y_bot = row_y(k), row_y(k + 1)
        top_id = occupancy[k - 1]
        bot_id = occupancy[k]
        rising = (
            f'<line x1="{_f(x0)}" y1="{_f(y_bot)}" x2="{_f(x1)}" y2="{_f(y_top)}" '
            f'stroke="{strand_color(bot_id)}" stroke-width="2.4"/>'
        )
        mid_x, mid_y = 0.5 * (x0 + x1), 0.5 * (y_top + y_bot)
        dx, dy = 0.23 * (x1 - x0), 0.23 * (y_bot - y_top)
        falling_broken = (
            f'<line x1="{_f(x0)}" y1="{_f(y_top)}" '
            f'x2="{_f(mid_x - dx)}" y2="{_f(mid_y - dy)}" '
            f'stroke="{strand_color(top_id)}" stroke-width="2.4"/>'
            f'<line x1="{_f(mid_x + dx)}" y1="{_f(mid_y + dy)}" '
            f'x2="{_f(x1)}" y2="{_f(y_bot)}" '
            f'stroke="{strand_color(top_id)}" stroke-width="2.4"/>'
        )
        falling_full = (
            f'<line x1="{_f(x0)}" y1="{_f(y_top)}" x2="{_f(x1)}" y2="{_f(y_bot)}" '
            f'stroke="{strand_color(top_id)}" stroke-width="2.4"/>'
        )
        rising_broken = (
            f'<line x1="{_f(x0)}" y1="{_f(y_bot)}" '
            f'x2="{_f(mid_x - dx)}" y2="{_f(mid_y + dy)}" '
            f'stroke="{strand_color(bot_id)}" stroke-width="2.4"/>'
            f'<line x1="{_f(mid_x + dx)}" y1="{_f(mid_y - dy)}" '
            f'x2="{_f(x1)}" y2="{_f(y_top)}" '
            f'stroke="{strand_color(bot_id)}" stroke-width="2.4"/>'
        )
        if letter.sign > 0:
            cls = "crossing pos"
            body = falling_broken + rising
        else:
            cls = "crossing neg"
            body = rising_broken + falling_full
        frags.append(f'<g class="{cls}">{body}</g>')
        occupancy[k - 1], occupancy[k] = occupancy[k], occupancy[k - 1]
        xs = x1

    if m == 0:
        for row in range(1, n + 1):
            y = row_y(row)
            frags.append(
                f'<line x1="{_f(_BRAID_MARGIN)}" y1="{_f(y)}" '
                f'x2="{_f(width - _BRAID_MARGIN)}" y2="{_f(y)}" '
                f'stroke="{strand_color(row)}" stroke-width="2.4"/>'
            )
    else:
        # short leads on both ends so strands are visible beyond the letters
        for row in range(1, n + 1):
            y = row_y(row)
            frags.append(
                f'<line x1="{_f(_BRAID_MARGIN - 12)}" y1="{_f(y)}" '
                f'x2="{_f(_BRAID_MARGIN)}" y2="{_f(y)}" '
                f'stroke="#555555" stroke-width="2.4"/>'
            )
            frags.append(
                f'<line x1="{_f(xs)}" y1="{_f(y)}" '
                f'x2="{_f(xs + 12)}" y2="{_f(y)}" '
                f'stroke="#555555" stroke-width="2.4"/>'
            )

    for row in range(1, n + 1):
        y = row_y(row)
        frags.append(
            f'<text x="{_f(6.0)}" y="{_f(y + 4.5)}" font-family="sans-serif" '
            f'font-size="12" fill="#111111">{row}</text>'
        )

    scene = RenderScene(width, height, 1.0, tuple(frags))
    return scene.document()
