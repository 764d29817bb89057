"""Sampled picture of the crossing locus: where two strands trade places.

Over the region of interest, the set of z whose fiber has two roots sharing a
rotated real part forms a system of curves attached to the branch points.  A
loop's braid word is readable from its successive transversal crossings of
those curves: each curve carries a strand position label k and a direction,
which alone carries its co-orientation: a loop crossing a curve from right
to left reads the positive letter.  Equal-label segments chain head to tail
into whole labeled curves.  This module extracts that picture on a grid and
turns it back into words, which gives a second, independent route to the
braid word of a loop.

Extraction is by continuation on grid edges, one subdivision level at a time.
Lattice fibers come from :func:`quasibraid.fibers.sweep`, sorted by rotated
real part; an edge whose end orders differ by one adjacent transposition
carries a crossing, other edges are halved until their pieces do, and all the
crossings on a level's edges of one direction are closed together by the
crossing corrector :func:`quasibraid.fibers.bisect_crossings`, from fibers
solved afresh at both ends of each piece, with z'(t) = b - a along the piece
a -> b.  A piece closes within 2^-48 of its length, or at the first iterate
where the rotated gap is rounding; its iterates correct the tracked pair by
Newton and solve no fiber unless a certificate fails.  Equal-label
crossings on a cell's sides are joined by straight segments; cells that
cannot be resolved that way form the next level, up to a bounded depth, and
are then flagged.  Cells containing a branch point are excluded, so curve
ends near them stop at the cell boundary.
A curve of the locus ends only there or at the lattice's sides; a chain that
stops anywhere else shows cells that disagree about what crosses their shared
side (an edge crossed twice shows no swap at its ends), so the lattice cells
around that end are flagged too and their segments dropped.

The grid is jittered by a fixed sub-cell offset so that lattice nodes and
grid lines do not land exactly on symmetric loci such as the real axis.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .branch import BranchData
from .errors import InputError, NumericalFailure
from .fibers import bisect_crossings, orders, root_gaps, solve, step, swaps, sweep
from .paths import LoopPath, bounding_box, segment_crossings
from .poly import BivariatePolynomial
from .words import BraidLetter, BraidWord

__all__ = [
    "LabeledSegment",
    "GraphEdge",
    "CrossingGraph",
    "sample_crossing_graph",
    "crossings_of",
    "graph_to_json",
    "graph_from_json",
]

_JITTER_X = (math.sqrt(2.0) - 1.0) / 4.0
_JITTER_Y = (math.sqrt(3.0) - 1.0) / 4.0
_MAX_CELL_DEPTH = 3
_EDGE_SPLIT_DEPTH = 12


@dataclass(frozen=True)
class LabeledSegment:
    """One straight piece of the locus with its strand position label.  It
    runs so that a loop crossing it from right to left reads the positive
    letter."""

    start: complex
    end: complex
    label: int

    @property
    def normal(self) -> complex:
        """Unit normal whose traversal direction reads the positive letter:
        the counterclockwise perpendicular of start -> end."""
        chord = self.end - self.start
        return 1j * chord / abs(chord)


@dataclass(frozen=True)
class GraphEdge:
    """A chained polyline of equal-label segments, each in its own direction,
    so the positive-reading side is left of the travel along ``points``."""

    label: int
    points: tuple[complex, ...]


@dataclass(frozen=True)
class CrossingGraph:
    segments: tuple[LabeledSegment, ...]
    edges: tuple[GraphEdge, ...]
    vertices: tuple[complex, ...]
    region: tuple[float, float, float, float]
    resolution: int
    flagged: tuple[tuple[float, float, float, float], ...]
    strands: int
    theta: float

    def __post_init__(self) -> None:
        for seg in self.segments:
            if not (1 <= seg.label <= self.strands - 1):
                raise InputError(
                    f"segment label {seg.label} outside 1..{self.strands - 1}"
                )

    @cached_property
    def _segment_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of every segment, built once per graph."""
        starts = np.array([seg.start for seg in self.segments], dtype=complex)
        ends = np.array([seg.end for seg in self.segments], dtype=complex)
        return starts, ends


def _sorted(fibers: np.ndarray, rot: complex) -> np.ndarray:
    return np.take_along_axis(fibers, orders(fibers, rot), axis=-1)


def _edge_events(
    f: BivariatePolynomial,
    rot: complex,
    a_pts: np.ndarray,
    b_pts: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    tie_floor: np.ndarray,
) -> tuple[dict[int, list[tuple[complex, int, int]]], set[int]]:
    """Crossing events per edge index, in order along the edge; second return
    is unresolved edges.  Edges run from ``a_pts`` to ``b_pts``, a stack of
    grids (g, ...) numbered row-major, with sorted end fibers ``fa``, ``fb``.

    Pieces whose end orders differ by one adjacent swap are closed in one batch
    after all split depths; others are halved, up to ``_EDGE_SPLIT_DEPTH``
    times.  A rotated real-part tie below ``tie_floor[g]`` at a piece end, or
    a piece left unsplit, leaves its edge unresolved, with no events.
    """
    per_grid = a_pts[0].size
    a_pts, b_pts = a_pts.ravel(), b_pts.ravel()
    fa, fb = fa.reshape(len(a_pts), -1), fb.reshape(len(a_pts), -1)
    edge = np.arange(len(a_pts))
    start = np.broadcast_to(0.0, edge.shape)  # in edge lengths; no copy until split
    unresolved = np.zeros(len(a_pts), dtype=bool)
    simple = []
    for depth in range(_EDGE_SPLIT_DEPTH + 1):
        untied = tie_floor[edge // per_grid] <= np.minimum(
            *(np.diff((rot * v).real, axis=-1).min(axis=-1) for v in (fa, fb))
        )
        sel, _, ok = step(fa, fb, root_gaps(fa))
        # Both fibers are sorted, so sel maps each position of a to its strand's
        # position in b; a set of disjoint swaps is its own inverse.
        valid, pairs = swaps(np.arange(fa.shape[-1]), sel)
        count = pairs.sum(axis=-1)
        resolved = untied & ok & valid & (count <= 1)
        one = np.flatnonzero(resolved & (count == 1))
        simple.append((edge[one], start[one], a_pts[one], b_pts[one], pairs[one].argmax(axis=-1)))
        split = untied & ~resolved
        unresolved[edge[~untied | (split & (depth == _EDGE_SPLIT_DEPTH))]] = True
        # Each piece is judged alone, so the pieces of an unresolved edge go.
        split = np.flatnonzero(split & ~unresolved[edge])
        if split.size == 0:
            break
        a, b = a_pts[split], b_pts[split]
        mid = 0.5 * (a + b)
        fm = _sorted(solve(f, mid), rot)
        edge = np.tile(edge[split], 2)
        start = np.concatenate([start[split], start[split] + 0.5 ** (depth + 1)])
        a_pts, b_pts = np.concatenate([a, mid]), np.concatenate([mid, b])
        fa, fb = np.concatenate([fa[split], fm]), np.concatenate([fm, fb[split]])

    edge, start, a, b, p = (np.concatenate(parts) for parts in zip(*simple))
    keep = np.lexsort((start, edge))
    keep = keep[~unresolved[edge[keep]]]
    edge, a, b, p = edge[keep], a[keep], b[keep], p[keep]
    rows = np.arange(len(p))
    # A solve gives the same bits whatever its batch, so brackets that start
    # from solved ends find crossings that do not depend on how fa, fb were found.
    ends = _sorted(solve(f, np.concatenate([a, b])), rot)
    ref, far = ends[: len(p)], ends[len(p) :]
    _, z_star, _, _, sign = bisect_crossings(
        f,
        rot,
        lambda ts, idx: (a[idx] + (b[idx] - a[idx]) * ts, b[idx] - a[idx]),
        ref[rows, p],
        ref[rows, p + 1],
        far[rows, p + 1],
        far[rows, p],
        np.zeros(len(p)),
        np.ones(len(p)),
    )
    events: dict[int, list[tuple[complex, int, int]]] = {}
    for e, z, label, s in zip(edge.tolist(), z_star, (p + 1).tolist(), sign.tolist()):
        events.setdefault(e, []).append((complex(z), label, s))
    return events, set(np.flatnonzero(unresolved).tolist())


def _oriented(
    z1: complex,
    z2: complex,
    demands: list[tuple[complex, int]],
) -> tuple[complex, complex] | None:
    """The ends ordered so that the counterclockwise perpendicular n of
    start -> end has dot(n, sign * axis) > 0 for every edge demand."""
    chord = z2 - z1
    if abs(chord) == 0:
        return None
    perp = 1j * chord / abs(chord)
    votes = set()
    for axis, sign in demands:
        dot = (perp.conjugate() * (sign * axis)).real
        if abs(dot) < 0.05:
            return None
        votes.add(dot > 0)
    if len(votes) != 1:
        return None
    return (z1, z2) if votes.pop() else (z2, z1)


def _extract(
    f: BivariatePolynomial,
    rot: complex,
    branch_values: tuple[complex, ...],
    xs: np.ndarray,
    ys: np.ndarray,
    segments: list[LabeledSegment],
    flagged: list[tuple[float, float, float, float]],
    excluded: list[tuple[float, float, float, float]],
) -> None:
    """Build one cell depth at a time.  A level is a stack of equal grids: the
    lattice, then the 3 x 3 grids of the cells the level before could not
    resolve, in the order a depth-first walk would visit them."""
    xs, ys = xs[None], ys[None]
    for depth in range(_MAX_CELL_DEPTH + 1):
        nx, ny = xs.shape[1], ys.shape[1]
        grid = xs[:, None, :] + 1j * ys[:, :, None]
        fibers = np.stack([_sorted(sweep(f, g), rot) for g in grid])
        tie_floor = 1e-11 * np.maximum(1.0, np.abs(fibers).max(axis=(1, 2, 3)))

        # Edge (g, j, i) -> (g, j, i+1) is number (g*ny + j)*(nx-1) + i, edge
        # (g, j, i) -> (g, j+1, i) is v0 + (g*(ny-1) + j)*nx + i.  Reading the two
        # sets one after the other halves the peak of the per-edge arrays.
        v0 = len(grid) * ny * (nx - 1)
        events: dict[int, list[tuple[complex, int, int]]] = {}
        bad_edges: set[int] = set()
        for offset, a, b in (
            (0, np.s_[:, :, :-1], np.s_[:, :, 1:]),
            (v0, np.s_[:, :-1, :], np.s_[:, 1:, :]),
        ):
            found, bad = _edge_events(f, rot, grid[a], grid[b], fibers[a], fibers[b], tie_floor)
            events.update((offset + e, ev) for e, ev in found.items())
            bad_edges.update(offset + e for e in bad)

        # A cell whose four edges carry no event and none of which is unresolved
        # contributes nothing, so only cells touching such an edge are visited,
        # grid by grid in row-major order, which fixes the order of flags.
        touched = np.zeros(v0 + len(grid) * (ny - 1) * nx, dtype=bool)
        touched[[*events, *bad_edges]] = True
        rows, cols = touched[:v0].reshape(-1, ny, nx - 1), touched[v0:].reshape(-1, ny - 1, nx)
        active = rows[:, :-1] | rows[:, 1:] | cols[:, :, :-1] | cols[:, :, 1:]
        sub_x, sub_y = [], []
        for g, j, i in np.argwhere(active).tolist():
            x, y = xs[g], ys[g]
            rect = (float(x[i]), float(y[j]), float(x[i + 1]), float(y[j + 1]))
            if any(
                rect[0] <= z.real <= rect[2] and rect[1] <= z.imag <= rect[3]
                for z in branch_values
            ):
                excluded.append(rect)
                continue
            h = (g * ny + j) * (nx - 1) + i
            v = v0 + (g * (ny - 1) + j) * nx + i
            edge_ids = ((h, 1.0 + 0.0j), (h + nx - 1, 1.0 + 0.0j), (v, 1j), (v + 1, 1j))
            bad = any(idx in bad_edges for idx, _ in edge_ids)
            found: dict[int, list[tuple[complex, complex, int]]] = {}
            built: list[LabeledSegment] = []
            if not bad:
                for idx, axis in edge_ids:
                    for z_star, label, sign in events.get(idx, ()):
                        found.setdefault(label, []).append((z_star, axis, sign))
                for label, items in found.items():
                    if len(items) != 2:
                        bad = True
                        break
                    (z1, ax1, s1), (z2, ax2, s2) = items
                    if abs(z1 - z2) < 1e-9 * max(abs(x[i + 1] - x[i]), 1.0):
                        continue
                    ends = _oriented(z1, z2, [(ax1, s1), (ax2, s2)])
                    if ends is None:
                        bad = True
                        break
                    built.append(LabeledSegment(*ends, label))
            if not bad:
                segments.extend(built)
            elif depth == _MAX_CELL_DEPTH:
                flagged.append(rect)
            else:
                sub_x.append(np.linspace(x[i], x[i + 1], 3))
                sub_y.append(np.linspace(y[j], y[j + 1], 3))
        if not sub_x:
            break
        xs, ys = np.array(sub_x), np.array(sub_y)


def _rect(values: Iterable, what: str) -> tuple[float, float, float, float]:
    """``values`` as a rectangle (x0, y0, x1, y1) of finite numbers with
    x1 > x0 and y1 > y0, else an :class:`InputError` naming ``what``."""
    x0, y0, x1, y1 = (float(v) for v in values)
    if not (x1 > x0 and y1 > y0 and all(map(math.isfinite, (x0, y0, x1, y1)))):
        raise InputError(f"{what} must be finite numbers with x1 > x0 and y1 > y0")
    return x0, y0, x1, y1


def _centre(rect: tuple[float, float, float, float]) -> complex:
    return complex((rect[0] + rect[2]) / 2.0, (rect[1] + rect[3]) / 2.0)


def _inside(z: complex, rect: tuple[float, float, float, float], tol: float = 0.0) -> bool:
    x0, y0, x1, y1 = rect
    return x0 - tol <= z.real <= x1 + tol and y0 - tol <= z.imag <= y1 + tol


def _torn_cells(
    edges: tuple[GraphEdge, ...],
    xs: np.ndarray,
    ys: np.ndarray,
    stops: list[tuple[float, float, float, float]],
    tol: float,
) -> list[tuple[float, float, float, float]]:
    """Lattice cells touching a chain end that lies on no lattice side and on
    no side of a branch or flagged cell in ``stops``, in row-major order."""
    nx, ny = len(xs), len(ys)
    outer = (float(xs[0]), float(ys[0]), float(xs[-1]), float(ys[-1]))
    torn: set[tuple[int, int]] = set()
    for edge in edges:
        first, last = edge.points[0], edge.points[-1]
        if _quantize(first, tol) == _quantize(last, tol):
            continue
        for z in (first, last):
            if not _inside(z, outer, -tol) or any(_inside(z, r, tol) for r in stops):
                continue
            i_lo = max(int(np.searchsorted(xs, z.real - tol)) - 1, 0)
            i_hi = min(int(np.searchsorted(xs, z.real + tol, side="right")) - 1, nx - 2)
            j_lo = max(int(np.searchsorted(ys, z.imag - tol)) - 1, 0)
            j_hi = min(int(np.searchsorted(ys, z.imag + tol, side="right")) - 1, ny - 2)
            torn.update(
                (j, i) for j in range(j_lo, j_hi + 1) for i in range(i_lo, i_hi + 1)
            )
    return [
        (float(xs[i]), float(ys[j]), float(xs[i + 1]), float(ys[j + 1]))
        for j, i in sorted(torn)
    ]


def _quantize(z: complex, unit: float) -> tuple[int, int]:
    return (int(round(z.real / unit)), int(round(z.imag / unit)))


def _chain_segments(segments: Iterable[LabeledSegment], join_tol: float) -> tuple[GraphEdge, ...]:
    """Join segments of equal label head to tail into polylines.

    A segment continues the one ending where it starts when exactly one
    segment of the label ends and exactly one starts there; any other node
    ends a chain.  Each label's segments are ordered by their ends on the
    ``join_tol`` grid, so a point that moves by rounding reorders nothing;
    open chains are walked from their first segment, then closed ones from
    their first segment.
    """
    by_label: dict[int, list[LabeledSegment]] = {}
    for seg in segments:
        by_label.setdefault(seg.label, []).append(seg)

    edges: list[GraphEdge] = []
    for label, group in sorted(by_label.items()):
        group.sort(key=lambda seg: (_quantize(seg.start, join_tol), _quantize(seg.end, join_tol)))
        starting: dict[tuple[int, int], list[int]] = {}
        ending: dict[tuple[int, int], list[int]] = {}
        for idx, seg in enumerate(group):
            starting.setdefault(_quantize(seg.start, join_tol), []).append(idx)
            ending.setdefault(_quantize(seg.end, join_tol), []).append(idx)
        successor: dict[int, int] = {}
        for node, outs in starting.items():
            ins = ending.get(node, [])
            if len(outs) == 1 and len(ins) == 1:
                successor[ins[0]] = outs[0]
        continued = set(successor.values())
        used = [False] * len(group)
        firsts = [i for i in range(len(group)) if i not in continued]
        for first in firsts + list(range(len(group))):
            if used[first]:
                continue
            points = [group[first].start]
            idx: int | None = first
            while idx is not None and not used[idx]:
                used[idx] = True
                points.append(group[idx].end)
                idx = successor.get(idx)
            edges.append(GraphEdge(label=label, points=tuple(points)))
    return tuple(edges)


def _edge_segments(edges: Iterable[GraphEdge]) -> tuple[LabeledSegment, ...]:
    """Every consecutive point pair of every edge, in edge order.  The
    graph's segments are read off its edges, so a chain joint is one point."""
    return tuple(
        LabeledSegment(a, b, e.label) for e in edges for a, b in zip(e.points, e.points[1:])
    )


def sample_crossing_graph(
    f: BivariatePolynomial,
    branch: BranchData,
    region: tuple[float, float, float, float],
    resolution: int,
) -> CrossingGraph:
    """Extract the labeled crossing locus over a rectangle.

    ``region`` is four finite numbers (x0, y0, x1, y1) and ``resolution`` the
    integer number of cells per side.  Branch points outside the region only
    earn a warning: the sampled picture is then partial.
    """
    x0, y0, x1, y1 = _rect(region, "region")
    if not isinstance(resolution, numbers.Integral) or resolution < 4:
        raise InputError("resolution must be an integer of at least 4")
    resolution = int(resolution)
    values = branch.values()
    for z in values:
        if not (x0 <= z.real <= x1 and y0 <= z.imag <= y1):
            warnings.warn(
                f"branch point {z:.6g} lies outside the sampled region",
                stacklevel=2,
            )
            break
    rot = complex(math.cos(branch.rotation_theta), math.sin(branch.rotation_theta))
    dx = (x1 - x0) / resolution
    dy = (y1 - y0) / resolution
    xs = x0 + (np.arange(resolution + 2) - 0.5 + _JITTER_X) * dx
    ys = y0 + (np.arange(resolution + 2) - 0.5 + _JITTER_Y) * dy

    segments: list[LabeledSegment] = []
    flagged: list[tuple[float, float, float, float]] = []
    excluded: list[tuple[float, float, float, float]] = []
    _extract(f, rot, values, xs, ys, segments, flagged, excluded)

    join_tol = 1e-7 * min(dx, dy)
    edges = _chain_segments(segments, join_tol)
    torn = _torn_cells(edges, xs, ys, flagged + excluded, join_tol)
    if torn:
        # A torn cell replaces the segments and the flagged cells inside it.
        segments = [
            s for s in segments if not any(_inside(0.5 * (s.start + s.end), t) for t in torn)
        ]
        flagged = [r for r in flagged if not any(_inside(_centre(r), t) for t in torn)] + torn
        edges = _chain_segments(segments, join_tol)
    vertices = tuple(values) + tuple(_centre(r) for r in flagged)
    return CrossingGraph(
        segments=_edge_segments(edges),
        edges=edges,
        vertices=vertices,
        region=(x0, y0, x1, y1),
        resolution=resolution,
        flagged=tuple(flagged),
        strands=f.w_degree,
        theta=branch.rotation_theta,
    )


def _first_entered_cell(
    loop: LoopPath, cells: tuple[tuple[float, float, float, float], ...]
) -> int | None:
    """Index of the first cell that a closed loop crosses a side of or, not
    crossing any, lies in; or None."""
    if not cells:
        return None
    x0, y0, x1, y1 = np.array(cells).T
    corners = np.array(
        [[complex(a, b), complex(c, b), complex(c, d), complex(a, d)] for a, b, c, d in cells]
    )
    starts, ends = corners.ravel(), np.roll(corners, -1, axis=1).ravel()
    z = loop.basepoint
    inside = (x0 <= z.real) & (z.real <= x1) & (y0 <= z.imag) & (z.imag <= y1)
    entered = set(np.flatnonzero(inside).tolist())
    for prim in loop.primitives:
        entered.update(j // 4 for _, j in segment_crossings(prim, starts, ends))
    return min(entered, default=None)


def crossings_of(graph: CrossingGraph, loop: LoopPath) -> BraidWord:
    """Read a loop's braid word from its crossings of the sampled locus.

    Each loop primitive meets all locus segments in one
    :func:`quasibraid.paths.segment_crossings` call.  Crossings are ordered
    by loop parameter; each contributes the label's letter with the sign of
    the dot product between the loop direction and the co-orientation
    normal.  Near-tangent crossings and visits to flagged cells are errors,
    since the picture cannot be trusted there.
    """
    if not loop.closed:
        raise InputError("braid words are read along closed loops")
    x0, y0, x1, y1 = graph.region
    bx0, by0, bx1, by1 = bounding_box(loop.primitives)
    if not (x0 <= bx0 and y0 <= by0 and bx1 <= x1 and by1 <= y1):
        raise InputError("loop leaves the sampled region")
    entered = _first_entered_cell(loop, graph.flagged)
    if entered is not None:
        raise NumericalFailure(
            "loop enters a flagged cell where the sampled locus is unreliable",
            diagnostics={"cell": list(graph.flagged[entered]), "cell_index": entered},
        )

    segments = graph.segments
    starts, ends = graph._segment_ends
    hits: list[tuple[float, int, int]] = []
    for i, (prim, (t_lo, t_hi)) in enumerate(zip(loop.primitives, loop.primitive_spans())):
        for s_prim, j in segment_crossings(prim, starts, ends):
            seg = segments[j]
            t = t_lo + (t_hi - t_lo) * s_prim
            dot = (seg.normal.conjugate() * prim.direction(s_prim)).real
            if abs(dot) < 1e-9:
                raise NumericalFailure(
                    "loop is tangent to a locus segment; the reading is "
                    "not transversal",
                    diagnostics={"t": t, "label": seg.label, "segment": j, "primitive": i},
                )
            hits.append((t, seg.label, 1 if dot > 0 else -1))

    hits.sort(key=lambda h: (h[0], h[1]))
    letters = tuple(BraidLetter(label, sign) for _, label, sign in hits)
    return BraidWord(graph.strands, letters)


def graph_to_json(graph: CrossingGraph) -> dict:
    return {
        "strands": graph.strands,
        "theta": graph.theta,
        "region": list(graph.region),
        "resolution": graph.resolution,
        "vertices": [[v.real, v.imag] for v in graph.vertices],
        "edges": [
            {
                "label": e.label,
                "points": [[p.real, p.imag] for p in e.points],
            }
            for e in graph.edges
        ],
        "flagged": [list(r) for r in graph.flagged],
    }


def graph_from_json(payload: dict) -> CrossingGraph:
    try:
        strands = int(payload["strands"])
        theta = float(payload["theta"])
        region = _rect(payload["region"], "region")
        resolution = int(payload["resolution"])
        vertices = tuple(complex(v[0], v[1]) for v in payload["vertices"])
        edge_items = payload["edges"]
        flagged = tuple(_rect(r, "a flagged cell") for r in payload["flagged"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed crossing graph JSON: {exc}") from exc
    if strands < 2 or not all(map(cmath.isfinite, vertices)):
        raise InputError("a crossing graph needs at least two strands and finite vertices")
    edges = []
    for item in edge_items:
        try:
            label = int(item["label"])
            points = tuple(complex(p[0], p[1]) for p in item["points"])
            retired = "side" in item
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"malformed crossing graph edge: {exc}") from exc
        if retired:
            raise InputError(
                "crossing graph edge carries the retired 'side' key, whose "
                "meaning the edge direction now carries; re-sample the graph "
                "to write it in the current format"
            )
        if len(points) < 2 or not all(map(cmath.isfinite, points)):
            raise InputError("edge polylines need at least two points, all finite")
        if any(a == b for a, b in zip(points, points[1:])):
            raise InputError("edge polylines need distinct consecutive points")
        edges.append(GraphEdge(label=label, points=points))
    return CrossingGraph(
        segments=_edge_segments(edges),
        edges=tuple(edges),
        vertices=vertices,
        region=region,
        resolution=resolution,
        flagged=flagged,
        strands=strands,
        theta=theta,
    )
