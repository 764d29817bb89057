"""Piecewise paths in the plane built from line segments and circular arcs.

Loops are parametrized by normalized arc length, t in [0, 1], so a uniform
step in t is a uniform step along the curve.  Arcs may span more than one full
turn (used for repeated windings); orientation is counterclockwise when the
end angle exceeds the start angle.  The module also supplies distances,
exact winding numbers, an embeddedness test, and :func:`segment_crossings`,
a sign predicate that decides once per vertex where a batch of segments
crosses a primitive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import InputError

__all__ = [
    "Segment",
    "Arc",
    "Primitive",
    "LoopPath",
    "winding_number",
    "min_distance",
    "bounding_box",
    "reverse_loop",
    "concat_loops",
    "is_embedded",
    "loop_to_json",
    "loop_from_json",
]

@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if not all(map(cmath.isfinite, (self.a, self.b))):
            raise InputError(f"segment endpoints must be finite: {self.a}, {self.b}")
        if self.a == self.b:
            raise InputError("segment endpoints must differ")

    @property
    def length(self) -> float:
        return abs(self.b - self.a)

    @property
    def start(self) -> complex:
        return self.a

    @property
    def end(self) -> complex:
        return self.b

    def point(self, s: float) -> complex:
        return self.a + s * (self.b - self.a)

    def direction(self, s: float) -> complex:
        d = self.b - self.a
        return d / abs(d)

    def reversed(self) -> Segment:
        return Segment(self.b, self.a)


@dataclass(frozen=True)
class Arc:
    """Circular arc; counterclockwise when angle_to > angle_from.

    The angular span may exceed a full turn, in which case the arc retraces
    its circle.
    """

    center: complex
    radius: float
    angle_from: float
    angle_to: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", complex(self.center))
        values = (self.center, self.radius, self.angle_from, self.angle_to)
        if not all(map(cmath.isfinite, values)):
            raise InputError(f"arc center, radius and angles must be finite: {values}")
        if self.radius <= 0:
            raise InputError("arc radius must be positive")
        if self.angle_from == self.angle_to:
            raise InputError("arc must have a nonzero angular span")

    @property
    def span(self) -> float:
        return self.angle_to - self.angle_from

    @property
    def length(self) -> float:
        return self.radius * abs(self.span)

    @property
    def start(self) -> complex:
        return self.center + self.radius * _cis(self.angle_from)

    @property
    def end(self) -> complex:
        return self.center + self.radius * _cis(self.angle_to)

    def point(self, s: float) -> complex:
        return self.center + self.radius * _cis(self.angle_from + s * self.span)

    def direction(self, s: float) -> complex:
        tangent = 1j * _cis(self.angle_from + s * self.span)
        return tangent if self.span > 0 else -tangent

    def reversed(self) -> Arc:
        return Arc(self.center, self.radius, self.angle_to, self.angle_from)


Primitive = Union[Segment, Arc]


def _cis(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class LoopPath:
    """A chain of primitives; consecutive endpoints must coincide.

    ``closed`` additionally requires the last endpoint to match the first
    start.  Loops are not required to be embedded.
    """

    primitives: tuple[Primitive, ...]
    closed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not self.primitives:
            raise InputError("a path needs at least one primitive")
        scale = 1.0 + max(
            max(abs(p.start), abs(p.end)) for p in self.primitives
        )
        tol = 1e-9 * scale
        for prev, nxt in zip(self.primitives, self.primitives[1:]):
            if abs(prev.end - nxt.start) > tol:
                raise InputError(
                    f"path primitives are not contiguous: {prev.end} vs {nxt.start}"
                )
        if self.closed and abs(self.primitives[-1].end - self.primitives[0].start) > tol:
            raise InputError("closed path must return to its starting point")
        lengths = np.array([p.length for p in self.primitives])
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        object.__setattr__(self, "_cumulative", cum)

    @property
    def length(self) -> float:
        return float(self._cumulative[-1])

    @property
    def basepoint(self) -> complex:
        return self.primitives[0].start

    def primitive_spans(self) -> tuple[tuple[float, float], ...]:
        """Normalized (t_start, t_end) of every primitive."""
        total = self.length
        cum = self._cumulative
        return tuple(
            (float(cum[i] / total), float(cum[i + 1] / total))
            for i in range(len(self.primitives))
        )

    def _locate(self, t: float) -> tuple[int, float]:
        total = self.length
        target = min(max(t, 0.0), 1.0) * total
        cum = self._cumulative
        idx = int(np.searchsorted(cum, target, side="right") - 1)
        idx = min(idx, len(self.primitives) - 1)
        seg_len = cum[idx + 1] - cum[idx]
        s = 0.0 if seg_len == 0 else (target - cum[idx]) / seg_len
        return idx, float(s)

    def point_at(self, t: float) -> complex:
        idx, s = self._locate(t)
        return self.primitives[idx].point(s)

    def direction_at(self, t: float) -> complex:
        idx, s = self._locate(t)
        return self.primitives[idx].direction(s)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        """Per primitive: length (1 where it vanishes), origin (segment start
        or arc centre), chord, radius, start angle, span, and whether an arc."""
        lengths = np.diff(self._cumulative)
        rows = [
            (p.center, 0j, p.radius, p.angle_from, p.span, True)
            if isinstance(p, Arc)
            else (p.a, p.b - p.a, 0.0, 0.0, 0.0, False)
            for p in self.primitives
        ]
        return (np.where(lengths == 0, 1.0, lengths), *map(np.array, zip(*rows)))

    def sample_points(self, ts: np.ndarray, tangents: bool = False):
        """Vectorized :meth:`point_at` over an array of parameters; with
        ``tangents``, also dz/dt at each of them, as a second array."""
        ts = np.asarray(ts, dtype=float)
        targets = np.clip(ts, 0.0, 1.0) * self.length
        cum = self._cumulative
        # Inner ends only: t = 1 and absorbed zero-length ends pick the last primitive.
        idxs = np.searchsorted(cum[1:-1], targets, side="right")
        lengths, origin, chord, radius, angle_from, span, arc = (
            table[idxs] for table in self._tables
        )
        s = (targets - cum[idxs]) / lengths
        ang = angle_from + s * span
        turn = np.cos(ang) + 1j * np.sin(ang)
        points = np.where(arc, origin + radius * turn, origin + s * chord)
        if not tangents:
            return points
        # ds/dt is the loop length over the primitive's.
        return points, np.where(arc, 1j * (radius * span) * turn, chord) * (self.length / lengths)


def _foot(seg: Segment, p: complex) -> float:
    """Parameter of the point of ``seg`` nearest to p."""
    d = seg.b - seg.a
    return min(max(((p - seg.a) * d.conjugate()).real / abs(d) ** 2, 0.0), 1.0)


def _angle_params(arc: Arc, psi: float, tol: float = 1e-12) -> list[float]:
    """Local parameters s in [0, 1] at which the arc passes the angle psi.

    Each full turn passes every angle once, its end belonging to the next
    turn; a final partial turn includes both of its ends.
    """
    span = abs(arc.span)
    two_pi = 2.0 * math.pi
    delta = (psi - arc.angle_from if arc.span > 0 else arc.angle_from - psi) % two_pi
    full = int((span + tol) // two_pi)
    offsets = [delta + two_pi * m for m in range(full)]
    rest = span - two_pi * full
    if (rest > tol or not full) and delta <= rest + tol:
        offsets.append(delta + two_pi * full)
    return [min(o / span, 1.0) for o in offsets]


def _arc_distance(arc: Arc, p: complex) -> float:
    rel = p - arc.center
    if abs(arc.span) >= 2.0 * math.pi:
        return abs(abs(rel) - arc.radius)
    if rel == 0:
        return arc.radius
    psi = math.atan2(rel.imag, rel.real)
    if _angle_params(arc, psi):
        return abs(abs(rel) - arc.radius)
    return min(abs(p - arc.start), abs(p - arc.end))


def min_distance(loop: LoopPath, p: complex) -> float:
    return min(
        _arc_distance(prim, p) if isinstance(prim, Arc) else abs(prim.point(_foot(prim, p)) - p)
        for prim in loop.primitives
    )


def _arg_change(prim: Primitive, p: complex) -> float:
    """Exact change of arg(z - p) as z runs along one primitive."""
    if isinstance(prim, Segment):
        # arg((b - p) / (a - p)), read off (b - p) * conj(a - p).
        w = (prim.b - p) * (prim.a - p).conjugate()
        if w.imag == 0 and w.real <= 0:
            raise InputError("winding number undefined for a point on the loop")
        return cmath.phase(w)
    if p in (prim.start, prim.end) or _arc_distance(prim, p) == 0:
        raise InputError("winding number undefined for a point on the loop")
    # z - p = r e^{ia}(1 + q e^{-ia}) inside the circle, (c - p)(1 + q e^{ia}) outside:
    # |q| <= 1 keeps the bracket off the open left half-plane (|q| = 1 only off the arc).
    rel = prim.center - p
    inside = abs(rel) < prim.radius
    q, sign = (rel / prim.radius, -1.0) if inside else (prim.radius / rel, 1.0)
    arg = [cmath.phase(1.0 + q * _cis(sign * a)) for a in (prim.angle_from, prim.angle_to)]
    return (prim.span if inside else 0.0) + arg[1] - arg[0]


def winding_number(loop: LoopPath, p: complex) -> int:
    """Signed number of turns of a closed loop around p, summed from the
    exact argument change along each primitive.  A point on the loop is an
    :class:`InputError`."""
    if not loop.closed:
        raise InputError("winding numbers need a closed loop")
    total = sum(_arg_change(prim, complex(p)) for prim in loop.primitives)
    return round(total / (2.0 * math.pi))


def bounding_box(items: Iterable[complex | Primitive]) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) over points and primitives; arcs use exact extents."""
    xs: list[float] = []
    ys: list[float] = []
    for item in items:
        if isinstance(item, complex):
            xs.append(item.real)
            ys.append(item.imag)
        elif isinstance(item, Segment):
            xs.extend((item.a.real, item.b.real))
            ys.extend((item.a.imag, item.b.imag))
        else:
            xs.extend((item.start.real, item.end.real))
            ys.extend((item.start.imag, item.end.imag))
            for quarter, (dx, dy) in enumerate(
                ((1, 0), (0, 1), (-1, 0), (0, -1))
            ):
                if _angle_params(item, quarter * math.pi / 2.0):
                    xs.append(item.center.real + item.radius * dx)
                    ys.append(item.center.imag + item.radius * dy)
    if not xs:
        raise InputError("bounding box of an empty collection")
    return min(xs), min(ys), max(xs), max(ys)


def bbox_diameter(box: tuple[float, float, float, float]) -> float:
    return math.hypot(box[2] - box[0], box[3] - box[1])


def reverse_loop(loop: LoopPath) -> LoopPath:
    return LoopPath(
        tuple(p.reversed() for p in reversed(loop.primitives)), closed=loop.closed
    )


def concat_loops(*loops: LoopPath) -> LoopPath:
    return LoopPath(tuple(p for loop in loops for p in loop.primitives), closed=True)


def _overlap_middle(a1: Arc, a2: Arc) -> list[complex]:
    """The middle of the common part of two arcs of one circle, if it has length."""
    for x, y in ((a1, a2), (a2, a1)):
        lo = min(y.angle_from, y.angle_to)
        delta = (lo - min(x.angle_from, x.angle_to)) % (2.0 * math.pi)
        if delta < abs(x.span):
            return [x.center + x.radius * _cis(lo + min(abs(x.span) - delta, abs(y.span)) / 2)]
    return []


def primitive_intersections(p1: Primitive, p2: Primitive) -> list[tuple[float, float]]:
    """Local-parameter pairs where two primitives meet.

    A segment's crossings are those of :func:`segment_crossings`, so a touch
    counts by the sides of its vertices; its own parameter is read by
    projection.  Exactly collinear segments and arcs of one circle meet in
    the middle of their overlap.  Two circles meet where the circle-circle
    equations say, tangency included.
    """
    if isinstance(p2, Segment):
        crossed = [s for s, _ in segment_crossings(p1, [p2.a], [p2.b])]
        if isinstance(p1, Segment):
            d = p1.b - p1.a
            ua, ub = (((q - p1.a) * d.conjugate()) / abs(d) ** 2 for q in (p2.a, p2.b))
            lo, hi = max(min(ua.real, ub.real), 0.0), min(max(ua.real, ub.real), 1.0)
            if ua.imag == ub.imag == 0 and lo < hi:
                crossed.append((lo + hi) / 2.0)
        return [(s, _foot(p2, p1.point(s))) for s in crossed]
    if isinstance(p1, Segment):
        return [(s, u) for u, s in primitive_intersections(p2, p1)]
    gap, r1, r2 = p2.center - p1.center, p1.radius, p2.radius
    d = abs(gap)
    if d == 0 and r1 == r2:
        points = _overlap_middle(p1, p2)
    elif abs(r1 - r2) <= d <= r1 + r2:
        along = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
        h = math.sqrt(max(r1 * r1 - along * along, 0.0))
        points = [p1.center + gap / d * complex(along, y) for y in ((h, -h) if h else (h,))]
    else:
        return []
    return [
        (s1, s2)
        for z in points
        for s1 in _angle_params(p1, cmath.phase(z - p1.center))
        for s2 in _angle_params(p2, cmath.phase(z - p2.center))
    ]


def segment_crossings(
    prim: Primitive, starts: np.ndarray, ends: np.ndarray
) -> list[tuple[float, int]]:
    """(s on ``prim``, i) for every crossing of ``prim`` by starts[i] -> ends[i].

    A vertex's side is one sign, left of a segment a -> b or outside an arc's
    circle, taken by the same expression wherever the vertex occurs: a
    crossing through a shared vertex counts once, a touch twice or never.
    Only the angle rule at arc ends takes a tolerance.
    """
    starts, ends = np.asarray(starts, dtype=complex), np.asarray(ends, dtype=complex)
    sx, sy, ex, ey = starts.real, starts.imag, ends.real, ends.imag
    if isinstance(prim, Segment):
        ax, ay, bx, by = prim.a.real, prim.a.imag, prim.b.real, prim.b.imag

        def left(vx, vy):
            return (bx - ax) * (vy - ay) - (by - ay) * (vx - ax) > 0

        # Collinear vertices take their sides from rounding alone; closed
        # boxes keep the disjoint collinear segments out.
        meets = (np.maximum(sx, ex) >= min(ax, bx)) & (np.minimum(sx, ex) <= max(ax, bx))
        meets &= (np.maximum(sy, ey) >= min(ay, by)) & (np.minimum(sy, ey) <= max(ay, by))
        idx = np.flatnonzero((left(sx, sy) != left(ex, ey)) & meets)
        sx, sy, dx, dy = sx[idx], sy[idx], ex[idx] - sx[idx], ey[idx] - sy[idx]
        # The loop ends take their sides of each crossing segment alike.
        ca = dx * (ay - sy) - dy * (ax - sx)
        cb = dx * (by - sy) - dy * (bx - sx)
        hit = (ca > 0) != (cb > 0)
        return list(zip((ca[hit] / (ca[hit] - cb[hit])).tolist(), idx[hit].tolist()))
    cx, cy, r = prim.center.real, prim.center.imag, prim.radius

    def power(vx, vy):
        return (vx - cx) * (vx - cx) + (vy - cy) * (vy - cy) - r * r

    # Along a segment the power is aa u^2 + 2 hb u + power(start).
    rx, ry, dx, dy = sx - cx, sy - cy, ex - sx, ey - sy
    power_s = power(sx, sy)
    out_s, out_e = power_s > 0, power(ex, ey) > 0
    aa, hb = dx * dx + dy * dy, rx * dx + ry * dy
    disc = hb * hb - aa * power_s
    twice = out_s & out_e & (disc > 0) & (-hb > 0) & (-hb < aa)
    hits: list[tuple[float, int]] = []
    for j in np.flatnonzero((out_s != out_e) | twice).tolist():
        root = math.sqrt(max(disc[j], 0.0))
        for sign in (-1.0, 1.0) if twice[j] else (-1.0 if out_s[j] else 1.0,):
            u = min(max((-hb[j] + sign * root) / aa[j], 0.0), 1.0)
            psi = math.atan2(ry[j] + u * dy[j], rx[j] + u * dx[j])
            hits.extend((s, j) for s in _angle_params(prim, psi))
    return hits


def is_embedded(loop: LoopPath) -> bool:
    """Whether the loop has no self-intersections beyond consecutive joints."""
    prims = loop.primitives
    count = len(prims)
    scale = 1.0 + max(max(abs(p.start), abs(p.end)) for p in prims)
    join_tol = 1e-7 * scale
    for prim in prims:
        if isinstance(prim, Arc) and abs(prim.span) > 2.0 * math.pi + 1e-12:
            return False
    for i in range(count):
        for j in range(i + 1, count):
            for s_i, s_j in primitive_intersections(prims[i], prims[j]):
                p = prims[i].point(s_i)
                if j == i + 1 and abs(p - prims[i].end) <= join_tol:
                    continue
                if (
                    loop.closed
                    and i == 0
                    and j == count - 1
                    and abs(p - prims[0].start) <= join_tol
                ):
                    continue
                return False
    return True


def loop_to_json(loop: LoopPath) -> dict:
    segments = []
    for prim in loop.primitives:
        if isinstance(prim, Segment):
            segments.append(
                {
                    "kind": "seg",
                    "a": [prim.a.real, prim.a.imag],
                    "b": [prim.b.real, prim.b.imag],
                }
            )
        else:
            segments.append(
                {
                    "kind": "arc",
                    "center": [prim.center.real, prim.center.imag],
                    "radius": prim.radius,
                    "from": prim.angle_from,
                    "to": prim.angle_to,
                }
            )
    return {"segments": segments, "closed": loop.closed}


def loop_from_json(payload: dict) -> LoopPath:
    try:
        raw = payload["segments"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"loop JSON needs 'segments': {exc}") from exc
    if not isinstance(raw, list):
        raise InputError(f"loop 'segments' must be a list, got {type(raw).__name__}")
    prims: list[Primitive] = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise InputError(f"loop segment entries must be objects, got {entry!r}")
        kind = entry.get("kind")
        try:
            if kind == "seg":
                prims.append(
                    Segment(
                        complex(entry["a"][0], entry["a"][1]),
                        complex(entry["b"][0], entry["b"][1]),
                    )
                )
            elif kind == "arc":
                prims.append(
                    Arc(
                        complex(entry["center"][0], entry["center"][1]),
                        float(entry["radius"]),
                        float(entry["from"]),
                        float(entry["to"]),
                    )
                )
            else:
                raise InputError(f"unknown loop segment kind {kind!r}")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"malformed loop segment {entry!r}: {exc}") from exc
    return LoopPath(tuple(prims), closed=bool(payload.get("closed", True)))
