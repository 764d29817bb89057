"""Root continuation along loops and the braid words it reads off.

Fix a polynomial f(z, w) of w-degree n whose leading w-coefficient is a
nonzero constant, and a loop in the z-plane avoiding the branch locus.  The n
fiber roots move continuously along the loop; sorting them by the real part of
``e^(i*theta) * w`` gives n strand positions, and every swap of two
position-adjacent roots is one braid letter.  The letter index is the lower of
the two positions involved.  The sign convention is: at a swap, strand 1 is
the root whose rotated real part is increasing past the other (the overtaker),
and the letter sign is the sign of ``Im(e^(i*theta) * (w_2 - w_1))``.  With
theta = 0 this reads the counterclockwise unit circle of ``w^2 - z`` as the
single positive letter s1, which pins the convention.

Continuation is one pass of predict, correct and certify on the shared
kernel :mod:`quasibraid.fibers`.  Each chunk of steps is predicted along
dw/dz at the last accepted fiber (-f_z/f_w at the start), corrected in one
batch with the last chunk's step midpoints, and judged by a few kernel calls
up to its first rejected step, which is then halved in place.  A step stands
when nearest matching moves no root a third of the smallest root distance,
which makes the matching provably bijective, its strand orders differ by
disjoint adjacent swaps, and its midpoint agrees with it, so a swap and its
inverse cannot hide inside one step.  The step regrows after ``_REGROW``
accepted steps wherever chunks end, so answers do not depend on the batch
size ``_CHUNK``.  :func:`quasibraid.fibers.bisect_crossings` closes the
bracket of every swap's step in one batch at the end, from the solve's roots
at the step's ends, which a solve rounds the same in any batch.

The module also builds lollipop loops (per-target stick, counterclockwise
circle, stick back) whose crossing events split into conjugator and band
letters, producing a quasipositive factorization of the loop's braid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .branch import BranchData
from .errors import InputError, NumericalFailure
from .fibers import _tracked, bisect_crossings, coefficients, correct, min_gap, solve, step, swaps
from .fibers import orders as strand_orders
from .paths import (
    Arc,
    LoopPath,
    Primitive,
    Segment,
    _cis,
    bbox_diameter,
    bounding_box,
    min_distance,
    winding_number,
)
from .poly import BivariatePolynomial
from .words import (
    Band,
    BraidLetter,
    BraidWord,
    QuasipositiveFactorization,
    expand_factorization,
    free_reduce,
    invert,
)

__all__ = [
    "CrossingEvent",
    "Track",
    "track_roots",
    "braid_along",
    "events_to_jsonl",
    "LollipopSpec",
    "TargetMarks",
    "LollipopLoop",
    "lollipop_loop",
    "qp_factorization",
    "enclosed_count",
]

STEP_CAP_FRACTION = 1.0 / 256.0
BISECTION_T_TOL = 1e-10
BISECTION_MAX_HALVINGS = 64
STEP_UNDERFLOW = 1e-12
CLEARANCE_FLOOR_FACTOR = 1e-3
_CHUNK = 64
_REGROW = 64
RADIUS_RETRIES = 6
_CORRECT_RTOL = 1e-6  # of the root gap: far inside the step rule's third


@dataclass(frozen=True)
class CrossingEvent:
    """One strand swap: parameter t, the lower position index (so the letter
    is s_position), the sign, and the two root values (overtaker first)."""

    t: float
    position: int
    sign: int
    roots: tuple[complex, complex]


@dataclass(frozen=True)
class Track:
    """Continuation result: ordered events plus fiber bookkeeping."""

    events: tuple[CrossingEvent, ...]
    start_roots: tuple[complex, ...]
    end_roots: tuple[complex, ...]
    permutation: tuple[int, ...] | None
    theta: float
    accepted_steps: int


def _clearance_check(branch: BranchData, loop: LoopPath) -> None:
    pts = branch.values()
    if not pts:
        return
    box = bounding_box(list(pts) + list(loop.primitives))
    floor = CLEARANCE_FLOOR_FACTOR * bbox_diameter(box)
    for z in pts:
        d = min_distance(loop, z)
        if d < floor:
            raise InputError(
                f"loop passes within {d:.3e} of branch point "
                f"{z:.6g}; the clearance floor is {floor:.3e}"
            )


def _chunk_ends(t: float, h: float, streak: int) -> np.ndarray:
    """Ends of the next chunk's steps of length h from t: at most ``_CHUNK``,
    up to where ``streak`` reaches ``_REGROW``, the last one ending at t = 1."""
    steps_left = max(1, int(math.ceil((1.0 - t) / h - 1e-12))) if t < 1.0 - 1e-15 else 0
    ts = t + h * np.arange(1, min(_CHUNK, steps_left, _REGROW - streak) + 1)
    if len(ts) == steps_left:
        ts[-1:] = 1.0
    return ts


def track_roots(
    f: BivariatePolynomial,
    branch: BranchData,
    loop: LoopPath,
    step_cap_fraction: float = STEP_CAP_FRACTION,
    stabilize: bool = True,
) -> Track:
    """Continue the fiber roots along the loop and collect crossing events.

    The first step is ``step_cap_fraction`` of the loop length (the cap, in
    (0, 1]).  A rejected step is halved, and the step doubles back toward the
    cap after each ``_REGROW`` accepted steps.  With ``stabilize`` on (the
    default) a step must also agree with its parameter midpoint (see
    :func:`_midpoint_check`), so crossings hiding in pairs get split.  Step
    underflow below 1e-12 of the loop length raises: the loop hugs the branch
    locus or meets the crossing locus non-transversally.  Its diagnostics give
    t, the rejected step h, the gap, its largest move, the primitive index at
    t and the ``rule`` that rejected it: ``move`` or ``order`` at the step's
    end, or the midpoint's ``first half``, ``second half`` or ``swaps``.
    """
    if not 0.0 < step_cap_fraction <= 1.0:
        raise InputError(f"the step cap must lie in (0, 1], not {step_cap_fraction!r}")
    _clearance_check(branch, loop)
    rot = _cis(branch.rotation_theta)
    n = f.w_degree

    z0 = loop.point_at(0.0)
    roots0 = solve(f, np.array([z0]))[0]
    gap0 = min_gap(roots0)
    if gap0 <= 0.0:
        raise InputError("the fiber at the loop start has coincident roots")
    order0 = strand_orders(roots0, rot)
    ordered0 = (rot * roots0[order0]).real
    scale0 = max(1.0, float(np.abs(roots0).max()))
    if n > 1 and float(np.diff(ordered0).min()) < 1e-9 * scale0:
        raise InputError(
            "two roots share a rotated real part at the loop basepoint; "
            "move the basepoint or pick a different rotation"
        )

    # One bracket per swap of an accepted step, in step order: the two
    # strands (lower position first), z and t at the step's start and end, and
    # the letter position, one array each per chunk.
    brackets: list[tuple[np.ndarray, ...]] = []
    t_cur, z_cur, roots_cur, gap_cur, order_cur = 0.0, z0, roots0, gap0, order0
    (f_z, f_w), _ = f.jet(z0, roots0, ((1, 0), (0, 1)))
    h, streak, accepted, velocity = step_cap_fraction, 0, 0, -f_z / f_w
    ahead = None  # the next chunk's ends, points and fibers, corrected with the midpoints

    while t_cur < 1.0 - 1e-15:
        if ahead is None:
            ts = _chunk_ends(t_cur, h, streak)
            zs = loop.sample_points(ts)
            # Predicted on dw/dz at the last accepted fiber: w is analytic in z, even at corners.
            guess = roots_cur + velocity * (zs - z_cur)[:, None]
            fibers = correct(coefficients(f, zs), guess, _CORRECT_RTOL)[0]
        else:
            (ts, zs, fibers), ahead = ahead, None
        count, gaps = len(ts), min_gap(fibers)

        # Matching is blind to the order of the old roots, so every step of
        # the chunk is judged against the raw fiber before it at once; the
        # accepted prefix ends at the first step to fail a rule.
        before = np.concatenate([roots_cur[None], fibers[:-1]])
        sel, moves, ok = step(before, fibers, np.concatenate([[gap_cur], gaps[:-1]]))
        k, rule = (count, "") if ok.all() else (int(np.argmin(ok)), "move")
        perms = np.empty((k, n), dtype=int)
        perm = np.arange(n)
        for i in range(k):
            perm = perms[i] = sel[i][perm]
        tracked = np.take_along_axis(fibers[:k], perms, axis=-1)
        orders = strand_orders(tracked, rot)
        # Row i + 1 of each walk is the end of step i, row 0 the chunk start.
        walk = np.concatenate([roots_cur[None], tracked])
        walk_orders = np.concatenate([order_cur[None], orders])
        walk_t, walk_z = np.concatenate([[t_cur], ts]), np.concatenate([[z_cur], zs])
        valid, pairs = swaps(walk_orders[:-1], orders)
        if not valid.all():
            k, rule = int(np.argmin(valid)), "order"
        h_next, streak_next = (0.5 * h, 0) if k < count else (h, streak + k)
        if streak_next == _REGROW:
            h_next, streak_next = min(step_cap_fraction, 2.0 * h), 0
        if stabilize and k:
            # The midpoint fibers are corrected in one batch with the next
            # chunk, which is planned as if every step stands.
            t_ahead = _chunk_ends(ts[k - 1], h_next, streak_next)
            z = loop.sample_points(np.concatenate([0.5 * (walk_t[:k] + ts[:k]), t_ahead]))
            dw = (walk[k] - walk[k - 1]) / (walk_z[k] - walk_z[k - 1])
            ahead_guess = walk[k] + dw * (z[k:] - walk_z[k])[:, None]
            guess = np.concatenate([0.5 * (walk[:k] + tracked[:k]), ahead_guess])
            raw = correct(coefficients(f, z), guess, _CORRECT_RTOL)[0]
            stands, broken = _midpoint_check(rot, walk[: k + 1], raw[:k], walk_orders[: k + 1])
            if stands == k:
                ahead = t_ahead, z[k:], raw[k:]
            else:
                k, rule, h_next, streak_next = stands, broken, 0.5 * h, 0
        rows, lower = np.nonzero(pairs[:k])
        ends = rows[:, None] + [0, 1]
        strands = walk_orders[rows[:, None], lower[:, None] + [0, 1]]
        roots = walk[ends[..., None], strands[:, None]]
        brackets.append((roots, walk_z[ends], walk_t[ends], lower + 1))

        accepted += k
        if k:
            velocity = (walk[k] - walk[k - 1]) / (walk_z[k] - walk_z[k - 1])
            t_cur, z_cur = float(ts[k - 1]), zs[k - 1]
            roots_cur, gap_cur, order_cur = tracked[k - 1], gaps[k - 1], orders[k - 1]
        if k < count and 0.5 * h < STEP_UNDERFLOW:
            raise NumericalFailure(
                "continuation step underflow: the path runs too close to the branch "
                "locus or meets the crossing locus non-transversally",
                diagnostics={
                    "t": t_cur,
                    "h": h,
                    "gap": float(gap_cur),
                    "max_move": float(moves[k]),
                    "primitive": loop._locate(t_cur)[0],
                    "rule": rule,
                },
            )
        h, streak = h_next, streak_next

    events: list[CrossingEvent] = []
    roots, z_ends, t_ends, positions = map(np.concatenate, zip(*brackets))
    if positions.size:
        # ref_a, ref_b, far_a, far_b from a solve, which rounds the same in any batch.
        ends = _tracked(f, roots.reshape(-1, 2), z_ends.ravel()).reshape(-1, 2, 2)
        t, _, w_a, w_b, sign = bisect_crossings(
            f,
            rot,
            lambda ts, _: loop.sample_points(ts),
            *ends.transpose(1, 2, 0).reshape(4, -1),
            *t_ends.T,
            BISECTION_MAX_HALVINGS,
            BISECTION_T_TOL,
        )
        # Each t lies strictly inside its own step, so one sort keeps step order.
        pairs = zip(w_a.tolist(), w_b.tolist())
        found = map(CrossingEvent, t.tolist(), positions.tolist(), sign.tolist(), pairs)
        events = sorted(found, key=lambda e: (e.t, e.position))

    permutation: tuple[int, ...] | None = None
    if loop.closed:
        sel, max_move, closes = step(roots_cur, roots0, gap0)
        if not closes:
            raise NumericalFailure(
                "could not match the final fiber back to the starting fiber",
                diagnostics={
                    "max_move": float(max_move),
                    "gap0": float(gap0),
                    "bijective": bool(np.unique(sel).size == n),
                },
            )
        # Occupant convention: entry q is the starting position of the strand
        # that finishes at position q.
        pos0 = np.empty(n, dtype=int)
        pos0[order0] = np.arange(1, n + 1)
        images = np.empty(n, dtype=int)
        images[pos0[sel] - 1] = pos0
        permutation = tuple(images.tolist())

    return Track(
        events=tuple(events),
        start_roots=tuple(complex(v) for v in roots0),
        end_roots=tuple(complex(v) for v in _tracked(f, roots_cur[None], np.array([z_cur]))[0]),
        permutation=permutation,
        theta=branch.rotation_theta,
        accepted_steps=accepted,
    )


def _midpoint_check(
    rot: complex, fibers: np.ndarray, raw: np.ndarray, orders: np.ndarray
) -> tuple[int, str]:
    """How many steps of a walk stand before the first that its midpoint
    contradicts, and the rule that step breaks ("" if all stand).

    ``fibers`` and ``orders`` are the walk's tracked fibers and strand orders
    at its step ends, ``raw`` the fibers at the steps' parameter midpoints.
    A step stands when its first half passes the move rule of :func:`step`,
    its second half does too keeping the strands' identity, and the halves'
    swaps add up to the step's own, so a swap and its inverse, a split swap
    or a shifted one break ``swaps``."""
    lo, hi = fibers[:-1], fibers[1:]
    sel, _, first = step(lo, raw, min_gap(lo))
    mid = np.take_along_axis(raw, sel, axis=-1)
    sel_out, _, second = step(mid, hi, min_gap(raw))
    second &= (sel_out == np.arange(fibers.shape[-1])).all(axis=-1)
    order_mid = strand_orders(mid, rot)
    valid_in, pairs_in = swaps(orders[:-1], order_mid)
    valid_out, pairs_out = swaps(order_mid, orders[1:])
    _, pairs_whole = swaps(orders[:-1], orders[1:])
    joined = valid_in & valid_out & (pairs_in.astype(int) + pairs_out == pairs_whole).all(axis=-1)
    broken = ~np.stack([first, second, joined])
    bad = np.flatnonzero(broken.any(axis=0))
    if not bad.size:
        return len(lo), ""
    return int(bad[0]), ("first half", "second half", "swaps")[int(np.argmax(broken[:, bad[0]]))]


def braid_along(
    f: BivariatePolynomial,
    branch: BranchData,
    loop: LoopPath,
    step_cap_fraction: float = STEP_CAP_FRACTION,
) -> BraidWord:
    """The braid word read along a closed loop."""
    if not loop.closed:
        raise InputError("braid words are read along closed loops")
    track = track_roots(f, branch, loop, step_cap_fraction=step_cap_fraction)
    return word_of_events(f.w_degree, track.events)


def word_of_events(strands: int, events: tuple[CrossingEvent, ...]) -> BraidWord:
    return BraidWord(
        strands, tuple(BraidLetter(e.position, e.sign) for e in events)
    )


def events_to_jsonl(events: tuple[CrossingEvent, ...]) -> str:
    lines = []
    for e in events:
        lines.append(
            json.dumps(
                {
                    "t": e.t,
                    "k": e.position,
                    "sign": e.sign,
                    "roots": [
                        [e.roots[0].real, e.roots[0].imag],
                        [e.roots[1].real, e.roots[1].imag],
                    ],
                }
            )
        )
    return "\n".join(lines)


class RadiusInfeasible(InputError):
    """Circle radius too large for the configuration; carries the largest
    radius that would fit so retry ladders can jump straight to it."""

    def __init__(self, message: str, max_feasible: float):
        super().__init__(message)
        self.max_feasible = max_feasible


@dataclass(frozen=True)
class LollipopSpec:
    """Normal-form loop recipe: a basepoint, an ordered selection of branch
    point indices to visit, and the radius of the circles around them."""

    basepoint: complex
    targets: tuple[int, ...]
    circle_radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.circle_radius <= 0:
            raise InputError("circle radius must be positive")
        if len(set(self.targets)) != len(self.targets):
            raise InputError("lollipop targets must be distinct")
        if not self.targets:
            raise InputError("lollipop needs at least one target")


@dataclass(frozen=True)
class TargetMarks:
    """Normalized parameter windows of one lollipop: stick out, circle, stick back."""

    target: int
    arc_out: tuple[float, float]
    circle: tuple[float, float]
    arc_back: tuple[float, float]


@dataclass(frozen=True)
class LollipopLoop:
    path: LoopPath
    marks: tuple[TargetMarks, ...]
    spec: LollipopSpec


_DETOUR_FACTOR = 1.5


def _detour_around(
    start: complex, end: complex, obstacles: list[complex], radius: float
) -> list[Primitive]:
    """Straight run from start to end, deflected to the left around obstacles."""
    direction = (end - start) / abs(end - start)
    hits = []
    for z in obstacles:
        t = ((z - start) / direction).real
        off = abs(start + t * direction - z)
        if 0.0 < t < abs(end - start) and off < radius:
            hits.append((t, z, off))
    hits.sort(key=lambda item: item[0])
    for (t1, z1, _), (t2, z2, _) in zip(hits, hits[1:]):
        if abs(z1 - z2) < 2.2 * radius:
            raise InputError(
                "two branch points are too close together for a detour of "
                f"radius {radius:.3g}; shrink the circle radius"
            )
    prims: list[Primitive] = []
    cursor = start
    for t, z, off in hits:
        half = math.sqrt(max(radius * radius - off * off, 0.0))
        entry = start + (t - half) * direction
        exit_ = start + (t + half) * direction
        if abs(entry - z) < radius * 0.999 or abs(cursor - entry) == 0:
            raise InputError("detour geometry degenerate; shrink the circle radius")
        # Fix both endpoints onto the detour circle exactly.
        entry = z + radius * (entry - z) / abs(entry - z)
        exit_ = z + radius * (exit_ - z) / abs(exit_ - z)
        phi1 = math.atan2((entry - z).imag, (entry - z).real)
        phi2 = math.atan2((exit_ - z).imag, (exit_ - z).real)
        span_ccw = (phi2 - phi1) % (2.0 * math.pi)
        mid_ccw = z + radius * _cis(phi1 + span_ccw / 2.0)
        chord_mid = (entry + exit_) / 2.0
        left = ((mid_ccw - chord_mid) / direction).imag > 0
        if left:
            arc = Arc(z, radius, phi1, phi1 + span_ccw)
        else:
            arc = Arc(z, radius, phi1, phi1 - (2.0 * math.pi - span_ccw))
        if abs(cursor - entry) > 0:
            prims.append(Segment(cursor, entry))
        prims.append(arc)
        cursor = exit_
    if abs(cursor - end) > 0:
        prims.append(Segment(cursor, end))
    if not prims:
        prims.append(Segment(start, end))
    return prims


def lollipop_loop(branch: BranchData, spec: LollipopSpec) -> LollipopLoop:
    """Build the stick-circle-stick loop visiting the chosen branch points.

    Sticks run straight from the basepoint toward each target, deflecting to
    the left around any other branch point that comes too close.  Circles are
    one full counterclockwise turn.  Raises with the maximum feasible radius
    when the requested circles cannot be kept disjoint from everything else.
    """
    points = branch.values()
    for idx in spec.targets:
        if not (0 <= idx < len(points)):
            raise InputError(
                f"target index {idx} out of range for {len(points)} branch points"
            )
    targets = [points[idx] for idx in spec.targets]
    r = spec.circle_radius

    limits = [math.inf]
    for zi in targets:
        limits.append(abs(spec.basepoint - zi) / 1.5)
        for zo in points:
            if zo != zi:
                limits.append(abs(zi - zo) / 2.2)
    max_feasible = min(limits)
    if r > max_feasible:
        raise RadiusInfeasible(
            f"circle radius {r:.6g} is infeasible for this configuration; "
            f"the maximum feasible radius is about {max_feasible:.6g}",
            max_feasible,
        )

    detour_radius = _DETOUR_FACTOR * r
    prims: list[Primitive] = []
    boundaries: list[tuple[int, int, int]] = []
    for idx, z_t in zip(spec.targets, targets):
        unit = (z_t - spec.basepoint) / abs(z_t - spec.basepoint)
        entry = z_t - r * unit
        obstacles = [z for z in points if z != z_t]
        out = _detour_around(spec.basepoint, entry, obstacles, detour_radius)
        phi = math.atan2((entry - z_t).imag, (entry - z_t).real)
        circle = Arc(z_t, r, phi, phi + 2.0 * math.pi)
        back = [p.reversed() for p in reversed(out)]
        start_i = len(prims)
        prims.extend(out)
        circle_i = len(prims)
        prims.append(circle)
        back_i = len(prims)
        prims.extend(back)
        boundaries.append((start_i, circle_i, back_i))

    path = LoopPath(tuple(prims), closed=True)
    spans = path.primitive_spans()
    marks = []
    for (start_i, circle_i, back_i), idx in zip(boundaries, spec.targets):
        end_i = back_i + (circle_i - start_i)
        marks.append(
            TargetMarks(
                target=idx,
                arc_out=(spans[start_i][0], spans[circle_i][0]),
                circle=(spans[circle_i][0], spans[circle_i][1]),
                arc_back=(spans[back_i][0], spans[end_i - 1][1]),
            )
        )
    return LollipopLoop(path=path, marks=tuple(marks), spec=spec)


def qp_factorization(
    f: BivariatePolynomial,
    branch: BranchData,
    spec: LollipopSpec,
) -> QuasipositiveFactorization:
    """Read a quasipositive factorization off a lollipop loop.

    Each circle must contribute exactly one crossing event (the radius is
    halved and the loop rebuilt when it does not), that event must be
    positive, and each stick's return letters must be the reverse-inverse of
    its outgoing letters up to free reduction.  The expanded factorization is
    verified to equal the loop's full braid word after free reduction.
    """
    n = f.w_degree
    current = spec
    lol: LollipopLoop | None = None
    track: Track | None = None
    per_target: list[tuple[list[CrossingEvent], list[CrossingEvent], list[CrossingEvent]]] = []
    for _ in range(RADIUS_RETRIES + 1):
        try:
            lol = lollipop_loop(branch, current)
        except RadiusInfeasible as exc:
            current = replace(
                current,
                circle_radius=min(current.circle_radius / 2.0, 0.9 * exc.max_feasible),
            )
            continue
        track = track_roots(f, branch, lol.path)
        per_target = []
        ok = True
        for marks in lol.marks:
            outs = [e for e in track.events if marks.arc_out[0] <= e.t < marks.arc_out[1]]
            circles = [e for e in track.events if marks.circle[0] <= e.t < marks.circle[1]]
            backs = [e for e in track.events if marks.arc_back[0] <= e.t < marks.arc_back[1]]
            per_target.append((outs, circles, backs))
            if len(circles) != 1:
                ok = False
        if ok:
            break
        current = replace(current, circle_radius=current.circle_radius / 2.0)
    else:
        raise NumericalFailure(
            "a lollipop circle never isolated a single crossing event",
            diagnostics={"final_radius": current.circle_radius},
        )

    assert track is not None and lol is not None
    bands = []
    for (outs, circles, backs), marks in zip(per_target, lol.marks):
        circle_event = circles[0]
        if circle_event.sign != 1:
            raise NumericalFailure(
                "counterclockwise circle read a negative letter; the sign "
                "convention has been violated",
                diagnostics={
                    "target": marks.target,
                    "t": circle_event.t,
                    "position": circle_event.position,
                },
            )
        out_word = word_of_events(n, tuple(outs))
        back_word = word_of_events(n, tuple(backs))
        if free_reduce(back_word).letters != free_reduce(invert(out_word)).letters:
            raise NumericalFailure(
                "a stick's return letters are not the reverse-inverse of its "
                "outgoing letters",
                diagnostics={"target": marks.target},
            )
        bands.append(Band(free_reduce(out_word).letters, circle_event.position))

    qpf = QuasipositiveFactorization(n, tuple(bands))
    whole = word_of_events(n, track.events)
    if free_reduce(expand_factorization(qpf)).letters != free_reduce(whole).letters:
        raise NumericalFailure(
            "expanded factorization does not freely match the loop's braid word"
        )
    return qpf


def enclosed_count(loop: LoopPath, branch: BranchData) -> int:
    """Sum of loop winding numbers over branch points, with multiplicity."""
    if not loop.closed:
        raise InputError("enclosed counts need a closed loop")
    total = 0
    for point in branch.points:
        total += winding_number(loop, point.z) * point.multiplicity
    return total
