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

Continuation is predict, correct and certify on the shared kernel
:mod:`quasibraid.fibers`.  Braid monodromy is a homomorphism, so a loop is
tracked as pieces that share only the solved fiber at each cut, and that
advance in lockstep: every round predicts each live piece's next chunk of
steps along dw/dz at its last accepted fiber (-f_z/f_w at its start),
corrects all chunks in one batch with the last round's step midpoints, and
judges them with one kernel call per rule up to each piece's first rejected
step, which is then halved in place.  A step stands when nearest matching
moves each root less than a third of its distance to the nearest other root,
which makes the matching provably bijective, its strand orders differ by
disjoint adjacent swaps, and its midpoint agrees with it, so a swap and its
inverse cannot hide across the midpoint, and no adjacent pair's gap, fitted
by a parabola through the step's ends and midpoint, dips below zero.  The
step regrows after ``_REGROW`` accepted steps wherever chunks end, so
answers do not depend on the batch size ``_CHUNK``.
The crossing corrector :func:`quasibraid.fibers.bisect_crossings` closes
the bracket of every swap's step in one batch at the end, along the loop's
tangent z'(t) from :meth:`~quasibraid.paths.LoopPath.sample_points`.  It
starts from the roots that a solve gives at the step's ends, which a solve
rounds the same in any batch, and its iterates continue the swapping pair by
Newton from the nearer end of each bracket, so they solve no fiber unless a
certificate fails.

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
from .fibers import _tracked, bisect_crossings, coefficients, correct, root_gaps, solve, step, swaps
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


def _chunk_ends(
    t: np.ndarray, h: np.ndarray, streak: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ends of every piece's next chunk of steps of length h from t, and their
    counts: at most ``_CHUNK``, up to where ``streak`` reaches ``_REGROW``,
    the last one ending at the piece's ``end``."""
    left = np.where(t < end - 1e-15, np.maximum(1, np.ceil((end - t) / h - 1e-12)), 0).astype(int)
    counts = np.minimum(np.minimum(left, _CHUNK), _REGROW - streak)
    last = np.cumsum(counts) - 1
    steps = np.arange(last[-1] + 1) - np.repeat(last - counts, counts)
    ts = np.repeat(t, counts) + np.repeat(h, counts) * steps
    done = (counts == left) & (counts > 0)
    ts[last[done]] = end[done]
    return ts, counts


def _pieces(
    f: BivariatePolynomial, rot: complex, loop: LoopPath, cap: float
) -> tuple[np.ndarray, ...]:
    """Where the loop is cut into pieces that are tracked in lockstep: each
    piece's start parameter, end parameter, start point and solved fiber.

    There are ceil(1 / (``cap`` * ``_REGROW``)) pieces.  Each cut lies on the
    cap grid, at the one of five grid points about an even split whose sorted
    rotated real parts lie furthest apart, relative to max(1, max |w|); a cut
    where none clears the basepoint's tie floor of 1e-9 of that scale is
    dropped, merging its two pieces."""
    count = math.ceil(1.0 / (cap * _REGROW))
    grid = np.round(np.arange(1, count) / (count * cap))[:, None] + [0, -1, 1, -2, 2]
    ts = np.concatenate([[0.0], (grid * cap).ravel()])
    zs = np.concatenate([[loop.point_at(0.0)], loop.sample_points(ts[1:])])
    fibers = solve(f, zs)
    if root_gaps(fibers[0]).min() <= 0.0:
        raise InputError("the fiber at the loop start has coincident roots")
    apart = np.diff(np.sort((rot * fibers).real), axis=-1).min(axis=-1)
    scale = np.maximum(1.0, np.abs(fibers).max(axis=-1))
    tied = apart < 1e-9 * scale
    if tied[0]:
        raise InputError(
            "two roots share a rotated real part at the loop basepoint; "
            "move the basepoint or pick a different rotation"
        )
    cuts = 1 + 5 * np.arange(count - 1) + (apart / scale)[1:].reshape(-1, 5).argmax(axis=1)
    keep = np.concatenate([[0], cuts[~tied[cuts]]])
    return ts[keep], np.append(ts[keep[1:]], 1.0), zs[keep], fibers[keep]


def _first(bad: np.ndarray, first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per piece, whose ``counts`` rows start at row ``first``, the place
    among them of its first ``bad`` row, or its count."""
    hits = np.append(np.flatnonzero(bad), len(bad))
    return np.minimum(hits[np.searchsorted(hits, first)] - first, counts)


def _shifted(rows: np.ndarray, heads: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The row before each row, or its piece's ``heads`` entry at row ``first``."""
    before = np.empty_like(rows)
    before[1:], before[first] = rows[:-1], heads
    return before


def track_roots(
    f: BivariatePolynomial,
    branch: BranchData,
    loop: LoopPath,
    step_cap_fraction: float = STEP_CAP_FRACTION,
    stabilize: bool = True,
) -> Track:
    """Continue the fiber roots along the loop and collect crossing events.

    The loop is tracked as pieces cut on the cap grid, each from the solved
    fiber at its start (see :func:`_pieces` for the cuts and their tie
    floor), and every round judges the next chunk of steps of every live
    piece with one kernel call per rule.  A piece's first step is
    ``step_cap_fraction`` of the loop length (the cap, in (0, 1]).  A rejected
    step is halved, and the step doubles back toward the cap after each
    ``_REGROW`` accepted steps.  With ``stabilize`` on (the default) a step
    must also agree with its parameter midpoint (see :func:`_midpoint_check`),
    so crossings hiding in pairs get split.  A piece's last step ends on the
    solved fiber the next starts from, so strand orders at a cut come from
    one fiber; gluing matches its tracked end to that fiber (a closed loop's
    last to the start fiber) by the step rule, or raises with the cut's t,
    and composes the relabellings into the start fiber's labels.  Step
    underflow below 1e-12 of the loop length raises: the loop hugs the branch
    locus or meets the crossing locus non-transversally.  Its diagnostics
    give t, the rejected step h, the ``root`` that moves furthest against its
    own gap over that step (its index among the piece's tracked roots), that
    root's gap and move, the primitive index at t and the ``rule`` that
    rejected the step: ``move`` or ``order`` at the step's end, or the
    midpoint's ``first half``, ``second half``, ``swaps`` or ``dip``.
    """
    if not 0.0 < step_cap_fraction <= 1.0:
        raise InputError(f"the step cap must lie in (0, 1], not {step_cap_fraction!r}")
    _clearance_check(branch, loop)
    rot, n, cap = _cis(branch.rotation_theta), f.w_degree, step_cap_fraction
    t, end, z_start, start = _pieces(f, rot, loop, cap)
    z, roots, gap, order = z_start.copy(), start.copy(), root_gaps(start), strand_orders(start, rot)
    (f_z, f_w), _ = f.jet(z_start[:, None], start, ((1, 0), (0, 1)))
    velocity, h, streak = -f_z / f_w, np.full(len(t), cap), np.zeros(len(t), int)

    def glued(ts, zs, fibers, owner):
        """Chunk rows, where a row at a cut takes the solved fiber there."""
        cut = np.flatnonzero((ts == end[owner]) & (owner < len(t) - 1))
        zs[cut], fibers[cut] = z_start[owner[cut] + 1], start[owner[cut] + 1]
        return ts, zs, fibers, owner

    # One bracket per swap of an accepted step: the two strands (lower
    # position first), z and t at the step's start and end, and the letter
    # position, one array each per round.
    brackets: list[tuple[np.ndarray, ...]] = []
    accepted = 0
    ahead = None  # the next chunks' ends, points, fibers and pieces, corrected with the midpoints
    while (live := np.flatnonzero(t < end - 1e-15)).size:
        live = live if ahead is None else live[np.bincount(ahead[3], minlength=len(t))[live] == 0]
        if live.size:
            ts, counts = _chunk_ends(t[live], h[live], streak[live], end[live])
            owner, zs = np.repeat(live, counts), loop.sample_points(ts)
            # Predicted on dw/dz at the last accepted fiber: w is analytic in z, even at corners.
            guess = roots[owner] + velocity[owner] * (zs - z[owner])[:, None]
            fresh = glued(ts, zs, correct(coefficients(f, zs), guess, _CORRECT_RTOL)[0], owner)
            ahead = fresh if ahead is None else tuple(map(np.concatenate, zip(ahead, fresh)))
        (ts, zs, fibers, owner), ahead = ahead, None
        # Each piece's rows are contiguous; ``pos`` counts them from its first.
        first = np.concatenate([[0], np.flatnonzero(owner[1:] != owner[:-1]) + 1])
        pieces, counts = owner[first], np.append(first[1:], len(owner)) - first
        pos, gaps = np.arange(len(owner)) - np.repeat(first, counts), root_gaps(fibers)

        # Matching is blind to the order of the old roots, so every step is
        # judged against the raw fiber before it at once; each piece's
        # accepted prefix ends at its first step to break a rule, named in ``why``.
        before, gaps_before = _shifted(fibers, roots[pieces], first), _shifted(gaps, gap[pieces], first)
        sel, _, ok = step(before, fibers, gaps_before)
        k = _first(~ok, first, counts)
        perms = np.broadcast_to(np.arange(n), sel.shape).copy()
        # Relabel from each row on that is not matched in place.
        piece_end = np.repeat(first + counts, counts)
        moved = (pos < np.repeat(k, counts)) & (sel != np.arange(n)).any(axis=-1)
        for i in np.flatnonzero(moved).tolist():
            perms[i : piece_end[i]] = sel[i][perms[i - 1]] if pos[i] else sel[i]
        tracked, tracked_gaps = (np.take_along_axis(a, perms, axis=-1) for a in (fibers, gaps))
        orders = strand_orders(tracked, rot)
        # Where each row's step starts: the row before, or its piece's state.
        lo, lo_orders = _shifted(tracked, roots[pieces], first), _shifted(orders, order[pieces], first)
        t_lo, z_lo = _shifted(ts, t[pieces], first), _shifted(zs, z[pieces], first)
        valid, pairs = swaps(lo_orders, orders)
        why = np.select([~ok, ~valid], ["move", "order"], "").astype("<U11")
        k = _first(why != "", first, counts)

        def reached(k):
            """Every live piece's t, z, fiber, root gaps, order and velocity after k steps."""
            row, went = np.where(k > 0, first + k - 1, first), (k > 0)[:, None]
            dw = (tracked[row] - lo[row]) / (zs[row] - z_lo[row])[:, None]
            now = (t, z, roots, gap, order, velocity)
            then = (ts[row], zs[row], tracked[row], tracked_gaps[row], orders[row], dw)
            return [np.where(went if a.ndim > 1 else went[:, 0], b, a[pieces]) for a, b in zip(now, then)]

        def schedule(k):
            full = k == counts
            h_next = np.where(full, 1.0, 0.5) * h[pieces]
            streak_next = np.where(full, streak[pieces] + k, 0)
            regrow = streak_next == _REGROW
            return np.where(regrow, np.minimum(cap, 2.0 * h_next), h_next), streak_next % _REGROW

        state = reached(k)
        if stabilize:
            # The midpoint fibers are corrected in one batch with the next
            # chunks, which are planned as if every step stands.
            rows = np.flatnonzero(pos < np.repeat(k, counts))
            t_next, z_next, roots_next, _, _, dw_next = state
            ts_ahead, counts_ahead = _chunk_ends(t_next, *schedule(k), end[pieces])
            at = np.repeat(np.arange(len(pieces)), counts_ahead)
            points = loop.sample_points(np.concatenate([0.5 * (t_lo[rows] + ts[rows]), ts_ahead]))
            z_ahead = points[len(rows) :]
            guess_ahead = roots_next[at] + dw_next[at] * (z_ahead - z_next[at])[:, None]
            guess = np.concatenate([0.5 * (lo[rows] + tracked[rows]), guess_ahead])
            raw = correct(coefficients(f, points), guess, _CORRECT_RTOL)[0]
            halves = lo[rows], tracked[rows], raw[: len(rows)], lo_orders[rows], orders[rows]
            why[rows] = _midpoint_check(rot, *halves)
            stands = _first(why != "", first, counts)
            keep = np.flatnonzero(stands[at] == k[at])
            ahead = glued(ts_ahead[keep], z_ahead[keep], raw[len(rows) :][keep], pieces[at[keep]])
            if (stands < k).any():
                k, state = stands, reached(stands)
        rows, lower = np.nonzero(pairs & (pos < np.repeat(k, counts))[:, None])
        strands = lo_orders[rows[:, None], lower[:, None] + [0, 1]]
        ends = np.stack([np.take_along_axis(w[rows], strands, -1) for w in (lo, tracked)], 1)
        steps = [np.stack([a[rows], b[rows]], 1) for a, b in ((z_lo, zs), (t_lo, ts))]
        brackets.append((ends, *steps, lower + 1))

        accepted += int(k.sum())
        t[pieces], z[pieces], roots[pieces], gap[pieces], order[pieces], velocity[pieces] = state
        under = np.flatnonzero((k < counts) & (0.5 * h[pieces] < STEP_UNDERFLOW))
        if under.size:
            i, p = under[0], pieces[under[0]]
            move = np.abs(roots[p][:, None] - fibers[first[i] + k[i]]).min(axis=-1)
            root = int(np.argmax(move / gap[p]))
            raise NumericalFailure(
                "continuation step underflow: the path runs too close to the branch "
                "locus or meets the crossing locus non-transversally",
                diagnostics={
                    "t": float(t[p]),
                    "h": float(h[p]),
                    "root": root,
                    "gap": float(gap[p][root]),
                    "max_move": float(move[root]),
                    "primitive": loop._locate(float(t[p]))[0],
                    "rule": str(why[first[i] + k[i]]),
                },
            )
        h[pieces], streak[pieces] = schedule(k)

    # Glue each piece's end to the fiber it ended on, and a closed loop's
    # last piece to the start fiber.
    meets = np.roll(start, -1, axis=0)[: len(t) - (not loop.closed)]
    gaps = root_gaps(roots[: len(meets)])
    sel, moves, met = step(roots[: len(meets)], meets, gaps)
    if not met.all():
        i = int(np.argmin(met))
        raise NumericalFailure(
            "could not match a piece's final fiber to the fiber it ends on",
            diagnostics={
                "t": float(end[i]),
                "max_move": float(moves[i].max()),
                "gap": float(gaps[i].min()),
                "bijective": bool(np.unique(sel[i]).size == n),
            },
        )
    labels = np.arange(n)
    for relabel in sel[: len(t) - 1]:
        labels = relabel[labels]

    events: list[CrossingEvent] = []
    ends, z_ends, t_ends, positions = map(np.concatenate, zip(*brackets))
    if positions.size:
        # ref_a, ref_b, far_a, far_b from a solve, which rounds the same in any batch.
        ends = _tracked(f, ends.reshape(-1, 2), z_ends.ravel()).reshape(-1, 2, 2)
        t_cross, _, w_a, w_b, sign = bisect_crossings(
            f,
            rot,
            lambda ts, _: loop.sample_points(ts, tangents=True),
            *ends.transpose(1, 2, 0).reshape(4, -1),
            *t_ends.T,
            BISECTION_T_TOL,
        )
        # Steps in order, and the letters of one step, disjoint swaps that
        # commute, by position: an order that the rounding of t cannot change.
        order = np.lexsort((positions, t_ends[:, 0]))
        pairs = zip(w_a[order].tolist(), w_b[order].tolist())
        found = (t_cross[order].tolist(), positions[order].tolist(), sign[order].tolist(), pairs)
        events = list(map(CrossingEvent, *found))

    permutation: tuple[int, ...] | None = None
    if loop.closed:
        # Occupant convention: entry q is the starting position of the strand
        # that finishes at position q.
        pos0 = np.empty(n, dtype=int)
        pos0[strand_orders(start[0], rot)] = np.arange(1, n + 1)
        images = np.empty(n, dtype=int)
        images[pos0[sel[-1][labels]] - 1] = pos0
        permutation = tuple(images.tolist())

    return Track(
        events=tuple(events),
        start_roots=tuple(complex(v) for v in start[0]),
        end_roots=tuple(complex(v) for v in _tracked(f, roots[-1][labels][None], z[-1:])[0]),
        permutation=permutation,
        theta=branch.rotation_theta,
        accepted_steps=accepted,
    )


def _midpoint_check(
    rot: complex, lo: np.ndarray, hi: np.ndarray, raw: np.ndarray, order_lo: np.ndarray, order_hi: np.ndarray
) -> np.ndarray:
    """The rule each step breaks against its midpoint, "" where it stands.

    Row i is a step between the tracked fibers ``lo[i]`` and ``hi[i]``, with
    strand orders ``order_lo[i]`` and ``order_hi[i]``; ``raw[i]`` is the fiber
    at its parameter midpoint.  A step stands when its first half passes the
    move rule of :func:`step`, its second half does too keeping the strands'
    identity, and the halves' swaps add up to the step's own, so a swap and
    its inverse, a split swap or a shifted one break ``swaps``.  A swap and
    its inverse inside one half leave all three orders equal; they break
    ``dip`` when the parabola through a position-adjacent pair's gaps in
    rotated real part at the step's start, midpoint and end dips below zero."""
    sel, _, first = step(lo, raw, root_gaps(lo))
    mid = np.take_along_axis(raw, sel, axis=-1)
    sel_out, _, second = step(mid, hi, root_gaps(mid))
    second &= (sel_out == np.arange(lo.shape[-1])).all(axis=-1)
    order_mid = strand_orders(mid, rot)
    valid_in, pairs_in = swaps(order_lo, order_mid)
    valid_out, pairs_out = swaps(order_mid, order_hi)
    _, pairs_whole = swaps(order_lo, order_hi)
    joined = valid_in & valid_out & (pairs_in.astype(int) + pairs_out == pairs_whole).all(axis=-1)
    # p(s) = g0 + b s + 2a s^2 through a pair's gaps g0, gm, g1 at s = 0,
    # 1/2, 1 has its minimum g0 - b^2 / 8a at s = -b / 4a.
    x = (rot * np.stack([lo, mid, hi])).real
    g0, gm, g1 = np.diff(np.take_along_axis(x, np.broadcast_to(order_lo, x.shape), axis=-1), axis=-1)
    a, b = g0 - 2 * gm + g1, 4 * gm - 3 * g0 - g1
    dips = ((np.minimum(gm, g1) > 0) & (b < 0) & (-b < 4 * a) & (b * b > 8 * a * g0)).any(axis=-1)
    rule = np.where(joined, np.where(dips, "dip", ""), "swaps")
    return np.where(~first, "first half", np.where(~second, "second half", rule))


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
