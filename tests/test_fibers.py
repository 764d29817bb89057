"""Tests for the shared fiber kernel: solves, lattice sweeps, matching, the
step rule, swap decoding and bracket closing.

A corrected fiber must be the same set of roots that a solve gives, within
the radii of its discs, whatever its guess; a fiber whose discs cannot
certify it falls back to the solve, and which fibers certify does not change
when w is scaled.  A sweep must give every lattice fiber as a solve does.
The step rule and ``root_gaps`` must give the bits of a full pairwise match
that judges each root against its own nearest neighbour, without building an
(edges, n, n) array on a lattice.

Closing a batch of brackets must give exactly what closing each bracket alone
gives, whatever positions the brackets swap.  The crossings it finds agree
with the fixed-halving bisection it replaced, within fewer evaluations, and
on ``w^2 - z`` with the closed form of its crossing locus.  The pair
corrector must give a solve's roots with their dw/dz, and fall back to the
solve where its certificate fails.  The crossing points are checked against
``numpy.roots`` of the fiber there, and the crossing graph they build is
checked against a frozen graph of the quartic.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import (
    branch_points,
    fibers,
    graph_to_json,
    monodromy,
    parse_bivariate_text,
    sample_crossing_graph,
)
from quasibraid.fibers import (
    _corrected,
    _rotated_re,
    _tracked,
    bisect_crossings,
    correct,
    match,
    root_gaps,
    solve,
    step,
    swaps,
    sweep,
)
from quasibraid.paths import Arc, LoopPath
from quasibraid.poly import DEFAULT_ROOT_TOL
from quasibraid.realization import build_plan
from tests.test_monodromy import _pair, monic_curve, prepared

DATA_DIR = Path(__file__).parent / "data"
QUARTIC = prepared("w^3 - 3*w + 2*z^4")
FOUR_STRAND = prepared("w^4 - z*w^3 - w^2 + z*w + 0.05")
HALVINGS = 48
EPS = np.finfo(float).eps
# The median evaluations per bracket on the quartic's lattice edges.
MEDIAN_EVALUATIONS = 3


def rotation(data):
    return complex(math.cos(data.rotation_theta), math.sin(data.rotation_theta))


def sorted_fibers(f, rot, zs):
    roots = solve(f, zs)
    rv = rot * roots
    order = np.lexsort((rv.imag, rv.real), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def swap_brackets(f, rot):
    """Short lattice edges across which the sorted fiber swaps one adjacent
    pair p, p+1, as (a, b, root p at a, root p+1 at a, p)."""
    xs = np.linspace(-1.9, 1.9, 40) + 0.0123
    a = (xs[None, :] + 1j * xs[:, None]).ravel()
    b = a + (xs[1] - xs[0])
    fa, fb = sorted_fibers(f, rot, a), sorted_fibers(f, rot, b)
    sel, _, keep = step(fa, fb, root_gaps(fa))
    brackets = []
    for e in np.nonzero(keep)[0]:
        moved = np.nonzero(sel[e] != np.arange(f.w_degree))[0]
        if len(moved) == 2 and moved[1] == moved[0] + 1:
            p = int(moved[0])
            brackets.append((a[e], b[e], fa[e, p], fa[e, p + 1], p))
    return brackets


def edge_points(brackets):
    a, b, ref_a, ref_b, _ = (np.array(column) for column in zip(*brackets))
    return a, b, ref_a, ref_b


def edge_map(a, b):
    return lambda ts, idx: a[idx] + (b[idx] - a[idx]) * ts


def edge_path(a, b):
    """The edge map with dz/dt, as the crossing corrector takes it."""
    return lambda ts, idx: (a[idx] + (b[idx] - a[idx]) * ts, b[idx] - a[idx])


def tracked_at(f, ref_a, ref_b, zs):
    """The roots over zs nearest to ``ref_a`` and to ``ref_b``."""
    return _tracked(f, np.stack([ref_a, ref_b], axis=1), zs).T


def bisect(f, rot, brackets):
    a, b, ref_a, ref_b = edge_points(brackets)
    return bisect_crossings(
        f,
        rot,
        edge_path(a, b),
        ref_a,
        ref_b,
        *tracked_at(f, ref_a, ref_b, b),
        np.zeros(len(a)),
        np.ones(len(a)),
    )


def reference_bisection(f, rot, point, ref_a, ref_b, lo, hi, halvings):
    """The fixed-halving loop that bisect_crossings replaced: the final
    midpoints after ``halvings`` halvings of every bracket."""
    pair = np.stack([ref_a, ref_b], axis=1)
    below = _rotated_re(rot, pair[:, 0] - pair[:, 1]) < 0
    idx = np.arange(len(lo))
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        w = _tracked(f, pair, point(mid, idx))
        left = (_rotated_re(rot, w[:, 0] - w[:, 1]) < 0) == below
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def rotated_gaps(f, rot, ref_a, ref_b, zs):
    """Rotated real-part gap of the tracked pair at its references and at zs."""
    far_a, far_b = tracked_at(f, ref_a, ref_b, zs)
    return _rotated_re(rot, ref_a - ref_b), _rotated_re(rot, far_a - far_b)


def untied(f, rot, brackets):
    """The brackets with no rotated real-part tie at either end, as the
    crossing graph keeps them (at a tie the sign change sits on that end)."""
    a, b, ref_a, ref_b = edge_points(brackets)
    scale = np.maximum(1.0, np.abs(np.stack([ref_a, ref_b])).max(axis=0))
    g_a, g_b = rotated_gaps(f, rot, ref_a, ref_b, b)
    keep = (np.abs(g_a) >= 1e-11 * scale) & (np.abs(g_b) >= 1e-11 * scale)
    return [br for br, k in zip(brackets, keep) if k]


def crossing_tolerance(f, rot, brackets, width=1.0):
    """Per bracket, the larger of 2^-48 of its width and the parameter
    distance over which the rotated gap changes by 1e-14 of the root size:
    below that the gap is rounding, and two methods may name different sign
    changes of it."""
    a, b, ref_a, ref_b = edge_points(brackets)
    scale = np.maximum(1.0, np.abs(np.stack([ref_a, ref_b])).max(axis=0))
    g_a, g_b = rotated_gaps(f, rot, ref_a, ref_b, b)
    return np.maximum(width * 0.5**HALVINGS, 1e-14 * scale / np.abs(g_b - g_a))


def record_evaluations(monkeypatch, rot, path):
    """Wrap ``path`` and patch the crossing corrector so that every
    evaluation of a pair is logged as (brackets, their t, their rotated gap,
    the pair's size max(1, |w_a|, |w_b|)); brackets and t come from the
    path call before it, which gave the z."""
    calls, last = [], {}

    def logged_path(ts, idx):
        last["t"], last["idx"] = np.array(ts, dtype=float), np.array(idx)
        return path(ts, idx)

    def corrected(coeffs, refs, guess):
        w, dw = _corrected(coeffs, refs, guess)
        assert len(w) == len(last["idx"])
        size = np.maximum(1.0, np.abs(w).max(axis=1))
        calls.append((last["idx"], last["t"], _rotated_re(rot, w[:, 0] - w[:, 1]), size))
        return w, dw

    monkeypatch.setattr(fibers, "_corrected", corrected)
    return logged_path, calls


def evaluations_per_bracket(calls, count):
    return np.bincount(np.concatenate([ids for ids, *_ in calls]), minlength=count)


class TestSolveAndMatch:
    def test_solve_agrees_with_numpy_roots(self):
        f, _ = QUARTIC
        zs = np.array([0.3 + 0.1j, -1.2 + 0.7j, 1.5 - 1.1j])
        for z, fiber in zip(zs, solve(f, zs)):
            expected = np.roots(f.fiber(complex(z)).coefficients[::-1])
            sel, move, bijective = match(expected, fiber)
            assert bijective
            assert move.max() < 1e-10

    def test_match_reports_the_nearest_bijection(self):
        old = np.array([[0j, 1 + 0j, 3j]])
        new = np.array([[3.1j, 0.1 + 0j, 1.05 + 0j]])
        sel, move, bijective = match(old, new)
        assert sel.tolist() == [[1, 2, 0]]
        assert move[0].tolist() == pytest.approx([0.1, 0.05, 0.1])
        assert bijective[0]
        assert not match(old, np.array([[0.1j, 0.2j, 3j]]))[2][0]

    def test_root_gaps_are_each_roots_nearest_distance(self):
        assert root_gaps(np.array([0j, 2 + 0j, 2.5 + 0j])).tolist() == [2.0, 0.5, 0.5]


class TestCorrect:
    @settings(max_examples=60, deadline=None)
    @given(
        w_degree=st.integers(2, 4),
        z_degree=st.integers(1, 2),
        points=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=12),
        rtol=st.sampled_from([DEFAULT_ROOT_TOL, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_corrected_fibers_are_the_solved_fibers(
        self, w_degree, z_degree, points, rtol, seed, data
    ):
        f = monic_curve(data, w_degree, z_degree)
        zs = np.array([complex(x, y) for x, y in points])
        solved = solve(f, zs)
        scale = np.maximum(1.0, np.abs(solved).max(axis=-1))
        # Per row a guess from the solved roots, permuted, with noise of
        # 1e-14 to 1e-1 of their size; all of them collapsed onto one point;
        # or permuted and moved far off.
        rng = np.random.default_rng(seed)
        kinds = rng.integers(3, size=len(zs))
        noise = 10.0 ** rng.uniform(-14, -1, size=(len(zs), 1)) * scale[:, None]
        shuffled = rng.permuted(solved, axis=-1)
        wobble = rng.normal(size=solved.shape) + 1j * rng.normal(size=solved.shape)
        guess = np.select(
            [kinds[:, None] == 0, kinds[:, None] == 1],
            [shuffled + noise * wobble, np.broadcast_to(solved[:, :1], solved.shape)],
            100.0 * (shuffled + 10.0 * scale[:, None]),
        )
        roots, radius = correct(fibers.coefficients(f, zs), guess, rtol)
        certified = np.isfinite(radius).all(axis=-1)
        # Certified roots lie within their radius of the true roots, and the
        # solved roots within 1e-12 of the root size, as in the sweep.
        sel, _, bijective = match(roots, solved)
        apart = np.abs(roots - np.take_along_axis(solved, sel, axis=-1))
        within = apart <= radius + 1e-12 * scale[:, None]
        same = (np.sort_complex(roots) == np.sort_complex(solved)).all(axis=-1)
        assert np.all(np.where(certified, bijective & within.all(axis=-1), same))
        collapsed = kinds == 1
        assert not certified[collapsed].any()
        assert np.array_equal(roots[collapsed], solved[collapsed])

    def test_a_guess_whose_steps_overflow_is_solved(self):
        # Two roots 3e-224 apart pull the Weierstrass steps of a far guess to
        # infinity, where an infinite radius must not pass for a small one.
        f = parse_bivariate_text("w^2 + z*w")
        zs = np.array([3.256173330631899e-224j])
        guess = np.array([[1000 - 3.256173330631899e-222j, 1000 + 0j]])
        roots, radius = correct(fibers.coefficients(f, zs), guess, DEFAULT_ROOT_TOL)
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(solve(f, zs)))
        assert np.isinf(radius).all()

    @pytest.mark.parametrize("mu", [1e-3, 1e3])
    def test_certified_fibers_do_not_change_when_w_is_scaled(self, mu):
        # Quartic fibers of roots about 1 apart; in half of them two roots are
        # moved 1e-4 apart, far too close for discs of 1e-12 of the gap and
        # far enough for discs of 1e-12 of the root size, once w shrinks.
        rng = np.random.default_rng(7)
        rows, n = 40, 4
        roots = np.exp(2j * np.pi * (np.arange(n) + rng.uniform(-0.1, 0.1, (rows, n))) / n)
        roots *= rng.uniform(0.8, 1.25, (rows, 1))
        close = np.arange(rows) % 2 == 1
        roots[close, 1] = roots[close, 0] + 1e-4 * np.exp(2j * np.pi * rng.random(close.sum()))
        coeffs = np.array([np.poly(row)[::-1] for row in roots])
        guess = roots + 1e-9 * (rng.normal(size=roots.shape) + 1j * rng.normal(size=roots.shape))
        powers = mu ** (n - np.arange(n + 1))
        got, radius = correct(coeffs, guess, DEFAULT_ROOT_TOL)
        scaled, scaled_radius = correct(coeffs * powers, mu * guess, DEFAULT_ROOT_TOL)
        certified = np.isfinite(radius).all(axis=-1)
        assert certified.any() and not certified.all()
        assert np.array_equal(np.isfinite(scaled_radius).all(axis=-1), certified)
        apart = np.abs(scaled[certified] / mu - got[certified])
        assert np.all(apart <= radius[certified] + scaled_radius[certified] / mu)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_continuation_solves_fewer_fibers_than_it_accepts_steps(self, monkeypatch, n):
        # Every solved row counts: the first chunk of each pass, the rows that
        # fall back, bracket ends and crossing evaluations.
        plan = build_plan(n)
        solved, accepted = [0], [0]

        def companion_roots(coeffs):
            solved[0] += len(coeffs)
            return companion(coeffs)

        def track_roots(*args, **kwargs):
            result = tracker(*args, **kwargs)
            accepted[0] += result.accepted_steps
            return result

        companion, tracker = fibers._companion_roots, monodromy.track_roots
        monkeypatch.setattr(fibers, "_companion_roots", companion_roots)
        monkeypatch.setattr(monodromy, "track_roots", track_roots)
        for loop in plan.generator_loops:
            monodromy.braid_along(plan.f, plan.branch, loop)
        assert 0 < solved[0] < accepted[0]


class TestSweep:
    """The curves are drawn as the crossing-graph property draws them, and
    need not be generic: wherever the discs fail, the sweep solves."""

    @settings(max_examples=40, deadline=None)
    @given(
        w_degree=st.integers(2, 3),
        z_degree=st.integers(1, 2),
        corner=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        step_size=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 20)),
        data=st.data(),
    )
    def test_sweep_gives_the_roots_a_solve_gives(
        self, w_degree, z_degree, corner, step_size, shape, data
    ):
        f = monic_curve(data, w_degree, z_degree)
        xs = corner[0] + step_size[0] * np.arange(shape[1])
        ys = corner[1] + step_size[1] * np.arange(shape[0])
        grid = xs[None, :] + 1j * ys[:, None]
        swept = sweep(f, grid)
        solved = solve(f, grid.ravel()).reshape(swept.shape)
        _, move, bijective = match(swept, solved)
        scale = np.maximum(1.0, np.abs(solved).max(axis=-1))
        # Equal roots never match one to one; a vertex with them is solved.
        same = (np.sort_complex(swept) == np.sort_complex(solved)).all(axis=-1)
        assert np.all(same | (bijective & (move.max(axis=-1) <= 1e-12 * scale)))

    def test_a_vertex_on_a_branch_point_falls_back_to_the_solve(self, monkeypatch):
        f = parse_bivariate_text("w^2 - z")
        axis = np.linspace(-1.0, 1.0, 5)
        grid = axis[None, :] + 1j * axis[:, None]
        assert grid[2, 2] == 0
        solved_z = []

        def companion_roots(coeffs):
            solved_z.extend(-coeffs[:, 0])
            return companion(coeffs)

        companion = fibers._companion_roots
        monkeypatch.setattr(fibers, "_companion_roots", companion_roots)
        swept = sweep(f, grid)
        assert solved_z[:5] == grid[0].tolist()
        assert 0 in solved_z[5:]
        # No match of the double root to the predictor is a bijection, so it
        # keeps the solve's order and bits.
        assert np.array_equal(swept[2, 2], solve(f, np.array([0j]))[0])


def adjacent_swaps(old, new):
    """Positions p where the orders old and new differ by disjoint swaps of
    (p, p+1), else None: a walk along the positions."""
    pairs, i, n = [], 0, len(old)
    while i < n:
        if old[i] == new[i]:
            i += 1
        elif i + 1 < n and old[i] == new[i + 1] and old[i + 1] == new[i]:
            pairs.append(i)
            i += 2
        else:
            return None
    return pairs


def order_changes(rng, n):
    """Pairs of strand orders on n strands: identity, one adjacent swap,
    disjoint adjacent swaps, adjacent 3-cycles and far transpositions."""
    for _ in range(40):
        old = rng.permutation(n)
        yield old, old.copy()
        p = rng.integers(n - 1)
        new = old.copy()
        new[[p, p + 1]] = new[[p + 1, p]]
        yield old, new
        new = old.copy()
        for p in range(rng.integers(2), n - 1, 2):
            if rng.random() < 0.7:
                new[[p, p + 1]] = new[[p + 1, p]]
        yield old, new
        if n >= 3:
            p = rng.integers(n - 2)
            new = old.copy()
            new[p : p + 3] = np.roll(new[p : p + 3], rng.choice([-1, 1]))
            yield old, new
            p, q = sorted(rng.choice(n, 2, replace=False))
            new = old.copy()
            new[[p, q]] = new[[q, p]]
            yield old, new


def reference_root_gaps(vals):
    """The full (..., n, n) form of :func:`root_gaps`, kept to check its bits."""
    d = np.abs(vals[..., :, None] - vals[..., None, :])
    diagonal = np.arange(vals.shape[-1])
    d[..., diagonal, diagonal] = np.inf
    return d.min(axis=-1)


def reference_step(old, new, gaps):
    """:func:`step` as a full nearest match of every fiber, each root judged
    against its own gap, kept to check its bits."""
    d = np.abs(old[..., :, None] - new[..., None, :])
    sel = d.argmin(axis=-1)
    move = d.min(axis=-1)
    bijective = (np.sort(sel, axis=-1) == np.arange(old.shape[-1])).all(axis=-1)
    return sel, move, bijective & (move < gaps / 3.0).all(axis=-1)


def assert_same_bits(got, want):
    """Same type, dtype and shape, NaN in the same places, equal bits elsewhere."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want) if want.dtype.kind == "f" else np.zeros(want.shape, dtype=bool)
    assert np.array_equal(np.isnan(got) if got.dtype.kind == "f" else nan, nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def step_rows(rng, n, count):
    """``count`` pairs of fibers on n roots, each of one of four kinds: every
    root moved less than a third of its own old gap in place, two roots exchanged,
    two new roots on one old root (so the nearest match collapses), and a NaN."""
    old = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    jitter = rng.random((count, n)) * np.exp(2j * np.pi * rng.random((count, n)))
    new = old + 0.33 * reference_root_gaps(old) * jitter
    for row, kind in enumerate(rng.integers(4, size=count)):
        i, j = rng.choice(n, 2, replace=False)
        if kind == 1:
            new[row, [i, j]] = new[row, [j, i]]
        elif kind == 2:
            new[row, j] = new[row, i]
        elif kind == 3:
            (old, new)[rng.integers(2)][row, i] = complex(np.nan, rng.normal())
    return old, new


class TestStepAndSwaps:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_swaps_agree_with_a_walk_along_the_positions(self, n):
        rng = np.random.default_rng(n)
        old, new = (np.array(side) for side in zip(*order_changes(rng, n)))
        valid, pairs = swaps(old, new)
        assert pairs.shape == (len(old), n - 1)
        for a, b, ok, row in zip(old, new, valid, pairs):
            expected = adjacent_swaps(a.tolist(), b.tolist())
            assert ok == (expected is not None)
            if expected is not None:
                assert np.flatnonzero(row).tolist() == expected
        assert (~valid).any() == (n >= 3)
        assert (pairs.sum(axis=-1)[valid] > 1).any() == (n >= 4)

    def test_step_rejects_a_move_of_a_third_of_the_roots_own_gap(self):
        # The far root may move nine times as far as the close pair.
        old = np.array([[0j, 1 + 0j, 10 + 0j]] * 2)
        new = old + np.array([[0.3, 0.3, 3.0], [0.3, 0.3, 2.999]])
        gaps = root_gaps(old)
        sel, move, ok = step(old, new, gaps)
        assert gaps.tolist() == [[1.0, 1.0, 9.0]] * 2 and move[0, 2] == 3.0
        assert ok.tolist() == [False, True]
        assert (sel == np.arange(3)).all()

    def test_step_rejects_a_match_that_is_not_a_bijection(self):
        old = np.array([0j, 1 + 0j])
        sel, move, ok = step(old, np.array([0.4 + 0j, 5 + 0j]), root_gaps(old))
        assert sel.tolist() == [0, 0]
        assert not ok

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 7),
        shape=st.one_of(
            st.just(()),
            st.tuples(st.integers(1, 12)),
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        ),
        seed=st.integers(0, 2**32 - 1),
        gap_of_new=st.booleans(),
    )
    def test_step_and_root_gaps_keep_the_bits_of_the_full_match(self, n, shape, seed, gap_of_new):
        rows = step_rows(np.random.default_rng(seed), n, int(np.prod(shape, dtype=int)))
        old, new = (side.reshape(shape + (n,)) for side in rows)
        for fiber in (old, new):
            assert_same_bits(root_gaps(fiber), reference_root_gaps(fiber))
        gaps = reference_root_gaps(new if gap_of_new else old)
        got, want = step(old, new, gaps), reference_step(old, new, gaps)
        for got_part, want_part in zip(got, want):
            assert_same_bits(got_part, want_part)
        assert got[0].flags.writeable

    def test_root_gaps_read_a_lattice_in_blocks_as_one(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(2, 61, 70, 3)) + 1j * rng.normal(size=(2, 61, 70, 3))
        vals[1, 30, 5, 2] = np.nan
        assert_same_bits(root_gaps(vals), reference_root_gaps(vals))

    def test_a_lattice_step_builds_no_per_edge_root_pair_array(self):
        # Under a pairwise (edges, 4, 4) difference this peaks near 25 MB.
        rng = np.random.default_rng(3)
        fa = rng.normal(size=(258 * 257, 4)) + 1j * rng.normal(size=(258 * 257, 4))
        fb = fa + 1e-3 * (rng.normal(size=fa.shape) + 1j * rng.normal(size=fa.shape))
        tracemalloc.start()
        try:
            step(fa, fb, root_gaps(fa))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestBatchedBisection:
    def test_a_batch_equals_each_bracket_alone(self):
        f, data = QUARTIC
        rot = rotation(data)
        brackets = swap_brackets(f, rot)
        positions = {br[4] for br in brackets}
        assert positions == {0, 1}
        batch = bisect(f, rot, brackets)
        for k, bracket in enumerate(brackets):
            alone = bisect(f, rot, [bracket])
            for got, want in zip(batch, alone):
                assert np.asarray(got[k]).tobytes() == np.asarray(want[0]).tobytes()

    def test_brackets_close_at_their_own_tolerance(self, monkeypatch):
        f, data = QUARTIC
        rot = rotation(data)
        a, b, ref_a, ref_b = edge_points(swap_brackets(f, rot)[:3])
        edge = edge_map(a, b)
        hi = np.array([1.0, 0.5, 0.25])
        far_a, far_b = tracked_at(f, ref_a, ref_b, edge(hi, np.arange(3)))
        point, calls = record_evaluations(monkeypatch, rot, edge_path(a, b))
        t, *_ = bisect_crossings(
            f, rot, point, ref_a, ref_b, far_a, far_b, np.zeros(3), hi, 1e-3
        )
        # The brackets are replayed from the evaluations.
        evaluations = calls
        below = _rotated_re(rot, ref_a - ref_b) < 0
        lo, up = np.zeros(3), hi.copy()
        closed: set[int] = set()
        for k, (ids, ts, g, size) in enumerate(evaluations):
            # Open brackets never rise; a closed one is not evaluated again.
            if k:
                assert set(ids.tolist()) <= set(evaluations[k - 1][0].tolist())
            assert not closed & set(ids.tolist())
            # Every iterate lies strictly inside its bracket.
            assert np.all((lo[ids] < ts) & (ts < up[ids]))
            left = (g < 0) == below[ids]
            # A gap that is rounding shrinks the bracket to its iterate.
            zero = np.abs(g) <= 8 * EPS * size
            lo[ids] = np.where(left | zero, ts, lo[ids])
            up[ids] = np.where(left & ~zero, up[ids], ts)
            closed |= set(np.flatnonzero(up - lo <= 1e-3).tolist())
        assert closed == {0, 1, 2}
        assert np.array_equal(t, 0.5 * (lo + up))

    @pytest.mark.parametrize("fixture", [QUARTIC, FOUR_STRAND], ids=["quartic", "four_strand"])
    def test_crossings_agree_with_fixed_halving(self, fixture):
        f, data = fixture
        rot = rotation(data)
        brackets = untied(f, rot, swap_brackets(f, rot))
        a, b, ref_a, ref_b = edge_points(brackets)
        lo, hi = np.zeros(len(a)), np.ones(len(a))
        t = bisect(f, rot, brackets)[0]
        want = reference_bisection(f, rot, edge_map(a, b), ref_a, ref_b, lo, hi, HALVINGS)
        assert np.all(np.abs(t - want) <= crossing_tolerance(f, rot, brackets))

    def test_evaluations_per_bracket_are_bounded(self, monkeypatch):
        f, data = QUARTIC
        rot = rotation(data)
        brackets = swap_brackets(f, rot)
        a, b, ref_a, ref_b = edge_points(brackets)
        far_a, far_b = tracked_at(f, ref_a, ref_b, b)
        point, calls = record_evaluations(monkeypatch, rot, edge_path(a, b))
        bisect_crossings(
            f, rot, point, ref_a, ref_b, far_a, far_b, np.zeros(len(a)), np.ones(len(a))
        )
        # Fixed halving took 48 evaluations per bracket, a final solve and a
        # far-end solve.
        per_bracket = evaluations_per_bracket(calls, len(a))
        assert np.median(per_bracket) <= MEDIAN_EVALUATIONS
        assert per_bracket.max() <= 3 * HALVINGS + 1

    def test_lopsided_brackets_close_within_the_bound(self, monkeypatch):
        f, data = QUARTIC
        rot = rotation(data)
        brackets = untied(f, rot, swap_brackets(f, rot))
        a, b, ref_a, ref_b = edge_points(brackets)
        edge = edge_map(a, b)
        every = np.arange(len(a))
        crossing = bisect(f, rot, brackets)[0]
        # Brackets half an edge wide whose crossing sits 1e-6 of their width
        # from their near end, the low end or the high end by turns.
        width = 0.5
        near_lo = crossing >= width
        lo = np.where(near_lo, crossing - 1e-6 * width, crossing + 1e-6 * width - width)
        lo_a, lo_b = tracked_at(f, ref_a, ref_b, edge(lo, every))
        far_a, far_b = tracked_at(f, lo_a, lo_b, edge(lo + width, every))
        point, calls = record_evaluations(monkeypatch, rot, edge_path(a, b))
        t, *_ = bisect_crossings(
            f, rot, point, lo_a, lo_b, far_a, far_b, lo, lo + width
        )
        assert near_lo.any() and not near_lo.all()
        assert evaluations_per_bracket(calls, len(a)).max() <= 3 * HALVINGS + 1
        assert np.all(np.abs(t - crossing) <= crossing_tolerance(f, rot, brackets, width))

    def test_brackets_narrower_than_z_resolution_close(self, monkeypatch):
        # A bracket 1e-9 of an edge wide near t = 0.5 cannot narrow to 2^-48
        # of that in representable t; it closes once its gap is rounding or
        # an iterate repeats the z of an end, instead of running to the
        # evaluation cap.
        f, data = QUARTIC
        rot = rotation(data)
        brackets = untied(f, rot, swap_brackets(f, rot))
        a, b, ref_a, ref_b = edge_points(brackets)
        edge = edge_map(a, b)
        width = 1e-9
        lo = bisect(f, rot, brackets)[0] - 0.3 * width
        every = np.arange(len(a))
        lo_a, lo_b = tracked_at(f, ref_a, ref_b, edge(lo, every))
        far_a, far_b = tracked_at(f, lo_a, lo_b, edge(lo + width, every))
        point, calls = record_evaluations(monkeypatch, rot, edge_path(a, b))
        bisect_crossings(f, rot, point, lo_a, lo_b, far_a, far_b, lo, lo + width)
        per_bracket = evaluations_per_bracket(calls, len(a))
        assert np.median(per_bracket) <= MEDIAN_EVALUATIONS
        assert per_bracket.max() < 3 * HALVINGS


class TestCrossingCorrector:
    """The pair corrector behind every bracket iterate: Newton on the fiber,
    certified by a Pellet disc, with the solve only where that fails."""

    @staticmethod
    def fibers_at(f, zs):
        return fibers._jet_coefficients(f, zs), solve(f, zs)

    def test_corrected_roots_are_the_solve_s_roots_with_their_derivatives(self, monkeypatch):
        f, _ = FOUR_STRAND
        rng = np.random.default_rng(5)
        zs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        coeffs, roots = self.fibers_at(f, zs)
        refs = roots[:, :2]
        guess = refs + 1e-4 * (rng.normal(size=refs.shape) + 1j * rng.normal(size=refs.shape))
        solved, companion = [], fibers._companion_roots
        monkeypatch.setattr(fibers, "_companion_roots", lambda c: solved.append(len(c)) or companion(c))
        w, dw = _corrected(coeffs, refs, guess)
        assert solved == []
        scale = np.maximum(1.0, np.abs(roots).max(axis=1, keepdims=True))
        assert np.all(np.abs(w - refs) <= 1e-12 * scale)
        # dw/dz is taken at the last Newton iterate, within 2^-26 of the root.
        (f_z, f_w), _ = f.jet(zs[:, None], refs, ((1, 0), (0, 1)))
        assert np.allclose(dw, -f_z / f_w, rtol=2.0**-20, atol=2.0**-20)

    def test_a_guess_that_runs_to_another_root_falls_back_to_the_solve(self, monkeypatch):
        f, _ = FOUR_STRAND
        zs = np.array([0.3 + 0.2j, -1.1 + 0.7j])
        coeffs, roots = self.fibers_at(f, zs)
        # Newton from next to root 1 finds root 1, which no disc can claim
        # for a reference at root 0.
        refs, guess = roots[:, :1], roots[:, 1:2] + 1e-9
        solved, companion = [], fibers._companion_roots
        monkeypatch.setattr(fibers, "_companion_roots", lambda c: solved.append(len(c)) or companion(c))
        w, _ = _corrected(coeffs, refs, guess)
        assert solved == [2]
        assert np.allclose(w, refs, rtol=0, atol=1e-12)


class TestClosedFormCrossings:
    """On w^2 - z at theta = 0 the rotated gap 2 Re sqrt(z) vanishes exactly
    on the negative real axis, so crossings have closed forms."""

    F = parse_bivariate_text("w^2 - z")

    def test_a_bracket_across_the_negative_axis_closes_on_it(self):
        a, b = np.array([-1.0 + 0.3j]), np.array([-0.8 - 0.5j])
        ref, far = sorted_fibers(self.F, 1.0, a), sorted_fibers(self.F, 1.0, b)
        t, z, *_ = bisect_crossings(
            self.F, 1.0, edge_path(a, b), ref[:, 0], ref[:, 1], far[:, 1], far[:, 0], np.zeros(1), np.ones(1)
        )
        want = -a.imag / (b - a).imag
        crossing = a + want * (b - a)
        # g = 2 Re sqrt(z) has g' = Im(b - a) / sqrt|z| on the axis; a bracket
        # closes within 2^-48 of the edge, or where g is 8 eps of the roots.
        slope = np.abs((b - a).imag) / np.sqrt(np.abs(crossing))
        tol = 0.5**HALVINGS + 8 * EPS * np.maximum(1.0, np.sqrt(np.abs(crossing))) / slope
        assert np.all(np.abs(t - want) <= tol)
        assert np.all(np.abs(z.imag) <= np.abs(b - a) * tol)

    @pytest.mark.parametrize("start", [0.0, 0.4, 2.5, 3.5, 5.9])
    def test_a_circle_about_the_branch_point_crosses_once_at_the_axis(self, start):
        data = replace(branch_points(self.F), generic=True, rotation_theta=0.0)
        loop = LoopPath((Arc(0j, 1.3, start, start + 2 * math.pi),), closed=True)
        track = monodromy.track_roots(self.F, data, loop)
        want = ((math.pi - start) % (2 * math.pi)) / (2 * math.pi)
        assert [(e.position, e.sign) for e in track.events] == [(1, 1)]
        assert abs(track.events[0].t - want) <= monodromy.BISECTION_T_TOL


class TestCrossingPoints:
    def test_segment_endpoints_are_ties_of_numpy_roots(self):
        f, data = QUARTIC
        rot = rotation(data)
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 48)
        assert graph.segments
        for seg in graph.segments:
            for z in (seg.start, seg.end):
                roots = np.roots(f.fiber(z).coefficients[::-1])
                re = np.sort((rot * roots).real)
                gaps = np.diff(re)
                scale = max(1.0, float(np.abs(roots).max()))
                assert gaps.min() <= 1e-8 * scale
                assert int(gaps.argmin()) == seg.label - 1

    def test_quartic_graph_matches_the_frozen_graph(self):
        f, data = QUARTIC
        frozen = json.loads((DATA_DIR / "quartic_graph_res48.json").read_text())
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 48)
        payload = graph_to_json(graph)
        assert payload["flagged"] == frozen["flagged"]
        assert np.allclose(payload["vertices"], frozen["vertices"], rtol=0, atol=1e-12)
        assert [e["label"] for e in payload["edges"]] == [e["label"] for e in frozen["edges"]]
        for got, want in zip(payload["edges"], frozen["edges"]):
            assert np.allclose(got["points"], want["points"], rtol=0, atol=1e-12)
        assert [s.label for s in graph.segments] == [s["label"] for s in frozen["segments"]]
        ends = [[s.start.real, s.start.imag, s.end.real, s.end.imag] for s in graph.segments]
        want_ends = [s["start"] + s["end"] for s in frozen["segments"]]
        assert np.allclose(ends, want_ends, rtol=0, atol=1e-12)


def quartic_record():
    """The record frozen in quartic_graph_res48.json: the graph's JSON and its segments."""
    f, data = QUARTIC
    graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 48)
    segments = [{"start": _pair(s.start), "end": _pair(s.end), "label": s.label} for s in graph.segments]
    return {**graph_to_json(graph), "segments": segments}


if __name__ == "__main__":
    # Regenerates the frozen quartic graph; run only when a change of the
    # graph is intended: PYTHONPATH=src python -m tests.test_fibers
    (DATA_DIR / "quartic_graph_res48.json").write_text(json.dumps(quartic_record()) + "\n")
