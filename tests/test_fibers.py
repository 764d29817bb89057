"""Tests for the shared fiber kernel: solves, matching and batched bisection.

Bisection of a batch must give exactly what bisecting each bracket alone
gives, whatever positions the brackets swap.  The crossing points it finds
are checked against ``numpy.roots`` of the fiber there, and the crossing
graph they build is checked against a frozen graph of the quartic.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from quasibraid import graph_to_json, sample_crossing_graph
from quasibraid.fibers import bisect_crossings, match, min_gap, solve
from tests.test_monodromy import prepared

DATA_DIR = Path(__file__).parent / "data"
QUARTIC = prepared("w^3 - 3*w + 2*z^4")


def rotation(data):
    return complex(math.cos(data.rotation_theta), math.sin(data.rotation_theta))


def sorted_fibers(f, rot, zs):
    fibers = solve(f, zs)
    rv = rot * fibers
    order = np.lexsort((rv.imag, rv.real), axis=-1)
    return np.take_along_axis(fibers, order, axis=-1)


def swap_brackets(f, rot):
    """Short lattice edges across which the sorted fiber swaps one adjacent
    pair p, p+1, as (a, b, root p at a, root p+1 at a, p)."""
    xs = np.linspace(-1.9, 1.9, 40) + 0.0123
    a = (xs[None, :] + 1j * xs[:, None]).ravel()
    b = a + (xs[1] - xs[0])
    fa, fb = sorted_fibers(f, rot, a), sorted_fibers(f, rot, b)
    sel, move, bijective = match(fa, fb)
    keep = bijective & (move < min_gap(fa) / 3.0)
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


def bisect(f, rot, brackets):
    a, b, ref_a, ref_b = edge_points(brackets)
    return bisect_crossings(
        f,
        rot,
        lambda ts, idx: a[idx] + (b[idx] - a[idx]) * ts,
        ref_a,
        ref_b,
        np.zeros(len(a)),
        np.ones(len(a)),
        48,
    )


class TestSolveAndMatch:
    def test_solve_agrees_with_numpy_roots(self):
        f, _ = QUARTIC
        zs = np.array([0.3 + 0.1j, -1.2 + 0.7j, 1.5 - 1.1j])
        for z, fiber in zip(zs, solve(f, zs)):
            expected = np.roots(f.fiber(complex(z)).coefficients[::-1])
            sel, move, bijective = match(expected, fiber)
            assert bijective
            assert move < 1e-10

    def test_match_reports_the_nearest_bijection(self):
        old = np.array([[0j, 1 + 0j, 3j]])
        new = np.array([[3.1j, 0.1 + 0j, 1.05 + 0j]])
        sel, move, bijective = match(old, new)
        assert sel.tolist() == [[1, 2, 0]]
        assert move[0] == pytest.approx(0.1)
        assert bijective[0]
        assert not match(old, np.array([[0.1j, 0.2j, 3j]]))[2][0]

    def test_min_gap_is_the_closest_pair(self):
        assert min_gap(np.array([0j, 2 + 0j, 2.5 + 0j])) == pytest.approx(0.5)


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

    def test_brackets_close_at_their_own_tolerance(self):
        f, data = QUARTIC
        rot = rotation(data)
        a, b, ref_a, ref_b = edge_points(swap_brackets(f, rot)[:3])
        calls = []

        def point(ts, idx):
            calls.append(len(idx))
            return a[idx] + (b[idx] - a[idx]) * ts

        hi = np.array([1.0, 0.5, 0.25])
        t, *_ = bisect_crossings(f, rot, point, ref_a, ref_b, np.zeros(3), hi, 64, 1e-3)
        # 1, 1/2 and 1/4 need 10, 9 and 8 halvings to get below 1e-3.
        assert calls == [3] * 8 + [2, 1, 3]
        assert np.all(t <= hi)


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
