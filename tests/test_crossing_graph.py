"""Tests for crossing locus extraction over a rectangle.

The square root surface pins the picture down exactly: two fiber roots share
a real part precisely where z is a nonpositive real, so the sampled locus
must hug the negative real axis at any resolution.  The cubic family adds
known ray configurations with known labels.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasibraid import (
    Arc,
    BivariatePolynomial,
    InputError,
    NumericalFailure,
    LoopPath,
    Segment,
    UnivariatePolynomial,
    bounding_box,
    braid_along,
    branch_points,
    crossing_graph,
    crossings_of,
    free_reduce,
    graph_from_json,
    graph_to_json,
    perturb_generic,
    sample_crossing_graph,
    select_rotation,
    word_to_text,
)
from quasibraid.fibers import bisect_crossings, solve, sweep
from tests.test_monodromy import circle, prepared, wide_region_curve

SQRT = prepared("w^2 - z")
CUBIC = prepared("w^3 - 3*w + 2*z")
QUARTIC = prepared("w^3 - 3*w + 2*z^4")
FOUR = prepared("w^4 - z*w^3 - w^2 + z*w + 0.05")
JUNCTION = prepared("w^2 + z^2*w + 1")
SQUARE = (-2, -2, 2, 2)
FIXTURES = [(SQRT, SQUARE), (QUARTIC, SQUARE), (FOUR, (-3, -3, 3, 3))]
FIXTURE_IDS = ["sqrt", "quartic", "four-strand"]
DATA_DIR = Path(__file__).parent / "data"


def segment_cloud(graph, per_segment=5):
    pts = []
    for seg in graph.segments:
        for s in np.linspace(0.0, 1.0, per_segment):
            pts.append(seg.start + s * (seg.end - seg.start))
    return np.array(pts, dtype=complex)


class TestSquareRootLocus:
    @pytest.mark.parametrize("resolution", [64, 256])
    def test_locus_is_the_negative_real_axis(self, resolution):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), resolution)
        assert graph.segments
        cell = 4.0 / resolution
        for seg in graph.segments:
            for p in (seg.start, seg.end):
                assert abs(p.imag) <= cell
                assert p.real <= cell
            assert seg.label == 1

    def test_locus_reaches_from_the_branch_point_to_the_boundary(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 64)
        reals = [p.real for seg in graph.segments for p in (seg.start, seg.end)]
        assert min(reals) <= -1.9
        assert max(reals) >= -0.2

    def test_no_flags_and_one_vertex(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 64)
        assert graph.flagged == ()
        assert len(graph.vertices) == 1
        assert abs(graph.vertices[0]) < 0.1


class TestCubicRays:
    def test_two_real_rays_with_distinct_labels(self):
        f, data = CUBIC
        graph = sample_crossing_graph(f, data, (-2.5, -2.5, 2.5, 2.5), 96)
        cell = 5.0 / 96
        left = [s for s in graph.segments if (s.start.real + s.end.real) / 2 < -1]
        right = [s for s in graph.segments if (s.start.real + s.end.real) / 2 > 1]
        assert left and right
        for seg in graph.segments:
            assert abs(seg.start.imag) <= cell
            assert abs(seg.end.imag) <= cell
        assert {s.label for s in left} == {1}
        assert {s.label for s in right} == {2}

    def test_rays_start_at_the_branch_points(self):
        f, data = CUBIC
        graph = sample_crossing_graph(f, data, (-2.5, -2.5, 2.5, 2.5), 96)
        cell = 5.0 / 96
        reals = [p.real for s in graph.segments for p in (s.start, s.end)]
        assert min(reals) == pytest.approx(-2.5, abs=2 * cell)
        assert max(reals) == pytest.approx(2.5, abs=2 * cell)
        interior = [r for r in reals if abs(r) < 1 - 2 * cell]
        assert interior == []


class TestQuarticRays:
    def test_eight_radial_rays_with_alternating_labels(self):
        f, data = QUARTIC
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 128)
        assert graph.segments
        for seg in graph.segments:
            mid = (seg.start + seg.end) / 2
            assert abs(mid) > 0.9
            angle = math.atan2(mid.imag, mid.real) % (2 * math.pi)
            k = round(angle / (math.pi / 4)) % 8
            diff = abs(angle - k * math.pi / 4)
            assert min(diff, 2 * math.pi - diff) < 0.15
            # Rays through the real and imaginary axes separate the top two
            # strands; the diagonal rays separate the bottom two.
            assert seg.label == (2 if k % 2 == 0 else 1)

    def test_unit_disk_interior_is_locus_free(self):
        f, data = QUARTIC
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 128)
        cell = 4.0 / 128
        for seg in graph.segments:
            assert min(abs(seg.start), abs(seg.end)) > 1 - 3 * cell


class TestRefinement:
    def test_doubling_the_resolution_keeps_the_locus_in_place(self):
        f, data = QUARTIC
        coarse = sample_crossing_graph(f, data, (-2, -2, 2, 2), 64)
        fine = sample_crossing_graph(f, data, (-2, -2, 2, 2), 128)
        cell = 4.0 / 64
        a = segment_cloud(coarse)
        b = segment_cloud(fine)
        gaps = np.abs(a[:, None] - b[None, :]).min(axis=1)
        assert float(gaps.max()) <= cell


class TestEdges:
    @pytest.mark.parametrize("resolution", [32, 64, 128])
    def test_quartic_has_one_edge_per_ray_at_every_resolution(self, resolution):
        f, data = QUARTIC
        graph = sample_crossing_graph(f, data, SQUARE, resolution)
        labels = [e.label for e in graph.edges]
        assert sorted(labels) == [1] * 4 + [2] * 4

    def test_square_root_locus_is_one_edge(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, SQUARE, 64)
        assert len(graph.edges) == 1

    @pytest.mark.parametrize("upper_x, lower_x", [(-1.4e-17, 6.9e-18), (6.9e-18, -1.4e-17)])
    def test_edges_starting_on_one_vertical_line_chain_by_height(self, upper_x, lower_x):
        # Two label-2 edges of the quartic start on the imaginary axis, at
        # real parts that only rounding sets: their order must not follow
        # the sign of those real parts.
        upper = crossing_graph.LabeledSegment(complex(upper_x, 1.0569), 0.0066 + 1.1403j, 2)
        lower = crossing_graph.LabeledSegment(complex(lower_x, -1.0264), 0.0066 - 1.1097j, 2)
        for segments in ([upper, lower], [lower, upper]):
            edges = crossing_graph._chain_segments(segments, 1e-9)
            assert [e.points[0] for e in edges] == [lower.start, upper.start]

    @pytest.mark.parametrize("fixture, region", FIXTURES, ids=FIXTURE_IDS)
    def test_each_segment_is_one_step_of_one_edge_in_its_direction(self, fixture, region):
        f, data = fixture
        resolution = 48
        graph = sample_crossing_graph(f, data, region, resolution)
        join_tol = 1e-7 * (region[2] - region[0]) / resolution
        steps = [
            (e.label, a, b) for e in graph.edges for a, b in zip(e.points, e.points[1:])
        ]
        assert len(steps) == len(graph.segments)
        for seg in graph.segments:
            matches = [
                (label, a, b)
                for label, a, b in steps
                if label == seg.label
                and abs(a - seg.start) <= join_tol
                and abs(b - seg.end) <= join_tol
            ]
            assert len(matches) == 1


class TestSweptLattice:
    @pytest.mark.parametrize("resolution", [32, 64])
    @pytest.mark.parametrize("fixture, region", FIXTURES, ids=FIXTURE_IDS)
    def test_graph_equals_the_one_from_a_solve_per_vertex(
        self, monkeypatch, fixture, region, resolution
    ):
        f, data = fixture
        swept = graph_to_json(sample_crossing_graph(f, data, region, resolution))

        def solved(f, grid):
            return solve(f, grid.ravel()).reshape(grid.shape + (f.w_degree,))

        monkeypatch.setattr(crossing_graph, "sweep", solved)
        assert swept == graph_to_json(sample_crossing_graph(f, data, region, resolution))


def four_strand_record():
    """The record frozen in four_strand_graph_res64.json."""
    f, data = FOUR
    return graph_to_json(sample_crossing_graph(f, data, (-3, -3, 3, 3), 64))


class TestLevelByLevelBuild:
    """The subdividing four-strand graph, frozen bitwise with its flag order,
    and the batching that builds it one cell depth at a time."""

    def test_four_strand_graph_matches_the_frozen_graph(self):
        frozen = json.loads((DATA_DIR / "four_strand_graph_res64.json").read_text())
        payload = four_strand_record()
        assert (len(payload["edges"]), len(payload["flagged"])) == (14, 10)
        assert payload == frozen

    def test_one_bisection_call_per_level_and_edge_direction(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return bisect_crossings(*args, **kwargs)

        monkeypatch.setattr(crossing_graph, "bisect_crossings", counting)
        f, data = FOUR
        graph = sample_crossing_graph(f, data, (-3, -3, 3, 3), 64)
        assert graph.flagged, "the build must reach the deepest cell level"
        assert len(calls) <= 2 * (crossing_graph._MAX_CELL_DEPTH + 1)

    def test_a_split_edge_gives_its_events_in_order_along_it(self):
        # On a coarse lattice some edges cross two locus curves, so their end
        # orders differ by two swaps and they are halved before bisection.
        f, data = FOUR
        rot = complex(math.cos(data.rotation_theta), math.sin(data.rotation_theta))
        xs = np.linspace(-3.0, 3.0, 5) + 0.0123
        grid = xs[None, :] + 1j * (xs[:, None] + 0.0048)
        fibers = crossing_graph._sorted(sweep(f, grid), rot)
        a, b = np.s_[:, :-1], np.s_[:, 1:]
        events, bad = crossing_graph._edge_events(
            f, rot, grid[a][None], grid[b][None], fibers[a][None], fibers[b][None], np.array([1e-11])
        )
        split = {e: found for e, found in events.items() if len(found) > 1}
        assert split and not bad
        starts, ends = grid[a].ravel(), grid[b].ravel()
        for e, found in split.items():
            along = [((z - starts[e]) / (ends[e] - starts[e])).real for z, _, _ in found]
            assert along == sorted(along) and 0 < along[0] and along[-1] < 1
            assert len({label for _, label, _ in found}) == len(found)


class TestReadingLoops:
    def test_matches_continuation_on_the_square_root_surface(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 96)
        loop = circle()
        assert word_to_text(crossings_of(graph, loop)) == "s1"
        assert word_to_text(crossings_of(graph, circle(turns=-1))) == "s1^-1"

    def test_matches_continuation_on_the_quartic(self):
        f, data = QUARTIC
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 128)
        for loop in (
            circle(radius=1.8, start_angle=1.0),
            circle(center=1 + 1j, radius=0.8),
            circle(center=1.0 + 0j, radius=0.4, turns=-1),
        ):
            from_graph = free_reduce(crossings_of(graph, loop))
            from_tracking = free_reduce(braid_along(f, data, loop))
            assert from_graph == from_tracking

    @pytest.mark.parametrize("turns", [2, -2])
    @pytest.mark.parametrize(
        "fixture, loop",
        [
            (SQRT, dict()),
            (QUARTIC, dict(radius=1.8, start_angle=1.0)),
            (QUARTIC, dict(center=1 + 1j, radius=0.8)),
        ],
        ids=["sqrt-unit", "quartic-all", "quartic-one"],
    )
    def test_multi_turn_circles_read_every_turn(self, fixture, loop, turns):
        f, data = fixture
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 96)
        path = circle(turns=turns, **loop)
        assert crossings_of(graph, path) == braid_along(f, data, path)

    def test_repeated_and_round_tripped_reads_agree(self):
        f, data = QUARTIC
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 96)
        loops = (circle(radius=1.8, start_angle=1.0), circle(center=1 + 1j, radius=0.8))
        first = [crossings_of(graph, loop) for loop in loops]
        assert [crossings_of(graph, loop) for loop in loops] == first
        copy = graph_from_json(graph_to_json(graph))
        assert [crossings_of(copy, loop) for loop in loops] == first
        assert copy == graph
        assert first[0].letters

    def test_open_loops_are_rejected(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 32)
        from quasibraid import Segment

        path = LoopPath((Segment(0.5, 1.5),), closed=False)
        with pytest.raises(InputError):
            crossings_of(graph, path)

    def test_loop_leaving_the_region_is_rejected(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 32)
        with pytest.raises(InputError):
            crossings_of(graph, circle(radius=3.0))

    def test_arc_bulging_out_of_the_region_is_rejected(self):
        # Both ends of the arc lie inside the region, its far side does not.
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 32)
        loop = LoopPath((Arc(-1.5 + 0.1j, 1.0, 0.0, 2 * math.pi),), closed=True)
        with pytest.raises(InputError):
            crossings_of(graph, loop)

    def test_loop_through_a_flagged_cell_is_rejected(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 32)
        poisoned = dataclasses.replace(graph, flagged=((0.9, -0.1, 1.1, 0.1),))
        with pytest.raises(NumericalFailure):
            crossings_of(poisoned, circle())

    def test_the_first_flagged_cell_entered_is_named(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 32)
        cells = ((-1.9, -1.9, -1.7, -1.7), (-0.1, -0.1, 0.1, 0.1), (0.9, -0.1, 1.1, 0.1))
        poisoned = dataclasses.replace(graph, flagged=cells)
        # The unit circle crosses the third cell and encloses the second.
        with pytest.raises(NumericalFailure) as caught:
            crossings_of(poisoned, circle())
        assert caught.value.diagnostics["cell"] == list(cells[2])
        # A loop inside a cell crosses none of its sides.
        inside = circle(center=-1.8 - 1.8j, radius=0.05)
        with pytest.raises(NumericalFailure) as caught:
            crossings_of(poisoned, inside)
        assert caught.value.diagnostics["cell"] == list(cells[0])
        assert word_to_text(crossings_of(poisoned, circle(center=0.5j, radius=0.2))) == ""

    def test_failures_name_the_flagged_cell_and_the_tangent_pair(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), 32)
        cells = ((-1.9, -1.9, -1.7, -1.7), (-0.1, -0.1, 0.1, 0.1), (0.9, -0.1, 1.1, 0.1))
        with pytest.raises(NumericalFailure) as caught:
            crossings_of(dataclasses.replace(graph, flagged=cells), circle())
        assert caught.value.diagnostics["cell_index"] == 2
        # One locus edge of two segments; the loop's second side crosses the
        # second segment at a slope of 1e-10.
        line = graph_from_json(
            {
                "strands": 2,
                "theta": 0.0,
                "region": [-2, -2, 2, 2],
                "resolution": 8,
                "vertices": [],
                "edges": [{"label": 1, "points": [[-1.5, 0.5], [-1.2, 0.0], [1.5, 0.0]]}],
                "flagged": [],
            }
        )
        low, high = -1 - 1e-10j, 1 + 1e-10j
        loop = LoopPath((Segment(1j, low), Segment(low, high), Segment(high, 1j)))
        with pytest.raises(NumericalFailure, match="tangent") as caught:
            crossings_of(line, loop)
        assert caught.value.diagnostics["segment"] == 1
        assert caught.value.diagnostics["primitive"] == 1
        assert caught.value.diagnostics["t"] > loop.primitive_spans()[1][0]

    def test_loop_past_a_junction_finer_than_a_cell_is_rejected(self):
        # w1 - w2 = sqrt(z^4 - 4) has zero real part on the axes and the
        # diagonals, so eight locus rays meet at z = 0.  The cells there see
        # fewer of them and leave chains ending in the open; those cells are
        # flagged, so a circle passing the junction within a cell is refused
        # instead of read as the empty word.
        f, data = JUNCTION
        graph = sample_crossing_graph(f, data, (-2.5, -2.5, 2.5, 2.5), 64)
        assert any(x0 <= 0 <= x1 and y0 <= 0 <= y1 for x0, y0, x1, y1 in graph.flagged)
        with pytest.raises(NumericalFailure, match="flagged"):
            crossings_of(graph, circle(-1.0146 + 0.3996j, 1.0936, 1, 0.0))


class TestWideRegions:
    def test_a_wide_region_samples_quickly_with_no_flagged_cell(self):
        # Lattice edges far from the closest root pair need no halving.
        f, data = wide_region_curve()
        bx0, by0, bx1, by1 = bounding_box(data.values())
        px, py = 0.5 + 0.2 * (bx1 - bx0), 0.5 + 0.2 * (by1 - by0)
        started = time.perf_counter()
        graph = sample_crossing_graph(f, data, (bx0 - px, by0 - py, bx1 + px, by1 + py), 48)
        assert time.perf_counter() - started < 10.0
        assert graph.flagged == ()


class TestReadingAgreesWithContinuation:
    """The graph and continuation are independent routes to a loop's braid
    word; on random curves and circles their freely reduced words agree."""

    RESOLUTION = 64
    CIRCLES = 3

    @settings(max_examples=10, deadline=None)
    @given(w_degree=st.integers(2, 3), z_degree=st.integers(1, 2), data=st.data())
    def test_random_circles_read_as_continuation(self, w_degree, z_degree, data):
        entries = st.integers(-3, 3)
        coeffs = [
            UnivariatePolynomial(tuple(data.draw(entries) for _ in range(z_degree + 1)))
            for _ in range(w_degree)
        ]
        f = BivariatePolynomial(tuple(coeffs) + (UnivariatePolynomial((1,)),))
        try:
            f, branch = perturb_generic(f)
            branch = dataclasses.replace(branch, rotation_theta=select_rotation(f, branch))
        except (InputError, NumericalFailure):
            assume(False)
        points = branch.values()
        assume(points)
        bx0, by0, bx1, by1 = bounding_box(points)
        px, py = 0.5 + 0.2 * (bx1 - bx0), 0.5 + 0.2 * (by1 - by0)
        region = (bx0 - px, by0 - py, bx1 + px, by1 + py)
        graph = sample_crossing_graph(f, branch, region, self.RESOLUTION)
        cell = max(region[2] - region[0], region[3] - region[1]) / self.RESOLUTION
        for _ in range(self.CIRCLES):
            # Centred near a branch point, with a radius at least 4 cells
            # past the k-th nearest one and short of the next, so the circle
            # encloses k of them and keeps clear of all.
            offset = complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
            center = data.draw(st.sampled_from(points)) + 0.5 * min(px, py) * offset
            room = min(
                center.real - region[0],
                region[2] - center.real,
                center.imag - region[1],
                region[3] - center.imag,
            )
            near = sorted(abs(center - z) for z in points) + [math.inf]
            k = data.draw(st.integers(1, len(points)))
            lo, hi = near[k - 1] + 4 * cell, min(near[k] - 4 * cell, room)
            if hi <= lo:
                continue
            radius = lo + data.draw(st.floats(0.05, 0.95)) * (hi - lo)
            turns = data.draw(st.sampled_from([1, -1]))
            loop = circle(center, radius, turns, data.draw(st.floats(0.0, 2 * math.pi)))
            try:
                read = free_reduce(crossings_of(graph, loop))
                tracked = free_reduce(braid_along(f, branch, loop))
            except (InputError, NumericalFailure):
                assume(False)
            assert read == tracked, (word_to_text(read), word_to_text(tracked))


class TestValidationAndSerialization:
    def test_region_must_be_ordered(self):
        f, data = SQRT
        with pytest.raises(InputError):
            sample_crossing_graph(f, data, (2, -2, -2, 2), 32)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_region_must_be_finite(self, bad):
        f, data = SQRT
        with pytest.raises(InputError, match="finite"):
            sample_crossing_graph(f, data, (0, 0, bad, 1), 8)

    @pytest.mark.parametrize("resolution", [8.5, 8.0, "8"])
    def test_resolution_must_be_an_integer(self, resolution):
        f, data = SQRT
        with pytest.raises(InputError, match="integer"):
            sample_crossing_graph(f, data, (-2, -2, 2, 2), resolution)

    def test_numpy_integer_resolution_round_trips(self):
        f, data = SQRT
        graph = sample_crossing_graph(f, data, (-2, -2, 2, 2), np.int64(8))
        assert type(graph.resolution) is int
        assert graph_from_json(graph_to_json(graph)) == graph

    def test_resolution_floor(self):
        f, data = SQRT
        with pytest.raises(InputError):
            sample_crossing_graph(f, data, (-2, -2, 2, 2), 2)

    def test_branch_point_outside_the_region_warns(self):
        f, data = CUBIC
        with pytest.warns(UserWarning):
            sample_crossing_graph(f, data, (-0.5, -0.5, 0.5, 0.5), 16)

    def test_json_round_trip(self):
        for (f, data), region in FIXTURES:
            graph = sample_crossing_graph(f, data, region, 48)
            assert graph_from_json(graph_to_json(graph)) == graph

    def test_malformed_payload_is_rejected(self):
        with pytest.raises(InputError):
            graph_from_json({"strands": 2})
        f, data = SQRT
        payload = graph_to_json(sample_crossing_graph(f, data, (-2, -2, 2, 2), 32))
        # A repeated point would make a segment without a direction.
        payload["edges"][0]["points"].insert(1, payload["edges"][0]["points"][0])
        with pytest.raises(InputError):
            graph_from_json(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("flagged", [[0.0, 0.0, 1.0]]),
            ("flagged", [[0.0, 0.0, math.nan, 1.0]]),
            ("flagged", [[1.0, 0.0, 0.0, 1.0]]),
            ("flagged", [[0.0, 1.0, 1.0, 1.0]]),
            ("flagged", [[0.0, 0.0, math.inf, 1.0]]),
            ("region", [2.0, -2.0, -2.0, 2.0]),
            ("region", [-2.0, -2.0, 2.0, math.nan]),
            ("region", [-2.0, -2.0, 2.0]),
            ("vertices", [[math.nan, 0.0]]),
            ("vertices", [[0.0, math.inf]]),
            ("strands", 1),
        ],
    )
    def test_malformed_graph_fields_are_rejected(self, key, value):
        f, data = SQRT
        payload = graph_to_json(sample_crossing_graph(f, data, (-2, -2, 2, 2), 32))
        payload[key] = value
        with pytest.raises(InputError):
            graph_from_json(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_edge_points_are_rejected(self, bad):
        f, data = SQRT
        payload = graph_to_json(sample_crossing_graph(f, data, (-2, -2, 2, 2), 32))
        payload["edges"][0]["points"][0][1] = bad
        with pytest.raises(InputError):
            graph_from_json(payload)

    def test_edges_in_the_retired_side_format_are_rejected(self):
        f, data = SQRT
        payload = graph_to_json(sample_crossing_graph(f, data, (-2, -2, 2, 2), 32))
        payload["edges"][0]["side"] = -1
        with pytest.raises(InputError, match="re-sample"):
            graph_from_json(payload)


if __name__ == "__main__":
    # Regenerates the frozen four-strand graph; run only when a change of the
    # graph is intended: PYTHONPATH=src python -m tests.test_crossing_graph
    (DATA_DIR / "four_strand_graph_res64.json").write_text(json.dumps(four_strand_record()) + "\n")
