"""Tests for path primitives, winding numbers, and loop geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import (
    Arc,
    InputError,
    LoopPath,
    Segment,
    bounding_box,
    concat_loops,
    loop_from_json,
    loop_to_json,
    min_distance,
    reverse_loop,
    winding_number,
)
from quasibraid.paths import (
    bbox_diameter,
    intersection_reach,
    is_embedded,
    primitive_intersections,
)


def circle(center=0j, radius=1.0, turns=1, start_angle=math.pi / 2):
    arc = Arc(center, radius, start_angle, start_angle + turns * 2 * math.pi)
    return LoopPath((arc,), closed=True)


def square(half=1.0, center=0j):
    c = center
    corners = [
        c + complex(half, half),
        c + complex(-half, half),
        c + complex(-half, -half),
        c + complex(half, -half),
    ]
    segs = [Segment(corners[i], corners[(i + 1) % 4]) for i in range(4)]
    return LoopPath(tuple(segs), closed=True)


class TestPrimitives:
    def test_degenerate_segment_is_rejected(self):
        with pytest.raises(InputError):
            Segment(1 + 1j, 1 + 1j)

    def test_segment_interpolates(self):
        seg = Segment(0j, 2 + 2j)
        assert seg.point(0.5) == 1 + 1j
        assert abs(seg.direction(0.3) - (1 + 1j) / abs(1 + 1j)) < 1e-15

    def test_arc_needs_positive_radius_and_span(self):
        with pytest.raises(InputError):
            Arc(0j, 0.0, 0.0, 1.0)
        with pytest.raises(InputError):
            Arc(0j, 1.0, 0.7, 0.7)

    def test_arc_endpoints_and_length(self):
        arc = Arc(1j, 2.0, 0.0, math.pi)
        assert abs(arc.start - (2 + 1j)) < 1e-15
        assert abs(arc.end - (-2 + 1j)) < 1e-15
        assert arc.length == pytest.approx(2 * math.pi)

    def test_arc_direction_flips_with_orientation(self):
        ccw = Arc(0j, 1.0, 0.0, math.pi)
        cw = Arc(0j, 1.0, math.pi, 0.0)
        assert abs(ccw.direction(0.0) - 1j) < 1e-15
        assert abs(cw.direction(1.0) - (-1j)) < 1e-15

    def test_reversal_swaps_endpoints(self):
        seg = Segment(0j, 1j)
        assert seg.reversed() == Segment(1j, 0j)
        arc = Arc(0j, 1.0, 0.0, math.pi)
        assert abs(arc.reversed().start - arc.end) < 1e-15


class TestLoopConstruction:
    def test_gap_between_primitives_is_rejected(self):
        with pytest.raises(InputError):
            LoopPath((Segment(0j, 1), Segment(2, 3)))

    def test_open_chain_cannot_claim_closed(self):
        with pytest.raises(InputError):
            LoopPath((Segment(0j, 1),), closed=True)
        LoopPath((Segment(0j, 1),), closed=False)

    def test_empty_path_is_rejected(self):
        with pytest.raises(InputError):
            LoopPath(())

    def test_length_accumulates(self):
        loop = square(half=1.0)
        assert loop.length == pytest.approx(8.0)

    def test_point_at_walks_by_arclength(self):
        loop = square(half=1.0)
        assert abs(loop.point_at(0.0) - (1 + 1j)) < 1e-12
        assert abs(loop.point_at(0.25) - (-1 + 1j)) < 1e-12
        assert abs(loop.point_at(0.5) - (-1 - 1j)) < 1e-12

    def test_sample_points_matches_point_at(self):
        loop = concat_loops(circle(radius=0.5), circle(radius=0.5, turns=-1))
        ts = np.linspace(0, 1, 257)
        sampled = loop.sample_points(ts)
        individual = [loop.point_at(float(t)) for t in ts]
        assert np.allclose(sampled, individual)

    def test_primitive_spans_cover_the_unit_interval(self):
        loop = square()
        spans = loop.primitive_spans()
        assert spans[0][0] == 0.0
        assert spans[-1][1] == 1.0
        for (_, e), (s, _) in zip(spans, spans[1:]):
            assert e == pytest.approx(s)


class TestWinding:
    def test_unit_circle_winds_once(self):
        assert winding_number(circle(), 0j) == 1
        assert winding_number(circle(), 0.6 + 0.2j) == 1
        assert winding_number(circle(), 3 + 0j) == 0

    def test_clockwise_circle_winds_negatively(self):
        assert winding_number(circle(turns=-1), 0j) == -1

    def test_multiple_turns_accumulate(self):
        assert winding_number(circle(turns=3), 0j) == 3
        assert winding_number(circle(turns=-2), 0.1j) == -2

    def test_square_winds_once_inside_only(self):
        loop = square(half=2.0, center=1 + 1j)
        assert winding_number(loop, 1 + 1j) == 1
        assert winding_number(loop, 1 + 2.5j) == 1
        assert winding_number(loop, 4 + 4j) == 0

    @settings(max_examples=100)
    @given(
        st.complex_numbers(
            min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
        )
    )
    def test_circle_winding_is_the_indicator_of_the_disk(self, p):
        if abs(abs(p) - 1.0) < 1e-3:
            return
        expected = 1 if abs(p) < 1 else 0
        assert winding_number(circle(), p) == expected

    def test_reversal_negates_winding(self):
        loop = square(half=1.5)
        assert winding_number(reverse_loop(loop), 0j) == -1


class TestDistanceAndBoxes:
    def test_distance_to_circle_is_radial(self):
        loop = circle(center=1j, radius=2.0)
        assert min_distance(loop, 1j) == pytest.approx(2.0)
        assert min_distance(loop, 1j + 5) == pytest.approx(3.0)

    def test_distance_to_segment_clamps_at_endpoints(self):
        loop = LoopPath((Segment(0j, 4 + 0j),), closed=False)
        assert min_distance(loop, 2 + 3j) == pytest.approx(3.0)
        assert min_distance(loop, -3 + 4j) == pytest.approx(5.0)

    def test_arc_distance_respects_the_angular_span(self):
        half = LoopPath((Arc(0j, 1.0, 0.0, math.pi),), closed=False)
        assert min_distance(half, 2j) == pytest.approx(1.0)
        assert min_distance(half, -2j) == pytest.approx(math.sqrt(5))

    def test_bounding_box_of_points(self):
        box = bounding_box([1 + 2j, -3 - 1j, 0.5j])
        assert box == (-3.0, -1.0, 1.0, 2.0)

    def test_bounding_box_uses_arc_extremes(self):
        # A quarter arc from angle 0 to pi/2 bulges out to radius in both
        # coordinates even though its endpoints do not.
        arc = Arc(0j, 2.0, 0.0, math.pi / 2)
        assert bounding_box([arc]) == pytest.approx((0.0, 0.0, 2.0, 2.0))
        full = circle(center=3 + 4j, radius=1.5)
        assert bounding_box(full.primitives) == pytest.approx((1.5, 2.5, 4.5, 5.5))

    def test_bounding_box_of_nothing_is_an_error(self):
        with pytest.raises(InputError):
            bounding_box([])

    def test_bbox_diameter(self):
        assert bbox_diameter((0, 0, 3, 4)) == pytest.approx(5.0)


class TestIntersections:
    def test_crossing_segments(self):
        hits = primitive_intersections(Segment(-1, 1), Segment(-1j, 1j))
        assert len(hits) == 1
        s, t = hits[0]
        assert s == pytest.approx(0.5)
        assert t == pytest.approx(0.5)

    def test_parallel_segments_do_not_intersect(self):
        assert primitive_intersections(Segment(0j, 1), Segment(1j, 1 + 1j)) == []

    def test_arc_meets_a_chord(self):
        arc = Arc(0j, 1.0, 0.0, 2 * math.pi)
        hits = primitive_intersections(arc, Segment(-2, 2))
        points = sorted(arc.point(s).real for s, _ in hits)
        assert points == pytest.approx([-1.0, 1.0])

    def test_two_circles_meet_twice(self):
        a = Arc(0j, 1.0, 0.0, 2 * math.pi)
        b = Arc(1 + 0j, 1.0, 0.0, 2 * math.pi)
        hits = primitive_intersections(a, b)
        points = sorted(a.point(s).imag for s, _ in hits)
        assert points == pytest.approx([-math.sqrt(3) / 2, math.sqrt(3) / 2])

    @pytest.mark.parametrize("turns", [2, -2, 3])
    def test_multi_turn_arcs_meet_once_per_turn(self, turns):
        arc = Arc(0j, 1.0, 0.3, 0.3 + turns * 2 * math.pi)
        chord_hits = primitive_intersections(arc, Segment(-2, 2))
        assert len(chord_hits) == 2 * abs(turns)
        assert len({round(s, 9) for s, _ in chord_hits}) == 2 * abs(turns)
        circle_hits = primitive_intersections(arc, Arc(1 + 0j, 1.0, 0.0, 2 * math.pi))
        assert len(circle_hits) == 2 * abs(turns)
        for s, t in chord_hits:
            assert abs(arc.point(s) - Segment(-2, 2).point(t)) < 1e-9

    def test_embeddedness_detects_a_figure_eight(self):
        eight = LoopPath(
            (
                Segment(0j, 2 + 2j),
                Segment(2 + 2j, 2 + 0j),
                Segment(2 + 0j, 0 + 2j),
                Segment(0 + 2j, 0j),
            )
        )
        assert not is_embedded(eight)
        assert is_embedded(square())

    def test_multi_turn_loops_are_never_embedded(self):
        assert not is_embedded(circle(turns=2))


def box_gap(p, q):
    """The gap between the bounding boxes of two primitives, the distance
    that crossings_of compares with intersection_reach."""
    a, b = bounding_box([p]), bounding_box([q])
    return max(b[0] - a[2], a[0] - b[2], b[1] - a[3], a[1] - b[3])


def near_miss_gaps(prim, chords):
    """(box gap, reach) of every chord that primitive_intersections reports
    as meeting ``prim`` at its default tolerance."""
    out = []
    for chord in chords:
        if primitive_intersections(prim, chord):
            reach = intersection_reach(prim, np.array([chord.a]), np.array([chord.length]))
            out.append((box_gap(prim, chord), float(reach[0])))
    return np.array(out)


# Offsets from exact contact, past the widest near miss either routine admits.
OFFSETS = np.logspace(-14, 1, 31)


class TestIntersectionReach:
    """crossings_of skips every locus segment whose box lies farther from a
    loop primitive's box than intersection_reach; a chord reported as a hit
    must never lie that far away, however slack the tolerances make the hit."""

    def test_near_parallel_segments_lie_within_reach(self):
        gaps = []
        for length in (1e-4, 1e-2, 1.0, 4.0):
            for angle in (0.0, 0.3, 1.1):
                u = complex(math.cos(angle), math.sin(angle))
                prim = Segment(0.2 - 0.1j, 0.2 - 0.1j + length * u)
                for chord_length in (1e-6, 1e-4, 1e-2, 1.0):
                    for along in (-0.5, 0.3, 0.9):
                        for tilt in (0.0, 1e-12, -1e-9, 1e-6):
                            d = chord_length * u * complex(math.cos(tilt), math.sin(tilt))
                            starts = prim.a + along * length * u + OFFSETS * 1j * u
                            gaps.extend(near_miss_gaps(prim, [Segment(a, a + d) for a in starts]))
        gaps = np.array(gaps)
        assert np.all(gaps[:, 0] <= gaps[:, 1])
        # Parallel near misses reach tol * scale^2 / length off the line.
        assert gaps[:, 0].max() > 1e-6

    def test_near_tangent_short_chords_lie_within_reach(self):
        gaps = []
        for radius in (0.5, 2.0):
            for span in (2 * math.pi, 1.0):
                arc = Arc(0.3 + 0.2j, radius, 0.4, 0.4 + span)
                for psi in (0.9, 0.4 + span + 0.01):
                    normal = complex(math.cos(psi), math.sin(psi))
                    for length in (1e-7, 1e-6, 1e-5, 1e-4, 1e-2):
                        for along in (0.0, 0.5, 1.0):
                            for tilt in (0.0, 1e-3):
                                d = length * 1j * normal * complex(math.cos(tilt), math.sin(tilt))
                                for side in (1.0, -1.0):
                                    feet = arc.center + (radius + side * OFFSETS) * normal
                                    starts = feet - along * d
                                    chords = [Segment(a, a + d) for a in starts]
                                    gaps.extend(near_miss_gaps(arc, chords))
        gaps = np.array(gaps)
        assert np.all(gaps[:, 0] <= gaps[:, 1])
        # The discriminant slack reports short chords far off the circle.
        assert gaps[:, 0].max() > 1e-2


class TestSerialization:
    def test_round_trip_preserves_geometry(self):
        loop = LoopPath(
            (Segment(0j, 1 + 0j), Arc(0.5 + 0j, 0.5, 0.0, math.pi))
        )
        back = loop_from_json(loop_to_json(loop))
        assert back == loop

    def test_open_paths_round_trip(self):
        path = LoopPath((Segment(0j, 1 + 1j),), closed=False)
        assert loop_from_json(loop_to_json(path)) == path

    def test_malformed_payload_is_rejected(self):
        with pytest.raises(InputError):
            loop_from_json({"segments": "nope", "closed": True})


class TestComposition:
    def test_concat_requires_matching_basepoints(self):
        with pytest.raises(InputError):
            concat_loops(circle(), circle(center=5 + 0j))

    def test_concat_lengths_add(self):
        double = concat_loops(circle(), circle())
        assert double.length == pytest.approx(2 * circle().length)
        assert winding_number(double, 0j) == 2

    def test_reverse_then_reverse_is_identity(self):
        loop = square()
        assert reverse_loop(reverse_loop(loop)) == loop
