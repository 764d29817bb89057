"""Tests for path primitives, winding numbers, and loop geometry."""

import cmath
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
    is_embedded,
    primitive_intersections,
    segment_crossings,
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


# The two chords that the discriminant slack once reported a full radius
# and 0.01 off the unit circle.
FAR_CHORDS = [Segment(-5e-6 + 2j, 5e-6 + 2j), Segment(-5e-7 + 1.01j, 5e-7 + 1.01j)]


def lollipop(basepoint, joint, center):
    """Stick from the basepoint to ``joint``, one turn about ``center``
    starting there, and the stick back."""
    phi = cmath.phase(joint - center)
    arc = Arc(center, abs(joint - center), phi, phi + 2 * math.pi)
    return LoopPath((Segment(basepoint, joint), arc, Segment(arc.end, basepoint)))


def dense_winding(loop, p, samples=20001):
    """Argument sum over a dense sample of the loop, as a float."""
    rel = loop.sample_points(np.linspace(0.0, 1.0, samples)) - p
    return float(np.sum(np.angle(rel[1:] / rel[:-1]))) / (2 * math.pi)


def near(z, eps, count=8):
    """Points at distance eps around z, off the axis directions."""
    return [z + cmath.rect(eps, 0.1 + k * 2 * math.pi / count) for k in range(count)]


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_geometry_is_rejected(self, bad):
        for make in (
            lambda: Segment(complex(bad, 0.0), 1),
            lambda: Segment(0j, complex(0.0, bad)),
            lambda: Arc(complex(0.0, bad), 1.0, 0.0, 1.0),
            lambda: Arc(0j, bad, 0.0, 1.0),
            lambda: Arc(0j, 1.0, bad, 1.0),
            lambda: Arc(0j, 1.0, 0.0, bad),
        ):
            with pytest.raises(InputError):
                make()

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
        # Segments and arcs of both orientations, a multi-turn arc, and a last
        # segment so short that the cumulative length absorbs it, at
        # parameters inside and outside [0, 1].
        arc = Arc(2 + 1j, 1.0, math.pi, -math.pi / 2)
        turns = Arc(arc.end + 0.5j, 0.5, -math.pi / 2, 3.5 * math.pi)
        mixed = LoopPath(
            (
                Segment(0j, 1 + 1j),
                Arc(1.5 + 1j, 0.5, math.pi, 0.0),
                Segment(2 + 1j, arc.start),
                arc,
                turns,
                Segment(turns.end, 100 + 0j),
                Segment(100 + 0j, 100 + 1e-15j),
            ),
            closed=False,
        )
        assert mixed.primitive_spans()[-1] == (1.0, 1.0)
        ts = np.concatenate([np.linspace(-0.5, 1.5, 1001), [0.0, 1.0, -1e300, 1e300]])
        sampled = mixed.sample_points(ts)
        individual = [mixed.point_at(float(t)) for t in ts]
        assert np.allclose(sampled, individual, rtol=0, atol=1e-12)
        assert sampled[-3] == mixed.point_at(1.0) == 100 + 0j

    def test_sample_tangents_are_the_direction_times_the_length(self):
        # t is normalized arc length, so dz/dt has the loop's length as its
        # size, on segments and on arcs of either orientation.
        loop = LoopPath(
            (
                Segment(0j, 1 + 1j),
                Arc(1.5 + 1j, 0.5, math.pi, 0.0),
                Segment(2 + 1j, 2 - 1j),
                Arc(1.5 - 1j, 0.5, 0.0, -3 * math.pi),
            ),
            closed=False,
        )
        ts = np.linspace(0.0005, 0.9995, 1000)
        points, tangents = loop.sample_points(ts, tangents=True)
        assert np.array_equal(points, loop.sample_points(ts))
        directions = np.array([loop.direction_at(float(t)) for t in ts])
        assert np.allclose(tangents, loop.length * directions, rtol=0, atol=1e-12 * loop.length)

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

    def test_a_point_on_the_loop_is_an_input_error(self):
        half_disk = LoopPath((Segment(-1, 1), Arc(0j, 1.0, 0.0, math.pi)))
        for loop, p in (
            (square(), 1 + 1j),  # a corner
            (square(), -1j),  # inside the edge from -1-1j to 1-1j
            (circle(), 1j),
            (circle(turns=3), -1 + 0j),
            (half_disk, 1j),  # inside the arc
            (half_disk, 1 + 0j),  # a joint
            (half_disk, 0.25 + 0j),  # inside the chord
        ):
            with pytest.raises(InputError):
                winding_number(loop, p)
        assert winding_number(square(), -1j + 1e-12j) == 1
        assert winding_number(square(), -1j - 1e-12j) == 0
        assert winding_number(half_disk, 0.25 + 1e-12j) == 1
        assert winding_number(half_disk, 0.25 - 1e-12j) == 0
        assert winding_number(half_disk, -1.5 + 0j) == 0

    @pytest.mark.parametrize("turns", [1, 2, 3, -2])
    def test_grid_near_a_multi_turn_circle(self, turns):
        center, radius = 0.3 + 0.1j, 0.8
        loop = circle(center, radius, turns, start_angle=0.4)
        for k in range(24):
            direction = cmath.rect(1.0, 0.4 + k * math.pi / 12)
            for rel in (1e-2, 1e-6, 1e-9):
                assert winding_number(loop, center + radius * (1 - rel) * direction) == turns
                assert winding_number(loop, center + radius * (1 + rel) * direction) == 0
        assert winding_number(loop, center) == turns

    def test_grid_near_loop_joints(self):
        z0 = -1.2845985029336733
        loops = [
            (square(), lambda p: abs(p.real) < 1 and abs(p.imag) < 1),
            (
                lollipop(-3 + 0.75j, z0 - 0.3 + 0.1j, z0),
                lambda p: abs(p - z0) < abs(0.3 - 0.1j),
            ),
        ]
        for loop, inside in loops:
            for prim in loop.primitives:
                for eps in (1e-3, 1e-7):
                    for p in near(prim.start, eps) + near(prim.point(0.5), eps):
                        assert winding_number(loop, p) == int(inside(p)), p

    def test_a_ray_through_an_arc_segment_joint(self):
        # A lollipop about the branch point near -1.2846 of
        # w^4 - z*w^3 - w^2 + z*w + 0.05.  The horizontal ray from p runs
        # exactly through the joint of its sticks and its circle, where a
        # ray count taking each primitive's end by its own rule miscounts.
        z0 = -1.2845985029336733
        p = -1.5136677710682944 + 0.02436865357465915j
        joint = complex(z0 - math.sqrt(0.2**2 - p.imag**2), p.imag)
        loop = lollipop(-3 + 0.75j, joint, z0)
        assert joint.real > p.real and abs(p - z0) > loop.primitives[1].radius
        assert winding_number(loop, p) == 0
        assert abs(dense_winding(loop, p)) < 1e-6
        assert winding_number(loop, z0) == 1
        assert abs(dense_winding(loop, z0) - 1) < 1e-6


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

    @pytest.mark.parametrize("chord", FAR_CHORDS, ids=["radius-off", "0.01-off"])
    def test_short_chords_off_the_circle_do_not_meet_it(self, chord):
        assert primitive_intersections(Arc(0j, 1, 0, 2 * math.pi), chord) == []

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

    def test_collinear_segments_meet_where_they_overlap(self):
        assert primitive_intersections(Segment(0j, 2), Segment(1, 3)) == [(0.75, 0.25)]
        assert primitive_intersections(Segment(0j, 1), Segment(1, 2)) == []

    def test_a_backtracking_segment_loop_is_not_embedded(self):
        loop = LoopPath((Segment(0j, 2), Segment(2, 1), Segment(1, 1 + 1j), Segment(1 + 1j, 0j)))
        assert not is_embedded(loop)

    def test_overlapping_arcs_of_one_circle_are_not_embedded(self):
        first = Arc(0j, 1.0, 0.0, math.pi)
        back = Arc(0j, 1.0, math.pi, math.pi / 2)
        assert not is_embedded(LoopPath((first, back, Segment(back.end, first.start))))
        (s, t), = primitive_intersections(first, back)
        assert abs(first.point(s) - back.point(t)) < 1e-12
        assert 0.5 < s < 1.0
        # Two halves of one circle share only their joints.
        halves = LoopPath((first, Arc(0j, 1.0, math.pi, 2 * math.pi)))
        assert is_embedded(halves)

    @pytest.mark.parametrize(
        "second, point",
        [(Arc(2 + 0j, 1.0, 0.0, 2 * math.pi), 1), (Arc(0.5 + 0j, 0.5, 0.0, 2 * math.pi), 1)],
        ids=["outside", "inside"],
    )
    def test_tangent_circles_meet_once(self, second, point):
        first = Arc(0j, 1.0, 0.0, 2 * math.pi)
        (s, t), = primitive_intersections(first, second)
        assert abs(first.point(s) - point) < 1e-12
        assert abs(second.point(t) - point) < 1e-12


def crossings(prim, polyline):
    """segment_crossings of ``prim`` by the steps of a polyline."""
    points = np.array(polyline, dtype=complex)
    return segment_crossings(prim, points[:-1], points[1:])


def loop_crossings(loop_points, polyline):
    """Crossings of a polyline by every segment of an open polyline loop."""
    return [
        hit
        for a, b in zip(loop_points, loop_points[1:])
        for hit in crossings(Segment(a, b), polyline)
    ]


class TestSegmentCrossings:
    """Each vertex is put on one side of a loop primitive by one sign, so a
    crossing through a shared vertex counts once and a touch counts twice or
    not at all."""

    @pytest.mark.parametrize(
        "prim, joint",
        [(Segment(-1, 1), 0.25 + 0j), (Segment(0j, 3 + 1j), 1.5 + 0.5j)],
        ids=["axis", "slanted"],
    )
    def test_a_polyline_joint_on_a_loop_segment_is_crossed_once(self, prim, joint):
        normal = 1j * (prim.b - prim.a)
        for before, after in ((-0.7, 0.8), (0.1, -0.4), (-0.7, 0.0)):
            path = [joint + normal + before, joint, joint - normal + after]
            assert len(crossings(prim, path)) == 1
            assert len(crossings(prim, path[::-1])) == 1

    def test_a_polyline_touching_a_loop_line_at_a_joint_does_not_cross(self):
        prim = Segment(-1, 1)
        # Right of the loop's direction: the touching joint's own side.
        assert crossings(prim, [0.1 - 1j, 0.25, 0.4 - 1j]) == []
        # From the left the joint is crossed into and out of again.
        hits = crossings(prim, [0.1 + 1j, 0.25, 0.4 + 1j])
        assert [j for _, j in hits] == [0, 1]
        assert hits[0][0] == hits[1][0]

    @pytest.mark.parametrize("psi", [0.0, 0.9, 2.0, -2.6])
    def test_near_tangent_chords_of_a_circle_cross_it_twice_or_not_at_all(self, psi):
        arc = Arc(0.3 + 0.2j, 0.7, 0.4, 0.4 + 2 * math.pi)
        normal = cmath.rect(1.0, psi)
        counts = set()
        for length in np.logspace(-7, -2, 11):
            d = length * 1j * normal
            for offset in np.concatenate([-np.logspace(-14, -2, 25), np.logspace(-14, -2, 25)]):
                foot = arc.center + (arc.radius + offset) * normal
                count = len(crossings(arc, [foot - d / 2, foot + d / 2]))
                assert count in (0, 2), (length, offset)
                counts.add(count)
        assert counts == {0, 2}

    def test_far_chords_do_not_cross_the_circle(self):
        arc = Arc(0j, 1.0, 0.0, 2 * math.pi)
        for chord in FAR_CHORDS:
            assert crossings(arc, [chord.a, chord.b]) == []

    @pytest.mark.parametrize("angle", [math.pi / 4, 0.3, 1.0, -2.2, 3 * math.pi / 4])
    def test_collinear_disjoint_segments_do_not_cross(self, angle):
        # The figure loop's sticks lie on the line of the quartic's diagonal
        # locus rays; sides taken from rounding alone must not make a hit.
        u = cmath.rect(1.0, angle)
        prim = Segment(0.3 * u, 0.7 * u)
        for lo, hi in ((0.9, 1.3), (-0.6, 0.1), (0.71, 2.0), (-5.0, 0.2999)):
            assert crossings(prim, [lo * u, hi * u]) == []
            assert crossings(prim, [hi * u, lo * u]) == []
            assert crossings(prim, [lo * u, (lo + hi) / 2 * u, hi * u]) == []

    def test_a_crossing_at_a_loop_joint_counts_once(self):
        locus = [-1j, 0.3j, 1j]
        # The loop crosses the locus line through its joint 0.3i.
        assert len(loop_crossings([-1 - 1j, 0.3j, 1 - 1j], locus)) == 1
        assert len(loop_crossings([1 - 1j, 0.3j, -1 - 1j], locus)) == 1
        assert len(loop_crossings([-1 + 0.3j, 0.3j, 1 + 0.3j], [-1j, 1j])) == 1
        # A loop touching the locus at its joint and turning back crosses
        # it an even number of times.
        assert len(loop_crossings([-1 - 1j, 0.3j, -1 + 1j], locus)) % 2 == 0

    @pytest.mark.parametrize("turns", [1, 2, -2, 3])
    def test_multi_turn_arcs_are_crossed_once_per_turn(self, turns):
        arc = Arc(0j, 1.0, 0.3, 0.3 + turns * 2 * math.pi)
        hits = crossings(arc, [0j, 2 + 0j])
        assert len(hits) == abs(turns)
        assert len({round(s, 9) for s, _ in hits}) == abs(turns)
        for s, _ in hits:
            assert abs(arc.point(s) - 1) < 1e-12
        assert len(crossings(arc, [-2 + 0j, 2 + 0j])) == 2 * abs(turns)


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
