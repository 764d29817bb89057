"""Tests for root continuation, braid words of loops, and lollipop readings.

The sign convention is pinned by the square root surface: following the unit
circle counterclockwise must give exactly one positive generator.  Everything
else is checked against that anchor plus group-theoretic consistency.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasibraid import (
    Arc,
    Band,
    BivariatePolynomial,
    BraidLetter,
    InputError,
    LollipopSpec,
    LoopPath,
    NumericalFailure,
    QuasipositiveFactorization,
    Segment,
    UnivariatePolynomial,
    braid_along,
    branch_points,
    check_genericity,
    concat,
    concat_loops,
    enclosed_count,
    expand_factorization,
    exponent_sum,
    free_reduce,
    invert,
    lollipop_loop,
    loop_from_json,
    parse_bivariate_text,
    permutation_of,
    perturb_generic,
    qp_factorization,
    realize,
    reverse_loop,
    select_rotation,
    track_roots,
    word_to_text,
)
from quasibraid import monodromy
from quasibraid.fibers import match, solve
from quasibraid.monodromy import events_to_jsonl
from quasibraid.realization import build_plan

DATA_DIR = Path(__file__).parent / "data"


def prepared(text):
    f = parse_bivariate_text(text)
    data = branch_points(f)
    report = check_genericity(f, data)
    assert report.ok, report.issues
    theta = select_rotation(f, data)
    from dataclasses import replace

    return f, replace(data, generic=True, rotation_theta=theta)


def monic_curve(data, w_degree, z_degree):
    """A monic curve with integer z-coefficients in [-3, 3], as the
    crossing-graph property draws them."""
    entries = st.integers(-3, 3)
    coeffs = [
        UnivariatePolynomial(tuple(data.draw(entries) for _ in range(z_degree + 1)))
        for _ in range(w_degree)
    ]
    return BivariatePolynomial(tuple(coeffs) + (UnivariatePolynomial((1,)),))


def circle(center=0j, radius=1.0, turns=1, start_angle=math.pi / 2):
    arc = Arc(center, radius, start_angle, start_angle + turns * 2 * math.pi)
    return LoopPath((arc,), closed=True)


SQRT = prepared("w^2 - z")
CUBIC = prepared("w^3 - 3*w + 2*z")
QUARTIC = prepared("w^3 - 3*w + 2*z^4")


class TestCalibration:
    def test_counterclockwise_circle_reads_one_positive_generator(self):
        f, data = SQRT
        word = braid_along(f, data, circle())
        assert word_to_text(word) == "s1"

    def test_clockwise_circle_reads_the_inverse(self):
        f, data = SQRT
        word = braid_along(f, data, circle(turns=-1))
        assert word_to_text(word) == "s1^-1"

    def test_two_turns_read_the_square(self):
        f, data = SQRT
        word = braid_along(f, data, circle(turns=2))
        assert word_to_text(word) == "s1 s1"

    def test_loop_avoiding_the_locus_reads_the_identity(self):
        f, data = SQRT
        word = braid_along(f, data, circle(center=4 + 0j, radius=1.0))
        assert word.letters == ()


class TestTracking:
    def test_start_roots_match_the_eigenvalue_solver(self):
        f, data = QUARTIC
        loop = circle(radius=0.5)
        track = track_roots(f, data, loop)
        expected = list(np.roots(f.fiber(loop.basepoint).coefficients[::-1]))
        assert len(track.start_roots) == len(expected)
        remaining = list(track.start_roots)
        for e in expected:
            got = min(remaining, key=lambda v: abs(v - e))
            assert abs(got - e) < 1e-8 * (1 + abs(e))
            remaining.remove(got)

    def test_closed_loop_returns_to_the_start_fiber(self):
        f, data = CUBIC
        track = track_roots(f, data, circle(center=0j, radius=2.0))
        assert sorted(track.start_roots, key=lambda v: (v.real, v.imag)) == pytest.approx(
            sorted(track.end_roots, key=lambda v: (v.real, v.imag))
        )

    def test_track_permutation_matches_the_word_permutation(self):
        f, data = QUARTIC
        for loop in (
            circle(radius=0.5),
            circle(center=1.0 + 0.0j, radius=0.4),
            circle(center=0.7 + 0.7j, radius=0.5, turns=-1),
        ):
            track = track_roots(f, data, loop)
            word = braid_along(f, data, loop)
            assert track.permutation == permutation_of(word)

    def test_refinement_does_not_change_the_letters(self):
        f, data = CUBIC
        loop = circle(center=0j, radius=2.0)
        coarse = track_roots(f, data, loop, step_cap_fraction=1 / 256)
        fine = track_roots(f, data, loop, step_cap_fraction=1 / 512)
        assert [(e.position, e.sign) for e in coarse.events] == [
            (e.position, e.sign) for e in fine.events
        ]

    def test_stabilized_and_raw_passes_agree_on_clean_loops(self):
        f, data = SQRT
        loop = circle()
        a = track_roots(f, data, loop, stabilize=True)
        b = track_roots(f, data, loop, stabilize=False)
        assert [(e.position, e.sign) for e in a.events] == [
            (e.position, e.sign) for e in b.events
        ]

    def test_events_serialize_to_json_lines(self):
        import json

        f, data = CUBIC
        track = track_roots(f, data, circle(center=0j, radius=2.0))
        lines = events_to_jsonl(track.events).strip().splitlines()
        assert len(lines) == len(track.events)
        for line in lines:
            entry = json.loads(line)
            assert {"t", "k", "sign"} <= set(entry)


class TestGroupConsistency:
    def test_concatenation_multiplies_the_words(self):
        f, data = QUARTIC
        a = circle(radius=0.5)
        b = circle(radius=0.5, turns=-1)
        ab = concat_loops(a, b)
        word_a = braid_along(f, data, a)
        word_b = braid_along(f, data, b)
        word_ab = braid_along(f, data, ab)
        assert free_reduce(word_ab) == free_reduce(concat(word_a, word_b))

    def test_reversed_loop_reads_the_inverse_word(self):
        f, data = QUARTIC
        loop = circle(center=0.9 + 0.2j, radius=0.45)
        word = braid_along(f, data, loop)
        back = braid_along(f, data, reverse_loop(loop))
        assert free_reduce(concat(word, back)).letters == ()
        assert free_reduce(back) == free_reduce(invert(word))

    def test_exponent_sum_counts_enclosed_branch_points(self):
        f, data = QUARTIC
        for loop in (
            circle(radius=0.5),
            circle(center=1 + 1j, radius=0.9),
            circle(center=0j, radius=1.8, start_angle=1.0),
            circle(center=0j, radius=1.8, turns=-1, start_angle=1.0),
        ):
            word = braid_along(f, data, loop)
            assert exponent_sum(word) == enclosed_count(loop, data)


class TestGuards:
    def test_loop_through_a_branch_point_is_rejected(self):
        f, data = SQRT
        with pytest.raises(InputError):
            braid_along(f, data, circle(center=0.5 + 0j, radius=0.5))

    def test_basepoint_with_tied_real_parts_is_rejected(self):
        # Directly above the branch point of the square root surface the two
        # fiber values are complex conjugates, so their real parts tie and no
        # strand order exists there.
        f, data = SQRT
        loop = circle(center=-1.5 + 0j, radius=1.0, start_angle=0.0)
        assert loop.basepoint == pytest.approx(-0.5 + 0j)
        with pytest.raises(InputError):
            braid_along(f, data, loop)

    @pytest.mark.parametrize("cap", [0.0, -0.01, math.nan, 1e300, math.inf])
    def test_a_step_cap_outside_zero_to_one_is_rejected(self, cap):
        f, data = SQRT
        with pytest.raises(InputError, match="step cap"):
            braid_along(f, data, circle(), step_cap_fraction=cap)


class TestLollipops:
    def test_spec_validation(self):
        with pytest.raises(InputError):
            LollipopSpec(basepoint=-3 + 0.75j, targets=(), circle_radius=0.3)
        with pytest.raises(InputError):
            LollipopSpec(basepoint=-3 + 0.75j, targets=(0, 0), circle_radius=0.3)
        with pytest.raises(InputError):
            LollipopSpec(basepoint=-3 + 0.75j, targets=(0,), circle_radius=-1.0)

    def test_oversized_circles_are_rejected_with_a_feasible_radius(self):
        f, data = CUBIC
        spec = LollipopSpec(basepoint=-3 + 0.75j, targets=(0, 1), circle_radius=5.0)
        with pytest.raises(InputError):
            lollipop_loop(data, spec)

    def test_loop_visits_every_target_circle(self):
        f, data = CUBIC
        spec = LollipopSpec(basepoint=-3 + 0.75j, targets=(0, 1), circle_radius=0.35)
        built = lollipop_loop(data, spec)
        points = data.values()
        for mark in built.marks:
            lo, hi = mark.circle
            mid = built.path.point_at((lo + hi) / 2)
            assert abs(abs(mid - points[mark.target]) - 0.35) < 1e-9

    def test_cubic_factorization_has_two_plain_bands(self):
        f, data = CUBIC
        spec = LollipopSpec(basepoint=-3 + 0.75j, targets=(0, 1), circle_radius=0.35)
        qpf = qp_factorization(f, data, spec)
        assert qpf.strands == 3
        assert [band.index for band in qpf.bands] in ([1, 2], [2, 1])
        assert all(band.conjugator == () for band in qpf.bands)

    def test_expansion_matches_the_loop_word(self):
        f, data = QUARTIC
        spec = LollipopSpec(basepoint=-3 + 0.75j, targets=(0, 1), circle_radius=0.25)
        qpf = qp_factorization(f, data, spec)
        built = lollipop_loop(data, spec)
        word = braid_along(f, data, built.path)
        assert free_reduce(expand_factorization(qpf)) == free_reduce(word)
        assert exponent_sum(word) == len(qpf.bands) == 2

    def test_radius_retry_shrinks_until_circles_fit(self):
        # 0.9 is infeasible for adjacent branch points two apart only when
        # circles must stay pairwise disjoint; the retry ladder must land on
        # something workable instead of failing.
        f, data = CUBIC
        spec = LollipopSpec(basepoint=-3 + 0.75j, targets=(0, 1), circle_radius=1.5)
        qpf = qp_factorization(f, data, spec)
        assert len(qpf.bands) == 2


class TestEnclosedCounts:
    def test_counts_weight_by_winding_number(self):
        f, data = QUARTIC
        assert enclosed_count(circle(radius=1.8), data) == 8
        assert enclosed_count(circle(radius=1.8, turns=2), data) == 16
        assert enclosed_count(circle(radius=1.8, turns=-1), data) == -8
        assert enclosed_count(circle(radius=0.5), data) == 0
        assert enclosed_count(circle(center=1 + 0j, radius=0.5), data) == 1


def figure_loop():
    return loop_from_json(json.loads((DATA_DIR / "figure_loop.json").read_text()))


def three_target_lollipop():
    _, data = QUARTIC
    spec = LollipopSpec(basepoint=-3 + 0.75j, targets=(0, 2, 5), circle_radius=0.25)
    return lollipop_loop(data, spec).path


def realize_case():
    qpf = QuasipositiveFactorization(4, (Band((BraidLetter(1, 1),), 2), Band((), 3)))
    _, loop, _ = realize(qpf)
    plan = build_plan(4)
    return plan.f, plan.branch, loop


def hidden_pair_case():
    """The circle of w^2 - z (theta = 0) that dips across the crossing locus,
    the negative real axis, on a chord of length 0.005 centred inside one
    cap-sized step of 2*pi*0.3/256: a swap and its inverse in one step."""
    f, data = SQRT
    step = 2 * math.pi / 256
    start = -math.pi / 2 + step / 2 - 40 * step
    arc = Arc(-0.5 + 1j * math.sqrt(0.09 - 0.0025**2), 0.3, start, start + 2 * math.pi)
    return f, replace(data, rotation_theta=0.0), LoopPath((arc,), closed=True)


def half_step_pair_case():
    """A circle about the branch point near -5.66 of w^2 + (z^2 + 2z - 1) w
    + 3z^2 + 1 (made generic and rotated) along which the two roots, some 12
    apart, swap and swap back at t = 0.9814 and 0.9821 with a real-part gap
    of at most 2.6e-6 between: both inside the first half of the cap step
    from t = 251/256 to 252/256."""
    f, data = perturb_generic(parse_bivariate_text("w^2 + z^2*w + 2*z*w - w + 3*z^2 + 1"))
    data = replace(data, rotation_theta=select_rotation(f, data))
    return f, data, circle(-5.256456866420475 + 0.125j, 1.1166265077947355, 1, 0.0)


def far_root_hidden_pair_case():
    """The hidden-pair loop on (w^2 - z)(w - 10): the swap and its inverse
    inside one step are the roots +-sqrt(z), while the third root stays at
    10, some ten times further from both than they are from each other."""
    f = parse_bivariate_text("w^3 - 10*w^2 - z*w + 10*z")
    return f, replace(branch_points(f), rotation_theta=0.0), hidden_pair_case()[2]


def wide_region_curve():
    """A curve, made generic and rotated, whose 12 branch points span x in
    [-2.07, 34.60] and one of whose roots reaches |w| of about 3,465."""
    text = "w^4 - w^3 + z*w^3 + 2*z^2*w^3 + w^2 + z^2*w^2 + 3*w - 3*z^2*w - 3 - z - 2*z^2"
    f, data = perturb_generic(parse_bivariate_text(text))
    return f, replace(data, rotation_theta=select_rotation(f, data))


def frozen_cases():
    """(name, f, branch data, loop) of every track in track_events.json."""
    f, data = QUARTIC
    cases = [
        ("figure", f, data, figure_loop()),
        ("circle_2_turns", f, data, circle(radius=1.5, turns=2, start_angle=0.4)),
        ("lollipop", f, data, three_target_lollipop()),
        ("realize_n4", *realize_case()),
    ]
    return cases


def _pair(v):
    return [v.real, v.imag]


def track_record(track):
    return {
        "events": [
            {"t": e.t, "position": e.position, "sign": e.sign, "roots": [_pair(v) for v in e.roots]}
            for e in track.events
        ],
        "end_roots": [_pair(v) for v in track.end_roots],
        "permutation": list(track.permutation),
        "accepted_steps": track.accepted_steps,
    }


def frozen_records():
    return {
        f"{name}/stabilize={stabilize}": track_record(track_roots(f, data, loop, stabilize=stabilize))
        for name, f, data, loop in frozen_cases()
        for stabilize in (True, False)
    }


class TestLetterOrder:
    """The letters of one step are disjoint swaps, which commute, so they
    come in position order, whatever the rounding of their t."""

    # (w^2 - z)((w - 5)^2 - z): each factor swaps its pair, at positions 1
    # and 3, where the circle crosses the negative real axis.
    TEXT = "w^4 - 10*w^3 - 2*z*w^2 + 25*w^2 + 10*z*w - 25*z + z^2"

    @pytest.mark.parametrize("start", [0.3, 2.0, -0.7, 1.0, 2.5])
    def test_simultaneous_letters_read_by_position(self, start):
        f = parse_bivariate_text(self.TEXT)
        data = replace(branch_points(f), rotation_theta=0.0)
        loop = LoopPath((Arc(0j, 1.0, start, start + 2 * math.pi),), closed=True)
        track = track_roots(f, data, loop)
        assert word_to_text(monodromy.word_of_events(4, track.events)) == "s1 s3"
        want = ((math.pi - start) % (2 * math.pi)) / (2 * math.pi)
        assert all(abs(e.t - want) <= monodromy.BISECTION_T_TOL for e in track.events)


class TestFrozenTracks:
    def test_tracks_equal_the_frozen_tracks_exactly(self):
        # Written by running this module as a script; JSON floats round-trip,
        # so equality here is bitwise.
        frozen = json.loads((DATA_DIR / "track_events.json").read_text())
        assert frozen_records() == frozen


class TestHiddenPair:
    def test_one_pass_misses_the_pair(self):
        track = track_roots(*hidden_pair_case(), stabilize=False)
        assert track.accepted_steps == 256
        assert track.events == ()

    def test_the_pair_is_read_by_halving_the_failing_step(self):
        track = track_roots(*hidden_pair_case())
        assert track.accepted_steps < 512
        assert [(e.position, e.sign) for e in track.events] == [(1, 1), (1, -1)]
        assert [round(e.t, 3) for e in track.events] == [0.153, 0.156]

    def test_a_pair_inside_one_half_of_a_step_breaks_the_dip_rule(self):
        f, data, loop = half_step_pair_case()
        rot = complex(math.cos(data.rotation_theta), math.sin(data.rotation_theta))
        ts = np.array([251, 251.5, 252]) / 256
        fibers = solve(f, loop.sample_points(ts))
        lo, mid, hi = (fibers[i][None] for i in range(3))
        mid, hi = mid[:, match(lo[0], mid[0])[0]], hi[:, match(lo[0], hi[0])[0]]
        orders = monodromy.strand_orders(np.concatenate([lo, mid, hi]), rot)
        assert (orders == orders[0]).all()
        assert list(monodromy._midpoint_check(rot, lo, hi, mid, orders[:1], orders[2:])) == ["dip"]

    def test_a_pair_inside_one_half_of_a_step_is_read(self):
        track = track_roots(*half_step_pair_case())
        assert letters(track) == [(1, 1), (1, 1), (1, -1)]
        assert [round(e.t, 4) for e in track.events[1:]] == [0.9814, 0.9821]

    @staticmethod
    def midpoint_check_after(edit):
        """The midpoint check's verdict on a short clean walk of the
        hidden-pair loop at steps of 1/512, tracked here by solving every
        fiber and matching it to the one before, after ``edit(fibers)``
        corrupts its tracked fibers."""
        f, data, loop = hidden_pair_case()
        rot = complex(math.cos(data.rotation_theta), math.sin(data.rotation_theta))
        ts = np.arange(16) / 512
        fibers = solve(f, loop.sample_points(ts))
        for i in range(1, len(ts)):
            fibers[i] = fibers[i][match(fibers[i - 1], fibers[i])[0]]
        mids = solve(f, loop.sample_points(0.5 * (ts[:-1] + ts[1:])))
        orders = monodromy.strand_orders(fibers, rot)
        edit(fibers)
        rules = monodromy._midpoint_check(rot, fibers[:-1], fibers[1:], mids, orders[:-1], orders[1:])
        broken = np.flatnonzero(rules != "")
        return (int(broken[0]), str(rules[broken[0]])) if broken.size else (len(rules), "")

    def test_the_clean_walk_stands(self):
        assert self.midpoint_check_after(lambda fibers: None) == (15, "")

    def test_a_relabelled_strand_breaks_the_second_half(self):
        def relabel(fibers):
            fibers[10] = fibers[10][::-1]

        assert self.midpoint_check_after(relabel) == (9, "second half")

    def test_a_displaced_fiber_breaks_the_first_half(self):
        def displace(fibers):
            fibers[0] += monodromy.root_gaps(fibers[0]).min()

        assert self.midpoint_check_after(displace) == (0, "first half")

    def test_a_far_root_does_not_hide_the_pair(self):
        # The far root may take long steps on its own gap, but the pair still
        # holds every step to its own, so the midpoint splits the step.
        case = far_root_hidden_pair_case()
        assert track_roots(*case, stabilize=False).events == ()
        track = track_roots(*case)
        assert [(e.position, e.sign) for e in track.events] == [(1, 1), (1, -1)]
        assert [round(e.t, 3) for e in track.events] == [0.153, 0.156]


class TestFarRoots:
    def test_a_far_root_does_not_throttle_a_circle(self):
        # One root reaches |w| of about 3,465; each root is judged against its
        # own gap, so the closest pair does not set the pace of the far root.
        f, data = wide_region_curve()
        center = max(data.values(), key=lambda z: z.real)
        track = track_roots(f, data, circle(center, 13.3))
        assert letters(track) == [(2, 1)]
        assert track.accepted_steps < 1000


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_does_not_change_the_track(self, monkeypatch, chunk):
        # A chunk of one is the step-by-step loop.  The n = 4 realize loop
        # and the hidden pair reject steps, so they also pin a step schedule
        # that regrows wherever chunks end.  The realize loop runs as four
        # pieces, each starting at the cap.
        f, data = QUARTIC
        loops = (figure_loop(), circle(radius=1.5, turns=2, start_angle=0.4), three_target_lollipop())
        cases = [(f, data, loop) for loop in loops] + [realize_case(), hidden_pair_case()]
        reference = [track_roots(*case) for case in cases]
        assert reference[3].accepted_steps == 646
        monkeypatch.setattr(monodromy, "_CHUNK", chunk)
        assert [track_roots(*case) for case in cases] == reference


class TestFailureContext:
    def test_step_underflow_reports_step_gap_move_and_primitive(self, monkeypatch):
        f, data = SQRT
        loop = LoopPath((Arc(0.5, 0.497, math.pi / 2, math.pi / 2 + 2 * math.pi),), closed=True)
        monkeypatch.setattr(monodromy, "STEP_UNDERFLOW", 0.003)
        with pytest.raises(NumericalFailure, match="underflow") as info:
            track_roots(f, data, loop)
        diagnostics = info.value.diagnostics
        assert {"t", "h", "gap", "max_move", "primitive", "rule"} <= set(diagnostics)
        assert 0.0 < diagnostics["t"] < 1.0
        assert diagnostics["h"] < 2 * 0.003
        assert diagnostics["max_move"] >= diagnostics["gap"] / 3.0
        assert diagnostics["primitive"] == 0
        assert diagnostics["rule"] == "move"

    def test_a_hidden_pair_underflow_reports_the_step_and_rule(self, monkeypatch):
        # The cap-sized step across the pair fails its midpoint, and halving
        # it would underflow.
        monkeypatch.setattr(monodromy, "STEP_UNDERFLOW", 1 / 256)
        with pytest.raises(NumericalFailure, match="underflow") as info:
            track_roots(*hidden_pair_case())
        diagnostics = info.value.diagnostics
        assert diagnostics["h"] == 1 / 256
        assert diagnostics["t"] < 0.153 and 0.156 < diagnostics["t"] + diagnostics["h"]
        assert diagnostics["primitive"] == 0
        assert diagnostics["rule"] == "swaps"
        assert diagnostics["root"] in (0, 1)
        # The roots of w^2 - z are two square roots of z apart.
        _, _, loop = hidden_pair_case()
        gap = 2 * math.sqrt(abs(loop.point_at(diagnostics["t"])))
        assert diagnostics["gap"] == pytest.approx(gap, rel=1e-12)

    def test_a_far_root_underflow_reports_the_gap_of_a_root_of_the_pair(self, monkeypatch):
        monkeypatch.setattr(monodromy, "STEP_UNDERFLOW", 1 / 256)
        f, data, loop = far_root_hidden_pair_case()
        with pytest.raises(NumericalFailure, match="underflow") as info:
            track_roots(f, data, loop)
        diagnostics = info.value.diagnostics
        assert diagnostics["rule"] == "swaps"
        # The named root is one of +-sqrt(z), not the root near 10.
        start = solve(f, np.array([loop.point_at(0.0)]))[0]
        assert abs(start[diagnostics["root"]]) < 1
        gap = 2 * math.sqrt(abs(loop.point_at(diagnostics["t"])))
        assert diagnostics["gap"] == pytest.approx(gap, rel=1e-12)


def letters(track):
    return [(e.position, e.sign) for e in track.events]


def read_by_arcs(f, data, loop):
    """The letters of a one-arc loop, and the letters of its open arcs
    between the cuts its track makes, each arc tracked on its own."""
    (arc,) = loop.primitives
    rot = complex(math.cos(data.rotation_theta), math.sin(data.rotation_theta))
    ts = [*monodromy._pieces(f, rot, loop, monodromy.STEP_CAP_FRACTION)[0], 1.0]
    angles = [arc.angle_from + t * arc.span for t in ts]
    arcs = [Arc(arc.center, arc.radius, a, b) for a, b in zip(angles, angles[1:])]
    parts = [letters(track_roots(f, data, LoopPath((a,), closed=False))) for a in arcs]
    return letters(track_roots(f, data, loop)), [letter for part in parts for letter in part], len(arcs)


class TestPieces:
    """Braid monodromy is a homomorphism: a loop cut at the tracker's cuts
    reads as the concatenation of its arcs, each tracked on its own."""

    @pytest.mark.parametrize(
        "case",
        [
            (*QUARTIC, circle(radius=1.5, turns=2, start_angle=0.4)),
            (*QUARTIC, circle(radius=1.8, turns=-1, start_angle=1.0)),
            hidden_pair_case(),
        ],
    )
    def test_a_circle_reads_as_its_arcs(self, case):
        whole, parts, count = read_by_arcs(*case)
        assert count == 4
        assert whole and parts == whole

    @settings(max_examples=12, deadline=None)
    @given(w_degree=st.integers(2, 3), z_degree=st.integers(1, 2), data=st.data())
    def test_random_circles_read_as_their_arcs(self, w_degree, z_degree, data):
        f = monic_curve(data, w_degree, z_degree)
        try:
            f, branch = perturb_generic(f)
            branch = replace(branch, rotation_theta=select_rotation(f, branch))
        except (InputError, NumericalFailure):
            assume(False)
        points = branch.values()
        assume(points)
        # Centred near a branch point, enclosing the k nearest and clear of all.
        offset = complex(data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(-0.5, 0.5)))
        center = data.draw(st.sampled_from(points)) + offset
        near = sorted(abs(center - z) for z in points) + [math.inf]
        k = data.draw(st.integers(1, len(points)))
        room = min(near[k] - near[k - 1], 2.0)
        assume(room > 1e-2)
        radius = near[k - 1] + data.draw(st.floats(0.2, 0.8)) * room
        turns = data.draw(st.sampled_from([1, -1, 2, -2]))
        loop = circle(center, radius, turns, data.draw(st.floats(0.0, 2 * math.pi)))
        try:
            track_roots(f, branch, loop)
        except (InputError, NumericalFailure):
            assume(False)
        whole, parts, _ = read_by_arcs(f, branch, loop)
        assert parts == whole


def notch_loop(mirrored=False):
    """A counterclockwise polygon about the branch point 0 of w^2 - z that
    meets the crossing locus, the negative real axis, once: near -1.3 it runs
    0.01 above the axis, drops to a notch 0.05 below it and runs on 0.01
    below.  The notch is the point of the even split's window furthest from
    the locus, so the cut lands next to it, one step after the crossing.
    Mirrored in the real axis and reversed, the loop stays counterclockwise
    and the crossing falls one step after the cut."""
    points = [3 - 0.4j, 3 + 3j, -1 + 3j, -1 + 0.01j, -1.3 + 0.01j, -1.3 - 0.05j]
    points += [-1.33 - 0.01j, -1.63 - 0.01j, -1.63 - 3j, 3 - 3j]
    if mirrored:
        points = [z.conjugate() for z in points[:1] + points[:0:-1]]
    segments = (Segment(a, b) for a, b in zip(points, points[1:] + points[:1]))
    return LoopPath(tuple(segments), closed=True)


class TestCuts:
    SQRT0 = (SQRT[0], replace(SQRT[1], rotation_theta=0.0))

    @staticmethod
    def cuts(f, data, loop):
        return monodromy._pieces(f, 1.0 + 0j, loop, monodromy.STEP_CAP_FRACTION)[0][1:] * 256

    @pytest.mark.parametrize("mirrored, cut, step", [(False, 129, (128, 129)), (True, 127, (127, 128))])
    def test_a_crossing_next_to_a_cut_is_read_once(self, mirrored, cut, step):
        loop = notch_loop(mirrored)
        assert list(self.cuts(*self.SQRT0, loop)) == [62, cut, 194]
        (event,) = track_roots(*self.SQRT0, loop).events
        assert step[0] < 256 * event.t < step[1]
        assert (event.position, event.sign) == (1, 1)
        assert word_to_text(braid_along(*self.SQRT0, loop)) == "s1"

    def test_a_crossing_at_an_even_split_moves_the_cut(self):
        # The unit circle from angle 0 meets the negative real axis at t = 1/2.
        loop = circle(start_angle=0.0)
        f, data = self.SQRT0
        (tied,) = solve(f, loop.sample_points(np.array([0.5])))
        assert abs(tied[0].real - tied[1].real) < 1e-9
        cuts = self.cuts(f, data, loop)
        assert len(cuts) == 3 and 128 not in cuts and abs(cuts[1] - 128) <= 2
        assert word_to_text(braid_along(f, data, loop)) == "s1"

    def test_a_cut_whose_candidates_all_tie_is_dropped(self):
        # The loop runs along the negative real axis, the locus, from -1 to
        # -3 around t = 1/2, so every candidate there ties: two cuts remain.
        points = [2 - 1j, 2 + 1j, -1 + 1j, -1 + 0j, -3 + 0j, -3 - 1j]
        loop = LoopPath(tuple(Segment(a, b) for a, b in zip(points, points[1:] + points[:1])))
        cuts = self.cuts(*self.SQRT0, loop)
        assert len(cuts) == 2 and abs(cuts[0] - 64) <= 2 and abs(cuts[1] - 192) <= 2

    def test_a_curve_of_w_degree_one_never_reaches_the_tracker(self):
        with pytest.raises(InputError, match="w-degree"):
            parse_bivariate_text("w - z")

    def test_accepted_steps_is_a_plain_int(self):
        for _, f, data, loop in frozen_cases():
            assert type(track_roots(f, data, loop).accepted_steps) is int

    def test_the_n4_realize_loop_makes_few_correct_calls(self, monkeypatch):
        # Its four pieces advance together: six rounds, one fresh chunk.
        case, calls = realize_case(), []

        def counted(*args):
            calls.append(len(args[0]))
            return correct(*args)

        correct = monodromy.correct
        monkeypatch.setattr(monodromy, "correct", counted)
        track_roots(*case)
        assert len(calls) <= 8


if __name__ == "__main__":
    # Regenerates the frozen tracks; run only when a change of the tracks
    # is intended: PYTHONPATH=src python tests/test_monodromy.py
    (DATA_DIR / "track_events.json").write_text(json.dumps(frozen_records(), indent=1) + "\n")
