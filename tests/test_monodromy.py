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

from quasibraid import (
    Arc,
    Band,
    BraidLetter,
    InputError,
    LollipopSpec,
    LoopPath,
    NumericalFailure,
    QuasipositiveFactorization,
    Segment,
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
        return monodromy._midpoint_check(rot, fibers, mids, orders)

    def test_the_clean_walk_stands(self):
        assert self.midpoint_check_after(lambda fibers: None) == (15, "")

    def test_a_relabelled_strand_breaks_the_second_half(self):
        def relabel(fibers):
            fibers[10] = fibers[10][::-1]

        assert self.midpoint_check_after(relabel) == (9, "second half")

    def test_a_displaced_fiber_breaks_the_first_half(self):
        def displace(fibers):
            fibers[0] += monodromy.min_gap(fibers[0])

        assert self.midpoint_check_after(displace) == (0, "first half")


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_does_not_change_the_track(self, monkeypatch, chunk):
        # A chunk of one is the step-by-step loop.  The n = 4 realize loop
        # and the hidden pair reject steps, so they also pin a step schedule
        # that regrows wherever chunks end.
        f, data = QUARTIC
        loops = (figure_loop(), circle(radius=1.5, turns=2, start_angle=0.4), three_target_lollipop())
        cases = [(f, data, loop) for loop in loops] + [realize_case(), hidden_pair_case()]
        reference = [track_roots(*case) for case in cases]
        assert reference[3].accepted_steps == 679
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
        # The roots of w^2 - z are two square roots of z apart.
        _, _, loop = hidden_pair_case()
        gap = 2 * math.sqrt(abs(loop.point_at(diagnostics["t"])))
        assert diagnostics["gap"] == pytest.approx(gap, rel=1e-12)


if __name__ == "__main__":
    # Regenerates the frozen tracks; run only when a change of the tracks
    # is intended: PYTHONPATH=src python tests/test_monodromy.py
    (DATA_DIR / "track_events.json").write_text(json.dumps(frozen_records(), indent=1) + "\n")
