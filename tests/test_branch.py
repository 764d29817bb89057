"""Tests for branch locus extraction, genericity checks, and perturbation.

Expected branch sets come from closed-form discriminants of small fixtures:
the square root surface branches exactly at the origin, and the depressed
cubic family w^3 - 3w + 2z^k branches at the 2k-th roots of unity.
"""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasibraid import (
    BivariatePolynomial,
    BranchData,
    BranchPoint,
    InputError,
    NumericalFailure,
    UnivariatePolynomial,
    branch_data_from_json,
    branch_data_to_json,
    branch_points,
    check_genericity,
    parse_bivariate_text,
    perturb_generic,
    select_rotation,
)
from quasibraid.branch import _certified_fibers, _merge_double_roots


def distinct_fiber_values(f, z, merge_tol=1e-3):
    """Fiber roots via numpy eigenvalues, coincident pairs merged."""
    vals = list(np.roots(f.fiber(z).coefficients[::-1]))
    out = []
    for v in vals:
        for i, u in enumerate(out):
            if abs(v - u) < merge_tol:
                out[i] = (u + v) / 2
                break
        else:
            out.append(complex(v))
    return out


def assert_same_point_set(values, expected, tol=1e-8):
    assert len(values) == len(expected)
    remaining = list(values)
    for e in expected:
        got = min(remaining, key=lambda v: abs(v - e))
        assert abs(got - e) <= tol * (1 + abs(e))
        remaining.remove(got)


def family_curve(n, eps=0.05):
    """P(w)(w - z) + eps with P(w) = (w - 1)...(w - (n - 1))."""
    p = np.poly(np.arange(1.0, n))[::-1]
    coeffs = []
    for m in range(n + 1):
        const = (p[m - 1] if m >= 1 else 0.0) + (eps if m == 0 else 0.0)
        coeffs.append(UnivariatePolynomial((const, -p[m] if m < n else 0.0)))
    return BivariatePolynomial(tuple(coeffs))


def family_closed_form(n, eps=0.05):
    """Branch points z = w + P(w)/P'(w) over the roots of P^2 = eps P'.

    Away from the roots of P the equation reads P(w) = eps s1(w) with
    s1 = P'/P = sum 1/(w - j), which Newton solves in product form from a
    seed j +- sqrt(eps / P'(j)) next to each integer root j.
    """
    ks = np.arange(1.0, n)
    points = []
    for j in range(1, n):
        slope = np.prod([j - i for i in ks if i != j])
        for sign in (1, -1):
            w = j + sign * np.sqrt(complex(eps / slope))
            for _ in range(30):
                s1 = np.sum(1 / (w - ks))
                s2 = np.sum(1 / (w - ks) ** 2)
                p = np.prod(w - ks)
                w = w - (p - eps * s1) / (p * s1 + eps * s2)
            points.append(complex(w + 1 / np.sum(1 / (w - ks))))
    return points


class TestBranchPoints:
    def test_square_root_surface_branches_at_the_origin(self):
        data = branch_points(parse_bivariate_text("w^2 - z"))
        assert len(data.points) == 1
        assert data.points[0].multiplicity == 1
        assert abs(data.points[0].z) < 1e-12

    def test_depressed_cubic_branches_at_plus_minus_one(self):
        data = branch_points(parse_bivariate_text("w^3 - 3*w + 2*z"))
        assert_same_point_set(data.values(), [1, -1])

    def test_quartic_pullback_branches_at_eighth_roots_of_unity(self):
        data = branch_points(parse_bivariate_text("w^3 - 3*w + 2*z^4"))
        expected = [cmath.exp(2j * math.pi * k / 8) for k in range(8)]
        assert_same_point_set(data.values(), expected)
        assert all(p.multiplicity == 1 for p in data.points)

    def test_cusp_reports_a_multiple_discriminant_root(self):
        data = branch_points(parse_bivariate_text("w^3 - z"))
        assert len(data.points) == 1
        assert data.points[0].multiplicity >= 2

    def test_smooth_fiber_everywhere_gives_an_empty_locus(self):
        # w^2 - z^2 - 1 has discriminant proportional to z^2 + 1, so its
        # branch locus is just two simple points at plus and minus i.
        data = branch_points(parse_bivariate_text("w^2 - z^2 - 1"))
        assert_same_point_set(data.values(), [1j, -1j])

    def test_repeated_factor_is_rejected(self):
        with pytest.raises(InputError):
            branch_points(parse_bivariate_text("w^4 - 2*z*w^2 + z^2"))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_realization_family_matches_the_closed_form(self, n):
        f = family_curve(n)
        data = branch_points(f)
        assert len(data.points) == 2 * (n - 1)
        assert all(p.multiplicity == 1 for p in data.points)
        assert_same_point_set(data.values(), family_closed_form(n), tol=1e-9)
        assert check_genericity(f, data).ok

    def test_constant_discriminant_has_no_branch_points(self):
        # The pencil of (w + z)^2 - 1 has only infinite eigenvalues.
        assert branch_points(parse_bivariate_text("w^2 + 2*z*w + z^2 - 1")).points == ()

    def test_degree_drop_keeps_the_two_finite_points(self):
        f = parse_bivariate_text("w^3 + 3*z*w^2 + 3*z^2*w + z^3 - w")
        root = 2 / math.sqrt(27)
        assert_same_point_set(branch_points(f).values(), [root, -root])

    def test_conjugate_pairs_list_the_lower_half_plane_first(self):
        for f in (
            parse_bivariate_text("w^3 - 3*w + 2*z^4"),
            parse_bivariate_text("w^3 - z*w^2 + w - z + 0.01"),
            family_curve(5),
        ):
            values = branch_points(f).values()
            for k, z in enumerate(values):
                if z.imag > 1e-9:
                    assert abs(values[k - 1] - z.conjugate()) < 1e-9
            tie = 1e-9 * (1 + max(abs(z) for z in values))
            assert all(b.real >= a.real - tie for a, b in zip(values, values[1:]))

    @settings(max_examples=25, deadline=None)
    @given(
        w_degree=st.integers(2, 5),
        z_degree=st.integers(1, 3),
        data=st.data(),
    )
    def test_every_branch_fiber_has_a_double_root(self, w_degree, z_degree, data):
        entries = st.integers(-3, 3)
        coeffs = [
            UnivariatePolynomial(tuple(data.draw(entries) for _ in range(z_degree + 1)))
            for _ in range(w_degree)
        ]
        f = BivariatePolynomial(tuple(coeffs) + (UnivariatePolynomial((1,)),))
        try:
            found = branch_points(f)
        except InputError:
            assume(False)
        assert_fibers_have_double_roots(f, found)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: the 4-fold point splits the 5-fold root 1.02e-3 and 1.07e-3 apart",
    )
    @pytest.mark.parametrize("text", ["w^5 - z - 2", "w^5 + z*w + z"])
    def test_every_branch_fiber_has_a_double_root_at_a_four_fold_point(self, text):
        # Counterexamples that the property above has found, kept here
        # rather than only in a local example database.
        f = parse_bivariate_text(text)
        assert_fibers_have_double_roots(f, branch_points(f))


def assert_fibers_have_double_roots(f, found):
    # A branch point off by dz splits the double root by about
    # sqrt(dz |f_z / f_ww|) and a triple root by dz^(1/3): simple points
    # within 1e-13 have shown pairs 3e-6 apart where f_ww is small.
    for p in found.points:
        vals = np.roots(f.fiber(p.z).coefficients[::-1])
        scale = max(1.0, float(np.abs(vals).max()))
        gaps = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() <= (1e-5 if p.multiplicity == 1 else 1e-3) * scale


def relative_fiber_gap(f, z):
    """Closest root pair of the fiber over z, relative to max(1, root scale)."""
    vals = np.roots(f.fiber(z).coefficients[::-1])
    gaps = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min() / max(1.0, float(np.abs(vals).max()))


# The w^5 curve of z-degree 3 on which a fixed clustering radius merged two
# simple branch points near z = 1.72516, 2.1e-6 apart.
FIVE_STRAND = BivariatePolynomial(
    tuple(
        UnivariatePolynomial(c)
        for c in (
            (-1, -1, 3), (3, -3, 1, -3), (3, -2, -1, -1), (2, -2, -2, 3), (-3, -2, -1, 3), (1,)
        )
    )
)
ELEVEN_POINTS = "w^4 - 2*z^2*w^3 + w^2 + 2*z*w^2 + z^2*w^2 + 2*w + 3*z*w + 2 + 3*z"
EIGHTEEN_POINTS = (
    "w^4 - 2*z^3*w^3 - z^2*w^3 + 3*z*w^3 + 2*w^3 + 2*z^3*w^2 + 2*z^2*w^2 + 2*z*w^2"
    " - w^2 - z^3*w - 2*z^2*w - 2*z*w + 2*w - z^2 - 2*z + 1"
)
FOUR_STRAND = "w^4 - z*w^3 - w^2 + z*w + 0.05"


class TestMultiplicities:
    """Multiplicities read off closed-form discriminants, which are given up
    to a constant factor.  A branch point's multiplicity is the number of
    discriminant roots in its component of inclusion discs."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("w^2 - z^3", {0: 3}),  # 4 z^3
            ("w^2 - z^4", {0: 4}),  # 4 z^4
            ("w^3 - z^4", {0: 8}),  # -27 z^8
            ("w^3 - z^5", {0: 10}),  # -27 z^10
            # (3z + 1)^2 (3z + 2)^2: two nodes.
            ("w^3 + 3*w^2 + 3*z*w^2 + 2*w + 3*z*w", {-2 / 3: 2, -1 / 3: 2}),
            # 9 (z + 1)^2.  Two eigenvalues -1 +- e have |W| = e / 2, so
            # discs of radius d|W| would only touch; (d + 1)|W| overlap.
            ("w^2 + w + 3*z*w - 2 - 3*z", {-1: 2}),
            ("w^2 - z^5", {0: 5}),  # 4 z^5
            ("w^5 + z*w + z", {-3125 / 256: 1, 0: 4}),  # z^4 (256 z + 3125)
        ],
    )
    def test_multiple_points_are_one_point_each(self, text, expected):
        points = branch_points(parse_bivariate_text(text)).points
        assert [p.multiplicity for p in points] == list(expected.values())
        assert_same_point_set([p.z for p in points], list(expected), tol=1e-6)

    @pytest.mark.parametrize(
        "f, count",
        [
            # Square-free discriminants of degree 24 and 11; the second is
            # (3z + 2) times a factor with a root 9.8e-5 from -2/3.
            (FIVE_STRAND, 24),
            (parse_bivariate_text(ELEVEN_POINTS), 11),
        ],
    )
    def test_close_simple_points_stay_apart(self, f, count):
        points = branch_points(f).points
        assert len(points) == count
        assert all(p.multiplicity == 1 for p in points)
        for p in points:
            assert relative_fiber_gap(f, p.z) <= 1e-5

    def test_a_close_conjugate_pair_stays_apart(self):
        # A square-free discriminant of degree 18 with roots 0.70151 +- 3.9e-7i.
        points = branch_points(parse_bivariate_text(EIGHTEEN_POINTS)).points
        assert len(points) == 18
        assert all(p.multiplicity == 1 for p in points)

    def test_points_scale_with_z(self):
        # f(1e6 z, w) branches at 1e-6 times the points of f.
        unscaled = branch_points(parse_bivariate_text(FOUR_STRAND)).values()
        scaled = branch_points(parse_bivariate_text(FOUR_STRAND.replace("z*", "1000000*z*")))
        assert all(p.multiplicity == 1 for p in scaled.points)
        assert_same_point_set([1e6 * z for z in scaled.values()], unscaled, tol=1e-7)


def scale_w(f, mu):
    """f(z, mu w), whose discriminant is a constant times that of f."""
    return BivariatePolynomial(tuple(c.scale(mu**k) for k, c in enumerate(f.w_coefficients)))


class TestUnitsAndRefusals:
    @pytest.mark.parametrize("text", [FOUR_STRAND, "w^3 - 3*w + 2*z^4"])
    @pytest.mark.parametrize("mu", [1e-2, 1e2, 1e3])
    def test_scaling_w_keeps_the_branch_points(self, text, mu):
        f = parse_bivariate_text(text)
        expected = branch_points(f)
        scaled = branch_points(scale_w(f, mu))
        assert [p.multiplicity for p in scaled.points] == [
            p.multiplicity for p in expected.points
        ]
        assert_same_point_set(scaled.values(), expected.values(), tol=1e-9)

    def test_an_unresolved_pencil_is_a_numerical_failure(self):
        # The four-strand curve under z -> z + 100 has six simple branch
        # points, which the pencil eigenvalues merge into one cluster.
        f = parse_bivariate_text("w^4 - z*w^3 - 100*w^3 - w^2 + z*w + 100*w + 0.05")
        assert f.discriminant_multiplicities == (1,) * 6
        with pytest.raises(NumericalFailure, match="multiplicities") as caught:
            branch_points(f)
        assert caught.value.diagnostics["multiplicities"] == [1] * 6

    @pytest.mark.parametrize(
        "text",
        [
            "w^3 - w^2 - 2*z*w^2 + 2*z*w + z^2*w - z^2",  # (w - z)^2 (w - 1)
            "w^4 - 2*z*w^2 + z^2",  # (w^2 - z)^2
        ],
    )
    def test_a_repeated_factor_is_an_input_error(self, text):
        with pytest.raises(InputError, match="repeated factor"):
            branch_points(parse_bivariate_text(text))


class TestGenericity:
    def test_square_root_surface_is_generic(self):
        f = parse_bivariate_text("w^2 - z")
        report = check_genericity(f, branch_points(f))
        assert report.ok
        assert report.issues == ()

    def test_cubic_family_is_generic(self):
        for text in ("w^3 - 3*w + 2*z", "w^3 - 3*w + 2*z^4"):
            f = parse_bivariate_text(text)
            assert check_genericity(f, branch_points(f)).ok

    def test_cusp_is_not_generic(self):
        f = parse_bivariate_text("w^3 - z")
        report = check_genericity(f, branch_points(f))
        assert not report.ok
        assert any("multiplicity" in issue.reason for issue in report.issues)

    def test_issue_records_the_offending_point(self):
        f = parse_bivariate_text("w^3 - z")
        report = check_genericity(f, branch_points(f))
        assert abs(report.issues[0].z) < 1e-6

    def test_genericity_is_a_square_free_discriminant(self):
        # The 4-fold point of w^5 + z w + z fails; the simple one does not.
        f = parse_bivariate_text("w^5 + z*w + z")
        report = check_genericity(f, branch_points(f))
        assert [abs(issue.z) < 1e-9 for issue in report.issues] == [True]

    def test_data_of_another_structure_is_not_generic(self):
        f = parse_bivariate_text("w^3 - 3*w + 2*z^4")
        data = branch_points(f)
        report = check_genericity(f, BranchData(points=data.points[:7]))
        assert not report.ok
        assert "multiplicities" in report.issues[0].reason


class TestPerturbation:
    def test_already_generic_input_is_returned_unchanged(self):
        f = parse_bivariate_text("w^2 - z")
        g, data = perturb_generic(f)
        assert g == f
        assert data.generic
        assert data.perturbation is None

    def test_cusp_becomes_generic_after_a_small_linear_shift(self):
        f = parse_bivariate_text("w^3 - z")
        g, data = perturb_generic(f, budget=1e-2)
        assert data.generic
        assert data.perturbation is not None
        assert 0 < abs(data.perturbation) <= 1e-2
        assert check_genericity(g, branch_points(g)).ok

    def test_perturbed_locus_stays_near_the_original(self):
        # The cusp at the origin splits into simple points whose distance
        # from the origin shrinks with the perturbation size.
        f = parse_bivariate_text("w^3 - z")
        g, data = perturb_generic(f, budget=1e-2)
        assert data.values()
        assert max(abs(z) for z in data.values()) < 0.25

    def test_budget_zero_only_tries_the_input_itself(self):
        f = parse_bivariate_text("w^2 - z")
        g, data = perturb_generic(f, budget=0.0)
        assert g == f

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_budget_is_rejected(self, budget):
        with pytest.raises(InputError, match="budget"):
            perturb_generic(parse_bivariate_text("w^3 - z^2*w"), budget=budget)


class TestRotation:
    def test_well_separated_fibers_keep_theta_zero(self):
        f = parse_bivariate_text("w^2 - z")
        assert select_rotation(f, branch_points(f)) == 0.0

    def test_real_part_collision_forces_a_rotation(self):
        # At the two branch points of (w^2+1)(w-z) + 1/100 the fiber contains
        # values close to +i and -i, whose real parts collide until the fiber
        # is rotated.
        f = parse_bivariate_text("w^3 - z*w^2 + w - z + 0.01")
        data = branch_points(f)
        theta = select_rotation(f, data)
        assert theta != 0.0
        for p in data.points:
            distinct = distinct_fiber_values(f, p.z)
            rotated = sorted((v * cmath.exp(1j * theta)).real for v in distinct)
            for a, b in zip(rotated, rotated[1:]):
                assert b - a > 1e-4

    def test_rotation_gap_beats_the_unrotated_one(self):
        f = parse_bivariate_text("w^3 - z*w^2 + w - z + 0.01")
        data = branch_points(f)
        theta = select_rotation(f, data)

        def worst_gap(angle):
            worst = math.inf
            for p in data.points:
                vals = distinct_fiber_values(f, p.z)
                re = sorted((v * cmath.exp(1j * angle)).real for v in vals)
                worst = min(worst, min(b - a for a, b in zip(re, re[1:])))
            return worst

        assert worst_gap(theta) > 2 * worst_gap(0.0)


    def test_double_root_at_the_origin_is_merged(self):
        # The fiber over the branch point z = 0 is w^2 (w + 2); its rotation
        # is chosen from the merged double root and -2.
        f = parse_bivariate_text("w^3 + 2*w^2 - 2*z*w^2 + 2*z*w + z^2 - 3*z")
        data = branch_points(f)
        assert min(abs(z) for z in data.values()) < 1e-12
        theta = select_rotation(f, data)
        for p in data.points:
            distinct = distinct_fiber_values(f, p.z)
            assert len(distinct) == 2
            rotated = sorted((v * cmath.exp(1j * theta)).real for v in distinct)
            scale = max(1.0, max(abs(v) for v in distinct))
            for a, b in zip(rotated, rotated[1:]):
                assert b - a > 1e-9 * scale


def merged_fibers(f, data):
    """The branch fibers with their double roots merged, as the search sees them."""
    return _merge_double_roots(_certified_fibers(f, data.values()))


def worst_gaps(merged, thetas):
    """Least gap between sorted rotated real parts over all fibers, per angle."""
    rot = np.exp(1j * np.asarray(thetas, dtype=float))
    re = np.sort((rot[:, None, None] * merged[None]).real, axis=-1)
    return np.diff(re, axis=-1).min(axis=(1, 2))


def reference_rotation(f, data):
    """The search by a 720-angle grid of sorted real parts, then 60 steps of
    golden section over the best sample and its two neighbours."""
    if not data.points or f.w_degree < 3:
        return 0.0
    merged = merged_fibers(f, data)

    def gap(theta):
        return float(worst_gaps(merged, [theta])[0])

    step = 2.0 * math.pi / 720
    thetas = np.arange(720) * step
    best = thetas[int(np.argmax(worst_gaps(merged, thetas)))]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = best - step, best + step
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = gap(c), gap(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = gap(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = gap(d)
    theta = (c if fc >= fd else d) % (2.0 * math.pi)
    gap_best, gap_zero = max(gap(theta), 0.0), gap(0.0)
    if gap_zero >= 0.5 * gap_best and gap_zero > 0.0:
        return 0.0
    if gap_best <= 0.0:
        raise NumericalFailure("no rotation separates the branch-fiber real parts")
    return float(theta)


def dense_curve(seed):
    """A monic curve of w-degree 3..7 and z-degree 1..3 with integer
    coefficients in [-3, 3] and a non-zero z^e constant term."""
    rng = random.Random(seed)
    d, e = rng.randint(3, 7), rng.randint(1, 3)
    rows = [[rng.randint(-3, 3) for _ in range(e + 1)] for _ in range(d)] + [[1] + [0] * e]
    rows[0][e] = rng.choice((-3, -2, -1, 1, 2, 3))
    return BivariatePolynomial(tuple(UnivariatePolynomial(tuple(map(complex, r))) for r in rows))


ROTATION_ORACLE_CURVES = (
    [pytest.param(dense_curve(seed), id=f"dense-{seed}") for seed in range(60)]
    + [pytest.param(family_curve(n), id=f"family-n{n}") for n in range(3, 11)]
    + [
        pytest.param(parse_bivariate_text(text), id=text)
        for text in (
            "w^2 - z",
            "w^3 - 3*w + 2*z^4",
            "w^4 - z*w^3 - w^2 + z*w + 0.05",
            "w^3 - z*w^2 + w - z + 0.01",
            "w^3 + 2*w^2 - 2*z*w^2 + 2*z*w + z^2 - 3*z",
        )
    ]
)

# A real curve whose θ is not the smallest of its tied images θ, -θ, π - θ and π + θ.
TIED_IMAGES = (
    "w^4 + 3*w^3 - 2*z*w^3 - 3*z^2*w^3 + 2*w^2 - z*w^2 - 2*z^2*w^2 - w - 3*z*w"
    " - z^2*w + 1 + 3*z - 3*z^2"
)


def images(theta):
    return sorted(t % (2.0 * math.pi) for t in (theta, -theta, math.pi - theta, math.pi + theta))


class TestRotationOracle:
    """The search against the grid and golden-section reference."""

    @pytest.mark.parametrize("f", ROTATION_ORACLE_CURVES)
    def test_matches_the_golden_section_reference(self, f):
        data = branch_points(f)
        theta, expected = select_rotation(f, data), reference_rotation(f, data)
        if expected == 0.0 or theta == 0.0:
            assert theta == expected
            return
        merged = merged_fibers(f, data)
        margin = 64 * np.finfo(float).eps * np.abs(merged[:, :, None] - merged[:, None, :]).max()
        step = 2.0 * math.pi / 720
        moved = abs((theta - expected + math.pi) % (2.0 * math.pi) - math.pi)
        if moved > 1e-12:
            # A flat maximum: the two angles are equally good.
            got, want = worst_gaps(merged, [theta, expected])
            assert abs(got - want) <= margin
            assert moved <= step
        window = theta + np.linspace(-step, step, 4001)
        assert worst_gaps(merged, [theta])[0] >= worst_gaps(merged, window).max() - margin

    def test_the_images_of_theta_tie(self):
        f = parse_bivariate_text(TIED_IMAGES)
        data = branch_points(f)
        gaps = worst_gaps(merged_fibers(f, data), images(select_rotation(f, data)))
        assert gaps.max() - gaps.min() <= 1e-12 * gaps.max()

    @pytest.mark.xfail(
        strict=True,
        reason="rounding, not the angle's size, picks among the tied images of theta;"
        " ROADMAP item 4",
    )
    def test_ties_prefer_the_smallest_image(self):
        f = parse_bivariate_text(TIED_IMAGES)
        theta = select_rotation(f, branch_points(f))
        assert theta == pytest.approx(images(theta)[0], abs=1e-12)


class TestSerialization:
    def test_round_trip(self):
        f = parse_bivariate_text("w^3 - 3*w + 2*z")
        data = branch_points(f)
        data = BranchData(
            points=data.points,
            generic=True,
            rotation_theta=0.25,
            perturbation=1e-3 + 0j,
        )
        back = branch_data_from_json(branch_data_to_json(data))
        assert back == data

    def test_malformed_payload_is_rejected(self):
        with pytest.raises(InputError):
            branch_data_from_json({"generic": True})
