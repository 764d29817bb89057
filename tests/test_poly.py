"""Tests for polynomial arithmetic, root finding, and discriminants.

Root finding is checked against planted factorizations, and the discriminant
against the product of squared root differences computed with numpy's
eigenvalue-based solver, so the two implementations cross-validate.
"""

import numpy as np
import pytest

from quasibraid import (
    BivariatePolynomial,
    InputError,
    NumericalFailure,
    UnivariatePolynomial,
    bivariate_from_json,
    bivariate_to_json,
    discriminant_w,
    fiber_roots,
    parse_bivariate_text,
    raw_roots,
    roots,
)
from quasibraid import fibers, poly

Z = UnivariatePolynomial((0, 1))
ONE = UnivariatePolynomial((1,))


def poly_from_roots(values):
    acc = ONE
    for r in values:
        acc = acc * UnivariatePolynomial((-r, 1))
    return acc


def squared_root_gaps(coeffs_ascending, z):
    """Product of (w_i - w_j)^2 over the fiber at z, via numpy eigenvalues."""
    fiber = [c(z) for c in coeffs_ascending]
    values = np.roots(fiber[::-1])
    prod = 1.0 + 0j
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            prod *= (values[i] - values[j]) ** 2
    return prod


class TestUnivariateArithmetic:
    def test_exact_trailing_zeros_are_trimmed(self):
        p = UnivariatePolynomial((1, 2, 0.0, 0.0))
        assert p.coefficients == (1 + 0j, 2 + 0j)
        assert p.degree == 1

    def test_zero_polynomial_has_degree_minus_one(self):
        assert UnivariatePolynomial(()).degree == -1
        assert UnivariatePolynomial((0.0,)).degree == -1

    def test_horner_evaluation(self):
        p = UnivariatePolynomial((1, -2, 3))
        assert p(2) == 1 - 4 + 12

    def test_evaluation_broadcasts_over_arrays(self):
        p = UnivariatePolynomial((0, 1))
        out = p(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [1, 2, 3])

    def test_derivative(self):
        p = UnivariatePolynomial((5, 3, 0, 2))
        assert p.derivative().coefficients == (3 + 0j, 0j, 6 + 0j)

    def test_product_matches_numpy_convolution(self):
        a = UnivariatePolynomial((1, 2, 3))
        b = UnivariatePolynomial((-1, 4))
        expected = np.convolve([1, 2, 3], [-1, 4])
        assert np.allclose((a * b).coefficients, expected)


class TestRootFinding:
    def test_planted_grid_roots_are_recovered(self):
        grid = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        rng = np.random.default_rng(20260818)
        for _ in range(30):
            degree = int(rng.integers(2, 9))
            planted = list(map(complex, rng.choice(grid, size=degree, replace=False)))
            remaining = list(raw_roots(poly_from_roots(planted)))
            for expect in planted:
                got = min(remaining, key=lambda v: abs(v - expect))
                assert abs(got - expect) <= 1e-8 * (1 + abs(expect))
                remaining.remove(got)

    def test_scaling_the_polynomial_does_not_move_roots(self):
        p = poly_from_roots([1, 2j, -3])
        assert np.allclose(raw_roots(p.scale(17 - 5j)), raw_roots(p))

    def test_degree_one_is_solved_directly(self):
        assert raw_roots(UnivariatePolynomial((6, -2))) == (3 + 0j,)

    def test_constant_polynomial_is_rejected(self):
        with pytest.raises(InputError):
            raw_roots(UnivariatePolynomial((5,)))
        with pytest.raises(InputError):
            roots(UnivariatePolynomial(()))

    def test_double_root_is_clustered_with_multiplicity(self):
        p = poly_from_roots([1, 1, -2])
        found = roots(p)
        by_mult = dict(zip(found.multiplicities, found.values))
        assert abs(by_mult[2] - 1) < 1e-6
        assert abs(by_mult[1] + 2) < 1e-6
        assert found.total == 3

    def test_triple_root(self):
        found = roots(poly_from_roots([1j, 1j, 1j]))
        assert found.multiplicities == (3,)
        assert abs(found.values[0] - 1j) < 1e-4

    def test_a_non_finite_disc_radius_fails_loudly(self):
        # The Horner sums overflow at the root -1e300, so its disc has no
        # finite radius, and the certificate refuses and reports the roots.
        p = UnivariatePolynomial((1e300, 1e300, 1))
        with pytest.raises(NumericalFailure, match="not finite") as info:
            roots(p)
        values = [complex(v) for v in info.value.diagnostics["values"]]
        assert sorted(v.real for v in values) == [-1e300, 0.0]
        with pytest.raises(NumericalFailure, match="not finite"):
            raw_roots(p)

    def test_five_fold_root_beside_a_simple_one(self):
        found = roots(poly_from_roots([2j] * 5 + [1]))
        assert found.multiplicities == (5, 1)
        assert abs(found.values[0] - 2j) < 1e-2

    def test_three_double_roots(self):
        found = roots(poly_from_roots([1, 1, 2, 2, 3, 3]))
        assert found.multiplicities == (2, 2, 2)
        for v, expect in zip(found.values, (1, 2, 3)):
            assert abs(v - expect) < 1e-6

    def test_double_root_at_the_origin_certifies(self):
        # Every term of w^3 + 2 w^2 vanishes at the double root 0, where the
        # per-root relative residual is 1 however close the iterates get.
        found = roots(UnivariatePolynomial((0, 0, 2, 1)))
        assert found.total == 3
        by_value = {round(v.real) + 0j: m for v, m in zip(found.values, found.multiplicities)}
        assert by_value == {0: 2, -2: 1}
        for v in found.values:
            assert abs(v - round(v.real)) < 1e-6

    def test_raw_roots_certification_can_be_relaxed(self):
        # Near-coincident roots are located only to about the square root of
        # machine precision, yet their inclusion discs stay finite: the disc
        # certificate accepts the pair unmerged.
        p = poly_from_roots([1.0, 1.0 + 1e-9, -1.0])
        values = raw_roots(p)
        assert sum(1 for v in values if abs(v - 1) < 1e-3) == 2


GRID = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3)]
# The planted roots of TestRootFinding, multiple ones included, and grid draws.
PLANTED = [
    [1, 1, -2],
    [1j, 1j, 1j],
    [2j] * 5 + [1],
    [1, 1, 2, 2, 3, 3],
    [0, 0, -2],
    [1.0, 1.0 + 1e-9, -1.0],
    [k / 4 for k in range(1, 9)],
] + [
    list(map(complex, np.random.default_rng(seed).choice(GRID, size=degree, replace=False)))
    for seed, degree in enumerate(range(2, 9))
]


class TestDiscCertificate:
    @pytest.mark.parametrize("planted", PLANTED)
    def test_every_planted_root_lies_in_a_disc_of_its_component(self, planted):
        # A connected component of k inclusion discs holds exactly k roots:
        # the union of each component's discs holds as many planted roots.
        p = poly_from_roots(planted)
        found, radii = poly._certified_roots(np.array([p.coefficients], dtype=complex))
        found, radii = found[0], radii[0]
        component = np.abs(found[:, None] - found[None]) <= radii[:, None] + radii[None]
        for _ in range(len(found)):
            component = component @ component
        for members in component:
            held = [r for r in planted if (np.abs(found[members] - r) <= radii[members]).any()]
            assert len(held) == members.sum()
        found_set = roots(p)
        sizes = np.unique(component.argmax(axis=1), return_counts=True)[1]
        assert sorted(found_set.multiplicities) == sorted(sizes)
        assert found_set.residual == radii.max()


class TestDiscriminant:
    def test_quadratic_in_w_has_its_branch_value_at_zero(self):
        f = parse_bivariate_text("w^2 - z")
        disc = discriminant_w(f)
        assert disc.degree == 1
        found = roots(disc)
        assert abs(found.values[0]) < 1e-12

    def test_depressed_cubic_formula(self):
        # For w^3 + p*w + q the discriminant is -(4 p^3 + 27 q^2) up to the
        # resultant normalization, so with p = -3, q = 2 z^4 the zero set is
        # the eighth roots of unity.
        f = parse_bivariate_text("w^3 - 3*w + 2*z^4")
        disc = discriminant_w(f)
        rng = np.random.default_rng(11)
        samples = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        ratios = [disc(z) / (1 - z**8) for z in samples]
        assert np.allclose(ratios, ratios[0], rtol=1e-8)
        found = roots(disc)
        assert found.total == 8
        for v in found.values:
            assert abs(v**8 - 1) < 1e-8

    @pytest.mark.parametrize(
        "text",
        [
            "w^2 - z",
            "w^3 - 3*w + 2*z",
            "w^3 - 3*w + 2*z^4",
            "w^4 - 2*w + z^3 - z",
            "w^8 + w^2 - z",
        ],
    )
    def test_matches_squared_root_gaps_up_to_a_constant(self, text):
        # The resultant of f and df/dw equals a z-independent constant times
        # the product of squared differences of fiber roots.  Twenty random
        # fibers solved with numpy eigenvalues pin that constant down.
        f = parse_bivariate_text(text)
        disc = discriminant_w(f)
        rng = np.random.default_rng(hash(text) % 2**32)
        ratios = []
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            gap = squared_root_gaps(f.w_coefficients, z)
            assert abs(gap) > 1e-12
            ratios.append(disc(z) / gap)
        ratios = np.array(ratios)
        assert np.allclose(ratios, ratios[0], rtol=1e-6)

    def test_constant_discriminant_has_degree_zero(self):
        # The discriminant of (w + z)^2 - 1 is the constant 4, while the
        # Sylvester matrix has z-degree 2: every pencil eigenvalue is infinite.
        disc = discriminant_w(parse_bivariate_text("w^2 + 2*z*w + z^2 - 1"))
        assert disc.degree == 0
        assert abs(abs(disc.coefficients[0]) - 4) < 1e-9

    def test_degree_drop_keeps_only_the_finite_roots(self):
        # (w + z)^3 - w is v^3 - v + z in v = w + z, with discriminant
        # 4 - 27 z^2.
        f = parse_bivariate_text("w^3 + 3*z*w^2 + 3*z^2*w + z^3 - w")
        disc = discriminant_w(f)
        assert disc.degree == 2
        for z in (0.3, -1.1 + 0.4j, 2j):
            assert disc(z) / (4 - 27 * z**2) == pytest.approx(disc(0) / 4, rel=1e-9)

    def test_repeated_factor_is_rejected(self):
        squared = parse_bivariate_text("w^2 - 2*z*w + z^2")
        with pytest.raises(InputError):
            discriminant_w(squared)

    def test_repeated_quadratic_factor_is_rejected(self):
        squared = parse_bivariate_text("w^4 - 2*z*w^2 + z^2")
        with pytest.raises(InputError):
            discriminant_w(squared)


def is_prime(n):
    """Miller-Rabin on the first twelve primes, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestExactStructure:
    def test_the_primes_hold_a_square_root_of_minus_one(self):
        for p in poly._PRIMES:
            assert is_prime(p)
            assert p % 8 == 5
            root = pow(2, (p - 1) // 4, p)
            assert root * root % p == p - 1

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("w^2 - z", (1,)),
            ("w^3 - 3*w + 2*z^4", (1,) * 8),
            ("w^3 - z", (2,)),
            ("w^2 - z^5", (5,)),
            ("w^5 + z*w + z", (1, 4)),  # z^4 (256 z + 3125)
            ("w^2 + 2*z*w + z^2 - 1", ()),  # the constant 4
            ("w^3 + 3*z*w^2 + 3*z^2*w + z^3 - w", (1, 1)),  # 4 - 27 z^2
        ],
    )
    def test_multiplicities_of_closed_form_discriminants(self, text, expected):
        assert parse_bivariate_text(text).discriminant_multiplicities == expected

    def test_an_identically_zero_discriminant_is_a_repeated_factor(self):
        with pytest.raises(InputError, match="repeated factor"):
            parse_bivariate_text("w^4 - 2*z*w^2 + z^2").discriminant_multiplicities

    @pytest.mark.parametrize(
        "text",
        [
            "w^2 - 13*z",  # 52 z vanishes mod 13
            "w^2 - z - 13*z^2",  # 4 z + 52 z^2 drops to degree 1 mod 13
            "w^2 - z^2 + 13",  # 4 (z^2 - 13) has a double root mod 13
            "13*w^2 - z",  # the lead vanishes mod 13
        ],
    )
    def test_an_unlucky_prime_is_loud(self, monkeypatch, text):
        # 13 is 5 mod 8, and small enough to divide what these curves need.
        monkeypatch.setattr(poly, "_PRIMES", (poly._PRIMES[0], 13))
        with pytest.raises(NumericalFailure):
            parse_bivariate_text(text).discriminant_multiplicities


class TestBivariate:
    def test_fiber_evaluates_coefficients(self):
        f = parse_bivariate_text("w^2 - z")
        assert f.fiber(4).coefficients == (-4 + 0j, 0j, 1 + 0j)
        assert f.evaluate(4, 2) == 0

    def test_fiber_roots_of_the_square_root_surface(self):
        f = parse_bivariate_text("w^2 - z")
        found = fiber_roots(f, 9)
        assert sorted(v.real for v in found.values) == pytest.approx([-3, 3])

    def test_w_linear_perturbation(self):
        f = parse_bivariate_text("w^3 - z")
        g = f.add_w_linear(0.25)
        assert g.evaluate(0, 2) == f.evaluate(0, 2) + 0.25 * 2

    def test_degree_must_be_at_least_two(self):
        with pytest.raises(InputError):
            parse_bivariate_text("w - z")

    def test_leading_coefficient_must_be_constant(self):
        with pytest.raises(InputError):
            parse_bivariate_text("z*w^2 - 1")

    def test_unknown_symbols_are_rejected(self):
        with pytest.raises(InputError):
            parse_bivariate_text("w^2 - x")

    @pytest.mark.parametrize("text", ["w^2 - 1e400*z", "w^2 - 1e400*z + 1e400"])
    def test_non_finite_coefficients_are_rejected(self, text):
        with pytest.raises(InputError, match="finite"):
            parse_bivariate_text(text)

    def test_parse_handles_signs_and_fractional_coefficients(self):
        f = parse_bivariate_text("-w^2 + 0.5*z^2 - 2")
        assert f.w_degree == 2
        assert f.leading_constant == -1
        assert f.evaluate(2, 0) == 0.5 * 4 - 2

    def test_json_round_trip(self):
        f = parse_bivariate_text("w^3 - 3*w + 2*z^4")
        assert bivariate_from_json(bivariate_to_json(f)) == f

    def test_json_rejects_malformed_payloads(self):
        with pytest.raises(InputError):
            bivariate_from_json({"n": 2})

    @pytest.mark.parametrize("text", ["w^2 - z^1.9", "w^2.5 - z", "w^2 - z^1e0", "w^2 - z^2."])
    def test_non_integer_exponents_are_rejected(self, text):
        with pytest.raises(InputError, match="exponent"):
            parse_bivariate_text(text)

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": "two", "coeffs_w_desc": [[[1, 0]], [[0, 0]], [[-1, 0]]]},
            {"n": 2, "coeffs_w_desc": [[[1, 0]], [[1]], [[-1, 0]]]},
            {"n": 2, "coeffs_w_desc": [[[1, 0]], [["a", 0]], [[-1, 0]]]},
            {"n": 2, "coeffs_w_desc": [[[1, 0]], [[0, 0]], [[0, 0], [float("nan"), 0]]]},
            {"n": 2, "coeffs_w_desc": 5},
            [2, [[1, 0]]],
        ],
    )
    def test_json_type_errors_are_input_errors(self, payload):
        with pytest.raises(InputError):
            bivariate_from_json(payload)


class TestJet:
    # f = w^3 - 3 z w + 2 z^4 with its partials in closed form, each paired
    # with the sum of the absolute values of its terms.
    TEXT = "w^3 - 3*z*w + 2*z^4"
    ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))

    @staticmethod
    def closed_forms(z, w):
        r, s = np.abs(z), np.abs(w)
        values = [
            w**3 - 3 * z * w + 2 * z**4,
            -3 * w + 8 * z**3,
            3 * w**2 - 3 * z,
            np.full_like(z * w, -3),
            6 * w,
        ]
        scales = [
            s**3 + 3 * r * s + 2 * r**4,
            3 * s + 8 * r**3,
            3 * s**2 + 3 * r,
            np.full_like(r * s, 3.0),
            6 * s,
        ]
        return np.array(values), np.array(scales)

    def test_scalar_partials_match_closed_forms(self):
        f = parse_bivariate_text(self.TEXT)
        for z, w in ((0.7 - 0.2j, -1.3 + 0.4j), (2.0, 1j), (-1.1j, 0.5)):
            values, scales = f.jet(z, w, self.ORDERS)
            expect_values, expect_scales = self.closed_forms(np.asarray(z), np.asarray(w))
            assert values.shape == scales.shape == (len(self.ORDERS),)
            assert np.allclose(values, expect_values, rtol=1e-12, atol=0)
            assert np.allclose(scales, expect_scales, rtol=1e-12, atol=0)

    def test_partials_broadcast_over_arrays(self):
        f = parse_bivariate_text(self.TEXT)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        values, scales = f.jet(z, w, self.ORDERS)
        expect_values, expect_scales = self.closed_forms(*np.broadcast_arrays(z, w))
        assert values.shape == scales.shape == (len(self.ORDERS), 3, 4)
        assert np.allclose(values, expect_values, rtol=1e-12, atol=0)
        assert np.allclose(scales, expect_scales, rtol=1e-12, atol=0)

    def test_evaluate_is_the_order_zero_jet(self):
        f = parse_bivariate_text(self.TEXT)
        z = np.array([0.3, 1j, -2.0])
        assert np.array_equal(f.evaluate(z, 1.5), f.jet(z, 1.5, ((0, 0),))[0][0])
        assert f.evaluate(1, 1) == 1 - 3 + 2


class TestHorner:
    """The one evaluator of the package, also on a table of a single row: a
    curve constant in z, whose Horner pass in z takes no step."""

    # w^2 - 1, and w^2 as TestCorrect's property draws it with every entry 0.
    CURVES = [
        parse_bivariate_text("w^2 - 1"),
        BivariatePolynomial((UnivariatePolynomial((0, 0)),) * 2 + (ONE,)),
    ]

    def test_a_single_row_broadcasts_against_the_points(self):
        x = np.array([[0.5], [2.0], [-1j]])
        got = poly._horner(np.array([[1.0, -2j]]), x)
        assert np.array_equal(got, np.broadcast_to([1.0, -2j], (3, 2)))

    @pytest.mark.parametrize("f", CURVES, ids=["w^2 - 1", "w^2"])
    def test_a_z_constant_curve_broadcasts_over_a_batch(self, f):
        zs = np.array([0.3, 1j, -2.0, 5 + 5j])
        (row,) = f.coefficient_table
        assert np.array_equal(fibers.coefficients(f, zs), np.broadcast_to(row, (4, 3)))
        w = np.array([[0.5], [1.5j]])
        values, scales = f.jet(zs, w, ((0, 0), (1, 0), (0, 1)))
        assert values.shape == scales.shape == (3, 2, 4)
        expect = np.broadcast_to(np.array([row[0] + w**2, 0 * w, 2 * w]), values.shape)
        assert np.array_equal(values, expect)
        r = np.abs(w)
        assert np.array_equal(scales, np.broadcast_to(np.array([abs(row[0]) + r**2, 0 * r, 2 * r]), scales.shape))
        solved = fibers.solve(f, zs)
        roots, _ = fibers.correct(fibers.coefficients(f, zs), solved + 1e-3, poly.DEFAULT_ROOT_TOL)
        assert np.allclose(np.sort_complex(roots), np.sort_complex(solved), rtol=0, atol=1e-12)

    def test_a_fiber_is_the_kernel_s_coefficient_row(self):
        f = parse_bivariate_text("w^3 - 3*z*w + 2*z^4 + 0.3*z")
        zs = [0.7 - 0.2j, 2.0, -1.1j]
        for z, row in zip(zs, fibers.coefficients(f, np.array(zs))):
            assert f.fiber(z).coefficients == tuple(row)

