"""Tests for realizing factorizations as curve-and-loop pairs.

Every realization is verified by re-tracking the returned loop along the
returned curve and comparing braid words, so these tests are end-to-end
round trips through continuation rather than checks of intermediate state.
"""

import itertools
import traceback

import pytest

from quasibraid import (
    Band,
    BraidWord,
    InputError,
    NumericalFailure,
    QuasipositiveFactorization,
    braid_along,
    branch_points,
    build_plan,
    check_genericity,
    enclosed_count,
    expand_factorization,
    exponent_sum,
    free_reduce,
    generator_loop,
    letters_from_pairs,
    parse_bivariate_text,
    realization_curve,
    realize,
    word_to_text,
)
from quasibraid import realization
from quasibraid.realization import DEFAULT_EPSILON


def qpf(n, *bands):
    return QuasipositiveFactorization(
        strands=n,
        bands=tuple(
            Band(conjugator=letters_from_pairs(conj), index=idx)
            for conj, idx in bands
        ),
    )


def conjugator_pool(n, max_len):
    alphabet = [(k, s) for k in range(1, n) for s in (-1, 1)]
    pool = [()]
    for length in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            reduced = free_reduce(BraidWord(n, letters_from_pairs(combo)))
            if len(reduced.letters) == length:
                pool.append(combo)
    return pool


class TestCurveFamily:
    def test_two_strand_curve_is_the_shifted_parabola(self):
        # (w - 1)(w - z) + eps expands to w^2 - (z + 1) w + z + eps.
        f = realization_curve(2, epsilon=0.05)
        expected = parse_bivariate_text("w^2 - z*w - w + z + 0.05")
        assert f == expected

    def test_two_strand_branch_points_sit_near_one(self):
        f = realization_curve(2, epsilon=0.05)
        data = branch_points(f)
        assert len(data.points) == 2
        for p in data.points:
            assert abs(p.z - 1) < 0.5

    def test_branch_count_grows_linearly_with_the_degree(self):
        for n in (2, 3, 4):
            f = realization_curve(n)
            data = branch_points(f)
            assert len(data.points) == 2 * (n - 1)
            assert check_genericity(f, data).ok

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_large_curves_are_generic_at_the_default_epsilon(self, n):
        # The w^0 coefficient of P(w)(w - z) + eps is eps - P(0) z.
        f = realization_curve(n)
        assert f.w_coefficients[0].coefficients[0] == DEFAULT_EPSILON

    def test_degree_validation(self):
        with pytest.raises(InputError):
            realization_curve(1)
        with pytest.raises(InputError):
            realization_curve(3, epsilon=0.0)
        with pytest.raises(InputError):
            realization_curve(3, epsilon=0.5)

    @pytest.mark.parametrize("construct", [realization_curve, build_plan])
    def test_a_complex_epsilon_is_an_input_error(self, construct):
        with pytest.raises(InputError, match="epsilon must be real"):
            construct(3, 0.05 + 0j)

    @pytest.mark.parametrize("construct", [realization_curve, build_plan])
    def test_a_float_strand_count_is_an_input_error(self, construct):
        with pytest.raises(InputError, match="integral number"):
            construct(3.0)


class TestGeneratorLoops:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_generator_is_realized_verbatim(self, n):
        plan = build_plan(n)
        for k in range(1, n):
            loop = generator_loop(plan, k)
            word = braid_along(plan.f, plan.branch, loop)
            assert word_to_text(free_reduce(word)) == f"s{k}"

    def test_generator_index_is_validated(self):
        plan = build_plan(3)
        with pytest.raises(InputError):
            generator_loop(plan, 0)
        with pytest.raises(InputError):
            generator_loop(plan, 3)

    def test_loops_share_the_plan_basepoint(self):
        plan = build_plan(4)
        for k in range(1, 4):
            assert generator_loop(plan, k).basepoint == plan.basepoint

    @pytest.fixture
    def counted(self, monkeypatch):
        """Empties the plan cache and counts tracked loops and curve builds."""
        monkeypatch.setattr(realization, "_PLAN_CACHE", {})
        calls = {"braid_along": 0, "_curve_data": 0}
        for name in calls:
            original = getattr(realization, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(realization, name, counting)
        return calls

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_each_generator_is_tracked_once_at_one_epsilon(self, counted, n):
        plan = build_plan(n)
        assert plan.epsilon == DEFAULT_EPSILON
        assert counted == {"braid_along": n - 1, "_curve_data": 1}

    def test_seven_strands_fail_at_the_first_generator_loop(self, counted):
        with pytest.raises(NumericalFailure, match="generator 1") as info:
            build_plan(7)
        assert info.value.diagnostics["generator"] == 1
        assert counted == {"braid_along": 1, "_curve_data": 1}

    def test_plan_reports_one_batch_per_generator(self):
        plan = build_plan(4)
        assert len(plan.batches) == 3
        assert [b.index for b in plan.batches] == [1, 2, 3]
        for batch in plan.batches:
            assert batch.kind in ("cross", "ray")


class TestRealizeRoundTrips:
    def verify(self, factorization, epsilon=0.05):
        f, loop, verification = realize(factorization, epsilon=epsilon)
        expanded = free_reduce(expand_factorization(factorization))
        assert free_reduce(verification) == expanded
        assert exponent_sum(verification) == len(factorization.bands)
        return f, loop, verification

    def test_single_positive_generator(self):
        f, loop, word = self.verify(qpf(2, ((), 1)))
        assert exponent_sum(word) == 1

    def test_conjugated_generator_on_three_strands(self):
        self.verify(qpf(3, (((2, 1),), 1)))

    def test_twisted_positive_knot_factorization(self):
        self.verify(qpf(3, ((), 1), ((), 1), ((), 2), (((2, 1),), 1)))

    def test_annular_factorization_with_a_long_conjugator(self):
        self.verify(qpf(3, ((), 1), (((2, 1), (2, 1), (2, 1)), 1)))

    def test_six_strands_round_trip(self):
        self.verify(qpf(6, (((2, 1),), 4)))

    def test_seven_strands_fail_as_a_numerical_problem(self):
        # The branch points are right at n = 7, but the template circle
        # around the first batch passes closer to its branch points than the
        # tracker's clearance floor allows.
        with pytest.raises(NumericalFailure):
            realize(qpf(7, ((), 3)))

    def test_a_failed_plan_is_built_once_and_raised_afresh(self, monkeypatch):
        monkeypatch.setattr(realization, "_PLAN_CACHE", {})
        calls, curve_data = [], realization._curve_data
        monkeypatch.setattr(realization, "_curve_data", lambda *args: calls.append(args) or curve_data(*args))
        raised = []
        for _ in range(3):
            with pytest.raises(NumericalFailure, match="generator 1") as info:
                build_plan(7)
            raised.append(info.value)
        assert len(calls) == 1
        first, second, third = raised
        assert second is not third
        assert str(second) == str(third) == str(first)
        assert second.diagnostics == third.diagnostics == first.diagnostics
        # Raising a stored exception again would lengthen its traceback.
        assert len(traceback.extract_tb(third.__traceback__)) == len(traceback.extract_tb(second.__traceback__))

    def test_empty_factorizations_are_rejected(self):
        with pytest.raises(InputError):
            realize(qpf(2))

    def test_exponent_sum_equals_enclosed_weight(self):
        factorization = qpf(3, ((), 1), ((), 2), (((1, -1),), 2))
        f, loop, word = self.verify(factorization)
        data = branch_points(f)
        assert exponent_sum(word) == enclosed_count(loop, data)


class TestRealizeCorpus:
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_short_band_in_low_strand_groups(self, n):
        pool = conjugator_pool(n, max_len=2)
        for conj in pool:
            factorization = qpf(n, (conj, 1))
            f, loop, verification = realize(factorization)
            assert free_reduce(verification) == free_reduce(
                expand_factorization(factorization)
            )

    def test_short_bands_on_four_strands(self):
        pool = [
            (),
            ((1, 1),),
            ((1, -1),),
            ((3, 1),),
            ((3, -1),),
            ((1, 1), (3, -1)),
            ((3, 1), (1, 1)),
        ]
        for conj in pool:
            for index in (1, 2, 3):
                factorization = qpf(4, (conj, index))
                f, loop, verification = realize(factorization)
                assert free_reduce(verification) == free_reduce(
                    expand_factorization(factorization)
                )
