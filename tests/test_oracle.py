"""Tests for the exact enumeration oracle."""

import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_order_k import checks, oracle
from poisson_order_k.oracle import (
    WeightPolynomial,
    enumerate_tuples,
    lambda2_coefficient,
    weight_exact,
    weight_polynomial,
)


def partitions_at_most(n: int, max_part: int) -> int:
    """Independent partition counter: recursive with memo, not the library's DP."""
    memo = {}

    def p(n, m):
        if n == 0:
            return 1
        if n < 0 or m == 0:
            return 0
        if (n, m) not in memo:
            memo[n, m] = p(n - m, m) + p(n, m - 1)
        return memo[n, m]

    return p(n, max_part)


def fraction_sum_reference(k: int, n: int) -> dict[int, Fraction]:
    """The tuple sum with one Fraction addition per tuple, as first written.

    weight_polynomial sums integer multinomials per power instead; the
    coefficients and the order of their keys must come out the same.
    """
    coeffs: dict[int, Fraction] = {}
    for t in enumerate_tuples(k, n):
        d = sum(t)
        denom = 1
        for c in t:
            denom *= math.factorial(c)
        coeffs[d] = coeffs.get(d, Fraction(0)) + Fraction(1, denom)
    return coeffs


class TestEnumerateTuples:
    @pytest.mark.parametrize(
        "k, n, expected",
        [
            (2, 3, {(3, 0), (1, 1)}),
            (1, 5, {(5,)}),
            (3, 3, {(3, 0, 0), (1, 1, 0), (0, 0, 1)}),
        ],
    )
    def test_hand_enumerations(self, k, n, expected):
        assert set(enumerate_tuples(k, n)) == expected

    def test_n_zero_is_single_all_zero_tuple(self):
        assert enumerate_tuples(3, 0) == [(0, 0, 0)]
        assert enumerate_tuples(1, 0) == [(0,)]

    def test_order_is_deterministic(self):
        first = enumerate_tuples(4, 9)
        assert first == enumerate_tuples(4, 9)
        assert len(set(first)) == len(first)

    @given(st.integers(1, 6), st.integers(0, 18))
    @settings(max_examples=60, deadline=None)
    def test_tuples_solve_the_constraint_and_count_partitions(self, k, n):
        tuples = enumerate_tuples(k, n)
        for t in tuples:
            assert len(t) == k
            assert all(c >= 0 for c in t)
            assert sum((i + 1) * c for i, c in enumerate(t)) == n
        assert len(tuples) == oracle._count(k, n, n) == partitions_at_most(n, k)

    def test_budget_guard_refuses(self, monkeypatch):
        monkeypatch.setattr(oracle, "_TUPLE_BUDGET", 10)
        with pytest.raises(RuntimeError, match="budget of 10"):
            enumerate_tuples(3, 12)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_capped_walk_is_the_filtered_enumeration(self, k):
        # same tuples, same order; the budget guard counts exactly these
        for n in range(21):
            every = enumerate_tuples(k, n)
            for parts in range(5):
                seen = []
                oracle._each_tuple(k, n, lambda t: seen.append(tuple(t)), parts)
                assert seen == [t for t in every if sum(t) <= parts], (n, parts)
                assert oracle._count(k, n, parts) == len(seen), (n, parts)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            enumerate_tuples(0, 3)
        with pytest.raises(ValueError):
            enumerate_tuples(2, -1)


class TestWeightPolynomial:
    def test_quadratic_is_half_square_plus_linear(self):
        for k in (2, 3, 7):
            poly = weight_polynomial(k, 2)
            assert poly.coeffs == {2: Fraction(1, 2), 1: Fraction(1)}

    def test_cubic_at_index_equal_to_order(self):
        poly = weight_polynomial(3, 3)
        assert poly.coeffs == {1: Fraction(1), 2: Fraction(1), 3: Fraction(1, 6)}

    def test_order_one_is_pure_power(self):
        assert weight_polynomial(1, 4).coeffs == {4: Fraction(1, 24)}

    def test_builds_no_tuple_list(self, monkeypatch):
        # the tuples are summed as the descent reaches them
        def refuse(k, n):
            raise AssertionError("weight_polynomial listed its tuples")

        monkeypatch.setattr(oracle, "enumerate_tuples", refuse)
        assert weight_polynomial(3, 3).coeffs == {1: 1, 2: 1, 3: Fraction(1, 6)}

    def test_budget_guard_refuses(self, monkeypatch):
        monkeypatch.setattr(oracle, "_TUPLE_BUDGET", 10)
        with pytest.raises(RuntimeError, match="budget of 10"):
            weight_polynomial(3, 12)

    def test_pickles_and_refuses_assignment(self):
        poly = weight_polynomial(3, 3)
        back = pickle.loads(pickle.dumps(poly))
        assert type(back) is type(poly) and back == poly
        with pytest.raises(AttributeError):
            poly.coeffs = {}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_equals_the_fraction_sum(self, k):
        for n in range(19):
            got, want = weight_polynomial(k, n).coeffs, fraction_sum_reference(k, n)
            assert got == want and list(got) == list(want), n

    @pytest.mark.parametrize("k", range(2, 13))
    def test_equals_the_fraction_sum_on_the_lambda2_grid(self, k):
        # the indices the lambda2-coefficients suite reads
        for n in range(k + 1, 2 * k + 1):
            got, want = weight_polynomial(k, n).coeffs, fraction_sum_reference(k, n)
            assert got == want and list(got) == list(want), n

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    def test_structural_invariants(self, k, n):
        poly = weight_polynomial(k, n)
        assert all(c > 0 for c in poly.coeffs.values())
        assert max(poly.coeffs) == (n if n > 0 else 0)
        assert poly.coeffs[max(poly.coeffs)] == (
            Fraction(1, math.factorial(n)) if n > 0 else Fraction(1)
        )
        if n >= 1:
            assert 0 not in poly.coeffs
        if n >= 1 and n % k == 0:
            low = min(poly.coeffs)
            assert low == n // k
            assert poly.coeffs[low] == Fraction(1, math.factorial(n // k))


def term_by_term(poly: WeightPolynomial, lam: Fraction) -> Fraction:
    return sum((Fraction(c) * lam**d for d, c in poly.coeffs.items()), Fraction(0))


class TestEvaluate:
    @given(
        st.dictionaries(
            st.integers(0, 12),
            st.fractions(min_value=-5, max_value=5, max_denominator=10**6)
            | st.integers(-10**6, 10**6),
            max_size=8,
        ),
        st.fractions(min_value=-4, max_value=4, max_denominator=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_term_by_term_sum(self, coeffs, lam):
        poly = WeightPolynomial(k=2, n=0, coeffs=coeffs)
        got = poly.evaluate(lam)
        assert type(got) is Fraction and got == term_by_term(poly, lam)

    @pytest.mark.parametrize(
        "coeffs",
        [
            {1: Fraction(1, 3)},
            {0: Fraction(2, 7), 3: Fraction(5, 11)},
            {0: 4},
            {2: 3, 1: Fraction(1, 2)},
            {},
        ],
    )
    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(-7, 3), 2, 0.1])
    def test_hand_built_polynomials(self, coeffs, lam):
        # denominators that do not divide degree!, int coefficients, degree 0
        poly = WeightPolynomial(k=3, n=3, coeffs=coeffs)
        assert poly.evaluate(lam) == term_by_term(poly, Fraction(lam))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_oracle_polynomials(self, k):
        for n in range(16):
            poly = weight_polynomial(k, n)
            for lam in (Fraction(1, 4), Fraction(3, 2), 0.6026076):
                assert poly.evaluate(lam) == term_by_term(poly, Fraction(lam))


class TestWeightExact:
    def test_level_three_halves(self):
        assert weight_exact(2, 2, Fraction(1)) == Fraction(3, 2)

    def test_index_zero_is_one(self):
        assert weight_exact(2, 0, Fraction(7, 3)) == 1

    def test_quartic_value_is_coefficient_sum_at_one(self):
        # coefficients of the (k=2, n=4) polynomial are 1/2, 1/2, 1/24
        assert weight_exact(2, 4, 1) == Fraction(25, 24)
        poly = weight_polynomial(2, 4)
        assert poly.evaluate(1) == Fraction(25, 24)

    def test_floats_are_taken_at_their_binary_value(self):
        assert weight_exact(3, 2, 0.5) == weight_exact(3, 2, Fraction(1, 2))

    @given(st.integers(1, 5), st.integers(0, 12), st.fractions(Fraction(1, 100), 4))
    @settings(max_examples=60, deadline=None)
    def test_dominates_leading_term(self, k, n, lam):
        # the degree-n term alone is a lower bound
        assert weight_exact(k, n, lam) >= lam**n / math.factorial(n)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            weight_exact(2, 3, 0)


class TestLambda2Coefficient:
    @pytest.mark.parametrize("k, j, expected", [(4, 1, 2), (4, 4, Fraction(1, 2)), (2, 1, 1)])
    def test_hand_values(self, k, j, expected):
        assert lambda2_coefficient(k, j) == expected

    def test_matches_full_polynomial(self):
        # over the verify grid: the walk capped at two parts reads the same
        # coefficient as the whole polynomial
        for k in range(2, 13):
            for j in range(1, k + 1):
                want = weight_polynomial(k, k + j).coeffs.get(2, 0)
                assert lambda2_coefficient(k, j) == want, (k, j)

    def test_verify_suite_walks_only_the_two_part_tuples(self, monkeypatch):
        walked = []
        each_tuple = oracle._each_tuple

        def counting(k, n, visit, parts=None):
            def count(t):
                walked.append(parts)
                visit(t)

            each_tuple(k, n, count, parts)

        monkeypatch.setattr(oracle, "_each_tuple", counting)
        assert checks.lambda2_coefficients()[0]
        # the whole polynomials of w_{k+j}, k = 2..12, have 15,411 tuples
        assert walked == [2] * 202

    def test_large_orders_are_cheap(self):
        # w_120 at k = 60 has 1,838,676,678 tuples; w_61..w_120 have at most
        # 30 tuples of at most two parts
        start = time.perf_counter()
        for j in (1, 30, 60):
            assert lambda2_coefficient(60, j) == Fraction(61 - j, 2)
        assert lambda2_coefficient(40, 40) == Fraction(1, 2)
        assert time.perf_counter() - start < 0.5

    def test_budget_guard_counts_the_capped_walk(self, monkeypatch):
        # w_13 at k = 12 has 100 tuples, 6 of them of at most two parts
        monkeypatch.setattr(oracle, "_TUPLE_BUDGET", 6)
        assert lambda2_coefficient(12, 1) == 6
        monkeypatch.setattr(oracle, "_TUPLE_BUDGET", 5)
        with pytest.raises(RuntimeError, match="6 tuples for k=12, n=13 exceeds the budget of 5"):
            lambda2_coefficient(12, 1)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_linear_drop_identity(self, k):
        for j in range(1, k + 1):
            assert lambda2_coefficient(k, j) == Fraction(k + 1 - j, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda2_coefficient(1, 1)
        with pytest.raises(ValueError):
            lambda2_coefficient(4, 5)
        with pytest.raises(ValueError, match=r"offset j must be an integer in \[1, 2\]"):
            lambda2_coefficient(2, True)
