"""Tests for level-crossing solves and the closed-form threshold constants."""

import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_order_k.oracle import weight_polynomial
from poisson_order_k import roots
from poisson_order_k.pmf import Params, _extend_kp, _kterm_weights, build_table_km
from poisson_order_k.roots import (
    SQRT5_MINUS_1,
    _gap_factor,
    _illinois,
    bounds_record,
    closed_form_root_n2,
    monotone_tail_bound,
    rise_threshold,
    root_upper_bound,
    shoulder_lambda,
    solve_weight_equals,
    weight_value,
)
from exact import prefix_weight_sign, printed_interval, weight_sign
from scan_tables import kterm_reference


def shoulder_reference(k: int, tol: float = 1e-13) -> tuple[float, int]:
    """The shoulder by a linear walk of the grid 1e-3 * 1.5**i, gap at each step.

    The walk starts at 1e-3, so it needs k <= 2257, where the gap is still
    negative there.  Returns the root and the number of evaluations the
    Illinois phase made.
    """

    def g(lam: float) -> tuple[float, float]:
        w = _kterm_weights(k, lam, k + 2)
        return w[k + 2] - w[k + 1], tol * w[k + 1]

    lo = hi = 1e-3
    flo = fhi = g(lo)[0]
    assert flo < 0.0, k
    while fhi < 0.0:
        lo, flo = hi, fhi
        hi *= 1.5
        fhi = g(hi)[0]
    return _illinois(g, lo, flo, hi, fhi, 0.0)


def shoulder_grid() -> list[float]:
    grid = [1e-3]
    while grid[-1] < 2.0:
        grid.append(min(grid[-1] * 1.5, 2.0))
    return grid


RATES = (1e-3, 0.1, 0.35, 0.6026076, 1.0, 1.5, 2.0)


def bounds_grid_rates() -> tuple[float, ...]:
    """The 13 grid rates 1e-3 * 1.5**i, i = 6..18, that bracket the shoulders of k = 2..150."""
    grid = [1e-3]
    for _ in range(18):
        grid.append(grid[-1] * 1.5)
    return tuple(grid[6:])


BOUNDS_GRID_RATES = bounds_grid_rates()


class TestKTermKernel:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 20, 75, 150])
    def test_weight_value_bit_identical_to_indexed_loop(self, k):
        # weight_value takes the closed form at index k; the kernel's own
        # entry there stays bit-identical to the indexed loop
        for lam in RATES:
            assert _kterm_weights(k, lam, k)[k] == kterm_reference(k, lam, k)[k]

    @pytest.mark.parametrize("k", [2, 3, 7, 20, 75, 150])
    def test_shoulder_pair_bit_identical_to_indexed_loop(self, k):
        # shoulder_lambda's gap reads the entries k+1 and k+2 of this table
        for lam in RATES:
            assert tuple(_kterm_weights(k, lam, k + 2)) == kterm_reference(k, lam, k + 2)

    @pytest.mark.parametrize(
        "k, lam, n_max", [(1, 800.0, 470), (2, 0.5, 40), (7, 1.5, 90), (75, 0.1, 200)]
    )
    def test_one_call_in_pieces_and_entry_by_entry_give_the_indexed_loop(
        self, k, lam, n_max
    ):
        # at (1, 800.0) the first inf is w_459: the kernel fills the rest, and
        # an entry grown on a table that ends in inf is inf
        want = list(kterm_reference(k, lam, n_max))
        assert want.index(math.inf) == 459 if lam == 800.0 else math.inf not in want
        assert _extend_kp([1.0], k, lam, n_max) == want
        w = _extend_kp([1.0], k, lam, n_max // 3)
        assert _extend_kp(w, k, lam, n_max) is w and w == want
        w = [1.0]
        for n in range(1, n_max + 1):
            assert _extend_kp(w, k, lam, n) is w and len(w) == n + 1
        assert w == want

    def test_weight_past_the_float_range_is_inf(self):
        # 800**459/459! is the first k = 1 weight beyond the float range
        assert math.isfinite(weight_value(1, 458, 800.0))
        assert weight_value(1, 459, 800.0) == weight_value(1, 470, 800.0) == math.inf

    def test_weight_at_index_zero_is_one(self):
        assert weight_value(2, 0, 0.5) == 1.0

    @pytest.mark.parametrize("n", [-1, -3, True])
    def test_negative_index_is_rejected(self, n):
        with pytest.raises(ValueError, match="index n"):
            weight_value(2, n, 0.5)


CLOSED_FORM_RATES = (1e-6, 1e-3, 0.1, 0.35, 0.6026076, 1.0, 2.0, 5.0, 12.5, 40.0)


def first_inf_rate(f, lo: float, hi: float) -> float:
    """Smallest float rate in (lo, hi] where f is inf, given f(lo) < inf = f(hi)."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if f(mid) == math.inf else (mid, hi)
    return hi


class TestClosedFormWeight:
    """weight_value at 1 <= n <= k, where it sums C(n-1, j-1) lam^j / j!."""

    @pytest.mark.parametrize("k", [*range(1, 61), 75, 100, 150, 200])
    def test_within_16_ulps_of_the_exact_path(self, k):
        for lam in CLOSED_FORM_RATES:
            exact = build_table_km(Params(k, lam), k).values
            for n in range(1, k + 1):
                got = weight_value(k, n, lam)
                assert abs(got - exact[n]) <= 16 * math.ulp(exact[n]), (n, lam)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 20, 60])
    def test_exact_closed_form_sign_is_the_kterm_integers(self, k):
        # tests/exact.py's sign of w_n - c on the binomial closed form, which
        # certifies the printed bounds roots, against its sign on the k-term
        # integers, just below, at and just above the float weight
        for lam in CLOSED_FORM_RATES:
            for n in sorted({1, 2, k // 2, k - 1, k} & set(range(1, k + 1))):
                w = Fraction(weight_value(k, n, lam))
                for c in (w * (1 - Fraction(1, 10**12)), w, w * (1 + Fraction(1, 10**12))):
                    assert prefix_weight_sign(n, lam, c) == weight_sign(k, n, lam, c), (n, lam)

    @pytest.mark.parametrize("k", [100, 200, 400])
    def test_overflows_where_the_kernel_does(self, k):
        def kernel(lam):
            return _kterm_weights(k, lam, k)[k]

        edge = first_inf_rate(kernel, 1.0, 1e5)
        assert math.isfinite(weight_value(k, k, math.nextafter(edge, 0.0)))
        assert weight_value(k, k, edge) == math.inf
        for step in range(-50, 51):
            lam = edge * (1.0 + step * 1e-14)
            assert (weight_value(k, k, lam) == math.inf) == (kernel(lam) == math.inf)

    @given(
        st.integers(1, 60).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
        st.floats(1e-6, 40.0),
        st.floats(1e-6, 40.0) | st.just(None),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_decreasing_in_the_rate(self, kn, a, b):
        # b = None compares a with the next float up, where rounding decides
        k, n = kn
        lo, hi = (a, math.nextafter(a, math.inf)) if b is None else sorted((a, b))
        assert weight_value(k, n, lo) <= weight_value(k, n, hi)


# ROADMAP item 2: below c = 1 the residual stop returns roots wrong in their
# 12th digit or earlier, and at large n the linear bracket from 0 runs into
# the iteration cap, at every level
ROOT_WRONG = {
    (2, 2, 1e-12), (2, 2, 1e-3), (2, 3, 1e-12), (2, 3, 1e-3), (2, 4, 1e-12),
    (2, 4, 1e-3), (2, 50, 1e-12), (2, 200, 1e-12), (3, 3, 1e-12), (3, 4, 1e-12),
    (3, 6, 1e-12), (3, 50, 1e-12), (5, 5, 1e-12), (5, 6, 1e-12), (5, 6, 1e-3),
    (5, 10, 1e-12), (5, 50, 1e-12), (5, 200, 1e-12),
}
ROOT_UNSOLVED = {(2, 500), (3, 200), (3, 500), (5, 500)}


def sweep_param(k: int, n: int, c: float):
    """(k, n, c) as a test parameter, a strict known failure when listed above."""
    if (k, n) in ROOT_UNSOLVED:
        reason = "ROADMAP item 2: the solve hits its iteration cap"
        mark = pytest.mark.xfail(raises=RuntimeError, reason=reason)
    elif (k, n, c) in ROOT_WRONG:
        reason = "ROADMAP item 2: the residual stop leaves the root wrong"
        mark = pytest.mark.xfail(reason=reason)
    else:
        return (k, n, c)
    return pytest.param(k, n, c, marks=mark)


class TestIllinois:
    """The one stop rule: |value| <= slack, or 4 ulps of max(floor, x)."""

    @staticmethod
    def square_minus(a: float, slack: float):
        return lambda x: (x * x - a, slack)

    def test_infinite_slack_returns_the_first_secant_iterate(self):
        f = self.square_minus(2.0, math.inf)
        assert _illinois(f, 1.0, -1.0, 2.0, 2.0, 1.0) == (4 / 3, 1)

    def test_zero_slack_stops_on_the_bracket_width(self):
        root, _ = _illinois(self.square_minus(2.0, 0.0), 1.0, -1.0, 2.0, 2.0, 1.0)
        assert abs(root - math.sqrt(2.0)) <= 4 * math.ulp(math.sqrt(2.0))

    def test_floor_sets_the_width_of_a_tiny_root(self):
        # floor 0 stops within 4 ulps of the root itself; floor 1 stops once
        # the bracket is 4 ulps of 1.0 wide, which is 1.4% of a root at 1e-20
        f = self.square_minus(1e-40, 0.0)
        exact, _ = _illinois(f, 0.0, -1e-40, 1.0, 1.0, 0.0)
        assert abs(exact - 1e-20) <= 4 * math.ulp(1e-20)
        coarse, _ = _illinois(f, 0.0, -1e-40, 1.0, 1.0, 1.0)
        assert abs(coarse - 1e-20) <= 4 * math.ulp(1.0)
        assert abs(coarse - 1e-20) > 1e-2 * 1e-20


class TestSolveWeightEquals:
    def test_quadratic_level_one(self):
        r = solve_weight_equals(2, 2, 1.0)
        assert abs(r.root - (math.sqrt(3) - 1)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_quadratic_level_two_independent_of_order(self, k):
        r = solve_weight_equals(k, 2, 2.0)
        assert abs(r.root - (math.sqrt(5) - 1)) <= 1e-12

    def test_cubic_root_against_exact_polynomial(self):
        r = solve_weight_equals(3, 3, 1.0)
        poly = weight_polynomial(3, 3)
        assert poly.coeffs == {1: Fraction(1), 2: Fraction(1), 3: Fraction(1, 6)}
        residual = poly.evaluate(Fraction(r.root)) - 1
        assert abs(float(residual)) <= 1e-12

    def test_result_invariants(self):
        r = solve_weight_equals(4, 7, 3.5)
        assert r.bracket_low == 0.0 < r.root <= r.bracket_high
        assert abs(weight_value(4, 7, r.root) - 3.5) <= r.tol * max(1.0, 3.5)
        assert r.root <= (3.5 * math.factorial(7)) ** (1 / 7) * (1 + 1e-9)
        assert r.iterations >= 1

    def test_result_pickles_and_refuses_assignment(self):
        r = solve_weight_equals(3, 3, 1.0)
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is type(r) and back == r
        with pytest.raises(AttributeError):
            r.root = 0.5

    def test_divisible_index_bound_holds(self):
        r = solve_weight_equals(3, 6, 2.0)
        assert r.root <= (2.0 * math.factorial(2)) ** (3 / 6) * (1 + 1e-9)

    def test_monotone_across_bracket(self):
        # ten interior samples confirm the crossing is unique
        r = solve_weight_equals(5, 5, 1.0)
        samples = [
            weight_value(5, 5, r.bracket_high * i / 11.0) for i in range(1, 11)
        ]
        assert all(a < b for a, b in zip(samples, samples[1:]))

    @pytest.mark.parametrize(
        "k, n, c",
        [
            sweep_param(k, n, c)
            for k in (2, 3, 5)
            for n in (k, k + 1, 2 * k, 50, 200, 500)
            for c in (1e-12, 1e-3, 0.5, 1.0, 2.0, 1e3)
        ],
    )
    def test_printed_root_brackets_the_level(self, k, n, c):
        # the printed root d, widened by half a unit h in its 12th digit,
        # brackets the level: w_n rises strictly with the rate
        interval = printed_interval(format(solve_weight_equals(k, n, c).root, ".12g"))
        below, above = (weight_sign(k, n, x, c) for x in interval)
        assert below < 0 < above

    @pytest.mark.parametrize(
        "k, n, c",
        [
            (0, 2, 1.0), (2, 0, 1.0), (2, 2, 0.0), (2, 2, -1.0), (2, 2, math.nan),
            (True, 2, 1.0), (2, True, 1.0),
        ],
    )
    def test_validation(self, k, n, c):
        with pytest.raises(ValueError):
            solve_weight_equals(k, n, c)
        with pytest.raises(ValueError):
            root_upper_bound(k, n, c)

    @pytest.mark.parametrize("k, n, c", [(2, 2, 5e-324), (2, 2, 1e-310), (3, 1, 2e-308)])
    def test_root_below_the_smallest_normal_is_refused(self, k, n, c):
        with pytest.raises(ArithmeticError, match="smallest normal float"):
            solve_weight_equals(k, n, c)

    @pytest.mark.parametrize("k, n, c", [(2, 2, 2.5e-308), (1, 3, 5e-324), (2, 5, 1e-310)])
    def test_tiny_level_with_a_normal_root_is_solved(self, k, n, c):
        # only a root at or below sys.float_info.min is refused; these roots
        # are not certified: below c = 1 the residual stop can return half the
        # root (1.25e-308 for 2.5e-308 here, ROADMAP item 2)
        res = solve_weight_equals(k, n, c)
        assert 0.0 < res.root <= res.bracket_high
        assert weight_value(k, n, sys.float_info.min) < c

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # an infinite tol once stopped the solver at its first secant step
        solvers = [
            lambda: solve_weight_equals(3, 3, 1.0, tol=tol),
            lambda: shoulder_lambda(3, tol=tol),
            lambda: bounds_record(2, tol=tol),
        ]
        for solve in solvers:
            with pytest.raises(ValueError, match="tol must be > 0 and finite"):
                solve()


class TestClosedFormRootN2:
    @pytest.mark.parametrize(
        "c, expected",
        [(1.0, math.sqrt(3) - 1), (2.0, math.sqrt(5) - 1), (0.0, 0.0)],
    )
    def test_values(self, c, expected):
        assert closed_form_root_n2(c) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("c", [-1.0, math.inf, math.nan])
    def test_rejects_a_level_outside_the_closed_half_line(self, c):
        with pytest.raises(ValueError, match="level c must be >= 0 and finite"):
            closed_form_root_n2(c)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_matches_solver(self, c, k):
        assert abs(solve_weight_equals(k, 2, c).root - closed_form_root_n2(c)) <= 1e-12

    @given(st.floats(0.01, 50.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_satisfies_the_quadratic(self, c):
        r = closed_form_root_n2(c)
        assert abs(0.5 * r * r + r - c) <= 1e-12 * max(1.0, c)


class TestRootUpperBound:
    def test_cubic_case_uses_quadratic_truncation(self):
        assert root_upper_bound(3, 3, 1.0) == pytest.approx(2 / (math.sqrt(5) + 1), rel=1e-15)

    def test_divisible_index_uses_lowest_term(self):
        assert root_upper_bound(2, 4, 1.0) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_level_two_at_index_k(self):
        assert root_upper_bound(5, 5, 2.0) == pytest.approx(4 / (math.sqrt(17) + 1), rel=1e-15)

    def test_order_one_bound_is_exact_root(self):
        assert root_upper_bound(1, 1, 0.7) == pytest.approx(0.7, rel=1e-15)
        assert solve_weight_equals(1, 1, 0.7).root == pytest.approx(0.7, abs=1e-13)

    def test_large_index_stays_finite(self):
        # log-domain evaluation; 500! would overflow a float
        b = root_upper_bound(3, 500, 1.0)
        assert math.isfinite(b) and b > 0


class TestRiseThreshold:
    def test_order_two_closed_form(self):
        assert rise_threshold(2) == pytest.approx((math.sqrt(33) - 3) / 2, rel=1e-15)

    def test_limit_is_never_crossed(self):
        for k in (2, 10, 100, 10_000):
            assert SQRT5_MINUS_1 < rise_threshold(k) <= (math.sqrt(33) - 3) / 2

    def test_strictly_decreasing(self):
        vals = [rise_threshold(k) for k in range(2, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert rise_threshold(100) > rise_threshold(99) - 1e-5  # gentle near the tail

    def test_needs_order_two(self):
        with pytest.raises(ValueError):
            rise_threshold(1)


class TestMonotoneTailBound:
    def test_order_two_value(self):
        # min(sqrt(5)-1, 2/16)
        assert monotone_tail_bound(2) == pytest.approx(0.125, rel=1e-12)

    def test_order_three_factorial_term_wins(self):
        t3 = solve_weight_equals(3, 3, 2.0).root
        assert t3 > 6 / 216
        assert monotone_tail_bound(3) == pytest.approx(6 / 216, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5, 20, 100, 300, 442])
    def test_never_exceeds_level_two_bound(self, k):
        # the factorial term alone is the bound: it lies below root2
        tail = monotone_tail_bound(k)
        assert 0.0 < tail < solve_weight_equals(k, k, 2.0).root
        assert tail <= 4 / (math.sqrt(4 * k - 3) + 1)

    def test_underflows_to_zero_from_order_443(self):
        assert monotone_tail_bound(443) == 0.0


class TestShoulder:
    def test_order_two_matches_exact_quadratic(self):
        # from the exact polynomials at indices 3 and 4, the equal-pair rate
        # solves lam**2/24 + lam/3 - 1/2 = 0, i.e. lam = 2*sqrt(7) - 4
        p3 = weight_polynomial(2, 3)
        p4 = weight_polynomial(2, 4)
        lam = 2 * math.sqrt(7) - 4
        assert abs(shoulder_lambda(2) - lam) <= 1e-12
        gap = p4.evaluate(Fraction(lam)) - p3.evaluate(Fraction(lam))
        assert abs(float(gap)) <= 1e-13

    def test_order_four_value(self):
        assert shoulder_lambda(4) == pytest.approx(0.6026077873316831, abs=1e-10)

    def test_gap_sign_flips_across_the_root(self):
        k = 4
        lam = shoulder_lambda(k)
        below = weight_value(k, k + 1, lam * 0.99) - weight_value(k, k + 2, lam * 0.99)
        above = weight_value(k, k + 1, lam * 1.01) - weight_value(k, k + 2, lam * 1.01)
        assert below > 0 > above

    @pytest.mark.parametrize("bias", [0.4, -0.4])
    def test_disagreeing_closed_form_is_named(self, bias, monkeypatch):
        # a shifted closed form puts the bracket where the k-term gap is
        # negative at both ends (+0.4) or non-negative at both ends (-0.4)
        exact = roots._gap_factor
        monkeypatch.setattr(roots, "_gap_factor", lambda k, lam: exact(k, lam) + bias)
        with pytest.raises(RuntimeError, match="closed form and the k-term gap disagree"):
            shoulder_lambda(4)

    @pytest.mark.parametrize("tol", [1e-13, 1e-6])
    def test_identical_to_the_linear_walk_with_fewer_tables(self, tol, monkeypatch):
        # the closed form only locates the bracket; the walk's bracket and
        # root are kept, and the bracket ends read the shared grid prefix, so
        # the Illinois iterates build the only k-term tables, one each
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _kterm_weights(*args)

        monkeypatch.setattr(roots, "_kterm_weights", counted)
        steps = 0
        for k in range(2, 151):
            ref, evals = shoulder_reference(k, tol)
            assert shoulder_lambda(k, tol) == ref, k
            steps += evals
        assert calls == steps

    @pytest.mark.parametrize("lam", BOUNDS_GRID_RATES + (1e10,))
    def test_grid_prefix_tables_are_the_kernels(self, lam, monkeypatch):
        # 1e10 is no grid rate: its prefix overflows at index 35, so orders
        # 33 and 34 overflow in a window step and orders from 35 on read the
        # prefix's inf fill
        orders = range(2, 151)
        want = {k: list(kterm_reference(k, lam, k + 2)) for k in orders}
        monkeypatch.setattr(roots, "_grid_prefix", {})
        for k in orders:  # ascending: each order grows the prefix by one entry
            assert roots._grid_weights(k, lam) == want[k], k
            assert roots._grid_prefix[lam] == want[k][: k + 1], k
        roots._grid_prefix.clear()
        for k in reversed(orders):  # descending: the first order grows it all
            assert roots._grid_weights(k, lam) == want[k], k
        for k in orders:  # cold: a prefix of its own for each order
            roots._grid_prefix.clear()
            assert roots._grid_weights(k, lam) == want[k], k
        assert (math.inf in roots._grid_prefix[lam]) == (lam == 1e10)
        assert want[150].index(math.inf) == 35 if lam == 1e10 else math.inf not in want[150]

    def test_cache_state_cannot_change_an_answer(self, monkeypatch):
        monkeypatch.setattr(roots, "_grid_prefix", {})
        orders = range(2, 151)
        ascending = [shoulder_lambda(k) for k in orders]
        assert sorted(roots._grid_prefix) == list(BOUNDS_GRID_RATES)
        roots._grid_prefix.clear()
        descending = [shoulder_lambda(k) for k in reversed(orders)][::-1]
        cold = []
        for k in orders:
            roots._grid_prefix.clear()
            cold.append(shoulder_lambda(k))
        assert ascending == descending == cold

    def test_a_published_prefix_is_never_grown_in_place(self, monkeypatch):
        # a solve that grows the prefix grows a copy and publishes it, so a
        # prefix another thread is reading cannot change under it; orders 40
        # and 41 read the same two grid rates
        monkeypatch.setattr(roots, "_grid_prefix", {})
        shoulder_lambda(40)
        kept = dict(roots._grid_prefix)
        copies = {lam: p[:] for lam, p in kept.items()}
        shoulder_lambda(41)
        assert kept == copies and sorted(roots._grid_prefix) == sorted(kept)
        for lam, p in roots._grid_prefix.items():
            assert p == _extend_kp([1.0], 41, lam, 41), lam

    @pytest.mark.parametrize("k", [200, 300, 400])
    def test_identical_to_the_linear_walk_at_large_orders(self, k):
        assert shoulder_lambda(k) == shoulder_reference(k)[0]

    def test_bracket_reaches_below_the_grid_start(self):
        # at k = 2300 the gap is already non-negative at 1e-3, where the
        # linear walk gives up; the grid reaches below it instead, and the
        # k-term gap changes sign at the root
        k = 2300
        root = shoulder_lambda(k)
        below, above = (_kterm_weights(k, root * f, k + 2) for f in (1 - 1e-9, 1 + 1e-9))
        assert root < 1e-3
        assert below[k + 2] - below[k + 1] < 0.0 < above[k + 2] - above[k + 1]

    def test_high_precision_cross_check(self):
        # the printed value d, widened by half a unit h in its 12th digit,
        # brackets the crossing of the oracle's exact w_6 - w_5 at k = 4
        low, high = printed_interval(format(shoulder_lambda(4), ".12g"))
        p5, p6 = weight_polynomial(4, 5), weight_polynomial(4, 6)
        assert p6.evaluate(low) - p5.evaluate(low) < 0 < p6.evaluate(high) - p5.evaluate(high)


class TestShoulderGapClosedForm:
    """w(k+2) - w(k+1) = lam**2 (-1/2 + sum_{j=3..k+2} C(k, j-2) lam^(j-2) / j!)."""

    @pytest.mark.parametrize("k", range(2, 8))
    def test_exact_coefficients(self, k):
        p1 = weight_polynomial(k, k + 1).coeffs
        p2 = weight_polynomial(k, k + 2).coeffs
        gap = {d: p2.get(d, 0) - p1.get(d, 0) for d in p1.keys() | p2.keys()}
        gap = {d: c for d, c in gap.items() if c != 0}
        want = {2: Fraction(-1, 2)}
        want.update(
            {j: Fraction(math.comb(k, j - 2), math.factorial(j)) for j in range(3, k + 3)}
        )
        assert gap == want

    @pytest.mark.parametrize("k", range(2, 151))
    def test_matches_the_kterm_gap_on_the_grid(self, k):
        for lam in shoulder_grid():
            w = _kterm_weights(k, lam, k + 2)
            gap = w[k + 2] - w[k + 1]
            closed = _gap_factor(k, lam) * lam * lam
            assert abs(closed - gap) <= 1e-14 * w[k + 1], lam
            assert (closed >= 0.0) == (gap >= 0.0), lam


class TestBoundsRecord:
    def test_order_two_constants(self):
        rec = bounds_record(2)
        assert rec.root1 == pytest.approx(math.sqrt(3) - 1, abs=1e-12)
        assert rec.root1_upper == pytest.approx(math.sqrt(3) - 1, rel=1e-15)
        assert rec.root2 == pytest.approx(math.sqrt(5) - 1, abs=1e-12)
        assert rec.rise_threshold == pytest.approx((math.sqrt(33) - 3) / 2, rel=1e-15)
        assert rec.tail_bound == pytest.approx(0.125, rel=1e-12)
        assert rec.shoulder == pytest.approx(2 * math.sqrt(7) - 4, abs=1e-12)

    def test_order_one_leaves_undefined_fields_empty(self):
        rec = bounds_record(1)
        assert rec.root1 == pytest.approx(1.0, abs=1e-12)
        assert rec.root2 == pytest.approx(2.0, abs=1e-12)
        assert rec.rise_threshold is None
        assert rec.tail_bound is None
        assert rec.shoulder is None

    @pytest.mark.parametrize("k", [1, 2, 3, 25])
    def test_status_is_ok_and_the_last_field(self, k):
        rec = bounds_record(k, with_shoulder=False)
        assert rec.status == "ok"
        assert rec._fields[-1] == "status"

    def test_status_names_each_failing_bound(self):
        rec = bounds_record(3, with_shoulder=False)
        fields = rec[:7]
        assert roots._status(*fields) == "ok"
        # root1 strictly below its bound past k = 2, within the slack up to 2
        assert roots._status(3, rec.root1_upper, *fields[2:]) == "root1_bound"
        for k in (1, 2):
            low = bounds_record(k, with_shoulder=False)[:7]
            up = low[2]
            assert roots._status(k, up + 5e-10, *low[2:]) == "ok"
            assert roots._status(k, up + 2e-9, *low[2:]) == "root1_bound"
        k, root1, up1, root2, up2, rise, tail = fields
        assert roots._status(k, root1, up1, 2 * up2, up2, rise, tail) == "root2_bound"
        assert roots._status(k, root1, up1, root2, up2, 1.0, tail) == "rise_range"
        assert roots._status(k, root1, up1, root2, up2, rise, 2 * root2) == "tail_bound"
        assert roots._status(k, up1, up1, 2 * up2, up2, 1.0, 4 * up2) == (
            "root1_bound;root2_bound;rise_range;tail_bound"
        )

    def test_record_status_is_the_audit_of_its_fields(self):
        for k in range(1, 151):
            rec = bounds_record(k, with_shoulder=False)
            assert rec.status == roots._status(*rec[:7])

    @pytest.mark.parametrize("k", [1, 3])
    def test_record_pickles_and_refuses_assignment(self, k):
        rec = bounds_record(k, with_shoulder=False)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and back == rec
        with pytest.raises(AttributeError):
            rec.status = "ok"

    @pytest.mark.parametrize("k", [3, 7, 25])
    def test_strict_bound_above_order_two(self, k):
        rec = bounds_record(k, with_shoulder=False)
        assert 0 < rec.root1 < rec.root1_upper < 1
        assert rec.root2 <= rec.root2_upper
