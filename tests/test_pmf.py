"""Tests for the recurrence tables, normalization, and difference identities."""

import hashlib
import math
import pickle
import random
import re
import sys
from fractions import Fraction
from itertools import accumulate
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_order_k import pmf, structure
from poisson_order_k.oracle import weight_exact
from poisson_order_k.roots import monotone_tail_bound, shoulder_lambda
from poisson_order_k.pmf import (
    DiffIdentityReport,
    Params,
    PmfTable,
    WeightUnderflowError,
    _check_real,
    build_adaptive_table,
    build_table,
    build_table_km,
    diff_forward,
    diff_km,
    normalize,
)
import exact
from scan_tables import geometric_rate, kterm_reference, loop_steps, loop_table, scan_points

FLOAT_MIN = sys.float_info.min


def at(table: PmfTable, n: int) -> float:
    """Weight at index n of a table; negative indices contribute exactly 0."""
    if n < 0:
        return 0.0
    if n > table.n_max:
        raise IndexError(f"index {n} beyond table n_max={table.n_max}")
    return table.values[n]


def rel_gap(a: float, b: float) -> float:
    m = max(a, b)
    return abs(a - b) / m if m else 0.0


def assert_km_is_exact(t: PmfTable):
    """build_table_km's table is the exact k-term one, correctly rounded: a
    different formula from its four-term one, so they agree bit for bit."""
    values = exact.weights(t.params.k, t.params.lam, t.n_max)
    assert t.values == values
    assert t.mass_captured == math.exp(-t.params.k * t.params.lam) * math.fsum(values)


def diff_forward_reference(table: PmfTable, n: int) -> DiffIdentityReport:
    """diff_forward as first written, through ``at`` and ``n_max``; the shipped
    form indexes the values directly and must give the same report."""
    k, lam = table.params.k, table.params.lam
    if not 1 <= n <= table.n_max - 1:
        raise IndexError(f"need 1 <= n <= {table.n_max - 1}, got {n}")
    lhs = table.values[n + 1] - table.values[n]
    s = 0.0
    for j in range(min(n, k - 1) + 1):
        s += (n - j) * table.values[n - j]
    rhs = lam * s / (n * (n + 1)) - k / n * lam * at(table, n - k)
    return DiffIdentityReport(n=n, lhs=lhs, rhs=rhs, abs_gap=abs(lhs - rhs))


def diff_km_reference(table: PmfTable, n: int) -> DiffIdentityReport:
    """diff_km as first written, through ``at`` and ``n_max``."""
    k, lam = table.params.k, table.params.lam
    if not 2 <= n <= table.n_max:
        raise IndexError(f"need 2 <= n <= {table.n_max}, got {n}")
    v = table.values
    lhs = v[n] - v[n - 1]
    rhs = (
        lam / n * v[n - 1]
        + (n - 2) / n * (v[n - 1] - v[n - 2])
        - (k + 1) / n * lam * at(table, n - k - 1)
        + k / n * lam * at(table, n - k - 2)
    )
    return DiffIdentityReport(n=n, lhs=lhs, rhs=rhs, abs_gap=abs(lhs - rhs))


class TestParams:
    def test_kappa_and_mean(self):
        p = Params(4, 0.5)
        assert p.kappa == 10
        assert p.mean == 5.0

    @pytest.mark.parametrize("k, lam", [(0, 1.0), (-2, 1.0), (2, 0.0), (2, -1.0), (2, math.inf)])
    def test_rejects_bad_parameters(self, k, lam):
        with pytest.raises(ValueError):
            Params(k, lam)

    def test_every_construction_path_validates(self):
        p = Params(2, 1)
        assert type(p.lam) is float
        assert p._replace(lam=3) == Params(2, 3.0)
        with pytest.raises(ValueError):
            p._replace(lam=-1.0)
        with pytest.raises(ValueError):
            Params._make((0, 1.0))
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is Params and back == p
        with pytest.raises(AttributeError):
            p.lam = 2.0


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_open_half_line(self, value):
        with pytest.raises(ValueError, match=r"^x must be > 0 and finite, got "):
            _check_real("x", value, 0.0)

    @pytest.mark.parametrize("value", [-1e-300, math.inf, -math.inf, math.nan])
    def test_closed_half_line(self, value):
        with pytest.raises(ValueError, match=r"^x must be >= 0 and finite, got "):
            _check_real("x", value, 0.0, inclusive=True)

    @pytest.mark.parametrize("value, inclusive", [(0.0, False), (1.0, True), (math.nan, True)])
    def test_interval(self, value, inclusive):
        want = r"\[0, 1\)" if inclusive else r"\(0, 1\)"
        with pytest.raises(ValueError, match=rf"^x must be in {want}, got "):
            _check_real("x", value, 0.0, 1.0, inclusive=inclusive)

    def test_accepts_the_interior_and_exact_rationals(self):
        _check_real("x", 0.0, 0.0, inclusive=True)
        _check_real("x", 5e-324, 0.0)
        _check_real("x", 1.7e308, 0.0)
        _check_real("x", Fraction(1, 3), 0.0, 1.0)
        _check_real("x", Fraction(10**400), 0.0)  # beyond float, still finite


class TestBuildTable:
    def test_order_one_is_standard_poisson(self):
        t = build_table(Params(1, 1.0), 3)
        assert t.values == (1.0, 1.0, 0.5, 1 / 6)

    def test_quadratic_weight(self):
        assert build_table(Params(2, 1.0), 2).values[2] == 1.5

    def test_matches_exact_oracle(self):
        # independent evaluation of the defining tuple sum at the same rate
        t = build_table(Params(3, 0.5), 9)
        for n, got in enumerate(t.values):
            want = float(weight_exact(3, n, Fraction(1, 2)))
            assert rel_gap(got, want) <= 1e-12

    def test_seed_and_first_weight_are_exact(self):
        for k in (1, 2, 5):
            for lam in (0.01, 0.3, 7.25):
                t = build_table(Params(k, lam), 3)
                assert t.values[0] == 1.0
                assert abs(t.values[1] - lam) <= 1e-14 * lam

    def test_values_all_positive(self):
        t = build_table(Params(4, 2.5), 60)
        assert all(v > 0.0 for v in t.values)

    def test_initial_strict_increase_for_k_at_least_two(self):
        for k in (2, 3, 6):
            for lam in (0.02, 1.0, 9.0):
                v = build_table(Params(k, lam), k).values
                assert all(v[n] < v[n + 1] for n in range(1, k))

    def test_overflow_reports_first_offending_index(self):
        # lam * s passes the float range before (lam * s) / n does; the first
        # weight that is itself beyond the range is 800**459/459!
        with pytest.raises(OverflowError, match=r"index n=459 "):
            build_table(Params(1, 800.0), 900)

    def test_weights_next_to_the_float_limit_stay_accurate(self):
        # from n=448 on lam * s overflows although the weight is finite
        a = build_table(Params(1, 800.0), 457).values
        b = build_table_km(Params(1, 800.0), 457).values
        assert a[448] > 1e305
        assert all(rel_gap(x, y) <= 1e-14 for x, y in zip(a, b))

    @pytest.mark.parametrize("build", [build_table, build_table_km])
    def test_sum_overflow_is_named(self, build):
        # every entry up to 458 is finite, their sum is not
        with pytest.raises(OverflowError, match=r"k=1, lam=800.0, n_max=458"):
            build(Params(1, 800.0), 458)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_bit_identical_to_indexed_loop(self, k):
        for lam in (0.05, 0.3, 0.6026076, 1.0, 4.0 / 3.0, 3.0, 12.5, 50.0):
            t = build_table(Params(k, lam), 150)
            assert t.values == kterm_reference(k, lam, 150)

    @given(
        st.integers(1, 60),
        st.floats(-6.0, math.log10(50.0)).map(lambda e: 10.0**e),
        st.integers(0, 120),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_across_orders_and_binades(self, k, lam, n_max):
        t = build_table(Params(k, lam), n_max)
        assert t.values == kterm_reference(k, lam, n_max)

    def test_rejects_negative_n_max(self):
        with pytest.raises(ValueError):
            build_table(Params(2, 1.0), -1)


class TestBuildTableKm:
    def test_quadratic_weight(self):
        assert build_table_km(Params(2, 1.0), 2).values[2] == 1.5

    def test_order_one_power_value(self):
        # 2**4/4! = 2/3
        t = build_table_km(Params(1, 2.0), 4)
        assert rel_gap(t.values[4], 2 / 3) <= 1e-15

    def test_agrees_with_k_term_recurrence(self):
        a = build_table(Params(4, 0.6026076), 12).values
        b = build_table_km(Params(4, 0.6026076), 12).values
        assert all(rel_gap(x, y) <= 1e-10 for x, y in zip(a, b))

    def test_agrees_deep_into_the_tail(self):
        # mixed-sign recurrence stays faithful where values shrink fast;
        # below the normal-float range only absolute agreement is possible
        a = build_table(Params(2, 0.1), 150).values
        b = build_table_km(Params(2, 0.1), 150).values
        for x, y in zip(a, b):
            if max(x, y) >= FLOAT_MIN:
                assert rel_gap(x, y) <= 1e-12
            else:
                assert abs(x - y) < FLOAT_MIN

    def test_overflow_reports_first_offending_index(self):
        # 800**459/459! is the first weight beyond the float range
        with pytest.raises(OverflowError, match=r"index n=459 "):
            build_table_km(Params(1, 800.0), 900)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bit_identical_on_the_verify_grid(self, k):
        # the whole grid of the verify recurrence-cross-check suite
        for lam in (0.1, 0.6026076, 4.0 / 3.0, 3.0):
            assert_km_is_exact(build_table_km(Params(k, lam), 200))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_bit_identical_at_integer_rates(self, k):
        # the rate's denominator is 2**0, so every shift is by zero bits
        for lam in (1.0, 3.0, 50.0):
            assert_km_is_exact(build_table_km(Params(k, lam), 120))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_bit_identical_where_one_lagged_term_enters(self, k):
        # index k+1 reaches back to W_0 but not yet to W_{-1}
        for lam in (1e-6, 0.1, 0.6026076, 1.0, 4.0 / 3.0, 50.0):
            assert_km_is_exact(build_table_km(Params(k, lam), k + 1))

    @given(
        st.integers(1, 12),
        st.floats(-6.0, math.log10(50.0)).map(lambda e: 10.0**e),
        st.integers(0, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_across_binades(self, k, lam, n_max):
        assert_km_is_exact(build_table_km(Params(k, lam), n_max))

    @given(
        st.integers(1, 6),
        st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_cross_recurrence_property(self, k, lam):
        a = build_table(Params(k, lam), 40).values
        b = build_table_km(Params(k, lam), 40).values
        assert all(rel_gap(x, y) <= 1e-10 for x, y in zip(a, b))


def quotients(draw_x, f: int, s: int):
    """(x / (f << s), pmf._quotient(x, f, s)) as float hex strings, or the
    exception type that each raised."""
    out = []
    for divide in (lambda: draw_x / (f << s), lambda: pmf._quotient(draw_x, f, s)):
        try:
            out.append(divide().hex())
        except OverflowError:
            out.append(OverflowError)
    return out


# the binary exponent of a quotient: the whole float range past both ends,
# and close around the smallest normal, 2**-1022, where ldexp would round again
EXPONENTS = st.one_of(st.integers(-1100, 1030), st.integers(-1024, -1020))


class TestQuotient:
    """build_table_km rounds W_n / (n! << (e*n)) from a short quotient; it
    must be CPython's correctly rounded true division, bit for bit."""

    @staticmethod
    def operands(data, exponent):
        # x of bx bits over f of bf bits, shifted so that the quotient lies
        # in (2**(exponent - 1), 2**(exponent + 1))
        # (with every bit below the leading one random: hypothesis's own
        # integers favour round values, which round exactly)
        bx = data.draw(st.integers(1, 3000))
        bf = data.draw(st.integers(1, 1500))
        rng = data.draw(st.randoms(use_true_random=False))
        x = rng.getrandbits(bx) | 1 << (bx - 1)
        f = rng.getrandbits(bf) | 1 << (bf - 1)
        shift = bx - bf - exponent
        if shift < 0:
            x <<= -shift
            shift = 0
        return x, f, shift

    @given(st.data(), EXPONENTS)
    @settings(max_examples=800, deadline=None)
    def test_random_sizes(self, data, exponent):
        want, got = quotients(*self.operands(data, exponent))
        assert got == want

    @given(
        st.integers(1 << 52, (1 << 53) - 1),
        st.integers(-1021, 970),
        st.integers(1, 1 << 200).map(lambda f: 2 * f + 1),
        st.integers(0, 80),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_midpoints_round_to_even(self, mantissa, exponent, f, pad):
        # (2M + 1) * 2**(exponent - 1) lies halfway between two floats, M of
        # either parity; one below and one above it must round away from it
        a = pad + max(exponent, 0) + 60
        x = ((2 * mantissa + 1) * f) << a
        shift = a - exponent + 1
        for bump in (0, -1, 1):
            want, got = quotients(x + bump, f, shift)
            assert got == want
        want = math.ldexp(float(mantissa + (mantissa & 1)), exponent)
        assert quotients(x, f, shift) == [want.hex()] * 2

    @given(
        st.integers(1 << 49, (1 << 52) - 1),
        st.integers(1, 1 << 200).map(lambda f: 2 * f + 1),
        st.integers(0, 80),
    )
    @settings(max_examples=100, deadline=None)
    def test_ties_below_the_smallest_normal(self, g, f, pad):
        # (2g + 1) * 2**-1075 lies halfway between two subnormals; a hair
        # above or below it, a 53-bit float(q) lands on the tie itself, and
        # ldexp's second rounding would go to the even neighbour either way
        a = pad + 60
        x = ((2 * g + 1) * f) << a
        for bump in (0, -1, 1):
            want, got = quotients(x + bump, f, a + 1075)
            assert got == want

    @pytest.mark.parametrize("f", [1, 3, 2**61 - 1, 3**400])
    def test_overflow_edge(self, f):
        # the largest float is (2**53 - 1) * 2**971; halfway to 2**1024
        # rounds to even, up and out of range
        a = 1200
        top = ((2**54 - 1) * f) << a
        shift = a - 970
        assert quotients(top, f, shift) == [OverflowError] * 2
        assert quotients(top - 1, f, shift) == [sys.float_info.max.hex()] * 2
        assert quotients((2**53 - 1) * f << a, f, a - 971) == [sys.float_info.max.hex()] * 2
        assert quotients(f << a, f, a - 1024) == [OverflowError] * 2


class TestNormalize:
    def test_standard_poisson_probabilities(self):
        t = build_table(Params(1, 1.0), 12)
        probs = normalize(t)
        for n, f in enumerate(probs):
            assert rel_gap(f, math.exp(-1) / math.factorial(n)) <= 1e-14

    def test_zero_index_probability(self):
        t = build_table(Params(2, 1.0), 5)
        assert normalize(t)[0] == math.exp(-2)

    def test_sum_matches_mass_captured(self):
        t = loop_table(2, 4 / 3)
        assert abs(math.fsum(normalize(t)) - t.mass_captured) <= 1e-13
        assert 1 - 1e-10 <= t.mass_captured <= 1 + 1e-12


class TestAdaptiveTruncation:
    def test_standard_poisson_unit_rate(self):
        # mass alone is satisfied at 12 (deficit ~6.4e-11), but the value
        # at 12 is ~7.7e-10 > epsilon; the negligible-last-term rule moves
        # the cut to 13, where the value is ~5.9e-11
        assert loop_table(1, 1.0).n_max == 13

    def test_tail_is_past_the_last_peak(self):
        t = loop_table(2, 4 / 3)
        k = t.params.k
        assert t.n_max >= 4
        tail = t.values[-(k + 1):]
        assert all(tail[i] > tail[i + 1] for i in range(k))

    def test_tight_epsilon(self):
        t = loop_table(5, 0.1, 1e-12)
        assert t.mass_captured >= 1 - 1e-12

    def test_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(pmf, "_ADAPTIVE_CAP", 5)
        with pytest.raises(RuntimeError, match="cap of 5"):
            build_adaptive_table(Params(2, 4 / 3), 1e-10)

    def test_rejects_bad_epsilon(self):
        for epsilon in (0.0, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
                build_adaptive_table(Params(2, 1.0), epsilon)

    def test_bit_identical_to_indexed_loop_at_the_mean_k_rate(self):
        # the scan --lambda-rule mean-k grid: rate 2/(k+1), mean equal to k
        for k, lam in scan_points("mean-k"):
            t = loop_table(k, lam)
            assert t.values == kterm_reference(k, lam, t.n_max)

    def test_huge_rate_fails_fast(self):
        with pytest.raises(OverflowError, match="underflow"):
            build_adaptive_table(Params(3, 400.0), 1e-10)

    @pytest.mark.parametrize("k, lam, n", [(2, 1e-200, 3), (300, 1.1e-219, 301)])
    def test_underflowed_weight_stops_at_its_index(self, k, lam, n):
        # w_1..w_k are about lam, but w_{k+1} is about lam**2, which is 0.0;
        # the decreasing run truncation waits for can then never form
        with pytest.raises(WeightUnderflowError, match=rf"index n={n} for k={k}, "):
            build_adaptive_table(Params(k, lam), 1e-10)
        w = build_table(Params(k, lam), n).values
        assert w[n] == 0.0 < w[n - 1]

    @pytest.mark.parametrize(
        "k, eps, stall", [(100, 1e-15, 10_244), (3, 1e-16, 61), (30, 5e-16, 1_452)]
    )
    def test_epsilon_below_the_float_mass_is_named(self, monkeypatch, k, eps, stall):
        # from index `stall` on, the newest weight no longer changes the mass,
        # still below 1 - epsilon; the loop once ran on to the first weight
        # that underflowed to 0.0 (n = 46,079 at k = 100)
        steps = loop_steps(monkeypatch)
        with pytest.raises(ArithmeticError) as info:
            build_adaptive_table(Params(k, 1.0), eps)
        assert steps == [(k, n) for n in range(1, stall + 1)]
        mass = list(accumulate(math.exp(-k) * x for x in build_table(Params(k, 1.0), stall).values))
        assert mass[-1] == mass[-2] < 1.0 - eps
        assert str(info.value) == (
            f"the captured mass stopped growing at {mass[-1]!r} at index n={stall} for k={k}, "
            f"lam=1.0, below 1 - epsilon for epsilon={eps}; "
            "the float mass cannot resolve this epsilon"
        )


def always(table, runs) -> bool:
    return True


always.fast = 0.0  # the band edge of the runs: no pair is clear


def masses(table: PmfTable) -> list[float]:
    """The captured mass at each index, summed as the adaptive builds sum it."""
    scale = math.exp(-table.params.k * table.params.lam)
    got = list(accumulate(scale * x for x in table.values))
    assert got[-1] == table.mass_captured  # the build's own sum, step by step
    return got


def assert_running_is_the_loops(p: Params, mass_share: float = 0.1) -> PmfTable:
    """The running build's table at p, checked to decide as the loop does.

    The same n_max; every entry within a tenth of ``_MARGIN`` of the loop's;
    and the captured mass at every index, where any mass test may be made,
    within ``mass_share`` of its own margin (and at the end within a tenth
    of ``_MARGIN``).
    """
    loop = loop_table(*p)
    t = build_adaptive_table(p, 1e-10, decided=always)
    assert t.n_max == loop.n_max
    assert max(map(rel_gap, t.values, loop.values)) <= pmf._MARGIN / 10
    assert abs(t.mass_captured - loop.mass_captured) <= pmf._MARGIN / 10
    gap = max(map(abs, map(sub, masses(t), masses(loop))))
    assert gap <= pmf._mass_margin(p.k * p.lam) * mass_share
    return t


# SHA-256 of the float.hex entries of two running-sum tables, joined by commas
RUNNING_SHA256 = {
    (50, 2.0 / 51): "bf336142de180c5e03bb5a04f7c7809f115f0fbff27cb5bb693b34e34c31d85b",
    (3, 2.0): "46cbb0f7c70003521dceeb8b35029b0b5ba279cf13210bb24cf750ed4cdd83ed",
}


class TestRunningSums:
    """``build_adaptive_table(decided=...)``: running sums, the loop decides close calls."""

    def test_loop_n_max_and_entries_at_the_mean_k_rate(self):
        # the loop's table is kterm_reference bit for bit (tested above)
        for k, lam in scan_points("mean-k"):
            assert_running_is_the_loops(Params(k, lam))

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13, 21, 34, 55])
    def test_loop_n_max_and_entries_on_a_rate_grid(self, k):
        tol = pmf._MARGIN / 10
        for i in range(9):
            p = Params(k, 0.01 * 600.0 ** (i / 8))  # 0.01 .. 6, geometric
            if p.k * p.lam > 150:
                continue
            t = assert_running_is_the_loops(p)
            assert max(map(rel_gap, t.values, kterm_reference(*p, t.n_max))) <= tol

    @pytest.mark.parametrize("rule, k_max", [(monotone_tail_bound, 200), (shoulder_lambda, 100)])
    def test_loop_n_max_and_entries_at_the_rule_rates(self, rule, k_max):
        for k in range(2, k_max + 1, 3):
            assert_running_is_the_loops(Params(k, rule(k)))

    @pytest.mark.parametrize("jitter", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_loop_n_max_and_entries_on_the_jittered_scan_grid(self, jitter):
        # the scan-grid benchmark's rates, 20 geometric from 0.05 to 3, with
        # both ends moved as far as its seeds move them, at every sixth order
        for k in range(2, 51, 6):
            for i in range(20):
                lam = geometric_rate(0.05 * jitter, 3.0 * jitter, 20, i)
                assert_running_is_the_loops(Params(k, lam))

    @pytest.mark.parametrize("k", [*range(1, 9), 60, 89, 94, 100])
    @pytest.mark.parametrize("k_lam", [300.0, 700.0, 280.0])
    def test_loop_n_max_and_entries_at_small_orders_and_extreme_rates(self, k, k_lam):
        # long tables on few terms, where an entry's gap to the loop sums the
        # gaps of many steps before it, and the orders of the worst gaps
        # measured (see pmf._MARGIN); from k*lam = 280 on the mass margin
        # is _MARGIN itself
        assert_running_is_the_loops(Params(k, k_lam / k))

    @pytest.mark.parametrize(
        "k, lam", [(172, 0.12485215311266808), (195, 0.26808564009247965)]
    )
    def test_loop_decisions_past_the_measured_sets(self, k, lam):
        # k > 100 at k*lam = 21.5 and 52.3, beyond the sets _MARGIN was
        # measured on: the mass gap reaches 0.150 and 0.117 of its margin,
        # more than the tenth the measured sets keep (ROADMAP item 17), and
        # the entry gap 0.029 and 0.046 of _MARGIN
        t = assert_running_is_the_loops(Params(k, lam), mass_share=1.0)
        report = structure.decided_report(t, pmf.DEFAULT_TIE_TOL, pmf.DEFAULT_TAIL_TOL)
        assert report == structure.build_report(loop_table(k, lam))

    def test_loop_decisions_on_a_seeded_sweep(self):
        # 40 points beyond the measured sets, k from 2..200 and k*lam from
        # [0.5, 150], capped at k times the mean, k(k+1)/2 * k*lam <= 1.5e6,
        # to bound the loop's cost; the mass gap at its whole margin, as past
        # the measured sets above (ROADMAP item 17).  Every point is decided,
        # as the loop decides it.
        rng = random.Random(17)
        done = 0
        while done < 40:
            k, k_lam = rng.randint(2, 200), rng.uniform(0.5, 150.0)
            if k * (k + 1) / 2 * k_lam > 1.5e6:
                continue
            done += 1
            t = assert_running_is_the_loops(Params(k, k_lam / k), mass_share=1.0)
            report = structure.decided_report(t, pmf.DEFAULT_TIE_TOL, pmf.DEFAULT_TAIL_TOL)
            assert report == structure.build_report(loop_table(k, k_lam / k)), (k, k_lam)

    @pytest.mark.parametrize(
        "k, lam, epsilon",
        [
            (24, monotone_tail_bound(24), 1e-10),  # float ties inside w_1..w_24
            *[(k, shoulder_lambda(k), 1e-10) for k in (2, 3, 10, 40)],  # w_{k+1} = w_{k+2}
            (2, 1e-160, 1e-10),  # w_2 == w_1 in floats, and w_3 is subnormal
            (46, 0.05, 1e-10),  # the mass ends 6.4e-15 above 1 - epsilon
            # epsilon is the loop's last normalized value, at n = 11; the
            # running sums' value there is a rounding error above it
            (2, 0.2, 4.1950562630990616e-07),
        ],
    )
    def test_close_calls_give_the_loops_table(self, monkeypatch, k, lam, epsilon):
        p = Params(k, lam)
        steps = loop_steps(monkeypatch)
        t = build_adaptive_table(p, epsilon, decided=always)
        assert [n for _, n in steps].count(1) == 1
        assert t == loop_table(k, lam, epsilon)

    def test_clear_calls_build_no_loop_table(self, monkeypatch):
        p = Params(200, 2.0 / 201)
        steps = loop_steps(monkeypatch)
        t = build_adaptive_table(p, 1e-10, decided=always)
        assert steps == []
        assert t.n_max == loop_table(*p).n_max
        assert t != loop_table(*p)  # the running sums' rounding

    @pytest.mark.parametrize(
        "k, lam, n_max",
        [
            (86, 2.0 / 87, 878),  # the mass ends 3.2e-14 above 1 - epsilon
            # 9.0e-14 above, on 10,476 entries: the loop's O(n k) build takes
            # about 2 s there, the running build a few milliseconds
            (4000, 1e-6, 10_475),
        ],
    )
    def test_clear_mass_builds_no_loop_table(self, monkeypatch, k, lam, n_max):
        # n_max is the loop's, from one loop build
        steps = loop_steps(monkeypatch)
        t = build_adaptive_table(Params(k, lam), 1e-10, decided=always)
        assert steps == []
        assert t.n_max == n_max

    def test_refused_weights_give_the_loops_table(self, monkeypatch):
        p = Params(50, 2.0 / 51)
        seen = []

        def refuse(candidate, runs):
            seen.append(candidate)
            return False

        refuse.fast = 0.0
        steps = loop_steps(monkeypatch)
        t = build_adaptive_table(p, 1e-10, decided=refuse)
        assert [n for _, n in steps].count(1) == 1
        assert t == loop_table(*p)
        # the candidate was the running-sum table the loop replaced
        (candidate,) = seen
        assert candidate.params == p and candidate.n_max == t.n_max
        assert candidate == build_adaptive_table(p, 1e-10, decided=always)

    def test_candidate_carries_the_runs_of_its_build(self):
        seen = []

        def decided(candidate, runs):
            seen.append((candidate, runs))
            return True

        p = Params(50, 2.0 / 51)
        decided.fast = structure._fast(1e-9, 1e-12)
        t = build_adaptive_table(p, 1e-10, decided=decided)
        ((candidate, runs),) = seen
        assert runs == structure._runs(candidate.values, decided.fast)
        assert len(runs) <= 3  # a clear rise, then a clear fall
        # what the caller gets is the candidate, a plain table
        assert type(t) is PmfTable and t is candidate
        # an edge past (1 - m)/(1 + m) is lowered to it: a clear step must
        # clear the build's own near-tie test, whatever the caller asks
        m = pmf._MARGIN
        decided.fast = 1.0 - m
        assert build_adaptive_table(p, 1e-10, decided=decided) == t
        assert seen[1][1] == structure._runs(t.values, (1.0 - m) / (1.0 + m))
        # at edge 0.0 every pair is a run of its own
        decided.fast = 0.0
        build_adaptive_table(p, 1e-10, decided=decided)
        assert seen[2][1] == list(range(1, len(t.values)))

    @pytest.mark.parametrize("k, lam", [(2, 1e-200), (300, 1.1e-219), (1, 740.0), (3, 400.0)])
    def test_failures_are_the_loops(self, k, lam):
        with pytest.raises((ArithmeticError, RuntimeError)) as loop:
            build_adaptive_table(Params(k, lam), 1e-10)
        with pytest.raises(type(loop.value), match=f"^{re.escape(str(loop.value))}$"):
            build_adaptive_table(Params(k, lam), 1e-10, decided=always)

    def test_cap_is_the_loops(self, monkeypatch):
        monkeypatch.setattr(pmf, "_ADAPTIVE_CAP", 5)
        with pytest.raises(RuntimeError, match="cap of 5"):
            build_adaptive_table(Params(2, 4 / 3), 1e-10, decided=always)

    def test_each_entry_is_within_the_positive_sums_bound_of_the_loops_step(self):
        # S_n sums positive terms both ways: the loop's within min(n, k)
        # roundings of the exact sum of the entries before it, the block sums'
        # within min(n, k) + 2, and w_n = lam S_n / n adds two roundings on
        # each side; so (Higham, lemma 3.3) each entry is within
        # gamma_{2 min(n, k) + 6} of the loop's step on the same history
        u = sys.float_info.epsilon / 2
        points = list(scan_points("mean-k")[::7])
        points += [
            (k, lam)
            for k in (1, 2, 3, 5, 8, 13, 40)
            for lam in (0.05, 0.3, 1.0, 3.0, 20.0 / k)
        ]
        on_sums = 0
        for k, lam in points:
            running = pmf._running_weights(k, lam, math.exp(-k * lam), 1e-10, 0.0)
            if running is None:  # a close call of the stop rule
                continue
            w = running[0]
            for n in range(1, len(w)):
                history = w[:n]
                pmf._extend_kp(history, k, lam, n)
                rounds = 2 * min(n, k) + 6
                assert rel_gap(w[n], history[-1]) <= rounds * u / (1 - rounds * u)
            on_sums += 1
        assert len(points) == 64
        assert on_sums >= 40

    @pytest.mark.parametrize("k, lam", list(RUNNING_SHA256))
    def test_running_tables_have_the_same_bits_on_every_interpreter(self, k, lam):
        # plain float adds and multiplies only: builtin sum, which compensates
        # from Python 3.12 on, would give other bits, and so could decide
        # other points on the loop
        w, _, _ = pmf._running_weights(k, lam, math.exp(-k * lam), 1e-10, 0.0)
        bits = ",".join(map(float.hex, w)).encode()
        assert hashlib.sha256(bits).hexdigest() == RUNNING_SHA256[k, lam]


def index_error(diff, table, n) -> str:
    with pytest.raises(IndexError) as info:
        diff(table, n)
    return str(info.value)


class TestDifferenceIdentities:
    def test_forward_small_case(self):
        t = build_table(Params(2, 1.0), 4)
        rep = diff_forward(t, 2)
        assert rep.abs_gap <= 1e-13

    def test_forward_standard_poisson_exact(self):
        t = build_table(Params(1, 1.0), 3)
        rep = diff_forward(t, 1)
        assert rep.lhs == rep.rhs == -0.5

    def test_forward_deeper_case(self):
        t = build_table(Params(3, 0.2), 8)
        assert diff_forward(t, 5).abs_gap <= 1e-13

    def test_km_small_case(self):
        t = build_table(Params(2, 1.0), 4)
        assert diff_km(t, 2).abs_gap <= 1e-13

    def test_reports_pickle_and_refuse_assignment(self):
        rep = diff_km(build_table(Params(2, 1.0), 4), 2)
        back = pickle.loads(pickle.dumps(rep))
        assert type(back) is type(rep) and back == rep
        with pytest.raises(AttributeError):
            rep.abs_gap = 0.0

    def test_km_with_zeroed_negative_indices(self):
        t = build_table(Params(2, 0.5), 5)
        assert diff_km(t, 3).abs_gap <= 1e-13

    def test_km_standard_poisson_exact(self):
        t = build_table(Params(1, 1.0), 3)
        rep = diff_km(t, 2)
        assert rep.lhs == rep.rhs == -0.5

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_grid_of_gaps(self, k):
        for lam in (0.3, 2.0):
            t = build_table(Params(k, lam), 50)
            for n in range(1, 50):
                assert diff_forward(t, n).abs_gap <= 1e-12 * max(1.0, t.values[n])
            for n in range(2, 51):
                assert diff_km(t, n).abs_gap <= 1e-12 * max(1.0, t.values[n])

    @given(
        st.integers(1, 12),
        st.floats(-6.0, math.log10(50.0)).map(lambda e: 10.0**e),
        st.integers(0, 80),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_reports_as_the_reference(self, k, lam, n_max):
        t = build_table(Params(k, lam), n_max)
        for n in range(1, n_max):
            assert diff_forward(t, n) == diff_forward_reference(t, n)
        for n in range(2, n_max + 1):
            assert diff_km(t, n) == diff_km_reference(t, n)
        for n in (0, n_max, -1, n_max + 1):
            assert index_error(diff_forward, t, n) == index_error(diff_forward_reference, t, n)
        for n in (1, n_max + 1, 0, n_max + 2):
            assert index_error(diff_km, t, n) == index_error(diff_km_reference, t, n)

    def test_index_range_is_enforced(self):
        t = build_table(Params(2, 1.0), 5)
        with pytest.raises(IndexError):
            diff_forward(t, 0)
        with pytest.raises(IndexError):
            diff_forward(t, 5)
        with pytest.raises(IndexError):
            diff_km(t, 1)
        with pytest.raises(IndexError):
            diff_km(t, 6)


class TestPmfTable:
    def test_negative_indices_read_as_zero(self):
        t = build_table(Params(2, 1.0), 3)
        assert at(t, -1) == 0.0
        assert at(t, 2) == t.values[2]
        with pytest.raises(IndexError):
            at(t, 4)

    def test_tables_are_immutable(self):
        t = build_table(Params(2, 1.0), 3)
        with pytest.raises(AttributeError):
            t.values = (1.0,)
        assert isinstance(t.values, tuple)

    def test_tables_survive_a_pickle_round_trip(self):
        t = build_table(Params(2, 1.0), 3)
        back = pickle.loads(pickle.dumps(t))
        assert type(back) is PmfTable and type(back.params) is Params and back == t
