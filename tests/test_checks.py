"""Failure paths of the certification checks: a planted fault is reported at
its first offending point, in the wording ``verify`` prints."""

import re
import sys
from fractions import Fraction

import pytest

from poisson_order_k import checks, oracle, pmf, roots
from poisson_order_k.oracle import WeightPolynomial

FMIN = sys.float_info.min


def plant_km(monkeypatch, faults):
    """Rebind ``pmf.build_table_km`` so that ``faults[(k, lam)]`` maps an
    index to the function that replaces the exact entry there."""
    build = pmf.build_table_km

    def planted(params, n_max):
        table = build(params, n_max)
        values = list(table.values)
        for n, fault in faults.get((params.k, params.lam), {}).items():
            values[n] = fault(values[n])
        return table._replace(values=tuple(values))

    monkeypatch.setattr(pmf, "build_table_km", planted)


class TestRecurrenceCrossCheck:
    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_perturbed_entry_names_the_first_offender(self, monkeypatch, factor):
        # the gap is relative to the larger of the two entries, on either side
        lam = 4.0 / 3.0
        plant_km(
            monkeypatch,
            {
                (3, lam): {50: lambda w: w * factor, 120: lambda w: w * 3},
                (7, 0.1): {10: lambda w: w * 3},
            },
        )
        ok, detail = checks.recurrence_cross_check()
        assert (ok, detail) == (False, f"k=3 n=50 lam={lam}: rel gap 5.000e-01")

    def test_gap_just_over_the_bound_fails(self, monkeypatch):
        plant_km(monkeypatch, {(3, 3.0): {50: lambda w: w * (1 + 1e-9)}})
        ok, detail = checks.recurrence_cross_check()
        assert (ok, detail) == (False, "k=3 n=50 lam=3.0: rel gap 1.000e-09")

    def test_gap_below_the_bound_passes(self, monkeypatch):
        plant_km(monkeypatch, {(3, 3.0): {50: lambda w: w * (1 + 1e-11)}})
        ok, detail = checks.recurrence_cross_check()
        assert ok
        assert re.fullmatch(r"k<=10, n<=200, worst rel 1\.00\de-11", detail), detail

    def test_subnormal_mismatch(self, monkeypatch):
        # at k = 1, lam = 0.1 the tail falls below the normal range; a
        # negative four-term entry there is a mismatch no relative gap shows
        kterm = pmf.build_table(pmf.Params(1, 0.1), 200).values
        n = next(i for i, w in enumerate(kterm) if w < FMIN)
        plant_km(monkeypatch, {(1, 0.1): {n: lambda w: -FMIN, n + 1: lambda w: -FMIN}})
        ok, detail = checks.recurrence_cross_check()
        assert (ok, detail) == (False, f"k=1 n={n} lam=0.1: subnormal mismatch")


class TestOracleEquivalence:
    def test_wrong_coefficient_names_the_first_offender(self, monkeypatch):
        build = oracle.weight_polynomial

        def planted(k, n):
            poly = build(k, n)
            if (k, n) == (3, 7):
                coeffs = dict(poly.coeffs)
                coeffs[3] += Fraction(1, 10**6)
                poly = WeightPolynomial(k, n, coeffs)
            return poly

        monkeypatch.setattr(oracle, "weight_polynomial", planted)
        ok, detail = checks.oracle_equivalence()
        assert not ok
        got = pmf.build_table(pmf.Params(3, 0.25), 15).values[7]
        want = float(planted(3, 7).evaluate(Fraction(1, 4)))
        assert re.fullmatch(
            rf"k=3 n=7 lam=1/4: got {re.escape(repr(got))}, "
            rf"want {re.escape(repr(want))} \(rel \d\.\d{{3}}e-\d\d\)",
            detail,
        ), detail


class TestLambda2Coefficients:
    def test_wrong_coefficient_names_the_first_offender(self, monkeypatch):
        exact = oracle.lambda2_coefficient

        def planted(k, j):
            return exact(k, j) + (1 if (k, j) in {(5, 3), (9, 1)} else 0)

        monkeypatch.setattr(oracle, "lambda2_coefficient", planted)
        assert checks.lambda2_coefficients() == (False, "k=5 j=3: got 5/2, want 3/2")


def plant_gaps(monkeypatch, name, gaps):
    """Rebind ``pmf.<name>``, a difference identity, so that its report at
    index n of the table at (k, lam) has the gap ``gaps[(k, lam, n)]``."""
    diff = getattr(pmf, name)

    def planted(table, n):
        rep = diff(table, n)
        gap = gaps.get((*table.params, n))
        return rep if gap is None else rep._replace(abs_gap=gap)

    monkeypatch.setattr(pmf, name, planted)


class TestDifferenceIdentities:
    @pytest.mark.parametrize("name, label", [("diff_forward", "forward"), ("diff_km", "km")])
    def test_planted_gap_names_the_first_offender(self, monkeypatch, name, label):
        plant_gaps(monkeypatch, name, {(3, 1.0, 40): 1e-6, (3, 1.0, 70): 1.0, (5, 0.3, 10): 1.0})
        ok, detail = checks.difference_identities()
        assert (ok, detail) == (False, f"{label} k=3 n=40 lam=1.0: gap 1.000e-06")

    def test_km_at_an_earlier_point_comes_before_forward_at_a_later_one(self, monkeypatch):
        plant_gaps(monkeypatch, "diff_km", {(2, 0.3, 50): 1e-6})
        plant_gaps(monkeypatch, "diff_forward", {(2, 1.0, 3): 1.0})
        ok, detail = checks.difference_identities()
        assert (ok, detail) == (False, "km k=2 n=50 lam=0.3: gap 1.000e-06")

    def test_forward_comes_before_km_at_the_same_point(self, monkeypatch):
        plant_gaps(monkeypatch, "diff_forward", {(4, 2.0, 90): 1e-6})
        plant_gaps(monkeypatch, "diff_km", {(4, 2.0, 5): 1.0})
        ok, detail = checks.difference_identities()
        assert (ok, detail) == (False, "forward k=4 n=90 lam=2.0: gap 1.000e-06")

    @pytest.mark.parametrize("name, label", [("diff_forward", "forward"), ("diff_km", "km")])
    @pytest.mark.parametrize("k, lam, n", [(1, 0.3, 3), (6, 2.0, 40)])
    def test_the_bound_is_1e_12_times_max_1_w_n(self, monkeypatch, name, label, k, lam, n):
        # w_3 < 1 at k = 1, lam = 0.3, where the bound is 1e-12; w_40 > 1 at
        # k = 6, lam = 2, where it scales with w_40
        w_n = pmf.build_table(pmf.Params(k, lam), 100).values[n]
        assert (w_n > 1.0) == (k == 6)
        scale = max(1.0, w_n)
        over = 1.001e-12 * scale
        plant_gaps(monkeypatch, name, {(k, lam, n): over})
        ok, detail = checks.difference_identities()
        assert (ok, detail) == (False, f"{label} k={k} n={n} lam={lam}: gap {over:.3e}")
        plant_gaps(monkeypatch, name, {(k, lam, n): 0.999e-12 * scale})
        assert checks.difference_identities() == (True, "k<=6, n<=100, worst scaled gap 9.990e-13")


class TestClosedFormRoots:
    def test_planted_root_names_the_first_offender(self, monkeypatch):
        solve = roots.solve_weight_equals

        def planted(k, n, c):
            result = solve(k, n, c)
            if (k, c) in {(5, 2.0), (2, 10.0)}:
                result = result._replace(root=result.root + 1e-9)
            return result

        monkeypatch.setattr(roots, "solve_weight_equals", planted)
        ok, detail = checks.closed_form_roots()
        got, want = planted(5, 2, 2.0).root, roots.closed_form_root_n2(2.0)
        assert (ok, detail) == (False, f"k=5 c=2.0: got {got!r}, want {want!r}")


@pytest.mark.xfail(
    reason="ROADMAP item 14: a per-step relative error of 1e-13 passes the round-number "
    "bounds (worst 9.2e-13 against 1e-12, 2.0e-11 against 1e-10, 1.0e-13 against 1e-12)",
    raises=AssertionError,
)
def test_a_per_step_error_of_1e_13_is_caught(monkeypatch):
    # every k-term entry is grown by the library's kernel, one at a time, and
    # then multiplied by 1 + 1e-13, so the error compounds down the table
    extend = pmf._extend_kp

    def perturbed(w, k, lam, n):
        while len(w) <= n:
            extend(w, k, lam, len(w))
            w[-1] *= 1.0 + 1e-13
        return w

    plain = pmf.build_table(pmf.Params(3, 1.0), 200).values
    monkeypatch.setattr(pmf, "_extend_kp", perturbed)
    if pmf.build_table(pmf.Params(3, 1.0), 200).values[200] / plain[200] - 1.0 < 1e-12:
        pytest.fail("the perturbation does not reach the checks' tables")
    assert not all(check()[0] for _, check in checks.SUITES[:3])
