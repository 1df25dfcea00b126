"""Failure paths of the certification checks: a planted fault is reported at
its first offending point, in the wording ``verify`` prints."""

import re
import sys
from fractions import Fraction

import pytest

from poisson_order_k import checks, oracle, pmf
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
