"""Certification checks: the numerical evidence behind the paper's results.

Each check runs one fixed grid against one fixed bound and returns
``(ok, detail)``; on failure ``detail`` names the first offending point.
``SUITES`` lists them in the order ``verify`` prints them, and the
acceptance tests call the same functions, so each grid and bound exists
once.

Layers are called through their modules (``pmf.build_table``, not a name
imported from ``pmf``), so a caller that rebinds a module attribute, such as
a tracer, sees every call made here.
"""

import sys
from fractions import Fraction

from . import oracle, pmf, roots

__all__ = [
    "oracle_equivalence",
    "recurrence_cross_check",
    "difference_identities",
    "closed_form_roots",
    "lambda2_coefficients",
    "SUITES",
]


def oracle_equivalence() -> tuple[bool, str]:
    """k-term tables against the exact tuple sum, to 1e-12 relative."""
    worst = 0.0
    for k in (2, 3, 4, 5):
        polys = [oracle.weight_polynomial(k, n) for n in range(16)]
        for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
            table = pmf.build_table(pmf.Params(k, float(lam)), 15)
            for n, (got, poly) in enumerate(zip(table.values, polys, strict=True)):
                exact = float(poly.evaluate(lam))
                rel = abs(got - exact) / exact
                if rel > worst:
                    worst = rel
                if rel > 1e-12:
                    return False, (
                        f"k={k} n={n} lam={lam}: got {got!r}, "
                        f"want {exact!r} (rel {rel:.3e})"
                    )
    return True, f"k<=5, n<=15, worst rel {worst:.3e}"


def recurrence_cross_check() -> tuple[bool, str]:
    """k-term against exact four-term tables, to 1e-10 relative."""
    worst = 0.0
    fmin = sys.float_info.min
    for k in range(1, 11):
        for lam in (0.1, 0.6026076, 4.0 / 3.0, 3.0):
            a = pmf.build_table(pmf.Params(k, lam), 200)
            b = pmf.build_table_km(pmf.Params(k, lam), 200)
            for n, (x, y) in enumerate(zip(a.values, b.values, strict=True)):
                top = x if x > y else y
                if top < fmin:
                    # below the normal range floats hold no relative precision
                    if abs(x - y) >= fmin:
                        return False, f"k={k} n={n} lam={lam}: subnormal mismatch"
                    continue
                rel = abs(x - y) / top
                if rel > worst:
                    worst = rel
                if rel > 1e-10:
                    return False, f"k={k} n={n} lam={lam}: rel gap {rel:.3e}"
    return True, f"k<=10, n<=200, worst rel {worst:.3e}"


def difference_identities() -> tuple[bool, str]:
    """Both difference identities, to 1e-12 scaled by max(1, w_n)."""
    worst = 0.0
    identities = (
        ("forward", pmf.diff_forward, range(1, 100)),
        ("km", pmf.diff_km, range(2, 101)),
    )
    for k in range(1, 7):
        for lam in (0.3, 1.0, 2.0):
            table = pmf.build_table(pmf.Params(k, lam), 100)
            for name, diff, indices in identities:
                for n in indices:
                    gap = diff(table, n).abs_gap
                    scale = max(1.0, table.values[n])
                    worst = max(worst, gap / scale)
                    if gap > 1e-12 * scale:
                        return False, f"{name} k={k} n={n} lam={lam}: gap {gap:.3e}"
    return True, f"k<=6, n<=100, worst scaled gap {worst:.3e}"


def closed_form_roots() -> tuple[bool, str]:
    """Solved n=2 crossings against sqrt(2c+1) - 1, to 1e-12 absolute."""
    worst = 0.0
    for c in (0.5, 1.0, 2.0, 10.0):
        want = roots.closed_form_root_n2(c)
        for k in (2, 5, 10):
            got = roots.solve_weight_equals(k, 2, c).root
            worst = max(worst, abs(got - want))
            if abs(got - want) > 1e-12:
                return False, f"k={k} c={c}: got {got!r}, want {want!r}"
    return True, f"c in {{0.5,1,2,10}}, k in {{2,5,10}}, worst abs {worst:.3e}"


def lambda2_coefficients() -> tuple[bool, str]:
    """Quadratic coefficient of w_{k+j} equals (k+1-j)/2, exactly."""
    for k in range(2, 13):
        for j in range(1, k + 1):
            got = oracle.lambda2_coefficient(k, j)
            want = Fraction(k + 1 - j, 2)
            if got != want:
                return False, f"k={k} j={j}: got {got}, want {want}"
    return True, "k<=12, exact rational comparison"


SUITES = (
    ("oracle-equivalence", oracle_equivalence),
    ("recurrence-cross-check", recurrence_cross_check),
    ("difference-identities", difference_identities),
    ("closed-form-roots", closed_form_roots),
    ("lambda2-coefficients", lambda2_coefficients),
)
