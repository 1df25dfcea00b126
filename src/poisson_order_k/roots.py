"""Rate thresholds defined by level crossings of the weights.

For fixed k >= 1 and n >= 1 the map lam -> w(n; lam) is a polynomial with
all-positive coefficients and no constant term, hence strictly increasing on
lam > 0 and unbounded: each level c > 0 is crossed at exactly one positive
rate.  Crossings are solved by regula falsi with Illinois safeguarding inside
an a-priori bracket given by closed-form upper bounds.  Each solver step
evaluates ``weight_value``: at 1 <= n <= k the order drops out and the weight
is an n-term closed form, evaluated in O(n); past k it is an entry of a
k-term table, as is the shoulder's pair at k+1 and k+2.

From the n = k crossings at levels 1 and 2 this module derives the constants
that delimit the distribution's shape regimes: the proved monotone-tail
bound, the closed-form rise threshold, and the shoulder rate at which the two
weights just past k are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .pmf import Params, _check_int, _check_real, _kterm_weights

__all__ = [
    "RootResult",
    "BoundsRecord",
    "weight_value",
    "root_upper_bound",
    "solve_weight_equals",
    "closed_form_root_n2",
    "rise_threshold",
    "monotone_tail_bound",
    "shoulder_lambda",
    "bounds_record",
]

SQRT5_MINUS_1 = math.sqrt(5.0) - 1.0

_MAX_ITER = 200


@dataclass(frozen=True)
class RootResult:
    """A solved crossing w(n; root) = c with its bracket and effort."""

    k: int
    n: int
    c: float
    root: float
    bracket_low: float
    bracket_high: float
    tol: float
    iterations: int


@dataclass(frozen=True)
class BoundsRecord:
    """Threshold constants for one order k, each with its closed-form bound.

    root1 / root2 are the rates where the weight at index k reaches 1 / 2;
    rise_threshold is the rate above which the weight at k+1 is at least the
    weight at k; tail_bound = min(root2, k!/(2k)^k) is the proved rate below
    which the weights are strictly decreasing for all n >= k; shoulder is the
    rate at which the weights at k+1 and k+2 are equal.  Fields that are only
    defined for k >= 2 are None at k = 1.  ``status`` is derived from the
    others: "ok", or the ``;``-joined names of the bounds that fail.
    """

    k: int
    root1: float
    root1_upper: float
    root2: float
    root2_upper: float
    rise_threshold: float | None
    tail_bound: float | None
    shoulder: float | None
    status: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "status", _bounds_status(self))


def _bounds_status(rec: BoundsRecord) -> str:
    bad = []
    slack = 1e-9
    if rec.k > 2:
        if not rec.root1 < rec.root1_upper:
            bad.append("root1_bound")
    elif abs(rec.root1 - rec.root1_upper) > slack:
        bad.append("root1_bound")
    if rec.root2 > rec.root2_upper * (1.0 + slack):
        bad.append("root2_bound")
    if rec.rise_threshold is not None:
        lo, hi = SQRT5_MINUS_1, (math.sqrt(33.0) - 3.0) / 2.0
        if not lo < rec.rise_threshold <= hi * (1.0 + slack):
            bad.append("rise_range")
    if rec.tail_bound is not None and rec.tail_bound > rec.root2 * (1.0 + slack):
        bad.append("tail_bound")
    return "ok" if not bad else ";".join(bad)


def weight_value(k: int, n: int, lam: float) -> float:
    """Weight at a single index.

    For 1 <= n <= k the order drops out: w_n = sum_{j=1..n} C(n-1, j-1)
    lam^j / j!, the Laguerre value L_n^(-1)(-lam).  Its term ratios are
    (n-j) lam / (j(j+1)), so it is evaluated in Horner form with n - 1
    positive steps.  Index 0 and indices past k build a k-term table, which
    costs about k multiply-adds per entry.
    """
    Params(k, lam)  # validate
    _check_int("index n", n, 0)
    if 1 <= n <= k:
        s = 1.0
        for j in range(n - 1, 0, -1):
            s = 1.0 + s * ((n - j) * lam) / (j * (j + 1))
        return lam * s
    return _kterm_weights(k, lam, n)[n]


def root_upper_bound(k: int, n: int, c: float) -> float:
    """Tightest applicable closed-form upper bound for the crossing rate.

    Candidates: the degree-n term alone gives (c*n!)^(1/n); when k divides n
    the lowest term gives (c*(n/k)!)^(k/n); when n = k the quadratic
    truncation gives 2c/(sqrt(2c(k-1)+1)+1).  All are evaluated in the log
    domain where factorials could overflow.
    """
    _check_int("order k", k, 1)
    _check_int("index n", n, 1)
    _check_real("level c", c, 0.0)
    logc = math.log(c)
    bounds = [math.exp((logc + math.lgamma(n + 1)) / n)]
    if n % k == 0:
        bounds.append(math.exp(k * (logc + math.lgamma(n // k + 1)) / n))
    if n == k:
        bounds.append(2.0 * c / (math.sqrt(2.0 * c * (k - 1) + 1.0) + 1.0))
    return min(bounds)


def _illinois(f, lo, flo, hi, fhi, is_done) -> tuple[float, int]:
    """Regula falsi with the Illinois cut, on a bracket with flo < 0 <= fhi.

    Returns (root, evaluations).  ``is_done(x, fx, lo, hi)`` decides
    convergence.  The secant proposal is clipped to the open bracket, falling
    back to the midpoint, so progress is always made.
    """
    side = 0
    for it in range(1, _MAX_ITER + 1):
        denom = fhi - flo
        x = (lo * fhi - hi * flo) / denom if denom != 0.0 else 0.5 * (lo + hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if is_done(x, fx, lo, hi):
            return x, it
        if fx < 0.0:
            lo, flo = x, fx
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = x, fx
            if side == 1:
                flo *= 0.5
            side = 1
    raise RuntimeError(
        f"root solve did not converge within {_MAX_ITER} iterations "
        f"(bracket [{lo}, {hi}]); this indicates an internal inconsistency"
    )


def solve_weight_equals(k: int, n: int, c: float, tol: float = 1e-13) -> RootResult:
    """The unique positive rate at which the weight at index n equals c.

    The initial bracket is (0, root_upper_bound(k, n, c)]; the upper end is
    nudged up by tiny factors in the (equality) cases where the bound is the
    root itself and float rounding puts the evaluated weight just below c.
    """
    hi = root_upper_bound(k, n, c)  # validates k, n and c
    _check_real("tol", tol, 0.0)

    def f(lam: float) -> float:
        return weight_value(k, n, lam) - c

    fhi = f(hi)
    grown = 0
    while fhi < 0.0:
        hi *= 1.0 + 1e-9
        fhi = f(hi)
        grown += 1
        if grown > 64:
            raise RuntimeError(
                f"could not re-establish the bracket above {hi} for "
                f"k={k}, n={n}, c={c}"
            )
    target = tol * max(1.0, c)

    def is_done(x: float, fx: float, lo: float, hi_: float) -> bool:
        return abs(fx) <= target or hi_ - lo <= 4.0 * math.ulp(max(1.0, x))

    root, iterations = _illinois(f, 0.0, -c, hi, fhi, is_done)
    return RootResult(
        k=k,
        n=n,
        c=c,
        root=root,
        bracket_low=0.0,
        bracket_high=hi,
        tol=tol,
        iterations=iterations + grown + 1,
    )


def closed_form_root_n2(c: float) -> float:
    """Closed form sqrt(2c+1) - 1 for the n = 2 crossing, any order k >= 2.

    The weight at n = 2 is lam**2/2 + lam for every such k, so the crossing
    solves a plain quadratic.
    """
    _check_real("level c", c, 0.0, inclusive=True)
    return math.sqrt(2.0 * c + 1.0) - 1.0


def rise_threshold(k: int) -> float:
    """Rate above which the weight at k+1 is at least the weight at k.

    Closed form 4/(sqrt(5 - 4/kappa) + 1) with kappa = k(k+1)/2; strictly
    decreasing in k, from (sqrt(33)-3)/2 at k = 2 down to the limit
    sqrt(5) - 1.  A sufficient, not necessary, threshold.
    """
    _check_int("order k", k, 2)
    kappa = k * (k + 1) // 2
    return 4.0 / (math.sqrt(5.0 - 4.0 / kappa) + 1.0)


def _log_factorial_over_power(k: int) -> float:
    # k!/(2k)^k in the log domain; underflows to 0.0 harmlessly for huge k
    return math.exp(math.lgamma(k + 1) - k * math.log(2.0 * k))


def monotone_tail_bound(k: int, tol: float = 1e-13) -> float:
    """Proved sufficient rate bound for a monotone tail: min(root2, k!/(2k)^k).

    For rates at or below it, the weights decrease strictly for every
    n >= k.  The factorial term is the smaller one for all k >= 2.
    """
    _check_int("order k", k, 2)
    root2 = solve_weight_equals(k, k, 2.0, tol=tol).root
    return min(root2, _log_factorial_over_power(k))


def shoulder_lambda(
    k: int, tol: float = 1e-13, scan_high: float = 2.0
) -> float:
    """Rate at which the weights at k+1 and k+2 are equal (the shoulder).

    The gap g(lam) = w(k+2) - w(k+1) is negative for small rates (the
    quadratic coefficients just past k drop by 1/2 per index) and positive by
    lam = 2, so a sign change is bracketed by a geometric scan of (0, 2] and
    then solved to ``|g| <= tol * w(k+1)``.  Raises RuntimeError, reporting
    the scanned range, if no sign change is found.
    """
    _check_int("order k", k, 2)
    _check_real("tol", tol, 0.0)

    # is_done asks for the pair at the rate g has just evaluated; reuse it
    last: tuple = (None, None)

    def pair(lam: float) -> tuple[float, float]:
        nonlocal last
        if last[0] != lam:
            w = _kterm_weights(k, lam, k + 2)
            last = lam, (w[k + 1], w[k + 2])
        return last[1]

    def g(lam: float) -> float:
        a, b = pair(lam)
        return b - a

    lo = 1e-3
    flo = g(lo)
    if flo >= 0.0:
        raise RuntimeError(
            f"no negative start for the shoulder gap at lam={lo}, k={k}"
        )
    hi = lo
    fhi = flo
    while fhi < 0.0:
        if hi >= scan_high:
            raise RuntimeError(
                f"no shoulder sign change for k={k} in the scanned range "
                f"({lo}, {scan_high}]"
            )
        lo, flo = hi, fhi
        hi = min(hi * 1.5, scan_high)
        fhi = g(hi)

    def is_done(x: float, fx: float, lo_: float, hi_: float) -> bool:
        ref = pair(x)[0]
        return abs(fx) <= tol * ref or hi_ - lo_ <= 4.0 * math.ulp(x)

    root, _ = _illinois(g, lo, flo, hi, fhi, is_done)
    return root


def bounds_record(
    k: int, tol: float = 1e-13, with_shoulder: bool = True
) -> BoundsRecord:
    """All threshold constants for one order, with their closed-form bounds."""
    _check_int("order k", k, 1)
    root1 = solve_weight_equals(k, k, 1.0, tol=tol).root
    root2 = solve_weight_equals(k, k, 2.0, tol=tol).root
    if k >= 2:
        rise = rise_threshold(k)
        tail = min(root2, _log_factorial_over_power(k))
        shoulder = shoulder_lambda(k, tol=tol) if with_shoulder else None
    else:
        rise = tail = shoulder = None
    return BoundsRecord(
        k=k,
        root1=root1,
        root1_upper=2.0 / (math.sqrt(2.0 * k - 1.0) + 1.0),
        root2=root2,
        root2_upper=4.0 / (math.sqrt(4.0 * k - 3.0) + 1.0),
        rise_threshold=rise,
        tail_bound=tail,
        shoulder=shoulder,
    )
