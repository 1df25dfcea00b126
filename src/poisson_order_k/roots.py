"""Rate thresholds defined by level crossings of the weights.

For fixed k >= 1 and n >= 1 the map lam -> w(n; lam) is a polynomial with
all-positive coefficients and no constant term, hence strictly increasing on
lam > 0 and unbounded: each level c > 0 is crossed at exactly one positive
rate.  Crossings are solved by regula falsi with Illinois safeguarding inside
an a-priori bracket given by closed-form upper bounds.  Each solver step
evaluates ``weight_value``: at 1 <= n <= k the order drops out and the weight
is an n-term closed form, evaluated in O(n); past k it is an entry of a
k-term table.  The shoulder's bracket is the grid step across which the O(k)
closed form of the gap w(k+2) - w(k+1) changes sign, confirmed once at each
end on the k-term gap, and the root is solved on the k-term weights at k+1
and k+2.  Every order uses the same grid, and for n <= k the k-term window
covers the whole prefix, so w_0..w_k at a grid rate do not depend on k: the
bracket ends read one prefix per grid rate, kept here and extended by the
kernel, and take their two window steps past k on a copy of it.

From the n = k crossings at levels 1 and 2 this module derives the constants
that delimit the distribution's shape regimes: the proved monotone-tail
bound min(root2, k!/(2k)^k), whose minimum is always the closed-form
factorial term, the closed-form rise threshold, and the shoulder rate at
which the two weights just past k are equal.
"""

import math
import sys
from collections import namedtuple

from .pmf import Params, _check_int, _check_real, _extend_kp, _kterm_weights

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
DEFAULT_TOL = 1e-13  # relative solver tolerance of every level crossing


class RootResult(
    namedtuple("RootResult", "k n c root bracket_low bracket_high tol iterations")
):
    """A solved crossing w(n; root) = c with its bracket and effort."""

    __slots__ = ()


class BoundsRecord(
    namedtuple("BoundsRecord", """k root1 root1_upper root2 root2_upper
               rise_threshold tail_bound shoulder status""")
):
    """Threshold constants for one order k, each with its closed-form bound.

    root1 / root2 are the rates where the weight at index k reaches 1 / 2;
    rise_threshold is the rate above which the weight at k+1 is at least the
    weight at k; tail_bound = k!/(2k)^k = min(root2, k!/(2k)^k) is the proved
    rate below which the weights are strictly decreasing for all n >= k
    (``status`` still audits that it is at most root2); shoulder is the
    rate at which the weights at k+1 and k+2 are equal.  Fields that are only
    defined for k >= 2 are None at k = 1.  ``status`` is "ok", or the
    ``;``-joined names of the bounds that fail; ``bounds_record`` derives it
    from the other fields.
    """

    __slots__ = ()


def _status(k, root1, root1_upper, root2, root2_upper, rise_threshold, tail_bound):
    """A record's audit: "ok", or the ``;``-joined names of the failing bounds."""
    bad = []
    slack = 1e-9
    if k > 2:
        if not root1 < root1_upper:
            bad.append("root1_bound")
    elif abs(root1 - root1_upper) > slack:
        bad.append("root1_bound")
    if root2 > root2_upper * (1.0 + slack):
        bad.append("root2_bound")
    if rise_threshold is not None:
        lo, hi = SQRT5_MINUS_1, (math.sqrt(33.0) - 3.0) / 2.0
        if not lo < rise_threshold <= hi * (1.0 + slack):
            bad.append("rise_range")
    if tail_bound is not None and tail_bound > root2 * (1.0 + slack):
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


def _illinois(f, lo, flo, hi, fhi, floor) -> tuple[float, int]:
    """Regula falsi with the Illinois cut, on a bracket with flo < 0 <= fhi.

    ``f(x)`` returns ``(value, slack)``.  The solve stops at the first x with
    ``|value| <= slack``, or once the bracket is at most 4 ulps of
    ``max(floor, x)`` wide.  Returns (root, evaluations).  The secant
    proposal is clipped to the open bracket, falling back to the midpoint, so
    progress is always made.
    """
    side = 0
    for it in range(1, _MAX_ITER + 1):
        denom = fhi - flo
        x = (lo * fhi - hi * flo) / denom if denom != 0.0 else hi
        if not lo < x < hi:
            x = 0.5 * lo + 0.5 * hi  # lo + hi overflows above 8.99e307
        fx, slack = f(x)
        if abs(fx) <= slack or hi - lo <= 4.0 * math.ulp(max(floor, x)):
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


def solve_weight_equals(
    k: int, n: int, c: float, tol: float = DEFAULT_TOL
) -> RootResult:
    """The unique positive rate at which the weight at index n equals c.

    The initial bracket is (0, root_upper_bound(k, n, c)]; the upper end is
    nudged up by tiny factors in the (equality) cases where the bound is the
    root itself and float rounding puts the evaluated weight just below c.

    The solve stops on the absolute residual ``tol * max(1, c)`` or a bracket
    of 4 ulps of max(1, x), so for c < 1 the root can be far off: (3, 3,
    1e-150) returns 5e-151, half the root.  A relative stop would mend it but
    moves verify's closed-form-roots worst error (c = 0.5), a printed digit.

    A root at or below ``sys.float_info.min`` has no float with relative
    precision, so it is refused with ArithmeticError.  Since
    w_n(lam) <= lam (1 + lam)^(n - 1), such a root needs c < 2 * min.
    """
    hi = root_upper_bound(k, n, c)  # validates k, n and c
    _check_real("tol", tol, 0.0)
    tiny = sys.float_info.min
    if c < 2.0 * tiny and weight_value(k, n, tiny) >= c:
        raise ArithmeticError(
            f"the root of w_{n} = {c} at k={k} is at most the smallest normal "
            f"float {tiny}, below which no float carries relative precision"
        )

    target = tol * max(1.0, c)

    def f(lam: float) -> tuple[float, float]:
        return weight_value(k, n, lam) - c, target

    fhi = f(hi)[0]
    grown = 0
    while fhi < 0.0:
        hi *= 1.0 + 1e-9
        fhi = f(hi)[0]
        grown += 1
        if grown > 64:
            raise RuntimeError(
                f"could not re-establish the bracket above {hi} for "
                f"k={k}, n={n}, c={c}"
            )
    root, iterations = _illinois(f, 0.0, -c, hi, fhi, 1.0)
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


def monotone_tail_bound(k: int) -> float:
    """Proved sufficient rate bound for a monotone tail: k!/(2k)^k.

    For rates at or below it, the weights decrease strictly for every
    n >= k.  The proved bound is min(root2, k!/(2k)^k), and the factorial
    term is always the minimum: w_k(lam) <= lam (1+lam)^(k-1), and at
    lam = k!/(2k)^k <= 2^-k that is at most 2^-k e^((k-1) 2^-k) < 2, so it
    lies below root2, where w_k = 2.  Evaluated in the log domain; it
    underflows to 0.0 from k = 443 on.
    """
    _check_int("order k", k, 2)
    return math.exp(math.lgamma(k + 1) - k * math.log(2.0 * k))


def _gap_factor(k: int, lam: float) -> float:
    """The shoulder gap w(k+2) - w(k+1) divided by lam**2, in O(k).

    Just past k the generating function cancels exactly, and the gap is
    lam**2 * (-1/2 + sum_{m=1..k} C(k, m) lam^m / (m+2)!).  The sum has
    positive terms with ratios (k-m) lam / ((m+1)(m+3)), so it is evaluated
    in Horner form; it rises with lam, and the gap changes sign exactly once.
    """
    s = 1.0
    for m in range(k - 1, 0, -1):
        s = 1.0 + s * ((k - m) * lam) / ((m + 1) * (m + 3))
    return k * lam / 6.0 * s - 0.5


# w_0, w_1, ... at each shoulder grid rate, shared by every order
_grid_prefix: dict[float, list[float]] = {}


def _grid_weights(k: int, lam: float) -> list[float]:
    """``_kterm_weights(k, lam, k + 2)`` at a shoulder grid rate, bit for bit.

    Two kernel calls.  The first grows the rate's shared prefix through k:
    each entry up to k is a step over the whole prefix before it, the same
    float operations at every order, and after an overflow the kernel fills
    the prefix with inf as it fills a table of its own.  It grows a copy and
    publishes that, so a published prefix never changes and threads may
    share the cache.  The second takes the two window steps past k on a copy
    of w_0..w_k.
    """
    p = _grid_prefix.get(lam, [1.0])
    if len(p) <= k:
        p = _grid_prefix[lam] = _extend_kp(p[:], k, lam, k)
    return _extend_kp(p[: k + 1], k, lam, k + 2)


def shoulder_lambda(k: int, tol: float = DEFAULT_TOL) -> float:
    """Rate at which the weights at k+1 and k+2 are equal (the shoulder).

    The gap g(lam) = w(k+2) - w(k+1) is negative for small rates (the
    quadratic coefficients just past k drop by 1/2 per index) and rises
    through zero once.  The bracket is the step of the grid 1e-3 * 1.5**i
    across which the O(k) closed form of g changes sign; the grid reaches
    below 1e-3 where g is not yet negative there (orders k >= 2258).  The
    bracket is confirmed on the k-term gap, read from the prefix that every
    order shares at a grid rate (``_grid_weights``, bit-identical to a table
    of its own), and the root is solved on one k-term table per step to
    ``|g| <= tol * w(k+1)`` or a bracket of 4 ulps of the rate.  Raises
    RuntimeError if the closed form and the k-term gap disagree on the
    bracket's signs.
    """
    _check_int("order k", k, 2)
    _check_real("tol", tol, 0.0)

    def g(lam: float) -> tuple[float, float]:
        w = _kterm_weights(k, lam, k + 2)
        return w[k + 2] - w[k + 1], tol * w[k + 1]

    # the closed form rises with the rate: walk down until it is negative at
    # lo (only orders k >= 2258 start non-negative), then up until it is
    # non-negative at hi
    lo = hi = 1e-3
    while _gap_factor(k, lo) >= 0.0:
        lo, hi = lo / 1.5, lo
    while _gap_factor(k, hi) < 0.0:
        lo, hi = hi, hi * 1.5
    wlo, whi = _grid_weights(k, lo), _grid_weights(k, hi)
    flo, fhi = wlo[k + 2] - wlo[k + 1], whi[k + 2] - whi[k + 1]
    # the signs agree at every grid point for k <= 150 (a test checks it)
    if not flo < 0.0 <= fhi:
        raise RuntimeError(
            f"the closed form and the k-term gap disagree on the shoulder "
            f"bracket for k={k}: k-term gap {flo} at {lo}, {fhi} at {hi}"
        )

    root, _ = _illinois(g, lo, flo, hi, fhi, 0.0)
    return root


def bounds_record(
    k: int, tol: float = DEFAULT_TOL, with_shoulder: bool = True
) -> BoundsRecord:
    """All threshold constants for one order, with their closed-form bounds."""
    _check_int("order k", k, 1)
    root1 = solve_weight_equals(k, k, 1.0, tol=tol).root
    root2 = solve_weight_equals(k, k, 2.0, tol=tol).root
    if k >= 2:
        rise = rise_threshold(k)
        tail = monotone_tail_bound(k)
        shoulder = shoulder_lambda(k, tol=tol) if with_shoulder else None
    else:
        rise = tail = shoulder = None
    fields = (
        k, root1, root_upper_bound(k, k, 1.0), root2, root_upper_bound(k, k, 2.0),
        rise, tail,
    )
    return BoundsRecord(*fields, shoulder, _status(*fields))
