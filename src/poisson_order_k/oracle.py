"""Ground-truth weights by direct enumeration, in exact rational arithmetic.

The weight at index n for order k is the sum over all tuples
(n_1, ..., n_k) of nonnegative integers with n_1 + 2*n_2 + ... + k*n_k = n
of lam**(n_1+...+n_k) / (n_1! * ... * n_k!).  Tuples are in bijection with
partitions of n into parts of size at most k (n_i = multiplicity of part i).

This module exists to be obviously correct, not fast: it certifies the
recurrence paths in :mod:`poisson_order_k.pmf`.  Everything is exact; floats
are accepted as rate inputs but converted to the binary rational they
represent, so comparisons against float pipelines are well defined.  Tuple
terms are summed as integer multinomials per power of the rate, so each
coefficient costs one rational division rather than one Fraction addition
per tuple.  A polynomial is evaluated the same way: every term is scaled to
one common denominator in plain integers, and the sum is divided once.

The power of the rate a tuple contributes to is its number of parts
n_1 + ... + n_k.  The descent can be capped at a number of parts, and then
it prunes every branch that would need more, so reading one low coefficient
walks only the tuples that feed it: ``lambda2_coefficient`` visits the tuples
of at most two parts (202 over the ``verify`` grid, not all 15,411).
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .pmf import _check_int, _check_real

__all__ = [
    "WeightPolynomial",
    "enumerate_tuples",
    "weight_polynomial",
    "weight_exact",
    "lambda2_coefficient",
]

# Paper-scale certification (k <= 5, n <= 15) needs a few hundred tuples;
# the budget guards against accidental combinatorial blow-ups only.
_TUPLE_BUDGET = 10_000_000

Rational = Fraction | int | float


def _count(k: int, n: int, parts: int) -> int:
    """Partitions of n into at most ``parts`` parts of size at most k.

    That is the coefficient of q**n in the Gaussian binomial
    [k + parts, m]_q with m = min(k, parts), the product over i = 1..m of
    (1 - q**(k + parts - m + i)) / (1 - q**i), taken as a power series cut
    at degree n.  With parts >= n every numerator factor is 1 and this is
    the usual count of partitions into parts of size at most k.
    """
    _check_int("order k", k, 1)
    _check_int("index n", n, 0)
    m = min(k, parts)
    series = [1] + [0] * n
    for i in range(1, m + 1):
        step = k + parts - m + i
        for s in range(n, step - 1, -1):
            series[s] -= series[s - step]
        for s in range(i, n + 1):
            series[s] += series[s - i]
    return series[n]


def _each_tuple(k: int, n: int, visit, parts: int | None = None) -> None:
    """Call ``visit(counts)`` on every multiplicity tuple exactly once, in a
    fixed deterministic order; ``counts`` is one list, changed between calls.

    Recursive descent on part sizes from k down to 1, taking the multiplicity
    of each part from high to low.  n = 0 visits the single all-zero tuple.
    With ``parts`` set, only tuples of at most that many parts are visited,
    in the same order: a branch is cut as soon as the parts it has left
    cannot reach its remainder.  Refuses (RuntimeError) when the number of
    tuples to visit exceeds ``_TUPLE_BUDGET``.
    """
    if parts is None:
        parts = n
    total = _count(k, n, parts)
    if total > _TUPLE_BUDGET:
        raise RuntimeError(
            f"{total} tuples for k={k}, n={n} exceeds the budget of {_TUPLE_BUDGET}"
        )
    counts = [0] * k

    def descend(part: int, rem: int, left: int) -> None:
        if rem > part * left:
            return
        if part == 1:
            counts[0] = rem
            visit(counts)
            counts[0] = 0
            return
        for c in range(min(rem // part, left), -1, -1):
            counts[part - 1] = c
            descend(part - 1, rem - part * c, left - c)
        counts[part - 1] = 0

    descend(k, n, parts)


def enumerate_tuples(k: int, n: int) -> list[tuple[int, ...]]:
    """Every multiplicity tuple exactly once, in the fixed order of the
    descent that ``weight_polynomial`` sums over.

    n = 0 gives the single all-zero tuple.  Refuses (RuntimeError) when the
    solution count exceeds ``_TUPLE_BUDGET``.
    """
    out: list[tuple[int, ...]] = []
    _each_tuple(k, n, lambda counts: out.append(tuple(counts)))
    return out


class WeightPolynomial(namedtuple("WeightPolynomial", "k n coeffs")):
    """Exact coefficients of the weight at index n as a polynomial in the rate.

    ``coeffs`` maps the power of the rate to its Fraction coefficient; powers
    with zero coefficient are absent.  Treat instances as read-only.
    """

    __slots__ = ()

    def evaluate(self, lam: Rational) -> Fraction:
        """Exact value at a rational rate (floats taken at their binary value).

        With lam = p/q, L the lcm of the coefficient denominators and t the
        top power, the value is sum(c_d * L * p**d * q**(t - d)) / (L * q**t):
        the numerator is summed in plain integers and divided once.
        """
        p, q = Fraction(lam).as_integer_ratio()
        top = max(self.coeffs, default=0)
        scale = lcm(*(c.denominator for c in self.coeffs.values()))
        num = sum(
            c.numerator * (scale // c.denominator) * p**d * q ** (top - d)
            for d, c in self.coeffs.items()
        )
        return Fraction(num, scale * q**top)


def weight_polynomial(k: int, n: int) -> WeightPolynomial:
    """Exact polynomial of the weight at index n: coefficient of power d is
    the sum of 1/(n_1! ... n_k!) over tuples with n_1 + ... + n_k = d.

    Powers appear in ``coeffs`` in the order the tuples first reach them.
    """
    return WeightPolynomial(k=k, n=n, coeffs=_coefficients(k, n))


def _coefficients(k: int, n: int, parts: int | None = None) -> dict[int, Fraction]:
    """The coefficients of the weight at index n, of the powers up to
    ``parts`` when it is set (all of them otherwise).

    Over a common denominator the coefficient of power d is S_d / d!, where
    S_d adds up the integer multinomials d!/(n_1! ... n_k!).  The tuples are
    summed in plain integers as the descent reaches them, so no list of them
    is built, and each coefficient is reduced once, as Fraction(S_d, d!).
    """
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    sums: dict[int, int] = {}

    def add(t: list[int]) -> None:
        d = sum(t)
        denom = 1
        for c in t:
            denom *= fact[c]
        sums[d] = sums.get(d, 0) + fact[d] // denom

    _each_tuple(k, n, add, parts)
    return {d: Fraction(s, fact[d]) for d, s in sums.items()}


def weight_exact(k: int, n: int, lam: Rational) -> Fraction:
    """Exact weight value at a rational rate lam > 0."""
    _check_real("rate lam", lam, 0.0)
    return weight_polynomial(k, n).evaluate(lam)


def lambda2_coefficient(k: int, j: int) -> Fraction:
    """Quadratic coefficient of the weight at index k+j, for 1 <= j <= k.

    For orders k >= 2 this equals (k+1-j)/2: the square-term tuples pair a
    part j+i with a part k-i, and there are floor((k+1-j)/2) of them except
    that j = k leaves the single doubled part (0, ..., 0, 2).  Only the
    tuples of at most two parts are walked, so the cost grows as k**2, not
    as the partition count of k+j.
    """
    _check_int("order k", k, 2)
    _check_int("offset j", j, 1, k)
    return _coefficients(k, k + j, 2).get(2, Fraction(0))
