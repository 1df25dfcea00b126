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
per tuple.
"""

from collections import namedtuple
from fractions import Fraction

from .pmf import _check_int, _check_real

__all__ = [
    "WeightPolynomial",
    "count_tuples",
    "enumerate_tuples",
    "weight_polynomial",
    "weight_exact",
    "lambda2_coefficient",
]

# Paper-scale certification (k <= 5, n <= 15) needs a few hundred tuples;
# the budget guards against accidental combinatorial blow-ups only.
_TUPLE_BUDGET = 10_000_000

Rational = Fraction | int | float


def count_tuples(k: int, n: int) -> int:
    """Number of solution tuples = partitions of n into parts of size <= k."""
    _check_int("order k", k, 1)
    _check_int("index n", n, 0)
    counts = [1] + [0] * n
    for part in range(1, k + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def enumerate_tuples(k: int, n: int) -> list[tuple[int, ...]]:
    """Every multiplicity tuple exactly once, in a fixed deterministic order.

    Recursive descent on part sizes from k down to 1, taking the multiplicity
    of each part from high to low.  n = 0 yields the single all-zero tuple.
    Refuses (RuntimeError) when the solution count exceeds ``_TUPLE_BUDGET``.
    """
    total = count_tuples(k, n)
    if total > _TUPLE_BUDGET:
        raise RuntimeError(
            f"{total} tuples for k={k}, n={n} exceeds the budget of {_TUPLE_BUDGET}"
        )
    out: list[tuple[int, ...]] = []
    counts = [0] * k

    def descend(part: int, rem: int) -> None:
        if part == 1:
            counts[0] = rem
            out.append(tuple(counts))
            counts[0] = 0
            return
        for c in range(rem // part, -1, -1):
            counts[part - 1] = c
            descend(part - 1, rem - part * c)
        counts[part - 1] = 0

    descend(k, n)
    return out


class WeightPolynomial(namedtuple("WeightPolynomial", "k n coeffs")):
    """Exact coefficients of the weight at index n as a polynomial in the rate.

    ``coeffs`` maps the power of the rate to its Fraction coefficient; powers
    with zero coefficient are absent.  Treat instances as read-only.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return max(self.coeffs)

    def evaluate(self, lam: Rational) -> Fraction:
        """Exact value at a rational rate (floats taken at their binary value)."""
        x = Fraction(lam)
        return sum((c * x**d for d, c in self.coeffs.items()), Fraction(0))


def weight_polynomial(k: int, n: int) -> WeightPolynomial:
    """Exact polynomial of the weight at index n: coefficient of power d is
    the sum of 1/(n_1! ... n_k!) over tuples with n_1 + ... + n_k = d.

    Over a common denominator that sum is S_d / d!, where S_d adds up the
    integer multinomials d!/(n_1! ... n_k!).  The tuples are summed in plain
    integers and each coefficient is reduced once, as Fraction(S_d, d!);
    powers appear in ``coeffs`` in the order the tuples first reach them.
    """
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    sums: dict[int, int] = {}
    for t in enumerate_tuples(k, n):
        d = sum(t)
        denom = 1
        for c in t:
            denom *= fact[c]
        sums[d] = sums.get(d, 0) + fact[d] // denom
    coeffs = {d: Fraction(s, fact[d]) for d, s in sums.items()}
    return WeightPolynomial(k=k, n=n, coeffs=coeffs)


def weight_exact(k: int, n: int, lam: Rational) -> Fraction:
    """Exact weight value at a rational rate lam > 0."""
    _check_real("rate lam", lam, 0.0)
    return weight_polynomial(k, n).evaluate(lam)


def lambda2_coefficient(k: int, j: int) -> Fraction:
    """Quadratic coefficient of the weight at index k+j, for 1 <= j <= k.

    For orders k >= 2 this equals (k+1-j)/2: the square-term tuples pair a
    part j+i with a part k-i, and there are floor((k+1-j)/2) of them except
    that j = k leaves the single doubled part (0, ..., 0, 2).
    """
    _check_int("order k", k, 2)
    _check_int("offset j", j, 1, k)
    return weight_polynomial(k, k + j).coeffs.get(2, Fraction(0))
