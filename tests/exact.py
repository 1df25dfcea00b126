"""Exact references for the tests, all on the k-term integers W_m = m! q^m w_m
at a rational rate p/q: the correctly rounded table, the sign of w_n - c and
the table over one common denominator, which orders entries; beside them the
sign of w_n - c for n <= k on its binomial closed form, the shoulder's
closed form and the interval a printed value stands for.  Nothing here
imports ``poisson_order_k`` (a tier-1 test checks), so the library is
certified by a different formula, never against itself."""

import math
from decimal import Decimal
from fractions import Fraction


def scaled_weights(k: int, x, n_max: int) -> list[int]:
    """W_0..W_n_max, W_m = m! q^m w_m, at x = p/q > 0 (a float or a Fraction):
    W_0 = 1 and W_m = p sum_{j=1..min(m, k)} j q^(j-1) (m-1)!/(m-j)! W_{m-j},
    summed Horner-wise from j = min(m, k) down, by small factors only."""
    p, q = x.as_integer_ratio()
    big = [1]
    for m in range(1, n_max + 1):
        top = min(m, k)
        acc = top * big[m - top]
        for j in range(top - 1, 0, -1):
            acc = j * big[m - j] + (m - j) * q * acc
        big.append(p * acc)
    return big


def common_weights(k: int, lam: float, n_max: int) -> list[int]:
    """w_0..w_n_max times n_max! q^n_max, all integers: their order, and their
    ratios, are the exact weights'."""
    q = lam.as_integer_ratio()[1]
    big = scaled_weights(k, lam, n_max)
    scale = 1  # n_max! q^n_max / (m! q^m)
    for m in range(n_max, -1, -1):
        big[m] *= scale
        scale *= m * q
    return big


def weights(k: int, lam: float, n_max: int) -> tuple[float, ...]:
    """w_0..w_n_max, each exact weight correctly rounded (``int / int`` does)."""
    den = math.factorial(n_max) * lam.as_integer_ratio()[1] ** n_max
    return tuple(w / den for w in common_weights(k, lam, n_max))


def weight_sign(k: int, n: int, x, c) -> int:
    """The sign of w_n(x) - c for rationals x > 0 and c (a float at its value)."""
    q = x.as_integer_ratio()[1]
    cn, cd = c.as_integer_ratio()
    lhs, rhs = scaled_weights(k, x, n)[n] * cd, cn * math.factorial(n) * q**n
    return (lhs > rhs) - (lhs < rhs)


def prefix_weight_sign(n: int, x, c) -> int:
    """The sign of w_n(x) - c for 1 <= n <= k, rationals x = p/q > 0 and c.

    Up to k the order drops out: w_n = sum_{j=1..n} C(n-1, j-1) x^j / j!, so
    n! q^n w_n = p sum_j C(n-1, j-1) (n!/j!) p^(j-1) q^(n-j), summed
    Horner-wise in p.  O(n) steps, against the O(n k) of ``weight_sign``.
    """
    p, q = x.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    acc = a = 1  # a = C(n-1, j-1) n!/j!, at j = n
    qj = q  # q^(n-j+1)
    for j in range(n - 1, 0, -1):
        a = a * j * (j + 1) // (n - j)  # exact: the terms' ratio is (n-j) x / (j(j+1))
        acc = acc * p + a * qj
        qj *= q
    lhs, rhs = p * acc * cd, cn * math.factorial(n) * qj
    return (lhs > rhs) - (lhs < rhs)


def shoulder_gap_sign(k: int, x: Fraction) -> int:
    """The sign of the shoulder's closed form at x > 0, or 0 when left open.

    The closed form, -1/2 + sum_{m=1..k} C(k, m) x^m / (m + 2)!, tied to the
    oracle by TestShoulderGapClosedForm, is t_0 + ... + t_k - 1 with t_0 = 1/2
    and t_m = t_{m-1} (k - m + 1) x / (m (m + 2)).  Each t_m is carried in
    integers at scale 2**256, once rounded down and once rounded up, so the
    two sums bound the exact one.
    """
    p, q = x.numerator, x.denominator
    one = 1 << 256
    low = high = sum_low = sum_high = one // 2
    for m in range(1, k + 1):
        num, den = (k - m + 1) * p, m * (m + 2) * q
        low = low * num // den
        high = -(-high * num // den)
        sum_low += low
        sum_high += high
    return 1 if sum_low > one else -1 if sum_high < one else 0


def printed_interval(cell: str) -> tuple[Fraction, Fraction]:
    """(d - h, d + h) for a printed value d, h half a unit in its 12th digit."""
    d = Decimal(cell)
    h = Decimal(5).scaleb(d.adjusted() - 12)
    return Fraction(d - h), Fraction(d + h)
