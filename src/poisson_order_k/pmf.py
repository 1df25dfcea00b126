"""Recurrence evaluation of the Poisson distribution of order k.

The distribution of order k >= 1 with rate lam > 0 puts probability
exp(-k*lam) * w_n on each integer n >= 0, where the weights w_n are
polynomials in lam with w_0 = 1.  Everything here works with the weights;
``normalize`` applies the exponential factor.  Two independent recurrences
are provided (a k-term form and a four-term form) so each can certify the
other, plus the two difference identities they induce.

Weights are returned in 64-bit floating point.  They are unnormalized and
can overflow for very large ``k*lam`` (roughly k*lam > 300 with deep
tables); builders detect this and report the first offending index.  The
k-term form recurses in floats; the four-term form recurses exactly, in
scaled big integers, and rounds each entry once.  The exact tuple sum lives
in :mod:`poisson_order_k.oracle`.

The k-term loop costs min(n, k) multiply-adds for w_n and is the reference:
every table a caller prints comes from it.  One kernel, ``_extend_kp``,
grows every k-term table and alone writes the overflow fill.  ``scan``
needs only decisions (``n_max``, modes, maxima, flags), so
``build_adaptive_table(decided=...)`` first grows the table on running sums
of the last k weights, at O(1) per step, on block sums of positive terms
only, with nothing to recompute.  On the sets ``_MARGIN`` names each entry
stayed within a tenth of ``_MARGIN`` of the loop's, and the captured mass
within a tenth of ``_mass_margin(k*lam)``, though not past them (see there).
A decision that does not clear its margin is left to the loop, which then
builds the table inside the same call.  The build also records the table's
runs and hands them to ``decided``, which decides the table from them.
"""

import math
from collections import deque, namedtuple
from collections.abc import Callable

__all__ = [
    "Params",
    "PmfTable",
    "build_table",
    "build_table_km",
    "build_adaptive_table",
    "normalize",
    "diff_forward",
    "diff_km",
    "WeightUnderflowError",
]


class Params(namedtuple("Params", "k lam")):
    """Order ``k >= 1`` and rate ``lam > 0``, checked on every construction path."""

    __slots__ = ()

    def __new__(cls, k: int, lam: float):
        _check_int("order k", k, 1)
        lam = float(lam)
        _check_real("rate lam", lam, 0.0)
        return super().__new__(cls, k, lam)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, bypasses __new__
        return cls(*iterable)

    @property
    def kappa(self) -> int:
        """k*(k+1)/2; the mean of the distribution is ``kappa * lam``."""
        return self.k * (self.k + 1) // 2

    @property
    def mean(self) -> float:
        return self.kappa * self.lam


class PmfTable(namedtuple("PmfTable", "params values mass_captured")):
    """Weights w_0..w_n_max at fixed (k, lam).

    ``values[n]`` is the unnormalized pmf value at n (``values[0]`` is exactly
    1); ``mass_captured`` is the normalized mass the table accounts for,
    ``exp(-k*lam) * sum(values)``.  Instances are immutable and safe to share
    across threads.
    """

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


class DiffIdentityReport(namedtuple("DiffIdentityReport", "n lhs rhs abs_gap")):
    """One consecutive difference computed two ways.

    ``lhs`` is the difference by direct subtraction of table entries, ``rhs``
    the same difference assembled from an identity, ``abs_gap`` their absolute
    discrepancy.
    """

    __slots__ = ()


def _check_int(
    name: str, value: int, minimum: int, maximum: float = math.inf
) -> None:
    """The one integer-argument validator: ``minimum <= value <= maximum``.

    ``bool`` is not an integer here.
    """
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or not minimum <= value <= maximum
    ):
        want = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an integer {want}, got {value!r}")


def _check_real(
    name: str, value, low: float, high: float = math.inf, *, inclusive: bool = False
) -> None:
    """The one real-argument validator: ``low < value < high``.

    ``inclusive`` admits ``value == low``.  The upper end is always open, so
    NaN and infinities are refused.  Exact rationals are compared as they
    are, without rounding to float.
    """
    if not ((low <= value if inclusive else low < value) and value < high):
        if high == math.inf:
            want = f"{'>=' if inclusive else '>'} {low:g} and finite"
        else:
            want = f"in {'[' if inclusive else '('}{low:g}, {high:g})"
        raise ValueError(f"{name} must be {want}, got {value!r}")


class WeightUnderflowError(ArithmeticError):
    """A weight past index 0 underflowed to 0.0 before the table settled.

    The float table has then lost every digit of that weight, and the
    strictly decreasing run that adaptive truncation waits for cannot form.
    """


_ENVELOPE = "the float table is only usable for roughly k*lam <= 300"


def _overflow(n: int, params: Params) -> OverflowError:
    return OverflowError(
        f"weight overflowed at index n={n} for k={params.k}, lam={params.lam}; "
        + _ENVELOPE
    )


def _finish(params: Params, values: list[float]) -> PmfTable:
    scale = math.exp(-params.k * params.lam)
    try:
        total = math.fsum(values)
    except OverflowError:
        raise OverflowError(
            f"weights sum overflowed for k={params.k}, lam={params.lam}, "
            f"n_max={len(values) - 1} although every entry is finite; " + _ENVELOPE
        ) from None
    return PmfTable(params=params, values=tuple(values), mass_captured=scale * total)


def _extend_kp(w: list[float], k: int, lam: float, n: int) -> list[float]:
    """Grow a k-term table w_0..w_{m-1} through index n; return it.

    Each new entry is w_m = lam S_m / m, where S_m = sum_{j=1..k} j w_{m-j}
    is the package's one k-term window sum whose bits reach a table.  Every
    k-term table grows here: a fixed-length table from ``[1.0]`` in one
    call, the adaptive loop one entry per call (n = len(w)).

    The sum runs over j = 1..min(m, k) in that order, s += j * w[m - j], with
    j an exact float.  Walking the reversed window of the last min(m, k)
    entries performs exactly those float operations with less interpreter
    work, so the weights are bit-identical to the indexed loop; a table of
    at most k entries is walked in place, without copying the window.
    Faster forms round differently: ``sum`` compensates float sums from
    Python 3.12 on, ``math.fsum`` and ``math.sumprod`` round in another way,
    and a numpy dot reorders the sum (and its import adds ~14 MB and ~0.09 s
    per process).  When lam * s alone overflows, the quotient is formed as
    s / m * lam, so a finite weight is not reported as an overflow.  All
    terms are positive, so once an entry overflows to inf every later entry
    is inf as well: the rest of the table is filled without recursing.
    """
    for m in range(len(w), n + 1):
        s = 0.0
        j = 1.0
        for x in reversed(w if m <= k else w[-k:]):
            s += j * x
            j += 1.0
        x = lam * s / m
        if x == math.inf:
            x = s / m * lam
            if x == math.inf:
                w.extend([math.inf] * (n + 1 - m))
                break
        w.append(x)
    return w


def _kterm_weights(k: int, lam: float, n_max: int) -> list[float]:
    """w_0..w_n_max by the k-term recurrence: the kernel grown from w_0 = 1."""
    return _extend_kp([1.0], k, lam, n_max)


def build_table(params: Params, n_max: int) -> PmfTable:
    """Weights by the k-term recurrence w_n = (lam/n) * sum_{j=1..k} j*w_{n-j}.

    Terms with negative indices are zero and w_0 is seeded as exactly 1.
    Raises OverflowError at the first non-finite entry.
    """
    _check_int("n_max", n_max, 0)
    w = _kterm_weights(params.k, params.lam, n_max)
    if w[-1] == math.inf:
        raise _overflow(w.index(math.inf), params)
    return _finish(params, w)


def _quotient(x: int, f: int, s: int) -> float:
    """x / (f << s) correctly rounded, for integers x >= 0, f >= 1 and s >= 0.

    Rounded from the sticky short quotient described in ``build_table_km``;
    past the top ``ldexp`` raises ``OverflowError`` as the true division
    does.  A short x (t < 0), or a result near or below 2**-1022, where
    ``ldexp`` would round a second time, takes the true division.
    """
    t = x.bit_length() - f.bit_length() - 56
    if t < 0 or t - s < -1077:  # q >= 2**55, so the result is >= 2**(55 + t - s)
        return x / (f << s)
    y = x >> t
    q, r = divmod(y, f)
    if r or y << t != x:
        q |= 1
    return math.ldexp(float(q), t - s)


def build_table_km(params: Params, n_max: int) -> PmfTable:
    """Weights by the four-term recurrence; independent cross-check of build_table.

    w_n = (2 + (lam-2)/n) w_{n-1} - (1 - 2/n) w_{n-2}
          - ((k+1)/n) lam w_{n-k-1} + (k/n) lam w_{n-k-2}

    with negative-index terms zero.  Unlike the k-term form, this recurrence
    has mixed signs and admits non-decaying parasitic solutions, so running
    it in floating point destroys the (recessive) true solution once it
    decays below roughly 1e-16 of the table peak.  It is therefore recursed
    exactly, on the binary value lam = m/D of the rate (D a power of two),
    in the scaled integers W_n = n! * D**n * w_n:

    W_n = (2(n-1)D + m) W_{n-1} - (n-1)(n-2) D^2 W_{n-2}
          - m D^k perm(n-1, k) [(k+1) W_{n-k-1} - k (n-1-k) D W_{n-k-2}]

    The two lagged terms share one multiplication, because perm(n-1, k+1) =
    perm(n-1, k) (n-1-k).  With D = 2**e every multiplication by a power of
    D is a left shift, and so is the denominator: n! * D**n = n! << (e*n).
    Integer arithmetic needs no gcd normalisation.  Each entry is rounded to
    float once, as the correctly rounded quotient W_n / (n! * D**n), which
    keeps it an honest certification path for build_table at every index.
    ``_quotient`` rounds it from a short quotient: W_n shifted right by t
    bits so that its quotient q by n! alone has 56 or 57 bits, with q's low
    bit set when the remainder or a shifted-off bit is non-zero.  That bit
    lies below the half bit of a 53-bit float and records only that the
    true quotient exceeds q, which is all that rounding to nearest (ties to
    even) reads of the dropped tail; so float(q) is the true quotient
    correctly rounded, and ``ldexp`` scales it by 2**(t - e*n) exactly while
    the result is normal.  The entries are thus bit for bit those of the
    full-width division, at a fraction of its cost.
    """
    _check_int("n_max", n_max, 0)
    k = params.k
    m, d = params.lam.as_integer_ratio()
    e = d.bit_length() - 1  # d == 2**e
    # the step only reaches back k+2 indices; keep that window exact
    window: deque[int] = deque([1], maxlen=k + 2)
    fact = 1  # n!
    out = [1.0]
    for n in range(1, n_max + 1):
        x = (((n - 1) << (e + 1)) + m) * window[-1]
        if n >= 3:
            x -= ((n - 1) * (n - 2) * window[-2]) << (2 * e)
        if n > k:
            lag = (k + 1) * window[-(k + 1)]
            if n > k + 1:
                lag -= (k * (n - 1 - k) * window[-(k + 2)]) << e
            x -= (m * math.perm(n - 1, k) * lag) << (e * k)
        fact *= n
        try:
            fx = _quotient(x, fact, e * n)
        except OverflowError:
            raise _overflow(n, params) from None
        window.append(x)
        out.append(fx)
    return _finish(params, out)


# Adaptive truncation refuses to grow a table past this many indices.
_ADAPTIVE_CAP = 1_000_000

# Over ten times the worst gap measured between a running-sum table and the
# loop's table at the same point: 1.12e-14 relative in an entry and 1.13e-14
# absolute in the captured mass, both at k = 94 and k*lam = 700, over the
# 1,402 tables that the running sums settle among the mean-k rates and the
# tail-bound rates for k = 2..200, the shoulder rates for k = 2..100, the
# scan-grid rates (k = 2..50, 20 from 0.05 to 3) and orders 1..100 at
# k*lam = 100, 300, 500 and 700.  tests/test_pmf.py keeps entries within a
# tenth of it.  Entries, and so every tie and shape comparison, are tested
# against it; the mass against ``_mass_margin``.  A decision that clears its
# margin was the loop's decision as well at every point measured, these sets
# and the two points past them that ``_mass_margin`` names.
_MARGIN = 1.5e-13


def _mass_margin(k_lam: float) -> float:
    """The captured mass's margin at k*lam: min(``_MARGIN``, 1e-14 + 5e-16 k*lam).

    Set by ``_MARGIN``'s rule: at every k*lam it is over ten times the worst
    gap measured between the running sums' mass and the loop's, at every
    index, where each mass test is made.  Over ``_MARGIN``'s tables and the
    scan-grid rates with both ends moved by 1e-3, that gap is 5.6e-16 for
    the mean-k rates (k*lam < 2), 2.7e-15 at k*lam = 44, 3.3e-15 at most to
    k*lam = 150, 5.9e-15 at 300 and 1.13e-14 at 700: the margin is at least
    12 times each.  The gap grows with k*lam, as the table and the mass
    beyond w_0 do; a margin of 1.5e-13 at k*lam = 2 would send one mean-k
    table in ten back to the loop.  tests/test_pmf.py keeps the gap within a
    tenth of this margin on those sets.  Past them, at k > 100, the tenth
    does not hold: the gap is 0.150 of the margin at k = 172,
    lam = 0.12485215311266808 (n_max 5,573) and 0.117 at k = 195,
    lam = 0.26808564009247965 (n_max 11,226), where the test keeps it within
    the margin and both builds reach the same n_max.  ROADMAP item 17
    records longer tables with larger fractions still.
    """
    return min(_MARGIN, 1e-14 + 5e-16 * k_lam)


# The shape audits' default tie and tail tolerances (``structure``), kept
# here so that the CLI's parser reads them without loading the audits.
DEFAULT_TIE_TOL = 1e-9
DEFAULT_TAIL_TOL = 1e-12


def _running_weights(
    k: int, lam: float, scale: float, epsilon: float, fast: float
) -> tuple[list[float], float, list[int]] | None:
    """(w_0..w_n_max, mass, runs) by block sums, or None where the loop must decide.

    S_{n+1} = sum_{j=1..k} j w_{n+1-j} (negative indices zero) is formed
    from positive terms only, at O(1) per step, on two blocks (two-stack
    sliding-window aggregation: Tangwongsan, Hirzel and Schneider, VLDB
    2015).  The old block is the k entries ending at index b, and its part
    of the sum at each distance d = n - b into the new block is tabulated
    in one pass over the finished block, newest first.  The new block
    w_{b+1}..w_n grows by one entry per step, as N0 = sum w_i and
    N1 = sum (n + 1 - i) w_i, so

        S_{n+1} = d A[r] + B[r] + N1,    r = k - 1 - d,

    and at d = k the window is the new block alone: S_{n+1} = N1, and the
    new block becomes the old one.  Nothing is subtracted, so nothing
    cancels where the table falls fast (as in S += U - k w_{n-k}, Gautschi
    1967): each S_n is within gamma_{min(n, k) + 2} (Higham) of the exact
    sum of the same entries, and no error needs tracking or recomputing.
    Every stop decision must clear its margin, ``_MARGIN`` for an entry and
    ``_mass_margin(k * lam)`` for the mass: a near-tie between consecutive
    entries, or a stop that other conditions allow but the mass or the last
    value cannot settle, returns None, and so does an entry that is zero or
    not finite, or a block that would pass the cap.  Each entry is compared
    with the previous one against the shape walk's band edge ``fast``, at most
    (1 - m)/(1 + m) with m = ``_MARGIN``, first; the runs so found, as
    ``structure._runs`` finds them, reach ``decided`` as its second argument.
    """
    m = _MARGIN
    falls, rises = 1.0 - m, 1.0 + m
    mm = _mass_margin(k * lam)
    mass_low, mass_high = 1.0 - epsilon - mm, 1.0 - epsilon + mm
    if mass_high >= 1.0:
        return None  # epsilon inside the margin: the loop decides every mass test
    last_low, last_high = epsilon * falls / scale, epsilon * rises / scale
    w = [1.0]
    up = list(map(float, range(1, k + 1)))
    down = up[-2::-1]  # k - 1, .., 1.0
    old = [0.0, *up[:0:-1]]  # the block w_0 and the zeros before it: 0.0, k, .., 2.0
    n = 0
    s = 1.0  # S_1
    mass = scale
    prev = 1.0
    dec_run = 0
    runs = []
    kind = 0  # the last pair: 1 a clear rise, -1 a clear fall, 0 in the band
    inf = math.inf  # a local: the loop reads it at every step
    while n + k <= _ADAPTIVE_CAP:
        n0 = n1 = 0.0
        for c in reversed(old):  # d = 1, .., k
            n += 1
            x = lam * s / n
            if not 0.0 < x < inf:
                return None
            w.append(x)
            if x < prev * fast:  # a clear fall, so x < prev * falls
                dec_run += 1
                if kind >= 0:
                    runs.append(n)
                    kind = -1
            elif prev < x * fast:  # a clear rise, so x > prev * rises
                dec_run = 0
                if kind <= 0:
                    runs.append(n)
                    kind = 1
            else:
                if x < prev * falls:
                    dec_run += 1
                elif x > prev * rises:
                    dec_run = 0
                else:
                    return None
                runs.append(n)
                kind = 0
            mass += scale * x
            if dec_run >= k and mass >= mass_low and x <= last_high:
                if mass >= mass_high and x <= last_low:
                    return w, mass, runs
                return None
            n0 += x
            n1 += n0
            s = c + n1
            prev = x
        # The old block's part at each distance d = k, k - 1, .., 1: entry 0,
        # at d = k, is 0.0, and entry r + 1 is d A[r] + B[r] with d = k - 1 - r,
        # A[r] = sum w_i and B[r] = sum (n + 1 - i) w_i over n - r <= i <= n.
        # A loop, not map/accumulate passes: CPython's specialized float ops
        # reuse the float of a local they update, while each pass allocates a
        # float per element.
        old = [0.0]
        a = b = 0.0
        for x, j, d in zip(reversed(w), up, down):
            a += x
            b += j * x
            old.append(d * a + b)
    return None


def build_adaptive_table(
    params: Params, epsilon: float, *, decided: Callable | None = None
) -> PmfTable:
    """Grow a table until truncation can no longer distort shape analysis.

    Stops at the smallest n_max such that, simultaneously,

    * the captured normalized mass is at least 1 - epsilon,
    * the last normalized value is itself at most epsilon (the truncation
      point sits in the negligible zone, not merely past a small deficit), and
    * the final k+1 weights decrease strictly, so the table is past its last
      peak: once k+1 consecutive weights decrease, every later weight is
      smaller still, hence no mode can hide beyond the cut.

    Raises WeightUnderflowError at the first weight that underflows to 0.0
    before the table settles (a rate whose square underflows), and
    RuntimeError when ``_ADAPTIVE_CAP`` indices are exhausted first.  An
    epsilon finer than the float mass resolves is an ArithmeticError that
    names it: once the falling run has formed and the newest weight no
    longer changes the mass, no later, smaller weight can change it either,
    so a mass still below 1 - epsilon never reaches it.

    By default each weight comes from the k-term loop (``_extend_kp``), the
    reference every other table is compared with.  With ``decided``, the table
    is first grown on block sums of positive terms at O(1) per step
    (``_running_weights``).  Its entries stayed within ``_MARGIN / 10`` of the
    loop's in every table measured, and its mass within a tenth of
    ``_mass_margin(k*lam)`` on ``_MARGIN``'s sets, though not past them (see
    ``_mass_margin``); every stop decision that cleared its margin was the
    loop's, and so was ``n_max``.  When the build settles every stop decision
    outside its margin, ``decided(table, runs)`` states whether the caller's
    comparisons on the candidate, given the runs the build found at the band
    edge ``decided.fast``, clear the margin too; it may keep what it computed
    (``scan`` keeps the report of ``structure.decided_report``).  The
    candidate is returned when they do; otherwise the loop builds the table,
    once, inside this call, and decides.
    """
    _check_real("epsilon", epsilon, 0.0, 1.0)
    k, lam = params.k, params.lam
    scale = math.exp(-k * lam)
    if scale == 0.0:
        raise OverflowError(
            f"exp(-k*lam) underflows for k={k}, lam={lam}; "
            f"normalized-mass truncation is unusable at this scale"
        )
    if decided is not None:
        # a clear step must clear the near-tie test of the build by the margin
        fast = min(decided.fast, (1.0 - _MARGIN) / (1.0 + _MARGIN))
        running = _running_weights(k, lam, scale, epsilon, fast)
        if running is not None:
            w, mass, runs = running
            table = PmfTable(params=params, values=tuple(w), mass_captured=mass)
            if decided(table, runs):
                return table
    w = [1.0]
    mass = scale
    dec_run = 0
    n = 0
    cap = _ADAPTIVE_CAP  # a local: the loop reads it at every index
    while not (mass >= 1.0 - epsilon and scale * w[n] <= epsilon and dec_run >= k):
        if n >= cap:
            raise RuntimeError(
                f"adaptive truncation exceeded its cap of {cap} indices "
                f"at k={k}, lam={lam}, epsilon={epsilon}"
            )
        if w[n] == 0.0:
            raise WeightUnderflowError(
                f"weight underflowed to 0.0 at index n={n} for k={k}, lam={lam}; "
                f"the float table cannot settle at this rate"
            )
        n += 1
        _extend_kp(w, k, lam, n)
        x = w[-1]
        if not math.isfinite(x):
            raise _overflow(n, params)
        dec_run = dec_run + 1 if x < w[n - 1] else 0
        grown = mass + scale * x
        if grown == mass and dec_run >= k and mass < 1.0 - epsilon:
            raise ArithmeticError(
                f"the captured mass stopped growing at {mass!r} at index n={n} "
                f"for k={k}, lam={lam}, below 1 - epsilon for epsilon={epsilon}; "
                f"the float mass cannot resolve this epsilon"
            )
        mass = grown
    return PmfTable(params=params, values=tuple(w), mass_captured=mass)


def normalize(table: PmfTable) -> list[float]:
    """Probabilities exp(-k*lam) * w_n.

    Values may underflow to 0.0 for huge k*lam; that is documented behaviour,
    not an error.  Their sum equals ``table.mass_captured`` up to rounding.
    """
    scale = math.exp(-table.params.k * table.params.lam)
    return [scale * v for v in table.values]


def diff_forward(table: PmfTable, n: int) -> DiffIdentityReport:
    """w_{n+1} - w_n two ways: directly and via the k-term-recurrence identity.

    rhs = (lam/(n(n+1))) * sum_{j=0..k-1} (n-j) w_{n-j} - (k/n) lam w_{n-k},
    negative indices zero.  Valid for 1 <= n <= n_max - 1.
    """
    v = table.values
    if not 1 <= n < len(v) - 1:
        raise IndexError(f"need 1 <= n <= {len(v) - 2}, got {n}")
    k, lam = table.params
    lhs = v[n + 1] - v[n]
    s = 0.0
    for j in range(min(n, k - 1) + 1):
        s += (n - j) * v[n - j]
    rhs = lam * s / (n * (n + 1)) - k / n * lam * (v[n - k] if n >= k else 0.0)
    return DiffIdentityReport(n, lhs, rhs, abs(lhs - rhs))


def diff_km(table: PmfTable, n: int) -> DiffIdentityReport:
    """w_n - w_{n-1} two ways: directly and via the four-term-recurrence identity.

    rhs = (lam/n) w_{n-1} + ((n-2)/n)(w_{n-1} - w_{n-2})
          - ((k+1)/n) lam w_{n-k-1} + (k/n) lam w_{n-k-2},
    negative indices zero.  Valid for 2 <= n <= n_max.
    """
    v = table.values
    if not 2 <= n < len(v):
        raise IndexError(f"need 2 <= n <= {len(v) - 1}, got {n}")
    k, lam = table.params
    lhs = v[n] - v[n - 1]
    rhs = (
        lam / n * v[n - 1]
        + (n - 2) / n * (v[n - 1] - v[n - 2])
        - (k + 1) / n * lam * (v[n - k - 1] if n > k else 0.0)
        + k / n * lam * (v[n - k - 2] if n > k + 1 else 0.0)
    )
    return DiffIdentityReport(n, lhs, rhs, abs(lhs - rhs))
