"""Shape analysis of weight tables: modes, local maxima, monotone stretches.

All analyses are pure functions of an immutable table.  One walk decides
modes, maxima and the tail, taking the exact tests, each against
``_MARGIN``, on the first pair of each run (``_runs``: a stretch of clear
rises or of clear falls, or one pair inside the tie band; a scan table has a
few): ``build_report`` and ``decided_report`` make it once, and
``find_modes``, ``local_maxima``, ``find_triple_ties`` and
``check_monotone_tail`` are views of it; the report's initial increase and
block check read their signs off the runs, and its triple ties (three
consecutive modes) off the modes.  Every analysis refuses tables that are
not past their last peak (see ``build_adaptive_table``), so neither a mode
nor a tail verdict can be an artifact of truncation.  The audits compare the
observed shape against the proved mode bounds and against the conjectured
sharper floor; conjecture violations are reported, never raised, because a
conjecture under test is not an invariant.
"""

import bisect
import math
import operator
from collections import namedtuple

from .pmf import (
    _MARGIN,
    DEFAULT_TAIL_TOL,
    DEFAULT_TIE_TOL,
    Params,
    PmfTable,
    _check_real,
)

__all__ = [
    "StructureReport",
    "find_modes",
    "local_maxima",
    "check_monotone_tail",
    "find_triple_ties",
    "build_report",
    "decided_report",
]


class StructureReport(
    namedtuple("StructureReport", """modes local_maxima initial_increase
               monotone_tail_from_k first_tail_violation mean mean_mode_gap
               mode_bounds_ok mode_floor_ok block_nonincreasing triple_ties""")
):
    """Shape summary and bound audits for one (k, lam) point.

    The fields are the columns of a ``scan`` row, in order.  ``modes`` and
    ``local_maxima`` are ascending indices; ``first_tail_violation`` is None
    when the tail from k is nonincreasing; ``block_nonincreasing`` is None
    when the block check does not apply (see ``build_report``).
    """

    __slots__ = ()


def _fast(tie_tol: float, tail_tol: float) -> float:
    """The walk's band edge: (1 - tie_tol)(1 - ``_MARGIN``), 0.0 from tie_tol
    = 0.99 on (see ``_walk``), lowered where needed so that a rise past it
    clears the tail band, 1 + tail_tol, by the margin as well."""
    m = _MARGIN
    fast = (1.0 - tie_tol) * (1.0 - m) if tie_tol < 0.99 else 0.0
    tail_high = (1.0 + tail_tol) * (1.0 + m)
    return (1.0 - m) / tail_high if fast * tail_high > 1.0 - m else fast


def _runs(v, fast: float) -> list[int]:
    """The first pair n, (v[n - 1], v[n]), of each maximal stretch of clear
    rises (a < b * fast) or of clear falls (b < a * fast), and of each pair
    between: the runs that ``pmf._running_weights`` records as it builds."""
    runs, kind = [], 0
    for n, (a, b) in enumerate(zip(v, v[1:]), 1):
        step = -1 if b < a * fast else 1 if a < b * fast else 0
        if step != kind or not step:
            runs.append(n)
        kind = step
    return runs


def _every(v, runs: list[int], lo: int, hi: int, holds) -> bool:
    """Whether the order ``holds(v[n - 1], v[n])`` for every pair n in lo..hi:
    the pairs of a run longer than one all rise, or all fall, so one pair
    answers for its run."""
    first = bisect.bisect_right(runs, lo) - 1
    return lo > hi or all(holds(v[s - 1], v[s]) for s in runs[first:] if s <= hi)


def _walk(table: PmfTable, tie_tol: float, tail_tol: float, runs=None):
    """(modes, local maxima, first tail violation, clear, runs).

    Checks ``tie_tol``, settledness, then ``tail_tol``.  The modes are the
    entries from (1 - tie_tol) * peak up.  For neighbours (a, b), b at n: a
    step beyond tie_tol * max(a, b) ends the plateau; a tail violation
    (n > k) needs b > a, the weights being non-negative.

    ``clear`` states whether each comparison cleared ``_MARGIN`` as it was
    made, so that a table within ``_MARGIN / 10`` of this one, entry by entry,
    decides every one the same way.  With m = ``_MARGIN``, a comparison fails
    to clear when the ratio it tests lies within relative m of its edge: the
    smaller of a pair over the larger near 1 - tie_tol or near 1 (the sign of
    b - a), b/a near 1 + tail_tol past k, or an entry within m * peak of the
    mode floor (the peak itself excepted when it is the only one there).  The
    sign of every pair decides the comparisons of the initial increase and the
    block check as well.

    The walk replays ``runs``, found at an edge at or below ``_fast``, or with
    None finds them there: it is the pair walk, stepping over the interior of
    clear runs.  Each run takes the exact tests on its first pair; its other
    entries count only in the entries near the floor (from its high end), in a
    rise's plateau top (its last entry), and in a rise across k (a violation
    at k + 1).  The first pair decides as its run would:
    fast = ``_fast`` <= (1 - tie_tol)(1 - m) and fast * tail_high <= 1 - m, so
    a clear pair, small < big * fast, fires no edge test and is not flat; past
    k a clear rise has b > a * tail_high, a flagless violation, and a clear
    fall b < a * tail_low.  From tie_tol = 0.99 on fast is 0, every pair a
    run.  A step clear at a lower edge is clear at ``_fast`` too, and a pair
    inside the band takes the exact tests either way, so the report and
    ``clear`` are those of the pair walk.
    """
    _check_real("tie_tol", tie_tol, 0.0, 1.0, inclusive=True)
    v, k = table.values, table.params.k
    last = len(v) - 1
    if runs is None:
        runs = _runs(v, _fast(tie_tol, tail_tol))
    if not (last >= k and _every(v, runs, last - k + 1, last, operator.gt)):
        raise ValueError(
            f"table (k={k}, lam={table.params.lam}, n_max={table.n_max}) is not "
            f"past its last peak: the final {k + 1} weights are not strictly "
            f"decreasing; build with build_adaptive_table"
        )
    _check_real("tol", tail_tol, 0.0, inclusive=True)
    m = _MARGIN
    ends = [*runs, last + 1]
    peak = max([v[s - 1] for s in ends])
    floor = (1.0 - tie_tol) * peak
    floor_low, floor_high = (1.0 - tie_tol - m) * peak, (1.0 - tie_tol + m) * peak
    # the smaller of two values over the larger: flat from 1 - tie_tol up
    edge_low, edge_high = (1.0 - tie_tol) * (1.0 - m), (1.0 - tie_tol) * (1.0 + m)
    equal = 1.0 - m  # a pair nearer than this leaves the sign of b - a open
    tail = 1.0 + tail_tol
    tail_low, tail_high = tail * (1.0 - m), tail * (1.0 + m)
    top_entries = set()  # the entries from floor_low up
    peaks, violation, clear = [], None, True
    top, up = 0, True  # left end of the plateau; whether it began with a rise
    for n, end in zip(ends, ends[1:]):
        e = end - 1  # the run's last pair, and its last entry
        a, b = v[n - 1], v[n]  # its first pair: each exact test against its margin
        j, step = (e, -1) if b > a else (n - 1, 1)  # entries n - 1..e, high end first
        while n - 1 <= j <= e and v[j] >= floor_low:
            top_entries.add(j)
            j += step
        first = max(n, k + 1)  # the run's first pair past k
        if violation is None and first <= e and b >= a * tail_low:
            if b > a * tail:
                violation = first
            if b <= a * tail_high:
                clear = False
        small, big = (a, b) if a < b else (b, a)
        if big * edge_low <= small <= big * edge_high or small >= big * equal:
            clear = False
        if big - small > tie_tol * big:  # a step past the band ends the plateau
            if b > a:
                top, up = e, True
            elif up:
                peaks.append(top)
                up = False
    if up:
        peaks.append(top)
    modes = tuple(sorted(j for j in top_entries if v[j] >= floor))
    near = sum(v[j] <= floor_high for j in top_entries)  # entries near the floor
    clear = clear and (near == 0 or near == 1 and peak <= floor_high)
    return modes, peaks, violation, clear, runs


def find_modes(table: PmfTable, tie_tol: float = DEFAULT_TIE_TOL) -> tuple[int, ...]:
    """All indices within relative tie_tol of the table maximum, ascending.

    Refuses tables whose tail is still rising at the cut, since the true
    maximum could then lie beyond it, and a ``tie_tol`` outside [0, 1).
    """
    return _walk(table, tie_tol, 0.0)[0]


def local_maxima(table: PmfTable, tie_tol: float = DEFAULT_TIE_TOL) -> list[int]:
    """Indices of local maxima, with near-flat runs collapsed to their left end.

    An index is a peak when its value is at least both neighbours'; index 0
    needs only the right condition.  Neighbouring values equal within tie_tol
    (|a - b| <= tie_tol * max(a, b), weights being non-negative) form one
    plateau counted once, at its left endpoint.  Refuses tables that are not
    past their last peak, and a ``tie_tol`` outside [0, 1).
    """
    return _walk(table, tie_tol, 0.0)[1]


def check_monotone_tail(
    table: PmfTable, tol: float = DEFAULT_TAIL_TOL
) -> int | None:
    """First violation of a nonincreasing tail from k, or None when there is none.

    A violation is an index whose value exceeds its predecessor's by more
    than relative ``tol``, so ties within tolerance pass.  Refuses tables
    that are not past their last peak, whose tail could rise beyond the cut,
    and a negative or non-finite ``tol``.
    """
    return _walk(table, 0.0, tol)[2]


def _mode_bounds(params: Params, modes: tuple[int, ...]) -> tuple[bool, bool]:
    """(proved-bounds verdict, conjectured-floor verdict) for a mode set.

    Proved: every mode lies in [floor(kappa*lam) - kappa + 1 - [k=1],
    floor(kappa*lam)].  Conjectured floor: when 0 is not a mode, every mode
    is at least floor(kappa*lam) - k; vacuously true otherwise.  Equality at
    the floor does occur (it is sharp), so the check is non-strict.
    """
    fl = math.floor(params.kappa * params.lam)
    low = fl - params.kappa + 1 - (1 if params.k == 1 else 0)
    thm_ok = all(low <= m <= fl for m in modes)
    conj_ok = 0 in modes or all(m >= fl - params.k for m in modes)
    return thm_ok, conj_ok


def _triples(modes: tuple[int, ...]) -> list[tuple[int, int]]:
    """Maximal runs of >= 3 consecutive indices in ascending ``modes``."""
    starts = [i for i, j in enumerate(modes) if not i or modes[i - 1] != j - 1]
    ends = [*starts[1:], len(modes)]
    return [(modes[s], modes[e - 1]) for s, e in zip(starts, ends) if e - s >= 3]


def find_triple_ties(
    table: PmfTable, tie_tol: float = DEFAULT_TIE_TOL
) -> list[tuple[int, int]]:
    """Maximal runs of >= 3 consecutive modes, as inclusive (start, end) pairs.

    The modes are ``find_modes``'s, so only ties at the top count, not the
    near-flat run w_1..w_k far below the mode at 0 at tiny rates.  Like
    ``find_modes``, it refuses a table that is not past its last peak, whose
    ties could continue beyond the cut, and a ``tie_tol`` outside [0, 1).
    """
    return _triples(find_modes(table, tie_tol))


def _audit(
    table: PmfTable, tie_tol: float, tail_tol: float, runs=None
) -> tuple[StructureReport, bool]:
    """(``build_report``'s report, whether its comparisons all clear ``_MARGIN``)."""
    params, k, v = table.params, table.params.k, table.values
    modes, peaks, violation, clear, runs = _walk(table, tie_tol, tail_tol, runs)
    bounds_ok, floor_ok = _mode_bounds(params, modes)
    block: bool | None = None
    if k <= modes[0] <= table.n_max - k:
        # whether the k + 1 entries from the lowest mode up are nonincreasing
        block = _every(v, runs, modes[0] + 1, modes[0] + k, operator.ge)
    p, q = params.lam.as_integer_ratio()
    report = StructureReport(
        modes=modes,
        local_maxima=tuple(peaks),
        initial_increase=_every(v, runs, 2, k, operator.lt),
        monotone_tail_from_k=violation is None,
        first_tail_violation=violation,
        mean=params.mean,
        mean_mode_gap=(params.kappa * p - modes[-1] * q) / q,  # one rounding
        mode_bounds_ok=bounds_ok,
        mode_floor_ok=floor_ok,
        block_nonincreasing=block,
        triple_ties=bool(_triples(modes)),
    )
    return report, clear


def build_report(
    table: PmfTable,
    tie_tol: float = DEFAULT_TIE_TOL,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> StructureReport:
    """Full shape summary for one table (see StructureReport fields).

    The block assumption is evaluated at the lowest mode, the index the
    mean-gap derivation selects for multi-mode sets; it is None when that
    mode is below k, as 0 is, or the table is too short to span the block.
    """
    return _audit(table, tie_tol, tail_tol)[0]


def decided_report(
    table: PmfTable, tie_tol: float, tail_tol: float, runs=None
) -> StructureReport | None:
    """``build_report``'s report when every comparison in it clears ``_MARGIN``.

    Then every table within ``_MARGIN / 10`` of this one, entry by entry, gets
    the same report; otherwise this returns None.  ``scan`` decides on a
    running-sum table this way, whose entries stay that close to the loop's
    (see ``build_adaptive_table``), on the runs its build found at an edge at
    or below ``_fast(tie_tol, tail_tol)``: a step clear there is clear at
    ``_fast`` too, so they give the pair walk's report (see ``_walk``).  None
    finds the runs at ``_fast``.
    """
    report, clear = _audit(table, tie_tol, tail_tol, runs)
    return report if clear else None
