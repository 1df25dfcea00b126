"""Tests for mode finding, local maxima, and the shape audits."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poisson_order_k import cli, pmf, structure
from poisson_order_k.pmf import _MARGIN, Params, PmfTable, build_table
from poisson_order_k.structure import (
    StructureReport,
    build_report,
    check_monotone_tail,
    decided_report,
    find_modes,
    find_triple_ties,
    local_maxima,
)
from exact import common_weights
from scan_tables import (
    geometric_rate,
    increase_reference,
    loop_table,
    modes_reference,
    scan_points,
    triple_ties_reference,
)


def scaled(t, factor):
    return t._replace(values=tuple(v * factor for v in t.values))


def local_maxima_reference(v, tie_tol):
    """Plateau walk with the symmetric closeness test, index by index."""
    last = len(v) - 1
    peaks = []
    n = 0
    while n <= last:
        m = n
        while m < last and abs(v[m + 1] - v[m]) <= tie_tol * max(abs(v[m + 1]), abs(v[m])):
            m += 1
        if (n == 0 or v[n] > v[n - 1]) and (m == last or v[m] > v[m + 1]):
            peaks.append(n)
        n = m + 1
    return peaks


def tail_reference(v, k, tol):
    """First index past k that rises by more than relative tol, pair by pair."""
    for n in range(k, len(v) - 1):
        if v[n + 1] > v[n] * (1.0 + tol):
            return n + 1
    return None


def report_reference(t, modes, maxima, ties, violation):
    """``build_report`` composed from one scan per fact: the modes, local
    maxima, triple-tie runs (read off the modes) and first tail violation
    the references above found at its tolerances."""
    p = t.params
    block = None
    if modes[0] >= p.k and modes[0] + p.k <= t.n_max:
        block = block_reference(t, modes[0])
    return StructureReport(
        modes,
        tuple(maxima),
        increase_reference(t),
        violation is None,
        violation,
        p.mean,
        float(Fraction(p.kappa) * Fraction(p.lam) - modes[-1]),
        *mode_bounds_reference(p, modes),
        block,
        bool(ties),
    )


def walk_reference(table, tie_tol, tail_tol):
    """The shape walk pair by pair, with no runs to replay: (modes, local
    maxima, first tail violation, clear) of a settled table."""
    v, k = table.values, table.params.k
    m = _MARGIN
    peak = max(v)
    floor = (1.0 - tie_tol) * peak
    floor_low, floor_high = (1.0 - tie_tol - m) * peak, (1.0 - tie_tol + m) * peak
    edge_low, edge_high = (1.0 - tie_tol) * (1.0 - m), (1.0 - tie_tol) * (1.0 + m)
    fast = edge_low if tie_tol < 0.99 else 0.0
    equal = 1.0 - m
    tail = 1.0 + tail_tol
    tail_low, tail_high = tail * (1.0 - m), tail * (1.0 + m)
    modes = [0] if v[0] >= floor else []
    near = int(floor_low <= v[0] <= floor_high)
    peaks, violation, clear = [], None, True
    top, up = 0, True
    for n, (a, b) in enumerate(zip(v, v[1:]), 1):
        if b >= floor_low:
            if b >= floor:
                modes.append(n)
            if b <= floor_high:
                near += 1
        if b < a * fast:
            if up:
                peaks.append(top)
                up = False
        else:
            if n > k and violation is None and b >= a * tail_low:
                if b > a * tail:
                    violation = n
                if b <= a * tail_high:
                    clear = False
            if a < b * fast:
                top, up = n, True
            else:
                small, big = (a, b) if a < b else (b, a)
                if big * edge_low <= small <= big * edge_high or small >= big * equal:
                    clear = False
                if big - small > tie_tol * big:
                    if b > a:
                        top, up = n, True
                    elif up:
                        peaks.append(top)
                        up = False
    if up:
        peaks.append(top)
    clear = clear and (near == 0 or near == 1 and peak <= floor_high)
    return tuple(modes), peaks, violation, clear


def block_reference(t, mode):
    """The block assumption, pair by pair: the k + 1 entries from ``mode`` up
    are nonincreasing."""
    assert t.params.k <= mode <= t.n_max - t.params.k
    seg = t.values[mode : mode + t.params.k + 1]
    return all(a >= b for a, b in zip(seg, seg[1:]))


def mode_bounds_reference(p, modes):
    """(proved-bounds verdict, conjectured-floor verdict), as the paper states
    them: every mode in [floor(kappa*lam) - kappa + 1 - [k=1], floor(kappa*lam)],
    and, when 0 is not a mode, every mode at least floor(kappa*lam) - k."""
    fl = math.floor(p.kappa * p.lam)
    low = fl - p.kappa + 1 - (p.k == 1)
    return (
        all(low <= m <= fl for m in modes),
        0 in modes or all(m >= fl - p.k for m in modes),
    )


def assert_replay_is_the_pair_walk(t, tie_tol, tail_tol, runs=None):
    """The walk over runs decides what the walk over pairs decided."""
    modes, peaks, violation, clear = walk_reference(t, tie_tol, tail_tol)
    report, decided = structure._audit(t, tie_tol, tail_tol, runs)  # decided_report's
    assert report == report_reference(t, modes, peaks, triple_ties_reference(modes), violation)
    assert decided == clear


# a power-of-two tolerance makes exact ties at the tolerance representable:
# 1 - 2**-30 and 1 + 2**-30 sit exactly on its edge next to 1
TIE = 2.0**-30
SHAPE_VALUES = st.sampled_from(
    [0.0, 5e-324, 1e-300, 0.5, 1.0 - TIE, 1.0, 1.0 + TIE, 1.0 + 2 * TIE, 1.0 + 3 * TIE, 2.0]
)
# from 0.99 on every pair takes the walk's exact tests (see structure._walk)
TIE_TOLS = [0.0, TIE, 1e-9, 1e-4, 0.25, 0.999]
TAIL_TOLS = [0.0, TIE, 1e-12]


def assert_walk_matches_references(t):
    """The report and each view of the one walk equal the scan-per-fact forms,
    each reference computed once per tolerance it reads."""
    v = t.values
    violations = {tail_tol: tail_reference(v, t.params.k, tail_tol) for tail_tol in TAIL_TOLS}
    for tail_tol, violation in violations.items():
        assert check_monotone_tail(t, tail_tol) == violation
    for tie_tol in TIE_TOLS:
        modes = modes_reference(v, tie_tol)
        maxima = local_maxima_reference(v, tie_tol)
        ties = triple_ties_reference(modes)
        assert find_modes(t, tie_tol) == modes
        assert local_maxima(t, tie_tol) == maxima
        assert find_triple_ties(t, tie_tol) == ties
        for tail_tol, violation in violations.items():
            want = report_reference(t, modes, maxima, ties, violation)
            assert build_report(t, tie_tol, tail_tol) == want
            assert decided_report(t, tie_tol, tail_tol) in (None, want)
            assert_replay_is_the_pair_walk(t, tie_tol, tail_tol)


@given(
    st.lists(SHAPE_VALUES | st.floats(0.0, 4.0), min_size=1, max_size=30),
    st.integers(1, 3),
    st.sampled_from([8.0, 0.25]),
)
@example([0.5, 1.0 - TIE, 1.0, 0.5], 1, 8.0)  # a rise exactly at the tolerance
@example([0.5, 1.0, 1.0 - TIE, 0.5], 1, 8.0)  # a fall exactly at the tolerance
@example([1.0 - TIE, 1.0, 1.0 + TIE, 0.5], 1, 8.0)  # a triple at the tolerance
@example([1.0 - TIE, 0.5, 1.0, 0.5], 2, 0.25)  # an entry exactly on the mode floor
@example([1.0, 0.5, 0.5 * (1.0 + TIE), 0.5], 1, 0.25)  # a tail rise on the tolerance
# a pair flat at tie_tol 0.999 that a test on the band widened by the margin
# would take for a clear rise: rounding outgrows the margin there
@example([0.5622218610160049, 562.2218610160888, 1e-6], 1, 1e-7)
# subnormal neighbours, where rounding is absolute: 4 and 6 times the
# smallest float are flat at tie_tol 0.25 (0.25 * 6 rounds up to 2)
@example([1.0, 4 * 5e-324, 6 * 5e-324, 5e-324], 1, 1e-7)
@settings(max_examples=300, deadline=None)
def test_shape_scans_match_references(values, k, top):
    # a strictly decreasing end keeps the table past its last peak; a low end
    # leaves the peak among the drawn values
    end = tuple(top / 2**i for i in range(k + 1))
    assert_walk_matches_references(PmfTable(Params(k, 0.5), (*values, *end), 1.0))


def test_shape_scans_match_references_on_scan_tables():
    # the scan tables of the mean-k rates to k = 60, the scan-grid rates to
    # k = 20 and the tail-bound rates
    points = [(k, lam) for k, lam in scan_points("mean-k") if k <= 60]
    points += [(k, lam) for k, lam in scan_points("grid") if k <= 20]
    points += scan_points("tail-bound")
    for k, lam in points:
        assert_walk_matches_references(loop_table(k, lam))


@pytest.mark.parametrize("name", ["grid", "mean-k", "tail-bound", "shoulder"])
def test_builder_runs_replay_to_the_pair_walk_on_scan_tables(name):
    # each table a scan decides on: the running-sum table with the runs its
    # build recorded, or the loop's table where the build refuses
    tail_tol = 1e-12
    # from tie_tol 0.99 on the walk's edge is 0.0, so that build is ``plain``
    assert structure._fast(0.995, tail_tol) == 0.0
    for k, lam in scan_points(name):
        scale = math.exp(-k * lam)
        # at edge 0.0 no pair is clear, so the build decides as it did before
        # it recorded runs: the edge must not change what it returns or refuses
        plain = pmf._running_weights(k, lam, scale, 1e-10, 0.0)
        loop = loop_table(k, lam) if plain is None else None
        for tie_tol in (0.0, 1e-9, 0.25, 0.995):
            fast = structure._fast(tie_tol, tail_tol)
            running = plain if fast == 0.0 else pmf._running_weights(k, lam, scale, 1e-10, fast)
            assert (running is None) == (plain is None)
            if running is None:
                t, runs = loop, None
            else:
                w, mass, runs = running
                assert (w, mass) == plain[:2]
                assert runs == structure._runs(w, fast)
                t = PmfTable(Params(k, lam), tuple(w), mass)
            assert_replay_is_the_pair_walk(t, tie_tol, tail_tol, runs)


@given(
    st.floats(1e-300, 1e300) | st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308]),
    st.sampled_from([1.0, 1.0 + TIE, 1.0 - TIE, 1.0 + 2e-13, 1.0 - 2e-13, 1.0 + _MARGIN]),
    st.integers(-4, 4),
    st.sampled_from([0.0, TIE, 1e-9, 0.25, 0.5, 0.995]),
    st.sampled_from([0.0, TIE, 1e-12, 0.5, 1.0]),
)
@settings(max_examples=500, deadline=None)
def test_a_clear_pair_is_no_close_call(a, ratio, ulps, tie_tol, tail_tol):
    # the running build refuses a pair within the margin of equality, and the
    # walk takes a clear rise past k for a clear tail violation; both hold at
    # the ulp edge of the band, where a < b * fast can meet b <= a * (1 + m)
    fast = structure._fast(tie_tol, tail_tol)
    b = a * ratio / fast if fast else a * ratio
    for _ in range(abs(ulps)):
        b = math.nextafter(b, math.inf if ulps > 0 else 0.0)
    for x, y in ((a, b), (b, a)):
        if x < y * fast:  # a clear rise from x to y
            assert y > x * (1.0 + _MARGIN)
            assert y > x * ((1.0 + tail_tol) * (1.0 + _MARGIN))
        if y < x * fast:  # a clear fall
            assert y < x * (1.0 - _MARGIN)


# the ratio of a pair to its predecessor: plateaus, pairs inside and on the
# edge of the tie bands, rises just past the tail tolerances, clear steps
RATIOS = st.sampled_from(
    [1.0, 1.0 + TIE, 1.0 - TIE, 1.0 + 1e-12, 1.0 + 2e-12, 1.0 - 1e-10, 0.75, 0.8,
     1.25, 0.99, 1.01, 0.5, 2.0, 1e-3]
) | st.floats(0.1, 10.0)


@given(
    st.lists(RATIOS, min_size=1, max_size=40),
    st.sampled_from([1.0, 1e-310, 1e-320]),
    st.integers(1, 4),
    st.sampled_from([0.0, TIE, 1e-9, 0.25, 0.995]),
    st.sampled_from([0.0, TIE, 1e-12, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example([1.0, 1.0, 1.0, 2.0, 0.5], 1.0, 1, 1e-9, 1e-12, 0.5)  # a plateau, then a peak
@example([2.0, 1.0 + TIE, 0.5, 1.0 + 1e-12], 1.0, 1, 0.0, 0.0, 0.5)  # tail rises past k
@example([1.25, 0.8, 0.8, 1.25], 1e-320, 2, 0.25, 0.0, 0.5)  # subnormal pairs in the band
@settings(max_examples=400, deadline=None)
def test_runs_replay_to_the_pair_walk(ratios, start, k, tie_tol, tail_tol, u):
    v = [start]
    for r in ratios:
        v.append(v[-1] * r)
    # w_1 is the rate; a strictly decreasing end keeps the table settled
    v += [v[-1] * 0.5**i for i in range(1, k + 2)]
    assume(all(b < a for a, b in zip(v[-k - 1 :], v[-k:])))  # no underflow to 0
    t = PmfTable(Params(k, v[1]), tuple(v), 1.0)
    fast = structure._fast(tie_tol, tail_tol)
    runs = structure._runs(v, fast)
    assert runs == sorted(set(runs)) and runs[:1] == [1]
    assert_replay_is_the_pair_walk(t, tie_tol, tail_tol)
    # runs found at any edge at or below the walk's replay to the pair walk
    for lower in (0.0, fast * u, fast):
        assert_replay_is_the_pair_walk(t, tie_tol, tail_tol, structure._runs(v, lower))


@given(
    st.sampled_from([0.0, TIE, 1e-9, 0.25, 0.99, 0.995]) | st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, TIE, 1e-12, 1.0]) | st.floats(0.0, allow_infinity=False),
)
@settings(max_examples=500, deadline=None)
def test_the_builds_clamp_never_lowers_the_walks_edge(tie_tol, tail_tol):
    # pmf.build_adaptive_table records runs at min(fast, (1 - m)/(1 + m)),
    # so on scan's path the runs are found at the walk's own edge
    m = _MARGIN
    assert structure._fast(tie_tol, tail_tol) <= (1.0 - m) / (1.0 + m)


@pytest.mark.parametrize("scan", [find_modes, local_maxima, find_triple_ties, build_report])
@pytest.mark.parametrize("tie_tol", [math.nan, -1.0, 1.0, 2.0])
def test_every_tie_scan_refuses_a_tolerance_outside_unit_interval(scan, tie_tol):
    with pytest.raises(ValueError, match=r"^tie_tol must be in \[0, 1\), got "):
        scan(loop_table(2, 4 / 3), tie_tol)


@pytest.mark.parametrize("tail_tol", [math.inf, math.nan, -1.0])
def test_build_report_refuses_a_tail_tolerance_that_is_negative_or_not_finite(tail_tol):
    with pytest.raises(ValueError, match=r"^tol must be >= 0 and finite, got "):
        build_report(loop_table(2, 4 / 3), tail_tol=tail_tol)


def test_build_report_checks_tie_tol_then_settledness_then_tail_tol():
    cut = build_table(Params(2, 4 / 3), 2)  # still rising at the cut
    with pytest.raises(ValueError, match="^tie_tol must"):
        build_report(cut, math.nan, math.nan)
    with pytest.raises(ValueError, match="past its last peak"):
        build_report(cut, 1e-9, math.nan)
    with pytest.raises(ValueError, match="^tol must"):
        build_report(loop_table(2, 4 / 3), 1e-9, math.nan)


@pytest.mark.parametrize("scan", [find_modes, local_maxima, find_triple_ties, build_report])
@pytest.mark.parametrize("values", [(1.0, 0.5, 0.25), (4.0, 2.0, 1.0, 1.0)])
def test_settled_means_k_plus_one_strictly_decreasing_final_weights(scan, values):
    # at k = 3: three weights are too few, and an equal final pair is no fall
    with pytest.raises(ValueError, match="past its last peak"):
        scan(PmfTable(Params(3, 0.5), values, 1.0))


def test_only_the_tail_check_takes_an_unsettled_table():
    cut = build_table(Params(2, 4 / 3), 2)
    for scan in (find_modes, local_maxima, find_triple_ties):
        with pytest.raises(ValueError, match="past its last peak"):
            scan(cut)
    # cut while rising, the entries it holds end in a tie at 18..20, while
    # the distribution's tie at tie_tol 0.1 is 18..21
    with pytest.raises(ValueError, match="past its last peak"):
        find_triple_ties(build_table(Params(1, 20.0), 20), 0.1)
    assert find_triple_ties(loop_table(1, 20.0), 0.1) == [(18, 21)]
    assert check_monotone_tail(cut) is None
    with pytest.raises(ValueError, match="ends at 2, need at least k=3"):
        check_monotone_tail(build_table(Params(3, 1.0), 2))


def decided(values, tie_tol, tail_tol, k=1):
    """Whether ``decided_report`` keeps its report on ``values``."""
    t = PmfTable(Params(k, values[1]), tuple(values), 1.0)
    return decided_report(t, tie_tol, tail_tol) is not None


class TestDecided:
    """The margin verdict of the one walk, which lets scan decide on running sums."""

    def test_scan_tables_clear_the_margin(self):
        for k, lam in [(4, 0.6026076), (2, 4 / 3), (50, 2 / 51), (3, 0.05)]:
            t = loop_table(k, lam)
            assert decided_report(t, 1e-9, 1e-12) == build_report(t, 1e-9, 1e-12)

    def test_near_flat_pair_is_refused(self):
        v = (1.0, 0.5, 0.5 * (1 + 1e-14), 0.2)
        assert not decided(v, 0.0, 1.0)
        # a pair at the edge of a loose tie tolerance is near-flat as well,
        # on either side of it
        assert not decided((1.0, 0.75, 0.1), 0.25, 1.0)
        assert not decided((2.0, 0.4, 0.3 * (1 - 1e-14), 0.1), 0.25, 1.0)
        assert decided((2.0, 0.4, 0.29, 0.1), 0.25, 1.0)
        assert decided((1.0, 0.7, 0.1), 0.25, 1.0)

    def test_pair_clearly_inside_the_tie_band_clears(self):
        # only the edge of the band is a close call, not the band itself
        assert decided((1.0, 0.8, 0.1), 0.25, 1.0)
        assert decided((1.0, 0.8 * (1 + 1e-14), 0.1), 0.25, 1.0)
        # a pair near equality is refused at any tolerance: its sign decides
        # the initial increase and the block check
        assert not decided((1.0, 1.0 - 1e-14, 0.1), 0.25, 1.0)

    def test_ratio_near_the_tail_tolerance_is_refused(self):
        v = (1.0, 0.5, 0.5 * (1 + 1e-12), 0.2)
        assert not decided(v, 0.0, 1e-12)
        assert decided(v, 0.0, 1e-10)
        # the tail is checked only past k, and only up to its first violation
        assert decided((*v, 0.1), 0.0, 1e-12, k=2)
        assert decided((1.0, 0.1, *v[1:]), 0.0, 1e-12)

    def test_entry_near_the_mode_floor_is_refused(self):
        # consecutive ratios are far from 1, so only the floor test speaks
        v = (1.0, 0.1, 3.0, 0.1, 4.0, 0.5, 0.1)
        assert not decided(v, 0.25, 1.0)
        assert decided(v[:2] + (2.9,) + v[3:], 0.25, 1.0)

    def test_a_lone_peak_is_a_mode_at_zero_tolerance(self):
        assert decided((1.0, 3.0, 0.5), 0.0, 1.0)
        assert not decided((1.0, 3.0, 0.5, 3.0 * (1 - 1e-14), 0.1), 0.0, 1.0)
        # two entries equal to the peak are both near the floor
        assert not decided((1.0, 3.0, 0.5, 3.0, 0.1), 0.0, 1.0)


NEAR = _MARGIN / 10


@given(
    st.lists(
        st.sampled_from([0.5, 1.0 - TIE, 1.0, 1.0 + TIE, 2.0, 2.0 * (1.0 - TIE)])
        | st.floats(0.25, 4.0)
        # runs flat at tie_tol = 0.25, which clear the margin inside its band
        | st.floats(0.8, 1.0),
        min_size=2,
        max_size=20,
    ),
    st.integers(1, 3),
    st.sampled_from([0.0, TIE, 0.25]),
    st.sampled_from([0.0, TIE, 1e-12]),
    st.lists(st.floats(-NEAR, NEAR), min_size=24, max_size=24),
)
# a falling and a rising triple below the peak whose spread sits exactly on
# the tolerance: the shifts move it across, and ties count only among modes
@example([0.5, 0.6, 1.0, 1.0 - TIE / 2, 1.0 - TIE, 0.3, 3.0], 1, TIE, 0.0,
         [0.0, 0.0, NEAR, 0.0, -NEAR] + [0.0] * 19)
@example([0.5, 0.6, 1.0 - TIE, 1.0 - TIE / 2, 1.0, 0.3, 3.0], 1, TIE, 0.0,
         [0.0, 0.0, -NEAR, 0.0, NEAR] + [0.0] * 19)
# a flat run at a loose tolerance, its spread clearly inside the band
@example([0.5, 0.6, 1.0, 0.9, 0.85, 0.3, 3.0], 1, 0.25, 0.0,
         [0.0, 0.0, NEAR, -NEAR, NEAR] + [0.0] * 19)
# three modes in a row at the top, each clearly above the mode floor
@example([0.5, 1.0, 1.0 - TIE / 2, 1.0 - TIE / 4, 0.3], 1, TIE, 0.0,
         [0.0, 0.0, NEAR, -NEAR, NEAR] + [0.0] * 19)
@settings(max_examples=300, deadline=None)
def test_decided_tables_report_the_same_within_a_tenth_of_the_margin(
    values, k, tie_tol, tail_tol, shifts
):
    # any table within _MARGIN / 10 of a decided one gets the same report
    v = [*values, *(0.2 / 2**i for i in range(k + 1))]
    moved = [x * (1 + d) for x, d in zip(v, shifts)]
    tables = [PmfTable(Params(k, v[1]), tuple(w), 1.0) for w in (v, moved)]
    report = decided_report(tables[0], tie_tol, tail_tol)
    if report is not None:
        assert report == build_report(tables[0], tie_tol, tail_tol)
        assert build_report(tables[1], tie_tol, tail_tol) == report


class TestFindModes:
    def test_single_mode_case(self):
        assert find_modes(loop_table(2, 4 / 3)) == (2,)

    def test_near_tie_becomes_bimodal_at_loose_tolerance(self):
        t = loop_table(2, 4.02373 / 3)
        assert find_modes(t, tie_tol=1e-4) == (2, 4)
        assert find_modes(t, tie_tol=1e-9) == (4,)

    def test_tiny_rate_concentrates_at_zero(self):
        assert find_modes(loop_table(3, 0.01)) == (0,)

    def test_refuses_truncated_table(self):
        # n_max=2 cuts the table while it is still rising
        t = build_table(Params(2, 4 / 3), 2)
        with pytest.raises(ValueError, match="past its last peak"):
            find_modes(t)

    @given(st.floats(1e-8, 1e8))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_positive_scaling(self, factor):
        t = loop_table(2, 4 / 3)
        assert find_modes(scaled(t, factor)) == find_modes(t)


class TestLocalMaxima:
    def test_near_tied_double_peak(self):
        assert local_maxima(loop_table(2, 4.02373 / 3), tie_tol=1e-4) == [2, 4]

    def test_decaying_standard_poisson(self):
        assert local_maxima(loop_table(1, 0.5)) == [0]

    def test_small_rate_has_peaks_at_zero_and_k(self):
        assert local_maxima(loop_table(4, 0.3)) == [0, 4]

    def test_plateau_collapses_to_left_endpoint(self):
        t = loop_table(1, 3.0)  # consecutive equal weights at 2 and 3
        assert local_maxima(t) == [2]


class TestInitialIncrease:
    @pytest.mark.parametrize("k, lam", [(5, 0.05), (2, 10.0), (3, 1.0)])
    def test_holds_for_any_rate(self, k, lam):
        t = loop_table(k, lam)
        assert build_report(t).initial_increase
        assert increase_reference(t)

    def test_vacuous_at_order_one(self):
        t = loop_table(1, 0.7)
        assert build_report(t).initial_increase
        assert increase_reference(t)

    def test_w1_off_the_rate_still_rises(self):
        # the field is the strict rise of w_1..w_k alone, whatever w_1 is
        t = loop_table(5, 0.3)
        t = t._replace(values=(t.values[0], t.values[1] * (1 + 1e-9), *t.values[2:]))
        assert t.values[1] != t.params.lam
        assert build_report(t).initial_increase
        assert increase_reference(t)


class TestMonotoneTail:
    def test_rise_after_k_is_located(self):
        assert check_monotone_tail(loop_table(2, 4 / 3)) == 4

    def test_small_rate_tail_decreases(self):
        t = loop_table(4, 0.05)
        assert check_monotone_tail(t) is None
        tail = t.values[4:]
        assert all(a > b for a, b in zip(tail, tail[1:]))  # strictly

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # an infinite tol forgave the rise from k to the mode at 8 here
        t = build_table(Params(2, 3.0), 12)
        assert check_monotone_tail(t) == 3
        with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
            check_monotone_tail(t, tol)

    def test_mean_k_rule_small_orders(self):
        for k in range(2, 31):
            assert check_monotone_tail(loop_table(k, 2 / (k + 1))) is None


class TestModeBoundAudits:
    @staticmethod
    def audits(k, lam, **tolerances):
        """(modes, the report's two verdicts), checked against the reference."""
        rep = build_report(loop_table(k, lam), **tolerances)
        verdicts = rep.mode_bounds_ok, rep.mode_floor_ok
        assert verdicts == mode_bounds_reference(Params(k, lam), rep.modes)
        return rep.modes, verdicts

    def test_equality_case_of_the_floor(self):
        p = Params(2, 4 / 3)
        modes, verdicts = self.audits(2, 4 / 3)
        assert verdicts == (True, True)
        assert math.floor(p.kappa * p.lam) - p.k == 2 == modes[0]

    def test_bimodal_case_floor_and_strict(self):
        lam = 4.02373 / 3
        p = Params(2, lam)
        modes, verdicts = self.audits(2, lam, tie_tol=1e-4)
        assert verdicts == (True, True)
        floor_bound = math.floor(p.kappa * p.lam) - p.k
        assert modes[0] == floor_bound  # attains equality
        assert modes[1] > floor_bound

    def test_standard_poisson_window(self):
        modes, verdicts = self.audits(1, 2.5)
        assert modes == (2,)
        assert verdicts == (True, True)

    def test_zero_mode_makes_floor_vacuous(self):
        modes, verdicts = self.audits(3, 0.01)
        assert modes == (0,)
        assert verdicts == (True, True)

    @pytest.mark.parametrize(
        "values, verdicts",
        [
            ((1.0, 2.0, 1.0, 0.5, 0.2), (False, False)),
            ((1.0, 0.5, 0.3, 0.2, 0.1), (False, True)),
            ((1.0, 1.1, 1.2, 1.3, 1.4, 2.0, 1.0, 0.5, 0.2), (False, True)),
        ],
    )
    def test_forged_modes_outside_the_window_fail(self, values, verdicts):
        # floor(kappa*lam) = 4 at (2, 4/3): the proved window is [2, 4]
        t = loop_table(2, 4 / 3)._replace(values=values)
        rep = build_report(t)
        assert (rep.mode_bounds_ok, rep.mode_floor_ok) == verdicts
        assert mode_bounds_reference(t.params, rep.modes) == verdicts


class TestBlockAssumption:
    def test_fails_in_the_equality_example(self):
        t = loop_table(2, 4 / 3)
        assert build_report(t).modes[0] == 2
        assert build_report(t).block_nonincreasing is False
        assert not block_reference(t, 2)

    def test_consecutive_double_mode_is_nonincreasing(self):
        t = loop_table(1, 3.0)
        assert build_report(t).modes[0] == 2
        assert build_report(t).block_nonincreasing is True
        assert block_reference(t, 2)

    def test_block_implies_mean_at_most_top_plus_k(self):
        # wherever the chain holds at the top mode, the mean-gap bound follows
        for k in (2, 3, 5):
            for lam in (1.0, 2.0, 4.0):
                t = loop_table(k, lam)
                modes = find_modes(t)
                if modes[0] < k:
                    continue
                if block_reference(t, modes[-1]):
                    p = t.params
                    assert p.kappa * p.lam <= modes[-1] + k + 1e-9


class TestMeanModeGap:
    def test_equality_case_value(self):
        # 3 * fl(4/3) = 4 - 2**-52 exactly, so the gap is exact where the
        # rounded mean, 4.0, would round it a second time to 2.0
        assert build_report(loop_table(2, 4 / 3)).mean_mode_gap == 2.0 - 2.0**-52

    def test_standard_poisson_case(self):
        assert build_report(loop_table(1, 3.5)).mean_mode_gap == pytest.approx(0.5)

    def test_bimodal_uses_the_top_mode(self):
        lam = 4.02373 / 3
        rep = build_report(loop_table(2, lam), tie_tol=1e-4)
        assert rep.modes == (2, 4)
        gap = rep.mean_mode_gap
        assert gap == pytest.approx(3 * lam - 4, abs=1e-12)
        assert gap < 2


class TestTripleTies:
    def test_none_in_the_reference_cases(self):
        assert find_triple_ties(loop_table(2, 4 / 3)) == []
        assert find_triple_ties(loop_table(4, 0.6026076)) == []
        assert find_triple_ties(loop_table(1, 3.0)) == []  # a pair, not a triple

    def test_synthetic_run_is_detected_only_at_the_top(self):
        t = loop_table(1, 0.5)
        # a flat run below the mode at 0 is no tie among modes
        below = t._replace(values=(1.0, 0.5, 0.5 * (1 + 1e-12), 0.5, 0.2, 0.1))
        assert find_triple_ties(below, tie_tol=1e-9) == []
        assert not build_report(below, tie_tol=1e-9).triple_ties
        top = t._replace(values=(0.5, 1.0, 1.0 * (1 + 1e-12), 1.0, 0.2, 0.1))
        assert find_triple_ties(top, tie_tol=1e-9) == [(1, 3)]
        assert build_report(top, tie_tol=1e-9).triple_ties

    @pytest.mark.parametrize("i, tie", [(48, (13, 15)), (50, (17, 19))])
    def test_three_modes_in_a_row_are_a_tie(self, i, tie):
        # scan --k-min 1 --k-max 30 --lambda-grid 0.01 20 60 --tie-tol 0.05
        # at k = 2: the greedy tie runs of the walk missed these at the top
        t = loop_table(2, geometric_rate(0.01, 20.0, 60, i))
        assert find_modes(t, 0.05) == tuple(range(tie[0], tie[1] + 1))
        assert find_triple_ties(t, 0.05) == [tie]
        assert decided_report(t, 0.05, 1e-12) == build_report(t, 0.05, 1e-12)
        assert build_report(t, 0.05).triple_ties


@pytest.mark.parametrize(
    "k, lam",
    [*cli._FIG_PARAMS.values(), *((k, lam) for k, lam in scan_points("mean-k") if k <= 30)],
)
def test_modes_are_decided_exactly(k, lam):
    # the three reference histograms of ``figs`` and the mean-k points: the
    # float verdict on each entry against the mode floor is the exact one
    t = loop_table(k, lam)
    w = common_weights(k, lam, t.n_max)
    for tie_tol in (1e-9, 0.25):
        modes = modes_reference(w, Fraction(tie_tol))
        report = build_report(t, tie_tol)
        assert report.modes == modes
        assert find_triple_ties(t, tie_tol) == triple_ties_reference(modes)
        assert report.triple_ties == bool(triple_ties_reference(modes))


@pytest.mark.parametrize("k, lam", [*cli._FIG_PARAMS.values(), *scan_points("mean-k")])
def test_mean_mode_gap_is_correctly_rounded(k, lam):
    # the exact kappa * lam - mode, rounded once
    report = build_report(loop_table(k, lam))
    exact = Fraction(k * (k + 1), 2) * Fraction(lam) - report.modes[-1]
    assert report.mean_mode_gap == float(exact)


class TestBuildReport:
    def test_equality_case_report(self):
        rep = build_report(loop_table(2, 4 / 3))
        assert rep.modes == (2,)
        assert rep.local_maxima == (2, 4)
        assert rep.initial_increase
        assert not rep.monotone_tail_from_k
        assert rep.first_tail_violation == 4
        assert rep.mean == 4.0
        assert rep.mean_mode_gap == 2.0 - 2.0**-52
        assert rep.mode_bounds_ok and rep.mode_floor_ok
        assert rep.block_nonincreasing is False
        assert not rep.triple_ties

    def test_zero_mode_report_leaves_block_undefined(self):
        rep = build_report(loop_table(3, 0.05))
        assert rep.modes == (0,)
        assert rep.block_nonincreasing is None

    def test_report_pickles_and_refuses_assignment(self):
        rep = build_report(loop_table(2, 4 / 3))
        back = pickle.loads(pickle.dumps(rep))
        assert type(back) is type(rep) and back == rep
        with pytest.raises(AttributeError):
            rep.modes = (0,)

    def test_shoulder_case_is_clean(self):
        rep = build_report(loop_table(4, 0.6026076))
        assert rep.modes == (4,)
        assert rep.monotone_tail_from_k
        assert not rep.triple_ties
