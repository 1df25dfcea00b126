"""Acceptance suite.

One test per acceptance criterion, run at the criterion's stated tolerance
and caps.  Each test prints a single pass/fail line (run with ``-s`` to see
them live); a FAIL line always comes with the failing assertion.  Criteria
01, 02, 03, 13 and 14 run the certification checks of
:mod:`poisson_order_k.checks`, the same ones ``verify`` runs, with their grids
and bounds.
"""

import functools
import math
import time

from poisson_order_k import checks
from poisson_order_k.pmf import Params, build_adaptive_table, build_table
from poisson_order_k.roots import (
    rise_threshold,
    shoulder_lambda,
    solve_weight_equals,
    weight_value,
)
from poisson_order_k.structure import (
    check_monotone_tail,
    find_modes,
    find_triple_ties,
)
from scan_tables import geometric_rate, increase_reference, loop_table, scan_points


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def log_grid(lo: float, hi: float, count: int) -> list[float]:
    return [geometric_rate(lo, hi, count, i) for i in range(count)]


def test_01_oracle_equivalence():
    start = time.perf_counter()
    ok, detail = checks.oracle_equivalence()
    elapsed = time.perf_counter() - start
    _verdict(
        1, "oracle equivalence", ok and elapsed < 10.0, f"{detail}, {elapsed:.2f}s"
    )


def test_02_recurrence_cross_check():
    _verdict(2, "recurrence cross-check", *checks.recurrence_cross_check())


def test_03_closed_form_roots():
    _verdict(3, "closed-form roots at n=2", *checks.closed_form_roots())


def test_04_bound_audit():
    ok = True
    detail = ""
    prev_rise = math.inf
    worst_res = 0.0
    for k in range(2, 101):
        r1 = solve_weight_equals(k, k, 1.0).root
        r2 = solve_weight_equals(k, k, 2.0).root
        up1 = 2.0 / (math.sqrt(2.0 * k - 1.0) + 1.0)
        up2 = 4.0 / (math.sqrt(4.0 * k - 3.0) + 1.0)
        res1 = abs(weight_value(k, k, r1) - 1.0)
        res2 = abs(weight_value(k, k, r2) - 2.0)
        worst_res = max(worst_res, res1, res2)
        rise = rise_threshold(k)
        conds = [
            r1 < up1 if k >= 3 else r1 <= up1 + 1e-12,
            r2 <= up2 + 1e-12,
            math.sqrt(5.0) - 1.0 < rise <= (math.sqrt(33.0) - 3.0) / 2.0,
            rise < prev_rise,
            res1 <= 1e-10,
            res2 <= 1e-10,
        ]
        if not all(conds):
            ok = False
            detail = f"k={k} conds={conds}"
            break
        prev_rise = rise
    _verdict(
        4,
        "bound audit (k in 2..100)",
        ok,
        detail or f"worst crossing residual {worst_res:.2e}",
    )


def test_05_initial_increase():
    violations = 0
    for k in range(2, 51):
        for lam in log_grid(0.01, 10.0, 20):
            if not increase_reference(build_table(Params(k, lam), k)):
                violations += 1
    _verdict(
        5,
        "strict increase on 1..k (k in 2..50, 20 rates)",
        violations == 0,
        f"{violations} violations",
    )


def test_06_monotone_tail_proved_regime():
    violations = 0
    for k, lam in scan_points("tail-bound"):
        if check_monotone_tail(loop_table(k, lam)) is not None:
            violations += 1
    _verdict(
        6,
        "monotone tail at the proved bound (k in 2..50)",
        violations == 0,
        f"{violations} violations",
    )


def test_07_monotone_tail_empirical_regime():
    # times its own builds: the session's cached tables would time nothing
    start = time.perf_counter()
    violations = 0
    for k in range(2, 201):
        table = build_adaptive_table(Params(k, 2.0 / (k + 1)), 1e-10)
        if check_monotone_tail(table) is not None:
            violations += 1
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "monotone tail at rate 2/(k+1) (k in 2..200)",
        violations == 0 and elapsed < 60.0,
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_08_shoulder_reproduction():
    lam = shoulder_lambda(4)
    dev = abs(lam - 0.6026076)
    table = build_table(Params(4, lam), 7)
    pair_gap = abs(table.values[5] - table.values[6]) / table.values[5]
    table_ref = build_table(Params(4, 0.6026076), 7)
    ref_gap = abs(table_ref.values[5] - table_ref.values[6]) / table_ref.values[5]
    ok = dev <= 5e-7 and pair_gap <= 1e-6 and ref_gap <= 1e-6
    _verdict(
        8,
        "shoulder rate for order 4",
        ok,
        f"rate dev {dev:.2e}, pair gap {pair_gap:.2e}",
    )


def test_09_equality_histogram():
    params = Params(2, 4.0 / 3.0)
    table = loop_table(*params)
    modes = find_modes(table)
    floor_gap = math.floor(params.kappa * params.lam) - params.k
    ok = modes == (2,) and floor_gap == 2 and params.mean == 4.0
    _verdict(
        9,
        "equality-case histogram (k=2, rate 4/3)",
        ok,
        f"modes {modes}, floor bound {floor_gap}, mean {params.mean!r}",
    )


def test_10_bimodal_histogram():
    params = Params(2, 4.02373 / 3.0)
    table = loop_table(*params)
    modes = find_modes(table, tie_tol=1e-4)
    floor_bound = math.floor(params.kappa * params.lam) - params.k
    ok = (
        modes == (2, 4)
        and modes[1] > floor_bound
        and modes[0] == floor_bound
    )
    _verdict(
        10,
        "near-bimodal histogram (k=2, rate 4.02373/3)",
        ok,
        f"modes {modes}, floor bound {floor_bound}",
    )


@functools.lru_cache(maxsize=1)
def mode_audit_grid():
    """Tables and mode sets over k in 1..20 with 30 rates spanning the
    zero-mode regime through modes above k (endpoint chosen off any
    integer-mean tie so the audit sees clean argmaxes)."""
    points = []
    for k in range(1, 21):
        for lam in log_grid(0.05, 7.9, 30):
            table = loop_table(k, lam)
            points.append((table.params, table, find_modes(table)))
    return points


def test_11_mode_bound_theorem():
    violations = 0
    zero_points = high_points = 0
    for params, _, modes in mode_audit_grid():
        fl = math.floor(params.kappa * params.lam)
        low = fl - params.kappa + 1 - (1 if params.k == 1 else 0)
        if any(not low <= m <= fl for m in modes):
            violations += 1
        if modes == (0,):
            zero_points += 1
        if modes[-1] > params.k:
            high_points += 1
    ok = violations == 0 and zero_points > 0 and high_points > 0
    _verdict(
        11,
        "mode-bound theorem (k in 1..20, 30 rates each)",
        ok,
        f"{violations} violations; {zero_points} zero-mode and "
        f"{high_points} mode>k points",
    )


def test_12_conjectured_floor_audit():
    """The conjectured floor, mode >= floor(kappa*lam) - k, and mode >= k at
    every nonzero-mode point of the grid, and no triple tie (three
    consecutive modes) at any point."""
    floor_viol = min_mode_viol = tie_viol = 0
    nonzero_points = 0
    for params, table, modes in mode_audit_grid():
        if find_triple_ties(table):
            tie_viol += 1
        if 0 in modes:
            continue
        nonzero_points += 1
        fl = math.floor(params.kappa * params.lam)
        if any(m < fl - params.k for m in modes):
            floor_viol += 1
        if modes[0] < params.k:
            min_mode_viol += 1
    detail = (
        f"audited {nonzero_points} nonzero-mode points: "
        f"floor={floor_viol}, mode<k={min_mode_viol}, triple-ties={tie_viol}"
    )
    _verdict(
        12,
        "conjectured-floor audit (observed violations)",
        floor_viol == 0 and min_mode_viol == 0 and tie_viol == 0,
        detail,
    )


def test_13_quadratic_coefficient_identity():
    _verdict(13, "quadratic coefficient identity", *checks.lambda2_coefficients())


def test_14_difference_identities():
    _verdict(14, "difference identities", *checks.difference_identities())
