"""Tables and references that several test modules share, defined once.

The four scan rate sets, the loop's adaptive table at a point (built once
per session by ``loop_table``), a record of the loop's steps
(``loop_steps``), the float references of the loop and of the initial
increase, and the mode and triple-tie references, exact on integer weights.
The exact weights live in ``exact``.

``tests/`` is not a package: a test module imports this by name,
``from scan_tables import loop_table``.  A test that times its own builds,
or that watches the build itself (a monkeypatched step, a lowered cap, a
failure), calls ``build_adaptive_table`` instead.
"""

import functools
import math

from poisson_order_k import pmf
from poisson_order_k.pmf import Params, build_adaptive_table
from poisson_order_k.roots import monotone_tail_bound, shoulder_lambda


def kterm_reference(k: int, lam: float, n_max: int) -> tuple[float, ...]:
    """w_0..w_n_max by the k-term recurrence as an indexed loop over j = 1..min(n, k).

    The shipped kernel walks a reversed window instead; it must perform the
    same float operations in the same order, so the weights agree bit for bit.
    Where lam * s alone overflows, the weight is s / n * lam, as there.
    """
    w = [1.0]
    for n in range(1, n_max + 1):
        s = 0.0
        for j in range(1, min(n, k) + 1):
            s += j * w[n - j]
        x = lam * s / n
        w.append(s / n * lam if x == math.inf else x)
    return tuple(w)


def increase_reference(t) -> bool:
    """The initial increase, pair by pair: w_1 < ... < w_k; vacuous at k = 1."""
    v, k = t.values, t.params.k
    return all(v[n] < v[n + 1] for n in range(1, k))


def triple_ties_reference(modes):
    """Maximal runs of >= 3 consecutive indices that are all modes, grown
    index by index from each mode whose predecessor is none."""
    members, runs = set(modes), []
    for start in modes:
        if start - 1 not in members:
            end = start
            while end + 1 in members:
                end += 1
            if end - start >= 2:
                runs.append((start, end))
    return runs


def modes_reference(v, tie_tol):
    """The entries from (1 - tie_tol) * peak up, exact on integers and a Fraction."""
    floor = (1 - tie_tol) * max(v)
    return tuple(n for n, x in enumerate(v) if x >= floor)


def geometric_rate(start: float, stop: float, count: int, i: int) -> float:
    """Rate i of ``scan --lambda-grid START STOP COUNT``, geometric, written out
    as ``cli._lambda_grid`` computes it."""
    return start * ((stop / start) ** (1.0 / (count - 1))) ** i


@functools.cache
def scan_points(name: str) -> tuple[tuple[int, float], ...]:
    """The (k, rate) points of a scan, as the command computes its rates."""
    if name == "grid":  # scan --k-min 2 --k-max 50 --lambda-grid 0.05 3 20
        rates = [geometric_rate(0.05, 3.0, 20, i) for i in range(20)]
        return tuple((k, lam) for k in range(2, 51) for lam in rates)
    if name == "mean-k":  # scan --k-min 2 --k-max 200 --lambda-rule mean-k
        return tuple((k, 2.0 / (k + 1)) for k in range(2, 201))
    if name == "tail-bound":  # scan --k-min 2 --k-max 50 --lambda-rule tail-bound
        return tuple((k, monotone_tail_bound(k)) for k in range(2, 51))
    if name == "shoulder":  # scan --k-min 2 --k-max 40 --lambda-rule shoulder
        return tuple((k, shoulder_lambda(k)) for k in range(2, 41))
    raise KeyError(name)


def loop_steps(monkeypatch) -> list[tuple[int, int]]:
    """The (k, n) of each entry the k-term kernel appends from now on, one per
    entry whether a table grows by one call or many; each table starts at n = 1."""
    steps = []
    grow = pmf._extend_kp

    def counted(w, k, lam, n):
        steps.extend((k, m) for m in range(len(w), n + 1))
        return grow(w, k, lam, n)

    monkeypatch.setattr(pmf, "_extend_kp", counted)
    return steps


def loop_table(k: int, lam: float, epsilon: float = 1e-10):
    """The loop's adaptive table at (k, lam), built once per session."""
    # the default passed on, so that it and an explicit 1e-10 share one entry
    return _loop_table(k, lam, epsilon)


@functools.cache
def _loop_table(k, lam, epsilon):
    return build_adaptive_table(Params(k, lam), epsilon)
