"""Command-line front end.

Subcommands: ``pmf`` (one table), ``roots`` (one level crossing), ``bounds``
(threshold constants over a k range), ``scan`` (shape reports over a
parameter grid), ``verify`` (the certification checks of :mod:`.checks`),
``figs`` (datasets for the four reference figures).

Output is CSV (default) or JSON with the same fields, written to stdout or
``--out`` by :mod:`.output` as the rows are computed; all floats are printed
with 12 significant digits so identical configurations produce
byte-identical output.  The ``roots``, ``bounds`` and ``scan`` columns are
the fields of the library's result records, named only there.  Diagnostics
and scan summaries go to stderr.  Exit codes: 0 success, 1 invalid
parameters, 2 computation failure or a failed write, 3 verification-suite
failure.  A reader that closes stdout early is not a failure: exit 0.
"""

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from collections import deque

from . import roots
from .output import _emit
from .pmf import (
    DEFAULT_TAIL_TOL,
    DEFAULT_TIE_TOL,
    Params,
    _check_int,
    _check_real,
    build_adaptive_table,
    build_table,
    normalize,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # computation failures, so remap parse errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Rows:
    """Rows made as they are read, with their number known up front:
    ``perfbench/traced.py`` counts the emitted rows with ``len``."""

    __slots__ = ("_n", "_rows")

    def __init__(self, n: int, rows) -> None:
        self._n, self._rows = n, rows

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self._rows)


# ---------------------------------------------------------------------------
# pmf


def _cmd_pmf(args) -> int:
    params = Params(args.k, args.lam)
    if args.n_max is not None:
        table = build_table(params, args.n_max)
    else:
        table = build_adaptive_table(params, args.epsilon)
    probs = normalize(table)
    rows = (
        {"n": n, "unnormalized": w, "probability": f, "cumulative": cum}
        for n, (w, f, cum) in enumerate(
            zip(table.values, probs, itertools.accumulate(probs))
        )
    )
    header = ["n", "unnormalized", "probability", "cumulative"]
    _emit(_Rows(len(probs), rows), header, args)
    return 0


# ---------------------------------------------------------------------------
# roots


def _cmd_roots(args) -> int:
    result = roots.solve_weight_equals(args.k, args.n, args.c, tol=args.tol)
    _emit([result._asdict()], list(roots.RootResult._fields), args)
    return 0


# ---------------------------------------------------------------------------
# bounds


def _check_k_range(args) -> None:
    _check_int("--k-min", args.k_min, 1)
    if args.k_max < args.k_min:
        raise ValueError(f"--k-max {args.k_max} below --k-min {args.k_min}")


def _cmd_bounds(args) -> int:
    _check_k_range(args)
    ks = range(args.k_min, args.k_max + 1)
    rows = (roots.bounds_record(k, args.tol, not args.no_shoulder)._asdict() for k in ks)
    _emit(_Rows(len(ks), rows), list(roots.BoundsRecord._fields), args)
    return 0


# ---------------------------------------------------------------------------
# scan


def _scan_header() -> list[str]:
    # imported here: of the commands only scan loads the shape audits
    from . import structure

    return ["k", "lambda", "n_max", *structure.StructureReport._fields, "error"]


def _rule_rate(rule: str, k: int) -> float | None:
    """The rule's rate at order k; None for the shoulder, which each point solves."""
    if rule == "shoulder":
        return None
    lam = 2.0 / (k + 1) if rule == "mean-k" else roots.monotone_tail_bound(k)
    if lam == 0.0:  # the tail-bound rate, from k = 443 on
        raise ValueError(f"--lambda-rule {rule}: k!/(2k)^k underflows to 0.0 at k={k}")
    return lam


def _scan_point(task: tuple) -> dict:
    from . import structure  # here, so that a worker process loads it too

    k, lam, tie_tol, tail_tol, epsilon = task
    if lam is None:
        # outside the try: a failed solve ends the whole scan (exit 2 for a
        # RuntimeError), it does not become this row's error
        lam = roots.shoulder_lambda(k)
    row = dict.fromkeys(_scan_header())
    row["k"], row["lambda"], row["error"] = k, lam, ""
    rep = None

    def decided(table, runs) -> bool:
        # the report of a running-sum table whose comparisons all clear the
        # margin is kept; otherwise the loop builds the table inside the call
        nonlocal rep
        rep = structure.decided_report(table, tie_tol, tail_tol, runs)
        return rep is not None

    decided.fast = structure._fast(tie_tol, tail_tol)  # the runs' band edge
    try:
        table = build_adaptive_table(Params(k, lam), epsilon, decided=decided)
        if rep is None:
            rep = structure.build_report(table, tie_tol=tie_tol, tail_tol=tail_tol)
    except (RuntimeError, ArithmeticError) as exc:
        # invalid parameters (ValueError) abort the scan with exit code 1
        row["error"] = str(exc)
        return row
    row["n_max"] = table.n_max
    row.update(rep._asdict())
    return row


def _scan_chunk(tasks: list) -> list[dict]:
    """The rows of a chunk of points, run by one worker call."""
    return [_scan_point(task) for task in tasks]


def _pooled(pool, tasks, workers: int):
    """The rows of ``tasks`` in task order, run by ``pool`` in chunks of 8
    points, with at most 2 * ``workers`` chunks submitted ahead of the
    writer, so that the pool holds no more of a long grid than that."""
    chunks = iter(lambda: list(itertools.islice(tasks, 8)), [])
    submit = functools.partial(pool.submit, _scan_chunk)
    window = deque(map(submit, itertools.islice(chunks, 2 * workers)))
    while window:
        rows = window.popleft().result()
        window.extend(map(submit, itertools.islice(chunks, 1)))
        yield from rows


def _lambda_grid(args):
    """(rate, n): the scan's n rates are rate(0), .., rate(n - 1).

    ``--lambda`` is one rate.  Rate i of a ``--lambda-grid`` is
    start + i * step (linear) or start * ratio**i (geometric), with
    step >= 0 and ratio >= 1, computed when its points run, so no grid is
    ever stored.  Rounding is monotone, so the linear rates rise from the
    first to the last; the geometric ones are at least start, as
    ratio**i >= 1.  With STOP finite, a STOP / START that overflows would
    make ratio inf, and every rate past the first with it, so that grid is
    refused by name; otherwise a geometric rate overflows to inf only if the
    last, the largest, does.  A rate is refused only for being at most 0 or
    not finite, so checking the first and the last rate checks them all.
    """
    if args.lam is not None:
        return (lambda i: args.lam), 1
    start, stop, count = args.lambda_grid
    if not (count >= 1 and count.is_integer() and 0 < start <= stop):
        raise ValueError(
            f"bad lambda grid ({start}, {stop}, {count}): "
            f"need 0 < START <= STOP and an integer COUNT >= 1"
        )
    n = int(count)
    if n == 1:
        return (lambda i: start), 1
    if args.lambda_spacing == "linear":
        step = (stop - start) / (n - 1)
        return (lambda i: start + i * step), n
    span = stop / start
    if span == math.inf and stop != math.inf:
        raise ValueError(
            f"bad lambda grid ({start}, {stop}, {count}): "
            "STOP / START overflows to inf; narrow the grid"
        )
    ratio = span ** (1.0 / (n - 1))
    return (lambda i: start * ratio**i), n


def _tallied(rows, summary: dict):
    """Pass the rows on, adding each to the scan summary's counts."""
    for row in rows:
        summary["points"] += 1
        if row["error"]:
            summary["errors"] += 1
        else:
            summary["mode_bounds_violations"] += row["mode_bounds_ok"] is False
            summary["mode_floor_violations"] += row["mode_floor_ok"] is False
            summary["triple_ties"] += bool(row["triple_ties"])
            summary["tail_violations"] += row["monotone_tail_from_k"] is False
        yield row


def _cmd_scan(args) -> int:
    _check_k_range(args)
    _check_int("--k-step", args.k_step, 1)
    _check_int("--jobs", args.jobs, 1)
    if args.lambda_rule is not None and args.k_min < 2:
        raise ValueError(f"--lambda-rule {args.lambda_rule} needs k >= 2")
    # every argument a point would refuse is refused here, before the first
    # row: build_report's tolerances (a point whose table build fails never
    # reaches it), build_adaptive_table's epsilon and every rate
    _check_real("tie_tol", args.tie_tol, 0.0, 1.0, inclusive=True)
    _check_real("tol", args.tol, 0.0, inclusive=True)
    _check_real("epsilon", args.epsilon, 0.0, 1.0)
    ks = range(args.k_min, args.k_max + 1, args.k_step)
    tols = (args.tie_tol, args.tol, args.epsilon)
    header = _scan_header()
    if args.lambda_rule is None:
        rate, n = _lambda_grid(args)
        for lam in (rate(0), rate(n - 1)):  # and so every rate (see _lambda_grid)
            Params(args.k_min, lam)
        tasks = ((k, rate(i), *tols) for k in ks for i in range(n))
        count = len(ks) * n
    else:
        rates = [_rule_rate(args.lambda_rule, k) for k in ks]
        tasks = ((k, lam, *tols) for k, lam in zip(ks, rates))
        count = len(ks)
    summary = dict.fromkeys(
        ("points", "errors", "mode_bounds_violations", "mode_floor_violations",
         "triple_ties", "tail_violations"),
        0,
    )
    workers = min(args.jobs, count)
    pool, rows = contextlib.nullcontext(), map(_scan_point, tasks)
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, pickle, socket
        # and logging, which every other run would pay for at startup
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        rows = _pooled(pool, tasks, workers)
    # a closed pipe or a failed point waits only for the submitted chunks
    with pool:
        _emit(_Rows(count, _tallied(rows, summary)), header, args)
    print(
        "scan summary: " + " ".join(f"{k}={v}" for k, v in summary.items()),
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    # imported here: checks loads oracle and fractions, which only verify uses
    from . import checks

    failed = False
    for name, run in checks.SUITES:
        ok, detail = run()
        if ok:
            print(f"{name}: pass ({detail})")
        else:
            failed = True
            print(f"{name}: FAIL ({detail})")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# figs


_FIG_PARAMS = {2: (4, 0.6026076), 3: (2, 4.0 / 3.0), 4: (2, 4.02373 / 3.0)}


def _cmd_figs(args) -> int:
    if args.figure == 1:
        ks = range(2, 101)
        rows = (
            {
                "k": k,
                "rise_threshold": roots.rise_threshold(k),
                "asymptote": roots.SQRT5_MINUS_1,
            }
            for k in ks
        )
        _emit(_Rows(len(ks), rows), ["k", "rise_threshold", "asymptote"], args)
    else:
        k, lam = _FIG_PARAMS[args.figure]
        table = build_adaptive_table(Params(k, lam), args.epsilon)
        rows = ({"n": n, "unnormalized": w} for n, w in enumerate(table.values))
        _emit(_Rows(len(table.values), rows), ["n", "unnormalized"], args)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poisson-order-k",
        description="Poisson distribution of order k: tables, thresholds, audits.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    epsilon = 1e-10  # every adaptive table's mass tolerance; the library has none
    root_tol = roots.DEFAULT_TOL
    tie_tol, tail_tol = DEFAULT_TIE_TOL, DEFAULT_TAIL_TOL

    p = sub.add_parser("pmf", help="emit one weight/probability table")
    p.add_argument("--k", type=int, required=True, help="order (>= 1)")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="rate (> 0)")
    p.add_argument("--n-max", type=int, default=None, help="fixed table length")
    p.add_argument(
        "--epsilon",
        type=float,
        default=epsilon,
        help="mass tolerance for adaptive length (when --n-max is omitted)",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("roots", help="solve one level crossing of the weights")
    p.add_argument("--k", type=int, required=True, help="order (>= 1)")
    p.add_argument("--n", type=int, required=True, help="weight index (>= 1)")
    p.add_argument("--c", type=float, required=True, help="level (> 0)")
    p.add_argument(
        "--tol", type=float, default=root_tol, help="stop at |w_n - c| <= tol * max(1, c)"
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("bounds", help="threshold constants over a k range")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument(
        "--tol", type=float, default=root_tol, help="stop root1 and root2 (w_k = c = 1, 2) "
        "at |w_k - c| <= tol * max(1, c), the shoulder at |w_{k+2} - w_{k+1}| <= tol * w_{k+1}"
    )
    p.add_argument(
        "--no-shoulder", action="store_true", help="skip the shoulder column"
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("scan", help="shape reports over a (k, lambda) grid")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-step", type=int, default=1)
    rate = p.add_mutually_exclusive_group(required=True)
    rate.add_argument(
        "--lambda", dest="lam", type=float, default=None, help="fixed rate"
    )
    rate.add_argument(
        "--lambda-grid",
        nargs=3,
        type=float,
        metavar=("START", "STOP", "COUNT"),
        default=None,
        help="rate grid as start stop count",
    )
    p.add_argument(
        "--lambda-spacing",
        choices=("linear", "geometric"),
        default="geometric",
        help="spacing of --lambda-grid",
    )
    rate.add_argument(
        "--lambda-rule",
        choices=("mean-k", "tail-bound", "shoulder"),
        default=None,
        help="per-k rate rule: mean-k is 2/(k+1) (mean equals k), tail-bound "
        "the proved monotone-tail bound, shoulder the equal-pair rate",
    )
    p.add_argument("--tie-tol", type=float, default=tie_tol, help="mode tie tolerance")
    p.add_argument(
        "--tol", type=float, default=tail_tol, help="tail comparison tolerance"
    )
    p.add_argument("--epsilon", type=float, default=epsilon, help="mass tolerance")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_output_options(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the built-in cross-validation suites")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figs", help="emit the dataset for one reference figure")
    p.add_argument("figure", type=int, choices=(1, 2, 3, 4), help="figure id")
    p.add_argument("--epsilon", type=float, default=epsilon, help="mass tolerance")
    _add_output_options(p)
    p.set_defaults(func=_cmd_figs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # buffered rows reach a closed pipe only when flushed; do it here,
        # where the handler below sees it
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (`figs 1 | head -1`), which is not an
        # error; stdout goes to devnull so the flush at exit cannot fail too
        _stdout_to_devnull()
        return 0
    except OSError as exc:  # a failed write, such as to a full disk
        # verify has no --out: it prints to stdout
        where = getattr(args, "out", None) or "stdout"
        print(f"write failed: {where}: {exc}", file=sys.stderr)
        _stdout_to_devnull()
        return 2
    return code


def _stdout_to_devnull() -> None:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)


if __name__ == "__main__":
    raise SystemExit(main())
