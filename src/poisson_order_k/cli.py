"""Command-line front end.

Subcommands: ``pmf`` (one table), ``roots`` (one level crossing), ``bounds``
(threshold constants over a k range), ``scan`` (shape reports over a
parameter grid), ``verify`` (the certification checks of :mod:`.checks`),
``figs`` (datasets for the four reference figures).

Output is CSV (default) or JSON with the same fields, written to stdout or
``--out``; all floats are printed with 12 significant digits so identical
configurations produce byte-identical output.  The ``roots``, ``bounds`` and
``scan`` columns are the fields of the library's result records, named only
there.  Diagnostics and scan summaries go to stderr.  Exit codes:
0 success, 1 invalid parameters, 2 computation failure, 3 verification-suite
failure.  A reader that closes stdout early is not a failure: exit 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys

from . import checks, roots, structure
from .pmf import Params, _check_real, build_adaptive_table, build_table, normalize

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # computation failures, so remap parse errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _columns(record_type) -> list[str]:
    """Output columns of a result record: its field names, in order."""
    return [f.name for f in dataclasses.fields(record_type)]


def _joined(indices: tuple) -> str:
    # a tuple of indices is one cell, "0;2", in CSV and JSON alike
    return ";".join(map(str, indices))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, tuple):
        return _joined(x)
    return str(x)


def _json_value(x):
    if isinstance(x, float):
        # reparse the 12-digit form so JSON and CSV carry identical values
        return float(format(x, ".12g"))
    if isinstance(x, tuple):
        return _joined(x)
    return x


def _emit(rows: list[dict], header: list[str], args) -> None:
    out = sys.stdout
    close = False
    if args.out is not None:
        out = open(args.out, "w", encoding="utf-8", newline="")
        close = True
    try:
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[h]) for h in header])
        else:
            payload = [{h: _json_value(row[h]) for h in header} for row in rows]
            # write in slices of the encoder's chunks: one joined string holds
            # the whole document, and one write per chunk is one system call
            # when stdout is unbuffered (python -u, PYTHONUNBUFFERED)
            chunks = json.JSONEncoder(indent=2).iterencode(payload)
            while text := "".join(itertools.islice(chunks, 4096)):
                out.write(text)
            out.write("\n")
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# pmf


def _cmd_pmf(args) -> int:
    params = Params(args.k, args.lam)
    if args.n_max is not None:
        table = build_table(params, args.n_max)
    else:
        table = build_adaptive_table(params, args.epsilon)
    probs = normalize(table)
    rows = []
    cum = 0.0
    for n, (w, f) in enumerate(zip(table.values, probs)):
        cum += f
        rows.append(
            {"n": n, "unnormalized": w, "probability": f, "cumulative": cum}
        )
    _emit(rows, ["n", "unnormalized", "probability", "cumulative"], args)
    return 0


# ---------------------------------------------------------------------------
# roots


def _cmd_roots(args) -> int:
    result = roots.solve_weight_equals(args.k, args.n, args.c, tol=args.tol)
    _emit([vars(result)], _columns(roots.RootResult), args)
    return 0


# ---------------------------------------------------------------------------
# bounds


def _check_k_range(args) -> None:
    if args.k_max < args.k_min:
        raise ValueError(f"--k-max {args.k_max} below --k-min {args.k_min}")


def _cmd_bounds(args) -> int:
    _check_k_range(args)
    rows = [
        vars(roots.bounds_record(k, tol=args.tol, with_shoulder=not args.no_shoulder))
        for k in range(args.k_min, args.k_max + 1)
    ]
    _emit(rows, _columns(roots.BoundsRecord), args)
    return 0


# ---------------------------------------------------------------------------
# scan


_SCAN_HEADER = ["k", "lambda", "n_max", *_columns(structure.StructureReport), "error"]


def _scan_point(task: tuple) -> dict:
    k, lam, tie_tol, tail_tol, epsilon = task
    row = dict.fromkeys(_SCAN_HEADER)
    row["k"], row["lambda"], row["error"] = k, lam, ""
    try:
        table = build_adaptive_table(Params(k, lam), epsilon)
        rep = structure.build_report(table, tie_tol=tie_tol, tail_tol=tail_tol)
    except (RuntimeError, ArithmeticError) as exc:
        # invalid parameters (ValueError) abort the scan with exit code 1
        row["error"] = str(exc)
        return row
    row["n_max"] = table.n_max
    row.update(vars(rep))
    return row


def _lambda_grid(args, k: int) -> list[float]:
    if args.lam is not None:
        return [args.lam]
    if args.lambda_rule == "mean-k":
        return [2.0 / (k + 1)]
    if args.lambda_rule == "tail-bound":
        return [roots.monotone_tail_bound(k)]
    if args.lambda_rule == "shoulder":
        return [roots.shoulder_lambda(k)]
    start, stop, count = args.lambda_grid
    if not (count >= 1 and count.is_integer() and 0 < start <= stop):
        raise ValueError(
            f"bad lambda grid ({start}, {stop}, {count}): "
            f"need 0 < START <= STOP and an integer COUNT >= 1"
        )
    n = int(count)
    if n == 1:
        return [start]
    if args.lambda_spacing == "linear":
        step = (stop - start) / (n - 1)
        return [start + i * step for i in range(n)]
    ratio = (stop / start) ** (1.0 / (n - 1))
    return [start * ratio**i for i in range(n)]


def _cmd_scan(args) -> int:
    if args.k_min < 1:
        raise ValueError(f"--k-min must be >= 1, got {args.k_min}")
    _check_k_range(args)
    if args.k_step < 1:
        raise ValueError(f"--k-step must be >= 1, got {args.k_step}")
    if args.lambda_rule is not None and args.k_min < 2:
        raise ValueError(f"--lambda-rule {args.lambda_rule} needs k >= 2")
    # the same checks as build_report's, made here because a point whose
    # table build fails never reaches it
    _check_real("tie_tol", args.tie_tol, 0.0, 1.0, inclusive=True)
    _check_real("tol", args.tol, 0.0, inclusive=True)
    tasks = []
    for k in range(args.k_min, args.k_max + 1, args.k_step):
        for lam in _lambda_grid(args, k):
            tasks.append((k, lam, args.tie_tol, args.tol, args.epsilon))
    if args.jobs > 1:
        # imported here: the pool pulls in multiprocessing, pickle, socket
        # and logging, which every other run would pay for at startup
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_scan_point, tasks, chunksize=8))
    else:
        rows = [_scan_point(t) for t in tasks]
    _emit(rows, _SCAN_HEADER, args)

    failures = sum(1 for r in rows if r["error"])
    clean = [r for r in rows if not r["error"]]
    summary = {
        "points": len(rows),
        "errors": failures,
        "mode_bounds_violations": sum(1 for r in clean if r["mode_bounds_ok"] is False),
        "mode_floor_violations": sum(1 for r in clean if r["mode_floor_ok"] is False),
        "triple_ties": sum(1 for r in clean if r["triple_ties"]),
        "tail_violations": sum(
            1 for r in clean if r["monotone_tail_from_k"] is False
        ),
    }
    print(
        "scan summary: " + " ".join(f"{k}={v}" for k, v in summary.items()),
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
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
        rows = [
            {
                "k": k,
                "rise_threshold": roots.rise_threshold(k),
                "asymptote": roots.SQRT5_MINUS_1,
            }
            for k in range(2, 101)
        ]
        _emit(rows, ["k", "rise_threshold", "asymptote"], args)
    else:
        k, lam = _FIG_PARAMS[args.figure]
        table = build_adaptive_table(Params(k, lam), args.epsilon)
        rows = [{"n": n, "unnormalized": w} for n, w in enumerate(table.values)]
        _emit(rows, ["n", "unnormalized"], args)
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

    p = sub.add_parser("pmf", help="emit one weight/probability table")
    p.add_argument("--k", type=int, required=True, help="order (>= 1)")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="rate (> 0)")
    p.add_argument("--n-max", type=int, default=None, help="fixed table length")
    p.add_argument(
        "--epsilon",
        type=float,
        default=1e-10,
        help="mass tolerance for adaptive length (when --n-max is omitted)",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("roots", help="solve one level crossing of the weights")
    p.add_argument("--k", type=int, required=True, help="order (>= 1)")
    p.add_argument("--n", type=int, required=True, help="weight index (>= 1)")
    p.add_argument("--c", type=float, required=True, help="level (> 0)")
    p.add_argument("--tol", type=float, default=1e-13, help="relative tolerance")
    _add_output_options(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("bounds", help="threshold constants over a k range")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-13, help="solver tolerance")
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
    p.add_argument("--tie-tol", type=float, default=1e-9, help="mode tie tolerance")
    p.add_argument("--tol", type=float, default=1e-12, help="tail comparison tolerance")
    p.add_argument("--epsilon", type=float, default=1e-10, help="mass tolerance")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_output_options(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the built-in cross-validation suites")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figs", help="emit the dataset for one reference figure")
    p.add_argument("figure", type=int, choices=(1, 2, 3, 4), help="figure id")
    p.add_argument("--epsilon", type=float, default=1e-10, help="mass tolerance")
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    raise SystemExit(main())
