"""Tests for the command-line interface: outputs, determinism, exit codes."""

import argparse
import ast
import contextlib
import csv
import errno
import functools
import hashlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poisson_order_k
from poisson_order_k import checks, cli, oracle, output, pmf, roots, structure
from poisson_order_k.cli import _emit, main
from exact import prefix_weight_sign, printed_interval, shoulder_gap_sign
from scan_tables import geometric_rate, loop_steps, loop_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def quiet_main(*argv: str) -> str:
    """Source that runs ``cli.main(argv)`` with stdout discarded, for a probe."""
    return (
        "import contextlib, os\n"
        "from poisson_order_k import cli\n"
        "with open(os.devnull, 'w') as null, contextlib.redirect_stdout(null):\n"
        f"    assert cli.main({list(argv)!r}) == 0"
    )


def child(*args: str, stdout, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child interpreter that imports this package, with
    its stdout on ``stdout`` (buffered unless ARGS say otherwise) and its
    stderr captured as text; it fails after ``timeout`` seconds."""
    src = str(Path(poisson_order_k.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )


def rows_of(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


class TestPmfCommand:
    def test_quadratic_row(self, capsys):
        code, out, _ = run(capsys, "pmf", "--k", "2", "--lambda", "1", "--n-max", "2")
        assert code == 0
        rows = rows_of(out)
        assert [r["n"] for r in rows] == ["0", "1", "2"]
        assert rows[2]["unnormalized"] == "1.5"

    def test_standard_poisson_probabilities(self, capsys):
        code, out, _ = run(capsys, "pmf", "--k", "1", "--lambda", "1")
        assert code == 0
        for n, row in enumerate(rows_of(out)):
            want = math.exp(-1) / math.factorial(n)
            assert float(row["probability"]) == pytest.approx(want, rel=1e-11)

    def test_shoulder_rows_agree_to_six_decimals(self, capsys):
        code, out, _ = run(capsys, "pmf", "--k", "4", "--lambda", "0.6026076")
        assert code == 0
        rows = rows_of(out)
        a, b = float(rows[5]["unnormalized"]), float(rows[6]["unnormalized"])
        assert f"{a:.6f}" == f"{b:.6f}"

    def test_cumulative_reaches_one(self, capsys):
        _, out, _ = run(capsys, "pmf", "--k", "2", "--lambda", "0.5")
        assert float(rows_of(out)[-1]["cumulative"]) == pytest.approx(1.0, abs=1e-9)


class TestRootsCommand:
    def test_quadratic_root_row(self, capsys):
        code, out, _ = run(capsys, "roots", "--k", "2", "--n", "2", "--c", "1")
        assert code == 0
        row = rows_of(out)[0]
        assert float(row["root"]) == pytest.approx(math.sqrt(3) - 1, abs=1e-11)
        assert int(row["iterations"]) >= 1


# the printed bounds cells that are wrong in their 12th digit (ROADMAP item 1)
SHOULDER_WRONG = {28, 42, 50, 63, 74, 75, 94, 95, 110, 111, 133, 140, 142, 143}
TAIL_BOUND_WRONG = {149}


def order_param(
    k: int,
    known: set[int],
    reason: str = "ROADMAP item 1: the printed value is wrong in its 12th digit",
):
    """Order k as a test parameter, a strict known failure when k is in ``known``."""
    if k not in known:
        return k
    return pytest.param(k, marks=pytest.mark.xfail(reason=reason))


@functools.cache
def printed_bounds(k_min: int = 2, k_max: int = 150) -> dict[int, dict]:
    """The rows of one ``bounds --k-min K_MIN --k-max K_MAX`` run, by order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bounds", "--k-min", str(k_min), "--k-max", str(k_max)]) == 0
    return {int(row["k"]): row for row in rows_of(out.getvalue())}


class TestBoundsCommand:
    def test_order_two_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k-min", "2", "--k-max", "2")
        assert code == 0
        row = rows_of(out)[0]
        assert float(row["root1"]) == pytest.approx(math.sqrt(3) - 1, abs=1e-11)
        assert float(row["rise_threshold"]) == pytest.approx((math.sqrt(33) - 3) / 2)
        assert float(row["tail_bound"]) == pytest.approx(0.125)
        assert row["status"] == "ok"

    def test_order_one_has_empty_optional_columns(self, capsys):
        _, out, _ = run(capsys, "bounds", "--k-min", "1", "--k-max", "1")
        row = rows_of(out)[0]
        assert row["rise_threshold"] == "" and row["shoulder"] == ""

    @pytest.mark.parametrize(
        "name, value, status",
        [("monotone_tail_bound", 10.0, "tail_bound"), ("rise_threshold", 5.0, "rise_range")],
    )
    def test_status_is_the_audit_of_the_row(self, capsys, monkeypatch, name, value, status):
        # a constant outside its proved range is named in the record and in
        # the printed row, not passed as "ok"
        monkeypatch.setattr(roots, name, lambda k: value)
        assert roots.bounds_record(3, with_shoulder=False).status == status
        code, out, _ = run(capsys, "bounds", "--k-min", "3", "--k-max", "3", "--no-shoulder")
        assert code == 0 and rows_of(out)[0]["status"] == status

    def test_rejects_inverted_range(self, capsys):
        code, _, err = run(capsys, "bounds", "--k-min", "5", "--k-max", "2")
        assert code == 1
        assert "error" in err

    def test_printed_roots_bracket_the_level(self, capsys):
        # each printed root d, widened by half a unit h in its 12th
        # significant digit, brackets the level exactly: w_k - c changes sign
        # inside (d - h, d + h)
        code, out, _ = run(
            capsys, "bounds", "--k-min", "2", "--k-max", "150", "--no-shoulder"
        )
        assert code == 0
        for row in rows_of(out):
            k = int(row["k"])
            for name, level in (("root1", 1.0), ("root2", 2.0)):
                low, high = printed_interval(row[name])
                below, above = (prefix_weight_sign(k, x, level) for x in (low, high))
                assert below < 0 < above, (k, name, row[name])

    @pytest.mark.parametrize("k", [order_param(k, SHOULDER_WRONG) for k in range(2, 151)])
    def test_printed_shoulder_brackets_the_equal_pair_rate(self, k):
        # the closed form of (w_{k+2} - w_{k+1}) / lam**2 changes sign inside
        # (d - h, d + h)
        low, high = printed_interval(printed_bounds()[k]["shoulder"])
        assert shoulder_gap_sign(k, low) < 0 < shoulder_gap_sign(k, high)

    @pytest.mark.xfail(
        reason="ROADMAP item 1: prints 0.000981620327806, the root rounds to ...808",
    )
    def test_printed_shoulder_below_the_grid_start(self):
        low, high = printed_interval(printed_bounds(2300, 2300)[2300]["shoulder"])
        assert shoulder_gap_sign(2300, low) < 0 < shoulder_gap_sign(2300, high)

    def test_shoulder_below_the_grid_start_is_printed(self):
        # from k = 2258 on the shoulder's grid reaches below 1e-3
        row = printed_bounds(2300, 2300)[2300]
        assert row["status"] == "ok" and 0 < float(row["shoulder"]) < 1e-3

    @pytest.mark.parametrize("k", [order_param(k, TAIL_BOUND_WRONG) for k in range(2, 151)])
    def test_printed_tail_bound_is_correct(self, k):
        low, high = printed_interval(printed_bounds()[k]["tail_bound"])
        assert low < Fraction(math.factorial(k), (2 * k) ** k) < high


# the tail-bound scan's orders whose w_1 == w_2 in floats, although the paper
# proves w_1 < ... < w_k at every rate (ROADMAP item 13)
INCREASE_FLOAT_TIED = set(range(23, 51))


@functools.cache
def printed_tail_bound_scan() -> tuple[dict[int, dict], str]:
    """The rows of ``scan --k-min 2 --k-max 50 --lambda-rule tail-bound``, by
    order, and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main("scan --k-min 2 --k-max 50 --lambda-rule tail-bound".split()) == 0
    return {int(row["k"]): row for row in rows_of(out.getvalue())}, err.getvalue()


class TestTailBoundScan:
    def test_no_triple_ties_below_the_mode_at_zero(self):
        # the near-flat run w_1..w_k at these tiny rates ties no modes
        rows, err = printed_tail_bound_scan()
        assert {row["modes"] for row in rows.values()} == {"0"}
        assert {row["triple_ties"] for row in rows.values()} == {"false"}
        assert " triple_ties=0 " in err

    @pytest.mark.parametrize(
        "k",
        [
            order_param(k, INCREASE_FLOAT_TIED, "ROADMAP item 13: w_1 == w_2 in floats")
            for k in range(2, 51)
        ],
    )
    def test_initial_increase_is_reported(self, k):
        assert printed_tail_bound_scan()[0][k]["initial_increase"] == "true"


class TestScanCommand:
    def test_mean_k_rule_is_monotone(self, capsys):
        code, out, err = run(
            capsys, "scan", "--k-min", "2", "--k-max", "12", "--lambda-rule", "mean-k"
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 11
        assert all(r["monotone_tail_from_k"] == "true" for r in rows)
        assert "tail_violations=0" in err

    def test_bimodal_flag_near_the_tied_rate(self, capsys):
        lam = 4.02373 / 3
        code, out, _ = run(
            capsys,
            "scan",
            "--k-min", "2", "--k-max", "2",
            "--lambda", f"{lam!r}",
            "--tie-tol", "1e-4",
        )
        assert code == 0
        assert rows_of(out)[0]["modes"] == "2;4"

    def test_standard_poisson_modes_track_the_rate(self, capsys):
        code, out, _ = run(
            capsys,
            "scan",
            "--k-min", "1", "--k-max", "1",
            "--lambda-grid", "0.4", "4.4", "3",
            "--lambda-spacing", "linear",
        )
        assert code == 0
        for row in rows_of(out):
            top = int(row["modes"].split(";")[-1])
            assert top == math.floor(float(row["lambda"]))

    @pytest.mark.parametrize(
        "argv",
        [
            "--k-min 2 --k-max 6 --lambda-rule mean-k",
            "--k-min 2 --k-max 6 --lambda-rule mean-k --format json",
            # the other CLI path into the shoulder solve; every shoulder
            # point falls back to the loop inside its scan call
            "--k-min 2 --k-max 40 --lambda-rule shoulder",
            # mean-k points decide on running sums, in the workers as well:
            # at the default tie tolerance, at a loose one where pairs inside
            # the band decide too, at 0, and at 0.995, where every pair is a
            # run of its own
            "--k-min 2 --k-max 200 --k-step 9 --lambda-rule mean-k",
            "--k-min 2 --k-max 200 --k-step 9 --lambda-rule mean-k --tie-tol 0.25",
            "--k-min 2 --k-max 200 --k-step 9 --lambda-rule mean-k --tie-tol 0",
            "--k-min 2 --k-max 200 --k-step 9 --lambda-rule mean-k --tie-tol 0.995",
            # the JSON emitter, on grid points the workers decide on running sums
            "--k-min 2 --k-max 30 --lambda-grid 0.05 3 8 --format json",
            # the tail-bound rule, whose rate underflows to 0.0 from k = 443 on
            "--k-min 2 --k-max 60 --lambda-rule tail-bound",
        ],
    )
    def test_parallel_output_matches_serial(self, capsys, argv):
        code1, out1, _ = run(capsys, "scan", *argv.split(), "--jobs", "1")
        code2, out2, _ = run(capsys, "scan", *argv.split(), "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_a_spawned_worker_loads_the_audits_itself(self):
        # cli imports structure only inside the scan path, so a worker that
        # starts from a fresh interpreter must import it in _scan_point
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        tols = (pmf.DEFAULT_TIE_TOL, pmf.DEFAULT_TAIL_TOL, 1e-10)
        tasks = [(2, 0.5, *tols), (40, 2.0 / 41, *tols), (3, None, *tols)]
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            got = list(pool.map(cli._scan_point, tasks))
        assert got == [cli._scan_point(task) for task in tasks]
        assert [row["error"] for row in got] == ["", "", ""]

    def test_requires_a_rate_argument(self, capsys):
        code, _, err = run(capsys, "scan", "--k-min", "2", "--k-max", "3")
        assert code == 1
        assert "required" in err

    @pytest.mark.parametrize(
        "rates, named",
        [
            (
                ["--lambda", "1", "--lambda-rule", "mean-k"],
                "error: argument --lambda-rule: not allowed with argument --lambda",
            ),
            (["--lambda", "0.5", "--lambda-grid", "1", "2", "3"], "not allowed with"),
            (["--lambda-grid", "1", "2", "3", "--lambda-rule", "shoulder"], "not allowed with"),
            (["--lambda-grid", "1", "2", "2.7"], "integer COUNT"),
        ],
    )
    def test_ambiguous_rate_source_is_one(self, capsys, rates, named):
        code, out, err = run(capsys, "scan", "--k-min", "2", "--k-max", "2", *rates)
        assert code == 1
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("spacing", ["geometric", "linear"])
    def test_lambda_grid_is_lazy_and_keeps_every_rate(self, spacing):
        def grid(start, stop, count):
            args = argparse.Namespace(
                lam=None, lambda_grid=[start, stop, count], lambda_spacing=spacing
            )
            return cli._lambda_grid(args)

        def listed(start, stop, n, i):  # rate i by the grid formula, written out
            if spacing == "linear":
                return start + i * ((stop - start) / (n - 1))
            return geometric_rate(start, stop, n, i)

        rate, n = grid(0.05, 3.0, 20.0)
        assert n == 20
        assert [rate(i).hex() for i in range(n)] == [
            listed(0.05, 3.0, n, i).hex() for i in range(n)
        ]
        rate, n = grid(0.1, 1.0, 1e9)  # far too many rates to hold
        assert n == 10**9
        for i in (0, n - 1, 123_456_789):
            assert rate(i).hex() == listed(0.1, 1.0, n, i).hex()
        assert rate(0) == 0.1

    def test_underflowing_weights_become_an_error_row(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--k-min", "2", "--k-max", "3", "--lambda", "1e-200"
        )
        assert code == 0
        errors = [r["error"] for r in rows_of(out)]
        assert [e.split(" for ")[0] for e in errors] == [
            "weight underflowed to 0.0 at index n=3",
            "weight underflowed to 0.0 at index n=4",
        ]


def scan_rows(monkeypatch, argv, *, loop=False):
    """The rows a scan emits; with ``loop``, every table is the loop's."""
    rows = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda got, header, args: rows.extend(got))
        if loop:
            m.setattr(
                cli,
                "build_adaptive_table",
                lambda params, epsilon, **_: loop_table(*params, epsilon),
            )
        assert main(["scan", *argv]) == 0
    return rows


class TestScanDecisions:
    """scan decides on running sums; its rows must be the loop's rows."""

    @pytest.mark.parametrize(
        "argv",
        [
            "--k-min 2 --k-max 50 --lambda-rule tail-bound",
            "--k-min 2 --k-max 60 --lambda-rule shoulder",
            "--k-min 2 --k-max 80 --k-step 13 --lambda-grid 0.01 6 12",
            "--k-min 2 --k-max 30 --k-step 4 --lambda-grid 0.1 3 10 --lambda-spacing linear",
            "--k-min 2 --k-max 40 --k-step 2 --lambda-rule mean-k --tie-tol 0.25",
            "--k-min 2 --k-max 40 --k-step 3 --lambda-grid 0.05 3 8 --tol 0",
        ],
    )
    def test_rows_are_the_loops(self, capsys, monkeypatch, argv):
        rows = scan_rows(monkeypatch, argv.split())
        assert rows == scan_rows(monkeypatch, argv.split(), loop=True)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            "--k-min 2 --k-max 80 --k-step 13 --lambda-grid 0.01 6 12",
            # one point, so none: 10,476 entries at k = 4000 take a few
            # milliseconds on running sums, about 2 s on the O(n k) loop
            "--k-min 4000 --k-max 4000 --lambda 1e-6",
        ],
    )
    def test_most_points_build_no_loop_table(self, capsys, monkeypatch, argv):
        steps = loop_steps(monkeypatch)
        rows = scan_rows(monkeypatch, argv.split())
        assert [n for _, n in steps].count(1) < len(rows) / 4
        assert [row["error"] for row in rows] == [""] * len(rows)
        capsys.readouterr()

    def test_loose_tie_tolerance_rebuilds_only_close_calls(self, capsys, monkeypatch):
        # a pair clearly inside the tie band decides on running sums; the loop
        # rebuilds the stop rule's close calls and k = 2, whose w_1 / w_2 is
        # 3/4 exactly, on the edge of the band.  At this epsilon the mass of
        # k = 25 and k = 60 ends within the mass margin of 1 - epsilon.
        refused, running = [], pmf._running_weights

        def counted_running(k, *args):
            got = running(k, *args)
            if got is None:
                refused.append(k)
            return got

        argv = "--k-min 2 --k-max 60 --lambda-rule mean-k --tie-tol 0.25 --epsilon 1e-11".split()
        with monkeypatch.context() as m:
            m.setattr(pmf, "_running_weights", counted_running)
            steps = loop_steps(m)
            rows = scan_rows(monkeypatch, argv)
        assert refused != [] and 2 not in refused
        assert [k for k, n in steps if n == 1] == [2, *refused]
        assert rows == scan_rows(monkeypatch, argv, loop=True)
        capsys.readouterr()

    def test_pool_never_outnumbers_the_points(self, capsys, monkeypatch):
        started = []
        fake_pool(monkeypatch, started)
        argv = ["scan", "--k-min", "2", "--k-max", "2", "--lambda", "0.5", "--jobs", "3"]
        assert run(capsys, *argv)[0] == 0
        assert started == []  # one point runs in this process
        argv[4] = "3"
        assert run(capsys, *argv)[0] == 0
        assert started == [2]

    def test_rule_rates_are_solved_in_the_workers(self, capsys, monkeypatch):
        events = []
        fake_pool(monkeypatch, events)  # logs its worker count when it starts
        solve = roots.shoulder_lambda
        monkeypatch.setattr(roots, "shoulder_lambda", lambda k: events.append(k) or solve(k))
        argv = "scan --k-min 2 --k-max 4 --lambda-rule shoulder --jobs 2".split()
        assert run(capsys, *argv)[0] == 0
        assert events == [2, 2, 3, 4]


def fake_pool(monkeypatch, log):
    """Replace the process pool by an in-process one that logs its worker
    count; return the list of the chunks of points submitted to it."""
    import concurrent.futures

    submitted = []

    class Pool:
        def __init__(self, max_workers):
            log.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, chunk):
            # run at once: a completed future, as a worker's would be
            submitted.append(chunk)
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(chunk))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return submitted


class TestStreaming:
    """scan writes each row as its point completes, so its memory does not
    grow with the grid, and a failure leaves exactly the rows before it."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_row_is_out_before_the_next_point(self, capsys, monkeypatch, fmt):
        stdout, seen = io.StringIO(), []
        point = cli._scan_point

        def spied(task):
            seen.append(stdout.getvalue())
            return point(task)

        monkeypatch.setattr(cli, "_scan_point", spied)
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = "scan --k-min 2 --k-max 4 --lambda-grid 0.5 2 2 --format".split()
        assert main([*argv, fmt]) == 0
        whole = stdout.getvalue()
        assert len(seen) == 6 and seen[0] == ""
        for done, before in enumerate(seen[1:], start=1):
            assert whole.startswith(before)
            if fmt == "csv":
                assert before.count("\n") == done + 1  # the header and the rows
            else:
                assert before.count("\n  }") == done and before.endswith("\n  }")
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_first_point_failure_writes_nothing(self, capsys, monkeypatch, tmp_path, fmt):
        def fails(k):
            raise RuntimeError(f"no bracket at k={k}")

        monkeypatch.setattr(roots, "shoulder_lambda", fails)
        argv = f"scan --k-min 2 --k-max 3 --lambda-rule shoulder --format {fmt}".split()
        kept, fresh = tmp_path / "kept.out", tmp_path / "fresh.out"
        kept.write_text("an earlier scan\n")
        for path in (kept, fresh):
            code, out, err = run(capsys, *argv, "--out", str(path))
            assert (code, out, err) == (2, "", "computation failed: no bracket at k=2\n")
        assert kept.read_text() == "an earlier scan\n"
        assert not fresh.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_leaves_the_rows_before_it(self, capsys, monkeypatch, fmt):
        argv = f"scan --k-min 2 --k-max 3 --lambda-rule shoulder --format {fmt}".split()
        argv[4] = "2"
        _, first, _ = run(capsys, *argv)  # the k = 2 scan alone
        argv[4] = "3"
        solve = roots.shoulder_lambda

        def fails_at_three(k):
            if k == 3:
                raise RuntimeError("no bracket at k=3")
            return solve(k)

        monkeypatch.setattr(roots, "shoulder_lambda", fails_at_three)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, "computation failed: no bracket at k=3\n")
        if fmt == "csv":
            assert len(rows_of(out)) == 1 and out == first  # the header and k = 2
        else:
            assert out == first.removesuffix("\n]\n")  # the document is incomplete

    def test_failed_point_drops_the_pools_unstarted_points(self, capsys, monkeypatch):
        log = []

        def fails(k):
            raise RuntimeError(f"no bracket at k={k}")

        monkeypatch.setattr(roots, "shoulder_lambda", fails)
        submitted = fake_pool(monkeypatch, log)
        argv = "scan --k-min 2 --k-max 200 --lambda-rule shoulder --jobs 2".split()
        assert run(capsys, *argv)[:2] == (2, "")
        # only the window, 2 * jobs chunks of 8 points, was ever submitted
        assert log == [2] and sum(map(len, submitted)) == 32

    def test_pool_holds_a_window_of_points_ahead_of_the_writer(self, capsys, monkeypatch):
        submitted, seen = fake_pool(monkeypatch, []), []

        def first_row(rows, header, args):
            next(iter(rows))
            seen.append(sum(map(len, submitted)))

        monkeypatch.setattr(cli, "_emit", first_row)
        argv = "scan --k-min 2 --k-max 2 --lambda-grid 0.1 1 10000 --jobs 2".split()
        assert run(capsys, *argv)[0] == 0
        # the window of 2 * jobs chunks of 8 points, refilled as the first
        # chunk's rows reach the writer
        assert seen == [40]


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(": pass" in line for line in lines)
        assert any(line.startswith("oracle-equivalence") for line in lines)

    def test_failing_suite_exits_three(self, capsys, monkeypatch):
        suites = list(checks.SUITES)
        name = suites[2][0]
        suites[2] = (name, lambda: (False, "planted"))
        monkeypatch.setattr(checks, "SUITES", tuple(suites))
        code, out, _ = run(capsys, "verify")
        assert code == 3
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines.pop(2) == f"{name}: FAIL (planted)"
        assert all(": pass (" in line for line in lines)


class TestFigsCommand:
    def test_threshold_curve(self, capsys):
        code, out, _ = run(capsys, "figs", "1")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 99
        vals = [float(r["rise_threshold"]) for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > math.sqrt(5) - 1 for v in vals)
        assert {r["asymptote"] for r in rows} == {f"{math.sqrt(5) - 1:.12g}"}

    def test_equality_histogram_peaks_at_two(self, capsys):
        _, out, _ = run(capsys, "figs", "3")
        rows = rows_of(out)
        top = max(rows, key=lambda r: float(r["unnormalized"]))
        assert top["n"] == "2"

    def test_bimodal_histogram_rows_agree(self, capsys):
        _, out, _ = run(capsys, "figs", "4")
        rows = rows_of(out)
        a = float(rows[2]["unnormalized"])
        b = float(rows[4]["unnormalized"])
        assert abs(a - b) / max(a, b) <= 1e-4

    def test_unknown_figure_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "figs", "7")
        assert code == 1
        assert "invalid choice" in err


# every kind of cell a row carries: floats at any precision (printed at 12
# digits), index tuples, and strings that JSON must escape
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**15), 10**15),
    st.floats(),
    st.lists(st.integers(0, 10**4), max_size=4).map(tuple),
    st.text(st.sampled_from('ab;,"\\\n\t\x00é€𝄞'), max_size=8),
    st.text(max_size=8),
)


def emitted(rows, header, fmt: str) -> str:
    """What ``_emit`` writes to stdout for rows of cells."""
    got = io.StringIO()
    with contextlib.redirect_stdout(got):
        _emit([dict(zip(header, row)) for row in rows], header,
              argparse.Namespace(format=fmt, out=None))
    return got.getvalue()


def json_cell(x):
    """A cell as the JSON rows should carry it, written out independently."""
    if isinstance(x, float):
        return float(format(x, ".12g"))
    if isinstance(x, tuple):
        return ";".join(str(i) for i in x)
    return x


UNLOADED_BY_CLI = [
    "multiprocessing", "concurrent.futures", "dataclasses", "inspect", "fractions", "json",
    "csv", "poisson_order_k.oracle", "poisson_order_k.checks",
]


class TestOutputContract:
    def test_byte_identical_reruns(self, capsys):
        args = ("bounds", "--k-min", "2", "--k-max", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "\r" not in out1

    # every bounds column, the shoulder's included
    @pytest.mark.parametrize("argv", ["roots --k 3 --n 3 --c 1", "bounds --k-min 2 --k-max 40"])
    def test_json_mirrors_csv_fields(self, capsys, argv):
        _, out_csv, _ = run(capsys, *argv.split())
        _, out_json, _ = run(capsys, *argv.split(), "--format", "json")
        csv_rows, json_rows = rows_of(out_csv), json.loads(out_json)
        assert len(json_rows) == len(csv_rows) > 0
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert list(json_row) == list(csv_row)
            # a float cell is its 12-digit text read back
            assert [output._fmt(v) for v in json_row.values()] == list(csv_row.values())

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "pmf", "--k", "2", "--lambda", "1", "--n-max", "2", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert path.read_text().splitlines()[0] == "n,unnormalized,probability,cumulative"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_gets_the_stdout_bytes(self, capsys, tmp_path, fmt):
        args = ("scan", "--k-min", "2", "--k-max", "4", "--lambda", "0.5")
        args += ("--format", fmt)
        _, out, _ = run(capsys, *args)
        path = tmp_path / f"scan.{fmt}"
        code, to_stdout, _ = run(capsys, *args, "--out", str(path))
        assert code == 0 and to_stdout == ""
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            "scan --k-min 2 --k-max 12 --lambda-grid 0.05 3 20 --format json",
            "pmf --k 2 --lambda 3",
        ],
        ids=["json-scan", "pmf"],
    )
    def test_unbuffered_stdout_gets_the_buffered_bytes(self, argv):
        # each row is written to stdout as it is encoded: unbuffered (-u,
        # PYTHONUNBUFFERED) that is one write per row, and the bytes are the same
        got = [
            child(*flags, "-m", "poisson_order_k", *argv.split(), stdout=subprocess.PIPE)
            for flags in ([], ["-u"])
        ]
        assert [done.returncode for done in got] == [0, 0]
        assert got[0].stderr == got[1].stderr
        assert got[0].stdout == got[1].stdout != ""

    def test_json_emitter_matches_json_dumps(self):
        header = ["k", "lambda", "modes", "triple_ties", "error"]
        rows = [[2, 1 / 3, None, True, ""], [3, 0.5, "0;1", False, 'bad "rate"']]
        payload = [
            {"k": 2, "lambda": 0.333333333333, "modes": None, "triple_ties": True,
             "error": ""},
            {"k": 3, "lambda": 0.5, "modes": "0;1", "triple_ties": False,
             "error": 'bad "rate"'},
        ] * 500
        assert emitted(rows * 500, header, "json") == json.dumps(payload, indent=2) + "\n"

    @given(rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), max_size=6))
    @example(rows=[])
    @example(rows=[[None, True, 12], [1 / 3, (0, 2), 'a "b" \\ c\nd é 𝄞'], [False, (), ""]])
    @settings(max_examples=150, deadline=None)
    def test_json_writer_matches_json_dumps_on_any_cells(self, rows):
        header = ["a", "b", "c"]
        payload = [{h: json_cell(x) for h, x in zip(header, row)} for row in rows]
        assert emitted(rows, header, "json") == json.dumps(payload, indent=2) + "\n"

    @given(rows=st.lists(st.lists(st.text(max_size=8), min_size=2, max_size=3), max_size=6))
    @example(rows=[["\r", "a\rb"], ["\r\n", '"\r"']])
    @settings(max_examples=150, deadline=None)
    def test_csv_reader_reads_back_the_cells(self, rows):
        # any text, lone carriage returns included (NUL only from Python 3.11
        # on, where csv.reader accepts it)
        if sys.version_info < (3, 11):
            rows = [[c.replace("\x00", "") for c in row] for row in rows]
        for row in rows:
            header = [f"c{i}" for i in range(len(row))]
            got = emitted([row], header, "csv")
            assert list(csv.reader(io.StringIO(got, newline=""))) == [header, row]

    @given(st.lists(st.lists(CELLS, min_size=3, max_size=3), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_csv_bytes_are_csv_writers_without_a_carriage_return(self, rows):
        # csv.writer(lineterminator="\n") wrote the CSV until it left lone \r
        # bare; every other cell is written as it wrote it
        drop = "\r" if sys.version_info >= (3, 11) else "\r\x00"
        rows = [[c.translate(dict.fromkeys(map(ord, drop))) if isinstance(c, str) else c
                 for c in row] for row in rows]
        header = ["a", "b", "c"]
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [header, *([output._fmt(c) for c in row] for row in rows)]
        )
        assert emitted(rows, header, "csv") == want.getvalue()

    @pytest.mark.parametrize(
        "statement, unloaded",
        [
            # only scan --jobs N > 1 needs the process pool, only verify the
            # oracle and fractions, only --format json the json module, and
            # no command the csv module; no command needs dataclasses, which
            # pulls in inspect
            ("import poisson_order_k.cli", UNLOADED_BY_CLI),
            (
                "import poisson_order_k",
                [f"poisson_order_k.{m.name}"
                 for m in pkgutil.iter_modules(poisson_order_k.__path__)],
            ),
            # building the parser loads none of these either; only scan loads
            # the shape audits
            (
                "from poisson_order_k import cli; cli.build_parser()",
                [*UNLOADED_BY_CLI, "poisson_order_k.structure"],
            ),
            (quiet_main("verify"), ["poisson_order_k.structure"]),
            # the two other timed commands, whose startup the benchmark reads
            (
                quiet_main("bounds", "--k-max", "3"),
                ["poisson_order_k.structure", "poisson_order_k.oracle",
                 "poisson_order_k.checks", "fractions", "json", "concurrent.futures"],
            ),
            (
                quiet_main("scan", "--k-min", "2", "--k-max", "3", "--lambda", "1"),
                ["poisson_order_k.oracle", "poisson_order_k.checks", "fractions", "json",
                 "multiprocessing", "concurrent.futures"],
            ),
            # figs draws neither on the shape audits nor on the oracle
            (
                quiet_main("figs", "1"),
                ["poisson_order_k.structure", "poisson_order_k.oracle", "fractions"],
            ),
        ],
        ids=["cli", "package", "parser", "verify", "bounds", "scan", "figs"],
    )
    def test_import_floor(self, statement, unloaded):
        probe = f"import sys\n{statement}\nprint(*sys.modules)"
        done = child("-c", probe, stdout=subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "poisson_order_k" in loaded
        assert sorted(set(unloaded) & loaded) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["-W", "error", "-c", "".join(f"from poisson_order_k.{m} import *\n"
                                          for m in ("pmf", "oracle", "roots", "structure"))],
            # a deprecation on the exact integer paths (math.lcm, Fraction)
            ["-W", "error", "-m", "poisson_order_k", "verify"],
            # or on the process pool's; the JSON document must still parse
            ["-W", "error::DeprecationWarning", "-m", "poisson_order_k",
             *"scan --k-min 2 --k-max 30 --lambda-rule mean-k --jobs 2 --format json".split()],
        ],
        ids=["star-import", "verify", "parallel-json-scan"],
    )
    def test_no_warning_becomes_an_error(self, args):
        done = child(*args, stdout=subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        if "--format" in args:
            assert len(json.loads(done.stdout)) == 29

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "figs", "1")
        value = rows_of(out)[0]["rise_threshold"]
        assert value == "1.37228132327"


# stdout of commands the benchmark does not pin, as first produced by the
# hand-written row builders; the record-built rows must keep every byte
SCAN_ARGS = ("scan", "--k-min", "1", "--k-max", "3", "--lambda-grid", "0.3", "300", "3")
PINNED_CSV = {
    ("roots", "--k", "3", "--n", "3", "--c", "1"): (
        "k,n,c,root,bracket_low,bracket_high,tol,iterations\n"
        "3,3,1,0.601679131883,0,0.61803398875,1e-13,8\n"
    ),
    ("bounds", "--k-max", "5", "--no-shoulder"): (
        "k,root1,root1_upper,root2,root2_upper,rise_threshold,tail_bound,shoulder,status\n"
        "2,0.732050807569,0.732050807569,1.2360679775,1.2360679775,1.37228132327,0.125,,ok\n"
        "3,0.601679131883,0.61803398875,0.951373035591,1,1.29799919936,0.0277777777778,,ok\n"
        "4,0.520351017693,0.548583770355,0.792525604201,0.868517091821,1.27195673217,"
        "0.005859375,,ok\n"
        "5,0.463329043454,0.5,0.688189712959,0.780776406404,1.25959555315,0.0012,,ok\n"
    ),
    # two modes, two local maxima, empty optional cells and one error row
    SCAN_ARGS: (
        "k,lambda,n_max,modes,local_maxima,initial_increase,monotone_tail_from_k,"
        "first_tail_violation,mean,mean_mode_gap,mode_bounds_ok,mode_floor_ok,"
        "block_nonincreasing,triple_ties,error\n"
        "1,0.3,9,0,0,true,true,,0.3,0.3,true,true,,false,\n"
        "1,9.48683298051,36,9,9,true,false,2,9.48683298051,0.486832980505,true,true,true,false,\n"
        "1,300,417,299;300,299,true,false,2,300,0,true,true,true,false,\n"
        "2,0.3,18,0,0;2,true,true,,0.9,0.9,true,true,,false,\n"
        "2,9.48683298051,83,28,28,true,false,3,28.4604989415,0.460498941515,"
        "true,true,true,false,\n"
        "2,300,1158,899,899,true,false,3,900,1,true,true,true,false,\n"
        "3,0.3,28,0,0;3,true,true,,1.8,1.8,true,true,,false,\n"
        "3,9.48683298051,146,56,56,true,false,4,56.920997883,0.920997883031,"
        "true,true,true,false,\n"
        '3,300,,,,,,,,,,,,,"exp(-k*lam) underflows for k=3, lam=300.0; '
        'normalized-mass truncation is unusable at this scale"\n'
    ),
}
# the seed-0 stdout digests of the benchmark's workloads, by workload name
BENCHMARK_SHA256 = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)
PINNED_SHA256 = {
    ("roots", "--k", "3", "--n", "3", "--c", "1", "--format", "json"):
        "7fac9f92895d0ed7641d603b247d1d794b3fd4347682c627d9a7f80bfe81c3af",
    ("bounds", "--k-max", "5", "--no-shoulder", "--format", "json"):
        "4cccd38a4cc3dcb99121e2b99ed8275ef4a436d15e44120baf038d037bbb5d5f",
    # the benchmark's bounds workload: every shoulder reads the shared grid prefix
    ("bounds", "--k-min", "2", "--k-max", "150"): BENCHMARK_SHA256["bounds"],
    (*SCAN_ARGS, "--format", "json"):
        "bc8b5594229afb10e8a1bbdc88dcada2cab80af20d66c98ebcd971d6241c8f41",
    ("figs", "1"): "9cf841191ba335637be7924a8f9adcbd281822c3c633adb340ba8fc1fa714df9",
    ("scan", "--k-min", "2", "--k-max", "50", "--lambda-rule", "tail-bound"):
        "77676dc4b748993570a372f3641344080c0c7a1903ed13f1c328d81348b2755b",
    # the benchmark's verify workload: every exact entry is rounded from a
    # short quotient
    ("verify",): BENCHMARK_SHA256["verify"],
    # the benchmark's two scan workloads, at their seed-0 inputs
    ("scan", "--k-min", "2", "--k-max", "200", "--lambda-rule", "mean-k", "--jobs", "1"):
        BENCHMARK_SHA256["scan-meank"],
    ("scan", "--k-min", "2", "--k-max", "50", "--lambda-grid", "0.05", "3.0", "20",
     "--format", "json", "--jobs", "1"):
        BENCHMARK_SHA256["scan-grid"],
}


class TestPinnedOutput:
    @pytest.mark.parametrize("argv", list(PINNED_CSV))
    def test_csv_bytes(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == PINNED_CSV[argv]

    @pytest.mark.parametrize("argv", list(PINNED_SHA256))
    def test_sha256(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_SHA256[argv]


def signature_default(func, name):
    return inspect.signature(func).parameters[name].default


class TestParserDefaults:
    """Each default the parser gives is the library's, stated once there."""

    def defaults(self, *argv):
        return vars(cli.build_parser().parse_args(list(argv)))

    def test_scan_tolerances(self):
        args = self.defaults("scan", "--k-min", "2", "--k-max", "3", "--lambda", "1")
        for func in (
            structure.find_modes,
            structure.local_maxima,
            structure.find_triple_ties,
            structure.build_report,
        ):
            assert args["tie_tol"] == signature_default(func, "tie_tol")
        assert args["tol"] == signature_default(structure.build_report, "tail_tol")
        assert args["tol"] == signature_default(structure.check_monotone_tail, "tol")

    @pytest.mark.parametrize(
        "argv",
        [("roots", "--k", "2", "--n", "2", "--c", "1"), ("bounds", "--k-max", "3")],
    )
    def test_solver_tolerance(self, argv):
        tol = self.defaults(*argv)["tol"]
        for func in (
            roots.solve_weight_equals,
            roots.shoulder_lambda,
            roots.bounds_record,
        ):
            assert tol == signature_default(func, "tol")

    def test_one_mass_tolerance(self):
        # build_adaptive_table has no default; pmf, scan and figs share one
        argvs = [
            ("pmf", "--k", "2", "--lambda", "1"),
            ("scan", "--k-min", "2", "--k-max", "3", "--lambda", "1"),
            ("figs", "2"),
        ]
        assert {self.defaults(*argv)["epsilon"] for argv in argvs} == {1e-10}


class TestPackageExports:
    MODULES = (pmf, oracle, roots, structure)
    TRACED = "perfbench row; leaves with ROADMAP item 3"
    # every public name that no other module of the package uses, and why it
    # stays public; any other such name is to be made private or deleted
    UNCALLED = {
        "find_modes": TRACED,
        "local_maxima": TRACED,
        "find_triple_ties": TRACED,
        "check_monotone_tail": TRACED,
        "enumerate_tuples": TRACED,
        "weight_exact": TRACED,
        "weight_value": "traced: perfbench counts its calls on bounds",
        "WeightUnderflowError": "raised by the public table builders",
        "WeightPolynomial": "returned by weight_polynomial",
        "root_upper_bound": "the paper's n = k bound, printed by bounds",
    }

    def test_public_names_are_used_by_the_package_or_listed(self):
        source = Path(poisson_order_k.__file__).parent
        used = {}
        for path in source.glob("*.py"):
            names = used.setdefault(path.stem, set())
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
        uncalled = set()
        for module in self.MODULES:
            own = module.__name__.rsplit(".", 1)[1]
            others = set().union(*(names for stem, names in used.items() if stem != own))
            uncalled |= set(module.__all__) - others
        assert uncalled == set(self.UNCALLED)

    def test_each_name_is_imported_from_its_module(self):
        with pytest.raises(ImportError, match="build_table"):
            from poisson_order_k import build_table
        assert not hasattr(poisson_order_k, "decided_report")
        assert not hasattr(poisson_order_k, "__all__")

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[1])
    def test_star_import_binds_the_modules_all(self, module):
        # each name of __all__ exists, and a star import binds those names only
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        del namespace["__builtins__"]
        assert list(namespace) == module.__all__
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_readme_lists_each_modules_all(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        for module in self.MODULES:
            own = module.__name__.rsplit(".", 1)[1]
            entry = re.search(rf"^- `{own}`: (.*?)\.$", text, re.M | re.S)
            assert re.findall(r"`(\w+)`", entry[1]) == module.__all__


def test_exact_references_import_only_the_standard_library():
    # tests/exact.py certifies the library, so it must not import it, not even
    # through another test module or a dynamic import
    tree = ast.parse((Path(__file__).parent / "exact.py").read_text(encoding="utf-8"))
    imported = [
        alias.name if isinstance(node, ast.Import) else "." * node.level + (node.module or "")
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names - {"importlib"}
    assert "__import__" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


class TestExitCodes:
    def test_unknown_flag_is_one(self, capsys):
        assert run(capsys, "pmf", "--k", "2", "--lambda", "1", "--bogus")[0] == 1

    def test_invalid_parameter_is_one(self, capsys):
        code, _, err = run(capsys, "pmf", "--k", "0", "--lambda", "1")
        assert code == 1
        assert "k must be" in err

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--lambda", "0.5", "--tie-tol", "-1"], "tie_tol must"),
            (["--lambda", "0.5", "--tie-tol", "nan"], "tie_tol must"),
            (["--lambda", "0.5", "--tie-tol", "2"], "tie_tol must"),
            (["--lambda", "0.5", "--tol", "-1"], "tol must be >= 0"),
            (["--lambda", "0.5", "--tol", "nan"], "tol must be >= 0"),
            (["--lambda", "-1"], "rate lam must"),
            (["--lambda", "0.5", "--epsilon", "2"], "epsilon must"),
            (["--lambda", "0.5", "--tie-tol", "-1", "--jobs", "2"], "tie_tol must"),
            (["--lambda", "0.5", "--jobs", "0"], "--jobs must"),
            (["--lambda", "0.5", "--jobs", "-3"], "--jobs must"),
            (["--lambda", "0.5", "--k-step", "0"], "--k-step must"),
            # a STOP / START that overflows, although the rates 1e-300, 1 and
            # 1e300 are finite, and grids whose last rate, the only one
            # checked besides the first, is inf
            (["--lambda-grid", "1e-300", "1e300", "3"], "bad lambda grid"),
            (["--lambda-grid", "1", "inf", "1e9"], "rate lam must"),
            (["--lambda-grid", "0.1", "inf", "1e9", "--lambda-spacing", "linear"], "rate lam must"),
        ],
    )
    def test_invalid_scan_parameter_is_one(self, capsys, extra, named):
        code, out, err = run(capsys, "scan", "--k-min", "2", "--k-max", "3", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "k_range, message",
        [
            (["0", "3"], "error: --k-min must be an integer >= 1, got 0\n"),
            (["-2", "-1"], "error: --k-min must be an integer >= 1, got -2\n"),
            (["5", "2"], "error: --k-max 2 below --k-min 5\n"),
        ],
    )
    def test_invalid_bounds_range_names_the_flag(self, capsys, k_range, message):
        # bounds shares scan's k-range validator, so the error names the flag
        # the user typed, not the order k of the first row
        k_min, k_max = k_range
        code, out, err = run(capsys, "bounds", "--k-min", k_min, "--k-max", k_max)
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["bounds", "--k-min", "2", "--k-max", "3"], "tol must be > 0 and finite"),
            (["roots", "--k", "3", "--n", "3", "--c", "1"], "tol must be > 0 and finite"),
            (
                ["scan", "--k-min", "2", "--k-max", "2", "--lambda", "3"],
                "tol must be >= 0 and finite",
            ),
        ],
    )
    def test_infinite_tolerance_is_one(self, capsys, argv, named):
        code, out, err = run(capsys, *argv, "--tol", "inf")
        assert code == 1
        assert out == ""
        assert err == f"error: {named}, got inf\n"

    @pytest.mark.parametrize(
        "extra, named",
        [(["--tol", "inf"], "tol must be >= 0"), (["--tie-tol", "1"], "tie_tol must")],
    )
    def test_scan_tolerance_checked_before_any_point(self, capsys, extra, named):
        # the only point of this scan fails its table build, so it never
        # hands the tolerances to build_report
        code, out, err = run(
            capsys, "scan", "--k-min", "3", "--k-max", "3", "--lambda", "300", *extra
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "flags, argv",
        [
            ([], "figs 1"),
            (["-u"], "figs 1"),
            # more rows than the stream's buffer holds: the reader's leaving
            # is seen mid-scan
            ([], "scan --k-min 2 --k-max 30 --lambda-grid 0.05 3 40 --jobs 2"),
            # unbuffered, the first row's write meets the broken pipe
            (["-u"], "scan --k-min 2 --k-max 30 --lambda-grid 0.05 3 40 --jobs 2 --format json"),
            (["-u"], "bounds --k-min 2 --k-max 20"),
            # a --lambda-grid is never stored, and the pool holds a window of
            # chunks, not the grid: a billion rates end at once either way
            ([], "scan --k-min 2 --k-max 2 --lambda-grid 0.1 1 1e9"),
            ([], "scan --k-min 2 --k-max 2 --lambda-grid 0.1 1 1e9 --jobs 2"),
            # a parallel scan that would run for minutes: only the chunks
            # already submitted are waited for
            ([], "scan --k-min 2 --k-max 200 --lambda-grid 0.05 3 20 --jobs 2"),
        ],
        ids=["flags0", "flags1", "parallel-scan", "unbuffered-parallel-json-scan",
             "unbuffered-bounds", "billion-rates", "billion-rates-parallel",
             "long-parallel-scan"],
    )
    def test_closed_pipe_is_zero_and_quiet(self, flags, argv):
        # a reader that stops early (`figs 1 | head -1`) is not an error; the
        # read end is closed before the child writes, so the first write
        # (unbuffered, -u) or the flush (buffered) meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = child(
                *flags, "-m", "poisson_order_k", *argv.split(), stdout=write_end, timeout=30
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, "")

    def test_failed_write_is_two(self, capsys, monkeypatch):
        # a full disk; stdout then goes to devnull, here the test's own
        # descriptor, so that the flush at exit cannot fail again
        null = os.open(os.devnull, os.O_WRONLY)
        full = mock.Mock(fileno=lambda: null)
        full.write.side_effect = OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(sys, "stdout", full)
        try:
            code = main(["pmf", "--k", "2", "--lambda", "1"])
        finally:
            os.close(null)
        err = capsys.readouterr().err
        assert (code, err) == (2, "write failed: stdout: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv, where",
        [
            ("pmf --k 2 --lambda 1", "stdout"),
            ("bounds --k-min 2 --k-max 3 --out /dev/full", "/dev/full"),
            ("scan --k-min 2 --k-max 2 --lambda 1 --format json --out /dev/full", "/dev/full"),
        ],
    )
    def test_full_device_is_two_without_a_traceback(self, argv, where):
        with open("/dev/full", "w") as full:
            done = child("-m", "poisson_order_k", *argv.split(), stdout=full)
        assert done.returncode == 2
        assert done.stderr == f"write failed: {where}: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unopenable_out_is_one(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(capsys, "pmf", "--k", "2", "--lambda", "1", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --out {path}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_tail_bound_rate_below_the_floats_is_one(self, capsys, jobs):
        # from k = 443 on the rule's rate k!/(2k)^k underflows to 0.0; every
        # rule rate is checked before the first point, with any --jobs
        argv = "scan --k-min 442 --k-max 443 --lambda-rule tail-bound --jobs".split()
        code, out, err = run(capsys, *argv, jobs)
        assert (code, out) == (1, "")
        assert err == "error: --lambda-rule tail-bound: k!/(2k)^k underflows to 0.0 at k=443\n"

    def test_failed_rule_solve_is_two(self, capsys, monkeypatch):
        def fails(k):
            raise RuntimeError(f"no bracket at k={k}")

        monkeypatch.setattr(roots, "shoulder_lambda", fails)
        code, out, err = run(capsys, *"scan --k-min 2 --k-max 3 --lambda-rule shoulder".split())
        assert (code, out) == (2, "")
        assert err == "computation failed: no bracket at k=2\n"

    def test_underflowing_weights_are_two(self, capsys):
        code, out, err = run(capsys, "pmf", "--k", "2", "--lambda", "1e-200")
        assert code == 2
        assert out == ""
        assert "underflowed to 0.0 at index n=3 for k=2, lam=1e-200" in err

    def test_epsilon_below_the_float_mass_is_two(self, capsys):
        # the mass stops growing at n = 61, below 1 - epsilon
        code, out, err = run(capsys, *"pmf --k 3 --lambda 1 --epsilon 1e-16".split())
        assert (code, out) == (2, "")
        assert err.startswith("computation failed: the captured mass stopped growing at ")
        assert "epsilon=1e-16;" in err and err.count("\n") == 1
        # in a scan it is the point's error
        code, out, _ = run(capsys, *"scan --k-min 3 --k-max 3 --lambda 1 --epsilon 1e-16".split())
        assert code == 0
        assert rows_of(out)[0]["error"].startswith("the captured mass stopped growing at ")

    def test_computation_failure_is_two(self, capsys):
        code, _, err = run(capsys, "pmf", "--k", "1", "--lambda", "800", "--n-max", "900")
        assert code == 2
        assert "overflow" in err.lower()

    @pytest.mark.parametrize("c", ["5e-324", "1e-310"])
    def test_root_below_the_smallest_normal_is_two(self, capsys, c):
        # 5e-324 once failed on a rate of 0.0 the user never gave (exit 1),
        # and 1e-310 printed half its root
        code, out, err = run(capsys, "roots", "--k", "2", "--n", "2", "--c", c)
        assert (code, out) == (2, "")
        assert err.startswith("computation failed: the root of ") and "smallest normal" in err
        assert "rate lam" not in err

    @pytest.mark.parametrize("k, c", [("1", "1e308"), ("5", "1e308"), ("1", "9e307")])
    def test_level_near_the_largest_float_is_zero(self, capsys, k, c):
        # w_1 = lam at every order, so the root is c; the solver's midpoint
        # once overflowed to inf here, and exit 1 named that rate
        code, out, err = run(capsys, "roots", "--k", k, "--n", "1", "--c", c)
        assert (code, err) == (0, "")
        low, high = printed_interval(rows_of(out)[0]["root"])
        assert low < Fraction(float(c)) < high

    def test_tiny_level_with_a_normal_root_is_zero(self, capsys):
        # w_3 = lam^3/6 at k = 1, so the level 5e-324 has its root near 3e-108
        code, out, _ = run(capsys, "roots", "--k", "1", "--n", "3", "--c", "5e-324")
        assert code == 0
        assert out.startswith("k,n,c,root,") and out.count("\n") == 2
