"""Tests for the command-line interface: outputs, determinism, exit codes."""

import argparse
import ast
import contextlib
import csv
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
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poisson_order_k
from poisson_order_k import checks, cli, oracle, output, pmf, roots, structure
from poisson_order_k.cli import _emit, main
from poisson_order_k.pmf import Params, build_table_km


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


def order_param(k: int, known: set[int]):
    """Order k as a test parameter, a strict known failure when k is in ``known``."""
    if k not in known:
        return k
    reason = "ROADMAP item 1: the printed value is wrong in its 12th digit"
    return pytest.param(k, marks=pytest.mark.xfail(strict=True, reason=reason))


@functools.cache
def printed_bounds() -> dict[int, dict]:
    """The rows of one ``bounds --k-min 2 --k-max 150`` run, by order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bounds", "--k-min", "2", "--k-max", "150"]) == 0
    return {int(row["k"]): row for row in rows_of(out.getvalue())}


def printed_interval(cell: str) -> tuple[Fraction, Fraction]:
    """(d - h, d + h) for a printed value d, h half a unit in its 12th digit."""
    d = Decimal(cell)
    h = Decimal(5).scaleb(d.adjusted() - 12)
    return Fraction(d - h), Fraction(d + h)


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

    def test_rejects_inverted_range(self, capsys):
        code, _, err = run(capsys, "bounds", "--k-min", "5", "--k-max", "2")
        assert code == 1
        assert "error" in err

    def test_printed_roots_bracket_the_level(self, capsys):
        # each printed root, widened by half a unit in its 12th significant
        # digit, must bracket the level on the correctly rounded exact path
        code, out, _ = run(
            capsys, "bounds", "--k-min", "2", "--k-max", "150", "--no-shoulder"
        )
        assert code == 0
        for row in rows_of(out):
            k = int(row["k"])
            for name, level in (("root1", 1.0), ("root2", 2.0)):
                low, high = map(float, printed_interval(row[name]))
                below = build_table_km(Params(k, low), k).values[k]
                above = build_table_km(Params(k, high), k).values[k]
                assert below < level < above, (k, name, row[name])

    @pytest.mark.parametrize("k", [order_param(k, SHOULDER_WRONG) for k in range(2, 151)])
    def test_printed_shoulder_brackets_the_equal_pair_rate(self, k):
        # the closed form of (w_{k+2} - w_{k+1}) / lam**2, tied to the oracle
        # by TestShoulderGapClosedForm, changes sign inside (d - h, d + h)
        def gap(x: Fraction) -> Fraction:
            return Fraction(-1, 2) + sum(
                Fraction(math.comb(k, m), math.factorial(m + 2)) * x**m
                for m in range(1, k + 1)
            )

        low, high = printed_interval(printed_bounds()[k]["shoulder"])
        assert gap(low) < 0 < gap(high)

    @pytest.mark.parametrize("k", [order_param(k, TAIL_BOUND_WRONG) for k in range(2, 151)])
    def test_printed_tail_bound_is_correct(self, k):
        low, high = printed_interval(printed_bounds()[k]["tail_bound"])
        assert low < Fraction(math.factorial(k), (2 * k) ** k) < high


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

    def test_parallel_output_matches_serial(self, capsys):
        for fmt in ("csv", "json"):
            args = ["scan", "--k-min", "2", "--k-max", "6", "--lambda-rule", "mean-k"]
            args += ["--format", fmt]
            code1, out1, _ = run(capsys, *args)
            code2, out2, _ = run(capsys, *args, "--jobs", "2")
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
            (["--lambda", "1", "--lambda-rule", "mean-k"], "not allowed with"),
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
            return start * ((stop / start) ** (1.0 / (n - 1))) ** i

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
                lambda params, epsilon, **_: pmf.build_adaptive_table(params, epsilon),
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

    def test_most_grid_points_build_no_loop_table(self, capsys, monkeypatch):
        builds = []
        step = pmf._extend_kp

        def counted(w, k, lam, n):
            if n == 1:
                builds.append(k)
            return step(w, k, lam, n)

        monkeypatch.setattr(pmf, "_extend_kp", counted)
        rows = scan_rows(monkeypatch, "--k-min 2 --k-max 80 --k-step 13 --lambda-grid 0.01 6 12".split())
        assert len(builds) < len(rows) / 4
        capsys.readouterr()

    def test_loose_tie_tolerance_rebuilds_only_close_calls(self, capsys, monkeypatch):
        # a pair clearly inside the tie band decides on running sums; the loop
        # rebuilds the stop rule's close calls and k = 2, whose w_1 / w_2 is
        # 3/4 exactly, on the edge of the band
        refused, builds = [], []
        running, step = pmf._running_weights, pmf._extend_kp

        def counted_running(k, *args):
            got = running(k, *args)
            if got is None:
                refused.append(k)
            return got

        def counted_step(w, k, lam, n):
            if n == 1:
                builds.append(k)
            return step(w, k, lam, n)

        argv = "--k-min 2 --k-max 60 --lambda-rule mean-k --tie-tol 0.25".split()
        with monkeypatch.context() as m:
            m.setattr(pmf, "_running_weights", counted_running)
            m.setattr(pmf, "_extend_kp", counted_step)
            rows = scan_rows(monkeypatch, argv)
        assert refused != [] and 2 not in refused
        assert builds == [2, *refused]
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

        monkeypatch.setattr(output, "_BATCH", 1)
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

        monkeypatch.setattr(output, "_emit", first_row)
        argv = "scan --k-min 2 --k-max 2 --lambda-grid 0.1 1 10000 --jobs 2".split()
        assert run(capsys, *argv)[0] == 0
        # the window of 2 * jobs chunks of 8 points, refilled as the first
        # chunk's rows reach the writer
        assert seen == [40]

    def test_closed_pipe_ends_a_parallel_scan_quietly(self):
        # more than one batch of rows, so the reader's leaving is seen mid-scan
        src = str(Path(poisson_order_k.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = "scan --k-min 2 --k-max 30 --lambda-grid 0.05 3 40 --jobs 2".split()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "poisson_order_k", *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")


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


def json_cell(x):
    """A cell as the JSON rows should carry it, written out independently."""
    if isinstance(x, float):
        return float(format(x, ".12g"))
    if isinstance(x, tuple):
        return ";".join(str(i) for i in x)
    return x


class TestOutputContract:
    def test_byte_identical_reruns(self, capsys):
        args = ("bounds", "--k-min", "2", "--k-max", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "\r" not in out1

    def test_json_mirrors_csv_fields(self, capsys):
        _, out_csv, _ = run(capsys, "roots", "--k", "3", "--n", "3", "--c", "1")
        _, out_json, _ = run(
            capsys, "roots", "--k", "3", "--n", "3", "--c", "1", "--format", "json"
        )
        csv_row = rows_of(out_csv)[0]
        json_row = json.loads(out_json)[0]
        assert list(json_row) == list(csv_row)
        assert json_row["root"] == float(csv_row["root"])

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

    def test_json_emitter_matches_json_dumps(self, capsys):
        header = ["k", "lambda", "modes", "triple_ties", "error"]
        rows = [
            {"k": 2, "lambda": 1 / 3, "modes": None, "triple_ties": True, "error": ""},
            {"k": 3, "lambda": 0.5, "modes": "0;1", "triple_ties": False,
             "error": 'bad "rate"'},
        ]
        # enough rows (about 100 KB) to span two batched writes
        _emit(rows * 500, header, argparse.Namespace(format="json", out=None))
        payload = [
            {"k": 2, "lambda": 0.333333333333, "modes": None, "triple_ties": True,
             "error": ""},
            {"k": 3, "lambda": 0.5, "modes": "0;1", "triple_ties": False,
             "error": 'bad "rate"'},
        ] * 500
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    @given(
        rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), max_size=6),
        batch=st.integers(1, 300),
    )
    @example(rows=[], batch=1)
    @example(
        rows=[[None, True, 12], [1 / 3, (0, 2), 'a "b" \\ c\nd é 𝄞'], [False, (), ""]],
        batch=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_json_writer_matches_json_dumps(self, rows, batch):
        header = ["a", "b", "c"]
        got = io.StringIO()
        with mock.patch.object(output, "_BATCH", batch), contextlib.redirect_stdout(got):
            _emit([dict(zip(header, row)) for row in rows], header,
                  argparse.Namespace(format="json", out=None))
        payload = [{h: json_cell(x) for h, x in zip(header, row)} for row in rows]
        assert got.getvalue() == json.dumps(payload, indent=2) + "\n"

    @given(rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), max_size=6),
           batch=st.integers(1, 300))
    @settings(max_examples=50, deadline=None)
    def test_csv_is_the_same_in_any_batch(self, rows, batch):
        header = ["a", "b", "c"]
        outs = []
        for size in (batch, output._BATCH):
            got = io.StringIO()
            with mock.patch.object(output, "_BATCH", size), contextlib.redirect_stdout(got):
                _emit([dict(zip(header, row)) for row in rows], header,
                      argparse.Namespace(format="csv", out=None))
            outs.append(got.getvalue())
        assert outs[0] == outs[1]

    @given(
        rows=st.lists(st.lists(st.text(max_size=8), min_size=2, max_size=3), max_size=6),
        batch=st.integers(1, 300),
    )
    @example(rows=[["\r", "a\rb"], ["\r\n", '"\r"']], batch=1)
    @settings(max_examples=150, deadline=None)
    def test_csv_reader_reads_back_the_cells(self, rows, batch):
        # any text, lone carriage returns included (NUL only from Python 3.11
        # on, where csv.reader accepts it)
        if sys.version_info < (3, 11):
            rows = [[c.replace("\x00", "") for c in row] for row in rows]
        for row in rows:
            header = [f"c{i}" for i in range(len(row))]
            got = io.StringIO()
            with mock.patch.object(output, "_BATCH", batch), contextlib.redirect_stdout(got):
                _emit([dict(zip(header, row))], header, argparse.Namespace(format="csv", out=None))
            assert list(csv.reader(io.StringIO(got.getvalue(), newline=""))) == [header, row]

    @given(st.lists(st.lists(CELLS, min_size=3, max_size=3), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_csv_bytes_are_csv_writers_without_a_carriage_return(self, rows):
        # csv.writer(lineterminator="\n") wrote the CSV until it left lone \r
        # bare; every other cell is written as it wrote it
        drop = "\r" if sys.version_info >= (3, 11) else "\r\x00"
        rows = [[c.translate(dict.fromkeys(map(ord, drop))) if isinstance(c, str) else c
                 for c in row] for row in rows]
        header = ["a", "b", "c"]
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            _emit([dict(zip(header, row)) for row in rows], header,
                  argparse.Namespace(format="csv", out=None))
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [header, *([output._fmt(c) for c in row] for row in rows)]
        )
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize(
        "statement, unloaded",
        [
            # only scan --jobs N > 1 needs the process pool, only verify the
            # oracle and fractions, only --format json the json module, and
            # no command the csv module; no command needs dataclasses, which
            # pulls in inspect
            (
                "import poisson_order_k.cli",
                ["multiprocessing", "concurrent.futures", "dataclasses", "inspect",
                 "fractions", "json", "csv", "poisson_order_k.oracle",
                 "poisson_order_k.checks"],
            ),
            (
                "import poisson_order_k",
                [f"poisson_order_k.{m.name}"
                 for m in pkgutil.iter_modules(poisson_order_k.__path__)],
            ),
            # oracle's names are looked up last
            (
                "import poisson_order_k; poisson_order_k.build_table",
                ["fractions", "poisson_order_k.oracle"],
            ),
            # only scan loads the shape audits, and only a command that
            # prints rows the row writer
            (
                "from poisson_order_k import cli; cli.build_parser()",
                ["poisson_order_k.structure", "poisson_order_k.output"],
            ),
            (quiet_main("verify"), ["poisson_order_k.structure", "poisson_order_k.output"]),
            # the row writer is imported by name, so loading it looks up
            # no name in the other modules
            (
                quiet_main("figs", "1"),
                ["poisson_order_k.structure", "poisson_order_k.oracle", "fractions"],
            ),
        ],
        ids=["cli", "package", "pmf-name", "parser", "verify", "figs"],
    )
    def test_import_floor(self, statement, unloaded):
        src = str(Path(poisson_order_k.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = f"import sys\n{statement}\nprint(*sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "poisson_order_k" in loaded
        assert sorted(set(unloaded) & loaded) == []

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
PINNED_SHA256 = {
    ("roots", "--k", "3", "--n", "3", "--c", "1", "--format", "json"):
        "7fac9f92895d0ed7641d603b247d1d794b3fd4347682c627d9a7f80bfe81c3af",
    ("bounds", "--k-max", "5", "--no-shoulder", "--format", "json"):
        "4cccd38a4cc3dcb99121e2b99ed8275ef4a436d15e44120baf038d037bbb5d5f",
    # the benchmark's bounds workload: every shoulder reads the shared grid prefix
    ("bounds", "--k-min", "2", "--k-max", "150"):
        "6ddd4232eda061a818b30552a08f6bc0dbc8183628007abd00aaf8996465d69f",
    (*SCAN_ARGS, "--format", "json"):
        "bc8b5594229afb10e8a1bbdc88dcada2cab80af20d66c98ebcd971d6241c8f41",
    ("figs", "1"): "9cf841191ba335637be7924a8f9adcbd281822c3c633adb340ba8fc1fa714df9",
    ("scan", "--k-min", "2", "--k-max", "50", "--lambda-rule", "tail-bound"):
        "e30b878f37cc6f54f41010c088a5ae74e5d83fae750e4d23675e41638be1c041",
    # the benchmark's verify workload: every exact entry is rounded from a
    # short quotient
    ("verify",): "bfa2c142e5e7526ad79818b5151c2b449324972a69e3014b00a03d0e545a16d6",
    # the benchmark's two scan workloads, at their seed-0 inputs
    ("scan", "--k-min", "2", "--k-max", "200", "--lambda-rule", "mean-k", "--jobs", "1"):
        "245e7785357642efaaa5f79b794cac1c4c5d31f6f8e991cd38b01432e4feb157",
    ("scan", "--k-min", "2", "--k-max", "50", "--lambda-grid", "0.05", "3.0", "20",
     "--format", "json", "--jobs", "1"):
        "bddb4c238a0b366ba3726ffcc82461a5b979464e99a5c35bd8c542efddd92b19",
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

    def test_all_is_the_modules_lists_in_order(self):
        want = [name for module in self.MODULES for name in module.__all__]
        assert poisson_order_k.__all__ == want
        assert len(set(want)) == len(want)

    def test_readme_lists_each_modules_all(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        for module in self.MODULES:
            own = module.__name__.rsplit(".", 1)[1]
            entry = re.search(rf"^- `{own}`: (.*?)\.$", text, re.M | re.S)
            assert re.findall(r"`(\w+)`", entry[1]) == module.__all__

    def test_each_name_is_its_modules_object(self):
        for module in self.MODULES:
            for name in module.__all__:
                assert getattr(poisson_order_k, name) is getattr(module, name)

    def test_star_import_dir_and_unknown_names(self):
        namespace = {}
        exec("from poisson_order_k import *", namespace)
        del namespace["__builtins__"]
        assert list(namespace) == poisson_order_k.__all__
        for module in self.MODULES:
            for name in module.__all__:
                assert namespace[name] is getattr(module, name)
        assert set(poisson_order_k.__all__) <= set(dir(poisson_order_k))
        with pytest.raises(AttributeError, match="no_such_name"):
            poisson_order_k.no_such_name


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
            # grids whose last rate, the only one checked besides the first, is inf
            (["--lambda-grid", "1e-300", "1e300", "3"], "rate lam must"),
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

    @pytest.mark.parametrize("flags", [[], ["-u"]])
    def test_closed_pipe_is_zero_and_quiet(self, flags):
        # a reader that stops early (`figs 1 | head -1`) is not an error; the
        # read end is closed before the child writes, so the first write
        # (unbuffered, -u) or the flush (buffered) meets a broken pipe
        src = str(Path(poisson_order_k.__file__).resolve().parents[1])
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "poisson_order_k", "figs", "1"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unopenable_out_is_one(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(capsys, "pmf", "--k", "2", "--lambda", "1", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --out {path}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_tail_bound_rate_below_the_floats_is_one(self, capsys, jobs):
        # from k = 443 on the rule's rate k!/(2k)^k underflows to 0.0; each
        # point solves its own rate, in a worker with --jobs 2
        argv = "scan --k-min 442 --k-max 443 --lambda-rule tail-bound --jobs".split()
        code, out, err = run(capsys, *argv, jobs)
        assert code == 1
        assert out == ""
        assert err.startswith("error: rate lam")

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
        assert err.startswith("computation failed: ") and "smallest normal" in err
        assert "rate lam" not in err

    def test_tiny_level_with_a_normal_root_is_zero(self, capsys):
        # w_3 = lam^3/6 at k = 1, so the level 5e-324 has its root near 3e-108
        code, out, _ = run(capsys, "roots", "--k", "1", "--n", "3", "--c", "5e-324")
        assert code == 0
        assert out.startswith("k,n,c,root,") and out.count("\n") == 2
