"""Mutation register: small faults planted in the library, each with the
tier-1 tests expected to catch it.

Run from anywhere, with the test extras installed:

    python tests/mutants.py

Each mutant replaces one text, found exactly once, in one module of a
temporary copy of ``src/``, and runs only its killing tests, from this
checkout's ``tests/``, with that copy first on ``PYTHONPATH``.  Each pytest
run starts in a fresh empty directory, where hypothesis keeps its example
database and which is then thrown away: no run replays an example that an
earlier run saved, so a kill by a hypothesis test rests on its explicit
examples.  The killing tests first run once on the unchanged copy and must
pass there, so that a kill is the mutant's doing.  A mutant is killed when
every test listed for it fails; it survives when all pass, and is killed
only ``partly`` when some pass.  The exit status is 0 when every mutant is
killed.  A change that removes or speeds up a test shows with this run that
the same mutants are still killed.

The file has no ``test_`` prefix, so the tier-1 suite does not collect it.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/poisson_order_k/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


STRUCTURE = "tests/test_structure.py::"
REPLAY = STRUCTURE + "test_builder_runs_replay_to_the_pair_walk_on_scan_tables"
BOUNDS_STATUS = "tests/test_cli.py::TestBoundsCommand::test_status_is_the_audit_of_the_row"
KERNEL = "tests/test_roots.py::TestKTermKernel::"

MUTANTS = (
    Mutant(
        "floor-k-1",  # the conjectured mode floor one lower
        "structure.py",
        "all(m >= fl - params.k for m in modes)",
        "all(m >= fl - params.k - 1 for m in modes)",
        (
            STRUCTURE + "TestModeBoundAudits::test_forged_modes_outside_the_window_fail"
            "[values0-verdicts0]",
            STRUCTURE + "test_shape_scans_match_references_on_scan_tables",
            REPLAY + "[grid]",
        ),
    ),
    Mutant(
        "status-slack",  # the bounds audit's slack 1e-9 -> 1e-6
        "roots.py",
        "slack = 1e-9",
        "slack = 1e-6",
        ("tests/test_roots.py::TestBoundsRecord::test_status_names_each_failing_bound",),
    ),
    Mutant(
        "block-gt",  # the block check strict
        "structure.py",
        "modes[0] + k, operator.ge)",
        "modes[0] + k, operator.gt)",
        (
            STRUCTURE + "TestBlockAssumption::test_consecutive_double_mode_is_nonincreasing",
            "tests/test_cli.py::TestPinnedOutput::test_csv_bytes[argv2]",
            "tests/test_cli.py::TestPinnedOutput::test_sha256[argv3]",
            REPLAY + "[shoulder]",
        ),
    ),
    Mutant(
        "tail-1e-9",  # a tail violation needs 1e-9 more than tail_tol
        "structure.py",
        "if b > a * tail:",
        "if b > a * (tail + 1e-9):",
        # by explicit examples, which hypothesis runs first on every run
        (
            STRUCTURE + "test_shape_scans_match_references",
            STRUCTURE + "test_runs_replay_to_the_pair_walk",
        ),
    ),
    Mutant(
        "clear-floor",  # the margin verdict ignores entries near the mode floor
        "structure.py",
        "clear = clear and (near == 0 or near == 1 and peak <= floor_high)",
        "clear = clear",
        (
            STRUCTURE + "TestDecided::test_entry_near_the_mode_floor_is_refused",
            STRUCTURE + "TestDecided::test_a_lone_peak_is_a_mode_at_zero_tolerance",
            STRUCTURE + "test_shape_scans_match_references",
        ),
    ),
    Mutant(
        "status-ok",  # the bounds audit passes whatever fails
        "roots.py",
        'return "ok" if not bad else ";".join(bad)',
        'return "ok"',
        (
            "tests/test_roots.py::TestBoundsRecord::test_status_names_each_failing_bound",
            BOUNDS_STATUS + "[monotone_tail_bound-10.0-tail_bound]",
            BOUNDS_STATUS + "[rise_threshold-5.0-rise_range]",
        ),
    ),
    Mutant(
        "reverse-sum",  # the k-term kernel sums the same products from j = k down
        "pmf.py",
        "        j = 1.0\n"
        "        for x in reversed(w if m <= k else w[-k:]):\n"
        "            s += j * x\n"
        "            j += 1.0\n",
        "        j = float(min(m, k))\n"
        "        for x in w if m <= k else w[-k:]:\n"
        "            s += j * x\n"
        "            j -= 1.0\n",
        (
            "tests/test_pmf.py::TestBuildTable::test_bit_identical_to_indexed_loop[3]",
            KERNEL + "test_weight_value_bit_identical_to_indexed_loop[20]",
            KERNEL + "test_shoulder_pair_bit_identical_to_indexed_loop[7]",
            # the benchmark's bounds digest
            "tests/test_cli.py::TestPinnedOutput::test_sha256[argv2]",
        ),
    ),
    Mutant(
        "km-lag",  # the four-term step reads W_{n-k-1} for its second lagged term, W_{n-k-2}
        "pmf.py",
        "window[-(k + 2)]",
        "window[-(k + 1)]",
        (
            "tests/test_pmf.py::TestBuildTableKm::test_bit_identical_on_the_verify_grid[3]",
            "tests/test_pmf.py::TestBuildTableKm::test_agrees_with_k_term_recurrence",
            "tests/test_acceptance.py::test_02_recurrence_cross_check",
            "tests/test_cli.py::TestVerifyCommand::test_all_suites_pass",
        ),
    ),
)


def run(src: Path, *args: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh empty directory, with the copy ``src``
    first on the path, writing no bytecode, so that a module restored after
    a mutant is read afresh."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def pytest(src: Path, tests) -> tuple[int, int, str]:
    """(pytest's exit status, how many of ``tests`` passed, its summary line),
    with ``tests`` run on the copy ``src``."""
    ids = [str(ROOT / t) for t in tests]
    done = run(src, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", *ids)
    last = (done.stdout.strip().splitlines() or [done.stderr.strip()])[-1]
    passed = re.search(r"(\d+) passed", last)
    return done.returncode, int(passed[1]) if passed else 0, last


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        where = run(src, "-c", "import poisson_order_k; print(poisson_order_k.__file__)")
        if not where.stdout.startswith(str(src)):
            print(f"the copy is not the package imported: {where.stdout!r}", file=sys.stderr)
            return 2
        status, _, last = pytest(src, list(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if status != 0:
            print(f"the killing tests fail on the unchanged source: {last}", file=sys.stderr)
            return 2
        bad = 0
        for m in MUTANTS:
            path = src / "poisson_order_k" / m.module
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"error     {m.name}: {m.old!r} occurs {text.count(m.old)} times")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                status, passed, last = pytest(src, m.tests)
            finally:
                path.write_text(text)
            if status == 1:  # some tests failed: killed when none passed
                verdict = "partly" if passed else "killed"
            else:
                verdict = "SURVIVED" if status == 0 else "error"
            bad += verdict != "killed"
            print(f"{verdict:9} {m.name:13} {time.perf_counter() - start:5.1f} s  {last}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
