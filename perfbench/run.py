"""Benchmark of the poisson-order-k CLI: four fixed workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the ``src/`` directory beside this one.  Each
invocation is one fresh ``python -m poisson_order_k`` process, run one at a
time (a closed loop with one client), so the numbers are what a user of the
CLI waits for.  Every invocation's output is checked.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over the run's invocations.  With ``--trace 1`` it alternates plain
invocations with invocations under ``traced.py`` and reports the per-layer
metrics, each the median over the traced invocations.  Times are given at a
reference machine speed, measured by a probe between invocations (see
``measure``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run record and every metric by name.  See README.md in this
directory for the workloads and how to read the trace.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
TRACED = HERE / "traced.py"
RUNNER = HERE / "runner.py"
MARKER = "perfbench-layers: "  # same as traced.MARKER; traced.py imports the package

# seed-0 CLI arguments; only scan-grid depends on the seed (see workload_args)
WORKLOADS = {
    "scan-meank": ["scan", "--k-min", "2", "--k-max", "200", "--lambda-rule", "mean-k"],
    "scan-grid": ["scan", "--k-min", "2", "--k-max", "50", "--lambda-grid"],
    "bounds": ["bounds", "--k-min", "2", "--k-max", "150"],
    "verify": ["verify"],
}
GRID = (0.05, 3.0, 20)
GRID_JITTER = 1e-3
EXPECTED_ROWS = {"scan-meank": 199, "scan-grid": 49 * 20, "bounds": 149}
VERIFY_SUITES = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pmf.build_adaptive_table.calls": "count",
    "pmf.build_adaptive_table.self_s": "s",
    "pmf.kterm_steps": "count",
    "pmf.kterm_madds": "count",
    "pmf.kterm_ns_per_madd": "ns",
    "pmf.build_table.calls": "count",
    "pmf.build_table.self_s": "s",
    "pmf.build_table_km.calls": "count",
    "pmf.build_table_km.self_s": "s",
    "pmf.km_steps": "count",
    "pmf.km_us_per_step": "us",
    "pmf.diff_forward.self_s": "s",
    "pmf.diff_km.self_s": "s",
    "oracle.weight_polynomial.calls": "count",
    "oracle.weight_polynomial.self_s": "s",
    "oracle.enumerate_tuples.self_s": "s",
    "oracle.weight_exact.self_s": "s",
    "oracle.lambda2_coefficient.self_s": "s",
    "oracle.tuples": "count",
    "roots.solve_weight_equals.calls": "count",
    "roots.solve_weight_equals.self_s": "s",
    "roots.weight_value.calls": "count",
    "roots.weight_value.self_s": "s",
    "roots.evals": "count",
    "roots.shoulder_lambda.calls": "count",
    "roots.shoulder_lambda.self_s": "s",
    "roots.bounds_record.self_s": "s",
    "structure.build_report.calls": "count",
    "structure.build_report.self_s": "s",
    "structure.find_modes.self_s": "s",
    "structure.local_maxima.self_s": "s",
    "structure.find_triple_ties.self_s": "s",
    "structure.check_monotone_tail.self_s": "s",
    "structure.entries_scanned": "count",
    "cli.scan_point.calls": "count",
    "cli.scan_point.self_s": "s",
    "cli.scan_point.p50_ms": "ms",
    "cli.scan_point.p90_ms": "ms",
    "cli.emit.self_s": "s",
    "cli.emit.rows": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
TIME_UNITS = {"s", "ms", "us", "ns"}

MIN_SAMPLES = 3
SETUP_WARMUP = 2  # fresh imports before timing; the first one writes bytecode caches
SETUP_PER_ROUND = 2
# probe() seconds at the reference speed, about a quiet 2-vCPU Xeon VM
PROBE_REF_S = 0.5
INVOCATION_TIMEOUT_S = 60.0
SETUP_CODE = "from poisson_order_k.cli import build_parser; build_parser()"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def workload_args(name: str, seed: int) -> list[str]:
    """CLI arguments of a workload; seed 0 gives the stored reference inputs.

    Other seeds jitter both ends of the scan-grid rate grid by a factor of up
    to 1e-3.  The other workloads run the paper's fixed constants.
    """
    args = list(WORKLOADS[name])
    if name == "scan-grid":
        start, stop, count = GRID
        if seed != 0:
            rng = random.Random(seed)
            start *= 1.0 + rng.uniform(-GRID_JITTER, GRID_JITTER)
            stop *= 1.0 + rng.uniform(-GRID_JITTER, GRID_JITTER)
        args += [repr(start), repr(stop), str(count), "--format", "json"]
    if args[0] == "scan":
        args += ["--jobs", "1"]
    return args


def check_output(
    name: str, seed: int, returncode: int, stdout: bytes, references: dict[str, str]
) -> str | None:
    """Why one invocation's output is wrong, or None when it is correct.

    Seed 0 must reproduce the stored stdout digest byte for byte.  Every seed
    must satisfy the invariants that hold for any input: verify passes all
    suites, every bounds row has status ok, and every scan row has no error
    and mode_bounds_ok true.  Scan tail violations are not failures: above the
    tail threshold a non-monotone tail is the correct answer.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    if seed == 0 and hashlib.sha256(stdout).hexdigest() != references[name]:
        return "stdout differs from the stored seed-0 reference"
    text = stdout.decode("utf-8")
    if name == "verify":
        lines = text.splitlines()
        passed = [line for line in lines if line.split(": ", 1)[-1].startswith("pass (")]
        if len(lines) != VERIFY_SUITES or len(passed) != VERIFY_SUITES:
            return f"verify printed {len(passed)} pass lines of {len(lines)}"
        return None
    try:
        if name == "scan-grid":  # the only JSON workload
            rows = json.loads(text)
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
    except (ValueError, csv.Error) as exc:
        return f"unparsable output: {exc}"
    if len(rows) != EXPECTED_ROWS[name]:
        return f"{len(rows)} rows, expected {EXPECTED_ROWS[name]}"
    for row in rows:
        if name == "bounds":
            if row["status"] != "ok":
                return f"bounds k={row['k']}: status {row['status']}"
        elif row["error"] or row["mode_bounds_ok"] not in (True, "true"):
            return f"scan k={row['k']} lambda={row['lambda']}: {row['error'] or 'mode bounds'}"
    return None


@dataclass
class Invocation:
    """One finished child process."""

    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    slowdown: float = 1.0  # of the machine during the invocation; see measure()


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def invoke(argv: list[str], env: dict[str, str]) -> Invocation:
    """Run one child to completion through runner.py, which measures it.

    Wall time spans the child's spawn to its exit.
    """
    report_r, report_w = os.pipe()
    with tempfile.TemporaryFile(dir=HERE) as err:
        proc = subprocess.Popen(
            [sys.executable, str(RUNNER), str(report_w), *argv],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env,
            pass_fds=(report_w,), start_new_session=True,
        )
        os.close(report_w)
        # the runner and the child share a new process group
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            stdout = proc.stdout.read()
            report = os.read(report_r, 4096).split()
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            os.close(report_r)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    if len(report) != 4:  # the runner was killed
        return Invocation(-signal.SIGKILL, stdout, stderr, math.inf, math.inf, math.inf)
    return Invocation(
        returncode=int(report[0]),
        stdout=stdout,
        stderr=stderr,
        wall_s=float(report[1]),
        cpu_s=float(report[2]),
        peak_rss_mb=int(report[3]) / 1024.0,  # ru_maxrss is in KiB on Linux
    )


def _probe_call(a: float, b: float) -> list[float]:
    return [a + b, a * b, a - b]


def probe() -> float:
    """Seconds for fixed pure-Python work that does not use the package.

    It mixes the kinds of work the workloads do, in roughly equal parts: a
    40-term float recurrence, many short calls that build small lists, and
    Fraction arithmetic on big integers.
    """
    start = time.perf_counter()
    w = [1.0]
    for n in range(1, 30_000):
        s = 0.0
        for j in range(1, min(n, 40) + 1):
            s += j * w[n - j]
        w.append(s / (40.0 * n))
    total = 0.0
    for m in range(900_000):
        total += _probe_call(m, 0.5)[1]
    for _ in range(16):
        x = Fraction(0)
        for n in range(1, 2500):
            x += Fraction(1, n * n)
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to import the CLI and build its parser."""
    done = invoke([sys.executable, "-c", SETUP_CODE], env)
    if done.returncode != 0:
        raise BenchError(f"importing the CLI failed:\n{done.stderr}")
    return done.wall_s


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "poisson_order_k").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(name: str, seed: int, args: list[str]) -> dict:
    """Where and on what the numbers were taken."""
    return {
        "workload": name,
        "seed": seed,
        "cli_args": args,
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


@dataclass
class Run:
    """Samples and outcome counts of one benchmark run."""

    name: str
    seed: int
    references: dict[str, str]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    plain: list[Invocation] = field(default_factory=list)
    traced: list[Invocation] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)

    def record(self, done: Invocation, slowdown: float, traced: bool) -> None:
        self.attempted += 1
        done.slowdown = slowdown
        why = check_output(self.name, self.seed, done.returncode, done.stdout, self.references)
        if why is None and traced:
            last = done.stderr.rstrip("\n").rsplit("\n", 1)[-1]
            if last.startswith(MARKER):
                self.layers.append(json.loads(last[len(MARKER):]))
            else:
                why = "traced run printed no layer metrics"
        if why is not None:
            self.failures.append(why if not done.stderr else f"{why}; stderr: {done.stderr[-500:]}")
            return
        (self.traced if traced else self.plain).append(done)


def measure(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """Invoke the workload until the next round would overrun ``seconds``.

    Each round is the set-up spawns and one plain (and, when tracing, one
    traced) invocation, with a probe before and after it.  On a shared host
    the single-thread speed drifts by tens of percent for minutes at a time.
    The round's slowdown is its mean probe time over PROBE_REF_S, and its
    times are divided by it, so that runs taken minutes apart can be compared.
    """
    if not (SRC / "poisson_order_k" / "cli.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    run = Run(name=name, seed=seed, references=references)
    env = child_env()
    args = workload_args(name, seed)
    plain_argv = [sys.executable, "-m", "poisson_order_k", *args]
    traced_argv = [sys.executable, str(TRACED), *args]
    start = time.perf_counter()
    deadline = start + seconds
    for _ in range(SETUP_WARMUP):
        time_setup(env)
    before = probe()
    rounds = 0
    while True:
        setup = [time_setup(env) for _ in range(SETUP_PER_ROUND)]
        plain = invoke(plain_argv, env)
        traced = invoke(traced_argv, env) if trace else None
        after = probe()
        slowdown = (before + after) / (2.0 * PROBE_REF_S)
        before = after
        run.setup += [t / slowdown for t in setup]
        run.record(plain, slowdown, traced=False)
        if traced is not None:
            run.record(traced, slowdown, traced=True)
        rounds += 1
        per_round = (time.perf_counter() - start) / rounds
        if rounds >= MIN_SAMPLES and time.perf_counter() + per_round > deadline:
            return run


def end_to_end(run: Run) -> dict[str, float]:
    """Times at the reference speed; memory as measured."""
    median = statistics.median
    return {
        "wall_s": median(d.wall_s / d.slowdown for d in run.plain),
        "cpu_s": median(d.cpu_s / d.slowdown for d in run.plain),
        "setup_s": median(run.setup),
        "peak_rss_mb": median(d.peak_rss_mb for d in run.plain),
    }


def per_layer(run: Run) -> dict[str, float]:
    """Counts as measured; times at the reference speed, like end_to_end."""
    median = statistics.median

    def scaled(name: str, layers: dict[str, float], slowdown: float) -> float:
        return layers[name] / slowdown if PER_LAYER[name] in TIME_UNITS else layers[name]

    out = {
        name: median(scaled(name, layers, d.slowdown) for layers, d in zip(run.layers, run.traced))
        for name in PER_LAYER
        if not name.startswith("trace.")
    }
    out["trace.wall_s"] = median(d.wall_s / d.slowdown for d in run.traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - median(
        d.wall_s / d.slowdown for d in run.plain
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so invoke() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = workload_args(opts.workload, opts.seed)
    try:
        run = measure(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for why in run.failures:
        print(f"perfbench: failed invocation: {why}", file=sys.stderr)
    print("run record: " + json.dumps(run_record(opts.workload, opts.seed, args)))
    failed = len(run.failures)
    print(
        f"ops_failed_frac = {failed / run.attempted:.4f} (fraction; "
        f"{failed} of {run.attempted} invocations)"
    )
    units = PER_LAYER if opts.trace else END_TO_END
    have = bool(run.plain) and (bool(run.traced) or not opts.trace)
    metrics = {}
    if have:
        values = per_layer(run) if opts.trace else end_to_end(run)
        samples = len(run.traced) if opts.trace else len(run.plain)
        slowdowns = [d.slowdown for d in run.plain]
        print(
            f"slowdown = {statistics.median(slowdowns):.4f} (probe time over {PROBE_REF_S} s, "
            f"median of {len(slowdowns)}; times below are divided by each round's "
            f"slowdown; wall_s as measured: "
            f"{statistics.median(d.wall_s for d in run.plain):.6g} s)"
        )
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            n = len(run.setup) if name == "setup_s" else samples
            print(f"{name} = {values[name]:.6g} {unit} (median of {n})")
    result = {
        "correct": failed == 0 and have,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
