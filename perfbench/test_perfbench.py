"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

Each workload is run once under the tracer (about 15 s in all).  The pinned
counts are exact work counts of the current code; they repeat from run to run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

PINNED = {
    "scan-meank": {"pmf.kterm_steps": 205200, "pmf.kterm_madds": 26076248},
    "scan-grid": {"cli.scan_point.calls": 980, "pmf.kterm_madds": 30837316},
    "verify": {"pmf.build_table_km.calls": 40, "pmf.km_steps": 8000},
    "bounds": {"roots.evals": 3550, "roots.weight_value.calls": 3550},
}


@pytest.fixture(scope="module")
def references() -> dict[str, str]:
    return json.loads(run.REFERENCES.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_runs(references) -> dict[str, run.Run]:
    env = run.child_env()
    runs = {}
    for name in run.WORKLOADS:
        argv = [sys.executable, str(run.TRACED), *run.workload_args(name, 0)]
        runs[name] = run.Run(name=name, seed=0, references=references)
        runs[name].record(run.invoke(argv, env), 1.0, traced=True)
    return runs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traced_run_is_correct_and_pins_counts(traced_runs, name):
    done = traced_runs[name]
    assert done.failures == []
    (layers,) = done.layers
    for metric, want in PINNED[name].items():
        assert layers[metric] == want, metric
    assert set(run.PER_LAYER) - set(layers) == {"trace.wall_s", "trace.overhead_s"}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_self_times_fit_in_traced_wall(traced_runs, name):
    done = traced_runs[name]
    self_s = [v for k, v in done.layers[0].items() if k.endswith(".self_s")]
    assert all(s >= 0.0 for s in self_s)
    assert sum(self_s) <= done.traced[0].wall_s


def test_corrupted_reference_is_a_failed_operation(traced_runs, references):
    stdout = traced_runs["verify"].traced[0].stdout
    done = run.Invocation(0, stdout, "", 1.0, 1.0, 20.0)
    good = run.Run(name="verify", seed=0, references=references)
    good.record(done, 1.0, traced=False)
    assert (good.attempted, good.failures) == (1, [])
    corrupted = dict(references, verify="0" * 64)
    bad = run.Run(name="verify", seed=0, references=corrupted)
    bad.record(done, 1.0, traced=False)
    assert bad.attempted == 1
    assert len(bad.failures) == 1 and "reference" in bad.failures[0]
    assert bad.plain == []


def test_peak_rss_is_the_childs_own():
    ballast = bytearray(64 << 20)  # the harness holds its outputs, so it can be large
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])  # make the pages resident
    done = run.invoke([sys.executable, "-c", "pass"], run.child_env())
    assert done.returncode == 0
    assert done.peak_rss_mb < 40
    del ballast


def test_invariants_apply_to_every_seed(references):
    failing = [
        ("verify", b"a: pass (x)\nb: FAIL (y)\nc: pass\nd: pass\ne: pass\n"),
        ("bounds", b"k,status\n2,ok\n" + b"".join(b"%d,root2_bound\n" % k for k in range(3, 151))),
        ("scan-meank", b"k,lambda,mode_bounds_ok,error\n" + b"2,0.6,true,boom\n" * 199),
        ("scan-meank", b"k,lambda,mode_bounds_ok,error\n" + b"2,0.6,false,\n" * 199),
        ("scan-grid", b"[]"),
    ]
    for name, stdout in failing:
        assert run.check_output(name, 7, 0, stdout, references) is not None, name
    ok = b"k,lambda,mode_bounds_ok,error\n" + b"2,0.6,true,\n" * 199
    assert run.check_output("scan-meank", 7, 0, ok, references) is None
    assert run.check_output("scan-meank", 7, 1, ok, references) == "exit code 1"


def test_seed_only_jitters_the_grid_endpoints():
    assert run.workload_args("scan-grid", 0)[6:9] == ["0.05", "3.0", "20"]
    for seed in (1, 2, 3):
        args = run.workload_args("scan-grid", seed)
        assert args == run.workload_args("scan-grid", seed)
        start, stop = float(args[6]), float(args[7])
        assert abs(start / 0.05 - 1) <= run.GRID_JITTER
        assert abs(stop / 3.0 - 1) <= run.GRID_JITTER
        assert (start, stop) != (0.05, 3.0)
    for name in ("scan-meank", "bounds", "verify"):
        assert run.workload_args(name, 5) == run.workload_args(name, 0)


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
