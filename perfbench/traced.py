"""Run the poisson-order-k CLI once with a span around every layer function.

    PYTHONPATH=src python3 perfbench/traced.py <cli arguments...>

Every public function of ``pmf``, ``oracle``, ``roots`` and ``structure``,
and ``main``, ``_scan_point`` and ``_emit`` of ``cli``, is replaced by a
wrapper that times it, in every module namespace that holds it (``cli``
imports the ``pmf`` builders by name, so patching only the defining module
would miss those calls).  Whole functions are wrapped, never single
recurrence steps: per-step costs are derived from work counts instead.

The CLI's stdout and exit code are unchanged.  The per-layer metrics of this
one invocation go to stderr as the last line, prefixed with ``MARKER``.
Self time is a span's duration minus the durations of the spans it directly
encloses; ``cli`` is the span around ``cli.main``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import poisson_order_k
from poisson_order_k import cli, oracle, pmf, roots, structure

MARKER = "perfbench-layers: "

COUNTS = (
    "pmf.kterm_steps",
    "pmf.kterm_madds",
    "pmf.km_steps",
    "oracle.tuples",
    "roots.evals",
    "structure.entries_scanned",
    "cli.emit.rows",
)


def kterm_madds(k: int, n_max: int) -> int:
    """Multiply-adds of a k-term table of length n_max: sum of min(n, k), n = 1..n_max."""
    if n_max <= k:
        return n_max * (n_max + 1) // 2
    return k * (k + 1) // 2 + (n_max - k) * k


def _count_kterm(counts, args, table) -> None:
    counts["pmf.kterm_steps"] += table.n_max
    counts["pmf.kterm_madds"] += kterm_madds(table.params.k, table.n_max)


def _count_km(counts, args, table) -> None:
    counts["pmf.km_steps"] += table.n_max


def _count_tuples(counts, args, tuples) -> None:
    counts["oracle.tuples"] += len(tuples)


def _count_evals(counts, args, result) -> None:
    counts["roots.evals"] += result.iterations


def _count_entries(counts, args, report) -> None:
    counts["structure.entries_scanned"] += len(args[0].values)


def _count_rows(counts, args, result) -> None:
    counts["cli.emit.rows"] += len(args[0])


_COUNTERS = {
    "pmf.build_table": _count_kterm,
    "pmf.build_adaptive_table": _count_kterm,
    "pmf.build_table_km": _count_km,
    "oracle.enumerate_tuples": _count_tuples,
    "roots.solve_weight_equals": _count_evals,
    "structure.build_report": _count_entries,
    "cli.emit": _count_rows,
}


class Tracer:
    """Spans kept in memory as per-name call counts, self times and durations."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # one [child seconds] cell per open span
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter({name: 0 for name in COUNTS})

    def wrap(self, name: str, func):
        count = _COUNTERS.get(name)
        self.calls[name] += 0  # spans never entered are reported as 0
        self.self_s[name] += 0.0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
                self.durations[name].append(duration)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        madds = self.counts["pmf.kterm_madds"]
        kterm_s = self.self_s["pmf.build_table"] + self.self_s["pmf.build_adaptive_table"]
        out["pmf.kterm_ns_per_madd"] = kterm_s / madds * 1e9 if madds else 0.0
        steps = self.counts["pmf.km_steps"]
        km_s = self.self_s["pmf.build_table_km"]
        out["pmf.km_us_per_step"] = km_s / steps * 1e6 if steps else 0.0
        points = self.durations["cli.scan_point"]
        if len(points) >= 2:
            deciles = statistics.quantiles(points, n=10)
            out["cli.scan_point.p50_ms"] = statistics.median(points) * 1e3
            out["cli.scan_point.p90_ms"] = deciles[8] * 1e3
        else:
            out["cli.scan_point.p50_ms"] = out["cli.scan_point.p90_ms"] = 0.0
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind every alias of them."""
    targets = {
        ("cli", cli.main),
        ("cli.scan_point", cli._scan_point),
        ("cli.emit", cli._emit),
    }
    for module in (pmf, oracle, roots, structure):
        short = module.__name__.rsplit(".", 1)[1]
        for attr in module.__all__:
            func = getattr(module, attr)
            if inspect.isfunction(func):
                targets.add((f"{short}.{attr}", func))
    wrappers = {id(func): tracer.wrap(name, func) for name, func in targets}
    for module in (poisson_order_k, pmf, oracle, roots, structure, cli):
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    print(MARKER + json.dumps(tracer.metrics(), sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
