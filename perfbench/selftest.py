#!/usr/bin/env python3
"""Self-tests of the benchmark itself: generators, output checks, trace counts.

    python3 perfbench/selftest.py

Exits 0 when every check holds; takes about a minute and a half.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from math import gcd, inf
from time import perf_counter

import hostref
import run
import tracing
import workloads

# Counts that depend only on the program's work, never on timing.
STEADY_COUNTS = (
    "permgroup.closure_elements",
    "permgroup.aut_order_log2",
    "refine.refine_calls",
    "refine.iso_calls",
    "oracle.types_tried",
    "capped",
)
TRACE_SAMPLE = {"verify_prime_power": 150, "verify_connected": 40, "verify_disconnected": 12, "analyze_large": 11}


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def _inputs(corpus):
    """Every input the corpus sends to the program, in order."""
    return [(i.n, i.labeled(k).s) for i in corpus for k in range(len(i.units))]


def test_generators_repeat():
    for name in workloads.GENERATORS:
        first, again, other = (workloads.corpus(name, seed) for seed in (5, 5, 6))
        expect(_inputs(first) == _inputs(again), f"{name}: seed 5 gave two corpora")
        expect(_inputs(first) != _inputs(other), f"{name}: seeds 5 and 6 gave one corpus")
        expect([i.planted for i in first] == [i.planted for i in again], f"{name}: planted levels differ")


def test_generators_property():
    for name in workloads.GENERATORS:
        for seed in (1, 2, run.DEFAULT_SEED):
            corpus = workloads.corpus(name, seed)
            inputs = _inputs(corpus)
            expect(len(set(inputs)) == len(inputs), f"{name} seed {seed}: an input repeats")
            expect(all(i.units for i in corpus), f"{name} seed {seed}: an instance without a labeling")
            expect(all(gcd(c, i.n) == 1 for i in corpus for c in i.units), f"{name} seed {seed}: a labeling is no unit")
            bad = [i.text() for i in corpus if not workloads.has_property(name, i)]
            expect(not bad, f"{name} seed {seed}: instances without the property: {bad[:3]}")
    expect(len(workloads.corpus("verify_prime_power", 1)) == 772, "criterion-5 corpus is not 772 instances")


class _ForgingProgram:
    """Stands in for circulant.cli: passes each report through forge(report, call)."""

    def __init__(self, real, forge):
        self.real, self.forge, self.calls = real, forge, 0

    def main(self, argv):
        captured = io.StringIO()
        with redirect_stdout(captured):
            code = self.real.main(argv)
        for line in captured.getvalue().splitlines():
            print(json.dumps(self.forge(json.loads(line), self.calls)))
        self.calls += 1
        return code


class _RaisingProgram:
    """Stands in for circulant.cli: its first call raises, later calls are real."""

    def __init__(self, real):
        self.real, self.calls = real, 0

    def main(self, argv):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("forged crash")
        return self.real.main(argv)


def _failed(program, runner, corpus):
    outcomes = runner(program, corpus, inf, tracing.Tracer(), hostref.HostSpeed())
    return sum(bool(o.problems) for o in outcomes), len(outcomes)


def test_forged_reports_fail():
    cli = run.import_program()
    verify = workloads.corpus("verify_prime_power", 1)[:3]
    analyze = workloads.corpus("analyze_large", 1)[:2]
    expect(_failed(cli, run.run_verify, verify) == (0, 3), "true verify reports counted as failures")
    expect(_failed(cli, run.run_analyze, analyze) == (0, 2), "true analyze reports counted as failures")
    forgeries = {
        "MISMATCH verdict": lambda r, _: {**r, "verdict": "MISMATCH"},
        "predicted outside actual": lambda r, _: {**r, "actual": [], "verdict": "exact-match"},
        "inexact at a prime power": lambda r, _: {**r, "verdict": "sound-subset"},
        "another instance": lambda r, _: {**r, "S": r["S"] + [r["n"]]},
    }
    for what, forge in forgeries.items():
        expect(_failed(_ForgingProgram(cli, forge), run.run_verify, verify)[0] == 3, f"verify: {what} not counted")
    forgeries = {
        "planted level dropped": lambda r, _: {**r, "per_prime": [{**e, "valid_levels": []} for e in r["per_prime"]]},
        "minimal group of wrong order": lambda r, _: {**r, "minimal_group": "Z2"},
        # run_analyze asks for every S, then every cS: forge only the cS reports
        "report differs under cS": lambda r, call: {**r, "realizable": []} if call >= len(analyze) else r,
    }
    for what, forge in forgeries.items():
        expect(_failed(_ForgingProgram(cli, forge), run.run_analyze, analyze)[0] == 2, f"analyze: {what} not counted")
    for runner, corpus in ((run.run_verify, verify), (run.run_analyze, analyze)):
        failed, attempted = _failed(_RaisingProgram(cli), runner, corpus)
        expect((failed, attempted) == (1, len(corpus)), f"{runner.__name__}: crash counted as {failed}/{attempted}")


def _traced_counts(cli, workload):
    corpus = workloads.corpus(workload, run.DEFAULT_SEED)[: TRACE_SAMPLE[workload]]
    tracer = tracing.Tracer()
    runner = run.run_analyze if workload == "analyze_large" else run.run_verify
    with tracer.installed():
        outcomes = runner(cli, corpus, inf, tracer, hostref.HostSpeed())
    counts = tracing.layer_metrics(tracer.spans)
    counts["capped"] = sum(o.verdict == workloads.ORACLE_CAPPED for o in outcomes)
    return {name: counts[name] for name in STEADY_COUNTS}


def test_trace_counts_repeat():
    cli = run.import_program()
    for workload in workloads.GENERATORS:
        first, second = _traced_counts(cli, workload), _traced_counts(cli, workload)
        expect(first == second, f"{workload}: traced counts differ: {first} vs {second}")
        print(f"  {workload}: {first}")


def main():
    failures = 0
    for test in (test_generators_repeat, test_generators_property, test_forged_reports_fail,
                 test_trace_counts_repeat):
        started = perf_counter()
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__} ({perf_counter() - started:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
