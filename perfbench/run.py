#!/usr/bin/env python3
"""Benchmark for circulant: `verify --batch` and `analyze`, end to end and per layer.

One run generates its workload's corpus from --seed, then makes one pass
per labeling over it through the program's command-line entry point
(`circulant.cli.main`, as the `circulant` console script calls it), closed
loop with one client: each instance starts when the previous one has
finished.  Pass k asks for the k-th labeling cS of each instance (c a
unit), so no input is answered twice, and an instance's latency is that of
its fastest labeling.  --seconds is a guard: the passes stop early
only if it runs out.  Every report is checked; the last line of standard
output is the result as one JSON object.

    python3 perfbench/run.py --workload verify_connected --seed 7 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all   # every workload, untraced and traced

--trace 1 wraps the public call of each layer in a span and reports the
per-layer metrics instead of the end-to-end ones.  perfbench/README.md lists
the workloads, the metrics and which layer moves which metric.
"""

import argparse
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from statistics import median
from time import perf_counter

import hostref
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = tuple(workloads.GENERATORS)
DEFAULT_SEED = 20260810
SETUP_REPEATS = 11
IMPORT_PROBE = "import time; t = time.perf_counter(); import circulant.cli; print(time.perf_counter() - t)"
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
CHUNK = 16  # instances per `verify --batch` call; the host's speed is timed between calls
# The seven end-to-end metrics.  capped_frac and fail_frac are 0 on most
# workloads, so BENCHMARK.json cannot bound them as a share of their median and
# lists them with the per-layer metrics; every run still prints them.
SUMMARY_METRICS = ("instances_per_s", "latency_p50_ms", "latency_tail_ms", "capped_frac",
                   "fail_frac", "peak_rss_mb", "setup_s")


class ProgramMissing(Exception):
    pass


class _Deadline(Exception):
    pass


@dataclass
class Outcome:
    latency: float  # seconds from the previous report (or the call) to this one
    problems: list  # failed output checks; empty when the report is right
    verdict: str = None  # verify reports only
    answered: bool = True  # False when the program raised instead of reporting
    runs: int = 1  # labelings answered or failed
    segment: int = 0  # the HostSpeed segment the latency was measured in


def import_program():
    """Import circulant from this checkout's src/ into this process."""
    if not (SRC / "circulant" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'circulant'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("circulant.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"circulant imported from {cli.__file__}, not from {SRC}")
    return cli


class _LineClock(io.TextIOBase):
    """Stands in for stdout: timestamps each report line, stops at the deadline."""

    def __init__(self, deadline, on_line):
        self.lines, self.times, self._partial = [], [], ""
        self._deadline, self._on_line = deadline, on_line

    def write(self, text):
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append(line)
            self.times.append(perf_counter())
            self._on_line(len(self.lines))
            if self.times[-1] > self._deadline:
                raise _Deadline
        return len(text)


def _report(line, check):
    try:
        report = json.loads(line)
    except json.JSONDecodeError:
        return ["unreadable report"], None
    return check(report), report.get("verdict")


def best_of_labelings(runs, host):
    """One outcome per instance reached, from the runs of its labelings.

    Each latency is first scaled to the reference host speed.  The
    instance's latency is then that of its fastest labeling: the host's
    speed also wanders by tens of percent within seconds, faster than the
    reference can follow, and the passes are seconds apart, so the fastest
    is the steadiest figure of the program's own work.  Every labeling's
    problems count, and one labeling that got no report fails it.
    """
    host.sample(force=True)
    return [Outcome(min(o.latency * host.scale(o.segment) for o in mine), [p for o in mine for p in o.problems],
                    mine[0].verdict, all(o.answered for o in mine), len(mine))
            for mine in runs if mine]


def _verify_batch(cli, batch, ids, deadline, tracer, path, segment):
    """`verify --batch` over `batch`: (corpus index, Outcome) per instance reached."""
    results, start = [], 0
    while start < len(batch) and perf_counter() < deadline:
        tracer.instance = ids[start]
        path.write_text("".join(inst.text() + "\n" for inst in batch[start:]), encoding="utf-8")
        clock = _LineClock(deadline, lambda done: setattr(tracer, "instance", ids[min(start + done, len(ids) - 1)]))
        error, previous = None, perf_counter()
        try:
            with redirect_stdout(clock):
                cli.main(["verify", "--batch", str(path), "--format", "json"])
        except _Deadline:
            pass
        except Exception as exc:  # the program failed on one instance: count it, go on
            error = exc
        end = perf_counter()
        for inst, i, line, stamp in zip(batch[start:], ids[start:], clock.lines, clock.times):
            problems, verdict = _report(line, lambda r: workloads.check_verify(inst, r))
            results.append((i, Outcome(stamp - previous, problems, verdict, segment=segment)))
            previous = stamp
        start += len(clock.lines)
        if start < len(batch) and (error is not None or end <= deadline):
            results.append((ids[start], Outcome(end - previous, [f"no report: {error!r}"], answered=False,
                                                segment=segment)))
            start += 1
    return results


def run_verify(cli, corpus, seconds, tracer, host):
    """`circulant verify --batch FILE --format json`, CHUNK instances a call.

    Pass k asks for labeling k of every instance that has one.  The latency
    of an instance is the time from the previous report line (or from the
    call) to its own.  An instance that raises is a failure; the batch then
    resumes after it.  The run stops at the first report after `seconds`.
    """
    deadline = perf_counter() + seconds
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"batch-{os.getpid()}.txt"
    runs = [[] for _ in corpus]
    try:
        for k in range(max(len(inst.units) for inst in corpus)):
            ids = [i for i, inst in enumerate(corpus) if k < len(inst.units)]
            for first in range(0, len(ids), CHUNK):
                if perf_counter() >= deadline:
                    break
                chunk = ids[first:first + CHUNK]
                batch = [corpus[i].labeled(k) for i in chunk]
                for i, outcome in _verify_batch(cli, batch, chunk, deadline, tracer, path, host.segment):
                    runs[i].append(outcome)
                host.sample()
    finally:
        path.unlink(missing_ok=True)
    return best_of_labelings(runs, host)


def _analyze(cli, inst):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["analyze", inst.text(), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"analyze exited {code}")
    return out.getvalue()


def run_analyze(cli, corpus, seconds, tracer, host):
    """`circulant analyze LITERAL --format json`, one call per instance and pass.

    Pass k asks for labeling k of every instance.  The run stops when
    `seconds` have passed; the output checks come after the passes, and the
    reports of one instance must agree apart from S.
    """
    deadline = perf_counter() + seconds
    runs, reports = [[] for _ in corpus], [{} for _ in corpus]
    for k, (i, inst) in product(range(max(len(inst.units) for inst in corpus)), enumerate(corpus)):
        if perf_counter() >= deadline:
            break
        if k >= len(inst.units):
            continue
        tracer.instance = i
        started = perf_counter()
        try:
            reports[i][k] = _analyze(cli, inst.labeled(k))
        except Exception as exc:  # the program failed on this instance: count it, go on
            runs[i].append(Outcome(perf_counter() - started, [f"no report: {exc!r}"], answered=False,
                                   segment=host.segment))
        else:
            runs[i].append(Outcome(perf_counter() - started, [], segment=host.segment))
        host.sample()
    for inst, mine, texts in zip(corpus, runs, reports):
        if mine:
            try:
                mine[0].problems.extend(workloads.check_analyze(inst, {k: json.loads(text) for k, text in texts.items()}))
            except json.JSONDecodeError:
                mine[0].problems.append("unreadable report")
    return best_of_labelings(runs, host)


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def summarize(outcomes):
    """Every end-to-end metric that the pass itself gives, and the tail's percentile."""
    latencies = [o.latency for o in outcomes]
    value, percentile = tail(latencies)
    attempted = len(outcomes)
    return {
        "instances_per_s": sum(o.answered for o in outcomes) / sum(latencies),
        "latency_p50_ms": 1000 * median(latencies),
        "latency_tail_ms": 1000 * value,
        "capped_frac": sum(o.verdict == workloads.ORACLE_CAPPED for o in outcomes) / attempted,
        "fail_frac": sum(bool(o.problems) for o in outcomes) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, percentile


def provenance(workload, seed, corpus, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "corpus_instances": len(corpus),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics():
    """(name, unit) pairs that BENCHMARK.json lists, end-to-end and per layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def time_import():
    """Seconds to import circulant.cli in a fresh interpreter.

    Bytecode is cached under WORK, as an installed package has it, so the
    time is the program's own import-time work rather than compilation.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def time_setup(workload, seed):
    """(median import seconds, median corpus seconds, corpus) of SETUP_REPEATS set-ups.

    Each set-up is scaled to the reference host speed by a reference
    timing taken just before it.
    """
    imports, corpora = [], []
    for _ in range(SETUP_REPEATS):
        scale = hostref.NOMINAL_S / hostref.reference()
        imports.append(time_import() * scale)
        started = perf_counter()
        corpus = workloads.corpus(workload, seed)
        corpora.append((perf_counter() - started) * scale)
    return median(imports), median(corpora), corpus


def run_one(args):
    workload, seed = args.workload, DEFAULT_SEED if args.seed is None else args.seed
    cli = import_program()
    # Set-up, an import of the program in a fresh interpreter plus corpus
    # generation, is timed SETUP_REPEATS times before the passes and again
    # after them.  The host's speed wanders over seconds, often between the two, so
    # the mean of the two medians is steadier than one median of both.
    import_before, corpus_before, corpus = time_setup(workload, seed)

    tracer, host = tracing.Tracer(), hostref.HostSpeed()
    runner = run_analyze if workload == "analyze_large" else run_verify
    if args.trace:
        with tracer.installed():
            outcomes = runner(cli, corpus, args.seconds, tracer, host)
    else:
        outcomes = runner(cli, corpus, args.seconds, tracer, host)

    metrics, percentile = summarize(outcomes)
    import_after, corpus_after, _ = time_setup(workload, seed)
    setup = {"import_s": (import_before + import_after) / 2, "corpus_s": (corpus_before + corpus_after) / 2}
    metrics["setup_s"] = setup["import_s"] + setup["corpus_s"]
    if args.trace:
        metrics.update(tracing.layer_metrics(tracer.spans))
        metrics["trace.instances_per_s"] = metrics["instances_per_s"]
    attempted = len(outcomes)
    failed = sum(bool(o.problems) for o in outcomes)
    calls, planned = sum(o.runs for o in outcomes), sum(len(inst.units) for inst in corpus)
    record = {"provenance": provenance(workload, seed, corpus, args), "attempted": attempted,
              "failed": failed, "calls": calls, "passes_complete": calls == planned, "setup": setup,
              "tail_percentile": percentile, "reference_s": median(host.timings), "metrics": metrics}

    WORK.mkdir(parents=True, exist_ok=True)
    stem = WORK / f"{workload}-{seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    end_to_end, per_layer = declared_metrics()
    units = dict(end_to_end + per_layer)
    print("provenance", json.dumps(record["provenance"]))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    print(f"latency_tail_ms is p{percentile:.2f} of {attempted} samples")
    print(f"setup_s is {setup['import_s']:.6g} s import in a fresh interpreter"
          f" + {setup['corpus_s']:.6g} s corpus generation")
    print(f"{calls} calls: each of {attempted} instances answered in up to {workloads.LABELINGS[workload]} labelings")
    print(f"host speed: the reference took {median(host.timings):.6g} s (median of {len(host.timings)});"
          f" timings are scaled to {hostref.NOMINAL_S} s")
    if calls < planned:
        print(f"passes cut by --seconds after {calls} of {planned} calls")
    for name in tracer.missing:
        print(f"{name}: the program has no such function; its spans are absent")
    for o in outcomes:
        if o.problems:
            print("failure:", "; ".join(o.problems), file=sys.stderr)
    chosen = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, untraced then traced; one table."""
    rows = {}
    for workload in WORKLOADS:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            path = WORK / f"{workload}-{seed}-trace{trace}.json"
            rows[workload, trace] = json.loads(path.read_text(encoding="utf-8"))

    end_to_end, per_layer = declared_metrics()
    units = dict(end_to_end + per_layer)
    for workload in WORKLOADS:
        plain, traced = rows[workload, 0], rows[workload, 1]
        m, t = plain["metrics"], traced["metrics"]
        print(f"== {workload}  {json.dumps(plain['provenance'])}")
        for name in SUMMARY_METRICS:
            print(f"  {name:28s} {m[name]:12.6g} {units[name]}")
        print(f"  {'':28s} latency_tail_ms is p{plain['tail_percentile']:.2f} of {plain['attempted']} samples")
        print(f"  {'':28s} setup_s is {plain['setup']['import_s']:.4g} s import"
              f" + {plain['setup']['corpus_s']:.4g} s corpus")
        if not plain["passes_complete"]:
            print(f"  {'':28s} passes cut by --seconds after {plain['calls']} calls")
        print(f"  {'tracing overhead':28s} {1 - t['instances_per_s'] / m['instances_per_s']:12.2%}"
              f"  traced {t['instances_per_s']:.4g} vs untraced {m['instances_per_s']:.4g} instances/s")
        for name, unit in per_layer:
            if name not in SUMMARY_METRICS:
                print(f"  {name:28s} {t[name]:12.6g} {unit}")
    failed = sum(rows[key]["failed"] for key in rows)
    print(json.dumps({"correct": failed == 0, "workloads": len(WORKLOADS), "failed": failed}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None, help=f"corpus seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=60, help="time limit of one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
