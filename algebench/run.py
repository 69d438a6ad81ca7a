#!/usr/bin/env python3
"""Benchmark of algebragen: time to a correct answer, end to end and per layer.

    python3 algebench/run.py --workload f64-dense --seed 1 --seconds 24 --trace 0
    python3 algebench/run.py --workload all --seed 1      # every workload, as a table

Run from the repository root; the library is imported from ``src``.  Each
workload runs in one process with BLAS on one thread.  It draws its
instances from the seed (gen.py, workloads.py), writes them as instance
files under ``.algebench_work/`` and loads them through the library, then
repeats timed passes over its operations for ``--seconds`` seconds.

Accounting.  Every answer is checked against its answer by construction, in
every pass.  An answer fails if it is wrong or raises in any pass, or if its
op's median time over the passes is over the op's limit; the pass goes on.
``attempted`` and ``failed`` count each answer of the workload once, however
many passes the time allowed, so that for one seed they do not depend on the
host's speed.  A time metric sums, over the operations, each operation's
median time over the passes plus its limit for each failed answer (its
charged time).  Times are in reference seconds (clock.py):
wall time rescaled by a reference mix timed before each call, because this
kind of shared host changes speed by up to 1.5x from second to second.

``correct`` in the result line is false when the benchmark itself cannot
vouch for its checks: the traced run changed an answer, or the tracer left a
wrapper behind.  Wrong answers from the program are counted in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes (per-call-kind times, ``wall_s``) and half on traced
passes (per-layer wall times, self times and counts from tracer.py), prints
one ``{"trace_op": ...}`` line per operation of the first traced pass with
its rank diagnostics and primes, and reports the tracing overhead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import clock
import gen
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".algebench_work"

SETUP_REPEATS = 5
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import algebragen
from algebragen import instances
from pathlib import Path
for path in sorted(Path(sys.argv[2]).glob("*.json")):
    instances.load_instance(str(path))
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import clock, statistics
print(elapsed * clock.REF_S / statistics.median(clock.reference() for _ in range(5)))
"""

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "cli_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}
CALL_KINDS = {
    "dim": "dim_s",
    "basis": "basis_s",
    "member": "member_s",
    "certificate": "certificate_s",
    "intersect": "intersect_s",
    "modp": "modp_s",
    "wordspan": "wordspan_s",
}


# -- one workload ----------------------------------------------------------


class Row(NamedTuple):
    """One op in one pass."""

    elapsed: float  # wall seconds
    scaled: float  # reference seconds (clock.py)
    verdicts: list  # one per answer: right in this pass
    summary: object  # compared between traced and untraced passes


def execute(op, tracer=None):
    """Run one op and check its answers; returns (elapsed, verdicts, summary)."""
    span = tracer.span(f"op.{op.kind}") if tracer is not None else contextlib.nullcontext()
    if tracer is not None:
        tracer.op = op
    t0 = time.perf_counter()
    try:
        with span:
            answer = op.run()
    except Exception:  # a raised call is a failed answer; the pass goes on
        elapsed = time.perf_counter() - t0
        print(f"{op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, [False] * op.count, "raised"
    elapsed = time.perf_counter() - t0
    try:
        verdicts = [bool(v) for v in op.check(answer)]
        summary = op.summary(answer)
    except Exception:  # an answer of the wrong shape is a wrong answer
        print(f"{op.label} answer not checkable:\n{traceback.format_exc()}", file=sys.stderr)
        verdicts, summary = [], "unchecked"
    if len(verdicts) != op.count:
        verdicts = [False] * op.count
    return elapsed, verdicts, summary


def run_pass(ops, tracer=None) -> list[Row]:
    """One pass over the ops, each timed between two reference samples."""
    refs, results = [clock.reference()], []
    for op in ops:
        results.append(execute(op, tracer))
        refs.append(clock.reference())
    rows = []
    for op, (elapsed, verdicts, summary), before, after in zip(ops, results, refs, refs[1:]):
        scaled = elapsed * clock.REF_S * 2 / (before + after)
        rows.append(Row(elapsed, scaled, verdicts, summary))
    return rows


def run_passes(ops, budget, make_tracer=None):
    """Repeat passes until budget seconds have gone; at least one pass.

    Returns one list of Rows per pass, the tracers of traced passes, and the
    process's peak resident memory in MB after the first pass: later passes
    repeat the same calls and add only allocator slack, 0 or 2 MB from one
    run to the next on f64-edge."""
    passes, tracers, peak_rss_mb = [], [], None
    start = time.perf_counter()
    while True:
        if make_tracer is None:
            passes.append(run_pass(ops))
        else:
            tracer = make_tracer()
            with tracer.installed():
                passes.append(run_pass(ops, tracer))
            tracers.append(tracer)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= budget:
            return passes, tracers, peak_rss_mb


def per_op_median(passes, field):
    return [statistics.median(getattr(p[i], field) for p in passes) for i in range(len(passes[0]))]


def account(ops, passes, checked):
    """Verdicts and charged times of the ops, one of each per op.

    An answer is right if it is right in every pass of ``checked`` and its
    op's median wall time over ``passes`` is within the op's limit.  The
    charged time is the op's median time over ``passes``, plus its limit for
    each wrong answer."""
    verdicts, charged = [], []
    for i, (op, scaled) in enumerate(zip(ops, per_op_median(passes, "scaled"))):
        in_time = statistics.median(p[i].elapsed for p in passes) <= op.limit * op.count
        ok = [in_time and all(p[i].verdicts[j] for p in checked) for j in range(op.count)]
        verdicts.append(ok)
        charged.append(scaled + op.limit * ok.count(False))
    return verdicts, charged


def time_setup(workdir) -> float:
    """Median over fresh processes of importing algebragen and loading
    every instance file of the workload, in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(workdir), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace) -> dict:
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cases, descs = workloads.draw(workload, seed)
        files = {c.name: gen.write_case(c, str(workdir)) for c in cases}
        setup_s = None if trace else time_setup(workdir)
        ops = workloads.bind(workload, seed, cases, descs, files)
        if trace:
            passes, _, _ = run_passes(ops, seconds / 2)
            traced, tracers, _ = run_passes(ops, seconds / 2, tracing.Tracer)
        else:
            passes, _, peak_rss_mb = run_passes(ops, seconds)
            traced, tracers = [], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    verdicts, charged = account(ops, passes, passes + traced)
    attempted = sum(op.count for op in ops)
    failed = sum(ok.count(False) for ok in verdicts)
    if not trace:
        values = {
            "setup_s": setup_s,
            "total_s": sum(charged),
            "cli_s": sum(c for op, c in zip(ops, charged) if op.kind.startswith("cli-")),
            "ok_share": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}

    metrics = {"wall_s": {"value": sum(per_op_median(passes, "scaled")), "unit": "s"}}
    for kind, name in CALL_KINDS.items():
        metrics[name] = {"value": sum(c for op, c in zip(ops, charged) if op.kind == kind), "unit": "s"}
    layers = [t.summary() for t in tracers]
    for name in tracing.metric_names():
        unit = "s" if name.endswith((".s", ".self_s")) else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
    # in wall seconds like the layer times, to give each layer's share
    metrics["trace.wall_s"] = {"value": statistics.median(sum(r.elapsed for r in p) for p in traced), "unit": "s"}
    traced_s, untraced_s = (statistics.median(sum(r.scaled for r in p) for p in ps) for ps in (traced, passes))
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    answers = [{p[i].summary for p in passes} for i in range(len(ops))]
    correct = all(p[i].summary in answers[i] for p in traced for i in range(len(ops)))
    correct = correct and all(t.restored for t in tracers)
    print_trace_ops(ops, traced[0], tracers[0], verdicts, charged)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_trace_ops(ops, rows, tracer, verdicts, charged):
    """One line per op of a traced pass: its time, layer times and the
    diagnostics read from the returned reports and prime plans, with the op's
    verdicts and charged time over the whole run."""
    for op, row, layers, ok, charged_s in zip(ops, rows, tracer.per_root(), verdicts, charged):
        record = {
            "op": op.label,
            "n": op.n,
            "elapsed_s": row.elapsed,
            "charged_s": charged_s,
            "ok": ok,
            "layers_s": layers,
            "reports": [r for r in tracer.reports if r["op"] == op.label],
            "primes": [{"p": o.p, "rank": o.rank} for label, plan in tracer.plans
                       if label == op.label for o in plan.outcomes],
        }
        print(json.dumps({"trace_op": record}))


# -- command line ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "algebragen" / "__init__.py").is_file():
        print(f"error: no algebragen package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[workload]
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
