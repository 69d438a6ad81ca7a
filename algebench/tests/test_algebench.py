"""Tests of the benchmark itself: inputs, expected answers, accounting, tracer."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import THIRD, Op  # noqa: E402

import algebragen  # noqa: E402
from algebragen import F64, RATIONAL, GeneratorSet, Mat, matrix, wordspan  # noqa: E402


def _gs(case):
    kind = RATIONAL if case.field == "rational" else F64
    return GeneratorSet(case.n, tuple(Mat.wrap(np.array(g, dtype=kind.dtype), kind) for g in case.gens), kind)


def _mat(m, kind):
    return Mat.wrap(np.array(m, dtype=kind.dtype), kind)


@pytest.mark.parametrize("workload", ["f64-dense", "exact-rational"])
def test_same_seed_same_instances(workload, tmp_path):
    first, ops_first = workloads.draw(workload, 3)
    again, ops_again = workloads.draw(workload, 3)
    other, _ = workloads.draw(workload, 4)
    assert ops_first == ops_again
    for a, b in zip(first, again):
        assert a.name == b.name and a.blocks == b.blocks
        for x, y in zip(a.gens + a.members + a.nonmembers, b.gens + b.members + b.nonmembers):
            assert np.array_equal(x, y)
    assert any(not np.array_equal(a.gens[0], b.gens[0]) for a, b in zip(first, other))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    gen.write_case(first[0], str(tmp_path / "a"))
    gen.write_case(again[0], str(tmp_path / "b"))
    for path in (tmp_path / "a").iterdir():
        assert path.read_text() == (tmp_path / "b" / path.name).read_text()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "field,blocks_a,blocks_b",
    [("f64", (3, 4), (4, 3)), ("f64", (8,), (8,)), ("rational", (2, 3), (3, 2)), ("rational", (4,), (4,))],
)
def test_expected_answers_match_word_span(seed, field, blocks_a, blocks_b):
    kind = RATIONAL if field == "rational" else F64
    scale_b = THIRD if field == "rational" else 1
    a, b, inter = gen.draw_pair(np.random.default_rng(seed), "p", field, blocks_a, blocks_b, 2, scale_b)
    bases = []
    for case in (a, b):
        wb = wordspan.word_span(_gs(case))
        assert wb.dim == case.dim
        bases.append(wb)
        for z in case.members:
            assert wordspan.express(wb, _mat(z, kind)) is not None
        for z in case.nonmembers:
            assert wordspan.express(wb, _mat(z, kind)) is None
    # dim(A & B) = dim A + dim B - dim(A + B)
    stacked = np.concatenate([matrix.vec(m).data for wb in bases for m in wb.mats], axis=1)
    assert a.dim + b.dim - matrix.rank(Mat.wrap(stacked, kind)) == inter


def test_partition_dimensions():
    assert gen.structured_dim((5,)) == 25
    assert gen.structured_dim((2, 3)) == 4 + 6 + 9
    assert gen.refine((3, 5), (5, 3)) == (3, 2, 3)
    assert gen.structured_dim(gen.refine((3, 5), (5, 3))) == 43


def _op(kind, run_fn, check, limit=1.0, count=1):
    return Op(kind=kind, label=kind, n=1, count=count, limit=limit, run=run_fn, check=check, summary=lambda a: a)


def test_failed_ops_are_counted_and_charged_and_the_pass_goes_on():
    def boom():
        raise ZeroDivisionError("program bug")

    def slow():
        time.sleep(0.02)
        return 1

    ops = [
        _op("raises", boom, lambda a: [True], limit=2.0),
        _op("wrong", lambda: 3, lambda a: [a == 4], limit=3.0),
        _op("over-limit", slow, lambda a: [a == 1], limit=0.001),
        _op("batch", lambda: [True, False, True], lambda a: [x == y for x, y in zip(a, [True, True, True])],
            limit=5.0, count=3),
        _op("right", lambda: 4, lambda a: [a == 4], limit=7.0),
    ]
    (rows,), _, _ = run.run_passes(ops, budget=0)
    assert [row.verdicts for row in rows] == [[False], [False], [True], [True, False, True], [True]]
    verdicts, charged = run.account(ops, [rows], [rows])
    assert verdicts == [[False], [False], [False], [True, False, True], [True]]
    for op, row, ok, c in zip(ops, rows, verdicts, charged):
        assert c == pytest.approx(row.scaled + op.limit * ok.count(False))
    assert charged[1] >= 3.0 and charged[3] >= 5.0 and charged[4] < 7.0


def test_each_answer_counts_once_however_many_passes():
    calls = iter([4, 4, 3, 4])
    ops = [_op("flaky", lambda: next(calls), lambda a: [a == 4]), _op("right", lambda: 4, lambda a: [a == 4])]
    passes = [run.run_pass(ops) for _ in range(4)]
    verdicts, _ = run.account(ops, passes, passes)
    assert verdicts == [[False], [True]]
    assert run.account(ops, passes[:2], passes[:2])[0] == [[True], [True]]


def _snapshot():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "algebragen" or name.startswith("algebragen.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_keeps_answers_and_restores_originals(tmp_path):
    rng = np.random.default_rng(5)
    a, b, inter = gen.draw_pair(rng, "q", "rational", (1, 3), (3, 1), 1, THIRD)
    files = {c.name: gen.write_case(c, str(tmp_path)) for c in (a, b)}
    descs = [(k, a.name) for k in ("dim", "basis", "member", "certificate", "wordspan", "modp", "cli-dim")]
    descs += [("intersect", a.name, b.name, inter), ("cli-member", a.name), ("cli-nonmember", b.name)]
    ops = workloads.bind("exact-rational", 0, [a, b], descs, files)

    (plain,), _, _ = run.run_passes(ops, budget=0)
    before = _snapshot()  # after the first pass has imported every module
    (traced,), (tracer,), _ = run.run_passes(ops, budget=0, make_tracer=tracing.Tracer)
    assert _snapshot() == before
    assert tracer.restored
    assert algebragen.inverse is matrix.inverse

    assert all(all(row.verdicts) for row in plain), [(op.label, row.verdicts) for op, row in zip(ops, plain)]
    assert [row.summary for row in traced] == [row.summary for row in plain]
    assert [row.verdicts for row in traced] == [row.verdicts for row in plain]

    summary = tracer.summary()
    assert set(summary) == set(tracing.metric_names())
    assert summary["matrix.inverse.s"] > 0 and summary["cli.main.s"] > summary["cli.main.self_s"] > 0
    assert summary["resolvent.span_matrix.s"] >= summary["matrix.inverse.s"]
    assert summary["wordspan.words_tried"] >= summary["wordspan.words_kept"] > 0
    assert summary["modp.primes_tried"] >= 2 and summary["primes.candidates_per_prime"] >= 1
    assert summary["resolvent.rank_short"] == 0
    assert all(r["rank"] == r["expected"] for r in tracer.reports if r["expected"] is not None)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = {m["name"] for m in spec["per_layer"]}
    extra = {"wall_s", "trace.wall_s", "trace.overhead_s"}
    assert per_layer == set(run.CALL_KINDS.values()) | set(tracing.metric_names()) | extra
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "algebench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "algebench/run.py", "--workload", "f64-edge", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
