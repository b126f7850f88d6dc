"""Tests of the benchmark's own code.

Run from the repository root: ``PYTHONPATH=src python -m pytest servebench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
import runner  # noqa: E402
from stats import TooFewSamples, block_percentile, percentile, samples_needed  # noqa: E402
from workloads import WORKLOADS, Op, build_ops, corpus, probe_points, stream_bytes  # noqa: E402

from repro import RetrievalSystem  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_op_stream(name):
    workload = WORKLOADS[name]
    first = stream_bytes(build_ops(workload, 7, 1))
    assert first == stream_bytes(build_ops(workload, 7, 1))
    assert first != stream_bytes(build_ops(workload, 8, 1))


def test_corpus_is_seeded():
    assert [p.to_dict() for p in corpus(3, 5)] == [p.to_dict() for p in corpus(3, 5)]
    assert [p.to_dict() for p in corpus(3, 5)] != [p.to_dict() for p in corpus(4, 5)]


@pytest.mark.parametrize("fraction, needed", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(fraction, needed):
    assert samples_needed(fraction) == needed
    with pytest.raises(TooFewSamples):
        percentile(list(range(needed - 1)), fraction)
    values = list(range(1, needed + 1))
    assert percentile(values, fraction) == values[needed - 11]


def test_block_percentile_ignores_a_slow_episode_in_a_minority_of_blocks():
    steady = [1.0 + (index % 10) / 100 for index in range(1000)]
    episode = steady[:700] + [value * 3 for value in steady[700:1000]]
    assert block_percentile(episode, 0.9) == block_percentile(steady, 0.9) == 1.0 + 8 / 100
    assert percentile(episode, 0.9) > 3
    with pytest.raises(TooFewSamples):
        block_percentile(steady[:99], 0.9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_primary_class_always_supports_p90(name):
    workload = WORKLOADS[name]
    ops = build_ops(workload, 1, 1)
    primary = [op for op in ops if op.timed and op.kind == workload.primary]
    assert len(primary) >= samples_needed(0.9)


def _query_op(picture) -> Op:
    body = json.dumps({"scene": picture.to_dict(), "limit": 10}).encode()
    return Op(0, "search", "POST", "/search", body, True)


def test_answer_check_flags_a_perturbed_ranking(tmp_path):
    pictures = corpus(5, 30)
    RetrievalSystem.from_pictures(pictures).save(tmp_path / "db", backend="sharded")
    op = _query_op(corpus(6, 1)[0])
    truth = oracle.oracle_rows(RetrievalSystem.from_file(tmp_path / "db"), op.payload())
    assert len(truth) == 10

    def verdict(rows):
        return oracle.check_answers(tmp_path / "db", [op], {0: {"results": rows}}, [], {0})[0]

    assert verdict(truth)
    swapped = [dict(row) for row in truth]
    swapped[0]["image_id"], swapped[1]["image_id"] = swapped[1]["image_id"], swapped[0]["image_id"]
    assert not verdict(swapped)
    rescored = [dict(row) for row in truth]
    rescored[3]["score"] += 1e-9
    assert not verdict(rescored)
    assert not verdict(truth[:-1])


def test_expected_ids_follow_acknowledged_writes():
    ops = build_ops(WORKLOADS["ingest-wal"], 2, 1)
    writes = [op for op in ops if op.kind == "write"]
    acked = [op.index for op in writes]
    expected = oracle.expected_ids(["img-00000"], ops, acked)
    added = {op.payload()["image_id"] for op in writes if op.method == "POST"}
    deleted = {op.path.rsplit("/", 1)[1] for op in writes if op.method == "DELETE"}
    assert deleted <= added
    assert expected == {"img-00000"} | (added - deleted)
    assert oracle.expected_ids(["img-00000"], ops, []) == {"img-00000"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_probes_spread_over_the_timed_phase(name):
    workload = WORKLOADS[name]
    ops = build_ops(workload, 1, BENCHMARK["run_seconds"])
    timed = [op.index for op in ops if op.timed]
    points = probe_points(workload, ops, runner.SETUP_PROBES)
    assert len(points) == runner.SETUP_PROBES
    assert points == sorted(set(points)) and timed[0] < points[0]
    gaps = [b - a for a, b in zip([timed[0], *points], [*points, timed[-1]])]
    assert max(gaps) < 2.5 * len(timed) / (runner.SETUP_PROBES + 1)


def test_setup_probes_stay_clear_of_compactions():
    workload = WORKLOADS["ingest-wal"]
    ops = build_ops(workload, 1, BENCHMARK["run_seconds"])
    writes_before = {}
    writes = 0
    for op in ops:
        writes_before[op.index] = writes
        writes += op.kind == "write"
    margin = workload.compact_every // 4
    for point in probe_points(workload, ops, runner.SETUP_PROBES):
        position = writes_before[point] % workload.compact_every
        assert margin <= position <= workload.compact_every - margin


def _outcome(index: int, timed: bool, ok: bool) -> runner.Outcome:
    op = Op(index, "search", "POST", "/search", b"{}", timed)
    return runner.Outcome(op, 200 if ok else 500, 0.001, 0.0, 0.001, ok=ok)


def _replay(*oks, untimed_ok=True) -> runner.Replay:
    outcomes = [_outcome(0, False, untimed_ok)]
    outcomes += [_outcome(index, True, ok) for index, ok in enumerate(oks, start=1)]
    return runner.Replay(outcomes, 1.0, {}, {})


def test_verdict_counts_failed_and_wrong_ops():
    checks = {"wrong_answers": [], "ids_ok": True}
    assert runner.verdict(_replay(True, True), checks) == (True, 2, 0)
    assert runner.verdict(_replay(True, False), checks) == (False, 2, 1)
    assert runner.verdict(_replay(True, True, untimed_ok=False), checks) == (False, 2, 0)
    wrong = {"wrong_answers": [2], "ids_ok": True}
    assert runner.verdict(_replay(True, True), wrong) == (False, 2, 1)


def test_a_failed_traced_op_makes_the_run_incorrect():
    checks = {"wrong_answers": [], "ids_ok": True}
    assert runner.verdict(_replay(True, True), checks, _replay(True, True)) == (True, 5, 0)
    assert runner.verdict(_replay(True, True), checks, _replay(True, False)) == (False, 5, 1)
    untimed = _replay(True, True, untimed_ok=False)
    assert runner.verdict(_replay(True, True), checks, untimed) == (False, 5, 1)


def test_metric_names_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
