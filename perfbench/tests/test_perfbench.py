"""Tests of the benchmark itself.

Run from the checkout root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import queries  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TIMED = ["membership-deep", "order-witt", "classify-grid"]


@pytest.fixture(autouse=True)
def at_checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", TIMED)
def test_smoke_query_passes(workload):
    info, result = run.measure(workload, seed=1, seconds=0, trace=0, smoke=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0), info
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_golden_byte_counts_as_failed(tmp_path):
    workload = "classify-grid"
    smoke_id = queries.SMOKE[workload]
    src = os.path.join(run.GOLDEN_DIR, f"{workload}.jsonl")
    rows = [json.loads(line) for line in open(src, encoding="utf-8")]
    for row in rows:
        if row["id"] == smoke_id:
            row["stdout"] = "[" + row["stdout"][1:]
    with open(tmp_path / f"{workload}.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
    info, result = run.measure(workload, seed=1, seconds=0, trace=0, smoke=True, golden_dir=str(tmp_path))
    assert (result["correct"], result["failed"], info["ops_failed"]) == (False, 1, 1)
    assert info["failures"] == {smoke_id: "stdout differs from golden"}


def test_trace_restores_every_wrapped_function():
    import worker

    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.snapshot() != before
        worker.run_query(queries.smoke("membership-deep")[0])
    finally:
        tracer.uninstall()
    after = tracing.snapshot()
    assert tracer.restored()
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1 and totals["localfield.mul"]["calls"] > 0


@pytest.mark.parametrize("workload", sorted(queries.WORKLOADS))
def test_seeded_queries_come_from_the_golden_pool(workload):
    pool = {q["id"] for q in queries.pool(workload)}
    golden = run.load_golden(workload)
    assert pool == set(golden)
    picks = [[q["id"] for q in queries.select(workload, seed)] for seed in (1, 2, 1)]
    assert picks[0] == picks[2] and picks[0] != picks[1]
    assert set(picks[1]) <= pool and len(set(picks[1])) == len(picks[1])
