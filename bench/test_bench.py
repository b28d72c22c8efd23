"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 12))
    assert run.percentile(values, 50) == 6
    assert run.percentile(values, 90) == 10
    assert run.percentile([1.0, 2.0], 50) == 1.5


def test_self_time_subtracts_covered_child_time():
    spans_ = [
        ["cli.query", 0.0, 10.0, None],
        ["textio.parse", 1.0, 4.0, 0],
        ["lts.build", 2.0, 3.0, 1],
        ["semantics.interpret", 5.0, 9.0, 0],
        ["trace", 6.0, 8.0, 3],
        ["lts.build", 9.5, 12.0, 0],  # runs past its parent: only 0.5 s is covered
    ]
    assert spans.self_times(spans_) == [2.5, 2.0, 1.0, 2.0, 2.0, 2.5]
    rec = spans.Recorder()
    rec.spans = spans_
    summary = rec.summary()
    assert summary["cli.self_s"] == 2.5
    assert summary["textio.parse_s"] == 2.0
    assert summary["lts.build_s"] == 3.5
    assert summary["semantics.interpret_s"] == 2.0


def test_generation_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 7)
        b = workloads.generate(workload, 7)
        assert a.files == b.files and a.queries == b.queries
    assert workloads.generate("cli", 7).files != workloads.generate("cli", 8).files


def test_flipped_verdict_is_counted_as_failed(tmp_path):
    bench = run.Bench("cli", 3, "smoke", str(tmp_path))
    bench.setup()
    bench.load_expected()
    key = next(q.key for q in bench.queries if q.kind == "check")
    bench.expected[key] = not bench.expected[key]
    out = run.result(bench.setup_times, bench.run(0.0, False), False)
    flipped = sum(q.key == key for q in bench.queries)
    assert out["attempted"] == len(bench.queries)
    assert out["failed"] == flipped
    assert out["correct"] is False


def test_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    bench = run.Bench("verify", 5, "smoke", str(tmp_path))
    bench.setup()
    # a machine a million times slower than the reference
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_REF_S * 1e6)
    outcome = bench.run(0.0, False)
    assert bench.speeds[1:] and all(f == 1e-6 for f in bench.speeds[1:])
    assert 0 < max(outcome.latencies) < 1e-4
    assert 0 < max(bench.setup_times[1:]) < 1e-5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_size_run_reports_every_declared_metric(workload, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    bench = run.Bench(workload, 5, "smoke", str(tmp_path))
    bench.setup()
    bench.load_expected()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        outcome = bench.run(0.0, trace)
        out = run.result(bench.setup_times, outcome, trace)
        assert out["correct"], outcome.errors
        assert out["failed"] == 0 and out["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared[section]} == \
            {k: v["unit"] for k, v in out["metrics"].items()}
    # the probe enters every layer, so no layer time reads a constant 0
    assert all(v["value"] > 0 for k, v in out["metrics"].items() if k.endswith("_s"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
