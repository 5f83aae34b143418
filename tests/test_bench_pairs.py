"""tools/bench_pairs.py statistics on synthetic perfbench results; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartile_distance_uses_inclusive_quartiles(bench_pairs):
    assert bench_pairs.quartile_distance([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert bench_pairs.quartile_distance([10.0, 1.0, 4.0, 7.0]) == pytest.approx(4.5)
    assert bench_pairs.quartile_distance([3.0]) == 0.0


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parents_spread(bench_pairs):
    parent = [50.0, 51.0, 52.0, 53.0, 54.0, 50.5, 51.5, 52.5, 53.5, 54.5]
    change = [p - 5.0 for p in parent]
    r = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (r["wins"], r["pairs"], r["verdict"]) == (10, 10, "gain")
    assert r["parent"] == 52.25 and r["change"] == 47.25
    assert r["percent"] == pytest.approx(-100 * 5 / 52.25)
    # eight wins of ten: no gain, whatever the gap
    lost = change[:8] + [p + 1.0 for p in parent[8:]]
    assert bench_pairs.compare(parent, lost, "lower", 0.25)["verdict"] == "within bound"
    # every pair won, but by less than the parent's quartile distance
    close = [p - 0.1 for p in parent]
    assert bench_pairs.compare(parent, close, "lower", 0.25)["verdict"] == "within bound"


def test_ties_count_for_neither_side_and_higher_can_be_better(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    assert bench_pairs.compare(parent, parent, "lower", 0.25)["wins"] == 0
    assert bench_pairs.compare(parent, [2.0, 3.0, 3.0, 5.0], "higher", 0.25)["wins"] == 3


def test_regression_and_unresolved(bench_pairs):
    parent = [1.00, 1.01, 0.99, 1.00]
    assert bench_pairs.compare(parent, [1.3, 1.31, 1.29, 1.3], "lower", 0.25)["verdict"] == "regression"
    assert bench_pairs.compare(parent, [1.2, 1.21, 1.19, 1.2], "lower", 0.25)["verdict"] == "within bound"
    noisy = [1.0, 2.0, 1.0, 2.0]
    assert bench_pairs.compare(noisy, [1.5, 1.5, 1.5, 1.5], "lower", 0.25)["verdict"] == "unresolved"
    # every change run better than every parent run settles a noisy metric
    assert bench_pairs.compare(noisy, [0.5, 0.6, 0.7, 0.8], "lower", 0.25)["verdict"] != "unresolved"


def _result(value, failed=0):
    metrics = {"batch_s": {"value": value, "unit": "s"}}
    return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics}


def test_table_reads_each_side_and_counts_failures(bench_pairs):
    metric = [{"name": "batch_s", "better": "lower", "bound": 0.25}]
    pairs = [(_result(1.0), _result(0.8)), (_result(1.1), _result(0.9))]
    assert bench_pairs.table(pairs, metric)[2] == "| `batch_s` | 1.05 | 0.85 | -19.0% | 0.05 | 2/2 | gain |"
    # the same times with one more failed call on the change's side: the gain does not count
    pairs = [(_result(1.0), _result(0.8, failed=1)), (_result(1.1), _result(0.9))]
    lines = bench_pairs.table(pairs, metric)
    assert lines[2] == "| `batch_s` | 1.05 | 0.85 | -19.0% | 0.05 | 2/2 | not met, more calls failed |"
    assert lines[3:] == ["parent: 0 of 20 calls failed", "change: 1 of 20 calls failed"]
    # as many failed calls on both sides leave the gain standing
    pairs = [(_result(1.0, failed=1), _result(0.8, failed=1)), (_result(1.1), _result(0.9))]
    assert bench_pairs.table(pairs, metric)[2].endswith("| gain |")


def test_main_runs_the_benchmark_files_length_and_metrics_alternating_sides(bench_pairs, tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    benchmark = {"run_seconds": 7, "end_to_end": [{"name": "batch_s", "better": "lower", "bound": 0.25}]}
    (change / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return _result(1.0 if checkout == parent else 0.5)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "3", "--seed", "40"]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        ("parent", "w", 40, 7), ("change", "w", 40, 7),
        ("change", "w", 41, 7), ("parent", "w", 41, 7),
        ("parent", "w", 42, 7), ("change", "w", 42, 7),
    ]
    out = capsys.readouterr().out
    assert "w, 3 pairs of 7 s runs:" in out
    assert "| `batch_s` | 1 | 0.5 | -50.0% | 0 | 3/3 | gain |" in out
