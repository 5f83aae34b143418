"""Self-tests of the benchmark: `python3 -m pytest perfbench -q` from the repository root."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ssflab import cli, linalg, ssf_circle  # noqa: E402
from ssflab.scenario import generate_scenario, write_scenario  # noqa: E402

import run  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from verdict import check_call, load_reference  # noqa: E402
from workloads import WORKLOADS, FileSpec  # noqa: E402


def _span(name, start, end, parent):
    s = Span(name, parent, "s")
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("scenario.run", 1.0, 7.0, 0),
        _span("linalg.eigenphases", 2.0, 5.0, 1),
        _span("linalg.cluster_circle", 3.0, 4.0, 2),
        _span("export.svg", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.0, 2.0, 1.0, 1.5])
    metrics = layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(2.5)
    assert metrics["scenario.run_s"] == pytest.approx(3.0)
    assert metrics["linalg.eigenphases.s"] == pytest.approx(2.0)
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_nests_spans_and_keeps_isinstance():
    tracer = Tracer()
    original = linalg.Unitary.__init__
    tracer.install()
    try:
        with tracer.root("pair"):
            u0 = linalg.Unitary(np.eye(3))
            ssf = ssf_circle.unitary_ssf(u0, np.diag([1.0, 1.0, -1.0]))
    finally:
        tracer.uninstall()
    assert isinstance(u0, linalg.Unitary)
    assert ssf.jumps
    assert linalg.Unitary.__init__ is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["cli.main", "linalg.validate"]
    # unitary_ssf coerces its second argument through the wrapped __init__
    # and passes its first one through, which it must still recognise
    assert names.count("linalg.validate") == 2
    eig = [s for s in tracer.spans if s.name == "linalg.eigenphases"]
    assert len(eig) == 2 and all(tracer.spans[s.parent].name == "ssf_circle.unitary_ssf" for s in eig)
    assert {s.scenario for s in tracer.spans} == {"pair"}


def test_tail_keeps_ten_samples_beyond():
    value, percentile, count = run.tail(list(range(100)))
    assert count == 100 and percentile == pytest.approx(90.0)
    assert 88 < value < 91  # near the 90th order statistic, with 10 samples above
    assert run.tail([5.0]) == (5.0, 100.0, 1)


def test_adjust_scales_times_by_the_host_probe():
    child = {"probes_s": [2 * run.PROBE_REF_S, 3 * run.PROBE_REF_S, 2 * run.PROBE_REF_S], "latencies_s": [1.0, 3.0]}
    run.adjust(child)
    assert child["speed"] == pytest.approx(0.5)
    assert child["calls_ms"] == pytest.approx([500.0, 1500.0])
    assert child["batch_s"] == pytest.approx(2.0)


@pytest.fixture()
def passing_call(tmp_path):
    spec = FileSpec("unitary_pair", 3, 2)
    payload = generate_scenario(spec.kind, spec.seed, spec.dim)
    path = tmp_path / "scenario.json"
    write_scenario(payload, path)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", str(path), "--out-dir", str(out)])
    return payload, load_reference()[spec.reference_key], rc, out


def _doctor(out, payload, edit):
    path = out / f"{payload['name']}.report.json"
    report = json.loads(path.read_text())
    edit(report["records"])
    path.write_text(json.dumps(report))


def test_guard_passes_an_intact_call(passing_call):
    payload, ref, rc, out = passing_call
    assert check_call(payload, ref, rc, None, out) == []


def test_guard_flags_a_loosened_tolerance(passing_call):
    payload, ref, rc, out = passing_call
    _doctor(out, payload, lambda recs: recs[0].update(tolerance=recs[0]["tolerance"] * 10))
    problems = check_call(payload, ref, rc, None, out)
    assert len(problems) == 1 and "looser" in problems[0]


def test_guard_flags_a_dropped_check(passing_call):
    payload, ref, rc, out = passing_call
    _doctor(out, payload, lambda recs: recs.pop())
    problems = check_call(payload, ref, rc, None, out)
    assert len(problems) == 1 and "missing" in problems[0]


def test_guard_flags_failures_and_broken_outputs(passing_call):
    payload, ref, rc, out = passing_call
    _doctor(out, payload, lambda recs: recs[0].update({"pass": False}))
    (out / f"{payload['name']}.ssf.csv").write_text("not,a,table\n")
    (out / f"{payload['name']}.svg").unlink()
    problems = check_call(payload, ref, 1, None, out)
    assert len(problems) == 4
    assert check_call(payload, ref, None, "ArithmeticError: boom", out)[0].startswith("raised")


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_each_workload(workload, trace):
    """One pass of the workload: every call checked, every metric reported."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", f"--workload={workload}", "--seed=5", "--seconds=0.1",
         f"--trace={trace}"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["failed_share"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
