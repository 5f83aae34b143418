"""ssf-lab benchmark: generated scenario batches through `ssflab.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload line_dilation --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

A run starts fresh single-process interpreters one after another, never
two at once, with OpenMP/OpenBLAS/MKL pinned to one thread (child.py). Each
sets up (import, write the batch, one warm-up call per kind) and runs the
batch once: one client calls `cli.main(["run", <file>, "--out-dir", <dir>])`
per file in a closed loop. The verdict guard (verdict.py) checks every call.
The number of processes is fixed per workload from --seconds (workloads.py),
so a run does the same work on every commit.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced processes and reports the per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object. `--workload all` runs every workload both ways.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

from workloads import KINDS, WORKLOADS  # noqa: E402

TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Probe time (child.probe) that all reported times are scaled to; see adjust().
PROBE_REF_S = 0.0105
RUN_LIMIT_S = 170.0

END_TO_END = {
    "batch_s": "s",
    "scenario_p50_ms": "ms",
    "scenario_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "scenario.load_s": "s",
    "scenario.run_s": "s",
    "scenario.generate_s": "s",
    "scenario.records": "count",
    "scenario.records_failed": "count",
    "scenario.worst_headroom": "ratio",
    "scenario.warnings": "count",
    **{f"kind.{k}.p50_ms": "ms" for k in KINDS},
    "linalg.eigenphases.s": "s",
    "linalg.eigenphases.calls": "count",
    "linalg.eigenphases.n3_sum": "count",
    "linalg.cluster_circle.s": "s",
    "linalg.validate.s": "s",
    "linalg.validate.calls": "count",
    "linalg.defect_operators.s": "s",
    "linalg.cayley.s": "s",
    "dilation.build.s": "s",
    "dilation.dim_max": "count",
    "dilation.compressed_power.s": "s",
    "dilation.compressed_power.calls": "count",
    "ssf_circle.determinant_ssf.s": "s",
    "ssf_circle.determinant_ssf.calls": "count",
    "ssf_circle.determinant_ssf.grid_points": "count",
    "ssf_circle.determinant_ssf.bytes_computed": "B",
    "ssf_circle.unitary_ssf.s": "s",
    "ssf_circle.hardy_gauge_check.s": "s",
    "ssf_circle.real_ssf_conditions_report.s": "s",
    "ssf_circle.step_vs_sampled_max_deviation.s": "s",
    "ssf_line.dissipative_ssf.s": "s",
    "ssf_line.block_count": "count",
    "ssf_line.cayley_identity_residuals.s": "s",
    "ssf_line.dissipative_condition_report.s": "s",
    "ssf_line.perturbation_trace_report.s": "s",
    "fractional.bound_report.s": "s",
    "fractional.quadrature.s": "s",
    "fractional.quadrature_nodes": "count",
    "fractional.resolvent_identity.s": "s",
    "schrodinger.kernel_trace_report.s": "s",
    "schrodinger.monotone_s1_check.s": "s",
    "schrodinger.nystrom_kernel.s": "s",
    "schrodinger.nystrom_kernel.calls": "count",
    "schrodinger.discrete_pair.s": "s",
    "export.report_json.s": "s",
    "export.csv.s": "s",
    "export.svg.s": "s",
    "export.bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "failed_share": "ratio",
    "host.probe_ms": "ms",
}


# Metrics in seconds that are not the self time of a span.
_NOT_SELF = {"scenario.generate_s", "trace.overhead_s"}


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    The percentile is rank / n with rank = n - beyond. Its value is the
    Harrell-Davis estimate, a beta-weighted mean of all order statistics:
    with a few dozen calls, one order statistic alone spread twice as much
    between runs. Returns (value, percentile, sample count).
    """
    ordered = np.sort(values)
    n = len(ordered)
    p = max(1, n - beyond) / n
    if n == 1:
        return float(ordered[0]), 100.0, 1
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered), 100.0 * p, n


class RunError(Exception):
    """A workload process failed to produce a result."""


def run_child(workload: str, seed: int, traced: bool, result: Path, deadline) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--trace={int(traced)}",
        f"--work-dir={result.with_suffix('')}",
        f"--result={result}",
    ]
    try:
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} process ran past the time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"{workload} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def adjust(child: dict) -> None:
    """Scale one process's times to the reference host speed, in place.

    Other tenants of a shared host can slow it by up to 1.8x, for stretches
    from seconds to minutes; every time a process measures is multiplied by
    PROBE_REF_S / (its median probe time), so runs taken in slow and fast
    stretches compare. The raw times stay in the result files.
    """
    child["speed"] = PROBE_REF_S / statistics.median(child["probes_s"])
    child["calls_ms"] = [1e3 * child["speed"] * t for t in child["latencies_s"]]
    child["batch_s"] = sum(child["calls_ms"]) / 1e3


def per_file_median(children) -> list[float]:
    """Each file's median adjusted call over the processes, in ms."""
    return [statistics.median(times) for times in zip(*(c["calls_ms"] for c in children))]


def end_to_end(untraced, children, notes) -> dict:
    per_file = per_file_median(untraced)
    tail_ms, percentile, n = tail([t for c in untraced for t in c["calls_ms"]])
    notes["batch_s"] = f"sum over {len(per_file)} files of each file's median of {len(untraced)} calls"
    notes["scenario_p50_ms"] = f"median over {len(per_file)} files of each file's median call"
    notes["scenario_tail_ms"] = f"p{percentile:.1f} of all n={n} calls, {n - round(percentile * n / 100)} beyond it"
    notes["setup_s"] = f"median of {len(children)} set-ups"
    return {
        "batch_s": sum(per_file) / 1e3,
        "scenario_p50_ms": statistics.median(per_file),
        "scenario_tail_ms": tail_ms,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "setup_s": statistics.median(c["speed"] * c["setup_s"] for c in children),
    }


def per_layer(untraced, traced, children, failed_share, notes) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    for key in traced[0]["layers"]:
        scale = PER_LAYER[key] == "s"
        values[key] = statistics.median(c["layers"][key] * (c["speed"] if scale else 1) for c in traced)
    values["scenario.generate_s"] = statistics.median(c["speed"] * c["generate_s"] for c in children)
    per_file = per_file_median(untraced)
    for kind in KINDS:
        own = [t for t, k in zip(per_file, untraced[0]["kinds"]) if k == kind]
        values[f"kind.{kind}.p50_ms"] = statistics.median(own) if own else 0.0
    values["trace.overhead_s"] = statistics.median(c["batch_s"] for c in traced) - statistics.median(
        c["batch_s"] for c in untraced
    )
    values["failed_share"] = failed_share
    self_s = {k: values[k] for k, u in PER_LAYER.items() if u == "s" and k not in _NOT_SELF}
    total = sum(self_s.values())
    top = sorted(self_s, key=self_s.get, reverse=True)[:5]
    notes["self_time_top"] = ", ".join(f"{k} {100 * self_s[k] / total:.1f}%" for k in top)
    notes["spans"] = ", ".join(c["spans_file"] for c in traced)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline) -> dict:
    """Run one workload; returns the result object plus the lines to print."""
    workload = WORKLOADS[name]
    passes = workload.passes(seconds)
    work = Path(".perfbench_run") / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # A traced run alternates untraced and traced processes, so trace.overhead_s
    # compares passes taken in the same stretch of time.
    count = 2 * -(-passes // 2) if trace else passes
    children = [
        run_child(name, seed, trace and i % 2 == 1, work / f"pass{i}.result.json", deadline)
        for i in range(count)
    ]
    for c in children:
        adjust(c)
    untraced = [c for c in children if "layers" not in c]
    traced = [c for c in children if "layers" in c]
    failures = [f for c in children for f in c["failures"]]
    attempted = sum(c["calls"] for c in children)
    probe_ms = statistics.median(1e3 * PROBE_REF_S / c["speed"] for c in children)
    notes = {"host.probe_ms": f"median probe {probe_ms!r} ms; all times are scaled to {1e3 * PROBE_REF_S} ms"}
    if trace:
        values, units = per_layer(untraced, traced, children, len(failures) / attempted, notes), PER_LAYER
        values["host.probe_ms"] = probe_ms
    else:
        values, units = end_to_end(untraced, children, notes), END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    env = children[-1]["environment"]
    threads = {c["threads_after_blas"] for c in children}
    lines = [
        f"workload {name}: seed {seed}, {len(untraced[0]['kinds'])} files, {len(children)} processes, "
        f"trace {int(trace)}",
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items())
        + f", threads after first BLAS call {sorted(threads)}",
    ]
    if threads != {1}:
        lines.append("WARNING: a workload process ran more than one thread; the BLAS pin did not hold")
    lines += [
        f"  {k} = {m['value']!r} {m['unit']}" + (f"  ({notes[k]})" if k in notes else "")
        for k, m in metrics.items()
    ]
    lines += [f"  {k}: {v}" for k, v in notes.items() if k not in metrics]
    lines += [f"  FAILED {f}" for f in failures]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "lines": lines,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not Path("src/ssflab/__init__.py").is_file():
        print("perfbench: run from the root of an ssf-lab checkout (src/ssflab not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
        deadline = None
    else:
        runs = [(args.workload, bool(args.trace))]
        deadline = time.monotonic() + RUN_LIMIT_S
    results = []
    try:
        for workload, trace in runs:
            res = run_workload(workload, args.seed, args.seconds, trace, deadline)
            print("\n".join(res.pop("lines")), flush=True)
            results.append(res)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{'trace' if t else 'e2e'}": r["metrics"] for (w, t), r in zip(runs, results)},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
