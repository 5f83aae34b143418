"""One workload process: set up, run the batch once through the CLI, check every call.

run.py starts this in a fresh interpreter, one process at a time, with the
thread variables set to 1 and `src` on PYTHONPATH. Set-up is: import
ssflab, generate and write the batch, and one warm-up call per kind. Then
one client calls `cli.main(["run", <file>, "--out-dir", <dir>])` for each
file in a closed loop, with the tracer installed when `--trace 1`. Between
calls, at most every PROBE_EVERY_S, a fixed probe is timed as a reading of
the host's speed. The result goes to `--result` as JSON, and the
spans next to it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_EVERY_S = 0.2


def os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
    }


def write_batch(specs, directory: Path, reference: dict) -> list:
    """Write each spec's scenario file: (spec, payload, path, reference checks)."""
    from ssflab.scenario import generate_scenario, write_scenario

    from verdict import scenario_payload

    directory.mkdir(parents=True)
    files = []
    for spec in specs:
        payload = scenario_payload(generate_scenario, spec)
        path = directory / f"{payload['name']}.json"
        write_scenario(payload, path)
        files.append((spec, payload, path, reference[spec.reference_key]))
    return files


def probe() -> float:
    """Seconds for a fixed mix of interpreter, small-numpy, allocation and
    LAPACK work: the host's speed at this moment. It calls nothing in ssflab."""
    import numpy as np

    m = np.cos(np.arange(48 * 48, dtype=float)).reshape(48, 48) * (1 + 1j)
    start = time.perf_counter()
    x = 0
    for i in range(40_000):
        x += i * i
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0) - 1.0
    json.dumps({str(i): [i, i * 0.5, "v"] for i in range(1500)})
    np.linalg.eigvals(m)
    return time.perf_counter() - start


def run_file(cli, path: Path, out_dir: Path):
    """One call of the real entry point: (seconds, exit code, error)."""
    sink = io.StringIO()
    error = rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", str(path), "--out-dir", str(out_dir)])
    except Exception as exc:  # a crashing call is a failed call, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, error


def failures(files, calls, out_dir: Path) -> list[str]:
    from verdict import check_call

    out = []
    for (_, payload, _, ref), (_, rc, error) in zip(files, calls):
        problems = check_call(payload, ref, rc, error, out_dir)
        if problems:
            out.append(f"{payload['name']}: " + "; ".join(problems))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    unpinned = [v for v in PINNED if os.environ.get(v) != "1"]
    if unpinned or "numpy" in sys.modules:
        raise SystemExit(f"set {unpinned} to 1 before numpy is imported")

    from ssflab import cli

    from verdict import load_reference
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = load_reference()
    work = args.work_dir
    start = time.perf_counter()
    batch = write_batch(workload.batch(args.seed), work / "scenarios", reference)
    generate_s = time.perf_counter() - start
    warmup = write_batch(workload.warmups(args.seed), work / "warmup", reference)
    warm_calls = [run_file(cli, path, work / "warmup-out") for _, _, path, _ in warmup]
    setup_s = time.perf_counter() - _T0
    threads = os_threads()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    calls = []
    probes = [probe()]
    last_probe = time.perf_counter()
    for _, payload, path, _ in batch:
        if tracer is None:
            calls.append(run_file(cli, path, work / "out"))
        else:
            counts: dict = {}
            with tracer.root(payload["name"], counts), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                calls.append(run_file(cli, path, work / "out"))
            counts["scenario.warnings"] = len(caught)
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "latencies_s": [t for t, _, _ in calls],
        "kinds": [spec.kind for spec, _, _, _ in batch],
        "calls": len(warm_calls) + len(calls),
        "failures": failures(warmup, warm_calls, work / "warmup-out") + failures(batch, calls, work / "out"),
        "threads_after_blas": threads,
        "probes_s": probes,
        "environment": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        spans_path = args.result.with_suffix(".spans.json")
        spans_path.write_text(json.dumps([s.as_list() for s in tracer.spans]), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    shutil.rmtree(work)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
