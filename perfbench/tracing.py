"""Spans around the calls into each ssflab module, recorded from outside.

The tracer replaces a function in the namespace where its caller looks it
up (`ssf_circle` calls `ssflab.ssf_circle.eigenphases`, not the name in
`ssflab.linalg`), wraps the operator classes' `__init__` so `isinstance`
keeps working, and wraps `FiniteDilation.compressed_power` as a method.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "counts")

    def __init__(self, name, parent, scenario):
        self.name = name
        self.start = self.end = time.perf_counter()
        self.parent = parent
        self.scenario = scenario
        self.counts = None

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.scenario, self.counts]


def _matrix_dim(x) -> int:
    m = getattr(x, "m", x)
    return len(m)


def _eigenphases_counts(args, kwargs, result):
    return {"linalg.eigenphases.calls": 1, "linalg.eigenphases.n3_sum": _matrix_dim(args[0]) ** 3}


def _determinant_counts(args, kwargs, result):
    # The grid doubles from `grid` up to the returned size, and every pass
    # solves on all its points: grid + 2 grid + ... + final = 2 final - grid.
    requested = kwargs.get("grid", args[3] if len(args) > 3 else 4096)
    points = 2 * len(result.thetas) - requested
    n = _matrix_dim(args[0])
    return {
        "ssf_circle.determinant_ssf.calls": 1,
        "ssf_circle.determinant_ssf.grid_points": points,
        "ssf_circle.determinant_ssf.bytes_computed": 3 * points * n * n * 16,
    }


def _written_bytes(args, kwargs, result):
    return {"export.bytes": Path(args[1]).stat().st_size}


def _report_counts(args, kwargs, report):
    headroom = [r.residual / r.tolerance for r in report.records if r.residual is not None]
    return {
        "scenario.records": len(report.records),
        "scenario.records_failed": sum(1 for r in report.records if not r.passed),
        "scenario.worst_headroom": max(headroom, default=0.0),
    }


def _call_count(metric):
    return lambda args, kwargs, result: {metric: 1}


# (module, attribute path, span name, counter of the call's arguments and result)
BOUNDARIES = (
    ("ssflab.cli", "load_scenario", "scenario.load", None),
    ("ssflab.cli", "run_scenario", "scenario.run", _report_counts),
    ("ssflab.cli", "write_report_json", "export.report_json", _written_bytes),
    ("ssflab.cli", "write_ssf_csv", "export.csv", _written_bytes),
    ("ssflab.cli", "plot_ssf", "export.svg", _written_bytes),
    ("ssflab.ssf_circle", "eigenphases", "linalg.eigenphases", _eigenphases_counts),
    ("ssflab.linalg", "_cluster_circle", "linalg.cluster_circle", None),
    ("ssflab.ssf_circle", "_cluster_circle", "linalg.cluster_circle", None),
    ("ssflab.linalg", "Unitary.__init__", "linalg.validate", _call_count("linalg.validate.calls")),
    ("ssflab.linalg", "Contraction.__init__", "linalg.validate", _call_count("linalg.validate.calls")),
    ("ssflab.linalg", "Dissipative.__init__", "linalg.validate", _call_count("linalg.validate.calls")),
    ("ssflab.dilation", "defect_operators", "linalg.defect_operators", None),
    ("ssflab.ssf_circle", "defect_operators", "linalg.defect_operators", None),
    ("ssflab.ssf_line", "cayley", "linalg.cayley", None),
    (
        "ssflab.dilation",
        "finite_schaffer_dilation",
        "dilation.build",
        lambda a, k, d: {"dilation.dim_max": d.m * d.n},
    ),
    (
        "ssflab.dilation",
        "FiniteDilation.compressed_power",
        "dilation.compressed_power",
        _call_count("dilation.compressed_power.calls"),
    ),
    ("ssflab.scenario", "determinant_ssf", "ssf_circle.determinant_ssf", _determinant_counts),
    ("ssflab.scenario", "unitary_ssf", "ssf_circle.unitary_ssf", None),
    ("ssflab.ssf_circle", "unitary_ssf", "ssf_circle.unitary_ssf", None),
    ("ssflab.scenario", "hardy_gauge_check", "ssf_circle.hardy_gauge_check", None),
    ("ssflab.scenario", "real_ssf_conditions_report", "ssf_circle.real_ssf_conditions_report", None),
    (
        "ssflab.scenario",
        "step_vs_sampled_max_deviation",
        "ssf_circle.step_vs_sampled_max_deviation",
        None,
    ),
    (
        "ssflab.scenario",
        "dissipative_ssf",
        "ssf_line.dissipative_ssf",
        lambda a, k, r: {"ssf_line.block_count": a[2]},
    ),
    ("ssflab.scenario", "cayley_identity_residuals", "ssf_line.cayley_identity_residuals", None),
    ("ssflab.scenario", "dissipative_condition_report", "ssf_line.dissipative_condition_report", None),
    ("ssflab.scenario", "perturbation_trace_report", "ssf_line.perturbation_trace_report", None),
    ("ssflab.scenario", "fractional_power_bound_report", "fractional.bound_report", None),
    (
        "ssflab.scenario",
        "fractional_diff_quadrature",
        "fractional.quadrature",
        lambda a, k, r: {"fractional.quadrature_nodes": k.get("nodes", 200)},
    ),
    ("ssflab.scenario", "resolvent_difference_identity_check", "fractional.resolvent_identity", None),
    ("ssflab.scenario", "kernel_trace_report", "schrodinger.kernel_trace_report", None),
    ("ssflab.scenario", "monotone_s1_check", "schrodinger.monotone_s1_check", None),
    (
        "ssflab.schrodinger",
        "nystrom_kernel",
        "schrodinger.nystrom_kernel",
        _call_count("schrodinger.nystrom_kernel.calls"),
    ),
    ("ssflab.scenario", "discrete_schrodinger_pair", "schrodinger.discrete_pair", None),
)

ROOT = "cli.main"

# Self-time metrics: span name -> metric name. Every time metric is self time.
_TIME_METRICS = {ROOT: "cli.self_s", "scenario.load": "scenario.load_s", "scenario.run": "scenario.run_s"}
_TIME_METRICS.update(
    (name, f"{name}.s") for _, _, name, _ in BOUNDARIES if name not in _TIME_METRICS
)

# Counts are summed over a pass, except these.
_COUNT_REDUCERS = {
    "dilation.dim_max": max,
    "scenario.worst_headroom": max,
    "ssf_line.block_count": statistics.fmean,
}


class Tracer:
    """Records spans for calls made while installed; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._scenario = None
        self._undo: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, parent, self._scenario))
        return self.spans[-1]

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, scenario, counts=None):
        """Span of one top-level call; `counts` is a dict filled in by the caller."""
        self._scenario = scenario
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            span.counts = counts
            self._scenario = None

    def install(self) -> None:
        for module, path, name, counter in BOUNDARIES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times and counts of one pass's spans."""
    metrics = dict.fromkeys(_TIME_METRICS.values(), 0.0)
    for s, t in zip(spans, self_times(spans)):
        metrics[_TIME_METRICS[s.name]] += t
    samples: dict[str, list] = {}
    for s in spans:
        for key, value in (s.counts or {}).items():
            samples.setdefault(key, []).append(value)
    for key, values in samples.items():
        metrics[key] = _COUNT_REDUCERS.get(key, sum)(values)
    return metrics
