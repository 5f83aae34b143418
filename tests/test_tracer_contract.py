"""The library surface the benchmark tracer (perfbench/tracing.py) wraps.

The tracer replaces functions where their callers look them up, so a rename
or a moved call silently drops a layer from the traced breakdown. These
tests read the tracer as it is and check that every boundary it names still
resolves and that a traced run of every scenario kind completes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ssflab import cli, dilation
from ssflab.scenario import KINDS, generate_scenario, parse_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(tracing):
    for module, path, _, _ in tracing.BOUNDARIES:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer swaps the entry in the owner's own namespace
        assert attr in vars(owner), f"{module}.{path} is not defined where the tracer looks"
        assert callable(vars(owner)[attr])


def test_dilation_keeps_the_shape_the_tracer_reads():
    d = dilation.finite_schaffer_dilation([[0.5]], 4)
    assert isinstance(d.m, int) and isinstance(d.n, int)
    assert "compressed_power" in vars(dilation.FiniteDilation)


def test_traced_run_of_every_kind_completes(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind in KINDS:
            with tracer.root(kind):
                report = cli.run_scenario(parse_scenario(generate_scenario(kind, 11, 3)))
            assert report.all_pass, kind
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"scenario.run", "ssf_line.dissipative_ssf", "dilation.build", "linalg.eigenphases"} <= names
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["dilation.dim_max"] == 20 * 3
    assert metrics["linalg.eigenphases.calls"] > 0
