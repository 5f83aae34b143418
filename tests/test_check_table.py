"""The check table: each record's check id, anchor and tolerance are known at parse time.

`parse_scenario` fills `Scenario.checks` from ANCHOR_CHECKS, the anchors of the
file's kind and the file's `tolerances` overrides. A run makes exactly those
records in that order, and a `tolerances` key that names no check of the file
is a schema error before any numerics. Parsing fixes a contraction pair's block
count too: the file's `dilation_order`, else its kind's rule. A line kind takes
the file's value, else the run sizes it, at most `LINE_BLOCKS`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ssflab import cli, scenario
from ssflab.scenario import ANCHOR_CHECKS, KINDS, generate_scenario, parse_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _make_corpus():
    spec = importlib.util.spec_from_file_location("make_corpus", ROOT / "tools" / "make_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EDGE_FILES = [p for p in _make_corpus().corpus() if p["name"].startswith("edge-")]
GENERATED = [generate_scenario(kind, seed, dim) for kind in KINDS for seed in (1, 2) for dim in (1, 2, 3, 4)]


@pytest.mark.parametrize(
    "payload, key",
    [
        (generate_scenario("unitary_pair", 1, 2), "no-such-check"),
        # the four default polynomials are trace-poly-0 to trace-poly-3
        (generate_scenario("unitary_pair", 1, 2), "trace-poly-4"),
        # one z value makes resolvent-z0 only
        (generate_scenario("dissipative_pair", 1, 2), "resolvent-z1"),
        (generate_scenario("contraction_pair", 1, 2), "determinant-step-consistency"),
        (generate_scenario("kernel_trace", 1, 2) | {"spectral_point": -2.5}, "kernel-half-l1"),
    ],
    ids=["unknown-id", "fifth-polynomial", "second-z-value", "no-determinant-block", "half-l1-off-minus-one"],
)
def test_an_override_of_no_check_of_the_file_exits_two_before_any_numerics(
    tmp_path, capsys, monkeypatch, payload, key
):
    def never(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_scenario", never)
    path = tmp_path / "in" / "override.json"
    path.parent.mkdir()
    scenario.write_scenario(payload | {"tolerances": {key: 1e-3}}, path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tolerances.{key}: names no check of this file" in captured.err
    assert str(list(parse_scenario(payload).checks)) in captured.err


def test_the_benchmark_reference_agrees_with_the_parsed_checks():
    # the reference predates determinant-lu-crosscheck and lists no numeric-completion: a subset
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))["checks"]
    assert len(reference) == 31
    for key, expected in reference.items():
        kind, dim = key.split("@")
        kind, _, determinant = kind.partition("+")
        payload = generate_scenario(kind, 1, int(dim))
        if determinant:
            payload["determinant"] = {}
        parsed = {check_id: tol for check_id, (_, tol) in parse_scenario(payload).checks.items()}
        assert expected.items() <= parsed.items(), key


def assert_records_match_checks(sc, report, scale):
    """The records are the parsed checks in order, at their anchors and scaled tolerances; a run
    cut by a numeric error holds a prefix of them, then numeric-completion."""
    ids = [r.check_id for r in report.records]
    expected = [check_id for check_id in sc.checks if check_id != "numeric-completion"]
    if "numeric_error" in report.flags:
        assert ids[-1] == "numeric-completion"
        assert ids[:-1] == expected[: len(ids) - 1]
    else:
        assert ids == expected
    for r in report.records:
        anchor, tol = sc.checks[r.check_id]
        assert (r.anchor, r.tolerance) == (anchor, tol * scale)


@pytest.mark.parametrize("payload", GENERATED + EDGE_FILES, ids=lambda p: p["name"])
def test_a_run_records_exactly_the_parsed_checks(payload):
    sc = parse_scenario(payload)
    assert list(sc.checks)[-1] == "numeric-completion"
    assert_records_match_checks(sc, run_scenario(sc, tolerance_scale=4.0), 4.0)


@pytest.mark.parametrize(
    "kind, stage, made",
    [
        ("unitary_pair", "hardy_gauge_check", 4),
        ("contraction_pair", "real_ssf_conditions_report", 1),
        ("dissipative_pair", "dissipative_ssf", 2),
        ("fractional", "fractional_diff_quadrature", 1),
        ("schrodinger", "dissipative_ssf", 1),
        ("kernel_trace", "monotone_s1_check", 3),
    ],
)
def test_a_numeric_error_records_a_prefix_of_the_checks(monkeypatch, kind, stage, made):
    def failing(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(scenario, stage, failing)
    sc = parse_scenario(generate_scenario(kind, 1, 2))
    report = run_scenario(sc)
    assert report.flags["numeric_error"] == "FloatingPointError: injected"
    assert len(report.records) == made + 1
    assert_records_match_checks(sc, report, 1.0)


@pytest.mark.parametrize("payload", GENERATED + EDGE_FILES, ids=lambda p: p["name"])
def test_the_parsed_block_count_is_the_one_the_run_uses(payload):
    sc = parse_scenario(payload)
    if sc.kind == "contraction_pair" or sc.dilation_order is not None:
        assert run_scenario(sc).flags["block_count"] == sc.dilation_order
    elif sc.kind in ("dissipative_pair", "schrodinger"):
        # a line file without the key is sized in the run, never above the parse-time worst case
        assert 3 <= run_scenario(sc).flags["block_count"] <= scenario.LINE_BLOCKS
    else:
        assert sc.dilation_order is None


@pytest.mark.parametrize("payload", GENERATED, ids=lambda p: p["name"])
def test_a_generated_block_count_is_the_kinds_rule(payload):
    bare = {key: value for key, value in payload.items() if key != "dilation_order"}
    assert parse_scenario(bare).dilation_order == payload.get("dilation_order")


def test_every_anchor_is_cited_by_some_kind():
    cited = {anchor for payload in GENERATED + EDGE_FILES for anchor, _ in parse_scenario(payload).checks.values()}
    assert cited == set(ANCHOR_CHECKS)


def test_an_override_replaces_only_its_own_tolerance():
    payload = generate_scenario("schrodinger", 1, 2)
    defaults = parse_scenario(payload).checks
    checks = parse_scenario(payload | {"tolerances": {"resolvent-z0": 1e-3, "numeric-completion": 1.0}}).checks
    overridden = {"resolvent-z0": ("schrodinger-resolvent", 1e-3), "numeric-completion": ("numeric-completion", 1.0)}
    assert checks == defaults | overridden
    assert list(checks) == list(defaults)
