"""tools/report_diff.py on two copies of one `ssf-lab run` output directory."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

import pytest

from ssflab import cli
from ssflab.export import dump_json
from ssflab.scenario import generate_scenario, write_scenario

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def outputs(tmp_path):
    scenario = tmp_path / "s.json"
    payload = generate_scenario("dissipative_pair", 4, 2)
    payload["outputs"] = ["json", "csv", "svg"]
    write_scenario(payload, scenario)
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert cli.main(["run", str(scenario), "--out-dir", str(parent)]) == 0
    shutil.copytree(parent, change)
    report = change / f"{payload['name']}.report.json"
    return parent, change, report


def _edit(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(dump_json(data))


def test_a_new_timestamp_keeps_the_report_identical(report_diff, outputs, capsys):
    parent, change, report = outputs
    _edit(report, lambda d: d.update(timestamp="1970-01-01T00:00:00+00:00"))
    assert report_diff.main([str(parent), str(change)]) == 0
    identical, reports, others, lonely = report_diff.diff_dirs(parent, change)
    assert len(identical) == 3 and not (reports or others or lonely)
    assert "3 identical" in capsys.readouterr().out


def test_small_moves_are_measured_per_tolerance(report_diff, outputs):
    parent, change, report = outputs

    def nudge(d):
        record = d["records"][0]
        record["lhs"][0] += 0.25 * record["tolerance"]
        record["residual"] += 0.5 * record["tolerance"]
        row = d["tables"]["line_step"]["rows"][1]
        row[0] = -1.0 / math.tan((2.0 * math.atan2(1.0, -row[0]) + 1e-9) / 2.0)

    _edit(report, nudge)
    _, reports, _, _ = report_diff.diff_dirs(parent, change)
    (c,) = reports.values()
    assert c["records_kept"] and c["pass_kept"] and c["tables_kept"]
    assert c["lhs"] == pytest.approx(0.25) and c["rhs"] == 0.0 and c["residual"] == pytest.approx(0.5)
    # the shift is read as a phase on the circle, not as a distance on the line
    assert c["breakpoint_shift"] == pytest.approx(1e-9, rel=1e-3)
    assert report_diff.main([str(parent), str(change)]) == 0


def test_a_flipped_pass_or_a_changed_jump_fails_the_comparison(report_diff, outputs):
    parent, change, report = outputs
    _edit(report, lambda d: d["records"][-1].update({"pass": not d["records"][-1]["pass"]}))
    assert report_diff.main([str(parent), str(change)]) == 1
    shutil.copy(parent / report.name, report)

    def add_jump(d):
        d["tables"]["line_step"]["rows"][1][-1] += 1.0

    _edit(report, add_jump)
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["pass_kept"] and not c["tables_kept"]
    assert report_diff.main([str(parent), str(change)]) == 1


def test_a_file_on_one_side_fails_the_comparison(report_diff, outputs):
    parent, change, report = outputs
    report.unlink()
    assert report_diff.main([str(parent), str(change)]) == 1


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("how", ["missing", "empty"])
def test_a_side_that_is_missing_or_holds_no_files_is_refused(report_diff, outputs, tmp_path, capsys, side, how):
    parent, change, _ = outputs
    bare = tmp_path / "bare"
    if how == "empty":
        (bare / "subdirectory").mkdir(parents=True)
    args = [str(bare), str(change)] if side == "parent" else [str(parent), str(bare)]
    assert report_diff.main(args) == 2
    assert capsys.readouterr() == ("", f"report_diff: {bare} is missing or holds no files\n")


def _sampled_report(path, values):
    rows = [[theta, v] for theta, v in zip([1.5, 3.0, 4.5, 6.0], values)]
    tables = {"sampled": {"type": "sampled", "rows": rows, "radius": 1.0001, "winding": 0, "calibration": -2.0}}
    path.write_text(dump_json({"records": [], "tables": tables, "flags": {}, "timestamp": "1970-01-01T00:00:00+00:00"}))


def test_every_moved_sampled_value_is_measured_and_keeps_the_exit_status(report_diff, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    _sampled_report(parent / "r.report.json", [0.25, -0.5, 0.75, -0.5])
    # every value moves, no theta does
    _sampled_report(change / "r.report.json", [0.25 + 1e-6, -0.5 - 3e-6, 0.75 + 2e-6, -0.5 + 1e-6])
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["tables_kept"] and c["breakpoint_shift"] == 0.0
    assert c["sampled_change"] == pytest.approx(3e-6, rel=1e-6)
    assert report_diff.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "breakpoint shift 0; sampled value change 3e-06;" in out
    assert "largest sampled value change 3e-06;" in out


# ---------------------------------------------------------------------------
# flags


def _synthetic_report(path, flags):
    doc = {"records": [], "tables": {}, "flags": flags, "timestamp": "1970-01-01T00:00:00+00:00"}
    path.write_text(dump_json(doc))


@pytest.fixture
def flag_dirs(tmp_path):
    flags = {
        "min_eig": 0.25,
        "holds": True,
        "block_count": 24,
        "condition_report": {"p": 1.0, "weighted_diff_norm": 2.0, "norms": [1.0, 4.0]},
        "numeric_error": "none",
    }
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    _synthetic_report(parent / "r.report.json", flags)
    return parent, change, flags


def test_a_float_flag_change_is_measured_and_kept(report_diff, flag_dirs, capsys):
    parent, change, flags = flag_dirs
    nested = {**flags["condition_report"], "norms": [1.0, 4.0 * (1 + 3e-12)]}
    _synthetic_report(change / "r.report.json", {**flags, "min_eig": 0.25 * (1 + 1e-12), "condition_report": nested})
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["flags_kept"]
    assert c["flags"] == pytest.approx(3e-12, rel=1e-3)
    assert report_diff.main([str(parent), str(change)]) == 0
    assert "flags 3e-12" in capsys.readouterr().out


def test_roundoff_on_a_flag_near_zero_reads_as_roundoff(report_diff, flag_dirs, capsys):
    parent, change, flags = flag_dirs
    _synthetic_report(parent / "r.report.json", {**flags, "gauge": 8.5e-16})
    _synthetic_report(change / "r.report.json", {**flags, "gauge": -4.5e-15})
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["flags_kept"] and c["flags"] <= 1e-5 and c["flag_path"] == "gauge"
    assert report_diff.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "flags 5.35e-06 at gauge\n" in out and "flag change 5.35e-06 at gauge of r.report.json;" in out


def test_the_largest_flag_change_is_named_by_its_path(report_diff, flag_dirs, capsys):
    parent, change, flags = flag_dirs
    nested = {**flags["condition_report"], "norms": [1.0 * (1 + 1e-13), 4.0 * (1 + 3e-12)]}
    _synthetic_report(change / "r.report.json", {**flags, "min_eig": 0.25 * (1 + 1e-12), "condition_report": nested})
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["flag_path"] == "condition_report.norms[1]"
    assert report_diff.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "flags 3e-12 at condition_report.norms[1]" in out
    assert "largest relative float flag change 3e-12 at condition_report.norms[1] of r.report.json" in out


def test_unchanged_flags_name_no_path(report_diff, outputs, capsys):
    parent, change, report = outputs
    _edit(report, lambda d: d["records"][0].update(residual=d["records"][0]["residual"] + 1e-3))
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["flags"] == 0.0 and c["flag_path"] == ""
    assert report_diff.main([str(parent), str(change)]) == 0
    assert "largest relative float flag change 0;" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit",
    [
        {"numeric_error": "NearSingular: cond 1e13"},
        {"holds": False},
        {"block_count": 25},
        {"condition_report": "KernelViolation: Im L_0 has eigenvalue 0"},
        {"extra": 1.0},
    ],
    ids=["string", "bool", "int", "float-to-string", "new-key"],
)
def test_a_changed_string_bool_int_or_key_fails_the_comparison(report_diff, flag_dirs, capsys, edit):
    parent, change, flags = flag_dirs
    _synthetic_report(change / "r.report.json", {**flags, **edit})
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert not c["flags_kept"]
    assert report_diff.main([str(parent), str(change)]) == 1
    assert "flags CHANGED" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# provenance


def test_a_changed_hash_is_named_and_keeps_the_exit_status(report_diff, outputs, capsys):
    parent, change, report = outputs
    _edit(report, lambda d: d["provenance"].update(config_hash="0" * 64))
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["provenance"] == ["config_hash"]
    assert c["records_kept"] and c["pass_kept"] and c["tables_kept"] and c["flags_kept"]
    assert report_diff.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "flags kept, provenance config_hash;" in out
    assert "provenance keys changed: config_hash" in out


def test_kept_provenance_reads_kept(report_diff, flag_dirs, capsys):
    parent, change, flags = flag_dirs
    _synthetic_report(change / "r.report.json", {**flags, "min_eig": 0.5})
    (c,) = report_diff.diff_dirs(parent, change)[1].values()
    assert c["provenance"] == []
    report_diff.main([str(parent), str(change)])
    out = capsys.readouterr().out
    assert "provenance kept;" in out and "provenance keys changed: none" in out
