"""Command line surface: exit codes, files on disk, round trips."""

import dataclasses
import json
import math
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ssflab import cli, scenario
from ssflab.cli import main
from ssflab.errors import SchemaError
from ssflab.export import read_ssf_csv, table_array, write_ssf_csv
from ssflab.linalg import TWO_PI
from ssflab.scenario import ANCHORS, KINDS
from ssflab.ssf_circle import SampledSSF, StepSSF
from ssflab.ssf_line import LineSSF


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def decimal_twin(payload):
    """The payload with its explicit matrices as nested [re, im] floats: the same numbers in decimal form."""
    matrices = scenario.parse_scenario(payload).matrices
    return payload | {"matrices": [np.stack((m.real, m.imag), -1).tolist() for m in matrices]}


def with_first_cell(payload, value):
    """The payload, its matrices in byte form, with the first matrix's (0, 0) entry set to value."""
    m0, m1 = (m.copy() for m in scenario.parse_scenario(payload).matrices)
    m0[0, 0] = value
    return payload | {"matrices": [scenario._matrix_to_json(m) for m in (m0, m1)]}


def hand_pair_payload(name="hand", **extra):
    payload = {
        "name": name,
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[[0.0, 1.0]]]],
        "outputs": ["json", "csv", "svg"],
    }
    payload.update(extra)
    return payload


def polyline_points(svg: str) -> list[str]:
    return svg.split('<polyline points="')[1].split('"')[0].split()


def test_run_success_writes_all_outputs(tmp_path, capsys):
    f = write_json(tmp_path / "hand.json", hand_pair_payload())
    rc = main(["run", str(f), "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hand: PASS" in out

    report = json.loads((tmp_path / "hand.report.json").read_text())
    assert report["all_pass"] is True
    assert report["scenario"] == "hand"
    assert {r["anchor"] for r in report["records"]} <= ANCHORS
    assert len(report["provenance"]["config_hash"]) == 64

    kind, rows = read_ssf_csv(tmp_path / "hand.ssf.csv")
    assert kind == "circle_step"
    assert rows[0][0] == 0.0 and rows[-1][1] == pytest.approx(2.0 * np.pi)

    svg = (tmp_path / "hand.svg").read_text()
    assert svg.startswith("<svg")
    # one polyline: two steps, two points each
    assert svg.count("<polyline") == 1
    assert len(polyline_points(svg)) == 4


def test_run_numeric_failure_exits_one_but_reports(tmp_path, capsys):
    payload = hand_pair_payload(name="tight", tolerances={"hardy-gauge": 1e-30})
    f = write_json(tmp_path / "tight.json", payload)
    rc = main(["run", str(f), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "tight: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "tight.report.json").read_text())
    assert report["all_pass"] is False
    failed = [r for r in report["records"] if not r["pass"]]
    assert [r["check_id"] for r in failed] == ["hardy-gauge"]


def test_the_summary_line_gives_the_worst_headroom_of_the_report(tmp_path, capsys):
    files = [
        write_json(tmp_path / "tight.json", hand_pair_payload(name="tight", tolerances={"hardy-gauge": 1e-30})),
        write_json(tmp_path / "line.json", scenario.generate_scenario("dissipative_pair", 2, 3) | {"name": "line"}),
    ]
    assert main(["run", *map(str, files), "--out-dir", str(tmp_path)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    expected = []
    for name, verdict in (("tight", "FAIL (1 of 5 checks failed)"), ("line", "PASS (4 checks)")):
        records = json.loads((tmp_path / f"{name}.report.json").read_text())["records"]
        worst = max(r["residual"] / r["tolerance"] for r in records if r["residual"] is not None and r["tolerance"] > 0)
        expected.append(f"{name}: {verdict}, worst headroom {worst:.3e}")
    assert lines == expected
    # the failing record sets the worst headroom, and the line file's resolvent record sits 100x under its tolerance
    assert float(lines[0].rsplit(" ", 1)[1]) > 1.0
    assert float(lines[1].rsplit(" ", 1)[1]) <= 1.1e-2


def test_numeric_exception_exits_one_with_report_and_summary(tmp_path, capsys):
    payload = {
        "name": "singular",
        "kind": "fractional",
        "matrices": [[[0, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]],
    }
    good = write_json(tmp_path / "hand.json", hand_pair_payload())
    bad = write_json(tmp_path / "singular.json", payload)
    rc = main(["run", str(bad), str(good), "--out-dir", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "singular: FAIL (1 of 1 checks failed)" in out
    assert "KernelViolation" in out
    assert "hand: PASS" in out
    report = json.loads((tmp_path / "singular.report.json").read_text())
    assert report["all_pass"] is False
    assert [r["check_id"] for r in report["records"]] == ["numeric-completion"]
    assert report["records"][0]["residual"] is None


def test_lapack_failure_at_the_lattice_floor_exits_one_with_a_failing_record(tmp_path, monkeypatch, capsys):
    # eigh fails on its first call, L0's validation, which also gives the
    # lattice-dissipativity floor. That is a numeric failure, not a bad file
    payload = {
        "name": "floor",
        "kind": "schrodinger",
        "grid": {"lo": -8.0, "hi": 8.0, "nodes": 8},
        "potential": {"kind": "gaussian", "amplitude": [0.0, 1.0]},
    }
    f = write_json(tmp_path / "floor.json", payload)

    def eigh_failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh_failing)
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 1
    assert "floor: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "floor.report.json").read_text())
    assert [r["check_id"] for r in report["records"]] == ["numeric-completion"]
    assert report["flags"]["numeric_error"].startswith("EigenFailure: ")


@pytest.mark.parametrize("kind, routine", [("contraction_pair", "svd"), ("dissipative_pair", "inv")])
def test_a_lapack_failure_outside_the_eigensolvers_exits_one_with_a_failing_record(
    tmp_path, monkeypatch, capsys, kind, routine
):
    # np.linalg.LinAlgError is a ValueError, but a failed SVD or inverse is a
    # numeric failure, not a bad file
    payload = scenario.generate_scenario(kind, 1, 3)
    f = write_json(tmp_path / "lapack.json", payload)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, failing)
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 1
    assert f"{payload['name']}: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / f"{payload['name']}.report.json").read_text())
    assert report["records"][-1]["check_id"] == "numeric-completion"
    assert report["flags"]["numeric_error"] == f"LinAlgError: {routine} did not converge"


def test_a_memory_error_fails_only_its_file(tmp_path, monkeypatch, capsys):
    # the second of three files runs out of memory in its SSF; nothing is allocated
    files = [write_json(tmp_path / f"{name}.json", hand_pair_payload(name)) for name in ("first", "second", "third")]
    unitary_ssf, calls = scenario.unitary_ssf, []

    def ssf_out_of_memory(u0, u1):
        calls.append(u0)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 512. GiB for an array")
        return unitary_ssf(u0, u1)

    monkeypatch.setattr(scenario, "unitary_ssf", ssf_out_of_memory)
    assert main(["run", *map(str, files), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "first: PASS (5 checks), worst headroom 8.083e-06",
        "second: FAIL (1 of 1 checks failed), worst headroom n/a",
        "  numeric-completion [numeric-completion]: residual n/a > tolerance 0.000e+00",
        "  MemoryError: Unable to allocate 512. GiB for an array",
        "third: PASS (5 checks), worst headroom 8.083e-06",
    ]
    reports = {f.stem: json.loads((tmp_path / f"{f.stem}.report.json").read_text()) for f in files}
    assert [r["all_pass"] for r in reports.values()] == [True, False, True]
    assert [r["check_id"] for r in reports["second"]["records"]] == ["numeric-completion"]
    assert reports["second"]["flags"] == {"numeric_error": "MemoryError: Unable to allocate 512. GiB for an array"}


def with_runner(monkeypatch, kind, run):
    """Replace the runner of one scenario kind for the test."""
    monkeypatch.setitem(scenario._KINDS, kind, dataclasses.replace(scenario._KINDS[kind], run=run))


def three_kinds(tmp_path):
    kinds = ("unitary_pair", "dissipative_pair", "fractional")
    return [write_json(tmp_path / f"{k}.json", scenario.generate_scenario(k, 1, 2) | {"name": k}) for k in kinds]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_crash_in_one_file_does_not_end_the_batch(tmp_path, monkeypatch, capsys, threads):
    def crash(sc, record):
        raise TypeError("unsupported operand type(s)")

    with_runner(monkeypatch, "unitary_pair", crash)
    files, out = three_kinds(tmp_path), tmp_path / "out"
    assert main(["run", *map(str, files), "--threads", threads, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["dissipative_pair", "fractional"]
    err = captured.err.splitlines()
    assert err[0] == f"{files[0]}: internal error: TypeError: unsupported operand type(s)"
    assert err[1].startswith("batch: files 3, passed 2, failed 0, schema errors 0, io errors 0, internal errors 1, ")
    assert len(err) == 2
    assert sorted(p.name for p in out.glob("*.report.json")) == ["dissipative_pair.report.json", "fractional.report.json"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ctrl_c_in_a_file_ends_the_batch(tmp_path, monkeypatch, threads):
    def interrupt(sc, record):
        raise KeyboardInterrupt

    with_runner(monkeypatch, "unitary_pair", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["run", *map(str, three_kinds(tmp_path)), "--threads", threads, "--out-dir", str(tmp_path / "out")])


def test_the_batch_line_counts_every_outcome_and_gives_the_worst_headroom(tmp_path, capsys):
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="good"))
    tight = write_json(tmp_path / "tight.json", hand_pair_payload(name="tight", tolerances={"hardy-gauge": 1e-30}))
    bad = write_json(tmp_path / "bad.json", {"name": "bad", "kind": "unitary_pair"})
    assert main(["run", str(good), str(tight), str(bad), "--out-dir", str(tmp_path)]) == 2
    records = [r for n in ("good", "tight") for r in json.loads((tmp_path / f"{n}.report.json").read_text())["records"]]
    worst = max(r["residual"] / r["tolerance"] for r in records if r["residual"] is not None and r["tolerance"] > 0)
    assert capsys.readouterr().err.splitlines()[-1] == (
        "batch: files 3, passed 1, failed 1, schema errors 1, io errors 0, internal errors 0, "
        f"worst headroom {worst:.3e}"
    )


def test_the_worst_headroom_is_nan_when_any_ratio_is_nan():
    assert cli._worst_headroom([2.0, math.nan, 1.0]) == "nan"
    assert cli._worst_headroom([2.0, 1.0]) == "2.000e+00"
    assert cli._worst_headroom([]) == "n/a"


def test_a_schema_error_inside_a_runner_is_passed_through_unchanged(tmp_path, monkeypatch, capsys):
    def refuse(sc, record):
        raise SchemaError("matrices: refused by the runner")

    with_runner(monkeypatch, "unitary_pair", refuse)
    f = write_json(tmp_path / "hand.json", hand_pair_payload())
    with pytest.raises(SchemaError, match="^matrices: refused by the runner$"):
        scenario.run_scenario(scenario.load_scenario(f))
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"{f}: schema error: matrices: refused by the runner\n")


def test_tolerance_scale_rescues(tmp_path):
    payload = hand_pair_payload(name="tight2", tolerances={"hardy-gauge": 1e-30})
    f = write_json(tmp_path / "tight2.json", payload)
    assert main(["run", str(f), "--out-dir", str(tmp_path), "--tolerance-scale", "1e25"]) == 0


def test_run_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    unknown = write_json(
        tmp_path / "unk.json",
        {"name": "u", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]], "bogus": 1},
    )
    assert main(["run", str(unknown), "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "u.report.json").exists()
    err = capsys.readouterr().err
    assert "bogus" in err


def test_run_missing_file_exits_two(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2


def test_run_many_files_threaded(tmp_path):
    a = write_json(tmp_path / "a.json", hand_pair_payload(name="a"))
    b = write_json(
        tmp_path / "b.json",
        {"name": "b", "kind": "fractional", "matrices": [[[0.25]], [[0.75]]]},
    )
    rc = main(["run", str(a), str(b), "--threads", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "a.report.json").exists()
    assert (tmp_path / "b.report.json").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_two_and_writes_nothing(tmp_path, capsys, threads):
    f = write_json(tmp_path / "t.json", hand_pair_payload(name="t"))
    out = tmp_path / "out"
    assert main(["run", str(f), "--threads", threads, "--out-dir", str(out)]) == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_schema_error_dominates_exit_code(tmp_path):
    good = write_json(tmp_path / "g.json", hand_pair_payload(name="g"))
    bad = tmp_path / "broken.json"
    bad.write_text("[]")
    rc = main(["run", str(good), str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2
    # the good scenario still ran and reported
    assert (tmp_path / "g.report.json").exists()


@pytest.mark.parametrize(
    "bad_text, field",
    [
        (
            '{"name": "b", "kind": "kernel_trace", "tolerances": {"kernel-positivity": NaN}}',
            "tolerances.kernel-positivity",
        ),
        ('{"name": "b", "kind": "unitary_pair", "matrices": [[[1' + "0" * 400 + ']], [[1.0]]]}', "matrices[0][0][0]"),
    ],
    ids=["nan-tolerance", "huge-integer-cell"],
)
def test_out_of_range_number_fails_only_its_file(tmp_path, capsys, bad_text, field):
    first = write_json(tmp_path / "g1.json", hand_pair_payload(name="g1"))
    bad = tmp_path / "bad.json"
    bad.write_text(bad_text)
    second = write_json(tmp_path / "g2.json", hand_pair_payload(name="g2"))
    rc = main(["run", str(first), str(bad), str(second), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"bad.json: schema error: {field}: " in capsys.readouterr().err
    assert (tmp_path / "g1.report.json").exists()
    assert (tmp_path / "g2.report.json").exists()


def test_generate_is_byte_identical(tmp_path):
    f1 = tmp_path / "one.json"
    f2 = tmp_path / "two.json"
    assert main(["generate", "--kind", "contraction_pair", "--seed", "7", "--dim", "4", "-o", str(f1)]) == 0
    assert main(["generate", "--kind", "contraction_pair", "--seed", "7", "--dim", "4", "-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert main(["run", str(f1), "--out-dir", str(tmp_path)]) == 0


def test_run_twice_writes_identical_files(tmp_path):
    files = []
    for kind in KINDS:
        dim = 32 if kind == "contraction_pair" else 3
        f = tmp_path / f"{kind}.json"
        assert main(["generate", "--kind", kind, "--seed", "5", "--dim", str(dim), "-o", str(f)]) == 0
        files.append(str(f))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["run", *files, "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {n.rsplit(".", 1)[1] for n in names} == {"json", "csv", "svg"}
    stamp = re.compile(rb'"timestamp": "[^"]*"')
    for n in names:
        first, second = (stamp.sub(b"", (out / n).read_bytes()) for out in outs)
        assert first == second, n


@pytest.mark.parametrize("kind", [k for k in KINDS if scenario._KINDS[k].matrix_class is not None])
def test_a_generated_file_and_its_decimal_twin_write_the_same_bytes(kind, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00+00:00")
    payload = scenario.generate_scenario(kind, 4, 3)
    if kind == "unitary_pair":
        payload["determinant"] = {"grid": 256}
    payload["outputs"] = ["json", "csv", "svg"]
    files = [write_json(tmp_path / "bytes.json", payload), write_json(tmp_path / "decimal.json", decimal_twin(payload))]
    parsed = [scenario.load_scenario(f) for f in files]
    assert [m.tobytes() for m in parsed[0].matrices] == [m.tobytes() for m in parsed[1].matrices]
    assert parsed[0].config_hash == parsed[1].config_hash
    outs = [tmp_path / "out-bytes", tmp_path / "out-decimal"]
    for f, out in zip(files, outs):
        assert main(["run", str(f), "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    # the report and CSV of every kind but fractional (the report alone), the SVG, and the unitary determinant CSV
    assert len(names) == {"unitary_pair": 4, "fractional": 1}.get(kind, 3)
    for n in names:
        assert (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes(), n


def _bytes_entry(m):
    return scenario._matrix_to_json(np.asarray(m, dtype=np.complex128))


def _with_text(text, shape=(2, 2)):
    return {"shape": list(shape), "complex128": text}


EYE2, EYE3 = (_bytes_entry(np.eye(n))["complex128"] for n in (2, 3))
LENGTH = "matrices[0].complex128: expected 64 bytes of complex128, 88 base64 characters"
DECODED = "matrices[0].complex128: expected {} bytes of complex128, got {}"
SHAPE = "matrices[0].shape: expected [n, n] with n a positive integer"
BASE64 = "matrices[0].complex128: not standard padded base64 "
KEYS = "matrices[0]: a matrix object holds exactly the keys ['complex128', 'shape'], not "
BYTE_MATRIX_ERRORS = {
    "short-text": (_with_text(EYE2[:-4]), LENGTH),
    "a-3x3-text-under-a-2x2-shape": (_with_text(EYE3), LENGTH),
    "shape-of-one": (_with_text(EYE2, [2]), SHAPE),
    "shape-of-three": (_with_text(EYE2, [2, 2, 1]), SHAPE),
    "zero-shape": (_with_text("", [0, 0]), SHAPE),
    "negative-shape": (_with_text(EYE2, [-2, -2]), SHAPE),
    "bool-shape": (_with_text("A" * 24, [True, True]), SHAPE),
    "float-shape": (_with_text(EYE2, [2.0, 2.0]), SHAPE),
    "string-shape": (_with_text(EYE2, "2x2"), SHAPE),
    "not-square": (_with_text(EYE2, [2, 1]), SHAPE),
    "text-not-a-string": (_with_text([EYE2]), "matrices[0].complex128: expected a base64 string"),
    "url-safe-alphabet": (_with_text("-_" + EYE2[2:]), BASE64 + "(Only base64 data is allowed)"),
    "a-space": (_with_text(" " + EYE2[1:]), BASE64 + "(Only base64 data is allowed)"),
    "a-newline": (_with_text(EYE2[:40] + "\n" + EYE2[41:]), BASE64 + "(Only base64 data is allowed)"),
    "non-ascii": (_with_text("\u00e9" + EYE2[1:]), BASE64 + "(string argument should contain only ASCII characters)"),
    "padding-in-the-middle": (_with_text(EYE2[:40] + "=" + EYE2[41:]), BASE64 + "(Discontinuous padding not allowed)"),
    "data-after-padding": (_with_text(EYE2[:80] + "AA==AAAA"), BASE64 + "(Excess data after padding)"),
    "missing-padding": (_with_text(EYE2[:-2] + "AA"), DECODED.format(64, 66)),
    "padding-for-a-shorter-text": (_with_text(EYE3[:-2] + "==", (3, 3)), DECODED.format(144, 142)),
    "nan": (_bytes_entry([[1.0, np.nan], [0.0, 1.0]]), "matrices[0]: matrix entries must be finite"),
    "inf": (_bytes_entry([[1.0, 0.0], [complex(0.0, -np.inf), 1.0]]), "matrices[0]: matrix entries must be finite"),
    "missing-shape": ({"complex128": EYE2}, KEYS + "['complex128']"),
    "missing-text": ({"shape": [2, 2]}, KEYS + "['shape']"),
    "extra-key": ({**_bytes_entry(np.eye(2)), "dtype": "<c16"}, KEYS + "['complex128', 'dtype', 'shape']"),
}


@pytest.mark.parametrize("entry, message", BYTE_MATRIX_ERRORS.values(), ids=BYTE_MATRIX_ERRORS.keys())
def test_a_malformed_byte_matrix_is_a_schema_error(entry, message, tmp_path, capsys):
    payload = {"name": "bad", "kind": "unitary_pair", "matrices": [entry, _bytes_entry(np.eye(2))]}
    bad = write_json(tmp_path / "bad.json", payload)
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="good"))
    assert main(["run", str(bad), str(good), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{bad}: schema error: {message}\n" in capsys.readouterr().err
    assert (tmp_path / "out" / "good.report.json").exists()
    assert not (tmp_path / "out" / "bad.report.json").exists()


def test_generate_default_filename_and_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--kind", "unitary_pair", "--seed", "3", "--dim", "3"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("unitary_pair-seed3-dim3.json")
    assert main(["run", "unitary_pair-seed3-dim3.json"]) == 0
    assert (tmp_path / "unitary_pair-seed3-dim3.report.json").exists()


def test_dissipative_generated_outputs_line_csv(tmp_path):
    f = tmp_path / "d.json"
    assert main(["generate", "--kind", "dissipative_pair", "--seed", "9", "--dim", "3", "-o", str(f)]) == 0
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 0
    kind, rows = read_ssf_csv(tmp_path / "dissipative_pair-seed9-dim3.report.json".replace(".report.json", ".ssf.csv"))
    assert kind == "line_step"
    assert rows[0][0] == float("-inf")
    assert rows[-1][1] == float("inf")


def test_determinant_table_gets_its_own_csv(tmp_path):
    payload = hand_pair_payload(name="det", determinant={"radius": 1.0001, "grid": 1024})
    f = write_json(tmp_path / "det.json", payload)
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 0
    kind, rows = read_ssf_csv(tmp_path / "det.determinant.csv")
    assert kind == "sampled"
    assert len(rows) == 1024


def test_plot_from_csv(tmp_path):
    step = StepSSF(jumps=((np.pi / 2.0, -1), (2.0 * np.pi, 1)), gauge=0.75)
    csv_path = tmp_path / "step.csv"
    write_ssf_csv(step, csv_path)
    out = tmp_path / "step.svg"
    assert main(["plot", str(csv_path), "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1
    assert len(polyline_points(svg)) == 4

    # default output name: swap the suffix
    assert main(["plot", str(csv_path)]) == 0
    assert (tmp_path / "step.svg").exists()


def test_plot_line_kind_labels_tails(tmp_path):
    step = StepSSF(jumps=((np.pi / 2.0, -1), (2.0 * np.pi, 1)), gauge=0.75)
    line = LineSSF(step)
    csv_path = tmp_path / "line.csv"
    write_ssf_csv(line, csv_path)
    out = tmp_path / "line.svg"
    assert main(["plot", str(csv_path), "-o", str(out)]) == 0
    svg = out.read_text()
    assert "xi(-inf)" in svg and "xi(+inf)" in svg


def test_plot_flat_zero_table(tmp_path):
    flat = StepSSF(jumps=(), gauge=0.0)
    csv_path = tmp_path / "flat.csv"
    write_ssf_csv(flat, csv_path)
    assert main(["plot", str(csv_path)]) == 0
    svg = (tmp_path / "flat.svg").read_text()
    assert svg.count("<polyline") == 1
    assert len(polyline_points(svg)) == 2


def test_plot_near_breakpoints_far_out_has_no_nan(tmp_path):
    # at 1e17 a padding of 1.0 rounds away and the x range would collapse
    csv_path = tmp_path / "near.csv"
    csv_path.write_text("t_start,t_end,value\n-inf,1e17,0\n1e17,inf,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plot", str(csv_path)]) == 0
    svg = (tmp_path / "near.svg").read_text()
    assert "nan" not in svg
    assert ET.fromstring(svg).tag.endswith("svg")


def test_plot_title_outside_ascii_is_a_character_reference(tmp_path):
    csv_path = tmp_path / "名.csv"
    write_ssf_csv(StepSSF(jumps=(), gauge=0.0), csv_path)
    assert main(["plot", str(csv_path)]) == 0
    title = ET.parse(tmp_path / "名.svg").getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == "名"


def test_plot_unreadable_csv_exits_two(tmp_path):
    junk = tmp_path / "junk.csv"
    junk.write_text("alpha,beta\n1,2\n")
    assert main(["plot", str(junk)]) == 2


@pytest.mark.parametrize(
    "raw",
    [b"theta_start,theta_end,value\n0,1,\xc3\xa9\n", b"\xef\xbb\xbftheta_start,theta_end,value\n0,1,2\n"],
    ids=["utf8-cell", "byte-order-mark"],
)
def test_plot_of_a_csv_that_is_not_ascii_is_a_schema_error(tmp_path, capsys, raw):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw)
    assert main(["plot", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and f"{bad}: not ASCII text" in err
    assert "Traceback" not in err
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize(
    "text, where",
    [
        ("theta,xi\n1.0,nan\n", ":2: column 2 (xi) is nan"),
        ("theta_start,theta_end,value\n0.0,3.0,inf\n3.0,6.283185307179586,1.0\n", ":2: column 3 (value) is inf"),
        ("t_start,t_end,value\n-inf,0.5,1.0\n0.5,inf,2.0\ninf,inf,0.0\n", ":3: column 2 (t_end) is inf"),
        ("t_start,t_end,value\ninf,inf,1.0\n", ":2: column 1 (t_start) is inf"),
        ("t_start,t_end,value\n-inf,-inf,1.0\n", ":2: column 2 (t_end) is -inf"),
        # errors name the physical line, blank lines included
        ("theta,xi\n\n1.0,0.5\n2.0,nan\n", ":4: column 2 (xi) is nan"),
        ("t_start,t_end,value\n\n-inf,0.5,1.0\n0.5,inf,2.0\n\n1.0,inf,0.0\n", ":4: column 2 (t_end) is inf"),
    ],
)
def test_plot_rejects_non_finite_cells(tmp_path, capsys, text, where):
    # only a line table's outer endpoints, -inf first and +inf last, may be infinite
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["plot", str(bad)]) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "bad.svg").exists()


def test_line_csv_endpoints_are_its_first_and_last_rows_past_blank_lines(tmp_path):
    line = tmp_path / "line.csv"
    line.write_text("\nt_start,t_end,value\n\n-inf,0.5,1.0\n\n0.5,inf,2.0\n\n")
    assert read_ssf_csv(line) == ("line_step", [(-np.inf, 0.5, 1.0), (0.5, np.inf, 2.0)])


def test_every_written_table_kind_reads_back(tmp_path):
    step = StepSSF(jumps=((1.0, 2), (4.0, -1), (TWO_PI, -1)), gauge=-0.5)
    line = LineSSF(step)
    sampled = SampledSSF(1.0001, np.linspace(0.0, TWO_PI, 9)[1:], np.arange(8.0) - 3.5, 1)
    for table, kind in ((step, "circle_step"), (line, "line_step"), (sampled, "sampled")):
        path = tmp_path / f"{kind}.csv"
        write_ssf_csv(table, path)
        assert read_ssf_csv(path) == (kind, list(map(tuple, table_array(table).tolist())))
        assert main(["plot", str(path)]) == 0


def test_plot_unwritable_destination_exits_one(tmp_path):
    step = StepSSF(jumps=((np.pi, -1), (2.0 * np.pi, 1)), gauge=1.0)
    csv_path = tmp_path / "s.csv"
    write_ssf_csv(step, csv_path)
    rc = main(["plot", str(csv_path), "-o", str(tmp_path / "no" / "such" / "dir" / "x.svg")])
    assert rc == 1


def test_csv_round_trip_exact(tmp_path):
    step = StepSSF(jumps=((0.7853981633974483, 2), (3.9269908169872414, -2)), gauge=0.125)
    p = tmp_path / "rt.csv"
    write_ssf_csv(step, p)
    kind, rows = read_ssf_csv(p)
    assert kind == "circle_step"
    flat = [x for row in rows for x in row]
    assert 0.7853981633974483 in flat  # %.17g preserves doubles exactly


def test_module_entry_point(tmp_path):
    f = write_json(tmp_path / "m.json", hand_pair_payload(name="m"))
    proc = subprocess.run(
        [sys.executable, "-m", "ssflab.cli", "run", str(f), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "m: PASS" in proc.stdout


def test_no_scenario_kind_loads_scipy(tmp_path):
    from ssflab.scenario import generate_scenario, write_scenario

    files = []
    for kind in KINDS:
        files.append(str(tmp_path / f"{kind}.json"))
        write_scenario(generate_scenario(kind, 1, 2), files[-1])
    probe = (
        "import sys\n"
        "from ssflab import cli\n"
        "codes = [cli.main(['run', f, '--out-dir', sys.argv[1]]) for f in sys.argv[2:]]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "out"), *files],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(KINDS)} []"


@pytest.mark.parametrize(
    "content",
    [b'{"name": "x\xff", "kind": "unitary_pair"}', b"[" * 200000 + b"]" * 200000],
    ids=["invalid-utf8", "nested-past-the-recursion-limit"],
)
def test_an_undecodable_file_fails_only_itself(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    good = write_json(tmp_path / "good.json", hand_pair_payload("good"))
    assert main(["run", str(bad), str(good), "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"{bad}: schema error" in captured.err
    assert "good: PASS" in captured.out
    assert (tmp_path / "good.report.json").exists()


def _diagonal_unitary(phases):
    m = np.diag(np.exp(1j * phases))
    return np.stack((m.real, m.imag), axis=-1).tolist()


def test_a_determinant_block_with_every_grid_point_near_a_jump_is_a_failing_record(tmp_path, capsys):
    # 100 equispaced phases against the same phases moved by half a spacing:
    # a jump every pi/100 < 2 * 2e-2 rad leaves no grid point outside the exclusion radius
    phases = TWO_PI * np.arange(100) / 100 + 0.01
    payload = {
        "name": "dense",
        "kind": "unitary_pair",
        "matrices": [_diagonal_unitary(phases), _diagonal_unitary(phases + np.pi / 100)],
        "determinant": {},
    }
    assert main(["run", str(write_json(tmp_path / "dense.json", payload)), "--out-dir", str(tmp_path)]) == 1
    assert "determinant-step-consistency [determinant-consistency]: residual n/a" in capsys.readouterr().out
    report = json.loads((tmp_path / "dense.report.json").read_text())
    records = {r["check_id"]: r for r in report["records"]}
    assert records["determinant-step-consistency"]["residual"] is None
    assert records["determinant-step-consistency"]["pass"] is False
    assert records["determinant-lu-crosscheck"]["pass"] is True
    assert [r["check_id"] for r in report["records"] if not r["pass"]] == ["determinant-step-consistency"]
    assert report["flags"]["determinant_step_error"] == "ValidationError: exclusion radius removed every grid point"
    assert report["tables"]["sampled"]["winding"] == 0


@pytest.mark.parametrize("name", ["../escaped", "sub/name", "back\\slash", "nul\0byte", ".", " .. "])
def test_a_name_that_is_not_a_plain_file_name_exits_two_and_writes_nothing(tmp_path, name, capsys):
    f = write_json(tmp_path / "b.json", hand_pair_payload(name=name))
    out = tmp_path / "out" / "sub"
    assert main(["run", str(f), "--out-dir", str(out)]) == 2
    assert "schema error: name: names the output files" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["b.json"]


def test_an_out_dir_that_is_a_file_is_an_io_error_for_each_scenario(tmp_path, capsys):
    first = write_json(tmp_path / "first.json", hand_pair_payload(name="first"))
    second = write_json(tmp_path / "second.json", hand_pair_payload(name="second"))
    (tmp_path / "notadir").touch()
    assert main(["run", str(first), str(second), "--out-dir", str(tmp_path / "notadir")]) == 1
    *err, batch = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == [[str(first), "io error"], [str(second), "io error"]]
    assert all("cannot create" in line for line in err)
    assert batch == "batch: files 2, passed 0, failed 0, schema errors 0, io errors 2, internal errors 0, worst headroom n/a"


# ---------------------------------------------------------------------------
# one name per run: the first file in argument order keeps it


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_repeated_scenario_name_is_a_schema_error_for_the_later_file(tmp_path, capsys, threads):
    first = write_json(tmp_path / "first.json", scenario.generate_scenario("unitary_pair", 1, 2) | {"name": "same"})
    second = write_json(tmp_path / "second.json", scenario.generate_scenario("unitary_pair", 2, 3) | {"name": " same "})
    other = write_json(tmp_path / "other.json", hand_pair_payload(name="other"))
    out = tmp_path / "out"
    rc = main(["run", str(first), str(second), str(other), "--threads", threads, "--out-dir", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{second}: schema error: scenario name 'same' is already used by {first}" in captured.err
    assert str(first) not in captured.err.replace(f"used by {first}", "")
    assert captured.out.count("same: PASS") == 1 and "other: PASS" in captured.out
    report = json.loads((out / "same.report.json").read_text())
    first_hash = scenario.load_scenario(first).config_hash
    assert report["provenance"]["config_hash"] == first_hash != scenario.load_scenario(second).config_hash
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{n}.{ext}" for n in ("same", "other") for ext in ("report.json", "ssf.csv", "svg")
    )


def test_a_name_whose_first_file_fails_to_parse_is_free(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"name": "same", "kind": "unitary_pair"})
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="same"))
    assert main(["run", str(bad), str(good), "--out-dir", str(tmp_path / "out")]) == 2
    assert (tmp_path / "out" / "same.report.json").exists()


# ---------------------------------------------------------------------------
# a malformed file fails alone, and files after it are still written


def test_a_kind_that_is_not_a_string_is_a_schema_error(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", hand_pair_payload(name="bad", kind=["unitary_pair"]))
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="good"))
    assert main(["run", str(bad), str(good), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{bad}: schema error: kind: must be one of" in capsys.readouterr().err
    assert (tmp_path / "out" / "good.report.json").exists()
    assert not (tmp_path / "out" / "bad.report.json").exists()


def test_a_unitarity_defect_that_overflows_to_nan_is_a_schema_error(tmp_path, capsys):
    payload = decimal_twin(scenario.generate_scenario("unitary_pair", 1, 3) | {"name": "huge"})
    # U*U overflows in the cross terms to inf - inf = NaN, which no `defect > tol` refuses
    payload["matrices"][0][0][0] = 1e300
    assert_a_bad_file_beside_a_good_one_is_a_schema_error(tmp_path, capsys, payload)


def test_a_unitarity_defect_that_overflows_to_nan_in_byte_form_is_a_schema_error(tmp_path, capsys):
    payload = with_first_cell(scenario.generate_scenario("unitary_pair", 1, 3) | {"name": "huge"}, 1e300)
    assert_a_bad_file_beside_a_good_one_is_a_schema_error(tmp_path, capsys, payload)


def assert_a_bad_file_beside_a_good_one_is_a_schema_error(tmp_path, capsys, payload):
    bad = write_json(tmp_path / "huge.json", payload)
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="good"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["run", str(bad), str(good), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{bad}: schema error: " in capsys.readouterr().err
    assert (tmp_path / "out" / "good.report.json").exists()
    assert not (tmp_path / "out" / "huge.report.json").exists()


def _huge_test_polynomial(payload):
    payload["test_polynomials"] = [[0, 1e308, 1e308]]


def _huge_amplitude(payload):
    payload["potential"]["amplitude"] = 1e308


@pytest.mark.parametrize(
    "kind, dim, mutate, strings, flags",
    [
        # the rhs of trace-poly-0 and the lhs of hardy-gauge overflow to NaN
        ("unitary_pair", 3, _huge_test_polynomial, {"nan"}, {}),
        # the rhs of kernel-half-l1 and the flag half_l1_target overflow to inf
        ("kernel_trace", 2, _huge_amplitude, {"inf"}, {"half_l1_target": "inf"}),
    ],
    ids=["nan-trace-polynomial", "inf-kernel-amplitude"],
)
def test_a_non_finite_number_in_a_report_fails_its_file_and_is_written_as_a_string(
    tmp_path, capsys, kind, dim, mutate, strings, flags
):
    payload = scenario.generate_scenario(kind, 1, dim) | {"name": "huge"}
    mutate(payload)
    bad = write_json(tmp_path / "huge.json", payload)
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="good"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["run", str(bad), str(good), "--out-dir", str(out)])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert "huge: FAIL" in stdout and "good: PASS" in stdout
    with open(out / "huge.report.json") as fh:
        report = json.load(fh)
    assert report["all_pass"] is False
    cells = [x for r in report["records"] for x in (*r["lhs"], *r["rhs"], r["residual"])]
    assert strings <= set(cells)
    assert {k: report["flags"][k] for k in flags} == flags
    for name in ("good.report.json", "good.ssf.csv", "good.svg"):
        assert (out / name).exists()


def test_a_non_finite_flag_fails_its_file_and_the_report_is_still_written(tmp_path, capsys):
    payload = decimal_twin(scenario.generate_scenario("dissipative_pair", 1, 1) | {"name": "huge"})
    # every record passes, but the condition report's weighted norm overflows to NaN
    payload["matrices"][0][0][0][0] = 1e308
    assert_a_non_finite_flag_fails_the_file(tmp_path, capsys, payload)


def test_a_non_finite_flag_from_a_byte_matrix_fails_its_file_and_the_report_is_still_written(tmp_path, capsys):
    payload = scenario.generate_scenario("dissipative_pair", 1, 1) | {"name": "huge"}
    entry = scenario.parse_scenario(payload).matrices[0][0, 0]
    assert_a_non_finite_flag_fails_the_file(tmp_path, capsys, with_first_cell(payload, complex(1e308, entry.imag)))


def assert_a_non_finite_flag_fails_the_file(tmp_path, capsys, payload):
    bad = write_json(tmp_path / "huge.json", payload)
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="good"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["run", str(bad), str(good), "--out-dir", str(out)])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert "huge: FAIL (1 of 5 checks failed)" in stdout and "good: PASS" in stdout
    with open(out / "huge.report.json") as fh:
        report = json.load(fh)
    assert report["flags"]["condition_report"]["weighted_diff_norm"] == "nan"
    assert report["flags"]["numeric_error"] == "not finite: flags.condition_report.weighted_diff_norm"
    failed = [r for r in report["records"] if not r["pass"]]
    assert [(r["check_id"], r["residual"]) for r in failed] == [("numeric-completion", None)]
    assert report["records"][-1] == failed[0]
    for name in ("good.report.json", "good.ssf.csv", "good.svg"):
        assert (out / name).exists()


def test_a_validated_dissipative_pair_can_trip_the_cayley_guard(tmp_path, capsys):
    # Im L = 0, so both matrices are dissipative, and cond(L0 + iI) = 1e13
    payload = {"name": "ns", "kind": "dissipative_pair", "matrices": [[[0, 0], [0, 1e13]], [[0, 0], [0, 2e13]]]}
    f = write_json(tmp_path / "ns.json", payload)
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 1
    assert "ns: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "ns.report.json").read_text())
    assert [(r["check_id"], r["pass"]) for r in report["records"]] == [("numeric-completion", False)]
    assert report["flags"] == {"numeric_error": "NearSingular: cond(L + iI) = 1.000e+13"}


@pytest.mark.parametrize(
    "name, text, code, message",
    [
        ("empty.csv", "", 2, "schema error: empty.csv: empty CSV\n"),
        ("short.csv", "theta,xi\n1.0\n", 2, "schema error: short.csv:2: expected 2 columns\n"),
        ("word.csv", "theta,xi\n1.0,abc\n", 2, "schema error: word.csv:2: could not convert string to float: 'abc'\n"),
        ("missing.csv", None, 1, "io error: cannot read missing.csv: "),
    ],
    ids=["empty", "short-row", "word-cell", "missing"],
)
def test_plot_refuses_a_csv_it_cannot_read_and_writes_nothing(tmp_path, monkeypatch, capsys, name, text, code, message):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / name).write_text(text)
    before = sorted(tmp_path.iterdir())
    assert main(["plot", name]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and (text is not None or "No such file" in err)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be a nonnegative integer"),
        ("--dim", "0", "dim must be an integer in [1, 64]"),
        ("--dim", "65", "dim must be an integer in [1, 64]"),
    ],
    ids=["seed-1", "dim0", "dim65"],
)
def test_generate_refuses_a_seed_or_dim_out_of_range_and_writes_nothing(
    tmp_path, monkeypatch, capsys, flag, value, message
):
    monkeypatch.chdir(tmp_path)
    args = {"--seed": "1", "--dim": "2", flag: value}
    assert main(["generate", "--kind", "unitary_pair", *(x for kv in args.items() for x in kv)]) == 2
    assert capsys.readouterr() == ("", f"schema error: {message}\n")
    assert list(tmp_path.iterdir()) == []
