"""Command line surface: exit codes, files on disk, round trips."""

import json
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ssflab import scenario
from ssflab.cli import main
from ssflab.export import read_ssf_csv, table_array, write_ssf_csv
from ssflab.linalg import TWO_PI
from ssflab.scenario import ANCHORS, KINDS
from ssflab.ssf_circle import SampledSSF, StepSSF
from ssflab.ssf_line import pushforward_line


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def hand_pair_payload(name="hand", **extra):
    payload = {
        "name": name,
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[[0.0, 1.0]]]],
        "outputs": ["json", "csv", "svg"],
    }
    payload.update(extra)
    return payload


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
    assert svg.count('class="step"') == 2
    assert svg.count('class="drop"') == 1


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
    # eigvalsh fails on the first call after the lattice pair is built: the
    # lattice-dissipativity floor. That is a numeric failure, not a bad file
    payload = {
        "name": "floor",
        "kind": "schrodinger",
        "grid": {"lo": -8.0, "hi": 8.0, "nodes": 8},
        "potential": {"kind": "gaussian", "amplitude": [0.0, 1.0]},
    }
    f = write_json(tmp_path / "floor.json", payload)
    built = []
    build_pair, eigvalsh = scenario.discrete_schrodinger_pair, np.linalg.eigvalsh

    def build_then_arm(*args):
        pair = build_pair(*args)
        built.append(pair)
        return pair

    def eigvalsh_failing_once_armed(a):
        if built:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(scenario, "discrete_schrodinger_pair", build_then_arm)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_failing_once_armed)
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 1
    assert "floor: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "floor.report.json").read_text())
    assert [r["check_id"] for r in report["records"]] == ["numeric-completion"]
    assert report["flags"]["numeric_error"].startswith("EigenFailure: ")


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
    assert svg.count('class="step"') == 2

    # default output name: swap the suffix
    assert main(["plot", str(csv_path)]) == 0
    assert (tmp_path / "step.svg").exists()


def test_plot_line_kind_labels_tails(tmp_path):
    step = StepSSF(jumps=((np.pi / 2.0, -1), (2.0 * np.pi, 1)), gauge=0.75)
    line = pushforward_line(step)
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
    assert svg.count('class="step"') == 1
    assert svg.count('class="drop"') == 0


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
    line = pushforward_line(step)
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
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == [[str(first), "io error"], [str(second), "io error"]]
    assert all("cannot create" in line for line in err)


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
    payload = scenario.generate_scenario("unitary_pair", 1, 3) | {"name": "huge"}
    # U*U overflows in the cross terms to inf - inf = NaN, which no `defect > tol` refuses
    payload["matrices"][0][0][0] = 1e300
    bad = write_json(tmp_path / "huge.json", payload)
    good = write_json(tmp_path / "good.json", hand_pair_payload(name="good"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["run", str(bad), str(good), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{bad}: schema error: " in capsys.readouterr().err
    assert (tmp_path / "out" / "good.report.json").exists()
    assert not (tmp_path / "out" / "huge.report.json").exists()
