"""tools/make_corpus.py writes a corpus whose every file parses."""

import importlib.util
import json
from pathlib import Path

import pytest

from ssflab import linalg
from ssflab.scenario import KINDS, load_scenario, parse_scenario, run_scenario

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_corpus.py"


@pytest.fixture(scope="module")
def make_corpus():
    spec = importlib.util.spec_from_file_location("make_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_corpus_file_parses(make_corpus, tmp_path, capsys):
    assert make_corpus.main([str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("*.json"))
    generated = len(KINDS) * len(make_corpus.SEEDS) * len(make_corpus.DIMS)
    assert len(files) == generated + 25
    assert f"{len(files)} scenario files" in capsys.readouterr().out
    scenarios = [load_scenario(f) for f in files]
    assert {sc.name for sc in scenarios} == {f.stem for f in files}
    assert all(sc.outputs == ("json", "csv", "svg") for sc in scenarios if sc.name != "edge-determinant-limit")
    edges = {sc.name: sc for sc in scenarios if sc.name.startswith("edge-")}
    assert edges["edge-fractional-beta0"].exponents["beta"] == 0.0
    dim64 = edges["edge-fractional-dim64"]
    assert dim64.kind == "fractional" and dim64.matrices[0].shape == (64, 64)
    assert edges["edge-truncate-ladder"].monotone["variant"] == "truncate"
    assert edges["edge-spectral-point"].spectral_point == -2.5
    written = {name: json.loads((tmp_path / f"{name}.json").read_text()) for name in edges}
    default = edges["edge-default-grid-kernel"].grid
    assert (default.lo, default.hi, default.n, default.scheme) == (-8.0, 8.0, 1024, "gauss16")
    assert "grid" not in written["edge-default-grid-kernel"]
    bump = edges["edge-trapezoid-bump"].grid
    assert (bump.lo, bump.hi, bump.n, bump.scheme) == (-8.0, 8.0, 257, "trapezoid")
    assert written["edge-trapezoid-bump"]["potential"]["kind"] == "bump"
    assert written["edge-table-kernel"]["potential"]["kind"] == "table"
    assert edges["edge-complex-table"].kind == "schrodinger"
    assert written["edge-complex-table"]["potential"]["kind"] == "table"
    assert edges["edge-complex-table"].potential.imag.any()
    assert edges["edge-unitary-determinant"].determinant is not None
    assert edges["edge-contraction-determinant"].determinant is not None
    assert edges["edge-determinant-grid256"].determinant["grid"] == 256
    limit = edges["edge-determinant-limit"]
    assert (limit.kind, limit.determinant["grid"], limit.outputs) == ("unitary_pair", 65536, ("json", "csv"))
    assert limit.matrices[0].shape == (128, 128)
    assert 'edge-quoted-"name"-ünïcode-名前' in edges
    cells = json.loads((tmp_path / "edge-mixed-cells.json").read_text())["matrices"]
    assert {type(c) for m in cells for row in m for c in row} == {int, float, list}
    im_l0 = json.loads((tmp_path / "edge-singular-im.json").read_text())["matrices"][0]
    assert [im_l0[k][k][1] for k in range(3)] == [1.0, 0.0, 0.5]
    overrides = edges["edge-tolerance-overrides"].checks
    assert overrides["resolvent-z0"] == ("line-resolvent-trace", 1e-5)
    assert overrides["weighted-consistency"] == ("weighted-integral-consistency", 1e-10)
    # the kind's rule gives the block count of a file without one; a line kind's is sized in the run
    for name, kind, blocks in (("schrodinger", "schrodinger", None), ("degree5", "contraction_pair", 8)):
        sc = edges[f"edge-default-blocks-{name}"]
        assert (sc.kind, sc.dilation_order) == (kind, blocks)
        assert "dilation_order" not in json.loads((tmp_path / f"edge-default-blocks-{name}.json").read_text())
    explicit = edges["edge-explicit-blocks-dissipative"]
    assert (explicit.kind, explicit.dilation_order) == ("dissipative_pair", 24)
    on_pole = edges["edge-eigenvalue-on-the-pole"]
    assert (on_pole.kind, on_pole.dilation_order) == ("contraction_pair", 6)
    kernel, kernel_alpha0 = edges["edge-defect-kernel"], edges["edge-defect-kernel-alpha0"]
    assert kernel.kind == kernel_alpha0.kind == "contraction_pair"
    assert (kernel.exponents["alpha"], kernel_alpha0.exponents["alpha"], kernel_alpha0.exponents["beta"]) == (0.5, 0.0, 0.75)
    # the corpus holds both matrix forms at a size where the decimal cells take the one-array parse
    sibling_name = "contraction_pair-seed1-dim24"
    twin, sibling = (json.loads((tmp_path / f"{n}.json").read_text()) for n in ("edge-decimal-twin", sibling_name))
    assert isinstance(twin["matrices"][0], list) and set(sibling["matrices"][0]) == {"shape", "complex128"}
    # the name is hashed too: renamed, the generated file hashes like its twin
    assert parse_scenario(sibling | {"name": twin["name"]}).config_hash == edges["edge-decimal-twin"].config_hash
    matrices = (edges["edge-decimal-twin"].matrices, next(sc for sc in scenarios if sc.name == sibling_name).matrices)
    assert [m.tobytes() for m in matrices[0]] == [m.tobytes() for m in matrices[1]]
    assert matrices[0][0].shape == (24, 24)


@pytest.mark.parametrize("name, defined", [("edge-defect-kernel-alpha0", True), ("edge-defect-kernel", False)])
def test_the_defect_kernel_files_reach_both_kernel_paths(make_corpus, name, defined):
    # T0 has two unit singular values: the weighted norms exist at alpha = 0 only
    payload = next(f for f in make_corpus.corpus() if f["name"] == name)
    flags = run_scenario(parse_scenario(payload)).flags
    assert flags["min_defect_eig"] == 0.0 and flags["kernel_certified"] is False
    assert (flags["weighted_diff_norm"] is not None) == (flags["weighted_adjoint_diff_norm"] is not None) == defined


def test_the_pole_file_takes_a_second_cayley_try(make_corpus, monkeypatch):
    # its operators share the eigenvalue e^(i 7 pi/6), on the first pole of an m = 6 dilation
    payload = next(f for f in make_corpus.corpus() if f["name"] == "edge-eigenvalue-on-the-pole")
    tries, solve = [], linalg._cayley_solve
    monkeypatch.setattr(linalg, "_cayley_solve", lambda *args: tries.append(solve(*args)) or tries[-1])
    report = run_scenario(parse_scenario(payload))
    assert all(r.passed for r in report.records)
    assert len(tries) == 4 and all(t.pole > linalg._POLE_LIMIT for t in tries[::2])
    assert all(t.pole <= linalg._POLE_LIMIT for t in tries[1::2])


def test_usage_without_an_output_directory_exits_two(make_corpus, capsys):
    assert make_corpus.main([]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_and_writes_nothing(make_corpus, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert make_corpus.main([flag]) == 0
    assert capsys.readouterr().out.startswith("usage: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["--out"], ["-"], ["-x", "corpus"], ["corpus", "more"]])
def test_an_option_or_a_second_argument_exits_two_and_writes_nothing(make_corpus, args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert make_corpus.main(args) == 2
    assert capsys.readouterr().err.startswith("usage: ")
    assert not any(tmp_path.iterdir())
