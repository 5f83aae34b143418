"""The values-only Hermitian solve and the pair of dilation solves run at once.

`linalg.hermitian_values` calls LAPACK's ?heevd / ?syevd through ctypes, in
place and without the GIL, and must give np.linalg.eigvalsh's bits;
`linalg.unitary_spectrum_pair` solves a pair's two first Cayley tries on two
threads and must give the bits of the two solves in turn.
"""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ssflab import linalg
from ssflab.cli import main
from ssflab.dilation import dilation_pair, finite_schaffer_dilation
from ssflab.errors import EigenFailure
from ssflab.linalg import Contraction, cayley, phase_clusters
from ssflab.scenario import generate_scenario, parse_scenario, run_scenario, write_scenario
from ssflab.ssf_circle import _step_ssf, dilation_ssf

SRC = Path(__file__).resolve().parent.parent / "src"


def hermitian_lower(rng, n, dtype):
    """A column-major matrix whose lower triangle holds a Hermitian matrix and whose upper triangle is noise."""
    g = rng.standard_normal((n, n))
    if dtype == np.complex128:
        g = g + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    noise = rng.standard_normal((n, n)) * 1e3
    return np.asfortranarray(np.tril(h) + np.triu(noise.astype(dtype), 1))


def test_numpys_lapack_gives_the_gil_free_solve():
    assert linalg._VALUES_SOLVERS is not None
    assert set(linalg._VALUES_SOLVERS) == {np.dtype(np.complex128), np.dtype(np.float64)}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 257])
def test_the_solve_is_eigvalsh_bitwise_and_reads_only_the_lower_triangle(n, dtype):
    rng = np.random.default_rng(n)
    a = hermitian_lower(rng, n, dtype)
    want = np.linalg.eigvalsh(a)
    assert np.array_equal(want, np.linalg.eigvalsh(np.tril(a)))
    # a C-ordered matrix is copied first, a column-major one is solved in place
    c_ordered = np.ascontiguousarray(a)
    got = linalg.hermitian_values(c_ordered)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.array_equal(c_ordered, a)
    assert linalg.hermitian_values(a).tobytes() == want.tobytes()


def test_a_matrix_that_is_not_square_is_refused_before_any_lapack_call(monkeypatch):
    monkeypatch.setattr(linalg, "_VALUES_SOLVERS", dict.fromkeys(linalg._VALUES_SOLVERS, pytest.fail))
    with pytest.raises(np.linalg.LinAlgError, match="square"):
        linalg.hermitian_values(np.zeros((3, 2), order="F"))


def handed_matrices(monkeypatch):
    """Column-major copies of every matrix handed to hermitian_values from now on."""
    handed, solve = [], linalg.hermitian_values
    monkeypatch.setattr(linalg, "hermitian_values", lambda a: handed.append(np.array(a, order="F")) or solve(a))
    return handed


def test_the_cayley_matrices_of_generated_pairs_solve_as_eigvalsh_does(monkeypatch):
    handed = handed_matrices(monkeypatch)
    for kind, dim in (("dissipative_pair", 3), ("dissipative_pair", 8), ("contraction_pair", 24), ("schrodinger", 8)):
        run_scenario(parse_scenario(generate_scenario(kind, 1, dim)))
    # the Schrodinger L1 is folded to the real route, L0 is a stack of scalar dilations
    assert {(a.ndim, a.dtype) for a in handed} == {
        (2, np.dtype(np.complex128)),
        (2, np.dtype(np.float64)),
        (3, np.dtype(np.float64)),
    }
    monkeypatch.undo()
    for a in handed:
        want = np.linalg.eigvalsh(a)
        assert linalg.hermitian_values(a.copy(order="F")).tobytes() == want.tobytes()


def test_a_lapack_failure_of_the_solve_is_an_eigen_failure():
    def failing(*args):
        return 3

    rng = np.random.default_rng(1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_VALUES_SOLVERS", dict.fromkeys(linalg._VALUES_SOLVERS, failing))
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            linalg.hermitian_values(hermitian_lower(rng, 4, np.complex128))
        with pytest.raises(EigenFailure):
            linalg._eig(linalg.hermitian_values, hermitian_lower(rng, 4, np.float64))


@pytest.mark.parametrize("dim", [3, 8])
def test_a_lapack_failure_of_a_dilation_solve_exits_one_with_a_failing_record(tmp_path, monkeypatch, capsys, dim):
    # dim 3 solves the pair in turn, dim 8 (160 rows) on two threads
    payload = generate_scenario("dissipative_pair", 1, dim)
    f = tmp_path / "solve.json"
    write_scenario(payload, f)
    monkeypatch.setattr(linalg, "_VALUES_SOLVERS", dict.fromkeys(linalg._VALUES_SOLVERS, lambda *args: 1))
    assert main(["run", str(f), "--out-dir", str(tmp_path)]) == 1
    assert f"{payload['name']}: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / f"{payload['name']}.report.json").read_text())
    assert report["records"][-1]["check_id"] == "numeric-completion"
    assert report["records"][-1]["pass"] is False
    assert report["flags"]["numeric_error"] == "EigenFailure: Eigenvalues did not converge"


def without_timestamp(path: Path) -> bytes:
    return re.sub(rb'^  "timestamp": .*\n', b"", path.read_bytes(), count=1, flags=re.MULTILINE)


def test_the_numpy_fallback_writes_the_same_bytes(tmp_path, monkeypatch):
    files = []
    for kind, dim in (("dissipative_pair", 3), ("dissipative_pair", 8), ("contraction_pair", 32), ("schrodinger", 8)):
        payload = generate_scenario(kind, 2, dim)
        files.append(str(tmp_path / f"{payload['name']}.json"))
        write_scenario(payload, Path(files[-1]))
    main(["run", *files, "--out-dir", str(tmp_path / "lapack")])
    monkeypatch.setattr(linalg, "_VALUES_SOLVERS", None)
    solves, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
    main(["run", *files, "--out-dir", str(tmp_path / "numpy")])
    assert solves
    written = sorted(p.name for p in (tmp_path / "lapack").iterdir())
    assert len(written) == 12 and written == sorted(p.name for p in (tmp_path / "numpy").iterdir())
    for name in written:
        assert without_timestamp(tmp_path / "lapack" / name) == without_timestamp(tmp_path / "numpy" / name), name


def test_pairs_solved_at_once_in_parallel_files_write_the_bytes_of_one_worker(tmp_path):
    # three CLI workers on 2 cores, each solving its pair on two threads, with
    # the interpreter switching threads often
    files = []
    for kind, seed, dim in (("dissipative_pair", 4, 8), ("dissipative_pair", 5, 8), ("contraction_pair", 4, 16)):
        payload = generate_scenario(kind, seed, dim)
        files.append(str(tmp_path / f"{payload['name']}.json"))
        write_scenario(payload, Path(files[-1]))
    main(["run", *files, "--out-dir", str(tmp_path / "one")])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        main(["run", *files, "--threads", "3", "--out-dir", str(tmp_path / "three")])
    finally:
        sys.setswitchinterval(interval)
    written = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(written) == 9 and written == sorted(p.name for p in (tmp_path / "three").iterdir())
    for name in written:
        assert without_timestamp(tmp_path / "one" / name) == without_timestamp(tmp_path / "three" / name), name


def solving_threads(monkeypatch):
    """Whether each hermitian_values call from now on ran on the main thread."""
    on_main, solve = [], linalg.hermitian_values
    monkeypatch.setattr(
        linalg,
        "hermitian_values",
        lambda a: on_main.append(threading.current_thread() is threading.main_thread()) or solve(a),
    )
    return on_main


def assert_pair_matches_the_solves_in_turn(monkeypatch, d0, d1, solves):
    """dilation_ssf(d0, d1) solves the first tries on two threads and gives the bits of the sequential solves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_CONCURRENT_N", 10**9)
        sequential = _step_ssf(d0.eigenphases(), d1.eigenphases())
    on_main = solving_threads(monkeypatch)
    assert dilation_ssf(d0, d1) == sequential
    assert on_main.count(False) == 1 and len(on_main) == solves
    monkeypatch.undo()


@pytest.mark.parametrize("kind, dim", [("dissipative_pair", 8), ("dissipative_pair", 16), ("contraction_pair", 16)])
def test_a_generated_pair_solved_at_once_matches_the_solves_in_turn(monkeypatch, kind, dim):
    sc = parse_scenario(generate_scenario(kind, 3, dim))
    t0, t1 = sc.matrices if kind == "contraction_pair" else (cayley(l) for l in sc.matrices)
    m = sc.dilation_order or 20
    d0, d1 = dilation_pair(t0, t1, m)
    assert min(d0.cayley_problem().rows, d1.cayley_problem().rows) >= linalg._CONCURRENT_N
    assert_pair_matches_the_solves_in_turn(monkeypatch, d0, d1, 2)


def test_a_pair_that_takes_the_pole_retry_matches_the_solves_in_turn(monkeypatch):
    # both operators have the eigenvalue e^(i 7 pi/6), which sits on the first
    # pole of an m = 6 dilation, next to a 17-square strict contraction
    rng = np.random.default_rng(5)
    tau = np.exp(7j * np.pi / 6)

    def on_pole():
        g = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
        t = np.zeros((18, 18), dtype=np.complex128)
        t[0, 0], t[1:, 1:] = tau, 0.5 * g / np.linalg.norm(g, 2)
        return Contraction(t)

    d0, d1 = dilation_pair(on_pole(), on_pole(), 6)
    for d in (d0, d1):
        p = d.cayley_problem()
        assert linalg._cayley_solve(p, p.psi).pole > linalg._POLE_LIMIT
    # two first tries, then two retries
    assert_pair_matches_the_solves_in_turn(monkeypatch, d0, d1, 4)


def test_a_pair_whose_member_takes_the_dense_fallback_matches_the_solves_in_turn(monkeypatch):
    # T0 has the singular value 1 + 3e-11 that Contraction accepts: the skew of
    # its Cayley matrix fails the certificate and its phases come from eigvals
    # of the dense u; T1 takes the Cayley route
    rng = np.random.default_rng(0)
    n = 32
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(h + h.conj().T)
    rotation = (v * np.exp(1j * rng.uniform(0.0, 2.0) * w / np.abs(w).max())) @ v.conj().T
    t0 = Contraction((q * np.r_[1 + 3e-11, rng.uniform(0.2, 0.9, n - 1)]) @ (-q.conj().T @ rotation))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t1 = Contraction(0.9 * g / np.linalg.norm(g, 2))
    d0, d1 = finite_schaffer_dilation(t0, 3), finite_schaffer_dilation(t1, 3)
    dense, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: dense.append(a.shape) or eigvals(a))
    assert_pair_matches_the_solves_in_turn(monkeypatch, d0, d1, 2)
    assert dense == [(3 * n, 3 * n)] * 2
    assert phase_clusters(eigvals(d0.u.m)) == d0.eigenphases()


def test_a_small_or_stacked_pair_is_solved_in_turn(monkeypatch):
    on_main = solving_threads(monkeypatch)
    for kind in ("dissipative_pair", "schrodinger"):
        # 80 rows; the Schrodinger L0 is a stack of 17-square scalar dilations
        run_scenario(parse_scenario(generate_scenario(kind, 1, 4 if kind == "dissipative_pair" else 24)))
    assert on_main and all(on_main)


_GIL_PROBE = """
import threading, time
import numpy as np
from ssflab import linalg

assert linalg._VALUES_SOLVERS is not None
rng = np.random.default_rng(0)
g = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
h = np.asfortranarray(g + g.conj().T)


def progress(solve):
    # a Python thread's loop count per second while this thread runs four solves
    copies = [h.copy(order="F") for _ in range(4)]
    stop, count = [], [0]

    def spin():
        while not stop:
            count[0] += 1

    spinner = threading.Thread(target=spin)
    spinner.start()
    start = time.perf_counter()
    for c in copies:
        solve(c)
    elapsed = time.perf_counter() - start
    stop.append(True)
    spinner.join()
    return count[0] / elapsed


ratios = sorted(progress(linalg.hermitian_values) / progress(np.linalg.eigvalsh) for _ in range(3))
print(ratios[1])
"""


def test_the_solve_releases_the_gil_and_eigvalsh_does_not():
    # one BLAS thread, so the solve and the spinning thread each have a core
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _GIL_PROBE], env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) > 3.0
