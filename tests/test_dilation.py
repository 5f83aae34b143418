import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab.dilation import (
    default_block_count,
    dilation_pair,
    finite_schaffer_dilation,
    julia_block,
)
from ssflab import dilation, linalg
from ssflab.errors import InvalidOrder, ValidationError
from ssflab.linalg import (
    TWO_PI,
    CayleyProblem,
    Contraction,
    cayley,
    operator_norm,
    phase_clusters,
    schatten_norm,
)
from ssflab.scenario import parse_scenario, run_scenario
from ssflab.schrodinger import discrete_schrodinger_pair


def random_contraction(rng, n, scale=None):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    s = scale if scale is not None else float(rng.uniform(0.3, 1.0))
    return Contraction(s * g / (operator_norm(g) + 0.1))


def symmetric_contraction(rng, n, singular_values=None):
    """T = Q diag(s) Q^T for a Haar unitary Q (Takagi form), symmetrized exactly."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    s = rng.uniform(0.0, 1.0, n) if singular_values is None else np.asarray(singular_values, dtype=float)
    t = (q * s) @ q.T
    return Contraction(0.5 * (t + t.T))


def normal_contraction(rng, n, tau=None):
    """T = Q diag(tau) Q* for a Haar unitary Q; tau uniform in the unit disc unless given."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    if tau is None:
        tau = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return Contraction((q * tau) @ q.conj().T)


def assert_phases_match(got, want, tol):
    assert [k for _, k in got] == [k for _, k in want]
    for (p, _), (q, _) in zip(got, want):
        assert min(abs(p - q), TWO_PI - abs(p - q)) <= tol


# ---------------------------------------------------------------------------
# Julia block


def test_julia_zero_contraction():
    j = julia_block(Contraction(np.zeros((1, 1))))
    assert np.allclose(j.m, np.eye(2), atol=1e-15)


def test_julia_scalar_half_is_rotation():
    j = julia_block(Contraction(np.array([[0.5]])))
    expected = np.array([[np.sqrt(3) / 2, -0.5], [0.5, np.sqrt(3) / 2]])
    assert np.allclose(j.m, expected, atol=1e-15)


def test_julia_unitary_seed19():
    rng = np.random.default_rng(19)
    t = random_contraction(rng, 3)
    j = julia_block(t).m
    assert np.linalg.norm(j.conj().T @ j - np.eye(6)) <= 1e-10
    # corner carries T itself
    assert np.allclose(j[3:, :3], t.m, atol=1e-15)


def test_julia_of_unitary_has_zero_defect_corners():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    j = julia_block(Contraction(u)).m
    assert np.linalg.norm(j[:4, :4]) <= 1e-7
    assert np.linalg.norm(j[4:, 4:]) <= 1e-7
    assert np.allclose(j[:4, 4:], -u.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# finite cyclic dilation


def test_schaffer_zero_contraction_is_cyclic_shift():
    d = finite_schaffer_dilation(Contraction(np.zeros((1, 1))), 3)
    expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    assert np.allclose(d.u.m, expected, atol=1e-15)
    for k in (1, 2):
        assert abs(d.compressed_power(k)[0, 0]) <= 1e-15


def test_schaffer_scalar_half_m5():
    d = finite_schaffer_dilation(Contraction(np.array([[0.5]])), 5)
    for k in (1, 2, 3):
        assert d.compressed_power(k)[0, 0] == pytest.approx(0.5**k, abs=1e-14)


def test_schaffer_power_dilation_seed29():
    rng = np.random.default_rng(29)
    t = random_contraction(rng, 3)
    d = finite_schaffer_dilation(t, 8)
    for k in range(1, 7):
        residual = np.linalg.norm(d.compressed_power(k) - np.linalg.matrix_power(t.m, k))
        assert residual <= 1e-10


def test_compressed_powers_match_full_matrix_powers_past_the_budget():
    rng = np.random.default_rng(37)
    t = random_contraction(rng, 3)
    d = finite_schaffer_dilation(t, 5)
    corners = d.compressed_powers(7)
    assert len(corners) == 7
    for k, corner in enumerate(corners, start=1):
        want = np.linalg.matrix_power(d.u.m, k)[:3, :3]
        assert np.linalg.norm(corner - want) <= 1e-12


def test_schaffer_rejects_small_m():
    with pytest.raises(InvalidOrder):
        finite_schaffer_dilation(Contraction(np.zeros((2, 2))), 2)


def test_schaffer_unitary_and_power_dilation_property():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(3, 9))
        t = random_contraction(rng, n)
        d = finite_schaffer_dilation(t, m)
        eye = np.eye(m * n)
        assert np.linalg.norm(d.u.m.conj().T @ d.u.m - eye) <= 1e-10
        assert d.m == m and d.n == n
        for k in range(1, m - 1):
            residual = np.linalg.norm(d.compressed_power(k) - np.linalg.matrix_power(t.m, k))
            assert residual <= 1e-10


@pytest.mark.parametrize("m", range(3, 9))
def test_structured_dilation_agrees_with_its_dense_matrix(m):
    rng = np.random.default_rng(100 + m)
    symmetric_rng = np.random.default_rng(200 + m)
    for n in (1, 2, 4):
        # a complex-symmetric T takes its eigenphases from the real fold
        for t in (random_contraction(rng, n), symmetric_contraction(symmetric_rng, n)):
            d = finite_schaffer_dilation(t, m)
            assert d.complex_symmetric is bool(np.array_equal(t.m, t.m.T))
            u = d.u.m
            for alpha in (np.exp(-0.7j), 1.0, -1j):
                want = np.linalg.inv(np.eye(m * n) + alpha * u)
                assert np.linalg.norm(d.shifted_inverse(alpha) - want) <= 1e-12 * np.linalg.norm(want)
            for k, corner in enumerate(d.compressed_powers(m + 2), start=1):
                assert np.linalg.norm(corner - np.linalg.matrix_power(u, k)[:n, :n]) <= 1e-13
            # U*U - I is the Julia block's defect on two blocks and zero elsewhere
            w = julia_block(t).m
            dense_defect = np.linalg.norm(u.conj().T @ u - np.eye(m * n))
            julia_defect = np.linalg.norm(w.conj().T @ w - np.eye(2 * n))
            assert abs(dense_defect - julia_defect) <= 1e-14
            got, want = d.eigenphases(), phase_clusters(np.linalg.eigvals(u))
            assert [k for _, k in got] == [k for _, k in want]
            assert max(abs(p - q) for (p, _), (q, _) in zip(got, want)) <= 1e-12


def _fold_unitary(m, n):
    """V of the fold in its column order: block j holds (e_j + e_(m-j))/sqrt(2), block m-j i (e_j - e_(m-j))/sqrt(2)."""
    v = np.eye(m, dtype=np.complex128)
    for j in range(1, (m + 1) // 2):
        v[[j, m - j], j] = np.sqrt(0.5)
        v[[j, m - j], m - j] = np.sqrt(0.5) * np.array([1j, -1j])
    return np.kron(v, np.eye(n))


@pytest.mark.parametrize("m", [3, 4, 7, 10])
def test_fold_is_the_congruence_that_makes_a_symmetric_dilation_real(m):
    rng = np.random.default_rng(300 + m)
    n = 3
    d = finite_schaffer_dilation(symmetric_contraction(rng, n), m)
    u = d.u.m
    # P: block j -> -j mod m gives P U P = U^T, and V is unitary with conj(V) = P V
    p = np.kron(np.eye(m)[-np.arange(m) % m], np.eye(n))
    assert np.linalg.norm(p @ u @ p - u.T) <= 1e-14
    v = _fold_unitary(m, n)
    assert np.linalg.norm(v.conj().T @ v - np.eye(m * n)) <= 1e-14
    assert np.linalg.norm(v.conj() - p @ v) == 0.0
    a = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    folded = a.copy()
    d.fold(folded)
    assert np.linalg.norm(folded - v.conj().T @ a @ v) <= 1e-13 * np.linalg.norm(a)
    # the Cayley matrix folds to a real symmetric matrix with the same eigenvalues
    cay = 2j * d.shifted_inverse(np.exp(-0.7j)) - 1j * np.eye(m * n)
    want = np.linalg.eigvalsh(0.5 * (cay + cay.conj().T))
    d.fold(cay)
    assert np.linalg.norm(cay.imag) <= 1e-13 * np.linalg.norm(cay)
    assert np.linalg.norm(cay.real - cay.real.T) <= 1e-13 * np.linalg.norm(cay)
    assert np.abs(np.linalg.eigvalsh(cay.real) - want).max() <= 1e-12 * np.abs(want).max()


def _one_pass_fold(a, n, m):
    """The fold over every block pair at once, with its half-matrix difference temporary."""
    lead = a.shape[:-2]
    pairs = (m - 1) // 2
    root_half = np.sqrt(0.5)
    column_blocks = np.moveaxis(a.reshape(lead + (m * n, m, n)), -2, 0)
    row_blocks = np.moveaxis(a.reshape(lead + (m, n, m * n)), -3, 0)
    for blocks, unit in ((column_blocks, 1j), (row_blocks, -1j)):
        x, y = blocks[1 : pairs + 1], blocks[m - pairs :][::-1]
        diff = x - y
        diff *= unit * root_half
        x += y
        x *= root_half
        y[...] = diff


@pytest.mark.parametrize("n", [1, 2, 5, 8, 24])
@pytest.mark.parametrize("m", [3, 4, 9, 24])
def test_strip_fold_matches_the_one_pass_fold_bitwise(n, m):
    rng = np.random.default_rng(10 * n + m)
    d = dilation.FiniteDilation(np.zeros((2 * n, 2 * n)), m)
    for lead in ((), (3,)):
        shape = lead + (m * n, m * n)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = a.copy()
        _one_pass_fold(want, n, m)
        d.fold(a)
        assert a.tobytes() == want.tobytes()


def test_strip_fold_allocates_a_small_share_of_the_matrix():
    n, m = 24, 24
    size = m * n
    a = np.random.default_rng(4).standard_normal((size, size)) * (1.0 + 1j)
    d = dilation.FiniteDilation(np.zeros((2 * n, 2 * n)), m)
    tracemalloc.start()
    d.fold(a)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the one-pass fold's difference alone held half the matrix, size^2 / 2
    # complex entries; a strip's difference, numpy's copy of its overlapping
    # partner and the iterator buffers stay under half of that
    assert peak <= 0.5 * (size * size // 2) * a.itemsize


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(3, 11), normal=st.booleans())
def test_symmetric_dilation_eigenphases_match_eigvals(seed, n, m, normal):
    rng = np.random.default_rng(seed)
    if normal:
        # Q diag(lambda) Q^T with a real orthogonal Q is symmetric and normal;
        # repeated lambdas, zeros and unimodular ones give multiplicities
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.choice(np.array([0.0, 0.6, -0.3 + 0.4j, 1j, -1.0]), size=n)
        t = (q * lam) @ q.T
        t = Contraction(0.5 * (t + t.T))
    else:
        sv = rng.choice(np.array([0.0, 1.0, rng.uniform(), rng.uniform(), rng.uniform()]), size=n)
        t = symmetric_contraction(rng, n, sv)
    d = finite_schaffer_dilation(t, m)
    # a singular value at 1 that the SVD returns more than 8 n eps low still
    # puts a square root of roundoff, about 1e-8, into the defects, and that
    # asymmetry keeps the fold from being tried
    assert d.complex_symmetric or t.norm > 1.0 - 1e-6
    assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-10)


def _recording_solves(monkeypatch):
    solves = []
    solve = linalg.hermitian_values
    monkeypatch.setattr(linalg, "hermitian_values", lambda a: solves.append(a.dtype) or solve(a))
    return solves


def test_nearly_symmetric_dilation_takes_the_complex_solve(monkeypatch):
    solves = _recording_solves(monkeypatch)
    rng = np.random.default_rng(8)
    for m in (5, 8):
        t = symmetric_contraction(rng, 4, rng.uniform(0.0, 0.9, 4)).m
        skew = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        skew -= skew.T
        d = finite_schaffer_dilation(Contraction(t + 1e-6 * skew / np.linalg.norm(skew)), m)
        assert not d.complex_symmetric
        solves.clear()
        want = phase_clusters(np.linalg.eigvals(d.u.m))
        assert_phases_match(d.eigenphases(), want, 1e-10)
        assert set(solves) == {np.dtype(np.complex128)}


def test_a_fold_without_the_symmetry_fails_its_certificate(monkeypatch):
    # folding a non-symmetric dilation leaves conj(B) != B; the certificate
    # sends the solve to the complex Hermitian part of the folded matrix,
    # which has the same eigenvalues
    solves = _recording_solves(monkeypatch)
    rng = np.random.default_rng(9)
    for n, m in ((2, 3), (3, 6), (4, 9)):
        d = finite_schaffer_dilation(random_contraction(rng, n), m)
        assert not d.complex_symmetric
        solves.clear()
        lam = CayleyProblem(d.shifted_inverse, lambda: pytest.fail("dense fallback"), d.fold).spectrum()
        assert_phases_match(phase_clusters(lam), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-12)
        assert set(solves) == {np.dtype(np.complex128)}


def _full_matrix_real_fold(a, fold):
    """The fold's certificate and real part over full matrices: fold a in place to X + iY;
    (X + X^T)/2, or None when skew plus ||Y - Y^T||_F exceed _SKEW_TOL."""
    fold(a)
    x, y = a.real, a.imag
    xt, yt = x.swapaxes(-1, -2), y.swapaxes(-1, -2)
    h = x - xt
    skew = np.sqrt(linalg._square_sum(h) + linalg._square_sum(np.add(y, yt, out=h)))
    weyl = np.sqrt(linalg._square_sum(np.subtract(y, yt, out=h)))
    if not np.all(skew + weyl <= linalg._SKEW_TOL):
        return None
    np.add(x, xt, out=h)
    h *= 0.5
    return h


def test_the_one_hermitian_pass_picks_the_real_route_of_the_full_matrix_fold(monkeypatch):
    # the real route hands hermitian_values a lower triangle bitwise equal to
    # the full-matrix (X + X^T)/2, and is taken on exactly the dilations where
    # the full-matrix certificate holds: the folded complex-symmetric ones
    handed = []
    solve = linalg.hermitian_values
    monkeypatch.setattr(linalg, "hermitian_values", lambda a: handed.append(a.copy()) or solve(a))
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        for m in range(3, 13):
            # a 1 x 1 T is complex symmetric
            for t, symmetric in ((symmetric_contraction(rng, n), True), (random_contraction(rng, n), n == 1)):
                d = finite_schaffer_dilation(t, m)
                assert d.complex_symmetric == symmetric
                a = d.shifted_inverse(np.exp(-1j * linalg._PSI)) * 2j
                a[np.diag_indices_from(a)] -= 1j
                want = _full_matrix_real_fold(a, d.fold)
                assert (want is not None) == symmetric
                handed.clear()
                CayleyProblem(d.shifted_inverse, lambda: d.u.m, d.fold).spectrum()
                assert handed[0].dtype == (np.float64 if symmetric else np.complex128)
                if symmetric:
                    assert np.tril(handed[0]).tobytes() == np.tril(want).tobytes()


def test_dilation_of_a_contraction_at_its_norm_tolerance_matches_eigvals(monkeypatch):
    # Contraction accepts a norm up to 1 + 1e-8, so the Julia block of a
    # non-normal T with largest singular value 1 + 3e-11 is a validated,
    # non-normal unitary. T = -Q diag(1 + 3e-11, s) Q* R, R a rotation by up
    # to 2 rad, has a phase near pi, the first pole at m = 3; for some T the
    # skew certificate of the Cayley transform fails and the eigenphases come
    # from eigvals of the dense u, for the others from the Cayley route
    fallbacks = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: fallbacks.append(a.shape) or eigvals(a))
    rng = np.random.default_rng(0)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w, v = np.linalg.eigh(h + h.conj().T)
        rotation = (v * np.exp(1j * rng.uniform(0.0, 2.0) * w / np.abs(w).max())) @ v.conj().T
        t = Contraction((q * [1 + 3e-11, rng.uniform(0.2, 0.9)]) @ (-q.conj().T @ rotation))
        d = finite_schaffer_dilation(t, 3)
        got, want = d.eigenphases(), phase_clusters(eigvals(d.u.m))
        assert [k for _, k in got] == [k for _, k in want]
        assert max(abs(p - q) for (p, _), (q, _) in zip(got, want)) <= 1e-12
    assert (6, 6) in fallbacks and len(fallbacks) < 20


def test_dilation_eigenphases_compute_no_eigenvectors(monkeypatch):
    # the normal route takes the eigenvectors of an n-square matrix; nothing
    # (m n)-square is ever eigendecomposed with vectors
    eigvals, eigh, eig = np.linalg.eigvals, np.linalg.eigh, np.linalg.eig
    size = []

    def refuse_dilation_size(solver):
        def guarded(a):
            assert a.shape[-1] != size[0], "eigenvectors of the dilation were computed"
            return solver(a)

        return guarded

    monkeypatch.setattr(np.linalg, "eigh", refuse_dilation_size(eigh))
    monkeypatch.setattr(np.linalg, "eig", refuse_dilation_size(eig))
    rng = np.random.default_rng(41)
    for n, m in ((1, 3), (3, 8), (8, 24)):
        for t in (random_contraction(rng, n), normal_contraction(rng, n)):
            d = finite_schaffer_dilation(t, m)
            size[:] = [m * n]
            got, want = d.eigenphases(), phase_clusters(eigvals(d.u.m))
            assert [k for _, k in got] == [k for _, k in want]
            assert max(abs(p - q) for (p, _), (q, _) in zip(got, want)) <= 1e-12


# ---------------------------------------------------------------------------
# normal contractions: n scalar dilations


def _first_psi(m):
    """The psi of an m-block dilation's first Cayley pole psi + pi: mid-way between two m-th roots of unity."""
    return np.pi / m if m % 2 == 0 else 0.0


def _special_tau(m):
    """Unimodular values, a repeated one, zero, and -exp(i psi), which puts an
    eigenvalue of the scalar m-block dilation on the pole of the first Cayley try."""
    return np.array([1.0, 1j, -1.0, 0.0, 0.5, 0.5, -0.3 + 0.4j, -np.exp(1j * _first_psi(m))])


def _recording_shifted_inverse(monkeypatch, record):
    build = dilation.FiniteDilation.shifted_inverse
    monkeypatch.setattr(dilation.FiniteDilation, "shifted_inverse", lambda d, a: record(d, a) or build(d, a))


def _normal_route_solves(monkeypatch):
    """Record the Julia block shapes and block counts shifted_inverse builds from, so a test sees which route ran."""
    shapes = []
    _recording_shifted_inverse(monkeypatch, lambda d, a: shapes.append((d.julia.shape, d.m)))
    return shapes


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(3, 12), special=st.integers(0, 8))
def test_normal_dilation_eigenphases_match_eigvals(seed, n, m, special):
    rng = np.random.default_rng(seed)
    tau = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    k = min(special, n)
    tau[:k] = rng.choice(_special_tau(m), size=k)
    d = finite_schaffer_dilation(normal_contraction(rng, n, tau), m)
    normal = d.normal_form
    assert normal is not None and normal.certificate <= linalg._SKEW_TOL
    assert np.abs(np.subtract.outer(normal.tau, tau)).min(axis=0).max() <= 1e-12
    assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-10)


def test_normal_dilation_takes_n_scalar_dilations(monkeypatch):
    shapes = _normal_route_solves(monkeypatch)
    rng = np.random.default_rng(12)
    for n, m in ((1, 3), (4, 7), (8, 24)):
        d = finite_schaffer_dilation(normal_contraction(rng, n), m)
        shapes.clear()
        assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-12)
        assert shapes and set(shapes) == {((n, 2, 2), m)}


@pytest.mark.parametrize("m", [8, 9])
def test_normal_dilation_with_a_pole_on_a_scalar_moves_the_stacks_pole(monkeypatch, m):
    # -exp(i psi) is an eigenvalue of its own scalar dilation and sits on the
    # first try's pole: the retry solves the whole stack again, every member
    # at one second pole
    shifts = []
    _recording_shifted_inverse(monkeypatch, lambda d, a: shifts.append((d.julia.shape, a)))
    tau = np.array([0.3, -np.exp(1j * _first_psi(m)), 0.6j])
    d = finite_schaffer_dilation(normal_contraction(np.random.default_rng(5), 3, tau), m)
    assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-10)
    assert [shape for shape, _ in shifts] == [(3, 2, 2)] * 2
    (_, first), (_, second) = shifts
    assert first == np.exp(-1j * _first_psi(m))
    assert np.ndim(second) == 0 and abs(second - first) > 1e-3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(3, 24),
    kind=st.sampled_from(["normal", "non-normal", "strictly upper-triangular"]),
    norm=st.floats(0.0, 1.0 - 1e-6),
)
def test_dilation_phases_sit_near_the_mth_roots_and_the_first_pole_between_them(seed, n, m, kind, norm):
    # every phase theta of the m-block dilation of T obeys
    # dist(m theta, 2 pi Z) <= 2 arcsin ||T||, and the first pole is mid-way
    # between two m-th roots, so the first try's |a| is at most
    # cot((pi - 2 arcsin ||T||)/(2 m)); equality for T = 0
    rng = np.random.default_rng(seed)
    if kind == "normal":
        g = normal_contraction(rng, n).m
    else:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "strictly upper-triangular":
            g = np.triu(g, 1)
    size = operator_norm(g)
    d = finite_schaffer_dilation(Contraction(g * (norm / size) if size > 0 else g), m)
    spread = 2.0 * np.arcsin(operator_norm(d.julia[n:, :n]))
    theta = np.angle(np.linalg.eigvals(d.u.m))
    assert np.abs(np.angle(np.exp(1j * m * theta))).max() <= spread + 1e-9
    tries, solve = [], linalg._cayley_solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_cayley_solve", lambda *args: tries.append(solve(*args)) or tries[-1])
        d.eigenphases()
    assert tries[0].pole <= (1.0 + 1e-9) / np.tan((np.pi - spread) / (2 * m))


def test_scalar_julia_stack_is_complex_symmetric_until_a_member_is_perturbed():
    rng = np.random.default_rng(6)
    tau = np.r_[np.sqrt(rng.uniform(0.0, 1.0, 5)) * np.exp(2j * np.pi * rng.uniform(size=5)), 1.0, 0.0]
    c = linalg.defect_values(np.abs(tau), 1)
    julia = np.stack([np.stack([c, -tau.conj()], -1), np.stack([tau, c], -1)], -2)
    assert dilation.FiniteDilation(julia, 7).complex_symmetric
    # a 2 x 2 Julia block obeys J^T = S J S exactly when its diagonal entries agree
    julia[3, 0, 0] += 1e-9
    assert not dilation.FiniteDilation(julia, 7).complex_symmetric


def test_normal_dilation_whose_stacked_solve_is_refused_reads_u_once(monkeypatch):
    # only linalg's skew tolerance drops, so the certificate still picks the
    # stack and the Cayley solve refuses it; the fallback is one dense eigvals
    # of u, not one per scalar member
    shapes = _normal_route_solves(monkeypatch)
    reads, build = [], dilation.FiniteDilation.u.func
    monkeypatch.setattr(dilation.FiniteDilation, "u", property(lambda d: reads.append(d.julia.shape) or build(d)))
    monkeypatch.setattr(linalg, "_SKEW_TOL", -1.0)
    rng = np.random.default_rng(13)
    for n, m in ((1, 3), (4, 7), (8, 24)):
        d = finite_schaffer_dilation(normal_contraction(rng, n), m)
        shapes.clear()
        reads.clear()
        got = d.eigenphases()
        assert reads == [(2 * n, 2 * n)]
        assert set(shapes) == {((n, 2, 2), m)}
        assert_phases_match(got, phase_clusters(np.linalg.eigvals(build(d).m)), 1e-12)


def test_nearly_normal_dilation_fails_the_certificate_and_still_matches(monkeypatch):
    shapes = _normal_route_solves(monkeypatch)
    rng = np.random.default_rng(21)
    for n, m in ((2, 5), (4, 8), (6, 12)):
        t = normal_contraction(rng, n, 0.9 * rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        kick = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = finite_schaffer_dilation(Contraction(t.m + 1e-6 * kick / np.linalg.norm(kick)), m)
        # the cheap test already refuses it; the certificate itself would too
        assert d.normal_form is None
        assert dilation.normal_diagonal(d.julia).certificate > 1e-9
        shapes.clear()
        assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-10)
        assert set(shapes) == {((2 * n, 2 * n), m)}


def test_normal_dilation_whose_eigh_mixes_eigenvectors_fails_the_certificate(monkeypatch):
    # tau_1 - tau_0 along psi - i gives H + psi K a double eigenvalue, so eigh
    # returns some basis of that plane and Q* T Q is not diagonal; the
    # certificate then sends the solve to the Julia block
    shapes = _normal_route_solves(monkeypatch)
    q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
    tau = np.array([0.2 + 0.1j, 0.2 + 0.1j + 0.3 * (linalg._PSI - 1j) / abs(linalg._PSI - 1j), -0.5])
    d = finite_schaffer_dilation(Contraction((q * tau) @ q.conj().T), 6)
    assert d.normal_form.certificate > 1e-9
    assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-10)
    assert set(shapes) == {((6, 6), 6)}


def test_schrodinger_free_operator_never_builds_its_dilation_inverse(monkeypatch):
    shapes = _normal_route_solves(monkeypatch)
    for n in (3, 8, 24):
        x = np.linspace(-8.0, 8.0, n)
        l0, _ = discrete_schrodinger_pair(np.exp(-x * x) * (0.5 + 1j), float(x[1] - x[0]))
        d = finite_schaffer_dilation(cayley(l0), 24)
        shapes.clear()
        d.eigenphases()
        assert d.normal_form.certificate <= linalg._SKEW_TOL
        assert shapes and set(shapes) == {((n, 2, 2), 24)}


def test_unit_singular_values_reach_the_fold_and_the_normal_route(monkeypatch):
    # a singular value within n eps of 1 has defect exactly 0, so D_T keeps
    # the symmetry and the normality of T
    shapes = _normal_route_solves(monkeypatch)
    solves = _recording_solves(monkeypatch)
    rng = np.random.default_rng(17)
    for n, m in ((3, 6), (4, 9)):
        d = finite_schaffer_dilation(symmetric_contraction(rng, n, [1.0, 1.0] + [0.5] * (n - 2)), m)
        assert d.normal_form is None and d.complex_symmetric
        solves.clear()
        assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-10)
        assert set(solves) == {np.dtype(np.float64)}
        tau = np.r_[np.exp(1j * rng.uniform(0.0, 6.0, 2)), [0.5] * (n - 2)]
        d = finite_schaffer_dilation(normal_contraction(rng, n, tau), m)
        assert d.normal_form.certificate <= linalg._SKEW_TOL
        shapes.clear()
        assert_phases_match(d.eigenphases(), phase_clusters(np.linalg.eigvals(d.u.m)), 1e-10)
        assert set(shapes) == {((n, 2, 2), m)}


def test_one_buffer_cayley_matrix_matches_the_kron_build_bitwise(monkeypatch):
    def kron_build(d, alpha):
        n, m = d.n, d.m
        powers = (-complex(alpha)) ** np.arange(m - 1)
        swapped = np.roll(d.julia, n, axis=0)
        lhs = np.eye(2 * n) + alpha * swapped * np.repeat([1.0, powers[-1]], n)
        s = np.linalg.solve(lhs, np.hstack([np.eye(2 * n), -alpha * swapped[:, n:]]))
        edge = np.hstack([s[:, :n], np.kron(powers[:-1], s[:, 2 * n :]), s[:, n : 2 * n]])
        j, k = np.ogrid[:m, :m]
        toeplitz = np.where((1 <= j) & (j <= k) & (k < m - 1), powers[np.clip(k - j, 0, m - 2)], 0)
        x = np.kron(toeplitz, np.eye(n))
        x[:n] = edge[:n]
        rows = x[n:].reshape(m - 1, n, -1)
        rows += powers[::-1, None, None] * edge[n:]
        a = 2j * x
        a[np.diag_indices_from(a)] -= 1j
        h = a.conj().T
        h += a
        h *= 0.5
        return h

    handed = []
    solve = linalg.hermitian_values
    monkeypatch.setattr(linalg, "hermitian_values", lambda a: handed.append(a.copy()) or solve(a))
    rng = np.random.default_rng(55)
    # sizes on both sides of one strip of the in-place Hermitian part
    for n, m in ((2, 5), (3, 24), (24, 24)):
        d = finite_schaffer_dilation(random_contraction(rng, n), m)
        handed.clear()
        d.eigenphases()
        want = kron_build(d, np.exp(-1j * _first_psi(m)))
        assert np.array_equal(np.tril(handed[0]), np.tril(want))


def test_dilation_build_keeps_only_the_blocks():
    t = random_contraction(np.random.default_rng(3), 3)
    d = finite_schaffer_dilation(t, 24)
    assert "u" not in vars(d)
    assert d.julia.shape == (6, 6)
    assert isinstance(d.m, int) and isinstance(d.n, int)


# ---------------------------------------------------------------------------
# pairs


def test_pair_equal_contractions():
    rng = np.random.default_rng(2)
    t = random_contraction(rng, 2)
    d0, d1 = dilation_pair(t, t, 5)
    assert np.linalg.norm(d1.u.m - d0.u.m) == 0.0


def test_pair_scalar_trace_norm_oracle():
    t0 = Contraction(np.zeros((1, 1)))
    t1 = Contraction(np.array([[0.5]]))
    d0, d1 = dilation_pair(t0, t1, 4)
    # J(1/2) - J(0) = [[a, -1/2], [1/2, a]] with a = sqrt(3)/2 - 1 is normal,
    # both singular values equal sqrt(a^2 + 1/4)
    a = np.sqrt(3) / 2 - 1.0
    expected = 2.0 * np.sqrt(a * a + 0.25)
    assert schatten_norm(d1.u.m - d0.u.m, 1) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.035276180410083, abs=1e-14)


def test_pair_support_pattern_seed31():
    rng = np.random.default_rng(31)
    t0 = random_contraction(rng, 3)
    t1 = random_contraction(rng, 3)
    d0, d1 = dilation_pair(t0, t1, 6)
    diff = d1.u.m - d0.u.m
    n, m = 3, 6
    mask = np.ones_like(diff, dtype=bool)
    for bi in (0, m - 1):
        for bj in (0, 1):
            mask[bi * n : (bi + 1) * n, bj * n : (bj + 1) * n] = False
    assert np.max(np.abs(diff[mask])) <= 1e-14


def test_pair_trace_norm_matches_julia_difference():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 8))
        t0 = random_contraction(rng, n)
        t1 = random_contraction(rng, n)
        d0, d1 = dilation_pair(t0, t1, m)
        lhs = schatten_norm(d1.u.m - d0.u.m, 1)
        rhs = schatten_norm(julia_block(t1).m - julia_block(t0).m, 1)
        assert abs(lhs - rhs) <= 1e-10


def test_pair_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        dilation_pair(Contraction(np.zeros((2, 2))), Contraction(np.zeros((3, 3))), 4)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        dilation_pair(np.zeros((2, 2)), [[0.5]], 4)


def test_pair_takes_arrays_and_lists_as_contractions():
    built = dilation_pair(Contraction(0.5 * np.eye(2)), Contraction(0.25 * np.eye(2)), 4)
    for t0, t1 in ((0.5 * np.eye(2), 0.25 * np.eye(2)), ([[0.5, 0.0], [0.0, 0.5]], [[0.25, 0], [0, 0.25]])):
        for d, ref in zip(dilation_pair(t0, t1, 4), built):
            assert (d.m, d.n) == (ref.m, ref.n) and np.array_equal(d.u.m, ref.u.m)
    with pytest.raises(ValidationError):
        dilation_pair(2.0 * np.eye(2), np.eye(2), 4)


# ---------------------------------------------------------------------------
# trace identity range


def test_trace_identity_up_to_m_minus_2():
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 9))
        t0 = random_contraction(rng, n)
        t1 = random_contraction(rng, n)
        d0, d1 = dilation_pair(t0, t1, m)
        for k in range(1, m - 1):
            lhs = np.trace(np.linalg.matrix_power(d1.u.m, k)) - np.trace(
                np.linalg.matrix_power(d0.u.m, k)
            )
            rhs = np.trace(np.linalg.matrix_power(t1.m, k)) - np.trace(
                np.linalg.matrix_power(t0.m, k)
            )
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def _trace_poly_passes(t0, t1, m):
    """Pass or fail of record trace-poly-{k-1}, for k = 1 .. m + 2, in a contraction_pair report
    on (t0, t1) at m blocks with test polynomials z, ..., z^(m+2)."""
    report = run_scenario(parse_scenario({
        "name": "degree-budget",
        "kind": "contraction_pair",
        "matrices": [[[[z.real, z.imag] for z in row] for row in t.tolist()] for t in (t0, t1)],
        "dilation_order": m,
        "test_polynomials": [[0] * k + [1] for k in range(1, m + 3)],
    }))
    passed = {r.check_id: r.passed for r in report.records}
    return [passed[f"trace-poly-{k - 1}"] for k in range(1, m + 3)]


@pytest.mark.parametrize("seed", range(8))
def test_a_generic_pairs_report_holds_the_trace_identity_exactly_to_degree_m_minus_2(seed):
    # the wrap-around term generically spoils k = m - 1
    rng = np.random.default_rng(700 + seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(3, 23))
    if seed == 0:
        # the scalar dilation of a strict contraction: trace(U^k) = trace(T^k) only for k <= 3 at m = 5
        pair, m = (np.zeros((1, 1)), np.array([[0.5]])), 5
    else:
        pair = (random_contraction(rng, n).m, random_contraction(rng, n).m)
    assert _trace_poly_passes(*pair, m)[: m - 1] == [True] * (m - 2) + [False]


@pytest.mark.parametrize("seed", range(8))
def test_a_nilpotent_pairs_report_holds_the_trace_identity_one_degree_past_m_minus_2(seed):
    # T0 = 0 with T1 strictly upper triangular: the wrap-around vanishes at k = m - 1, and at
    # k = m the block shift of T0's dilation closes its cycle, tr U0^m = m n
    rng = np.random.default_rng(800 + seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(3, 23))
    u = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    passes = _trace_poly_passes(np.zeros((n, n)), 0.9 * u / (operator_norm(u) + 0.1), m)
    assert passes[:m] == [True] * (m - 1) + [False]


def test_default_block_count():
    assert default_block_count(5) == 8
    assert default_block_count(0) == 3
