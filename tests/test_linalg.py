from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssflab.errors import (
    IndefiniteInput,
    InvalidExponent,
    KernelViolation,
    NotHermitian,
    OnePointSpectrum,
    ValidationError,
)
from ssflab.linalg import (
    Contraction,
    _cluster_circle,
    Dissipative,
    PsdContraction,
    Unitary,
    analytic_poly_eval,
    as_matrix,
    cayley,
    defect_operators,
    eigenphases,
    hermitian_power,
    hermitian_sqrt,
    hermitize,
    inverse_cayley,
    operator_norm,
    phase_clusters,
    polar_factors,
    poly_scalar,
    schatten_norm,
    singular_value_commute_check,
    unitary_spectrum,
    weighted_norm,
)

TWO_PI = 2.0 * np.pi


def random_contraction(rng, n, scale=0.9):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return Contraction(scale * g / (operator_norm(g) + 0.1))


def random_unitary(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    return Unitary(q * (np.diag(r) / np.abs(np.diag(r))))


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_dissipative(rng, n):
    h = random_hermitian(rng, n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Dissipative(h + 1j * (g @ g.conj().T) / n)


# ---------------------------------------------------------------------------
# hermitian_sqrt / hermitian_power


def test_sqrt_diagonal_oracle():
    r = hermitian_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-14)


def test_sqrt_two_by_two_frozen():
    # eigenpairs of [[2,1],[1,2]] are (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = np.array(
        [
            [1.3660254037844386, 0.3660254037844386],
            [0.3660254037844386, 1.3660254037844386],
        ]
    )
    assert np.allclose(hermitian_sqrt(a), expected, atol=1e-14)


def test_sqrt_squares_back():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g @ g.conj().T
        r = hermitian_sqrt(a)
        assert np.linalg.norm(r @ r - a) <= 1e-11 * (1 + np.linalg.norm(a))
        assert np.linalg.norm(r - r.conj().T) == 0.0


def test_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_clamps_tiny_negative_but_rejects_indefinite():
    assert np.allclose(hermitian_sqrt(np.diag([-1e-9, 1.0])), np.diag([0.0, 1.0]))
    with pytest.raises(IndefiniteInput):
        hermitian_sqrt(np.diag([-1.0, 1.0]))


def test_power_scalar_oracles():
    assert np.allclose(hermitian_power(np.diag([0.25]), -0.5), [[2.0]])
    assert np.allclose(hermitian_power(np.diag([0.25, 4.0]), 0.5), np.diag([0.5, 2.0]))


def test_power_kernel_floor():
    with pytest.raises(KernelViolation):
        hermitian_power(np.diag([0.0, 1.0]), -0.5)


def test_power_matches_eig_route():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = g @ g.conj().T / 5 + 0.1 * np.eye(5)
        w, v = np.linalg.eigh(a)
        for p in (0.5, 0.3, -0.25, 2.0):
            direct = (v * w**p) @ v.conj().T
            assert np.linalg.norm(hermitian_power(a, p) - direct) <= 1e-12 * np.linalg.norm(direct)


def _psd_with_kernel(rng, n, kernel):
    """An exactly Hermitian V diag(w) V* whose first `kernel` eigenvalues are 0 and the rest in [1e-3, 1]."""
    w = rng.uniform(1e-3, 1.0, n)
    w[:kernel] = 0.0
    v = random_unitary(rng, n).m
    return hermitize((v * w) @ v.conj().T)


def _unless_kernel(f):
    try:
        return f()
    except KernelViolation:
        return None


_EXPONENTS = st.one_of(st.sampled_from([-0.0, 0.0, -1.0, -0.5]), st.floats(-1.0, 0.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    exponents=st.tuples(_EXPONENTS, _EXPONENTS),
    kernels=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_weighted_norm_is_the_norm_of_the_matrix_powers(seed, n, p, exponents, kernels):
    # -0.0 is no inverse power, so a kernel passes it on both sides
    rng = np.random.default_rng(seed)
    a, b = (_psd_with_kernel(rng, n, min(k, n)) for k in kernels)
    delta = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    got = _unless_kernel(lambda: weighted_norm(np.linalg.eigh(a), delta, np.linalg.eigh(b), exponents, p))
    want = _unless_kernel(
        lambda: schatten_norm(hermitian_power(a, exponents[0]) @ delta @ hermitian_power(b, exponents[1]), p)
    )
    assert (got is None) == (want is None)
    if got is not None:
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# norms


def test_schatten_oracles():
    a = np.diag([3.0, 4.0])
    assert schatten_norm(a, 1) == pytest.approx(7.0, abs=1e-14)
    assert schatten_norm(a, 2) == pytest.approx(5.0, abs=1e-14)
    assert schatten_norm(a, 4) == pytest.approx((3.0**4 + 4.0**4) ** 0.25, abs=1e-14)
    assert operator_norm(a) == pytest.approx(4.0, abs=1e-14)


def test_schatten_rejects_quasinorm():
    with pytest.raises(InvalidExponent):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_monotone_in_p():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        norms = [schatten_norm(a, p) for p in (1, 1.5, 2, 3, 7)]
        assert all(x >= y - 1e-12 for x, y in zip(norms, norms[1:]))
        assert norms[-1] >= operator_norm(a) - 1e-12


# ---------------------------------------------------------------------------
# eigenphases


def test_eigenphases_oracle():
    got = eigenphases(np.diag([1.0, 1j]))
    assert len(got) == 2
    assert got[0][0] == pytest.approx(np.pi / 2, abs=1e-14)
    assert got[0][1] == 1
    assert got[1][0] == pytest.approx(TWO_PI, abs=1e-14)
    assert got[1][1] == 1


def test_eigenphases_merge_across_seam():
    u = np.diag(np.exp(1j * np.array([TWO_PI - 5e-10, 5e-10, 0.0])))
    got = eigenphases(u)
    assert len(got) == 1
    phase, mult = got[0]
    assert mult == 3
    assert phase == pytest.approx(TWO_PI, abs=2e-9)


def test_eigenphases_multiplicity():
    u = np.diag([1j, 1j, -1.0])
    got = eigenphases(u)
    assert [m for _, m in got] == [2, 1]
    assert got[0][0] == pytest.approx(np.pi / 2, abs=1e-14)
    assert got[1][0] == pytest.approx(np.pi, abs=1e-14)


def test_eigenphases_total_multiplicity_and_range():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        u = random_unitary(rng, n)
        got = eigenphases(u)
        assert sum(m for _, m in got) == n
        for p, _ in got:
            assert 0.0 < p <= TWO_PI
        phases = [p for p, _ in got]
        assert phases == sorted(phases)


# The eigenphase route (eigvalsh of the Cayley transform of e^(-i phi) U, with
# the pole moved off an eigenvalue) against dense eigvals as the oracle, on
# unitaries with planted structure.

_PHI = 0.5 * np.pi * (np.sqrt(5.0) - 1.0)  # the rotation unitary_spectrum uses
_POLE = _PHI + np.pi  # where its Cayley transform has its pole


def _oracle(u):
    return phase_clusters(np.linalg.eigvals(u))


def _assert_matches_oracle(u):
    got, want = eigenphases(u), _oracle(u)
    assert [k for _, k in got] == [k for _, k in want]
    for (p, _), (q, _) in zip(got, want):
        d = abs(p - q)
        assert min(d, TWO_PI - d) <= 1e-12


def _haar(seed, n, real=False):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _planted(seed, phases):
    q = _haar(seed, len(phases))
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


_seeds = st.integers(0, 2**32 - 1)
_angles = st.floats(0.0, TWO_PI, allow_nan=False)


def _clear_of_the_cluster_thresholds(phases, tol=1e-9, margin=1e-12):
    """No phase within margin of tol from the 0/2pi seam, and no gap within margin of tol.

    At such a threshold the clustering of a float64 spectrum is decided by
    rounding: for the phases [_PHI, 1e-9] dense eigvals puts the small one at
    1.00000008e-9 while the matrix has it at 9.99999984e-10 (40 digits), and
    any float64 solver lands on either side.
    """
    p = np.sort(np.mod(phases, TWO_PI))
    gaps = np.diff(p, append=p[0] + TWO_PI)
    return not np.any(np.abs(np.concatenate((gaps, p, TWO_PI - p)) - tol) < margin)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, distinct=st.lists(_angles, min_size=1, max_size=4), mults=st.data())
def test_eigenphases_exact_multiplicities(seed, distinct, mults):
    distinct = sorted(set(round(a, 3) for a in distinct))
    counts = [mults.draw(st.integers(1, 4)) for _ in distinct]
    _assert_matches_oracle(_planted(seed, np.repeat(distinct, counts)))


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, angles=st.lists(st.floats(0.01, np.pi - 0.01), min_size=1, max_size=5),
       signs=st.lists(st.sampled_from([1.0, -1.0]), max_size=3))
def test_eigenphases_conjugate_pairs_of_real_orthogonal_matrices(seed, angles, signs):
    n = 2 * len(angles) + len(signs)
    blocks = np.zeros((n, n))
    for j, a in enumerate(angles):
        c, s = np.cos(a), np.sin(a)
        blocks[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
    for j, sign in enumerate(signs):
        blocks[2 * len(angles) + j, 2 * len(angles) + j] = sign
    q = _haar(seed, n, real=True)
    u = q @ blocks @ q.T
    assert np.isrealobj(u)
    _assert_matches_oracle(u)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, others=st.lists(_angles, max_size=8), copies=st.integers(1, 3))
@example(seed=0, others=[0.5e-9], copies=1)  # snaps to the seam
@example(seed=0, others=[2e-9], copies=1)  # stays apart from it
def test_eigenphases_with_an_eigenvalue_at_the_rotation_angle(seed, others, copies):
    assume(_clear_of_the_cluster_thresholds([_PHI] + others))
    _assert_matches_oracle(_planted(seed, [_PHI] * copies + others))


def _counting_inverse(u, fail_first=False, nan=False):
    """shifted_inverse of a dense u that counts its calls and can raise on the first, or put a NaN in each inverse."""
    def shifted_inverse(alpha):
        shifted_inverse.calls += 1
        if fail_first and shifted_inverse.calls == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        out = np.linalg.inv(np.eye(len(u)) + alpha * u)
        if nan:
            out[-1, 0] = np.nan
        return out

    shifted_inverse.calls = 0
    return shifted_inverse


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, offset=st.sampled_from([0.0, 1e-6, -1e-6]), others=st.lists(_angles, max_size=8),
       copies=st.integers(1, 2))
def test_eigenphases_with_an_eigenvalue_at_or_near_the_pole(seed, offset, others, copies):
    # |tan| of the pole eigenvalue is 1e16 or 2e6, far past the limit, so
    # the solve runs again with the pole in the widest gap
    assume(_clear_of_the_cluster_thresholds([_POLE + offset] + others))
    u = _planted(seed, [_POLE + offset] * copies + others)
    _assert_matches_oracle(u)
    shifted_inverse = _counting_inverse(u)
    lam = unitary_spectrum(shifted_inverse, lambda: u)
    assert shifted_inverse.calls == 2
    assert phase_clusters(lam) == [(p, k) for p, k in eigenphases(u)]


def test_unitary_spectrum_reads_the_dense_matrix_when_the_shift_is_singular():
    u = _haar(11, 5)
    shifted_inverse = _counting_inverse(u, fail_first=True)
    dense_calls = []
    lam = unitary_spectrum(shifted_inverse, lambda: dense_calls.append(1) or u)
    assert shifted_inverse.calls == 1 and len(dense_calls) == 1
    got = phase_clusters(lam)
    want = _oracle(u)
    assert [k for _, k in got] == [k for _, k in want]
    assert max(abs(p - q) for (p, _), (q, _) in zip(got, want)) <= 1e-12


def test_unitary_spectrum_reads_the_dense_matrix_when_the_skew_is_not_finite():
    # a NaN in the inverse makes the skew of A non-finite: no phase of its eigvalsh can be trusted
    u = _haar(11, 5)
    shifted_inverse = _counting_inverse(u, nan=True)
    dense_calls = []
    lam = unitary_spectrum(shifted_inverse, lambda: dense_calls.append(1) or u)
    assert shifted_inverse.calls == 1 and len(dense_calls) == 1
    assert phase_clusters(lam) == _oracle(u)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, offsets=st.lists(st.floats(-1e-10, 1e-10), min_size=2, max_size=5),
       others=st.lists(st.floats(0.1, TWO_PI - 0.1), max_size=6))
def test_eigenphases_tight_clusters_across_the_seam(seed, offsets, others):
    u = _planted(seed, list(offsets) + others)
    got = eigenphases(u)
    _assert_matches_oracle(u)
    seam = [(p, k) for p, k in got if p == TWO_PI]
    assert seam and seam[0][1] == len(offsets)


def _mirrored_triangular(offset, delta=5e-11):
    """Upper-triangular near-unitary whose phases sum to 2 phi + offset."""
    a, b = _PHI + 0.3, _PHI - 0.3 + offset
    return np.array([[np.exp(1j * a), delta], [0.0, np.exp(1j * b)]])


@pytest.mark.parametrize("offset", [1e-2, 1e-3, 1e-4])
def test_eigenphases_of_a_validated_non_normal_unitary_match_the_oracle(offset):
    # Unitary accepts a defect up to 1e-10; this one is not normal, and its
    # phases are nearly mirrored about phi
    u = _mirrored_triangular(offset)
    assert 5e-11 < np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10
    _assert_matches_oracle(Unitary(u).m)
    got = eigenphases(u)
    assert [p for p, _ in got] == pytest.approx([_PHI - 0.3 + offset, _PHI + 0.3], abs=1e-15)


def test_eigenphases_of_a_non_unitary_matrix_fall_back_to_eigvals():
    _assert_matches_oracle(np.array([[1.0, 1.0], [0.0, 1j]]))


def test_unitary_spectrum_reads_the_dense_matrix_only_when_the_certificate_fails():
    def dense_of(m):
        def dense():
            dense.calls += 1
            return m

        dense.calls = 0
        return dense

    # a validated non-normal unitary with a phase 0.01 from the pole: the
    # skew 2i X*(I - U*U)X of the Cayley transform is above 1e-9
    near_pole = np.array([[np.exp(1j * (_POLE - 0.01)), 5e-11], [0.0, np.exp(1j * (_PHI + 0.4))]])
    assert np.linalg.norm(near_pole.conj().T @ near_pole - np.eye(2)) < 1e-10
    for m, calls in ((_haar(5, 6), 0), (near_pole, 1)):
        dense = dense_of(m)
        lam = unitary_spectrum(lambda a: np.linalg.inv(np.eye(len(m)) + a * m), dense)
        assert dense.calls == calls
        assert np.sort(np.angle(lam)) == pytest.approx(np.sort(np.angle(np.linalg.eigvals(m))), abs=1e-12)


def _cluster_circle_loop(phases, weights, tol):
    """The per-phase loop _cluster_circle replaced, kept as its oracle; also returns each group."""
    order = np.argsort(phases)
    groups, sums = [], []
    for p, w in zip(phases[order], weights[order]):
        if groups and p - groups[-1][-1] < tol:
            groups[-1].append(float(p))
            sums[-1] += w
        else:
            groups.append([float(p)])
            sums.append(w)
    if len(groups) > 1 and (groups[0][0] + TWO_PI - groups[-1][-1]) < tol:
        first = groups.pop(0)
        sums[-1] += sums.pop(0)
        groups[-1].extend(p + TWO_PI for p in first)
    out = []
    for grp, w in zip(groups, sums):
        rep = float(np.mean(grp)) % TWO_PI
        out.append((TWO_PI if rep <= tol or rep >= TWO_PI - tol else rep, w, grp))
    # the groups snapped to the seam are one entry, its near-0 phases shifted by 2pi as in the wrap merge
    seam = [it for it in out if it[0] == TWO_PI]
    if len(seam) > 1:
        grp = [p + TWO_PI if p < np.pi else p for _, _, g in seam for p in g]
        out = [it for it in out if it[0] != TWO_PI] + [(TWO_PI, sum(w for _, w, _ in seam), grp)]
    out.sort(key=lambda it: it[0])
    return out


@settings(max_examples=200, deadline=None)
@given(
    centres=st.lists(st.one_of(_angles, st.sampled_from([1e-10, TWO_PI - 1e-10, TWO_PI])), max_size=6),
    spread=st.lists(st.tuples(st.floats(-3e-9, 3e-9), st.integers(-3, 3)), min_size=1, max_size=24),
    picks=st.data(),
)
def test_cluster_circle_matches_the_loop(centres, spread, picks):
    centres = centres or [1.0]
    where = [picks.draw(st.integers(0, len(centres) - 1)) for _ in spread]
    phases = np.array([centres[c] + d for c, (d, _) in zip(where, spread)]) % TWO_PI
    phases = np.where(phases <= 0.0, phases + TWO_PI, phases)
    weights = np.array([w for _, w in spread])
    got = _cluster_circle(phases, weights, 1e-9)
    want = _cluster_circle_loop(phases, weights, 1e-9)
    assert [w for _, w in got] == [w for _, w, _ in want]
    for (p, _), (q, _, grp) in zip(got, want):
        # np.mean in the loop rounds up to ~3 ulp off the exact mean of a
        # large group; the vectorised mean is within 1e-15 of the exact one
        exact = float(sum(Fraction(x) for x in grp) / len(grp)) % TWO_PI
        exact = TWO_PI if exact <= 1e-9 or exact >= TWO_PI - 1e-9 else exact
        assert abs(p - exact) <= 1e-15
        assert abs(p - q) <= 4e-15


# ---------------------------------------------------------------------------
# operator wrappers


def test_wrappers_validate():
    with pytest.raises(ValidationError):
        Unitary(1.1 * np.eye(2))
    with pytest.raises(ValidationError):
        Contraction(np.diag([1.5, 0.2]))
    with pytest.raises(ValidationError):
        Dissipative(np.array([[-1j]]))
    with pytest.raises(ValidationError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        as_matrix(np.array([[np.nan]]))


def test_psd_contraction_keeps_its_validation_and_one_read_only_eigh(monkeypatch):
    with pytest.raises(IndefiniteInput):
        PsdContraction(np.diag([-1e-9, 0.5]))
    with pytest.raises(ValidationError):
        PsdContraction(np.diag([0.5, 1.0 + 1e-9]))
    with pytest.raises(NotHermitian):
        PsdContraction(np.array([[0.5, 0.1], [0.0, 0.5]]))
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or eigh(a))
    x = PsdContraction(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    assert (x.n, x.min_eig) == (2, pytest.approx(0.25))
    assert np.array_equal(x.m, x.m.conj().T) and not x.m.flags.writeable
    # validation takes the one eigh; reading it takes no further call
    assert x.eigh is x.eigh and len(eighs) == 1
    assert not any(a.flags.writeable for a in x.eigh)
    np.testing.assert_allclose(x.eigh[0], [0.25, 0.75], atol=1e-15)
    assert PsdContraction(np.zeros((0, 0))).min_eig == 0.0


def test_dissipative_keeps_the_smallest_eigenvalue_of_its_imaginary_part(monkeypatch):
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or eigh(a))
    l = Dissipative(np.diag([1.0 + 2j, 3.0 + 0.5j]))
    assert l.imag_min == 0.5
    assert l.imag_min == float(np.linalg.eigvalsh(l.imag_part).min())
    # validation takes the one eigh of Im L, which it keeps read-only
    assert l.imag_eigh is l.imag_eigh and len(eighs) == 1
    assert not any(a.flags.writeable for a in l.imag_eigh)
    assert l.imag_min == l.imag_eigh[0][0]


def test_wrapper_matrices_frozen():
    c = Contraction(np.eye(2) * 0.5)
    with pytest.raises(ValueError):
        c.m[0, 0] = 1.0


def test_unitary_is_contraction():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 5)
        c = Contraction(u.m)
        assert abs(c.norm - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# defects and polar factors


def test_defect_scalar_oracles():
    pair = defect_operators(Contraction(np.array([[0.5]])))
    assert pair.d_t[0, 0] == pytest.approx(np.sqrt(3) / 2, abs=1e-15)
    assert pair.d_t_star[0, 0] == pytest.approx(np.sqrt(3) / 2, abs=1e-15)
    pair = defect_operators(Contraction(np.array([[0.6]])))
    assert pair.d_t[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_defect_identities():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        t = random_contraction(rng, n, scale=float(rng.uniform(0.2, 1.0)))
        d_t, d_ts = defect_operators(t)
        eye = np.eye(n)
        assert np.linalg.norm(d_t @ d_t - (eye - t.m.conj().T @ t.m)) <= 1e-13
        assert np.linalg.norm(d_ts @ d_ts - (eye - t.m @ t.m.conj().T)) <= 1e-13
        # intertwining, the reason the defects come from one svd
        assert np.linalg.norm(t.m @ d_t - d_ts @ t.m) <= 1e-13


def test_the_defect_pair_is_built_from_the_defect_eighs():
    rng = np.random.default_rng(11)
    for n in (1, 3, 6):
        t = random_contraction(rng, n)
        (c, v), (c_star, u) = t.defect_eighs
        assert t.defect_eighs is t.defect_eighs and c is c_star
        assert not any(a.flags.writeable for a in (c, v, u))
        d_t, d_ts = t.defects
        assert np.linalg.norm(d_t - (v * c) @ v.conj().T) <= 1e-15 * n
        assert np.linalg.norm(d_ts - (u * c) @ u.conj().T) <= 1e-15 * n
        assert np.allclose(u @ np.diag(np.sqrt(1.0 - c**2)) @ v.conj().T, t.m, atol=1e-14)


def test_a_contraction_validates_from_the_one_svd_its_defects_keep(monkeypatch):
    rng = np.random.default_rng(12)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = 0.9 * g / np.linalg.norm(g, 2)
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: calls.append(kwargs) or svd(a, *args, **kwargs))
    t = Contraction(m)
    defect_operators(t)
    # one full SVD: the norm validation reads and the defects are built from
    assert calls == [{}]
    assert t.norm == svd(m)[1][0] == pytest.approx(0.9, abs=1e-14)
    assert not t.defect_eighs[0][0].flags.writeable
    with pytest.raises(ValidationError):
        Contraction(m / 0.8)


def test_a_unitary_keeps_its_spectrum_and_eigenphases_reads_it(monkeypatch):
    u = random_unitary(np.random.default_rng(13), 6)
    spectrum = u.spectrum
    assert u.spectrum is spectrum and not spectrum.flags.writeable
    inv, solves = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: solves.append(a.shape) or inv(a))
    assert eigenphases(u) == phase_clusters(spectrum)
    assert solves == []
    # a plain matrix takes the same Cayley solve, bit for bit
    assert eigenphases(u.m) == eigenphases(u)
    assert solves == [(6, 6)]


def test_a_contraction_keeps_one_read_only_defect_pair():
    t = random_contraction(np.random.default_rng(5), 4)
    pair = defect_operators(t)
    assert defect_operators(t) is pair
    assert not pair.d_t.flags.writeable and not pair.d_t_star.flags.writeable


def test_defect_vanishes_on_unitary():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 6)
    d_t, d_ts = defect_operators(Contraction(u.m))
    assert np.linalg.norm(d_t) <= 1e-6
    assert np.linalg.norm(d_ts) <= 1e-6


def test_polar_oracle():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    pf = polar_factors(rot)
    assert np.allclose(pf.partial_isometry, rot, atol=1e-14)
    assert np.allclose(pf.modulus, np.eye(2), atol=1e-14)
    assert not pf.rank_deficient
    assert polar_factors(np.diag([3.0, 0.0])).rank_deficient


def test_polar_reconstructs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pf = polar_factors(a)
        assert np.linalg.norm(pf.partial_isometry @ pf.modulus - a) <= 1e-12 * (
            1 + np.linalg.norm(a)
        )
        eye = np.eye(n)
        assert np.linalg.norm(pf.partial_isometry.conj().T @ pf.partial_isometry - eye) <= 1e-13
        assert np.linalg.eigvalsh(pf.modulus).min() >= -1e-13


# ---------------------------------------------------------------------------
# polynomial calculus


def test_poly_eval_nilpotent_oracle():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    got = analytic_poly_eval(t, [1.0, 1.0, 1.0])
    assert np.allclose(got, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


def test_poly_eval_matches_powers():
    rng = np.random.default_rng(3)
    t = random_contraction(rng, 5)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    direct = sum(c * np.linalg.matrix_power(t.m, k) for k, c in enumerate(coeffs))
    assert np.linalg.norm(analytic_poly_eval(t, coeffs) - direct) <= 1e-12
    z = np.exp(1j * 0.7)
    assert poly_scalar(coeffs, z) == pytest.approx(
        sum(c * z**k for k, c in enumerate(coeffs)), abs=1e-13
    )


# ---------------------------------------------------------------------------
# Cayley transform


def test_cayley_scalar_oracle():
    t = cayley(Dissipative(np.array([[1.0 + 0j]])))
    assert isinstance(t, Contraction)
    assert t.m[0, 0] == pytest.approx(-1j, abs=1e-15)


def test_inverse_cayley_scalar_oracles():
    assert inverse_cayley(Contraction(np.zeros((1, 1)))).m[0, 0] == pytest.approx(1j, abs=1e-15)
    assert inverse_cayley(Contraction(np.array([[-1.0 + 0j]]))).m[0, 0] == pytest.approx(
        0.0, abs=1e-15
    )


def test_cayley_round_trip():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        l = random_dissipative(rng, n)
        t = cayley(l)
        back = inverse_cayley(t)
        assert np.linalg.norm(back.m - l.m) <= 1e-9 * (1 + np.linalg.norm(l.m))


def test_cayley_hermitian_gives_unitary():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 6)
        t = cayley(Dissipative(h))
        assert np.linalg.norm(t.m.conj().T @ t.m - np.eye(6)) <= 1e-9


def test_inverse_cayley_rejects_spectrum_at_one():
    with pytest.raises(OnePointSpectrum):
        inverse_cayley(Contraction(np.eye(2)))


# ---------------------------------------------------------------------------
# misc


def test_singular_value_commute_check():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        assert singular_value_commute_check(a, b) <= 1e-10 * (
            1 + operator_norm(a) * operator_norm(b)
        )
    with pytest.raises(NotHermitian):
        singular_value_commute_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
