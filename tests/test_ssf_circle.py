import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssflab.errors import EigenFailure, NearSingular, NonzeroWinding, ValidationError
from ssflab import linalg, ssf_circle
from ssflab.export import table_array
from ssflab.dilation import dilation_pair
from ssflab.linalg import (
    Contraction,
    Dissipative,
    Unitary,
    _cluster_circle,
    analytic_poly_eval,
    hermitian_power,
    operator_norm,
    schatten_norm,
    unitary_factor,
)
from ssflab.scenario import generate_scenario, parse_scenario, run_scenario
from ssflab.schrodinger import Grid1D
from ssflab.ssf_circle import (
    RealSsfConditions,
    SampledSSF,
    StepSSF,
    _step_ssf,
    contraction_ssf,
    determinant_ssf,
    dilation_ssf,
    hardy_gauge_check,
    perturbation_determinant,
    real_ssf_conditions_report,
    sampled_trace_integral,
    ssf_trace_integral,
    step_vs_sampled_max_deviation,
    unitary_ssf,
)
from ssflab.ssf_line import dissipative_ssf, weighted_abs_integral

TWO_PI = 2.0 * np.pi


def random_unitary(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    return Unitary(q * (np.diag(r) / np.abs(np.diag(r))))


def random_contraction(rng, n, scale=None):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    s = scale if scale is not None else float(rng.uniform(0.3, 1.0))
    return Contraction(s * g / (operator_norm(g) + 0.1))


def trace_diff(f, a, b):
    return complex(np.trace(analytic_poly_eval(b, f)) - np.trace(analytic_poly_eval(a, f)))


# ---------------------------------------------------------------------------
# step SSF for unitary pairs


def test_unitary_ssf_equal_pair():
    rng = np.random.default_rng(0)
    u = random_unitary(rng, 4)
    ssf = unitary_ssf(u, u)
    assert ssf.jumps == ()
    assert ssf.gauge == 0.0
    assert ssf.value(1.0) == 0.0


def test_unitary_ssf_scalar_hand_computed():
    ssf = unitary_ssf(np.array([[1.0 + 0j]]), np.array([[1j]]))
    assert len(ssf.jumps) == 2
    (th0, s0), (th1, s1) = ssf.jumps
    assert th0 == pytest.approx(np.pi / 2, abs=1e-14) and s0 == -1
    assert th1 == pytest.approx(TWO_PI, abs=1e-14) and s1 == 1
    assert ssf.gauge == pytest.approx(0.75, abs=1e-14)
    assert ssf.value(np.pi / 4) == pytest.approx(0.75, abs=1e-14)
    # jump position itself already carries the jump
    assert ssf.value(np.pi / 2) == pytest.approx(-0.25, abs=1e-14)
    assert ssf.value(5.0) == pytest.approx(-0.25, abs=1e-14)


def test_unitary_ssf_seed37_trace_formula():
    rng = np.random.default_rng(37)
    u0 = random_unitary(rng, 4)
    u1 = random_unitary(rng, 4)
    ssf = unitary_ssf(u0, u1)
    assert int(np.sum(ssf.sizes)) == 0
    for f in ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]):
        got = ssf_trace_integral(ssf, f)
        want = trace_diff(f, u0, u1)
        assert abs(got - want) <= 1e-10


def test_unitary_ssf_zero_mean():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        ssf = unitary_ssf(random_unitary(rng, n), random_unitary(rng, n))
        # closed form for the mean of the step function over (0, 2pi]
        mean = ssf.gauge + float(np.sum(ssf.sizes * (TWO_PI - ssf.thetas))) / TWO_PI
        assert abs(mean) <= 1e-12


def test_unitary_ssf_coincident_phases_cancel():
    d = np.diag([1j, np.exp(0.3j)])
    ssf = unitary_ssf(d, np.diag([1j, np.exp(1.1j)]))
    # the shared eigenvalue 1j drops out
    assert [s for _, s in ssf.jumps] == [1, -1]
    assert ssf.jumps[0][0] == pytest.approx(0.3, abs=1e-12)
    assert ssf.jumps[1][0] == pytest.approx(1.1, abs=1e-12)


# ---------------------------------------------------------------------------
# step SSF evaluation and its export table


@st.composite
def step_ssfs(draw):
    """Random StepSSF: 0-40 jumps, optionally one at exactly 2pi, integer sizes summing to 0."""
    n = draw(st.sampled_from([0, *range(2, 41)]))
    at_seam = n > 0 and draw(st.booleans())
    inner = st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True)
    thetas = sorted(draw(st.lists(inner, min_size=n - at_seam, max_size=n - at_seam, unique=True)))
    thetas += [TWO_PI] * at_seam
    sizes = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    if n and sum(sizes) == 0:
        sizes[0] += 1 if sizes[0] != -1 else -1
    sizes += [-sum(sizes)] * (n > 0)
    gauge = draw(st.floats(-10.0, 10.0))
    return StepSSF(jumps=tuple(zip(thetas, sizes)), gauge=gauge)


def _step_circle_rows_per_segment(step):
    """The per-segment circle table, one value() call per row."""
    bounds = [0.0] + [float(t) for t in step.thetas]
    if not bounds or bounds[-1] < TWO_PI:
        bounds.append(TWO_PI)
    return [(bounds[i], bounds[i + 1], float(step.value(bounds[i]))) for i in range(len(bounds) - 1)]


@settings(max_examples=80, deadline=None)
@given(step=step_ssfs(), extra=st.lists(st.floats(0.0, TWO_PI), max_size=8))
def test_step_value_on_an_array_equals_the_scalar_value(step, extra):
    points = [0.0, *step.thetas.tolist(), *extra, TWO_PI]
    scalar = [step.value(t) for t in points]
    assert step.value(np.array(points)).tolist() == scalar
    # the definition: gauge plus the jumps at or below theta
    assert scalar == [step.gauge + float(sum(s for th, s in step.jumps if th <= t)) for t in points]


@settings(max_examples=80, deadline=None)
@given(step=step_ssfs())
def test_step_circle_rows_match_the_per_segment_table(step):
    assert list(map(tuple, table_array(step).tolist())) == _step_circle_rows_per_segment(step)


def test_step_circle_rows_evaluates_the_step_once(monkeypatch):
    calls = []
    value = StepSSF.value
    monkeypatch.setattr(StepSSF, "value", lambda self, theta: calls.append(1) or value(self, theta))
    step = StepSSF(jumps=tuple((TWO_PI * k / 64, (-1) ** k) for k in range(1, 65)), gauge=0.5)
    assert len(table_array(step)) == 64
    assert len(calls) == 1


def test_step_arrays_are_read_only_and_built_once():
    step = StepSSF(jumps=((1.0, 2), (TWO_PI, -2)), gauge=0.25)
    for name in ("thetas", "sizes"):
        a = getattr(step, name)
        assert not a.flags.writeable
        assert getattr(step, name) is a
        with pytest.raises(ValueError):
            a[0] = 0


# ---------------------------------------------------------------------------
# trace integral


def test_trace_integral_gauge_only():
    ssf = StepSSF(jumps=(), gauge=3.7)
    assert ssf_trace_integral(ssf, [1.0, 2.0, 3.0]) == 0.0


def test_trace_integral_scalar_hand_value():
    ssf = unitary_ssf(np.array([[1.0 + 0j]]), np.array([[1j]]))
    got = ssf_trace_integral(ssf, [0.0, 1.0])
    assert got == pytest.approx(1j - 1.0, abs=1e-14)


def test_trace_integral_seed37_cubic():
    rng = np.random.default_rng(37)
    u0 = random_unitary(rng, 4)
    u1 = random_unitary(rng, 4)
    ssf = unitary_ssf(u0, u1)
    f = [0.0, -2.0, 0.0, 1.0]
    assert abs(ssf_trace_integral(ssf, f) - trace_diff(f, u0, u1)) <= 1e-10


def test_trace_integral_gauge_invariance_exact():
    rng = np.random.default_rng(5)
    u0 = random_unitary(rng, 5)
    u1 = random_unitary(rng, 5)
    ssf = unitary_ssf(u0, u1)
    shifted = StepSSF(jumps=ssf.jumps, gauge=ssf.gauge + 17.25)
    f = [0.5, 1.0, -0.25, 0.0, 2.0]
    assert ssf_trace_integral(ssf, f) == ssf_trace_integral(shifted, f)


def test_trace_formula_exactness_sweep():
    # polynomial coefficient 1-norm <= 10, dimensions up to 16
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 17))
        u0 = random_unitary(rng, n)
        u1 = random_unitary(rng, n)
        ssf = unitary_ssf(u0, u1)
        deg = int(rng.integers(1, 7))
        f = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f *= 10.0 / max(np.abs(f).sum(), 10.0)
        assert abs(ssf_trace_integral(ssf, f) - trace_diff(f, u0, u1)) <= 1e-10


# ---------------------------------------------------------------------------
# contraction route


def test_contraction_ssf_equal_pair():
    rng = np.random.default_rng(1)
    t = random_contraction(rng, 3)
    assert contraction_ssf(t, t, 5).jumps == ()


def test_contraction_ssf_scalar_trace():
    t0 = Contraction(np.zeros((1, 1)))
    t1 = Contraction(np.array([[0.5]]))
    ssf = contraction_ssf(t0, t1, 5)
    assert ssf_trace_integral(ssf, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)


def test_contraction_ssf_seed41_degree6():
    rng = np.random.default_rng(41)
    t0 = random_contraction(rng, 3)
    t1 = random_contraction(rng, 3)
    ssf = contraction_ssf(t0, t1, 8)
    for trial in range(4):
        f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        got = ssf_trace_integral(ssf, f)
        want = trace_diff(f, t0, t1)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_contraction_ssf_block_count_consistency():
    rng = np.random.default_rng(6)
    t0 = random_contraction(rng, 2)
    t1 = random_contraction(rng, 2)
    m = 6
    a = contraction_ssf(t0, t1, m)
    b = contraction_ssf(t0, t1, m + 2)
    for trial in range(3):
        f = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
        assert abs(ssf_trace_integral(a, f) - ssf_trace_integral(b, f)) <= 1e-9


# ---------------------------------------------------------------------------
# perturbation determinant


def test_determinant_equal_pair():
    rng = np.random.default_rng(2)
    t = random_contraction(rng, 3)
    for zeta in (2.0, -1.5 + 1.5j, 1.0 + 1e-8 + 0.5j):
        assert perturbation_determinant(t, t, zeta) == pytest.approx(1.0, abs=1e-14)


def test_determinant_scalar_hand_value():
    got = perturbation_determinant(np.zeros((1, 1)), np.array([[0.5]]), 2.0)
    assert got == pytest.approx(0.75, abs=1e-14)


def test_determinant_alternative_formula_seed43():
    rng = np.random.default_rng(43)
    t0 = random_contraction(rng, 4)
    t1 = random_contraction(rng, 4)
    zeta = 3.0
    eye = np.eye(4)
    want = np.linalg.det((t1.m - zeta * eye) @ np.linalg.inv(t0.m - zeta * eye))
    assert abs(perturbation_determinant(t0, t1, zeta) - want) <= 1e-10


def test_determinant_rejects_zeta_near_circle():
    with pytest.raises(ValidationError):
        perturbation_determinant(np.zeros((1, 1)), np.zeros((1, 1)), 1.0)


# the scenario's eight LU probes on the default sampling circle
PROBES = (1.0 + 1e-4) * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)


@pytest.mark.parametrize("n", [1, 4, 64])
def test_eight_probes_are_the_scalar_calls_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for t0, t1 in ((random_unitary(rng, n), random_unitary(rng, n)), (random_contraction(rng, n), random_contraction(rng, n))):
        stacked = perturbation_determinant(t0, t1, PROBES)
        assert stacked.shape == (8,)
        assert stacked.tobytes() == np.array([perturbation_determinant(t0, t1, z) for z in PROBES]).tobytes()
        # and each is det(T1 - z) / det(T0 - z) from two slogdets of its own
        eye = np.eye(n)
        alone = []
        for z in PROBES:
            (sign0, log0), (sign1, log1) = (np.linalg.slogdet(t.m - z * eye) for t in (t0, t1))
            alone.append(sign1 / sign0 * np.exp(log1 - log0))
        assert stacked.tobytes() == np.array(alone).tobytes()


def test_a_diagonal_pair_at_dim_64_is_the_product_of_its_factor_ratios():
    rng = np.random.default_rng(64)
    t0, t1 = (np.sqrt(rng.uniform(0.0, 0.95, 64)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 64)) for _ in range(2))
    got = perturbation_determinant(Contraction(np.diag(t0)), Contraction(np.diag(t1)), PROBES)
    for z, d in zip(PROBES.tolist(), got.tolist()):
        exact = 1.0 + 0.0j
        for a, b in zip(t0.tolist(), t1.tolist()):
            exact *= (b - z) / (a - z)
        assert abs(d / exact - 1) <= 1e-13


def test_one_near_singular_probe_fails_the_stack():
    # T0 - zeta_3 I has the singular values |delta| and about 1.5: cond about 1.5e13
    for delta in (1e-13, 0.0):
        t0 = np.diag([PROBES[3] + delta, -0.5])
        with pytest.raises(NearSingular, match=r"cond\(T0 - zeta I\)"):
            perturbation_determinant(t0, 0.5 * np.eye(2), PROBES)
    # at delta = 1e-10 the exact cond, about 1.5e10, passes where the norm bound does not
    t0 = np.diag([PROBES[3] + 1e-10, -0.5])
    assert np.isfinite(perturbation_determinant(t0, 0.5 * np.eye(2), PROBES)).all()


def _counting_svds(monkeypatch):
    calls = []
    for name in ("svd", "cond"):
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=getattr(np.linalg, name), _n=name, **kwargs: calls.append(_n) or _f(a, *args, **kwargs))
    return calls


def test_the_norm_bound_spares_the_svd_of_every_probe_it_certifies(monkeypatch):
    rng = np.random.default_rng(17)
    u0, u1 = random_unitary(rng, 5), random_unitary(rng, 5)
    calls = _counting_svds(monkeypatch)
    # ||U0|| <= sqrt(1 + its defect), read off validation: the bound is about 2 / 1e-4 = 2e4 at every probe
    perturbation_determinant(u0, u1, PROBES)
    assert calls == []
    # ||T0|| = 1.2 exceeds the four probes of modulus 1 + 1e-4, but not the four of modulus 3
    del calls[:]
    t0 = np.diag([1.2, 0.0, 0.3j, 0.0, 0.0])
    zeta = np.concatenate((PROBES[:4], 3.0 * PROBES[4:]))
    perturbation_determinant(t0, u1, zeta)
    assert calls == ["svd"] + ["cond"] * 4
    # a T0 just under the probes' modulus: the bound 2 / 1e-12 certifies none, and each exact cond passes
    del calls[:]
    perturbation_determinant((1.0 + 1e-4 - 1e-12) * u0.m, u1, PROBES)
    assert calls == ["svd"] + ["cond"] * 8


def test_a_unitary_pole_spectrum_keeps_the_lu_record(monkeypatch):
    # the first 1 + 3 Haar direct sum from this seed, drawn as test_metamorphic
    # draws it, solves at |a| = 731 on its first Cayley try: under the pole
    # limit, so its spectrum is kept as solved
    rng = np.random.default_rng(8192)

    def haar(n):
        return unitary_factor((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0))

    u0 = Unitary(np.block([[haar(1), np.zeros((1, 3))], [np.zeros((3, 1)), haar(3)]]))
    u1 = Unitary(haar(4))
    solve, tries = linalg._cayley_solve, []
    monkeypatch.setattr(linalg, "_cayley_solve", lambda *args: tries.append(solve(*args).pole) or solve(*args))
    sampled = determinant_ssf(u0, u1)
    assert 700 < tries[0] < linalg._POLE_LIMIT
    assert sampled.eigenvalues[0] is u0.spectrum and sampled.eigenvalues[1] is u1.spectrum
    lu = perturbation_determinant(u0, u1, PROBES)
    gap = max(abs(sampled.determinant(z) / d - 1) for z, d in zip(PROBES, lu))
    # the scenario's determinant-lu-crosscheck tolerance is 1e-8
    assert gap <= 1e-11


# ---------------------------------------------------------------------------
# determinant-route sampled SSF


def test_determinant_ssf_equal_pair_is_zero():
    rng = np.random.default_rng(3)
    t = random_contraction(rng, 3)
    out = determinant_ssf(t, t, grid=256)
    assert out.winding == 0
    assert np.max(np.abs(out.values)) <= 1e-14


def test_determinant_ssf_matches_step_for_scalar_unitaries():
    u0 = np.array([[1.0 + 0j]])
    u1 = np.array([[1j]])
    step = unitary_ssf(u0, u1)
    sampled = determinant_ssf(u0, u1, radius=1 + 1e-4, grid=8192)
    assert sampled.winding == 0
    dev = step_vs_sampled_max_deviation(step, sampled, exclusion=2e-2)
    assert dev <= 5e-2


def test_determinant_ssf_trace_integrals_seed47():
    rng = np.random.default_rng(47)
    t0 = random_contraction(rng, 3)
    t1 = random_contraction(rng, 3)
    sampled = determinant_ssf(t0, t1, radius=1 + 1e-4, grid=4096)
    for f in ([0.0, 1.0], [0.0, 0.0, 1.0]):
        got = sampled_trace_integral(sampled, f)
        want = trace_diff(f, t0, t1)
        assert abs(got - want) <= 1e-3


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("degree", [10, 40])
def test_sampled_trace_integral_of_a_high_monomial_is_the_trace_difference(seed, degree):
    # generated contraction pairs run at m = 6 blocks, so their step SSF reaches degree m - 2 = 4 only;
    # the determinant route's samples on |z| = radius give every degree to roundoff
    sc = parse_scenario(generate_scenario("contraction_pair", seed, 8))
    sampled = determinant_ssf(*sc.matrices)
    monomial = [0.0] * degree + [1.0]
    got = sampled_trace_integral(sampled, monomial)
    assert abs(got - trace_diff(monomial, *sc.matrices)) <= 1e-12 * degree * sampled.radius**degree


def test_determinant_ssf_validates_inputs():
    t = np.zeros((1, 1))
    with pytest.raises(ValidationError):
        determinant_ssf(t, t, radius=1.0)
    with pytest.raises(ValidationError):
        determinant_ssf(t, t, grid=64)
    with pytest.raises(ValidationError):
        SampledSSF(radius=1.1, thetas=np.array([1.0]), values=np.array([np.inf]), winding=0)


@pytest.mark.parametrize(
    "thetas, values",
    [
        (np.linspace(0.1, 6, 8), np.zeros(9)),
        (np.linspace(0.1, 6, 8), np.zeros(7)),
        (np.linspace(0.1, 6, 8).reshape(2, 4), np.zeros((2, 4))),
        (np.float64(1.0), np.float64(0.0)),
        (list(np.linspace(0.1, 6, 8)), np.zeros(8)),
    ],
    ids=["values-longer", "values-shorter", "two-dimensional", "scalars", "thetas-a-list"],
)
def test_sampled_ssf_refuses_columns_that_are_not_one_length_1d_arrays(thetas, values):
    with pytest.raises(ValidationError, match="1-D arrays of one length"):
        SampledSSF(1.1, thetas, values, 0)


def test_sampled_ssf_refuses_a_grid_with_no_samples():
    # its trace integral would be the mean of nothing, and its report rows an empty list
    with pytest.raises(ValidationError, match="at least one sample"):
        SampledSSF(1.5, np.zeros(0), np.zeros(0), 0)


@pytest.mark.parametrize("radius", [float("nan"), float("inf")])
def test_sampled_ssf_refuses_a_radius_that_is_not_finite(radius):
    t = np.linspace(0.1, 6, 8)
    with pytest.raises(ValidationError, match="sampling radius must be finite and exceed 1"):
        SampledSSF(radius, t, np.cos(t), 0)


def phase_diag(*phases):
    return np.diag(np.exp(1j * np.array(phases)))


@pytest.mark.parametrize("phases1", [(1.0, 1.5), (1.0, 1.0)])
def test_determinant_ssf_double_eigenphase(phases1):
    # A double eigenphase swings the determinant phase by 2pi across one
    # jump; sampled modulo 2pi that swing is invisible, so the route must
    # not reconstruct the phase by unwrapping.
    u0, u1 = phase_diag(0.3, 0.3), phase_diag(*phases1)
    sampled = determinant_ssf(u0, u1, radius=1 + 1e-4, grid=4096)
    assert sampled.winding == 0
    assert step_vs_sampled_max_deviation(unitary_ssf(u0, u1), sampled) <= 5e-2


def test_determinant_ssf_lapack_failure_is_eigen_failure(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(EigenFailure):
        determinant_ssf(np.eye(2), np.eye(2))


def raw_matrix(rng, n, scale):
    """Complex Gaussian matrix with spectral radius near `scale`; not a contraction in general."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * g / np.sqrt(2 * n)


dims = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)
scales = st.floats(0.1, 3.0)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(n=dims, seed=seeds, s0=scales, s1=scales)
def test_determinant_ssf_winding_is_inside_count_difference(n, seed, s0, s1):
    rng = np.random.default_rng(seed)
    m0, m1 = raw_matrix(rng, n, s0), raw_matrix(rng, n, s1)
    radius = 1 + 1e-4
    inside = [int(np.sum(np.abs(np.linalg.eigvals(m)) < radius)) for m in (m0, m1)]
    if inside[0] != inside[1]:
        with pytest.raises(NonzeroWinding):
            determinant_ssf(m0, m1, radius=radius, grid=256)
    else:
        assert determinant_ssf(m0, m1, radius=radius, grid=256).winding == 0


@PROPERTY
@given(
    n=dims,
    seed=seeds,
    scale=scales,
    eps=st.floats(0.0, 0.5),
    rho=st.floats(1.001, 4.0),
    phi=st.floats(0.0, 2 * np.pi),
)
def test_factor_determinant_matches_lu_route(n, seed, scale, eps, rho, phi):
    rng = np.random.default_rng(seed)
    m0 = raw_matrix(rng, n, scale)
    m1 = m0 + raw_matrix(rng, n, eps)
    try:
        sampled = determinant_ssf(m0, m1, grid=256)
    except NonzeroWinding:
        assume(False)
    zeta = rho * np.exp(1j * phi)
    assume(np.min(np.abs(np.concatenate(sampled.eigenvalues) - zeta)) >= 1e-2)
    assert abs(sampled.determinant(zeta) / perturbation_determinant(m0, m1, zeta) - 1) <= 1e-8


@PROPERTY
@given(n=dims, seed=seeds, scale=scales)
def test_determinant_ssf_equal_raw_pair_is_identically_zero(n, seed, scale):
    m = raw_matrix(np.random.default_rng(seed), n, scale)
    out = determinant_ssf(m, m, grid=256)
    assert out.winding == 0
    assert np.all(out.values == 0.0)


def unpaired_factor_phase(eigs, zeta, radius):
    """The factor phases of one spectrum, summed on their own: the route before the pairs."""
    inside = np.abs(eigs) < radius
    z = zeta[:, None]
    return np.angle(1.0 - eigs[inside] / z).sum(axis=1) + np.angle(1.0 - z / eigs[~inside]).sum(axis=1)


def one_shot_factor_phase_difference(l0, l1, zeta, radius):
    """_factor_phase_difference on the whole grid at once: grid x n factor pairs held together."""
    z = zeta[:, None]
    f0, f1 = (np.concatenate((1.0 - l[inside] / z, 1.0 - z / l[~inside]), axis=1) for l in (l0, l1) for inside in [np.abs(l) < radius])
    re = f1.real * f0.real + f1.imag * f0.imag
    im = f1.imag * f0.real - f1.real * f0.imag
    return np.arctan2(im, re).sum(axis=1)


@PROPERTY
@given(
    n=st.integers(1, 128),
    grid=st.integers(256, 8192) | st.sampled_from([256, 257, 511, 4096, 8192]),
    seed=seeds,
    spread=st.floats(0.1, 3.0),
)
@example(n=128, grid=8192, seed=3, spread=2.0)
@example(n=128, grid=4097, seed=4, spread=0.5)
@example(n=1, grid=300, seed=5, spread=3.0)
def test_blocked_factor_phase_is_the_one_shot_phase_bit_for_bit(n, grid, seed, spread):
    rng = np.random.default_rng(seed)
    # moduli on both sides of the radius
    l0, l1 = (rng.uniform(0.0, spread, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n)) for _ in range(2))
    radius = 1.0 + 1e-4
    zeta = radius * np.exp(1j * TWO_PI * np.arange(1, grid + 1) / grid)
    blocked = ssf_circle._factor_phase_difference(l0, l1, zeta, radius)
    assert blocked.tobytes() == one_shot_factor_phase_difference(l0, l1, zeta, radius).tobytes()


# Pairing against the unpaired sums, for n <= 16. Both routes form the same
# factors. Per pair, the product's real and imaginary parts are off by at most
# 2 eps |f1| |f0|, which turns its angle by under 3 eps, and each arctan2 is
# within 2 ulp of values below pi (ulp(pi) = 2 eps). numpy sums n <= 16 terms
# in at most 6 rounded levels, each off by at most eps times the sum of the
# |terms|, which is at most n pi. That is under (3 + 8 + 8 + 2 x 6 pi) n eps
# between the two: PAIRED_BOUND n eps.
PAIRED_BOUND = 64


sides = st.lists(st.booleans(), min_size=16, max_size=16)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 16), inside0=sides, inside1=sides, seed=seeds, radius=st.sampled_from([1.0, 1.0 + 1e-4]))
@example(n=16, inside0=[True] * 8 + [False] * 8, inside1=[False, True] * 8, seed=7, radius=1.0)
def test_paired_factor_phase_is_the_unpaired_difference(n, inside0, inside1, seed, radius):
    rng = np.random.default_rng(seed)
    l0, l1 = (
        # moduli from 1e-9 of the radius out to 0 inside it and to twice it outside
        radius * np.where(inside[:n], -1.0, 1.0) * 10.0 ** rng.uniform(-9.0, 0.0, n) + radius
        for inside in (inside0, inside1)
    )
    l0, l1 = (l * np.exp(1j * rng.uniform(0.0, TWO_PI, n)) for l in (l0, l1))
    zeta = radius * np.exp(1j * TWO_PI * np.arange(1, 513) / 512)
    paired = ssf_circle._factor_phase_difference(l0, l1, zeta, radius)
    unpaired = unpaired_factor_phase(l1, zeta, radius) - unpaired_factor_phase(l0, zeta, radius)
    assert np.abs(paired - unpaired).max() <= PAIRED_BOUND * n * np.finfo(float).eps


def test_a_determinant_run_at_the_schema_limits_holds_one_block_of_the_grid():
    sc = parse_scenario(
        {"name": "limit", "kind": "unitary_pair", "matrices": {"seed": 3, "dim": 128}, "determinant": {"grid": 65536}}
    )
    tracemalloc.start()
    try:
        report = run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tables["sampled"].values.shape == (65536,)
    # one grid x n complex array alone is 65536 * 128 * 16 B = 128 MiB
    assert peak <= 32 * 2**20


@PROPERTY
@given(
    n=dims, seed=seeds, s0=st.floats(0.05, 1.0), s1=st.floats(0.05, 1.0), m=st.integers(3, 10), data=st.data()
)
def test_circle_trace_formula_on_random_contraction_pairs(n, seed, s0, s1, m, data):
    # the m-block dilation SSF certifies trace(p(T1) - p(T0)) for deg p <= m - 2,
    # at the scenario's dilation-trace-formula tolerance
    rng = np.random.default_rng(seed)
    t0, t1 = random_contraction(rng, n, s0), random_contraction(rng, n, s1)
    degree = data.draw(st.integers(0, m - 2), label="degree")
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    ssf = contraction_ssf(t0, t1, m)
    assert abs(ssf_trace_integral(ssf, coeffs) - trace_diff(coeffs, t0, t1)) <= 1e-9


# ---------------------------------------------------------------------------
# Hardy-class gauge freedom


def test_hardy_check_cauchy_cases():
    assert abs(hardy_gauge_check(0, [0.0, 1.0])) <= 1e-12
    assert abs(hardy_gauge_check(2, [0.0, 0.0, 0.0, 1.0])) <= 1e-12


def test_hardy_check_reads_the_boundary_it_would_form_per_call():
    # the shared boundary is bitwise the one a call formed for itself, so the
    # hardy-gauge lhs is unchanged, and no caller can write to it
    theta = 2.0 * np.pi * np.arange(8192) / 8192
    assert ssf_circle._HARDY_BOUNDARY.tobytes() == np.exp(1j * theta).tobytes()
    assert not ssf_circle._HARDY_BOUNDARY.flags.writeable


def test_hardy_check_random_poly_seed53():
    rng = np.random.default_rng(53)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    ssf = unitary_ssf(np.array([[1.0 + 0j]]), np.array([[1j]]))
    assert abs(hardy_gauge_check(5, f)) <= 1e-10


# ---------------------------------------------------------------------------
# real-SSF hypothesis report


def test_conditions_report_equal_pair():
    rng = np.random.default_rng(9)
    t = random_contraction(rng, 3, scale=0.8)
    rep = real_ssf_conditions_report(t, t, 0.5, 0.25, 2)
    assert rep.weighted_diff_norm == pytest.approx(0.0, abs=1e-14)
    assert rep.weighted_adjoint_diff_norm == pytest.approx(0.0, abs=1e-14)
    assert rep.defect_diff_norm == pytest.approx(0.0, abs=1e-13)
    assert rep.defect_adjoint_diff_norm == pytest.approx(0.0, abs=1e-13)
    assert rep.kernel_certified


def test_conditions_report_scalar_hand_values():
    rep = real_ssf_conditions_report(
        Contraction(np.zeros((1, 1))), Contraction(np.array([[0.5]])), 1.0, 0.0, 1
    )
    assert rep.min_defect_eig == pytest.approx(1.0, abs=1e-14)
    assert rep.weighted_diff_norm == pytest.approx(0.5, abs=1e-14)
    assert rep.defect_diff_norm == pytest.approx(1.0 - np.sqrt(3) / 2, abs=1e-14)
    assert rep.identity_residual <= 1e-15


def test_conditions_report_identity_seed59():
    rng = np.random.default_rng(59)
    t0 = random_contraction(rng, 4, scale=0.9)
    t1 = random_contraction(rng, 4, scale=0.9)
    rep = real_ssf_conditions_report(t0, t1, 0.5, 0.5, 1)
    assert rep.identity_residual <= 1e-10
    assert isinstance(rep, RealSsfConditions)


def test_conditions_report_kernel_violation_marks_fields():
    rep = real_ssf_conditions_report(
        Contraction(np.array([[1.0 + 0j]])), Contraction(np.array([[0.5]])), 1.0, 0.0, 1
    )
    assert rep.min_defect_eig == pytest.approx(0.0, abs=1e-12)
    assert not rep.kernel_certified
    assert rep.weighted_diff_norm is None
    assert rep.weighted_adjoint_diff_norm is None


def test_conditions_report_sees_the_kernel_of_a_defect_with_unit_singular_values():
    # the SVD returns the two unit singular values of T0 as 1 - 1.1e-16; the
    # defect must still have its two-dimensional kernel
    g = np.random.default_rng(3)
    q, _ = np.linalg.qr(g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)))
    t0 = Contraction((q * [1.0, 1.0, 0.5, 0.2]) @ q.conj().T)
    rep = real_ssf_conditions_report(t0, Contraction(t0.m / 2), 0.5, 0.5, 1)
    assert rep.min_defect_eig <= 1e-14
    assert not rep.kernel_certified
    assert rep.weighted_diff_norm is None


def _unit_singular_pair():
    """T0 = Q diag(1, 1, 0.5, 0.2) Q*, whose defect has a two-dimensional kernel, and the strict T1 = T0 / 2."""
    g = np.random.default_rng(3)
    q, _ = np.linalg.qr(g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)))
    t0 = Contraction((q * [1.0, 1.0, 0.5, 0.2]) @ q.conj().T)
    return t0, Contraction(t0.m / 2)


def test_conditions_report_at_alpha_zero_passes_the_kernel():
    # D_T0^(-0.0) is the identity on the kernel too, so the weighted norms exist
    t0, t1 = _unit_singular_pair()
    rep = real_ssf_conditions_report(t0, t1, 0.0, 0.75, 1)
    assert rep.min_defect_eig == 0.0 and not rep.kernel_certified
    diff = t1.m - t0.m
    d1, d1s = t1.defects
    assert rep.weighted_diff_norm == pytest.approx(schatten_norm(hermitian_power(d1s, -1.5) @ diff, 1), rel=1e-12)
    assert rep.weighted_adjoint_diff_norm == pytest.approx(
        schatten_norm(hermitian_power(d1, -1.5) @ diff.conj().T, 1), rel=1e-12
    )


@pytest.mark.parametrize("alpha, beta, p", [(0.5, 0.25, 2), (0.3, 0.7, 1), (0.0, 0.6, 1.5)])
def test_conditions_report_weighted_norms_are_those_of_the_defect_powers(alpha, beta, p):
    rng = np.random.default_rng(21)
    for n in (1, 3, 5):
        t0, t1 = random_contraction(rng, n, scale=0.9), random_contraction(rng, n, scale=0.9)
        rep = real_ssf_conditions_report(t0, t1, alpha, beta, p)
        (d0, _), (d1, d1s) = t0.defects, t1.defects
        right, diff = hermitian_power(d0, -2 * alpha), t1.m - t0.m
        weighted = schatten_norm(hermitian_power(d1s, -2 * beta) @ diff @ right, p)
        adjoint = schatten_norm(hermitian_power(d1, -2 * beta) @ diff.conj().T @ right, p)
        assert rep.weighted_diff_norm == pytest.approx(weighted, rel=1e-11)
        assert rep.weighted_adjoint_diff_norm == pytest.approx(adjoint, rel=1e-11)
        assert rep.min_defect_eig == pytest.approx(float(np.linalg.eigvalsh(d0).min()), abs=1e-14)


def test_conditions_report_takes_no_eigensolve(monkeypatch):
    # the defect eigenvalues and weighted norms come from each contraction's one SVD
    t0, t1 = (Contraction(m) for m in parse_scenario(generate_scenario("contraction_pair", 201, 16)).matrices)
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    rep = real_ssf_conditions_report(t0, t1, 0.5, 0.25, 1)
    assert calls == [] and rep.weighted_diff_norm is not None


def test_conditions_report_validates_exponents():
    t = Contraction(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        real_ssf_conditions_report(t, t, 0.2, 0.2, 1)
    with pytest.raises(ValidationError):
        real_ssf_conditions_report(t, t, 1.0, 0.5, 1)


# ---------------------------------------------------------------------------
# StepSSF type invariants


def test_step_ssf_validation():
    with pytest.raises(ValidationError):
        StepSSF(jumps=((1.0, 1), (0.5, -1)), gauge=0.0)  # not increasing
    with pytest.raises(ValidationError):
        StepSSF(jumps=((1.0, 0),), gauge=0.0)  # zero jump
    with pytest.raises(ValidationError):
        StepSSF(jumps=((1.0, 1),), gauge=0.0)  # sum != 0
    with pytest.raises(ValidationError):
        StepSSF(jumps=((7.0, 1), (7.5, -1)), gauge=0.0)  # out of range


@pytest.mark.parametrize("gauge", [np.nan, np.inf, -np.inf])
def test_step_ssf_rejects_a_non_finite_gauge(gauge):
    # a NaN gauge would reach every value, the line SSF and the written tables
    with pytest.raises(ValidationError, match="gauge must be finite"):
        StepSSF(((1.0, 1), (2.0, -1)), gauge)
    assert StepSSF(((1.0, 1), (2.0, -1)), 0.25).value(1.5) == 1.25


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_sampled_ssf_rejects_non_finite_thetas(theta):
    with pytest.raises(ValidationError, match="sampled thetas must be finite"):
        SampledSSF(1.1, np.array([theta, 1.0]), np.zeros(2), 0)


# ---------------------------------------------------------------------------
# array-built step SSFs against the per-jump code they replaced


def _step_ssf_per_jump(phases0, phases1):
    """(jumps, gauge) as the per-jump assembly built them."""
    phases = [p for p, _ in phases0] + [p for p, _ in phases1]
    weights = [k for _, k in phases0] + [-k for _, k in phases1]
    clustered = _cluster_circle(np.array(phases), np.array(weights))
    jumps = tuple((p, int(w)) for p, w in clustered if w != 0)
    return jumps, sum(w * p for p, w in jumps) / TWO_PI


@st.composite
def phase_lists(draw):
    """Two (phase, multiplicity) lists of one total multiplicity whose phases meet
    within the cluster tolerance, also across 2pi."""
    phases = st.floats(0.0, TWO_PI, exclude_min=True) | st.sampled_from([1e-10, TWO_PI])
    nudges = st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, TWO_PI - 1e-11])
    lists = ([], [])
    for _ in range(draw(st.integers(0, 30))):
        p0, k = draw(phases), draw(st.integers(1, 3))
        p1 = draw(phases | nudges.map(lambda d: (p0 + d) % TWO_PI or TWO_PI))
        lists[0].append((p0, k))
        lists[1].append((p1, k))
    return sorted(lists[0]), sorted(lists[1])


@settings(max_examples=200, deadline=None)
@given(lists=phase_lists())
def test_step_ssf_from_arrays_is_the_per_jump_assembly(lists):
    jumps, gauge = _step_ssf_per_jump(*lists)
    step = _step_ssf(*lists)
    assert step.jumps == jumps
    assert all(type(th) is float and type(s) is int for th, s in step.jumps)
    assert step.gauge.hex() == gauge.hex()
    assert step.thetas.tolist() == [th for th, _ in jumps] and step.sizes.tolist() == [s for _, s in jumps]
    assert not step.thetas.flags.writeable and not step.sizes.flags.writeable


def test_groups_on_both_sides_of_the_seam_are_one_entry():
    # each group lies within CLUSTER_TOL of the seam and snaps to 2pi, though the two are 1.2e-9 apart
    got = _cluster_circle(np.array([0.6e-9, 1.0, TWO_PI - 0.6e-9]), np.array([1, 1, 2]))
    assert got == [(1.0, 1), (TWO_PI, 3)]
    phases = linalg.eigenphases(np.diag(np.exp(1j * np.array([0.6e-9, -0.6e-9, 1.0]))))
    assert [k for _, k in phases] == [1, 2] and phases[0][0] == pytest.approx(1.0) and phases[1][0] == TWO_PI
    # a +1 and a -1 jump that both snap to the seam cancel
    assert _step_ssf([(1e-9, 1)], [(5e-324, 1)]) == StepSSF(jumps=(), gauge=0.0)


def test_step_ssf_of_a_dilation_pair_is_the_per_jump_assembly():
    rng = np.random.default_rng(5)
    d0, d1 = dilation_pair(random_contraction(rng, 6), random_contraction(rng, 6), 8)
    jumps, gauge = _step_ssf_per_jump(d0.eigenphases(), d1.eigenphases())
    step = dilation_ssf(d0, d1)
    assert step.jumps == jumps and step.gauge.hex() == gauge.hex()


def _max_deviation_per_jump(step, sampled, exclusion):
    """The per-jump mask loop; None where it left no grid point."""
    theta = sampled.thetas
    mask = np.ones(theta.shape, dtype=bool)
    for th in step.thetas:
        d = np.abs(theta - th)
        d = np.minimum(d, TWO_PI - d)
        mask &= d >= exclusion
    if not mask.any():
        return None
    return float(np.max(np.abs(sampled.values[mask] - step.value(theta[mask]))))


@settings(max_examples=200, deadline=None)
@given(step=step_ssfs(), points=st.integers(1, 300), data=st.data())
def test_max_deviation_masks_exactly_the_grid_points_the_per_jump_loop_masked(step, points, data):
    thetas = np.linspace(0.0, TWO_PI, points + 1)[1:]
    values = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=points, max_size=points)))
    sampled = SampledSSF(1.0 + 1e-4, thetas, values, 0)
    # an exclusion radius that is some grid point's exact distance to some jump puts a tie on the boundary
    ties = [float(abs(t - th)) for t in thetas[:5] for th in step.thetas[:5]]
    exclusion = data.draw(st.sampled_from(ties) | st.floats(0.0, 1.0) if ties else st.floats(0.0, 1.0))
    want = _max_deviation_per_jump(step, sampled, exclusion)
    if want is None:
        with pytest.raises(ValidationError, match="removed every grid point"):
            step_vs_sampled_max_deviation(step, sampled, exclusion=exclusion)
    else:
        assert step_vs_sampled_max_deviation(step, sampled, exclusion=exclusion).hex() == want.hex()


def _line_ssf():
    return dissipative_ssf(Dissipative(np.diag([1j])), Dissipative(np.diag([2j])), 4)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # an eigenvalue of T0 on the sampling circle
        (lambda: determinant_ssf(np.diag([1.5]), np.diag([0.5]), radius=1.5), NearSingular, "sampling circle"),
        (lambda: hardy_gauge_check(-1, [0.0, 1.0]), ValidationError, "nonnegative"),
        (lambda: _line_ssf().windowed_integral(0.0), ValidationError, "window radius"),
        (lambda: weighted_abs_integral(_line_ssf(), side="disk"), ValidationError, "unknown side"),
        (lambda: analytic_poly_eval(np.eye(2), []), ValueError, "empty coefficient list"),
        (lambda: Grid1D(np.array([0.0, 0.5]), np.array([1.0]), "x", -0.5, 0.5), ValidationError, "matching"),
        (lambda: Grid1D(np.array([-0.25, 0.25]), np.array([1.0, 0.0]), "x", -0.5, 0.5), ValidationError, "positive"),
        (lambda: Grid1D(np.array([0.0, 0.75]), np.array([0.5, 0.5]), "x", -0.5, 0.5), ValidationError, "domain"),
    ],
    ids=["near-singular", "hardy-exponent", "window", "side", "empty-poly", "grid-shape", "grid-weight", "grid-domain"],
)
def test_library_guards_refuse_what_they_name(call, error, message):
    with pytest.raises(error, match=message):
        call()
