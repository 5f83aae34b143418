import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab import fractional
from ssflab.errors import (
    IndefiniteInput,
    InvalidExponent,
    KernelViolation,
    QuadratureDivergence,
    ValidationError,
)
from ssflab.fractional import (
    _KERNEL_FLOOR,
    FractionalJob,
    _fractional_diff_pass,
    c_sigma,
    fractional_diff_quadrature,
    fractional_power,
    fractional_power_bound_report,
    gauss_jacobi,
    resolvent_difference_identity_check,
)
from ssflab.linalg import operator_norm
from ssflab.scenario import generate_scenario, parse_scenario, run_scenario
from ssflab.schrodinger import make_grid


def random_psd_contraction(rng, n, lo=0.05, hi=0.95):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return (q * rng.uniform(lo, hi, size=n)) @ q.conj().T


def admissible_exponents(rng):
    sigma = float(rng.uniform(0.1, 0.9))
    s = float(rng.uniform(max(1.0 - sigma + 1e-3, 0.05), 1.0))
    alpha = float(rng.uniform(0.0, s))
    return sigma, alpha, s - alpha


# ---------------------------------------------------------------------------
# fractional powers


def test_c_sigma_half():
    assert c_sigma(0.5) == pytest.approx(1.0 / np.pi, abs=1e-15)


def test_power_scalar_and_identity():
    assert fractional_power(np.diag([0.25]), 0.5)[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(fractional_power(np.eye(3), 0.37), np.eye(3), atol=1e-14)


def test_power_eigen_oracle_seed71():
    rng = np.random.default_rng(71)
    x = random_psd_contraction(rng, 5, lo=0.0, hi=1.0)
    w, v = np.linalg.eigh(x)
    oracle = (v * np.clip(w, 0, 1) ** 0.3) @ v.conj().T
    assert np.linalg.norm(fractional_power(x, 0.3) - oracle) <= 1e-11


def test_power_roundtrip():
    rng = np.random.default_rng(7)
    x = random_psd_contraction(rng, 4)
    back = fractional_power(fractional_power(x, 0.5), 2.0)
    assert np.linalg.norm(back - x) <= 1e-9


def test_power_validation():
    with pytest.raises(IndefiniteInput):
        fractional_power(np.diag([-1.0, 1.0]), 0.5)
    with pytest.raises(ValidationError):
        fractional_power(np.diag([2.0]), 0.5)
    with pytest.raises(InvalidExponent):
        fractional_power(np.eye(2), 0.0)


# ---------------------------------------------------------------------------
# job validation


def test_job_validation():
    x = np.diag([0.25, 0.5])
    good = FractionalJob(x=x, y=x, sigma=0.5, alpha=1.0, beta=0.0)
    assert good.min_eig == pytest.approx(0.25)
    with pytest.raises(InvalidExponent):
        FractionalJob(x=x, y=x, sigma=1.5, alpha=1.0, beta=0.0)
    with pytest.raises(InvalidExponent):
        FractionalJob(x=x, y=x, sigma=0.5, alpha=0.2, beta=0.2)  # sum below 1 - sigma
    with pytest.raises(InvalidExponent):
        FractionalJob(x=x, y=x, sigma=0.5, alpha=0.8, beta=0.4)  # sum above 1
    with pytest.raises(InvalidExponent):
        FractionalJob(x=x, y=x, sigma=0.5, alpha=1.0, beta=0.0, p=0.5)
    with pytest.raises(ValidationError):
        FractionalJob(x=x, y=np.diag([0.5]), sigma=0.5, alpha=1.0, beta=0.0)
    with pytest.raises(ValidationError):
        FractionalJob(x=np.diag([1.5, 0.5]), y=x, sigma=0.5, alpha=1.0, beta=0.0)


# ---------------------------------------------------------------------------
# quadrature


def job_for(x, y, sigma=0.5, alpha=1.0, beta=0.0, p=1.0):
    return FractionalJob(x=np.asarray(x, dtype=complex), y=np.asarray(y, dtype=complex),
                         sigma=sigma, alpha=alpha, beta=beta, p=p)


def test_quadrature_equal_pair():
    x = np.diag([0.25, 0.75])
    out = fractional_diff_quadrature(job_for(x, x))
    assert np.linalg.norm(out) == 0.0


def test_quadrature_scalar_closed_form():
    out = fractional_diff_quadrature(job_for(np.diag([0.25]), np.diag([0.75])))
    assert out[0, 0].real == pytest.approx(np.sqrt(3) / 2 - 0.5, abs=1e-8)
    assert abs(out[0, 0].imag) <= 1e-14


def test_quadrature_sign_is_y_minus_x():
    out = fractional_diff_quadrature(job_for(np.diag([0.2]), np.diag([0.9]), sigma=0.6))
    assert out[0, 0].real == pytest.approx(0.9**0.6 - 0.2**0.6, abs=1e-7)
    assert out[0, 0].real > 0


def test_quadrature_commuting_diagonal_seed73():
    rng = np.random.default_rng(73)
    dx = rng.uniform(0.05, 0.95, size=4)
    dy = rng.uniform(0.05, 0.95, size=4)
    out = fractional_diff_quadrature(job_for(np.diag(dx), np.diag(dy), sigma=0.7, alpha=0.5,
                                             beta=0.5))
    want = np.diag(dy**0.7 - dx**0.7)
    assert np.max(np.abs(out - want)) <= 1e-7


def test_quadrature_matches_eigencalculus():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        x = random_psd_contraction(rng, n)
        y = random_psd_contraction(rng, n)
        sigma, alpha, beta = admissible_exponents(rng)
        out = fractional_diff_quadrature(
            FractionalJob(x=x, y=y, sigma=sigma, alpha=alpha, beta=beta)
        )
        want = fractional_power(y, sigma) - fractional_power(x, sigma)
        assert np.linalg.norm(out - want) <= 1e-6 * (1 + np.linalg.norm(want))


def test_quadrature_node_doubling_stability():
    rng = np.random.default_rng(17)
    x = random_psd_contraction(rng, 5, lo=1e-3, hi=0.99)
    y = random_psd_contraction(rng, 5, lo=1e-3, hi=0.99)
    job = FractionalJob(x=x, y=y, sigma=0.4, alpha=0.7, beta=0.0)
    a = fractional_diff_quadrature(job, nodes=100)
    b = fractional_diff_quadrature(job, nodes=200)
    assert np.linalg.norm(a - b) <= 1e-8 * (1 + np.linalg.norm(b))


def test_quadrature_rejects_tiny_node_count():
    x = np.diag([0.5])
    with pytest.raises(ValidationError):
        fractional_diff_quadrature(job_for(x, x), nodes=16)


def _solve_based_pass(job, nodes):
    """The pass with two stacked resolvent solves per node and two inverses
    for the tail: the oracle for the kernel form on the kept eigenbases."""
    x, y, sigma = job.x.m, job.y.m, job.sigma
    diff = y - x
    if np.linalg.norm(diff) == 0.0:
        return np.zeros_like(diff)
    eye = np.eye(len(x), dtype=complex)

    def sandwich(a, b):  # (a I + b Y)^(-1) diff (a I + b X)^(-1), stacked over the nodes
        left = np.multiply.outer(a, eye) + np.multiply.outer(b, y)
        right = np.multiply.outer(a, eye) + np.multiply.outer(b, x)
        half = np.linalg.solve(left, np.repeat(diff[None], len(left), axis=0))
        return np.linalg.solve(right.transpose(0, 2, 1), half.transpose(0, 2, 1)).transpose(0, 2, 1)

    upper_nodes = max(24, nodes // 8)
    panel_count = max(2, (nodes - upper_nodes) // 16)
    s_min = (2.0 * np.log(max(job.min_eig, 1e-12)) - 30.0) / (2.0 + sigma)
    grid = make_grid(s_min, 0.0, 16 * panel_count)
    t_nodes = np.exp(grid.points)
    factors = grid.weights * np.exp((1.0 + sigma) * grid.points)
    lower = np.sum(factors[:, None, None] * sandwich(t_nodes, 1.0), axis=0)
    if job.min_eig >= _KERNEL_FLOOR:
        lower += np.exp((1.0 + sigma) * s_min) / (1.0 + sigma) * (np.linalg.inv(x) - np.linalg.inv(y))
    else:
        # the tail below t_min of a zero eigenvalue: t_min^sigma / sigma (P_ker X - P_ker Y)
        p_ker = [v[:, w <= 0] @ v[:, w <= 0].conj().T for w, v in map(np.linalg.eigh, (x, y))]
        lower += np.exp(sigma * s_min) / sigma * (p_ker[0] - p_ker[1])
    xj, wj = gauss_jacobi(upper_nodes, 0.0, -sigma)
    upper = 2.0 ** (sigma - 1.0) * np.sum(wj[:, None, None] * sandwich(1.0, (1.0 + xj) / 2.0), axis=0)
    return c_sigma(sigma) * (lower + upper)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    sigma=st.floats(0.05, 0.95),
    case=st.sampled_from(("general", "zero-eigenvalue", "unit-eigenvalue", "equal", "commuting-diagonal")),
    nodes=st.sampled_from((200, 400)),
)
def test_kernel_pass_matches_the_solve_based_pass(seed, n, sigma, case, nodes):
    # an exact zero eigenvalue needs the diagonal form: rotated, eigh returns about +-1e-16 and
    # both passes sample the integrand where t is that small
    rng = np.random.default_rng(seed)
    y = random_psd_contraction(rng, n)
    if case == "general":
        x = random_psd_contraction(rng, n)
    elif case == "equal":
        x = y
    else:
        d = rng.uniform(0.05, 0.95, size=n)
        d[0] = {"zero-eigenvalue": 0.0, "unit-eigenvalue": 1.0}.get(case, d[0])
        x = np.diag(d)
        y = np.diag(rng.uniform(0.05, 0.95, size=n)) if case == "commuting-diagonal" else y
    job = FractionalJob(x=x, y=y, sigma=sigma, alpha=1.0, beta=0.0)
    want = _solve_based_pass(job, nodes)
    assert np.linalg.norm(_fractional_diff_pass(job, nodes) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "x, y, sigma",
    [
        ((0.0, 0.5), (0.3, 0.6), 0.05),
        ((0.0, 0.5), (0.3, 0.6), 0.1),
        ((0.0, 0.5), (0.3, 0.6), 0.2),
        ((0.4, 0.5), (0.0, 0.7), 0.1),
    ],
)
def test_quadrature_keeps_the_small_t_tail_of_a_zero_eigenvalue(x, y, sigma):
    # at a zero eigenvalue the integrand decays only as t^sigma below t_min, a mass of t_min^sigma / sigma
    job = FractionalJob(x=np.diag(x), y=np.diag(y), sigma=sigma, alpha=1.0, beta=0.0)
    want = fractional_power(job.y, sigma) - fractional_power(job.x, sigma)
    assert np.linalg.norm(fractional_diff_quadrature(job) - want) <= 1e-12 * np.linalg.norm(want)


def test_quadrature_takes_no_solve_and_no_inverse(monkeypatch):
    rng = np.random.default_rng(11)
    job = FractionalJob(x=random_psd_contraction(rng, 6), y=random_psd_contraction(rng, 6),
                        sigma=0.4, alpha=0.8, beta=0.1)
    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: pytest.fail(f"the quadrature called {name}"))
    out = fractional_diff_quadrature(job)
    want = fractional_power(job.y, 0.4) - fractional_power(job.x, 0.4)
    assert np.linalg.norm(out - want) <= 1e-8 * np.linalg.norm(want)


def test_quadrature_memory_on_a_dim64_job_stays_under_4_mib():
    # a pass holds (nodes x n) node tables and n-square matrices, no (nodes x n x n) stack
    sc = parse_scenario(generate_scenario("fractional", 3, 64))
    e = sc.exponents
    job = FractionalJob(x=sc.matrices[0], y=sc.matrices[1], sigma=e["sigma"], alpha=e["alpha"], beta=e["beta"])
    fractional_diff_quadrature(job, nodes=sc.quadrature_nodes)  # warm the Gauss-Jacobi cache
    tracemalloc.start()
    try:
        fractional_diff_quadrature(job, nodes=sc.quadrature_nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def coarse_pass_moved(monkeypatch, job, nodes, drift) -> np.ndarray:
    """Make the coarse pass the fine one moved by drift * (1 + |fine|) in Frobenius norm; return the fine pass."""
    fine = _fractional_diff_pass(job, 2 * nodes)
    n = fine.shape[0]
    coarse = fine + drift * (1.0 + np.linalg.norm(fine)) * np.eye(n) / np.sqrt(n)
    monkeypatch.setattr(fractional, "_fractional_diff_pass", lambda job, k: coarse if k == nodes else fine)
    return fine


def quadrature_job(smallest: float) -> FractionalJob:
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    x = (q * np.array([smallest, 0.3, 0.6, 0.9])) @ q.conj().T
    return FractionalJob(x=x, y=random_psd_contraction(rng, 4), sigma=0.4, alpha=0.8, beta=0.1)


@pytest.mark.parametrize("smallest, tolerance", [(0.05, 1e-8), (1e-4, 1e-4)], ids=["well-conditioned", "ill-conditioned"])
def test_node_doubling_that_moves_the_result_past_its_tolerance_raises(monkeypatch, smallest, tolerance):
    job = quadrature_job(smallest)
    assert job.ill_conditioned == (tolerance == 1e-4)
    fine = coarse_pass_moved(monkeypatch, job, 200, 0.5 * tolerance)
    assert fractional_diff_quadrature(job) is fine
    coarse_pass_moved(monkeypatch, job, 200, 2.0 * tolerance)
    with pytest.raises(QuadratureDivergence, match=f"tolerance {tolerance:.1e}"):
        fractional_diff_quadrature(job)


def test_an_ill_conditioned_job_takes_a_drift_the_well_conditioned_tolerance_refuses(monkeypatch):
    job = quadrature_job(1e-4)
    fine = coarse_pass_moved(monkeypatch, job, 200, 1e3 * 1e-8)
    assert fractional_diff_quadrature(job) is fine


def test_a_diverging_quadrature_fails_the_run_as_a_numeric_error(monkeypatch):
    # each pass moved by 1 / nodes in every entry: node doubling no longer settles
    exact = fractional._fractional_diff_pass
    monkeypatch.setattr(fractional, "_fractional_diff_pass", lambda job, k: exact(job, k) + 1.0 / k)
    report = run_scenario(parse_scenario(generate_scenario("fractional", 1, 3)))
    assert not report.all_pass
    last = report.records[-1]
    assert (last.check_id, last.passed) == ("numeric-completion", False)
    assert report.flags["numeric_error"].startswith("QuadratureDivergence: node doubling moved the result by ")


# ---------------------------------------------------------------------------
# the Schatten bound


def test_bound_equal_pair():
    x = np.diag([0.25, 0.5])
    rep = fractional_power_bound_report(job_for(x, x))
    assert rep.lhs == 0.0
    assert rep.bound == 0.0
    assert rep.holds


def test_bound_scalar_hand_values():
    rep = fractional_power_bound_report(job_for(np.diag([0.25]), np.diag([0.75])))
    assert rep.lhs == pytest.approx(np.sqrt(3) / 2 - 0.5, abs=1e-12)
    assert rep.bound == pytest.approx(5.0 / np.pi, abs=1e-12)
    assert rep.weighted_norm == pytest.approx(2.0, abs=1e-12)
    assert rep.holds
    assert rep.corollary_form


def test_bound_randomized_sweep():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        x = random_psd_contraction(rng, n)
        y = random_psd_contraction(rng, n)
        sigma, alpha, beta = admissible_exponents(rng)
        p = float(rng.choice([1.0, 2.0]))
        rep = fractional_power_bound_report(
            FractionalJob(x=x, y=y, sigma=sigma, alpha=alpha, beta=beta, p=p)
        )
        assert rep.holds, (seed, sigma, alpha, beta, p, rep.slack)
        assert rep.slack >= -1e-10


def test_bound_rejects_singular():
    with pytest.raises(KernelViolation):
        fractional_power_bound_report(job_for(np.diag([0.0, 0.5]), np.diag([0.5, 0.5])))


# ---------------------------------------------------------------------------
# resolvent identity and proof bounds


def test_identity_equal_pair():
    x = np.diag([0.3, 0.6])
    assert resolvent_difference_identity_check(x, x, 1.0) == 0.0


def test_identity_scalar_eight_thirty_fifths():
    x = np.diag([0.25])
    y = np.diag([0.75])
    # LHS = 3/7 - 1/5 = 8/35 and RHS matches it exactly
    lhs = 0.75 / 1.75 - 0.25 / 1.25
    assert lhs == pytest.approx(8.0 / 35.0, abs=1e-15)
    assert resolvent_difference_identity_check(x, y, 1.0) <= 1e-16


def test_identity_seed79():
    rng = np.random.default_rng(79)
    x = random_psd_contraction(rng, 6, lo=0.0, hi=1.0)
    y = random_psd_contraction(rng, 6, lo=0.0, hi=1.0)
    for t in (0.01, 1.0, 100.0):
        assert resolvent_difference_identity_check(x, y, t) <= 1e-11


def test_identity_rejects_tiny_t():
    x = np.diag([0.5])
    with pytest.raises(ValidationError):
        resolvent_difference_identity_check(x, x, 1e-12)


def test_proof_resolvent_norm_bounds():
    rng = np.random.default_rng(23)
    y = random_psd_contraction(rng, 5)
    x = random_psd_contraction(rng, 5)
    sigma, alpha = 0.6, 0.8
    eye = np.eye(5)
    for t in np.logspace(-6, 0, 50):
        ry = np.linalg.inv(t * eye + y)
        lhs = t**sigma * operator_norm(ry)
        assert lhs <= t ** (sigma - 1.0) * (1 + 1e-12) + 1e-12
        wx, vx = np.linalg.eigh(x)
        xa = (vx * np.clip(wx, 0, None) ** alpha) @ vx.conj().T
        lhs2 = operator_norm(xa @ np.linalg.inv(t * eye + x))
        assert lhs2 <= t ** (alpha - 1.0) * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# Gauss-Jacobi rule for the weight (1 + x)^(-sigma)

RULE_SIZES = (24, 25, 50, 100, 250, 500)
RULE_SIGMAS = (0.01, 0.05, 0.5, 0.95, 0.99)


@pytest.mark.parametrize("n", RULE_SIZES)
@pytest.mark.parametrize("sigma", RULE_SIGMAS)
def test_gauss_jacobi_integrates_the_moments_exactly(n, sigma):
    # integral_-1^1 (1+x)^(j - sigma) dx = 2^(j+1-sigma)/(j+1-sigma), exact for j < 2n;
    # both sides are divided by 2^j so the high powers stay in range
    x, w = gauss_jacobi(n, 0.0, -sigma)
    j = np.arange(2 * n)
    moments = (w * ((1.0 + x) / 2.0) ** j[:, None]).sum(axis=1)
    exact = 2.0 ** (1.0 - sigma) / (j + 1.0 - sigma)
    bound = 1e-13 if sigma <= 0.5 else 2e-9
    assert np.max(np.abs(moments / exact - 1.0)) <= bound


@pytest.mark.parametrize("n", (1, 2, 3, *RULE_SIZES))
@pytest.mark.parametrize("sigma", RULE_SIGMAS)
def test_gauss_jacobi_nodes_inside_and_weights_sum_to_mu0(n, sigma):
    x, w = gauss_jacobi(n, 0.0, -sigma)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0)
    mu0 = 2.0 ** (1.0 - sigma) / (1.0 - sigma)
    assert abs(w.sum() - mu0) <= 1e-14 * mu0


@pytest.mark.parametrize("n", (1, 2, 5, *RULE_SIZES))
@pytest.mark.parametrize("a, b", [(0.0, -s) for s in RULE_SIGMAS] + [(0.3, -0.4), (-0.3, -0.7), (2.0, 1.5)])
def test_gauss_jacobi_nodes_match_scipy(n, a, b):
    special = pytest.importorskip("scipy.special")
    x, _ = gauss_jacobi(n, a, b)
    with np.errstate(invalid="ignore"):  # SciPy divides 0/0 at a + b = -1, then patches it
        ref, _ = special.roots_jacobi(n, a, b)
    assert np.max(np.abs(x - ref)) <= 1e-14


def test_gauss_jacobi_validation():
    for n, a, b in ((0, 0.0, -0.5), (4, -1.0, 0.0), (4, 0.0, -1.0)):
        with pytest.raises(ValidationError):
            gauss_jacobi(n, a, b)


def test_min_eig_is_taken_from_validation(monkeypatch):
    rng = np.random.default_rng(5)
    x = random_psd_contraction(rng, 4)
    y = random_psd_contraction(rng, 4)
    job = FractionalJob(x=x, y=y, sigma=0.5, alpha=0.5, beta=0.25)
    direct = max(float(min(np.linalg.eigvalsh(job.x.m).min(), np.linalg.eigvalsh(job.y.m).min())), 0.0)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("min_eig ran an eigensolve"))
    assert job.min_eig == direct
    assert job.ill_conditioned == (direct < 1e-3)
