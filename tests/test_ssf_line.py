import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab.dilation import dilation_pair
from ssflab.errors import KernelViolation, ValidationError
from ssflab import linalg
from ssflab.linalg import Dissipative, cayley
from ssflab.scenario import generate_scenario, parse_scenario
from ssflab.schrodinger import discrete_schrodinger_pair
from ssflab.ssf_circle import StepSSF, unitary_ssf
from ssflab.ssf_line import (
    LineSSF,
    cayley_identity_residuals,
    dissipative_condition_report,
    dissipative_ssf,
    perturbation_trace_report,
    resolvent_trace_residual,
    weighted_abs_integral,
)

TWO_PI = 2.0 * np.pi


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_dissipative(rng, n, *, strict=True):
    h = random_hermitian(rng, n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    im = (g @ g.conj().T) / n
    if strict:
        im = im + 0.1 * np.eye(n)
    return Dissipative(h + 1j * im)


# ---------------------------------------------------------------------------
# pushforward geometry


def test_pushforward_hand_computed():
    step = unitary_ssf(np.array([[1.0 + 0j]]), np.array([[1j]]))
    line = LineSSF(step)
    assert line.mass_at_infinity == 1
    assert np.allclose(line.breakpoints, [-1.0], atol=1e-14)
    assert np.allclose(line.values, [0.75, -0.25], atol=1e-14)
    assert line.windowed_integral(2.0) == pytest.approx(0.0, abs=1e-14)
    # weighted integral, both closed forms, against the hand value 3 pi / 8
    assert weighted_abs_integral(line, "line") == pytest.approx(3 * np.pi / 8, abs=1e-14)
    assert weighted_abs_integral(line, "circle") == pytest.approx(3 * np.pi / 8, abs=1e-14)


def test_pushforward_jumps_are_the_source_integer_sizes():
    # with this gauge the differences of the line values are not all exact:
    # -0.9 - (-1.9) rounds to 0.9999999999999999
    step = StepSSF(jumps=((0.3, 1), (1.1, -3), (2.9, 1), (TWO_PI, 1)), gauge=0.1)
    line = LineSSF(step)
    assert line.jump_sizes.dtype.kind == "i"
    assert line.jump_sizes.tolist() == [1, -3, 1]
    assert line.mass_at_infinity == 1


def test_pushforward_breakpoints_sorted():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        l0 = random_dissipative(rng, 3)
        l1 = random_dissipative(rng, 3)
        line = dissipative_ssf(l0, l1, 8)
        assert np.all(np.diff(line.breakpoints) > 0)
        assert len(line.values) == len(line.breakpoints) + 1


@st.composite
def circle_steps(draw):
    """Random StepSSF on a 4096-point angle grid, optionally with jumps at 2pi."""
    n = draw(st.integers(0, 24))
    at_seam = n > 0 and draw(st.booleans())
    cells = draw(st.lists(st.integers(1, 4095), min_size=n, max_size=n, unique=True))
    thetas = [TWO_PI * k / 4096 for k in sorted(cells)[: n - at_seam]] + [TWO_PI] * at_seam
    sizes = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n, max_size=n))
    if n:
        sizes[-1] -= sum(sizes)
    jumps = tuple((th, s) for th, s in zip(thetas, sizes) if s)
    return StepSSF(jumps=jumps, gauge=draw(st.floats(-10.0, 10.0)))


@settings(max_examples=80, deadline=None)
@given(step=circle_steps())
def test_pushforward_of_a_random_step(step):
    line = LineSSF(step)
    k = len(line.breakpoints)
    thetas = step.thetas[:k]
    assert np.all(thetas < TWO_PI)
    assert line.breakpoints == pytest.approx(-np.cos(thetas / 2) / np.sin(thetas / 2), rel=1e-14)
    assert np.all(np.diff(line.breakpoints) > 0)
    assert line.values.tolist() == step.levels[: k + 1].tolist()


@settings(max_examples=80, deadline=None)
@given(step=circle_steps())
def test_line_jump_sum_balances_mass_at_infinity(step):
    line = LineSSF(step)
    assert int(line.jump_sizes.sum()) + line.mass_at_infinity == 0
    scale = 1.0 + abs(step.gauge) + 3 * len(step.jumps)
    assert np.diff(line.values) == pytest.approx(line.jump_sizes, abs=1e-14 * scale)
    assert line.values[-1] - line.values[0] == pytest.approx(-line.mass_at_infinity, abs=1e-14 * scale)


@settings(max_examples=80, deadline=None)
@given(step=circle_steps(), shift=st.floats(-5.0, 5.0))
def test_line_gauge_shift_moves_values_only(step, shift):
    line = LineSSF(step)
    moved = LineSSF(StepSSF(jumps=step.jumps, gauge=step.gauge + shift))
    assert moved.breakpoints.tolist() == line.breakpoints.tolist()
    assert moved.jump_sizes.tolist() == line.jump_sizes.tolist()
    assert moved.mass_at_infinity == line.mass_at_infinity
    scale = 1.0 + abs(step.gauge) + abs(shift) + 3 * len(step.jumps)
    assert moved.values == pytest.approx(line.values + shift, abs=1e-14 * scale)


def test_line_ssf_validation():
    # -cot(theta / 2) is -inf at theta = 5e-324
    with pytest.raises(ValidationError, match="finite"):
        LineSSF(StepSSF(jumps=((5e-324, 1), (1.0, -1)), gauge=0.0))


@pytest.mark.parametrize("theta", [5e-324, 1e-308])
def test_a_jump_too_near_zero_for_a_finite_breakpoint_is_refused(theta):
    with pytest.raises(ValidationError):
        LineSSF(StepSSF(jumps=((theta, 1), (TWO_PI, -1)), gauge=0.0))
    # the smallest normal angle still has a finite breakpoint, about -9e307
    line = LineSSF(StepSSF(jumps=((2.2250738585072014e-308, 1), (TWO_PI, -1)), gauge=0.0))
    assert np.isfinite(line.breakpoints).all() and line.breakpoints[0] < -8e307


@st.composite
def steps_off_zero(draw):
    """Jumps anywhere in [1e-9, 2pi], at 2pi or not, sizes -2..2, any finite gauge."""
    positions = st.floats(1e-9, TWO_PI) | st.sampled_from([1e-9, 1e-05, 1e-4, 1.0, np.pi, TWO_PI])
    thetas = sorted(set(draw(st.lists(positions, max_size=12))))
    if draw(st.booleans()) and thetas and thetas[-1] < TWO_PI:
        thetas.append(TWO_PI)
    if len(thetas) < 2:
        thetas = []
    sizes = draw(st.lists(st.integers(-2, 2).filter(bool), min_size=len(thetas), max_size=len(thetas)))
    if thetas and sum(sizes[:-1]) == 0:
        sizes[0] += 1 if sizes[0] != -1 else -1
    sizes[-1:] = [-sum(sizes[:-1])] * bool(thetas)
    gauge = draw(st.floats(-1e300, 1e300) | st.sampled_from([-0.0, 5e-324, 1e16, 9999999999999998.0]))
    return StepSSF(jumps=tuple(zip(thetas, sizes)), gauge=gauge)


def stored_arrays(step):
    """Breakpoints, values, jump sizes and mass at infinity as a LineSSF built from arrays stored them."""
    k = int(np.searchsorted(step.thetas, TWO_PI - 1e-12))
    with np.errstate(divide="ignore"):
        breakpoints = -1.0 / np.tan(step.thetas[:k] / 2.0)
    values = step.levels[: k + 1]
    return np.asarray(breakpoints, dtype=float), np.asarray(values, dtype=float), step.sizes[:k], int(step.sizes[k:].sum())


@settings(max_examples=150, deadline=None)
@given(step=steps_off_zero())
def test_a_line_ssf_reads_its_source_bit_for_bit(step):
    line = LineSSF(step)
    assert line.source is step
    breakpoints, values, sizes, mass = stored_arrays(step)
    for ours, theirs in ((line.breakpoints, breakpoints), (line.values, values), (line.jump_sizes, sizes)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
    assert type(line.mass_at_infinity) is int and line.mass_at_infinity == mass


# ---------------------------------------------------------------------------
# dissipative route


def test_dissipative_ssf_equal_pair():
    rng = np.random.default_rng(1)
    l = random_dissipative(rng, 3)
    line = dissipative_ssf(l, l, 6)
    assert len(line.breakpoints) == 0
    assert np.allclose(line.values, [0.0])


def test_dilation_solve_is_real_for_a_schrodinger_pair_and_complex_for_a_random_one(monkeypatch):
    # -Lap + q is complex symmetric, so its dilation eigensolve runs on the
    # real fold; a random dissipative pair has no such symmetry. The free
    # operator L0 is also normal: its solve is one stack of n scalar
    # m-square dilations, each folded to real, and no (m n)-square one
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append((a.shape, a.dtype)) or eigvalsh(a))
    n, m = 6, 24
    x = np.linspace(-4.0, 4.0, n)
    schrodinger_pair = discrete_schrodinger_pair((1.0 + 0.5j) * np.exp(-x * x), float(x[1] - x[0]))
    rng = np.random.default_rng(73)
    random_pair = (random_dissipative(rng, n), random_dissipative(rng, n))
    real = {np.dtype(np.float64)}
    for pair, dtypes, dilations, scalar_dtypes in (
        (schrodinger_pair, real, 1, real),
        (random_pair, {np.dtype(np.complex128)}, 2, set()),
    ):
        solves.clear()
        dissipative_ssf(*pair, m)
        dilation_solves = [d for shape, d in solves if shape == (m * n, m * n)]
        assert len(dilation_solves) >= dilations and set(dilation_solves) == dtypes
        assert {d for shape, d in solves if shape == (n, m, m)} == scalar_dtypes


def test_dissipative_ssf_scalar_resolvent_needs_enough_blocks():
    l0 = Dissipative(np.array([[1j]]))
    l1 = Dissipative(np.array([[2j]]))
    assert np.allclose(cayley(l0).m, [[0.0]], atol=1e-15)
    assert np.allclose(cayley(l1).m, [[1.0 / 3.0]], atol=1e-15)
    z = -2j
    coarse = resolvent_trace_residual(l0, l1, dissipative_ssf(l0, l1, 6), z)
    fine = resolvent_trace_residual(l0, l1, dissipative_ssf(l0, l1, 20), z)
    # the block count controls accuracy geometrically: at m = 6 the residual
    # is still of order 3^-(m-1), far above the m = 20 figure
    assert 1e-6 < coarse < 1e-1
    assert fine <= 1e-6


def test_dissipative_ssf_weighted_integral_closed_forms_seed61():
    rng = np.random.default_rng(61)
    l0 = random_dissipative(rng, 4)
    l1 = random_dissipative(rng, 4)
    line = dissipative_ssf(l0, l1, 20)
    a = weighted_abs_integral(line, "line")
    b = weighted_abs_integral(line, "circle")
    assert abs(a - b) <= 1e-12 * (1 + abs(b))
    assert np.isfinite(a) and a >= 0


# ---------------------------------------------------------------------------
# resolvent trace formula


def test_resolvent_residual_equal_pair():
    rng = np.random.default_rng(2)
    l = random_dissipative(rng, 3)
    line = dissipative_ssf(l, l, 6)
    assert resolvent_trace_residual(l, l, line, -1j) <= 1e-14


def test_resolvent_residual_seed61():
    rng = np.random.default_rng(61)
    l0 = random_dissipative(rng, 4)
    l1 = random_dissipative(rng, 4)
    line = dissipative_ssf(l0, l1, 24)
    assert resolvent_trace_residual(l0, l1, line, -1.0 - 1j) <= 1e-6


def test_resolvent_residual_geometric_decay():
    rng = np.random.default_rng(11)
    l0 = random_dissipative(rng, 4)
    l1 = random_dissipative(rng, 4)
    z = -2j
    coarse = resolvent_trace_residual(l0, l1, dissipative_ssf(l0, l1, 12), z)
    fine = resolvent_trace_residual(l0, l1, dissipative_ssf(l0, l1, 24), z)
    assert coarse / max(fine, 1e-300) >= 1e3


# generated contraction pairs (m = 6) whose solves moved the fixed first pole of unitary_spectrum
_RETRIED_CONTRACTION_FILES = [(200, 32), (200, 64), (500, 48), (500, 64), (1400, 32), (1400, 48), (1400, 64)]


@pytest.mark.parametrize(
    "case",
    [*range(16, 25), *(pytest.param(f, id=f"contraction_pair-{f[0]}-{f[1]}") for f in _RETRIED_CONTRACTION_FILES)],
)
def test_the_line_dilations_first_pole_is_not_moved(monkeypatch, case):
    # with the fixed first pole of unitary_spectrum, solves of these line
    # pairs moved it at m = 20 and 21, and so did solves of those generated
    # contraction files
    eigvalsh, solves = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: solves.append(a.shape) or eigvalsh(a, *args))
    if not isinstance(case, int):
        sc = parse_scenario(generate_scenario("contraction_pair", *case))
        for d in dilation_pair(*sc.matrices, sc.dilation_order):
            solves.clear()
            d.eigenphases()
            assert solves == [(d.m * d.n, d.m * d.n)]
        return
    m, rng = case, np.random.default_rng(2027)
    pairs = [(random_dissipative(rng, n), random_dissipative(rng, n)) for n in (3, 5, 8, 12) for _ in range(2)]
    for l0, l1 in pairs:
        cayley(l0).defects, cayley(l1).defects  # validated and factored before counting
        solves.clear()
        dissipative_ssf(l0, l1, m)
        assert solves == [(m * l0.n, m * l0.n)] * 2


def test_resolvent_residual_rejects_upper_half_plane():
    l = Dissipative(np.array([[1j]]))
    line = dissipative_ssf(l, l, 4)
    with pytest.raises(ValidationError):
        resolvent_trace_residual(l, l, line, 1j)


# ---------------------------------------------------------------------------
# trace of the perturbation


def test_perturbation_trace_equal_pair():
    rng = np.random.default_rng(3)
    l = random_dissipative(rng, 3)
    rep = perturbation_trace_report(l, l, dissipative_ssf(l, l, 6), radii=(1.0, 5.0))
    assert rep.perturbation_trace == 0
    assert rep.real_integrable_possible
    assert all(v == 0.0 for _, v in rep.windowed)
    assert rep.left_tail == rep.right_tail == 0.0


def test_perturbation_trace_rank_one_imaginary_bump():
    rng = np.random.default_rng(4)
    l0 = random_dissipative(rng, 3)
    bump = np.zeros((3, 3), dtype=complex)
    bump[0, 0] = 1j
    l1 = Dissipative(l0.m + bump)
    rep = perturbation_trace_report(l0, l1, dissipative_ssf(l0, l1, 8))
    assert rep.perturbation_trace == pytest.approx(1j, abs=1e-14)
    assert not rep.real_integrable_possible


def test_perturbation_trace_self_adjoint_pair():
    l0 = Dissipative(np.zeros((1, 1)))
    l1 = Dissipative(np.array([[1.0 + 0j]]))
    rep = perturbation_trace_report(l0, l1, dissipative_ssf(l0, l1, 8))
    assert rep.perturbation_trace == pytest.approx(1.0, abs=1e-14)
    assert rep.real_integrable_possible


# ---------------------------------------------------------------------------
# Cayley identities


def test_cayley_identities_scalar():
    rep = cayley_identity_residuals(np.array([[1j]]), np.array([[1j]]))
    assert rep.max_residual() <= 1e-14


def test_cayley_identities_seed67():
    rng = np.random.default_rng(67)
    l0 = random_dissipative(rng, 3)
    l1 = random_dissipative(rng, 3)
    rep = cayley_identity_residuals(l0, l1)
    assert max(rep.defect_sq_residuals) <= 1e-10
    assert max(rep.adjoint_defect_sq_residuals) <= 1e-10
    assert rep.resolvent_difference_residual <= 1e-10


def test_cayley_identities_self_adjoint():
    rng = np.random.default_rng(5)
    h0 = random_hermitian(rng, 4)
    h1 = random_hermitian(rng, 4)
    rep = cayley_identity_residuals(h0, h1)
    # Im L = 0 makes G = 0 and the Cayley images unitary with zero defects
    assert rep.max_residual() <= 1e-9


# ---------------------------------------------------------------------------
# weighted-difference condition


def test_a_dissipative_pair_is_factorised_once_per_operator(monkeypatch):
    # the Cayley image, (L + iI)^(-1) and the eigendecomposition of Im L are
    # cached on each operator, so the identity residuals, the condition
    # report and the line SSF share them
    calls = {"eigh": 0, "cond": 0, "inv": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(8)
    l0, l1 = random_dissipative(rng, 8), random_dissipative(rng, 8)
    cayley_identity_residuals(l0, l1)
    dissipative_condition_report(l0, l1)
    dissipative_ssf(l0, l1, 6)
    assert calls == {"eigh": 2, "cond": 2, "inv": 2}
    for l in (l0, l1):
        for cached in (l.imag_eigh[0], l.imag_eigh[1], l.resolvent_minus_i, l.cayley_image.m):
            assert not cached.flags.writeable


def test_each_operator_forms_its_root_of_im_l_once_across_both_reports(monkeypatch):
    # G and its twin are cached on the operator; the weighted norm forms no inverse root
    formed, function = [], linalg.hermitian_function
    monkeypatch.setattr(linalg, "hermitian_function", lambda a, f: formed.append(a[1].shape) or function(a, f))
    rng = np.random.default_rng(9)
    l0, l1 = random_dissipative(rng, 5), random_dissipative(rng, 5)
    identities = cayley_identity_residuals(l0, l1)
    condition = dissipative_condition_report(l0, l1, p=2)
    assert formed == [(5, 5), (5, 5)]
    for l in (l0, l1):
        root = (l.imag_eigh[1] * np.sqrt(l.imag_eigh[0])) @ l.imag_eigh[1].conj().T
        g, g_twin = l.g_pair
        assert l.g_pair is l.g_pair and not g.flags.writeable and not g_twin.flags.writeable
        assert np.linalg.norm(g - root @ l.resolvent_minus_i) <= 1e-13
        assert np.linalg.norm(g_twin - l.resolvent_minus_i @ root) <= 1e-13
    assert identities.max_residual() <= 1e-12
    assert condition.sqrt_im_resolvent_norms == tuple(np.linalg.norm(l.g_pair[0], 2) for l in (l0, l1))


def test_condition_report_equal_pair():
    rng = np.random.default_rng(6)
    l = random_dissipative(rng, 3)
    rep = dissipative_condition_report(l, l)
    assert rep.weighted_diff_norm == pytest.approx(0.0, abs=1e-13)
    assert rep.resolvent_diff_trace_norm == pytest.approx(0.0, abs=1e-13)


def test_condition_report_scalar():
    rep = dissipative_condition_report(np.array([[1j]]), np.array([[1.0 + 1j]]), p=1)
    assert rep.weighted_diff_norm == pytest.approx(1.0, abs=1e-14)
    assert all(np.isfinite(rep.sqrt_im_resolvent_norms))
    assert all(np.isfinite(rep.resolvent_sqrt_im_norms))


def test_condition_report_rejects_singular_imaginary_part():
    with pytest.raises(KernelViolation):
        dissipative_condition_report(np.zeros((2, 2)), np.eye(2))


def test_condition_report_norms_match_direct_formulas():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        l0 = random_dissipative(rng, 4)
        l1 = random_dissipative(rng, 4)
        rep = dissipative_condition_report(l0, l1, p=2)
        im0 = (l0.m - l0.m.conj().T) / 2j
        im1 = (l1.m - l1.m.conj().T) / 2j
        w0, v0 = np.linalg.eigh(im0)
        w1, v1 = np.linalg.eigh(im1)
        a = (v1 * w1**-0.5) @ v1.conj().T @ (l1.m - l0.m) @ (v0 * w0**-0.5) @ v0.conj().T
        direct = np.sqrt(np.sum(np.linalg.svd(a, compute_uv=False) ** 2))
        assert rep.weighted_diff_norm == pytest.approx(direct, rel=1e-10)
