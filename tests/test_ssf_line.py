import numpy as np
import pytest

from ssflab.errors import KernelViolation, ValidationError
from ssflab.linalg import Dissipative, cayley
from ssflab.ssf_circle import StepSSF, unitary_ssf
from ssflab.ssf_line import (
    LineSSF,
    cayley_identity_residuals,
    dissipative_condition_report,
    dissipative_ssf,
    perturbation_trace_report,
    pushforward_line,
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
    line = pushforward_line(step)
    assert line.mass_at_infinity == 1
    assert np.allclose(line.breakpoints, [-1.0], atol=1e-14)
    assert np.allclose(line.values, [0.75, -0.25], atol=1e-14)
    assert line.value(-2.0) == pytest.approx(0.75)
    assert line.value(-1.0) == pytest.approx(-0.25)  # breakpoint carries its jump
    assert line.windowed_integral(2.0) == pytest.approx(0.0, abs=1e-14)
    # weighted integral, both closed forms, against the hand value 3 pi / 8
    assert weighted_abs_integral(line, "line") == pytest.approx(3 * np.pi / 8, abs=1e-14)
    assert weighted_abs_integral(line, "circle") == pytest.approx(3 * np.pi / 8, abs=1e-14)


def test_pushforward_jumps_are_the_source_integer_sizes():
    # with this gauge the differences of the line values are not all exact:
    # -0.9 - (-1.9) rounds to 0.9999999999999999
    step = StepSSF(jumps=((0.3, 1), (1.1, -3), (2.9, 1), (TWO_PI, 1)), gauge=0.1)
    line = pushforward_line(step)
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


def test_line_ssf_validation():
    src = unitary_ssf(np.eye(2), np.eye(2))
    with pytest.raises(ValidationError):
        LineSSF(np.array([1.0, 0.5]), np.array([0.0, 1.0, 0.0]), src)
    with pytest.raises(ValidationError):
        LineSSF(np.array([0.5]), np.array([0.0]), src)
    with pytest.raises(ValidationError):
        # unequal tails without mass at infinity
        LineSSF(np.array([0.5]), np.array([0.0, 1.0]), src)


# ---------------------------------------------------------------------------
# dissipative route


def test_dissipative_ssf_equal_pair():
    rng = np.random.default_rng(1)
    l = random_dissipative(rng, 3)
    line = dissipative_ssf(l, l, 6)
    assert len(line.breakpoints) == 0
    assert np.allclose(line.values, [0.0])


def test_dissipative_ssf_scalar_resolvent_needs_enough_blocks():
    l0 = Dissipative(np.array([[1j]]))
    l1 = Dissipative(np.array([[2j]]))
    assert np.allclose(cayley(l0).contraction.m, [[0.0]], atol=1e-15)
    assert np.allclose(cayley(l1).contraction.m, [[1.0 / 3.0]], atol=1e-15)
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
