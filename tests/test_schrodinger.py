"""Checks for the interval Schrodinger scenery.

Frozen kernel values first (diagonal 1/2 at z = -1, e^{-1}/2 one unit off
the diagonal, 1/4 at z = -4), then the Nystrom trace identities, the
monotone trace-norm ladder, and the discrete dissipative pair fed through
the full circle-to-line pipeline.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab.errors import (
    BranchCut,
    DissipativityViolation,
    NegativePotential,
    SchemaError,
    ValidationError,
)
from ssflab import schrodinger
from ssflab.linalg import schatten_norm
from ssflab.schrodinger import (
    Grid1D,
    discrete_schrodinger_pair,
    green_kernel,
    kernel_trace_report,
    make_grid,
    monotone_s1_check,
    nystrom_kernel,
    potential_values,
)
from ssflab.ssf_line import (
    dissipative_condition_report,
    dissipative_ssf,
    resolvent_trace_residual,
    weighted_abs_integral,
)

HALF_SQRT_PI = 0.8862269254527580


# ---------------------------------------------------------------------------
# Green's kernel


def test_green_kernel_diagonal_at_minus_one():
    for x in (0.0, 1.5, -3.25):
        assert green_kernel(x, x, -1.0) == pytest.approx(0.5, abs=1e-15)


def test_green_kernel_one_unit_off_diagonal():
    expected = 0.18393972058572117  # e^{-1} / 2
    assert green_kernel(0.0, 1.0, -1.0) == pytest.approx(expected, abs=1e-15)
    assert green_kernel(1.0, 0.0, -1.0) == pytest.approx(expected, abs=1e-15)


def test_green_kernel_deeper_spectral_point():
    assert green_kernel(0.0, 0.0, -4.0) == pytest.approx(0.25, abs=1e-15)


def test_green_kernel_decaying_branch_for_complex_z():
    z = 2.0 - 0.5j
    near = green_kernel(0.0, 1.0, z)
    far = green_kernel(0.0, 10.0, z)
    assert abs(far) < abs(near) < abs(green_kernel(0.0, 0.0, z))
    assert green_kernel(3.0, -1.0, z) == pytest.approx(green_kernel(-1.0, 3.0, z))


def test_green_kernel_branch_guard():
    for z in (1.0, 0.0, 2.0 + 1e-15j, 5.0 - 1e-13j):
        with pytest.raises(BranchCut):
            green_kernel(0.0, 0.0, z)
    # strictly negative real z has a genuine decaying branch
    assert green_kernel(0.0, 2.0, -0.25) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_green_kernel_broadcasts():
    x = np.linspace(-2.0, 2.0, 7)
    block = green_kernel(x[:, None], x[None, :], -1.0)
    assert block.shape == (7, 7)
    for i in range(7):
        for j in range(7):
            assert block[i, j] == pytest.approx(green_kernel(x[i], x[j], -1.0))


# ---------------------------------------------------------------------------
# grids


def test_gauss_grid_weights_sum_to_length():
    grid = make_grid(-8.0, 8.0, 256)
    assert grid.n == 256
    assert grid.scheme == "gauss16"
    assert float(np.sum(grid.weights)) == pytest.approx(16.0, abs=1e-12)
    assert np.all(np.diff(grid.points) > 0)
    # a degree-31 monomial is integrated exactly by 16-point panels
    poly = grid.points**5
    assert np.sum(grid.weights * poly) == pytest.approx(0.0, abs=1e-9)


def test_trapezoid_grid():
    grid = make_grid(0.0, 1.0, 5, scheme="trapezoid")
    assert grid.scheme == "trapezoid"
    np.testing.assert_allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(grid.weights, [0.125, 0.25, 0.25, 0.25, 0.125])


def test_grid_validation():
    with pytest.raises(ValidationError):
        make_grid(-8.0, 8.0, 100)  # not a multiple of the panel size
    with pytest.raises(ValidationError):
        make_grid(1.0, 1.0, 16)
    with pytest.raises(ValidationError):
        make_grid(0.0, 1.0, 1, scheme="trapezoid")
    with pytest.raises(ValidationError):
        make_grid(0.0, 1.0, 16, scheme="simpson")
    with pytest.raises(ValidationError):
        Grid1D(points=np.array([0.0]), weights=np.array([2.0]), scheme="x", lo=-0.5, hi=0.5)
    with pytest.raises(ValidationError):
        Grid1D(points=np.array([0.0, 0.0]), weights=np.array([0.5, 0.5]), scheme="x", lo=-0.5, hi=0.5)


@pytest.mark.parametrize("scheme, n", [("gauss", 16), ("trapezoid", 5)])
def test_a_grid_whose_points_or_weights_overflow_is_refused(scheme, n):
    with pytest.raises(ValidationError, match="^grid points and weights must be finite$"):
        make_grid(-1e308, 1e308, n, scheme=scheme)


@pytest.mark.parametrize("bad", ["points", "weights"])
def test_a_grid_of_non_finite_points_or_weights_is_refused(bad):
    arrays = {"points": np.array([-0.25, 0.25]), "weights": np.array([0.5, 0.5])}
    arrays[bad] = np.array([arrays[bad][0], np.nan])
    with pytest.raises(ValidationError, match="^grid points and weights must be finite$"):
        Grid1D(**arrays, scheme="x", lo=-0.5, hi=0.5)


# ---------------------------------------------------------------------------
# Nystrom kernels


def single_point_grid():
    return Grid1D(
        points=np.array([0.0]),
        weights=np.array([1.0]),
        scheme="point",
        lo=-0.5,
        hi=0.5,
    )


def green_matrix(grid, z=-1.0):
    """R(x_i, x_j) on the grid points, evaluated here rather than by the module."""
    x = grid.points
    return np.asarray(green_kernel(x[:, None], x[None, :], z), dtype=np.complex128)


def test_single_point_kernel_value():
    grid = single_point_grid()
    kernel = nystrom_kernel(np.array([4.0]), green_matrix(grid), grid)
    assert isinstance(kernel, np.ndarray) and not kernel.flags.writeable
    np.testing.assert_allclose(kernel, [[2.0]], atol=1e-15)
    report = kernel_trace_report(np.array([4.0]), grid)
    assert report.trace == pytest.approx(2.0, abs=1e-15)
    assert report.trace_norm == pytest.approx(2.0, abs=1e-14)


def test_nystrom_rejects_bad_potentials():
    grid = make_grid(-1.0, 1.0, 16)
    r = green_matrix(grid)
    with pytest.raises(NegativePotential):
        nystrom_kernel(np.full(grid.n, -1e-3), r, grid)
    with pytest.raises(NegativePotential):
        nystrom_kernel(np.full(grid.n, 1.0 + 0.5j), r, grid)
    with pytest.raises(ValidationError):
        nystrom_kernel(np.ones(3), r, grid)
    # a tiny negative excursion is clipped, not fatal
    q = np.full(grid.n, 0.5)
    q[0] = -1e-15
    kernel = nystrom_kernel(q, r, grid)
    assert np.linalg.eigvalsh(kernel).min() >= -1e-12


def test_gaussian_trace_hits_half_sqrt_pi():
    grid = make_grid(-8.0, 8.0, 1024)
    report = kernel_trace_report({"kind": "gaussian"}, grid)
    assert report.trace == pytest.approx(HALF_SQRT_PI, abs=1e-4)
    assert report.trace_norm_gap <= 1e-10
    assert report.diagonal_integral == pytest.approx(report.trace, abs=1e-13)
    assert report.half_l1_target == pytest.approx(report.trace, abs=1e-12)
    assert report.min_eigenvalue >= -1e-10


def test_bump_with_unit_mass_traces_to_one():
    grid = make_grid(-8.0, 8.0, 1024)
    report = kernel_trace_report(
        {"kind": "bump", "half_width": 1.0, "taper": 0.75}, grid
    )
    assert report.trace == pytest.approx(1.0, abs=1e-4)
    assert report.trace_norm_gap <= 1e-10


def test_positivity_across_node_counts():
    for n in (256, 512):
        report = kernel_trace_report({"kind": "gaussian"}, make_grid(-8.0, 8.0, n))
        assert report.min_eigenvalue >= -1e-10
        assert report.trace_norm_gap <= 1e-10


def test_trace_is_stable_in_the_node_count():
    coarse = kernel_trace_report({"kind": "gaussian"}, make_grid(-8.0, 8.0, 512))
    fine = kernel_trace_report({"kind": "gaussian"}, make_grid(-8.0, 8.0, 1024))
    assert abs(coarse.trace - fine.trace) <= 1e-6
    assert abs(coarse.trace_norm - fine.trace_norm) <= 1e-6


def test_deeper_spectral_point_quarters_the_diagonal():
    grid = make_grid(-8.0, 8.0, 512)
    report = kernel_trace_report({"kind": "gaussian"}, grid, z=-4.0)
    assert report.trace == pytest.approx(HALF_SQRT_PI / 2.0, abs=1e-4)
    assert report.trace_norm_gap <= 1e-10


# ---------------------------------------------------------------------------
# monotone trace-norm ladder


def test_monotone_scaling_ladder_is_exact():
    grid = make_grid(-8.0, 8.0, 512)
    ns = (2, 4, 8, 16, 32, 64, 128)
    report = monotone_s1_check({"kind": "gaussian"}, grid, ns)
    assert report.variant == "scale"
    for n, resid in zip(report.n_values, report.residual_norms):
        assert abs(resid - report.full_norm / n) <= 1e-10
    assert all(b >= a - 1e-12 for a, b in zip(report.approx_norms, report.approx_norms[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(report.residual_norms, report.residual_norms[1:]))
    assert report.residual_norms[-1] <= report.full_norm / ns[-1] + 1e-10


def test_monotone_truncation_variant():
    grid = make_grid(-8.0, 8.0, 512)
    report = monotone_s1_check(
        {"kind": "gaussian"}, grid, (2, 4, 8, 16, 32, 64, 128), variant="truncate"
    )
    assert all(b >= a - 1e-12 for a, b in zip(report.approx_norms, report.approx_norms[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(report.residual_norms, report.residual_norms[1:]))
    # level * 128 exceeds the potential's sup, so the last rung is exact
    assert report.residual_norms[-1] <= 1e-10
    assert report.approx_norms[-1] == pytest.approx(report.full_norm, abs=1e-10)


def test_monotone_validation():
    grid = make_grid(-1.0, 1.0, 16)
    with pytest.raises(ValidationError):
        monotone_s1_check({"kind": "gaussian"}, grid, (4, 2))
    with pytest.raises(ValidationError):
        monotone_s1_check({"kind": "gaussian"}, grid, ())
    with pytest.raises(ValidationError):
        monotone_s1_check({"kind": "gaussian"}, grid, (2, 4), variant="relabel")


def test_monotone_rejects_a_complex_potential():
    grid = make_grid(-1.0, 1.0, 16)
    with pytest.raises(NegativePotential):
        monotone_s1_check({"kind": "gaussian", "amplitude": 1.0 + 0.5j}, grid, (2, 4))


@pytest.mark.parametrize("variant", ["scale", "truncate"])
@pytest.mark.parametrize("q", [{"kind": "gaussian", "amplitude": -1.0}, lambda x: x], ids=["negative", "mixed-sign"])
def test_monotone_refuses_a_negative_potential_as_the_kernel_does(q, variant):
    grid = make_grid(-8.0, 8.0, 64)
    with pytest.raises(NegativePotential):
        monotone_s1_check(q, grid, (2, 4), variant=variant)
    with pytest.raises(NegativePotential):
        kernel_trace_report(q, grid)


def _ladder_by_svd(q, grid, ns, variant, level=0.01):
    """The ladder's norms one SVD at a time, as schatten_norm gives them."""
    r = green_matrix(grid)
    full = nystrom_kernel(q, r, grid)
    rungs = [
        nystrom_kernel(q * (1.0 - 1.0 / n) if variant == "scale" else np.minimum(q, level * n), r, grid)
        for n in ns
    ]
    return (
        schatten_norm(full, 1),
        [schatten_norm(k, 1) for k in rungs],
        [schatten_norm(full - k, 1) for k in rungs],
    )


@pytest.mark.parametrize("variant", ["scale", "truncate"])
def test_monotone_ladder_takes_one_eigensolve_and_matches_the_svd_norms(variant, monkeypatch):
    grid = make_grid(-8.0, 8.0, 64)
    q = potential_values({"kind": "gaussian"}, grid.points)
    ns = (2, 4, 8, 16, 32, 64, 128)
    full, approx, residual = _ladder_by_svd(q, grid, ns, variant)

    solves, builds = [], []
    eigvalsh, build = np.linalg.eigvalsh, schrodinger.nystrom_kernel
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("the ladder ran an SVD"))
    monkeypatch.setattr(schrodinger, "nystrom_kernel", lambda *a: builds.append(1) or build(*a))
    report = monotone_s1_check({"kind": "gaussian"}, grid, ns, variant=variant)

    assert solves == [(64, 64)] * (2 * len(ns) + 1)
    assert len(builds) == len(ns) + 1
    assert report.full_norm == pytest.approx(full, rel=1e-13)
    assert report.approx_norms == pytest.approx(approx, rel=1e-13)
    assert report.residual_norms == pytest.approx(residual, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("variant", ["scale", "truncate"])
def test_monotone_ladder_evaluates_the_greens_kernel_once_and_keeps_every_kernel_bitwise(variant, monkeypatch):
    grid = make_grid(-8.0, 8.0, 64)
    ns = (2, 4, 8, 16)
    evaluations, rungs = [], []
    green, build = schrodinger.green_kernel, schrodinger.nystrom_kernel
    monkeypatch.setattr(schrodinger, "green_kernel", lambda *a: evaluations.append(1) or green(*a))
    monkeypatch.setattr(schrodinger, "nystrom_kernel", lambda q, r, g: rungs.append((q, r)) or build(q, r, g))
    monotone_s1_check({"kind": "bump", "half_width": 2.0}, grid, ns, variant=variant, z=-0.7)
    assert len(evaluations) == 1 and len(rungs) == len(ns) + 1
    for q, r in rungs:
        shared = build(q, r, grid)
        own = build(q, green_matrix(grid, -0.7), grid)
        assert shared.tobytes() == own.tobytes()


def _ladder_by_one_stacked_solve(q, grid, ns, variant, level=0.01):
    """The ladder's norms from one eigvalsh of the stacked kernels, as the ladder once took them."""
    rmat = green_matrix(grid)
    full = nystrom_kernel(q, rmat, grid)
    ms = [full]
    for n in ns:
        kn = nystrom_kernel(q * (1.0 - 1.0 / n) if variant == "scale" else np.minimum(q, level * n), rmat, grid)
        ms += [kn, full - kn]
    stack = np.stack(ms)
    return np.abs(np.linalg.eigvalsh(stack if np.any(stack.imag) else stack.real)).sum(-1).tolist()


@pytest.mark.parametrize("nodes", [64, 128])
@pytest.mark.parametrize("variant", ["scale", "truncate"])
def test_monotone_ladder_norms_are_the_stacked_solve_bit_for_bit(variant, nodes):
    grid = make_grid(-8.0, 8.0, nodes)
    q = potential_values({"kind": "gaussian"}, grid.points)
    ns = (2, 4, 8, 16, 32, 64, 128)
    report = monotone_s1_check({"kind": "gaussian"}, grid, ns, variant=variant)
    norms = [report.full_norm, *sum(zip(report.approx_norms, report.residual_norms), ())]
    assert [x.hex() for x in norms] == [x.hex() for x in _ladder_by_one_stacked_solve(q, grid, ns, variant)]


@pytest.mark.parametrize("z", [-1.0, -0.3, -4.0, -1.0 + 1e-13j])
@pytest.mark.parametrize("twist", [0.0, 0.7])
def test_kernel_trace_norm_and_min_eigenvalue_share_one_eigensolve(z, twist, monkeypatch):
    # twist multiplies the kernel by exp(i twist (s - t)): still Hermitian, no longer real
    grid = make_grid(-8.0, 8.0, 64)
    bump = {"kind": "bump", "half_width": 2.0}
    x = grid.points
    twisted = green_matrix(grid, z) * np.exp(1j * twist * (x[:, None] - x[None, :]))
    kernel = nystrom_kernel(potential_values(bump, x), twisted, grid)
    assert not kernel.flags.writeable
    assert np.array_equal(kernel, kernel.conj().T)
    svd_norm = schatten_norm(kernel, 1)
    lowest = float(np.linalg.eigvalsh(kernel).min())
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.dtype) or eigvalsh(a))
    monkeypatch.setattr(schrodinger, "_green_matrix", lambda g, z: twisted)
    report = kernel_trace_report(bump, grid, z=z)
    assert report.trace_norm == pytest.approx(svd_norm, rel=1e-13)
    assert report.min_eigenvalue == pytest.approx(lowest, rel=1e-13, abs=1e-16)
    assert report.trace_norm == pytest.approx(report.trace, rel=1e-12)
    # a symmetric kernel is exactly real once symmetrized, and is solved in float64
    assert solves == [np.float64 if twist == 0.0 else np.complex128]


_POTENTIALS = st.one_of(
    st.builds(
        lambda a, c, w: {"kind": "gaussian", "amplitude": a, "center": c, "width": w},
        st.floats(0.0, 3.0), st.floats(-4.0, 4.0), st.floats(0.2, 3.0),
    ),
    st.builds(
        lambda a, c, h, t: {"kind": "bump", "amplitude": a, "center": c, "half_width": h, "taper": t * h},
        st.floats(0.0, 3.0), st.floats(-4.0, 4.0), st.floats(0.2, 3.0), st.floats(0.05, 1.0),
    ),
    st.lists(st.floats(0.0, 3.0), min_size=2, max_size=8).map(
        lambda qs: {"kind": "table", "x": np.linspace(-6.0, 6.0, len(qs)).tolist(), "q": qs}
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    q=_POTENTIALS,
    scheme=st.sampled_from(["gauss", "trapezoid"]),
    nodes=st.integers(16, 128),
    z=st.sampled_from([-1.0, -0.3, -4.0]),
)
def test_nystrom_kernel_is_a_read_only_exactly_hermitian_matrix(q, scheme, nodes, z):
    if scheme == "gauss":
        nodes -= nodes % 16  # whole 16-point panels
    grid = make_grid(-8.0, 8.0, nodes, scheme=scheme)
    kernel = nystrom_kernel(potential_values(q, grid.points), green_matrix(grid, z), grid)
    assert isinstance(kernel, np.ndarray) and kernel.shape == (nodes, nodes)
    assert not kernel.flags.writeable
    assert np.array_equal(kernel, kernel.conj().T)
    report = kernel_trace_report(q, grid, z=z)
    assert report.trace_norm == pytest.approx(schatten_norm(kernel, 1), rel=1e-12, abs=1e-300)


def test_generated_kernel_trace_file_runs_without_warnings():
    # the parser stores the potential's values as complex; a zero imaginary
    # part must be dropped without a ComplexWarning
    from ssflab.scenario import generate_scenario, parse_scenario, run_scenario

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = parse_scenario(generate_scenario("kernel_trace", 3, 4))
        assert sc.potential.dtype == np.complex128 and sc.potential.shape == sc.grid.points.shape
        report = run_scenario(sc)
    assert report.all_pass
    assert "monotone-ladder" in [r.check_id for r in report.records]


# ---------------------------------------------------------------------------
# potential descriptors


def test_gaussian_descriptor_shape():
    x = np.array([0.0, 1.0])
    q = potential_values({"kind": "gaussian", "amplitude": 2.0, "width": 1.0}, x)
    np.testing.assert_allclose(q, [2.0, 2.0 * np.exp(-1.0)])


def test_bump_descriptor_mass_is_exact():
    grid = make_grid(-4.0, 4.0, 2048)
    q = potential_values({"kind": "bump", "half_width": 1.0, "taper": 0.75}, grid.points)
    assert np.sum(grid.weights * q) == pytest.approx(2.0, abs=1e-8)
    assert float(np.max(q)) == pytest.approx(1.0, abs=1e-15)
    assert np.all(q >= 0)
    # mass scales with both knobs
    q2 = potential_values(
        {"kind": "bump", "amplitude": 0.5, "half_width": 2.0, "taper": 0.5}, grid.points
    )
    assert np.sum(grid.weights * q2) == pytest.approx(2.0, abs=1e-8)


def test_table_descriptor_interpolates():
    desc = {"kind": "table", "x": [0.0, 1.0, 2.0], "q": [0.0, 2.0, 0.0]}
    x = np.array([-1.0, 0.5, 1.0, 3.0])
    np.testing.assert_allclose(potential_values(desc, x), [0.0, 1.0, 2.0, 0.0])
    cdesc = {"kind": "table", "x": [0.0, 1.0], "q": [1j, 1.0 + 1j]}
    vals = potential_values(cdesc, np.array([0.5]))
    assert vals[0] == pytest.approx(0.5 + 1j)


@pytest.mark.parametrize("xs", [[1.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, 0.0]])
def test_table_descriptor_needs_strictly_increasing_x(xs):
    # np.interp assumes increasing sample points and is silently wrong otherwise
    with pytest.raises(ValidationError, match="increase strictly"):
        potential_values({"kind": "table", "x": xs, "q": [1.0] * len(xs)}, np.zeros(3))


@pytest.mark.parametrize(
    "extreme", [{"center": 1e308}, {"width": 1e-300}, {"amplitude": 1e308, "width": 1e-300}]
)
def test_a_gaussian_whose_square_overflows_is_zero_without_a_warning(extreme):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = potential_values({"kind": "gaussian", **extreme}, np.linspace(-8.0, 8.0, 16))
    assert vals.tolist() == [0.0] * 16


def test_a_table_whose_x_step_overflows_is_refused_at_parse():
    # the step 2e308 is inf, and np.interp would read the table as the constant 1.0
    from ssflab.scenario import parse_scenario

    payload = {
        "name": "wide",
        "kind": "kernel_trace",
        "grid": {"lo": -8.0, "hi": 8.0, "nodes": 16},
        "potential": {"kind": "table", "x": [-1e308, 1e308], "q": [1.0, 2.0]},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="^potential: table x values must increase strictly, in finite steps$"):
            parse_scenario(payload)
        sc = parse_scenario(payload | {"potential": {"kind": "table", "x": [-1e300, 1e300], "q": [1.0, 2.0]}})
    assert sc.potential.real.tolist() == [1.5] * 16


def test_potential_descriptor_validation():
    x = np.zeros(4)
    with pytest.raises(ValidationError):
        potential_values({"kind": "mesa"}, x)
    with pytest.raises(ValidationError):
        potential_values({"kind": "gaussian", "width": 0.0}, x)
    with pytest.raises(ValidationError):
        potential_values({"kind": "bump", "taper": 2.0, "half_width": 1.0}, x)
    with pytest.raises(ValidationError):
        potential_values(np.ones(3), x)


# ---------------------------------------------------------------------------
# discrete dissipative pairs


def test_discrete_pair_single_node():
    l0, l1 = discrete_schrodinger_pair(np.array([1j]), 1.0)
    np.testing.assert_allclose(l0.m, [[2.0 + 3.0j]], atol=1e-15)
    np.testing.assert_allclose(l1.m, [[2.0 + 4.0j]], atol=1e-15)


def test_discrete_pair_imaginary_part_dominates_identity():
    rng = np.random.default_rng(83)
    q = rng.standard_normal(24) + 1j * rng.uniform(0.0, 1.0, 24)
    l0, l1 = discrete_schrodinger_pair(q, 0.4)
    for op in (l0, l1):
        imag = (op.m - op.m.conj().T) / 2j
        assert float(np.linalg.eigvalsh(imag).min()) >= 1.0 - 1e-10


def test_discrete_pair_validation():
    with pytest.raises(DissipativityViolation):
        discrete_schrodinger_pair(np.array([1.0, -1e-6j]), 1.0)
    with pytest.raises(ValidationError):
        discrete_schrodinger_pair(np.array([1j]), 0.0)
    with pytest.raises(ValidationError):
        discrete_schrodinger_pair(np.array([]), 1.0)


def test_end_to_end_gaussian_dissipative_pair():
    x = np.linspace(-8.0, 8.0, 64)
    q = potential_values({"kind": "gaussian", "amplitude": 1j}, x)
    l0, l1 = discrete_schrodinger_pair(q, float(x[1] - x[0]))

    conditions = dissipative_condition_report(l0.m, l1.m, p=1)
    assert np.isfinite(conditions.weighted_diff_norm)
    assert np.isfinite(conditions.resolvent_diff_trace_norm)
    assert conditions.weighted_diff_norm > 0

    ssf = dissipative_ssf(l0.m, l1.m, 24)
    assert weighted_abs_integral(ssf) < np.inf
    residual = resolvent_trace_residual(l0.m, l1.m, ssf, -2j)
    assert residual <= 1e-5


def test_gauss_grids_reuse_one_read_only_rule(monkeypatch):
    def parent_grid(lo, hi, n):
        # the panel assembly with a fresh 16-point rule per call
        gx, gw = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(lo, hi, n // 16 + 1)
        mids, halves = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        return (mids[:, None] + halves[:, None] * gx).ravel(), (halves[:, None] * gw).ravel()

    expected = [parent_grid(lo, hi, n) for lo, hi, n in ((-8.0, 8.0, 1024), (-33.7, 0.0, 48), (0.0, 1.0, 16))]

    make_grid(0.0, 1.0, 16)  # the first gauss grid computes the rule

    def no_rule(deg):
        raise AssertionError("make_grid recomputed the Gauss-Legendre rule")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    for (lo, hi, n), (points, weights) in zip(((-8.0, 8.0, 1024), (-33.7, 0.0, 48), (0.0, 1.0, 16)), expected):
        grid = make_grid(lo, hi, n)
        assert grid.points.tobytes() == points.tobytes() and grid.weights.tobytes() == weights.tobytes()
    for rule in schrodinger._gauss_rule():
        assert not rule.flags.writeable
