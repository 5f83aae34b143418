"""Spectral shift functions on the unit circle.

Three routes produce an SSF for a pair of operators with spectra in the
closed unit disk:

* eigenphase counting for unitary pairs (exact, a step function),
* unitary dilation of a contraction pair followed by eigenphase counting,
* boundary values of the perturbation determinant, sampled on a circle of
  radius slightly above 1.

All SSFs here are normalized to zero mean over the circle. The additive
constant is invisible to every trace integral, so this is pure convention;
it is what makes the routes comparable pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .dilation import FiniteDilation, dilation_pair
from .errors import (
    KernelViolation,
    NearSingular,
    NonzeroWinding,
    ValidationError,
)
from .linalg import (
    CLUSTER_TOL,
    TWO_PI,
    Contraction,
    Unitary,
    _cluster_circle,
    _eig,
    _frozen,
    as_matrix,
    as_operator,
    defect_operators,
    eigenphases,
    hermitian_power,
    poly_derivative,
    poly_scalar,
    schatten_norm,
)

# Calibrated normalization of the determinant route: sampled values are
# kappa * (continuous Im log Delta) / (2 pi) + gauge. kappa = -2 is the choice
# that reproduces the eigenphase-counting step function on unitary pairs.
DETERMINANT_KAPPA = -2


@dataclass(frozen=True)
class StepSSF:
    """Piecewise-constant SSF: value(theta) = gauge + sum of jumps at or below theta.

    Jump positions live in (0, 2pi] (a jump at phase 0 is stored at 2pi).
    Jump sizes are nonzero signed integers summing to 0.
    """

    jumps: tuple[tuple[float, int], ...]
    gauge: float

    def __post_init__(self):
        thetas, sizes = self.thetas, self.sizes
        # min and max are NaN when any position is
        if len(thetas) and not (thetas.min() > 0.0 and thetas.max() <= TWO_PI):
            raise ValidationError("jump positions must lie in (0, 2pi]")
        if (thetas[1:] <= thetas[:-1]).any():
            raise ValidationError("jump positions must be strictly increasing")
        if not sizes.all():
            raise ValidationError("zero-size jumps must be dropped before construction")
        if sizes.sum() != 0:
            raise ValidationError("jump sizes must sum to zero")

    @classmethod
    def _from_arrays(cls, thetas: np.ndarray, sizes: np.ndarray) -> "StepSSF":
        """The zero-mean step SSF with the given sorted jump positions and sizes.

        The gauge sum(size * theta) / 2pi adds the terms left to right.
        """
        gauge = float(np.cumsum(sizes * thetas)[-1]) / TWO_PI if len(thetas) else 0.0
        step = cls.__new__(cls)
        # the cached columns, so neither is rebuilt from the jump tuples
        step.__dict__.update(thetas=_frozen(thetas), sizes=_frozen(sizes))
        cls.__init__(step, tuple(zip(thetas.tolist(), sizes.tolist())), gauge)
        return step

    @cached_property
    def thetas(self) -> np.ndarray:
        return _frozen(np.array([th for th, _ in self.jumps], dtype=float))

    @cached_property
    def sizes(self) -> np.ndarray:
        return _frozen(np.array([s for _, s in self.jumps], dtype=int))

    @cached_property
    def levels(self) -> np.ndarray:
        """levels[k] is the value past the first k jumps."""
        return _frozen(self.gauge + np.concatenate([[0.0], np.cumsum(self.sizes)]))

    def value(self, theta):
        """Evaluate the step function at theta (scalar or array) in (0, 2pi]."""
        out = self.levels[np.searchsorted(self.thetas, np.asarray(theta, dtype=float), side="right")]
        return out if out.shape else float(out)


@dataclass(frozen=True)
class SampledSSF:
    """SSF sampled on a uniform grid over (0, 2pi] at radius slightly above 1."""

    radius: float
    thetas: np.ndarray
    values: np.ndarray
    winding: int
    kappa: int = DETERMINANT_KAPPA
    # eigenvalues of (T0, T1) the samples were built from
    eigenvalues: tuple[np.ndarray, np.ndarray] = (np.zeros(0), np.zeros(0))

    def __post_init__(self):
        if self.radius <= 1.0:
            raise ValidationError("sampling radius must exceed 1")
        if not np.isfinite(self.values).all():
            raise ValidationError("sampled values must be finite")
        for a in (self.thetas, self.values, *self.eigenvalues):
            a.setflags(write=False)

    def determinant(self, zeta: complex) -> complex:
        """Delta(zeta) = prod (l1 - zeta) / (l0 - zeta) over the stored eigenvalues."""
        l0, l1 = self.eigenvalues
        return complex(np.prod((l1 - zeta) / (l0 - zeta)))


def unitary_ssf(u0, u1) -> StepSSF:
    """Eigenphase-counting SSF of a unitary pair.

    Each eigenphase of u0 contributes a +1 jump and each eigenphase of u1 a
    -1 jump; coincident phases (within CLUSTER_TOL) cancel.
    The gauge is set so the mean over the circle is zero, which works out to
    sum(jump * theta) / 2pi.
    """
    u0, u1 = as_operator(Unitary, u0), as_operator(Unitary, u1)
    if u0.n != u1.n:
        raise ValidationError(f"dimension mismatch: {u0.n} vs {u1.n}")
    return _step_ssf(eigenphases(u0), eigenphases(u1))


def _columns(pairs) -> tuple[np.ndarray, np.ndarray]:
    """(phase, weight) pairs as a float array of phases and an int array of weights."""
    phases, weights = zip(*pairs) if pairs else ((), ())
    return np.array(phases, dtype=float), np.array(weights, dtype=int)


def _step_ssf(phases0, phases1) -> StepSSF:
    """Step SSF with +multiplicity jumps at phases0 and -multiplicity jumps at phases1."""
    (p0, k0), (p1, k1) = _columns(phases0), _columns(phases1)
    clustered = _cluster_circle(np.concatenate((p0, p1)), np.concatenate((k0, -k1)), CLUSTER_TOL)
    thetas, sizes = _columns(clustered)
    keep = sizes != 0
    return StepSSF._from_arrays(thetas[keep], sizes[keep])


def ssf_trace_integral(ssf: StepSSF, coeffs: Sequence[complex]) -> complex:
    """Exact trace integral of an analytic polynomial against a step SSF.

    Integration by parts turns the contour integral of f' against the step
    function into -sum(jump_k * f(exp(i theta_k))); the gauge multiplies the
    closed integral of f' and drops out exactly.
    """
    if not ssf.jumps:
        return 0.0 + 0.0j
    nodes = np.exp(1j * ssf.thetas)
    return complex(-np.sum(ssf.sizes * poly_scalar(coeffs, nodes)))


def contraction_ssf(t0: Contraction, t1: Contraction, m: int) -> StepSSF:
    """SSF of a contraction pair through the m-block cyclic dilation.

    Valid for trace formulas with polynomials of degree at most m - 2.
    """
    return dilation_ssf(*dilation_pair(t0, t1, m))


def dilation_ssf(d0: FiniteDilation, d1: FiniteDilation) -> StepSSF:
    """Eigenphase-counting SSF of two dilations, one structured eigensolve each."""
    return _step_ssf(d0.eigenphases(), d1.eigenphases())


def perturbation_determinant(t0, t1, zeta: complex) -> complex:
    """det(I + (T1 - T0)(T0 - zeta I)^(-1)) for |zeta| >= 1 + 1e-8; NearSingular
    when cond(T0 - zeta I) exceeds 1e12."""
    m0 = as_matrix(t0)
    m1 = as_matrix(t1)
    if m0.shape != m1.shape:
        raise ValidationError("dimension mismatch")
    if abs(zeta) < 1.0 + 1e-8:
        raise ValidationError(f"|zeta| = {abs(zeta):.10f} too close to the unit circle")
    a = m0 - zeta * np.eye(m0.shape[0])
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > 1e12:
        raise NearSingular(f"cond(T0 - zeta I) = {cond:.3e}")
    x = np.linalg.solve(a, m1 - m0)
    return complex(np.linalg.det(np.eye(m0.shape[0]) + x))


def _factor_phase(eigs: np.ndarray, zeta: np.ndarray, radius: float) -> np.ndarray:
    """Sum of arg(1 - l/zeta) over |l| < radius and arg(1 - zeta/l) over the rest."""
    inside = np.abs(eigs) < radius
    z = zeta[:, None]
    return np.angle(1.0 - eigs[inside] / z).sum(axis=1) + np.angle(1.0 - z / eigs[~inside]).sum(axis=1)


def determinant_ssf(t0, t1, radius: float = 1.0 + 1e-4, grid: int = 4096) -> SampledSSF:
    """SSF from boundary phases of the perturbation determinant.

    Delta(zeta) = det(T1 - zeta) / det(T0 - zeta) factors over eigenvalues:
    l - zeta = -zeta (1 - l/zeta) inside |zeta| = radius, l (1 - zeta/l)
    outside, and each 1 - ... factor has a continuous phase on the circle.
    Its winding is the difference of the inside counts (argument principle);
    when that is zero the -zeta factors cancel, so Im log Delta is the sum of
    factor phases up to a constant, sampled on exactly `grid` points and
    rescaled by the calibrated kappa with a zero-mean gauge. A nonzero
    winding raises NonzeroWinding, an eigenvalue within 1e-12 * radius of
    the circle NearSingular.
    """
    m0 = as_matrix(t0)
    m1 = as_matrix(t1)
    if m0.shape != m1.shape:
        raise ValidationError("dimension mismatch")
    if radius < 1.0 + 1e-8:
        raise ValidationError("sampling radius must be at least 1 + 1e-8")
    if grid < 256:
        raise ValidationError("need at least 256 grid points")
    l0, l1 = _eig(np.linalg.eigvals, m0), _eig(np.linalg.eigvals, m1)
    gap = float(np.min(np.abs(np.abs(np.concatenate([l0, l1])) - radius), initial=np.inf))
    if gap <= 1e-12 * radius:
        raise NearSingular(f"an eigenvalue lies {gap:.3e} from the sampling circle")
    winding = int(np.sum(np.abs(l1) < radius)) - int(np.sum(np.abs(l0) < radius))
    if winding != 0:
        raise NonzeroWinding(f"determinant winds {winding} times around 0")
    n = int(grid)
    theta = TWO_PI * np.arange(1, n + 1) / n
    zeta = radius * np.exp(1j * theta)
    phase = _factor_phase(l1, zeta, radius) - _factor_phase(l0, zeta, radius)
    values = DETERMINANT_KAPPA * phase / TWO_PI
    values = values - values.mean()
    return SampledSSF(radius, theta, values, winding, eigenvalues=(l0, l1))


def sampled_trace_integral(ssf: SampledSSF, coeffs: Sequence[complex]) -> complex:
    """Trapezoid trace integral of an analytic polynomial against sampled values.

    The grid is uniform and periodic, so the trapezoid rule is the plain
    average times 2pi.
    """
    dcoeffs = poly_derivative(coeffs)
    boundary = np.exp(1j * ssf.thetas)
    integrand = poly_scalar(dcoeffs, boundary) * ssf.values * 1j * boundary
    return complex(np.mean(integrand) * TWO_PI)


def hardy_gauge_check(k: int, coeffs: Sequence[complex]) -> complex:
    """Contour integral of f'(zeta) zeta^k, which is the trace-integral change
    from adding the analytic element zeta^k to any SSF.

    Should vanish (Cauchy): the SSF family is only determined up to such
    terms. The integral is the mean over 8192 equispaced boundary points.
    """
    if k < 0:
        raise ValidationError("exponent must be nonnegative")
    theta = TWO_PI * np.arange(8192) / 8192
    boundary = np.exp(1j * theta)
    integrand = poly_scalar(poly_derivative(coeffs), boundary) * boundary**k * 1j * boundary
    return complex(np.mean(integrand) * TWO_PI)


@dataclass(frozen=True)
class RealSsfConditions:
    """Checkable hypotheses for a contraction pair to carry a real integrable SSF."""

    alpha: float
    beta: float
    p: float
    min_defect_eig: float
    kernel_certified: bool
    weighted_diff_norm: Optional[float]
    weighted_adjoint_diff_norm: Optional[float]
    defect_diff_norm: float
    defect_adjoint_diff_norm: float
    identity_residual: float


def real_ssf_conditions_report(
    t0: Contraction, t1: Contraction, alpha: float, beta: float, p: float
) -> RealSsfConditions:
    """Evaluate the weighted-difference hypotheses on a concrete pair.

    Reports the smallest defect eigenvalue of T0 (the kernel condition), the
    Schatten norms of the weighted differences D_{T1*}^{-2b} (T1 - T0)
    D_{T0}^{-2a} and D_{T1}^{-2b} (T1* - T0*) D_{T0}^{-2a}, the plain defect
    difference norms, and the residual of the exact algebraic identity
    (I - T1*T1) - (I - T0*T0) = -(T1* - T0*) T0 - T1* (T1 - T0).

    When a required inverse defect power does not exist (defect eigenvalue
    below the 1e-12 floor) the weighted norms are reported as None instead
    of raising.
    """
    if alpha < 0 or beta < 0 or not (0.5 < alpha + beta <= 1.0):
        raise ValidationError("need alpha, beta >= 0 with alpha + beta in (1/2, 1]")
    t0, t1 = as_operator(Contraction, t0), as_operator(Contraction, t1)
    if t0.n != t1.n:
        raise ValidationError("dimension mismatch")
    d0, d0s = defect_operators(t0)
    d1, d1s = defect_operators(t1)
    min_eig = float(_eig(np.linalg.eigvalsh, d0).min())
    diff = t1.m - t0.m
    try:
        w_right = hermitian_power(d0, -2.0 * alpha)
        w_left = hermitian_power(d1s, -2.0 * beta)
        weighted = float(schatten_norm(w_left @ diff @ w_right, p))
        w_left_adj = hermitian_power(d1, -2.0 * beta)
        weighted_adj = float(schatten_norm(w_left_adj @ diff.conj().T @ w_right, p))
    except KernelViolation:
        weighted = None
        weighted_adj = None
    eye = np.eye(t0.n)
    lhs = (eye - t1.m.conj().T @ t1.m) - (eye - t0.m.conj().T @ t0.m)
    rhs = -diff.conj().T @ t0.m - t1.m.conj().T @ diff
    return RealSsfConditions(
        alpha=alpha,
        beta=beta,
        p=p,
        min_defect_eig=min_eig,
        kernel_certified=bool(min_eig > 1e-8),
        weighted_diff_norm=weighted,
        weighted_adjoint_diff_norm=weighted_adj,
        defect_diff_norm=float(schatten_norm(d1 - d0, p)),
        defect_adjoint_diff_norm=float(schatten_norm(d1s - d0s, p)),
        identity_residual=float(np.linalg.norm(lhs - rhs)),
    )


def step_vs_sampled_max_deviation(
    step: StepSSF, sampled: SampledSSF, *, exclusion: float = 2e-2
) -> float:
    """Largest |sampled - step| over grid points away from every step jump.

    Distance to a jump is circular; points within the exclusion radius of
    any jump (where the smoothed determinant route cannot match a
    discontinuity) are skipped. The nearest jump on the circle is a sorted
    neighbour of the point, or across the seam the first or the last jump.
    """
    theta = sampled.thetas
    jumps = step.thetas
    mask = np.ones(theta.shape, dtype=bool)
    if len(jumps):
        right = np.searchsorted(jumps, theta).clip(max=len(jumps) - 1)
        near = jumps[np.stack((right, (right - 1).clip(min=0), np.zeros_like(right), np.full_like(right, -1)))]
        d = np.abs(theta - near)
        mask = np.minimum(d, TWO_PI - d).min(axis=0) >= exclusion
    if not mask.any():
        raise ValidationError("exclusion radius removed every grid point")
    return float(np.max(np.abs(sampled.values[mask] - step.value(theta[mask]))))
