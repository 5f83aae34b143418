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
    as_pair,
    check_exponents,
    defect_operators,
    eigenphases,
    operator_norm,
    poly_derivative,
    poly_scalar,
    same_dimension,
    schatten_norm,
    weighted_norm,
)

# Calibrated normalization of the determinant route: sampled values are
# kappa * (continuous Im log Delta) / (2 pi) + gauge. kappa = -2 is the choice
# that reproduces the eigenphase-counting step function on unitary pairs.
DETERMINANT_KAPPA = -2
# the 8192 equispaced boundary points of `hardy_gauge_check`, formed once
_HARDY_BOUNDARY = _frozen(np.exp(1j * (TWO_PI * np.arange(8192) / 8192)))


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
        if not np.isfinite(self.gauge):
            raise ValidationError("gauge must be finite")

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
        if not (np.isfinite(self.radius) and self.radius > 1.0):
            raise ValidationError("sampling radius must be finite and exceed 1")
        arrays = isinstance(self.thetas, np.ndarray) and isinstance(self.values, np.ndarray)
        if not (arrays and self.thetas.ndim == 1 and self.thetas.shape == self.values.shape):
            raise ValidationError("sampled thetas and values must be 1-D arrays of one length")
        if not len(self.thetas):
            raise ValidationError("a sampled SSF needs at least one sample")
        if not np.isfinite(self.thetas).all():
            raise ValidationError("sampled thetas must be finite")
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
    u0, u1 = as_pair(Unitary, u0, u1)
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
    thetas, sizes = thetas[keep], sizes[keep]
    # the zero-mean gauge sum(size * theta) / 2pi, its terms added left to right
    gauge = float(np.cumsum(sizes * thetas)[-1]) / TWO_PI if len(thetas) else 0.0
    return StepSSF(tuple(zip(thetas.tolist(), sizes.tolist())), gauge)


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
    t0, t1 = as_pair(Contraction, t0, t1)
    return dilation_ssf(*dilation_pair(t0, t1, m))


def dilation_ssf(d0: FiniteDilation, d1: FiniteDilation) -> StepSSF:
    """Eigenphase-counting SSF of two dilations of one block layout (n, m), one structured eigensolve each."""
    same_dimension((d0.n, d0.m), (d1.n, d1.m))
    return _step_ssf(d0.eigenphases(), d1.eigenphases())


def perturbation_determinant(t0, t1, zeta):
    """det(I + (T1 - T0)(T0 - zeta I)^(-1)) for |zeta| >= 1 + 1e-8, at one zeta or at each of a
    1-D array of them (an array of values then); NearSingular when any cond(T0 - zeta I) exceeds 1e12.

    The value is det(T1 - zeta I) / det(T0 - zeta I), from two stacked
    `slogdet` calls (one LU each per zeta), each member as its own call
    would take it. cond(T0 - zeta I) <= (||T0||_2 + |zeta|) /
    (|zeta| - ||T0||_2) when |zeta| > ||T0||_2, so a zeta with that bound at
    most 5e11 needs no SVD of its own, and every other zeta takes the exact
    cond. Any upper bound on ||T0||_2 keeps the certificate: a `Contraction`
    T0 gives its `norm`, a `Unitary` sqrt(1 + its `defect`), since
    ||U*U||_2 <= 1 + ||U*U - I||_F; any other T0 takes one SVD.
    """
    m0, m1 = as_matrix(t0), as_matrix(t1)
    same_dimension(len(m0), len(m1))
    z = np.asarray(zeta, dtype=np.complex128)
    radii = np.abs(z.ravel())
    near = radii < 1.0 + 1e-8
    if near.any():
        raise ValidationError(f"|zeta| = {radii[near][0]:.10f} too close to the unit circle")
    shift = z.reshape(-1, 1, 1) * np.eye(m0.shape[0])
    a = m0 - shift
    if isinstance(t0, Contraction):
        norm = t0.norm
    elif isinstance(t0, Unitary):
        norm = np.sqrt(1.0 + t0.defect)
    else:
        norm = operator_norm(m0)
    with np.errstate(divide="ignore", invalid="ignore"):
        certified = (radii > norm) & ((norm + radii) / (radii - norm) <= 5e11)
    for k in np.flatnonzero(~certified):
        cond = float(np.linalg.cond(a[k]))
        if not np.isfinite(cond) or cond > 1e12:
            raise NearSingular(f"cond(T0 - zeta I) = {cond:.3e}")
    (sign0, log0), (sign1, log1) = np.linalg.slogdet(a), np.linalg.slogdet(m1 - shift)
    det = sign1 / sign0 * np.exp(log1 - log0)
    return det.reshape(z.shape) if z.ndim else complex(det[0])


def _factor_phase_difference(l0: np.ndarray, l1: np.ndarray, zeta: np.ndarray, radius: float) -> np.ndarray:
    """Sum of the factor phases of l1 minus those of l0: arg(1 - l/zeta) for |l| < radius, arg(1 - zeta/l) else.

    Every factor has a positive real part, so its argument lies in
    (-pi/2, pi/2), and the argument of a l1 factor times the conjugate of a
    l0 factor is the difference of theirs, with no wrap: one arctan2 per
    pair, for l0 and l1 of one length. The product is formed in real
    arithmetic, each term rounded on its own, so equal factors give an
    imaginary part of exactly 0. The grid is taken 256 points at a time,
    so at most 2 x 256 x n factors are held.
    """
    sides = [(l[inside], l[~inside]) for l in (l0, l1) for inside in [np.abs(l) < radius]]
    phase = np.empty(len(zeta))
    for s in range(0, len(zeta), 256):
        z = zeta[s : s + 256, None]
        factors = np.empty((2, len(z), len(l0)), dtype=np.complex128)
        for f, (l_in, l_out) in zip(factors, sides):
            np.divide(l_in, z, out=f[:, : len(l_in)])
            np.divide(z, l_out, out=f[:, len(l_in) :])
        np.subtract(1.0, factors, out=factors)
        (x0, x1), (y0, y1) = factors.real, factors.imag
        re, im = x1 * x0, y1 * x0
        re += y1 * y0
        im -= x1 * y0
        phase[s : s + 256] = np.arctan2(im, re).sum(axis=1)
    return phase


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
    the circle NearSingular. A `Unitary` operand gives its cached
    `spectrum`, the eigenvalues its step SSF's eigenphases come from; any
    other operand takes dense eigvals.
    """
    m0, m1 = as_matrix(t0), as_matrix(t1)
    same_dimension(len(m0), len(m1))
    if radius < 1.0 + 1e-8:
        raise ValidationError("sampling radius must be at least 1 + 1e-8")
    if grid < 256:
        raise ValidationError("need at least 256 grid points")
    l0, l1 = (t.spectrum if isinstance(t, Unitary) else _eig(np.linalg.eigvals, m) for t, m in ((t0, m0), (t1, m1)))
    gap = float(np.min(np.abs(np.abs(np.concatenate([l0, l1])) - radius), initial=np.inf))
    if gap <= 1e-12 * radius:
        raise NearSingular(f"an eigenvalue lies {gap:.3e} from the sampling circle")
    winding = int(np.sum(np.abs(l1) < radius)) - int(np.sum(np.abs(l0) < radius))
    if winding != 0:
        raise NonzeroWinding(f"determinant winds {winding} times around 0")
    n = int(grid)
    theta = TWO_PI * np.arange(1, n + 1) / n
    zeta = radius * np.exp(1j * theta)
    phase = _factor_phase_difference(l0, l1, zeta, radius)
    values = DETERMINANT_KAPPA * phase / TWO_PI
    values = values - values.mean()
    return SampledSSF(radius, theta, values, winding, eigenvalues=(l0, l1))


def sampled_trace_integral(ssf: SampledSSF, coeffs: Sequence[complex]) -> complex:
    """Trapezoid trace integral of an analytic polynomial p against sampled values.

    The integrand p'(z) xi(z) i z is taken at the samples' points z on |z| =
    radius, and the uniform periodic grid makes the trapezoid rule the plain
    average times 2pi. A contraction pair's integral is tr(p(T1) - p(T0)) to
    roundoff. A unitary pair's eigenvalues lie radius - 1 inside the circle,
    so its integral aliases: up to about 2e-3 deg radius^deg at 4096 points.
    """
    z = ssf.radius * np.exp(1j * ssf.thetas)
    integrand = poly_scalar(poly_derivative(coeffs), z) * ssf.values * 1j * z
    return complex(np.mean(integrand) * TWO_PI)


def hardy_gauge_check(k: int, coeffs: Sequence[complex]) -> complex:
    """Contour integral of f'(zeta) zeta^k, which is the trace-integral change
    from adding the analytic element zeta^k to any SSF.

    Should vanish (Cauchy): the SSF family is only determined up to such
    terms. The integral is the mean over 8192 equispaced boundary points.
    """
    if k < 0:
        raise ValidationError("exponent must be nonnegative")
    boundary = _HARDY_BOUNDARY
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

    Defect eigenvalues and weighted norms are read off `defect_eighs`. When a
    required inverse defect power does not exist (defect eigenvalue below the
    1e-12 floor) the weighted norms are reported as None instead of raising.
    """
    check_exponents(alpha, beta, p)
    t0, t1 = as_pair(Contraction, t0, t1)
    d0, d0s = defect_operators(t0)
    d1, d1s = defect_operators(t1)
    e0, (e1, e1s) = t0.defect_eighs[0], t1.defect_eighs
    min_eig = float(e0[0].min())
    diff = t1.m - t0.m
    exponents = (-2.0 * beta, -2.0 * alpha)
    try:
        weighted = weighted_norm(e1s, diff, e0, exponents, p)
        weighted_adj = weighted_norm(e1, diff.conj().T, e0, exponents, p)
    except KernelViolation:
        weighted = weighted_adj = None
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
