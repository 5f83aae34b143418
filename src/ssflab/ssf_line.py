"""Spectral shift functions on the real line for dissipative matrix pairs.

The route: Cayley-transform both operators to contractions, build the circle
SSF through the finite dilation, then push it to the line with the boundary
map t = -cot(theta/2), which is the inverse of zeta = (t - i)/(t + i). The
result is a piecewise-constant function with finitely many breakpoints and,
in general, nonzero (equal) values on both tails, so only weighted and
windowed integrals are offered; a plain integral over the line is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dilation import dilation_pair, shifted_inverse_excess
from .errors import KernelViolation, ValidationError
from .linalg import (
    TWO_PI,
    Dissipative,
    _frozen,
    as_pair,
    cayley,
    operator_norm,
    schatten_norm,
    weighted_norm,
)
from .ssf_circle import StepSSF, dilation_ssf

_BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class LineSSF:
    """The circle SSF `source` read on the line through t = -cot(theta/2).

    values[j] is the value on (breakpoints[j-1], breakpoints[j]); values[0]
    and values[-1] are the tails. A source jump at the boundary point
    theta = 2pi would sit at t = infinity: it is no breakpoint (admissible
    test functions vanish there) but mass_at_infinity, and without such mass
    the tails agree. A jump so near theta = 0 that its breakpoint is not
    finite is refused.
    """

    source: StepSSF
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        with np.errstate(divide="ignore", over="ignore"):
            bp = -1.0 / np.tan(self.source.thetas[: _interior_count(self.source)] / 2.0)
        if not np.isfinite(bp).all():
            raise ValidationError("breakpoints must be finite")
        object.__setattr__(self, "breakpoints", _frozen(bp))

    @property
    def values(self) -> np.ndarray:
        return self.source.levels[: len(self.breakpoints) + 1]

    @property
    def jump_sizes(self) -> np.ndarray:
        """Integer jumps at the breakpoints: the source's interior jump sizes."""
        return self.source.sizes[: len(self.breakpoints)]

    @property
    def mass_at_infinity(self) -> int:
        return int(self.source.sizes[len(self.breakpoints) :].sum())

    def windowed_integral(self, r: float) -> float:
        """Exact integral of the step function over [-r, r]."""
        if r <= 0:
            raise ValidationError("window radius must be positive")
        edges = np.concatenate([[-r], np.clip(self.breakpoints, -r, r), [r]])
        return float(np.sum(self.values * np.diff(edges)))


def _interior_count(step: StepSSF) -> int:
    """Number of interior jumps, those off the boundary point 2pi; sorted jumps put them first."""
    return int(np.searchsorted(step.thetas, TWO_PI - _BOUNDARY_EPS))


def dissipative_ssf(l0: Dissipative, l1: Dissipative, m: int) -> LineSSF:
    """SSF of a dissipative pair: Cayley transform, dilate on m blocks, push to the line."""
    l0, l1 = as_pair(Dissipative, l0, l1)
    return LineSSF(dilation_ssf(*dilation_pair(cayley(l0), cayley(l1), m)))


def weighted_abs_integral(ssf: LineSSF, side: str = "line") -> float:
    """The weight-(1+t^2)^(-1) integral of |xi|, by two independent closed forms.

    side="line" sums |value| * (arctan spacing) over the line pieces;
    side="circle" sums |arc value| * arc length on the source circle and
    halves it. Both are exact for step functions and must agree.
    """
    if side == "line":
        angles = np.concatenate([[-np.pi / 2], np.arctan(ssf.breakpoints), [np.pi / 2]])
        return float(np.sum(np.abs(ssf.values) * np.diff(angles)))
    if side == "circle":
        step = ssf.source
        k = _interior_count(step)
        edges = np.concatenate([[0.0], step.thetas[:k], [TWO_PI]])
        return 0.5 * float(np.sum(np.abs(step.levels[: k + 1]) * np.diff(edges)))
    raise ValidationError(f"unknown side {side!r}")


def resolvent_trace_residual(l0, l1, ssf: LineSSF, z: complex) -> float:
    """|trace((L1-z)^(-1) - (L0-z)^(-1)) - resolvent trace integral of the SSF|.

    The integral side is exact by parts: -sum of jump * (t_k - z)^(-1) over
    the breakpoints; the test function vanishes at infinity so neither the
    tails nor mass at infinity contribute. The residual decays geometrically
    in the dilation block count because the dilation only certifies
    polynomial degrees up to m - 2 in the Cayley variable;
    `resolvent_truncation_errors` gives its exact value before any eigensolve.
    """
    if z.imag > -1e-6:
        raise ValidationError("need Im z <= -1e-6 (poles in the open lower half-plane)")
    l0, l1 = as_pair(Dissipative, l0, l1)
    return float(abs(resolvent_trace_difference(l0.m, l1.m, z) - resolvent_trace_integral(ssf, z)))


def resolvent_trace_difference(m0, m1, z: complex) -> complex:
    """trace((M1-z)^(-1) - (M0-z)^(-1)), unvalidated."""
    eye = np.eye(m0.shape[0])
    return complex(np.trace(np.linalg.inv(m1 - z * eye)) - np.trace(np.linalg.inv(m0 - z * eye)))


def resolvent_trace_integral(ssf: LineSSF, z: complex) -> complex:
    """-sum of jump * (t_k - z)^(-1) over the breakpoints of the SSF."""
    return complex(-np.sum(ssf.jump_sizes / (ssf.breakpoints - z)) if len(ssf.breakpoints) else 0.0)


def resolvent_truncation_errors(l0: Dissipative, l1: Dissipative, z: complex, lhs: complex, blocks) -> np.ndarray:
    """lhs - [tr f(U1) - tr f(U0)] for each block count m in blocks, f(zeta) = 1/(t(zeta) - z).

    U_j is the m-block dilation of the Cayley image T_j and t(zeta) =
    i(1 + zeta)/(1 - zeta) the boundary map, so with lhs the resolvent trace
    difference this is the exact truncation error of `dissipative_ssf` at m:
    the resolvent record's residual when every phase is exact, known before
    the eigensolve. With a = i - z and alpha = (i + z)/a, |alpha| < 1 for
    Im z < 0, f(zeta) = (1 - zeta)/(a (1 + alpha zeta)), so
    tr f(U) = (m n + (1 + alpha) q(m))/a with q from `shifted_inverse_excess`,
    and the m n cancels between the pair: (1 + alpha)/a = 2i/a^2.
    """
    a = 1j - z
    alpha = (1j + z) / a
    q0, q1 = (shifted_inverse_excess(cayley(l), alpha, blocks) for l in (l0, l1))
    return lhs - 2j / a**2 * (q1 - q0)


@dataclass(frozen=True)
class PerturbationTraceReport:
    """trace(L1 - L0) and what it implies for integrable real SSFs."""

    perturbation_trace: complex
    real_integrable_possible: bool
    left_tail: float
    right_tail: float
    windowed: tuple[tuple[float, float], ...]


def perturbation_trace_report(
    l0, l1, ssf: LineSSF, radii: Sequence[float] = (1.0, 10.0, 100.0)
) -> PerturbationTraceReport:
    """Report trace(L1 - L0), the realness flag, tails, and windowed integrals.

    A real integrable SSF forces trace(L1 - L0) to be real, so a nonzero
    imaginary part rules one out; the flag states that test. Windowed
    integrals are exact piecewise sums, reported together with the tail
    values so non-decay at infinity is visible. No integral over the whole
    line is claimed.
    """
    l0, l1 = as_pair(Dissipative, l0, l1)
    tr = complex(np.trace(l1.m - l0.m))
    return PerturbationTraceReport(
        perturbation_trace=tr,
        real_integrable_possible=bool(abs(tr.imag) <= 1e-10),
        left_tail=float(ssf.values[0]),
        right_tail=float(ssf.values[-1]),
        windowed=tuple((float(r), ssf.windowed_integral(float(r))) for r in radii),
    )


@dataclass(frozen=True)
class CayleyIdentityReport:
    """Residuals of the algebraic identities tying defects to Im L."""

    defect_sq_residuals: tuple[float, float]
    adjoint_defect_sq_residuals: tuple[float, float]
    resolvent_difference_residual: float

    def max_residual(self) -> float:
        return max(
            max(self.defect_sq_residuals),
            max(self.adjoint_defect_sq_residuals),
            self.resolvent_difference_residual,
        )


def cayley_identity_residuals(l0, l1) -> CayleyIdentityReport:
    """Check the exact identities between a dissipative pair and its Cayley images.

    For each j: D_{Tj}^2 = 4 G_j* G_j and D_{Tj*}^2 = 4 G~_j G~_j*, with
    G_j = (Im L_j)^(1/2) (L_j + iI)^(-1) and G~_j its reversed-order twin;
    and across the pair T1 - T0 = -2i ((L1 + iI)^(-1) - (L0 + iI)^(-1)).
    Returns Frobenius residuals, all of which should sit at roundoff.
    """
    ls = as_pair(Dissipative, l0, l1)
    ts = [cayley(l).m for l in ls]
    defect_res, adjoint_res = [], []
    for l, t in zip(ls, ts):
        eye, (g, g_twin) = np.eye(l.n), l.g_pair
        defect_res.append(float(np.linalg.norm(eye - t.conj().T @ t - 4.0 * g.conj().T @ g)))
        adjoint_res.append(float(np.linalg.norm(eye - t @ t.conj().T - 4.0 * g_twin @ g_twin.conj().T)))
    diff_res = float(np.linalg.norm((ts[1] - ts[0]) + 2j * (ls[1].resolvent_minus_i - ls[0].resolvent_minus_i)))
    return CayleyIdentityReport(
        defect_sq_residuals=tuple(defect_res),
        adjoint_defect_sq_residuals=tuple(adjoint_res),
        resolvent_difference_residual=diff_res,
    )


@dataclass(frozen=True)
class DissipativeConditionReport:
    """Norm diagnostics for the weighted-difference hypothesis on Im L."""

    p: float
    weighted_diff_norm: float
    resolvent_diff_trace_norm: float
    sqrt_im_resolvent_norms: tuple[float, float]
    resolvent_sqrt_im_norms: tuple[float, float]


def dissipative_condition_report(l0, l1, p: float = 1) -> DissipativeConditionReport:
    """Evaluate (Im L1)^(-1/2) (L1 - L0) (Im L0)^(-1/2) and companions.

    Requires both imaginary parts to be nonsingular (smallest eigenvalue at
    least 1e-12), else KernelViolation. The weighted norm is read off the
    eigendecompositions of Im L_j. The four G-type operator norms, of
    `Dissipative.g_pair`, are diagnostics: in finite dimensions boundedness
    is automatic, but the sizes are what enter the estimates.
    """
    ls = as_pair(Dissipative, l0, l1)
    for j, l in enumerate(ls):
        if l.imag_min < 1e-12:
            raise KernelViolation(f"Im L_{j} has eigenvalue {l.imag_min:.3e}, inverse square root undefined")
    g_norms, g_twin_norms = (tuple(operator_norm(l.g_pair[k]) for l in ls) for k in (0, 1))
    return DissipativeConditionReport(
        p=p,
        weighted_diff_norm=weighted_norm(ls[1].imag_eigh, ls[1].m - ls[0].m, ls[0].imag_eigh, (-0.5, -0.5), p),
        resolvent_diff_trace_norm=float(schatten_norm(ls[1].resolvent_minus_i - ls[0].resolvent_minus_i, 1)),
        sqrt_im_resolvent_norms=g_norms,
        resolvent_sqrt_im_norms=g_twin_norms,
    )
