"""Spectral shift functions on the real line for dissipative matrix pairs.

The route: Cayley-transform both operators to contractions, build the circle
SSF through the finite dilation, then push it to the line with the boundary
map t = -cot(theta/2), which is the inverse of zeta = (t - i)/(t + i). The
result is a piecewise-constant function with finitely many breakpoints and,
in general, nonzero (equal) values on both tails, so only weighted and
windowed integrals are offered; a plain integral over the line is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import KernelViolation, ValidationError
from .linalg import (
    TWO_PI,
    Dissipative,
    _frozen,
    as_pair,
    cayley,
    hermitian_function,
    hermitian_sqrt,
    operator_norm,
    schatten_norm,
)
from .ssf_circle import StepSSF, contraction_ssf

_BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class LineSSF:
    """Piecewise-constant SSF on the line.

    values[j] is the value on (breakpoints[j-1], breakpoints[j]), with
    values[0] the left tail and values[-1] the right tail. A jump of the
    source circle SSF exactly at the boundary point theta = 2pi would sit at
    t = infinity; it is dropped from the breakpoints (every admissible test
    function vanishes there) and recorded as mass_at_infinity. Without such
    mass the two tails agree because circle jumps sum to zero.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    source: StepSSF
    mass_at_infinity: int = 0

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or len(vals) != len(bp) + 1:
            raise ValidationError("need one more interval value than breakpoints")
        if not np.isfinite(bp).all() or not np.isfinite(vals).all():
            raise ValidationError("breakpoints and values must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValidationError("breakpoints must be strictly increasing")
        if self.mass_at_infinity == 0 and abs(vals[0] - vals[-1]) > 1e-12:
            raise ValidationError("tail values must agree when no mass sits at infinity")
        object.__setattr__(self, "breakpoints", _frozen(bp))
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def jump_sizes(self) -> np.ndarray:
        """Integer jumps at the breakpoints: the source's interior jump sizes."""
        return self.source.sizes[: len(self.breakpoints)]

    def value(self, t):
        """Evaluate at t (scalar or array); a breakpoint carries its jump."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        out = self.values[idx]
        return out if out.shape else float(out)

    def windowed_integral(self, r: float) -> float:
        """Exact integral of the step function over [-r, r]."""
        if r <= 0:
            raise ValidationError("window radius must be positive")
        edges = np.concatenate([[-r], np.clip(self.breakpoints, -r, r), [r]])
        return float(np.sum(self.values * np.diff(edges)))


def _interior_count(step: StepSSF) -> int:
    """Number of interior jumps, those off the boundary point 2pi; sorted jumps put them first."""
    return int(np.searchsorted(step.thetas, TWO_PI - _BOUNDARY_EPS))


def pushforward_line(step: StepSSF) -> LineSSF:
    """Push a circle step SSF to the line along t = -cot(theta/2)."""
    k = _interior_count(step)
    with np.errstate(divide="ignore"):
        breakpoints = -1.0 / np.tan(step.thetas[:k] / 2.0)
    return LineSSF(
        breakpoints=breakpoints,
        values=step.levels[: k + 1],
        source=step,
        mass_at_infinity=int(step.sizes[k:].sum()),
    )


def dissipative_ssf(l0: Dissipative, l1: Dissipative, m: int) -> LineSSF:
    """SSF of a dissipative pair: Cayley transform, dilate on m blocks, push to the line."""
    l0, l1 = as_pair(Dissipative, l0, l1)
    t0 = cayley(l0).contraction
    t1 = cayley(l1).contraction
    return pushforward_line(contraction_ssf(t0, t1, m))


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
    polynomial degrees up to m - 2 in the Cayley variable.
    """
    if z.imag > -1e-6:
        raise ValidationError("need Im z <= -1e-6 (poles in the open lower half-plane)")
    l0, l1 = as_pair(Dissipative, l0, l1)
    lhs, rhs = resolvent_trace_sides(l0.m, l1.m, ssf, z)
    return float(abs(lhs - rhs))


def resolvent_trace_sides(m0, m1, ssf: LineSSF, z: complex) -> tuple[complex, complex]:
    """trace((M1-z)^(-1) - (M0-z)^(-1)) and -sum of jump * (t_k - z)^(-1), unvalidated."""
    eye = np.eye(m0.shape[0])
    lhs = np.trace(np.linalg.inv(m1 - z * eye)) - np.trace(np.linalg.inv(m0 - z * eye))
    rhs = -np.sum(ssf.jump_sizes / (ssf.breakpoints - z)) if len(ssf.breakpoints) else 0.0
    return complex(lhs), complex(rhs)


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
    ts = [cayley(l).contraction.m for l in ls]
    defect_res, adjoint_res = [], []
    for l, t in zip(ls, ts):
        eye = np.eye(l.n)
        shifted_inv = l.resolvent_minus_i
        root = hermitian_sqrt(l.imag_eigh)
        g = root @ shifted_inv
        g_twin = shifted_inv @ root
        d_sq = eye - t.conj().T @ t
        d_star_sq = eye - t @ t.conj().T
        defect_res.append(float(np.linalg.norm(d_sq - 4.0 * g.conj().T @ g)))
        adjoint_res.append(float(np.linalg.norm(d_star_sq - 4.0 * g_twin @ g_twin.conj().T)))
    diff_res = float(np.linalg.norm((ts[1] - ts[0]) + 2j * (ls[1].resolvent_minus_i - ls[0].resolvent_minus_i)))
    return CayleyIdentityReport(
        defect_sq_residuals=(defect_res[0], defect_res[1]),
        adjoint_defect_sq_residuals=(adjoint_res[0], adjoint_res[1]),
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
    least 1e-12), else KernelViolation. The four G-type operator norms are
    diagnostics: in finite dimensions boundedness is automatic, but the
    sizes are what enter the estimates.
    """
    ls = as_pair(Dissipative, l0, l1)
    inv_roots, g_norms, g_twin_norms = [], [], []
    for j, l in enumerate(ls):

        def inverse_root(w, j=j):
            if float(w.min()) < 1e-12:
                raise KernelViolation(f"Im L_{j} has eigenvalue {w.min():.3e}, inverse square root undefined")
            return w**-0.5

        inv_roots.append(hermitian_function(l.imag_eigh, inverse_root))
        root = hermitian_sqrt(l.imag_eigh)
        shifted_inv = l.resolvent_minus_i
        g_norms.append(operator_norm(root @ shifted_inv))
        g_twin_norms.append(operator_norm(shifted_inv @ root))
    weighted = float(schatten_norm(inv_roots[1] @ (ls[1].m - ls[0].m) @ inv_roots[0], p))
    return DissipativeConditionReport(
        p=p,
        weighted_diff_norm=weighted,
        resolvent_diff_trace_norm=float(schatten_norm(ls[1].resolvent_minus_i - ls[0].resolvent_minus_i, 1)),
        sqrt_im_resolvent_norms=(g_norms[0], g_norms[1]),
        resolvent_sqrt_im_norms=(g_twin_norms[0], g_twin_norms[1]),
    )
