"""One-dimensional Schrodinger scenery: Green's kernels, Nystrom matrices,
trace-class checks, and discrete dissipative pairs.

Everything lives on a truncated interval with composite Gauss-Legendre
quadrature (16-point panels); the truncation error is part of the quoted
quadrature tolerance, never hidden. The free resolvent kernel at spectral
parameter z is exponentially decaying once the square root branch is fixed
with Im sqrt(z) > 0, which is what makes the truncation harmless for
integrable potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BranchCut,
    DissipativityViolation,
    NegativePotential,
    ValidationError,
)
from .linalg import Dissipative, _eig, _frozen, require_hermitian


def _hermitian_spectrum(a: np.ndarray) -> np.ndarray:
    """eigvalsh of an exactly Hermitian matrix, real when its imaginary part is 0."""
    return _eig(np.linalg.eigvalsh, a if np.any(a.imag) else a.real)


@dataclass(frozen=True)
class Grid1D:
    """Quadrature grid on [lo, hi]: nodes, positive weights, scheme label."""

    points: np.ndarray
    weights: np.ndarray
    scheme: str
    lo: float
    hi: float

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.ndim != 1 or p.shape != w.shape or len(p) == 0:
            raise ValidationError("points and weights must be matching 1-d arrays")
        if not (np.isfinite(p).all() and np.isfinite(w).all()):
            raise ValidationError("grid points and weights must be finite")
        if np.any(np.diff(p) <= 0):
            raise ValidationError("grid points must be strictly increasing")
        if np.any(w <= 0):
            raise ValidationError("quadrature weights must be positive")
        if np.any(p < self.lo - 1e-12) or np.any(p > self.hi + 1e-12):
            raise ValidationError("grid points must lie inside the domain")
        if abs(float(np.sum(w)) - (self.hi - self.lo)) > 1e-12 * max(1.0, self.hi - self.lo):
            raise ValidationError("weights must sum to the domain length")
        object.__setattr__(self, "points", _frozen(p))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return len(self.points)

    def integrate(self, values) -> float | complex:
        out = np.sum(self.weights * np.asarray(values))
        return complex(out) if np.iscomplexobj(values) else float(out)


_PANEL = 16


@cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The panel's Gauss-Legendre rule, computed on first use and read-only, as gauss_jacobi caches rules."""
    return tuple(_frozen(a) for a in np.polynomial.legendre.leggauss(_PANEL))


def make_grid(lo: float, hi: float, n: int, scheme: str = "gauss") -> Grid1D:
    """Composite 16-point Gauss-Legendre grid (n a multiple of 16), or trapezoid; a domain too
    long for doubles overflows quietly into points or weights that Grid1D refuses."""
    if hi <= lo:
        raise ValidationError("domain must have positive length")
    if scheme == "gauss":
        if n < _PANEL or n % _PANEL:
            raise ValidationError(f"gauss grids need a positive multiple of {_PANEL} nodes")
        panels = n // _PANEL
        gx, gw = _gauss_rule()
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.linspace(lo, hi, panels + 1)
            mids = (edges[:-1] + edges[1:]) / 2.0
            halves = (edges[1:] - edges[:-1]) / 2.0
            pts = (mids[:, None] + halves[:, None] * gx[None, :]).ravel()
            wts = (halves[:, None] * gw[None, :]).ravel()
        return Grid1D(points=pts, weights=wts, scheme=f"gauss{_PANEL}", lo=lo, hi=hi)
    if scheme == "trapezoid":
        if n < 2:
            raise ValidationError("trapezoid grids need at least 2 nodes")
        with np.errstate(over="ignore", invalid="ignore"):
            pts = np.linspace(lo, hi, n)
            h = (hi - lo) / (n - 1)
        wts = np.full(n, h)
        wts[0] = wts[-1] = h / 2.0
        return Grid1D(points=pts, weights=wts, scheme="trapezoid", lo=lo, hi=hi)
    raise ValidationError(f"unknown scheme {scheme!r}")


def green_kernel(x, t, z: complex):
    """Free-resolvent kernel -(1/(2i sqrt(z))) exp(i |x-t| sqrt(z)).

    The branch with Im sqrt(z) > 0 is the decaying one and is used always;
    z on (or within 1e-12 of) the nonnegative real axis has no such branch.
    Accepts scalars or broadcastable arrays in x and t.
    """
    z = complex(z)
    dist = abs(z.imag) if z.real >= 0 else abs(z)
    if dist < 1e-12:
        raise BranchCut(f"z = {z} is on the nonnegative real axis")
    root = np.sqrt(z)
    if root.imag <= 0:
        root = -root
    gap = np.abs(np.asarray(x) - np.asarray(t))
    out = -np.exp(1j * gap * root) / (2j * root)
    return out if out.shape else complex(out)


def _green_matrix(grid: Grid1D, z: complex) -> np.ndarray:
    """R(x_i, x_j) = green_kernel(x_i, x_j, z) on the grid points, as a complex matrix."""
    x = grid.points
    return np.asarray(green_kernel(x[:, None], x[None, :], z), dtype=np.complex128)


def _real_potential(q, what: str) -> np.ndarray:
    """Real part of potential values, NegativePotential if any |Im q| exceeds 1e-14."""
    q = np.asarray(q)
    if np.iscomplexobj(q):
        if np.max(np.abs(q.imag)) > 1e-14:
            raise NegativePotential(f"{what} need a real nonnegative potential")
        q = q.real
    return q


def nystrom_kernel(q_values, r: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The read-only matrix sqrt(w_i q_i) R(x_i, x_j) sqrt(q_j w_j).

    r is the complex matrix R(x_i, x_j) on the grid points; it does not
    depend on q, so the kernels of several potentials on one grid share it.
    The outer-product structure keeps the matrix exactly Hermitian whenever
    R itself is Hermitian-symmetric; that is validated, not assumed.
    """
    q = np.asarray(q_values)
    if q.shape != grid.points.shape:
        raise ValidationError("potential values must be given on the grid points")
    q = _real_potential(q, "Nystrom kernels")
    if q.size and float(q.min()) < -1e-14:
        raise NegativePotential(f"potential value {q.min():.3e} is negative")
    c = np.sqrt(grid.weights * np.clip(q, 0.0, None))
    return _frozen(require_hermitian((c[:, None] * c[None, :]) * r))


def full_kernel(q, grid: Grid1D, z: complex = -1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, K, eigenvalues of K): the Green matrix at z, q's Nystrom kernel on it and its spectrum."""
    r = _green_matrix(grid, z)
    k = nystrom_kernel(potential_values(q, grid.points), r, grid)
    return r, k, _hermitian_spectrum(k)


# ---------------------------------------------------------------------------
# potential descriptors


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


# each descriptor kind's keys and their defaults; a bump's taper None means min(0.75, half_width)
POTENTIAL_KEYS = {
    "gaussian": {"amplitude": 1.0, "center": 0.0, "width": 1.0},
    "bump": {"amplitude": 1.0, "center": 0.0, "half_width": 1.0, "taper": None},
    "table": {"x": None, "q": None},
}


def potential_values(q, x: np.ndarray) -> np.ndarray:
    """Evaluate a potential given as callable, array, or descriptor dict.

    A descriptor overlays its kind's POTENTIAL_KEYS defaults:
      gaussian: amplitude * exp(-((x - center)/width)^2)
      bump: amplitude * quintic-smoothed indicator of half_width around
            center with the given taper; its integral is exactly
            2 * half_width * amplitude because the taper is symmetric
      table: linear interpolation of sample arrays xs, qs (0 outside);
             xs must increase strictly
    """
    x = np.asarray(x, dtype=float)
    if callable(q):
        return np.asarray(q(x))
    if isinstance(q, dict):
        kind = q.get("kind")
        if not isinstance(kind, str) or kind not in POTENTIAL_KEYS:
            raise ValidationError(f"unknown potential kind {kind!r}")
        p = {**POTENTIAL_KEYS[kind], **q}
        if kind == "gaussian":
            if p["width"] <= 0:
                raise ValidationError("gaussian width must be positive")
            return p["amplitude"] * np.exp(-(((x - p["center"]) / p["width"]) ** 2))
        if kind == "bump":
            a = p["half_width"]
            taper = min(0.75, a) if p["taper"] is None else p["taper"]
            if not (0 < taper <= a):
                raise ValidationError("bump taper must lie in (0, half_width]")
            u = np.abs(x - p["center"])
            ramp = 1.0 - _smoothstep((u - (a - taper)) / (2.0 * taper))
            return p["amplitude"] * np.where(u <= a - taper, 1.0, np.where(u >= a + taper, 0.0, ramp))
        xs = np.asarray(p["x"], dtype=float)
        qs = np.asarray(p["q"])
        if not np.all(np.diff(xs) > 0):
            raise ValidationError("table x values must increase strictly")
        if np.iscomplexobj(qs):
            return np.interp(x, xs, qs.real, left=0.0, right=0.0) + 1j * np.interp(
                x, xs, qs.imag, left=0.0, right=0.0
            )
        return np.interp(x, xs, qs, left=0.0, right=0.0)
    arr = np.asarray(q)
    if arr.shape != x.shape:
        raise ValidationError("potential array length must match the grid")
    return arr


# ---------------------------------------------------------------------------
# trace reports


@dataclass(frozen=True)
class KernelTraceReport:
    """Trace identities of one Nystrom kernel."""

    trace: float
    trace_norm: float
    diagonal_integral: float
    half_l1_target: float
    min_eigenvalue: float

    @property
    def trace_norm_gap(self) -> float:
        return abs(self.trace - self.trace_norm)


def kernel_trace_report(q, grid: Grid1D, z: complex = -1.0, *, full: Optional[tuple] = None) -> KernelTraceReport:
    """Assemble the kernel for potential q and report its trace identities.

    For q >= 0 and the decaying Green's kernel the operator is PSD, so
    trace and trace norm agree and both equal the diagonal integral
    integral q(x) R(x, x) dx, which at z = -1 is half the L1 norm of q.
    full is full_kernel(q, grid, z) when the caller already holds it.
    """
    qv = potential_values(q, grid.points)
    _, k, spectrum = full or full_kernel(qv, grid, z)
    qv = np.clip(np.real(np.asarray(qv)).astype(float), 0.0, None)
    diag = green_kernel(grid.points, grid.points, z)
    diagonal_integral = float(np.sum(grid.weights * qv * np.real(diag)))
    half_l1 = 0.5 * float(np.sum(grid.weights * np.abs(qv)))
    return KernelTraceReport(
        trace=float(np.trace(k).real),
        trace_norm=float(np.abs(spectrum).sum()),
        diagonal_integral=diagonal_integral,
        half_l1_target=half_l1,
        min_eigenvalue=float(spectrum.min()),
    )


@dataclass(frozen=True)
class MonotoneReport:
    """Trace norms along a monotone approximation of the potential."""

    n_values: tuple[int, ...]
    variant: str
    full_norm: float
    approx_norms: tuple[float, ...]
    residual_norms: tuple[float, ...]


def monotone_s1_check(
    q,
    grid: Grid1D,
    n_list: Sequence[int],
    *,
    variant: str = "scale",
    level: float = 0.01,
    z: complex = -1.0,
    full: Optional[tuple] = None,
) -> MonotoneReport:
    """Norms of kernels built from potentials increasing pointwise to q.

    variant="scale" uses phi_n = q (1 - 1/n), for which K_n = (1 - 1/n) K
    exactly and the residual trace norm is ||K||_1 / n on the nose.
    variant="truncate" uses phi_n = min(q, level * n). Both sequences are
    pointwise nondecreasing and bounded by q, so for PSD kernels the approx
    norms must not decrease and the residual norms must not increase.
    full is full_kernel(q, grid, z) when the caller already holds it.
    """
    ns = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])) or not ns or ns[0] < 1:
        raise ValidationError("n_list must be strictly increasing positive integers")
    if variant not in ("scale", "truncate"):
        raise ValidationError(f"unknown variant {variant!r}")
    qv = np.asarray(_real_potential(potential_values(q, grid.points), "monotone ladders"), dtype=float)

    # every rung scales the same Green's matrix; every kernel and difference is
    # exactly Hermitian, so its S1 norm is sum |lambda|
    rmat, kfull, spectrum = full or full_kernel(qv, grid, z)
    norms = [float(np.abs(spectrum).sum())]
    for n in ns:
        phi = qv * (1.0 - 1.0 / n) if variant == "scale" else np.minimum(qv, level * n)
        kn = nystrom_kernel(phi, rmat, grid)
        norms += [float(np.abs(_hermitian_spectrum(k)).sum()) for k in (kn, kfull - kn)]
    return MonotoneReport(
        n_values=tuple(ns),
        variant=variant,
        full_norm=norms[0],
        approx_norms=tuple(norms[1::2]),
        residual_norms=tuple(norms[2::2]),
    )


# ---------------------------------------------------------------------------
# discrete dissipative pairs


def discrete_schrodinger_pair(q_values, h: float) -> tuple[Dissipative, Dissipative]:
    """L0 = (1+i) Lap_h + iI and L1 = L0 + diag(q) on a Dirichlet chain.

    Lap_h is tridiag(-1, 2, -1)/h^2, so Im L0 = Lap_h + I is at least I and
    both operators are strictly dissipative whenever Im q >= 0.
    """
    q = np.asarray(q_values, dtype=np.complex128)
    if q.ndim != 1 or len(q) == 0:
        raise ValidationError("need a 1-d array of potential values")
    if h <= 0:
        raise ValidationError("grid spacing must be positive")
    if float(q.imag.min()) < -1e-12:
        raise DissipativityViolation(
            f"Im q has a negative value {q.imag.min():.3e}; the pair would not be dissipative"
        )
    n = len(q)
    lap = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)
    l0 = (1.0 + 1j) * lap + 1j * np.eye(n)
    l1 = l0 + np.diag(q)
    return Dissipative(l0), Dissipative(l1)
