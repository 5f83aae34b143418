"""Fractional power differences Y^sigma - X^sigma and the Schatten bound.

The difference of fractional powers of two PSD contractions has the integral
representation

    Y^s - X^s = c_s * integral_0^inf t^s (tI + Y)^(-1) (Y - X) (tI + X)^(-1) dt,

with c_s = sin(pi s)/pi. The quadrature here splits the integral at t = 1:
the lower part goes to log space (t = e^s) where the integrand decays
exponentially and composite Gauss-Legendre panels apply, topped up with the
analytic small-t tail; the upper part is transformed by t -> 1/u onto (0, 1]
where the t^(s-2) decay becomes a u^(-s) endpoint singularity handled by a
single Gauss-Jacobi rule. Every pass is evaluated twice (nodes and 2*nodes)
and the difference is the stabilization certificate.

A pass is a double operator integral on the eigendecompositions the operands
keep, X = Vx diag(a) Vx* and Y = Vy diag(b) Vy*: a node t of weight w adds
w/((t + b_i)(t + a_j)) to one real n-square kernel K, and the pass is
c_s Vy (C o K) Vx* with C = Vy* (Y - X) Vx, in O(nodes n^2 + n^3) time and
O(nodes n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidExponent,
    KernelViolation,
    QuadratureDivergence,
    ValidationError,
)
from .linalg import PsdContraction, _eig, _frozen, as_operator, as_pair, check_exponents, hermitian_function
from .linalg import schatten_norm, weighted_norm
from .schrodinger import make_grid

# eigenvalues below this make inverse powers meaningless
_KERNEL_FLOOR = 1e-10
# below this the quadrature contract degrades from 1e-8 to 1e-4
_WELL_CONDITIONED = 1e-3


def _orthonormal_values(x: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """q_n, q_n' and sum_(k<n) q_k^2 at x, n = len(diag), for the polynomials
    q_0 = 1, off[k] q_(k+1) = (x - diag[k]) q_k - off[k-1] q_(k-1)."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    dprev, dcur = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    for k in range(len(diag)):
        total += cur * cur
        back = off[k - 1] if k else 0.0
        nxt = ((x - diag[k]) * cur - back * prev) / off[k]
        dnxt = ((x - diag[k]) * dcur + cur - back * dprev) / off[k]
        prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
    return cur, dcur, total


@lru_cache(maxsize=128)
def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for (1-x)^a (1+x)^b on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix (diag, off), each polished by one Newton step on q_n. The
    weights are the Christoffel numbers 1/sum_(k<n) q_k(x)^2, scaled to sum
    to mu0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2). Near x = +-1
    they are less sensitive to the rounding of the node than the classical
    1/((1-x^2) P_n'(x)^2), which loses one to two digits in the moments at
    n = 500. Rules are cached per (n, a, b) and returned read-only.
    """
    if n < 1 or a <= -1.0 or b <= -1.0:
        raise ValidationError(f"need n >= 1 and a, b > -1, got n={n}, a={a}, b={b}")
    k = np.arange(1.0, n + 1)
    c = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (c[:-1] * (c[:-1] + 2.0))
    off = 2.0 / c * np.sqrt((k + a) * (k + b) / (c + 1.0))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + a + b) / (c[1:] - 1.0))
    x = _eig(np.linalg.eigvalsh, np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    q, dq, _ = _orthonormal_values(x, diag, off)
    x = x - q / dq
    w = 1.0 / _orthonormal_values(x, diag, off)[2]
    log_mu0 = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
    mu0 = math.exp(log_mu0 - math.lgamma(a + b + 2.0))
    w *= mu0 / w.sum()
    return _frozen(x), _frozen(w)


def c_sigma(sigma: float) -> float:
    """The constant sin(pi sigma)/pi of the integral representation."""
    return float(np.sin(np.pi * sigma) / np.pi)


@dataclass(frozen=True)
class FractionalJob:
    """One instance of the fractional-difference problem.

    x and y are PsdContraction operands (a matrix is validated into one);
    sigma in (0, 1); alpha, beta >= 0 with alpha + beta in (1 - sigma, 1];
    p >= 1. min_eig, the smallest eigenvalue of x and y clipped at 0, comes
    from their validation.
    """

    x: PsdContraction
    y: PsdContraction
    sigma: float
    alpha: float
    beta: float
    p: float = 1.0
    min_eig: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y = as_pair(PsdContraction, self.x, self.y)
        check_exponents(self.alpha, self.beta, self.p, self.sigma)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "min_eig", max(min(x.min_eig, y.min_eig), 0.0))

    @property
    def ill_conditioned(self) -> bool:
        return self.min_eig < _WELL_CONDITIONED


def fractional_power(x, sigma: float) -> np.ndarray:
    """x^sigma for a PsdContraction x (a matrix is validated into one), by functional calculus."""
    if sigma <= 0:
        raise InvalidExponent(f"exponent must be positive, got {sigma}")
    return hermitian_function(as_operator(PsdContraction, x).eigh, lambda w: np.clip(w, 0.0, 1.0) ** sigma)


def _fractional_diff_pass(job: FractionalJob, nodes: int) -> np.ndarray:
    (a, vx), (b, vy), sigma = job.x.eigh, job.y.eigh, job.sigma
    upper_nodes = max(24, nodes // 8)
    panel_count = max(2, (nodes - upper_nodes) // 16)
    lam = max(job.min_eig, 1e-12)
    s_min = (2.0 * np.log(lam) - 30.0) / (2.0 + sigma)

    # lower piece: t in (0, 1], log substitution t = e^s
    lower_grid = make_grid(s_min, 0.0, 16 * panel_count)
    s_nodes, s_weights = lower_grid.points, lower_grid.weights
    # upper piece: t in [1, inf), substitution t = 1/u gives
    # integral_0^1 u^(-sigma) (I + uY)^(-1) diff (I + uX)^(-1) du; as (I + uY)^(-1) = t (tI + Y)^(-1),
    # the Gauss-Jacobi node u is the node t = 1/u with its weight over u^2
    xj, wj = gauss_jacobi(upper_nodes, 0.0, -sigma)
    u_nodes = (1.0 + xj) / 2.0
    t_nodes = np.concatenate([np.exp(s_nodes), 1.0 / u_nodes])
    weights = np.concatenate([s_weights * np.exp((1.0 + sigma) * s_nodes), 2.0 ** (sigma - 1.0) * wj / u_nodes**2])
    # analytic tail below t_min: G(t) ~ Y^(-1) diff X^(-1), the node t = 0 of weight w0
    w0, tail = np.exp((1.0 + sigma) * s_min) / (1.0 + sigma), 0.0
    if job.min_eig >= _KERNEL_FLOOR:
        t_nodes, weights = np.append(t_nodes, 0.0), np.append(weights, w0)
    else:
        # a zero eigenvalue's entries decay only as t^sigma: each entry integrates
        # t^sigma/((t + b_i)(t + a_j)) below t_min on its own, and C_ij = 0 where a_j = b_i = 0
        a, b = np.clip(a, 0.0, None), np.clip(b, 0.0, None)
        edge, bi, aj = np.exp(sigma * s_min) / sigma, b[:, None], a[None, :]
        with np.errstate(divide="ignore"):
            tail = np.where(aj > 0, np.where(bi > 0, w0 / (aj * bi), edge / aj), np.where(bi > 0, edge / bi, 0.0))

    # node t_k adds weights_k / ((t_k + b_i)(t_k + a_j)) to the kernel K_ij
    inv_b, inv_a = (1.0 / (t_nodes[:, None] + w) for w in (b, a))
    kernel = (weights[:, None] * inv_b).T @ inv_a + tail
    coupling = vy.conj().T @ (job.y.m - job.x.m) @ vx
    return c_sigma(sigma) * (vy @ (coupling * kernel) @ vx.conj().T)


def fractional_diff_quadrature(job: FractionalJob, nodes: int = 200) -> np.ndarray:
    """Quadrature value of c_sigma * integral t^sigma (tI+Y)^(-1)(Y-X)(tI+X)^(-1) dt.

    Converges to Y^sigma - X^sigma. The pass is run at the requested node
    count and again at twice that; if the two disagree beyond the
    stabilization tolerance (1e-8 well-conditioned, 1e-4 when either matrix
    has an eigenvalue under 1e-3) the quadrature has not settled and
    QuadratureDivergence is raised. The finer pass is returned.
    """
    if nodes < 32:
        raise ValidationError(f"need at least 32 nodes, got {nodes}")
    coarse = _fractional_diff_pass(job, nodes)
    fine = _fractional_diff_pass(job, 2 * nodes)
    stabilization_tol = 1e-4 if job.ill_conditioned else 1e-8
    drift = float(np.linalg.norm(fine - coarse))
    if drift > stabilization_tol * (1.0 + float(np.linalg.norm(fine))):
        raise QuadratureDivergence(
            f"node doubling moved the result by {drift:.3e} "
            f"(tolerance {stabilization_tol:.1e})"
        )
    return fine


@dataclass(frozen=True)
class FractionalBoundReport:
    """Sides of the Schatten bound for one fractional job."""

    sigma: float
    alpha: float
    beta: float
    p: float
    lhs: float
    weighted_norm: float
    plain_diff_norm: float
    bound: float
    holds: bool
    slack: float
    ill_conditioned: bool
    corollary_form: bool


def fractional_power_bound_report(job: FractionalJob) -> FractionalBoundReport:
    """Compare ||Y^s - X^s||_p against its weighted-difference bound.

    The bound is c_s/(a + b + s - 1) * ||Y^(-b) (Y - X) X^(-a)||_p
    + c_s/(1 - s) * ||X - Y||_p, the weighted norm on the eigh of X and Y.
    Requires both matrices invertible (smallest eigenvalue at least 1e-10) so
    the inverse powers exist; beta = 0 is the corollary form where only X
    gets inverted.
    """
    if job.min_eig < _KERNEL_FLOOR:
        raise KernelViolation(
            f"smallest eigenvalue {job.min_eig:.3e} is below {_KERNEL_FLOOR:.0e}; "
            "inverse powers in the bound are undefined"
        )
    x, y, sigma = job.x, job.y, job.sigma
    lhs = schatten_norm(fractional_power(y, sigma) - fractional_power(x, sigma), job.p)
    weighted = weighted_norm(y.eigh, y.m - x.m, x.eigh, (-job.beta, -job.alpha), job.p)
    plain = schatten_norm(x.m - y.m, job.p)
    c = c_sigma(sigma)
    bound = c / (job.alpha + job.beta + sigma - 1.0) * weighted + c / (1.0 - sigma) * plain
    return FractionalBoundReport(
        sigma=sigma,
        alpha=job.alpha,
        beta=job.beta,
        p=job.p,
        lhs=float(lhs),
        weighted_norm=float(weighted),
        plain_diff_norm=float(plain),
        bound=float(bound),
        holds=bool(lhs <= bound + 1e-10),
        slack=float(bound - lhs),
        ill_conditioned=job.ill_conditioned,
        corollary_form=bool(job.beta == 0.0),
    )


def resolvent_difference_identity_check(x, y, t: float) -> float:
    """Residual of Y(tI+Y)^(-1) - X(tI+X)^(-1) = t (tI+Y)^(-1)(Y-X)(tI+X)^(-1).

    The identity is exact (clear denominators to see it), so the residual
    measures only roundoff; anything above about 1e-11 indicates a problem.
    """
    if t < 1e-8:
        raise ValidationError(f"t must be at least 1e-8, got {t}")
    mx, my = (op.m for op in as_pair(PsdContraction, x, y))
    eye = np.eye(mx.shape[0])
    ry = np.linalg.inv(t * eye + my)
    rx = np.linalg.inv(t * eye + mx)
    lhs = my @ ry - mx @ rx
    rhs = t * ry @ (my - mx) @ rx
    return float(np.linalg.norm(lhs - rhs))
