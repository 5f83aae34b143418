"""Core dense linear algebra for the laboratory.

Matrices are plain complex128 numpy arrays throughout; the operator classes
below are thin validated wrappers that freeze their matrix at construction.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from .errors import (
    EigenFailure,
    IndefiniteInput,
    InvalidExponent,
    KernelViolation,
    NearSingular,
    NotHermitian,
    ValidationError,
)

TWO_PI = 2.0 * np.pi
# eigenphases at circular distance below this are one eigenvalue of higher multiplicity
CLUSTER_TOL = 1e-9

_Op = TypeVar("_Op")


def as_operator(cls: type[_Op], x) -> _Op:
    """x itself when it is already a cls, else cls(x), which validates it."""
    return x if isinstance(x, cls) else cls(x)


def same_dimension(n0, n1) -> None:
    """The pair rule: ValidationError unless the dimensions (or block layouts) of a pair agree."""
    if n0 != n1:
        raise ValidationError(f"dimension mismatch: {n0} vs {n1}")


def as_pair(cls: type[_Op], a, b) -> tuple[_Op, _Op]:
    """as_operator(cls, a) and as_operator(cls, b), under the pair rule."""
    a, b = as_operator(cls, a), as_operator(cls, b)
    same_dimension(a.n, b.n)
    return a, b


def check_exponents(alpha: float, beta: float, p: float, sigma: Optional[float] = None) -> None:
    """The exponent window: InvalidExponent unless alpha, beta >= 0, p >= 1 and alpha + beta
    lies in (1/2, 1], or with sigma in (0, 1), in (1 - sigma, 1] (the fractional bound)."""
    if sigma is not None and not 0.0 < sigma < 1.0:
        raise InvalidExponent(f"sigma must lie in (0, 1), got {sigma}")
    lo = 0.5 if sigma is None else 1.0 - sigma
    if alpha < 0 or beta < 0 or not p >= 1 or not lo < alpha + beta <= 1.0:
        raise InvalidExponent(f"need alpha, beta >= 0, p >= 1 and alpha + beta in ({lo}, 1]; got {alpha}, {beta}, {p}")


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    m = np.asarray(getattr(a, "m", a), dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not (np.isfinite(m.real).all() and np.isfinite(m.imag).all()):
        raise ValidationError("matrix has non-finite entries")
    return m


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return the symmetrized matrix, raising NotHermitian beyond the fixed tolerance 1e-12.

    The tolerance is applied relative to 1 + ||a||_F so it means the same
    thing for unit-scale operators and for stiff discrete Laplacians.
    """
    r = float(np.linalg.norm(a - a.conj().T))
    if not r <= 1e-12 * (1.0 + float(np.linalg.norm(a))):
        raise NotHermitian(f"Hermitian residual {r:.3e} exceeds tolerance 1.0e-12")
    return hermitize(a)


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def operator_norm(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def schatten_norm(a, p: float = 2) -> float:
    """Schatten p-norm (sum of p-th powers of singular values, p-th root), for p in [1, inf].

    Outside p = 1 and 2 the sum is scaled by the largest singular value s_0,
    s_0 (sum (s / s_0)^p)^(1/p), so no power underflows or overflows; at
    p = inf that is s_0. A zero matrix has norm 0.
    """
    if not p >= 1:
        raise InvalidExponent(f"Schatten exponent must be >= 1, got {p}")
    m = np.asarray(getattr(a, "m", a), dtype=np.complex128)
    s = np.linalg.svd(m, compute_uv=False)
    if p == 1:
        return float(np.sum(s))
    if p == 2:
        return float(np.sqrt(np.sum(s * s)))
    top = float(s.max(initial=0.0))
    return top * float(np.sum((s / top) ** p) ** (1.0 / p)) if top > 0 else 0.0


def _eig(solver, a: np.ndarray):
    """solver(a) for a numpy eigensolver, with LAPACK failure raised as EigenFailure
    (LinAlgError subclasses ValueError, the class of input refusals)."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def hermitian_function(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """f(A) = V f(w) V* for a Hermitian A = V diag(w) V*, hermitized.

    The package's one functional calculus (Higham, Functions of Matrices,
    SIAM 2008, ch. 1). a is the matrix A, or its eigendecomposition (w, V)
    as `np.linalg.eigh` returns it when the caller holds one already. f maps
    the ascending eigenvalues w to the values on them and may raise to
    refuse a spectrum; a LAPACK failure raises EigenFailure.
    """
    w, v = a if isinstance(a, tuple) else _eig(np.linalg.eigh, a)
    return hermitize((v * f(w)) @ v.conj().T)


def hermitian_sqrt(a) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix: hermitian_power with clamp 1e-8."""
    return hermitian_power(a, 0.5, clamp=1e-8)


def power_values(w: np.ndarray, exponent: float, clamp: float = 1e-10) -> np.ndarray:
    """w**exponent on a Hermitian spectrum w, the package's one power rule. A negative exponent
    needs every eigenvalue to clear 1e-12, else KernelViolation (-0.0 is not negative). For the
    others eigenvalues in [-clamp, 0) count as zero and anything lower raises IndefiniteInput."""
    lo = float(w.min(initial=np.inf))
    if exponent < 0 and lo < 1e-12:
        raise KernelViolation(f"eigenvalue {lo:.3e} below the 1.0e-12 floor, inverse power {exponent} undefined")
    if lo < -clamp:
        raise IndefiniteInput(f"eigenvalue {lo:.3e} below -{clamp:.1e}")
    return np.clip(w, 0.0, None) ** exponent


def hermitian_power(a, exponent: float, *, clamp: float = 1e-10) -> np.ndarray:
    """f(A) for f(x) = x**exponent by `power_values`, on a matrix Hermitian within
    1e-12, or on an eigendecomposition (w, V) as `hermitian_function` takes it."""
    a = a if isinstance(a, tuple) else require_hermitian(as_matrix(a))
    return hermitian_function(a, lambda w: power_values(w, exponent, clamp))


def weighted_norm(left, delta: np.ndarray, right, exponents: tuple[float, float], p: float) -> float:
    """||A^a delta B^b||_p for Hermitian A = U diag(w) U* and B = Q diag(v) Q*, given as (w, U) and (v, Q):
    the unitarily invariant norm of diag(w^a) U* delta Q diag(v^b), powers by `power_values`."""
    (w, u), (v, q), (a, b) = left, right, exponents
    return schatten_norm(power_values(w, a)[:, None] * (u.conj().T @ delta @ q) * power_values(v, b), p)


def _cluster_circle(phases: np.ndarray, weights: np.ndarray):
    """Cluster sorted phases on (0, 2pi] whose circular gap is below CLUSTER_TOL.

    Returns (representative, total weight) pairs sorted by phase, with
    representatives within CLUSTER_TOL of the 0/2pi seam snapped to 2pi and the
    groups snapped there merged into one entry.
    """
    order = np.argsort(phases)
    phases = phases[order]
    weights = weights[order]
    if phases.size == 0:
        return []
    starts = np.flatnonzero(np.concatenate(([True], ~(np.diff(phases) < CLUSTER_TOL))))
    if len(starts) > 1 and (phases[0] + TWO_PI - phases[-1]) < CLUSTER_TOL:
        # the first group wraps past 2pi into the last one
        first = starts[1]
        phases = np.concatenate((phases[first:], phases[:first] + TWO_PI))
        weights = np.concatenate((weights[first:], weights[:first]))
        starts = starts[1:] - first
    sums = np.add.reduceat(weights, starts)
    # each mean as first phase plus mean offset: the offsets are exact, so
    # the mean is correctly rounded
    counts = np.diff(starts, append=len(phases))
    firsts = phases[starts]
    offsets = np.add.reduceat(phases - np.repeat(firsts, counts), starts)
    reps = (firsts + offsets / counts) % TWO_PI
    reps = np.where((reps <= CLUSTER_TOL) | (reps >= TWO_PI - CLUSTER_TOL), TWO_PI, reps)
    order = np.argsort(reps, kind="stable")
    reps, sums = reps[order], sums[order]
    seam = int(np.searchsorted(reps, TWO_PI))
    if len(reps) - seam > 1:
        reps, sums = reps[: seam + 1], np.append(sums[:seam], sums[seam:].sum())
    return list(zip(reps.tolist(), sums.tolist()))


def _lapack_values_solvers() -> Optional[dict]:
    """The values-only Hermitian solves of the LAPACK numpy loaded, by dtype: LAPACKE's
    zheevd and dsyevd with ILP64 arguments, or None on a numpy build without them."""
    try:
        lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        solvers = {
            np.dtype(np.complex128): lapack.scipy_LAPACKE_zheevd64_,
            np.dtype(np.float64): lapack.scipy_LAPACKE_dsyevd64_,
        }
    except (AttributeError, OSError):
        return None
    for solver in solvers.values():
        # (layout, jobz, uplo, n, a, lda, w) -> info
        solver.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char) + (ctypes.c_int64, ctypes.c_void_p) * 2
        solver.restype = ctypes.c_int64
    return solvers


_VALUES_SOLVERS = _lapack_values_solvers()
# LAPACKE's LAPACK_COL_MAJOR
_COLUMN_MAJOR = 102


def hermitian_values(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix whose lower triangle a holds, or of each in a stack.

    A square complex128 or float64 matrix goes to one values-only LAPACK
    call, ?heevd or ?syevd with JOBZ = N and UPLO = L, made through ctypes on
    the LAPACK numpy loaded; a foreign call releases the GIL. The call works
    in place, overwriting a's lower triangle, when a is column-major and
    writable, else on a column-major copy. A nonzero info raises
    LinAlgError. Anything else, or any matrix on a numpy build without those
    symbols, goes to np.linalg.eigvalsh: the same routine on the same
    triangle, so the same bits.
    """
    square = a.ndim == 2 and a.shape[0] == a.shape[1]
    solver = _VALUES_SOLVERS.get(a.dtype) if _VALUES_SOLVERS is not None and square else None
    if solver is None:
        return np.linalg.eigvalsh(a)
    a = np.require(a, requirements="FAW")
    w = np.empty(len(a))
    info = solver(_COLUMN_MAJOR, b"N", b"L", len(a), a.ctypes.data, max(len(a), 1), w.ctypes.data)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge" if info > 0 else f"LAPACKE argument {-info} refused")
    return w


# psi is an irrational multiple of pi, so the first pole theta = psi + pi
# misses every angle that is a rational multiple of pi
_PSI = 0.5 * np.pi * (np.sqrt(5.0) - 1.0)
# a |tan| beyond this puts an eigenvalue near the pole, where the solve loses
# the others' accuracy; the pole then moves into the widest gap
_POLE_LIMIT = 2e3
# largest accepted ||A - A*||_F, which bounds every phase error (Bauer-Fike);
# beyond it, dense eigvals
_SKEW_TOL = 1e-9
# columns per strip of the in-place Hermitian part: the strip's temporaries
# stay a small share of the matrix
_STRIP = 64
# fewest rows of the smaller Cayley matrix at which unitary_spectrum_pair
# solves a pair's first tries at once: one BLAS thread on 2 cores, generated
# pair files at 63-90 rows ran within 5% either way, at 96 and more 5-31% faster
_CONCURRENT_N = 96


class _CayleySolve(NamedTuple):
    theta: np.ndarray
    pole: float
    skew: np.ndarray


def _square_sum(x: np.ndarray) -> np.ndarray:
    """||x||_F^2 of a real matrix, or of each in a stack."""
    return np.einsum("...ij,...ij->...", x, x)


def _hermitian_part(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H = (A + A*)/2 into a in place, where a's transpose holds it; ||A - A*||_F and 2 ||Im H||_F per matrix.

    Works one strip of _STRIP columns at a time: the entries below the
    strip's diagonal block meet the conjugates of those right of it, and
    the block of H's lower triangle formed there is copied, transposed,
    right of it. So the lower triangle of a.swapaxes(-1, -2), which is
    column-major for a C-ordered a, is H's: hermitian_values reads it with
    no copy. For a folded A = X + iY the real part of that triangle is
    bitwise the one of (X + X^T)/2, and 2 ||Im H||_F = ||Y - Y^T||_F is the
    fold's Weyl certificate.
    """
    size = a.shape[-1]
    squares, imag_squares = np.zeros(a.shape[:-2]), np.zeros(a.shape[:-2])
    for c0 in range(0, size, _STRIP):
        c1 = min(c0 + _STRIP, size)
        # the diagonal block, then the entries below it, each of which stands
        # for its mirror image in the skew too
        diagonal, below_it, right_of_it = a[..., c0:c1, c0:c1], a[..., c1:, c0:c1], a[..., c0:c1, c1:]
        for below, right, weight in ((diagonal, diagonal, 1.0), (below_it, right_of_it, 2.0)):
            above = right.conj().swapaxes(-1, -2)
            gap = below - above
            squares += weight * (_square_sum(gap.real) + _square_sum(gap.imag))
            np.add(above, below, out=below)
            below *= 0.5
            imag_squares += weight * _square_sum(below.imag)
            right[...] = below.swapaxes(-1, -2)
    return np.sqrt(squares), 2.0 * np.sqrt(imag_squares)


def _cayley_solve(problem: CayleyProblem, psi: float, values: Optional[Callable] = None) -> Optional[_CayleySolve]:
    """One try at the pole psi + pi: phases psi + 2 arctan(a) over the eigenvalues a of `problem.matrix(psi)`
    (values, else hermitian_values), pole the largest |a| over the whole stack; None where that matrix is None."""
    matrix = problem.matrix(psi)
    if matrix is None:
        return None
    w = _eig(values or hermitian_values, matrix[0])
    return _CayleySolve(psi + 2.0 * np.arctan(w), float(np.abs(w).max(initial=0.0)), matrix[1])


def _pole_in_widest_gap(theta: np.ndarray) -> float:
    """The psi whose pole psi + pi sits mid-way in the widest circular gap of all the phases theta."""
    t = np.sort(theta.ravel() % TWO_PI)
    gaps = np.diff(t, append=t[:1] + TWO_PI)
    k = np.argmax(gaps)
    return float(t[k] + 0.5 * gaps[k] - np.pi)


class CayleyProblem(NamedTuple):
    """The eigenproblem of a unitary U, or of a stack of unitaries of one size, solved by `spectrum`.

    shifted_inverse(alpha) returns (I + alpha U)^(-1), so a structured U
    never has to be dense; for a stack, one inverse per member. dense()
    returns U, or for a stack one matrix with the same spectrum. psi + pi
    is the first pole, and rows the rows of each Cayley matrix.

    With alpha = e^(-i psi), the Cayley transform of W = alpha U,
    A = i (I - W)(I + W)^(-1) = 2i (I + alpha U)^(-1) - iI, is Hermitian and
    has the eigenvalue a = tan((theta - psi) / 2) wherever U has e^(i theta).
    That map is monotone, so hermitian_values of A alone gives every phase
    psi + 2 arctan(a) with its multiplicity. An eigenvalue near the pole
    (|a| above _POLE_LIMIT) costs the others accuracy, so the solve is
    repeated once, at a pole in the widest gap of all the phases just
    found. The skew ||A - A*||_F bounds every phase error: a U that passed
    `Unitary`'s check may carry a defect up to 1e-10, and
    A - A* = 2i X*(I - U*U)X with X = (I + alpha U)^(-1). When any skew is
    beyond _SKEW_TOL, when the second try still meets the pole, or when
    I + alpha U is singular, the eigenvalues are eigvals(dense()).

    fold is given for a U with a permutation P such that P U P = U^T. Then
    A^T = P A P, which for a Hermitian A is conj(A) = P A P, and fold(a)
    replaces a in place by B = V* A V for a unitary V with conj(V) = P V.
    B is real symmetric, and hermitian_values of a real matrix costs about
    a quarter of the complex one. In floating point B = X + iY: its skew
    ||B - B*||_F is A's, since V is unitary, and its Hermitian part differs
    from the real (X + X^T)/2 by i (Y - Y^T)/2. By Weyl that moves every
    eigenvalue by at most ||(Y - Y^T)/2||_2, and every phase by at most
    twice that, so ||Y - Y^T||_F is the fold's certificate. The real
    (X + X^T)/2 is solved only when skew plus certificate stay within
    _SKEW_TOL; otherwise B's Hermitian part, which has A's eigenvalues.

    A stack's members share the one pole, fold folds every member, and a
    retry solves the whole stack again. The real solve runs only when every
    member certifies it, and the Cayley route only when every member passes
    its skew certificate.
    """

    shifted_inverse: Callable
    dense: Callable
    fold: Optional[Callable] = None
    psi: float = _PSI
    rows: int = 0

    def matrix(self, psi: float) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """A's Hermitian part at the pole psi + pi, as hermitian_values takes it, and its skew;
        None if I + e^(-i psi) U is singular or the skew is not finite.

        A is formed in the buffer shifted_inverse returns, and the Hermitian
        part handed on is that buffer's transpose, no copy; a folded real
        part is a copy.
        """
        try:
            a = self.shifted_inverse(np.exp(-1j * psi))
        except np.linalg.LinAlgError:
            return None
        a *= 2j
        diag = np.arange(a.shape[-1])
        a[..., diag, diag] -= 1j
        if self.fold is not None:
            self.fold(a)
        skew, weyl = _hermitian_part(a)
        if not np.all(np.isfinite(skew)):
            return None
        if self.fold is not None and np.all(skew + weyl <= _SKEW_TOL):
            a = a.real.copy()
        return a.swapaxes(-1, -2), skew

    def spectrum(self, first_values: Optional[Callable] = None) -> np.ndarray:
        """The eigenvalues of U, a stack's member by member; first_values replaces hermitian_values on the first try."""
        solve = _cayley_solve(self, self.psi, first_values)
        if solve is not None and solve.pole > _POLE_LIMIT:
            solve = _cayley_solve(self, _pole_in_widest_gap(solve.theta))
        if solve is None or solve.pole > _POLE_LIMIT or np.any(solve.skew > _SKEW_TOL):
            return _eig(np.linalg.eigvals, self.dense())
        return np.exp(1j * solve.theta).ravel()


def unitary_spectrum_pair(first: CayleyProblem, second: CayleyProblem) -> tuple[np.ndarray, np.ndarray]:
    """first.spectrum() and second.spectrum(), with first's first solve on a worker thread.

    When hermitian_values has its GIL-free LAPACK call and both problems'
    Cayley matrices have at least _CONCURRENT_N rows, first's first Cayley
    matrix is formed here and its hermitian_values call alone runs on a
    worker thread, while second.spectrum() runs here. Every step computes
    what the two calls in turn compute, so the eigenvalues are bitwise
    theirs. Below _CONCURRENT_N rows the worker costs more than it gains.
    """
    if _VALUES_SOLVERS is None or min(first.rows, second.rows) < _CONCURRENT_N:
        return first.spectrum(), second.spectrum()
    seconds = []

    def beside_second(h: np.ndarray) -> np.ndarray:
        solving = worker.submit(hermitian_values, h)
        seconds.append(second.spectrum())
        return solving.result()

    with ThreadPoolExecutor(1) as worker:
        spectrum = first.spectrum(beside_second)
    # first's first matrix is None when I + alpha U is singular: second was not solved yet
    return spectrum, seconds[0] if seconds else second.spectrum()


def phase_clusters(eigs: np.ndarray) -> list[tuple[float, int]]:
    """Phases of unit-modulus eigenvalues in (0, 2pi] as (phase, multiplicity) pairs.

    Phase 0 is reported as 2pi; phases at circular distance below
    CLUSTER_TOL merge into one entry whose multiplicity is the cluster size.
    """
    ph = np.angle(eigs)
    ph = np.where(ph <= 0.0, ph + TWO_PI, ph)
    return _cluster_circle(ph, np.ones(len(ph), dtype=int))


def eigenphases(u) -> list[tuple[float, int]]:
    """Eigenvalue phases of a unitary matrix, as (phase, multiplicity) pairs.

    Phases live in (0, 2pi], with phase 0 reported as 2pi. Eigenvalues at
    circular distance below CLUSTER_TOL merge into one entry whose
    multiplicity is the cluster size. The eigenvalues come from
    `CayleyProblem.spectrum`, which falls back to eigvals of u when u is
    too far from unitary for the Cayley route; a `Unitary` u gives its
    cached `spectrum`.
    """
    return phase_clusters(u.spectrum if isinstance(u, Unitary) else _dense_unitary_spectrum(as_matrix(u)))


def _dense_unitary_spectrum(m: np.ndarray) -> np.ndarray:
    """The spectrum of a dense matrix m as a `CayleyProblem`, with eigvals(m) as its fallback."""
    eye = np.eye(m.shape[0])
    return CayleyProblem(lambda a: np.linalg.inv(eye + a * m), lambda: m).spectrum()


class Unitary:
    """Square matrix with ||U*U - I||_F, its `defect`, at most 1e-10.

    `spectrum`, its eigenvalues from `CayleyProblem.spectrum`, is cached,
    read-only, computed on first use, and read by `eigenphases` and `determinant_ssf`.
    """

    def __init__(self, m):
        mat = as_matrix(m)
        eye = np.eye(mat.shape[0])
        defect = float(np.linalg.norm(mat.conj().T @ mat - eye))
        if not defect <= 1e-10:
            raise ValidationError(f"unitarity defect {defect:.3e} exceeds 1.0e-10")
        self.m = _frozen(mat.copy())
        self.n = mat.shape[0]
        self.defect = defect

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues from `CayleyProblem.spectrum`, dense `eigvals` of m only as its fallback."""
        return _frozen(_dense_unitary_spectrum(self.m))


class Contraction:
    """Square matrix with largest singular value at most 1 + 1e-8.

    Validation takes the one full SVD T = U diag(s) V*, reads that value,
    `norm`, off it and keeps it, read-only, as `defect_eighs`: ((c, V), (c, U))
    with c = `defect_values`(s), so D_T = V diag(c) V* and D_T* = U diag(c) U*,
    as `hermitian_function` takes them.
    """

    def __init__(self, m):
        mat = as_matrix(m)
        u, s, vh = np.linalg.svd(mat)
        smax = float(s[0]) if s.size else 0.0
        if not smax <= 1.0 + 1e-8:
            raise ValidationError(f"largest singular value {smax:.12f} exceeds 1 + 1.0e-08")
        self.m = _frozen(mat.copy())
        self.n = mat.shape[0]
        self.norm = smax
        c = _frozen(defect_values(s, self.n))
        self.defect_eighs = (c, _frozen(vh.conj().T)), (c, _frozen(u))

    @cached_property
    def defects(self) -> DefectPair:
        """The defect pair of defect_operators, built from `defect_eighs`, read-only."""
        return DefectPair(*(_frozen(hermitize((v * c) @ v.conj().T)) for c, v in self.defect_eighs))


# singular values within this many n eps of 1 are 1 (defect_values)
_UNIT_SV = 8


def defect_values(s: np.ndarray, n: int) -> np.ndarray:
    """sqrt(1 - s^2) for the singular values s of an n-square contraction.

    A singular value that is exactly 1 comes back from the SVD, or as the
    modulus of an eigenvalue, a few n eps off (up to 5.5 n eps measured on
    T = Q diag(tau) Q* with unimodular tau, n <= 8), and sqrt(1 - s^2) turns
    that into a defect near 1e-8 that hides the defect kernel. So a value
    with 1 - s <= _UNIT_SV n eps counts as exactly 1 and gets the defect 0.
    """
    s = np.asarray(s, dtype=float)
    return np.where(1.0 - s <= _UNIT_SV * n * np.finfo(float).eps, 0.0, np.sqrt(np.clip(1.0 - s * s, 0.0, None)))


class Dissipative:
    """Square matrix whose imaginary part (L - L*)/2i is PSD within 1e-10.

    Validation takes the one eigh of the hermitized Im L and keeps it, read-only,
    as `imag_eigh`: (w, V) with Im L = V diag(w) V*, as `hermitian_function` takes it;
    `imag_min` is min w (0.0 when empty). The Cayley image, (L + iI)^(-1) and
    `g_pair` are cached, read-only, and computed on first use.
    """

    def __init__(self, m):
        self.m = _frozen(as_matrix(m).copy())
        self.n = self.m.shape[0]
        w, v = _eig(np.linalg.eigh, self.imag_part)
        self.imag_min = float(w.min()) if w.size else 0.0
        if not self.imag_min >= -1e-10:
            raise ValidationError(f"imaginary part eigenvalue {self.imag_min:.3e} below -1.0e-10")
        self.imag_eigh = _frozen(w), _frozen(v)

    @property
    def imag_part(self) -> np.ndarray:
        return hermitize((self.m - self.m.conj().T) / 2j)

    @cached_property
    def resolvent_minus_i(self) -> np.ndarray:
        """(L + iI)^(-1), the resolvent at -i."""
        return _frozen(np.linalg.inv(self.m + 1j * np.eye(self.n)))

    @cached_property
    def g_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """G = (Im L)^(1/2) (L + iI)^(-1) and its reversed-order twin (L + iI)^(-1) (Im L)^(1/2)."""
        root = hermitian_sqrt(self.imag_eigh)
        return _frozen(root @ self.resolvent_minus_i), _frozen(self.resolvent_minus_i @ root)

    @cached_property
    def cayley_image(self) -> Contraction:
        """T = (L - iI)(L + iI)^(-1); NearSingular when cond(L + iI) exceeds 1e12, which
        validated input can reach: L = diag(0, 1e13) has cond(L + iI) = 1e13."""
        eye = np.eye(self.n)
        shifted = self.m + 1j * eye
        cond = float(np.linalg.cond(shifted))
        if not np.isfinite(cond) or cond > 1e12:
            raise NearSingular(f"cond(L + iI) = {cond:.3e}")
        t = np.linalg.solve(shifted.T, (self.m - 1j * eye).T).T
        return Contraction(t)


class PsdContraction:
    """Hermitian matrix (within 1e-12, symmetrized) with spectrum in [-1e-10, 1 + 1e-10].

    Validation takes the one eigh of m and keeps it, read-only, as `eigh`,
    (w, V) with m = V diag(w) V* as `hermitian_function` takes it; `min_eig`
    is its smallest eigenvalue (0.0 when empty).
    """

    def __init__(self, m):
        mat = require_hermitian(as_matrix(m))
        w, v = _eig(np.linalg.eigh, mat)
        lo, hi = (float(w.min()), float(w.max())) if w.size else (0.0, 0.0)
        if not lo >= -1e-10:
            raise IndefiniteInput(f"eigenvalue {lo:.3e} below -1e-10")
        if not hi <= 1.0 + 1e-10:
            raise ValidationError(f"eigenvalue {hi:.6f} above 1 + 1e-10")
        self.m = _frozen(mat)
        self.n = mat.shape[0]
        self.min_eig = lo
        self.eigh = _frozen(w), _frozen(v)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DefectPair(NamedTuple):
    d_t: np.ndarray
    d_t_star: np.ndarray


def defect_operators(t) -> DefectPair:
    """Defect pair ((I - T*T)^(1/2), (I - TT*)^(1/2)) of a contraction.

    Computed from the singular value decomposition of T itself, which gives
    both roots in one Schmidt basis and keeps the intertwining relation
    T D_T = D_T* T at roundoff even when T is unitary to machine precision.
    """
    return as_operator(Contraction, t).defects


def unitary_factor(a) -> np.ndarray:
    """The unitary factor V of the polar decomposition a = V |a|: U V* from the SVD a = U diag(s) V*."""
    u, _, vh = np.linalg.svd(as_matrix(a))
    return u @ vh


def analytic_poly_eval(t, coeffs: Sequence[complex]) -> np.ndarray:
    """Evaluate an analytic polynomial sum_k coeffs[k] T^k by Horner's scheme."""
    m = as_matrix(t)
    if len(coeffs) == 0:
        raise ValidationError("empty coefficient list")
    c = np.asarray(coeffs, dtype=np.complex128)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    out = c[-1] * eye
    for k in range(len(c) - 2, -1, -1):
        out = out @ m + c[k] * eye
    return out


def poly_scalar(coeffs: Sequence[complex], z):
    """Evaluate the same polynomial at scalar (or array) points."""
    return np.polynomial.polynomial.polyval(z, np.asarray(coeffs, dtype=np.complex128))


def poly_derivative(coeffs: Sequence[complex]) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.complex128)
    if len(c) <= 1:
        return np.zeros(1, dtype=np.complex128)
    return c[1:] * np.arange(1, len(c))


def cayley(l) -> Contraction:
    """Cayley transform T = (L - iI)(L + iI)^(-1) of a dissipative matrix: `Dissipative.cayley_image`."""
    return as_operator(Dissipative, l).cayley_image


def singular_value_commute_check(t1, t2) -> float:
    """Max deviation between sorted singular values of T1 T2 and T2 T1.

    Both inputs must be Hermitian within 1e-12; the products themselves need not be.
    """
    a = require_hermitian(as_matrix(t1))
    b = require_hermitian(as_matrix(t2))
    same_dimension(len(a), len(b))
    s_ab = np.linalg.svd(a @ b, compute_uv=False)
    s_ba = np.linalg.svd(b @ a, compute_uv=False)
    return float(np.max(np.abs(s_ab - s_ba))) if s_ab.size else 0.0
