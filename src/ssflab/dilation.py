"""Unitary dilations of contractions on finitely many blocks.

A contraction T sits inside the 2x2 unitary Julia block built from its
defect operators. Chaining that block into a cyclic shift over m blocks
gives a finite unitary whose compression to block 0 reproduces the powers
T, T^2, ..., T^(m-2). The wrap-around destroys higher powers, which is the
price of staying finite; callers pick m from the polynomial degree they
intend to ask about.

`FiniteDilation` owns the block layout and keeps only the 2n-square Julia
block, which holds T and its defect pair. Everything a run needs works on the
blocks: the unitarity check on that Julia block, the corner powers by a
recurrence on the top block row, and the shifted inverse (I + alpha U)^(-1)
from one 2n-square solve, whose Cayley transform `linalg.unitary_spectrum`
takes the eigenphases from. The dense (m n)-square unitary `u` is built only
when something reads it (tests, demos, `observed_trace_degree`, and the
dense eigvals fallback of that eigensolve).

A complex-symmetric T (T^T = T, as the Cayley image of a discrete
Schrodinger operator -Lap + q is) has D_T^T = D_T*, so its Julia block obeys
J^T = S J S, S the swap of its two n-halves. The block permutation P:
j -> -j mod m, an involution, then gives P U P = U^T, and the Hermitian
Cayley matrix A of U obeys conj(A) = A^T = P A P. With V the unitary whose
columns are e_0, e_(m/2) (m even), (e_j + e_(m-j))/sqrt(2) and
i (e_j - e_(m-j))/sqrt(2), conj(V) = P V, so B = V* A V equals its own
conjugate: a real symmetric matrix with A's eigenvalues (the centrohermitian
reduction of A. Lee, Linear Algebra Appl. 29, 1980). `FiniteDilation.fold`
forms B in place, pairing block j with block m - j, and `eigenphases` hands
it to the eigensolve when the Julia block passes the symmetry test.

A normal T = Q diag(tau) Q* (the free lattice operator (1+i) Lap + iI is
one) has D_T = D_T* = Q diag(d) Q*, d = sqrt(1 - |tau|^2), so its Julia
block is (I_2 x Q) J~ (I_2 x Q*), J~ the direct sum of the 2 x 2 Julia
blocks of the tau_k. Through I_m x Q the m-block dilation is then unitarily
similar to the direct sum of the n scalar m-block dilations of the tau_k,
and `eigenphases` takes its m n phases from one stacked solve of n m-square
Cayley matrices. The route is certified by c = ||J - J~||_F for the J~
rebuilt from the computed (Q, tau): U and the dilation of J~ are unitary
and differ by c in Frobenius norm, so by Hoffman-Wielandt no eigenvalue
moves by more than c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidOrder
from .linalg import (
    _PSI,
    _SKEW_TOL,
    _STRIP,
    Contraction,
    Unitary,
    _eig,
    as_operator,
    as_pair,
    defect_operators,
    defect_values,
    hermitize,
    phase_clusters,
    unitary_spectrum,
)

# largest ||J^T - S J S||_F at which the eigensolve tries the real fold: far
# above the ~1e-14 a symmetric T from `cayley` leaves, far below the 1e-9
# skew the folded matrix must certify
_SYMMETRY_TOL = 1e-12


def julia_block(t: Contraction) -> Unitary:
    """The 2n x 2n unitary [[D_T, -T*], [T, D_T*]] around a contraction T."""
    t = as_operator(Contraction, t)
    d_t, d_t_star = defect_operators(t)
    top = np.hstack([d_t, -t.m.conj().T])
    bottom = np.hstack([t.m, d_t_star])
    return Unitary(np.vstack([top, bottom]))


@dataclass(frozen=True, eq=False)
class FiniteDilation:
    """Cyclic unitary dilation of a contraction on m blocks of dimension n.

    Block 0 carries the original space; powers of u compress to powers of
    the contraction up to exponent m - 2. u maps column blocks (0, 1) to
    row blocks (m-1, 0) through the Julia block [[D_T, -T*], [T, D_T*]], and
    every other column block j identically into row block j-1. The Julia
    block is all the dilation stores. julia may also hold a stack of Julia
    blocks of one size along leading axes, one dilation each, for
    `shifted_inverse`, `fold` and `complex_symmetric`; the other members
    read a single block.
    """

    julia: np.ndarray
    m: int

    @property
    def n(self) -> int:
        return self.julia.shape[-1] // 2

    @cached_property
    def u(self) -> Unitary:
        """The dense (m n)-square unitary, built on first access."""
        n, last = self.n, (self.m - 1) * self.n
        u = np.zeros((last + n, last + n), dtype=np.complex128)
        u[last:, : 2 * n] = self.julia[:n]
        u[:n, : 2 * n] = self.julia[n:]
        rows = np.arange(n, last)
        u[rows, rows + n] = 1.0
        return Unitary(u)

    def shifted_inverse(self, alpha) -> np.ndarray:
        """(I + alpha U)^(-1) as a dense matrix, from one 2n-square solve.

        Rows 1 .. m-2 of (I + alpha U) x = b give x_j = b_j - alpha x_(j+1),
        so every block x_j with j >= 1 is a Toeplitz sum of the b_k plus
        (-alpha)^(m-1-j) x_(m-1). Rows 0 and m-1 then leave one solve for
        x_0 and x_(m-1) with the matrix [[I + alpha T, alpha beta D_T*],
        [alpha D_T, I - alpha beta T*]], beta = (-alpha)^(m-2), whose
        determinant is det(I + alpha U). The result is built in the one
        (m n)-square buffer it is returned in. For a stack, alpha is a
        scalar or one shift per member.
        """
        n, m, julia = self.n, self.m, self.julia
        size = m * n
        lead = julia.shape[:-2]
        alpha = np.broadcast_to(np.asarray(alpha, dtype=np.complex128), lead)[..., None, None]
        powers = (-alpha[..., 0]) ** np.arange(m - 1)
        swapped = np.roll(julia, n, axis=-2)  # [[T, D_T*], [D_T, -T*]]
        columns = np.ones(lead + (1, 2 * n), dtype=np.complex128)
        columns[..., n:] = powers[..., -1:, None]
        lhs = np.eye(2 * n) + alpha * swapped * columns
        # x_0 over x_(m-1) for b = e_0, for b = e_(m-1), and per unit of x_1's Toeplitz sum
        rhs = np.concatenate([np.broadcast_to(np.eye(2 * n), lead + (2 * n, 2 * n)), -alpha * swapped[..., n:]], -1)
        s = np.linalg.solve(lhs, rhs)
        x = np.empty(lead + (size, size), dtype=np.complex128)
        blocks = x.reshape(lead + (m, n, m, n))
        # row blocks 0 and m-1 hold x_0 and x_(m-1): [s_0, p_0 s_2, ..., p_(m-3) s_2, s_1] by column blocks
        for row, part in ((blocks[..., 0, :, :, :], s[..., :n, :]), (blocks[..., m - 1, :, :, :], s[..., n:, :])):
            row[..., 0, :] = part[..., :n]
            np.multiply(powers[..., None, :-1, None], part[..., None, 2 * n :], out=row[..., 1 : m - 1, :])
            row[..., m - 1, :] = part[..., n : 2 * n]
        # row block j in 1 .. m-2: (-alpha)^(m-1-j) x_(m-1) plus the Toeplitz sum
        np.multiply(
            powers[..., m - 2 : 0 : -1, None, None, None],
            blocks[..., None, m - 1, :, :, :],
            out=blocks[..., 1 : m - 1, :, :, :],
        )
        flat = x.reshape(lead + (size * size,))
        for k in range(m - 2):
            # block (j, j + k) gets p_k on its diagonal, for 1 <= j <= m-2-k
            start = n * (size + 1) + k * n
            flat[..., start : start + (m - 2 - k) * n * (size + 1) : size + 1] += powers[..., k, None]
        return x

    @cached_property
    def complex_symmetric(self) -> bool:
        """Whether the Julia block, or every one of a stack, obeys J^T = S J S within _SYMMETRY_TOL, as for T^T = T."""
        swapped = np.roll(self.julia, (self.n, self.n), axis=(-2, -1))
        return float(np.linalg.norm(self.julia.swapaxes(-1, -2) - swapped)) <= _SYMMETRY_TOL

    def fold(self, a: np.ndarray) -> None:
        """V* a V in place on a C-contiguous a, V as in the module docstring up to column order.

        Column block j becomes (a_j + a_(m-j))/sqrt(2) and column block m - j
        i (a_j - a_(m-j))/sqrt(2), in passes of about _STRIP columns; then
        the same on the row blocks with -i. Blocks 0 and m/2 stay. A stack
        folds member by member.
        """
        n, m = self.n, self.m
        lead = a.shape[:-2]
        pairs = (m - 1) // 2
        step = max(1, _STRIP // n)
        root_half = np.sqrt(0.5)
        column_blocks = np.moveaxis(a.reshape(lead + (m * n, m, n)), -2, 0)
        row_blocks = np.moveaxis(a.reshape(lead + (m, n, m * n)), -3, 0)
        for blocks, unit in ((column_blocks, 1j), (row_blocks, -1j)):
            pair_x, pair_y = blocks[1 : pairs + 1], blocks[m - pairs :][::-1]
            for p in range(0, pairs, step):
                x, y = pair_x[p : p + step], pair_y[p : p + step]
                diff = x - y
                diff *= unit * root_half
                x += y
                x *= root_half
                y[...] = diff

    @cached_property
    def normal_form(self) -> Optional[NormalForm]:
        """`normal_diagonal` of the Julia block, or None when D_T and D_T* differ by more than sqrt(2) _SKEW_TOL.

        The rebuilt Julia block has equal diagonal blocks, so
        ||D_T - D_T*||_F / sqrt(2) bounds the certificate from below: a T
        that fails this cheap test could not pass it.
        """
        n = self.n
        if not np.linalg.norm(self.julia[:n, :n] - self.julia[n:, n:]) <= np.sqrt(2.0) * _SKEW_TOL:
            return None
        return normal_diagonal(self.julia)

    def eigenphases(self) -> list[tuple[float, int]]:
        """Eigenphases of u as `linalg.eigenphases` gives them, from one `unitary_spectrum` call.

        The dilation solved is u, or for a normal T whose certificate holds
        the similar stack of the n scalar dilations of its eigenvalues,
        folded when complex symmetric (a 1 x 1 T is). u is formed only for
        the dense eigvals fallback of an uncertified Cayley solve.
        """
        d, normal = self, self.normal_form
        if normal is not None and normal.certificate <= _SKEW_TOL:
            tau, c = normal.tau, defect_values(np.abs(normal.tau), self.n)
            # the 2 x 2 Julia blocks [[c_k, -conj(tau_k)], [tau_k, c_k]]
            d = FiniteDilation(np.stack([np.stack([c, -tau.conj()], -1), np.stack([tau, c], -1)], -2), self.m)
        fold = d.fold if d.complex_symmetric else None
        return phase_clusters(unitary_spectrum(d.shifted_inverse, lambda: self.u.m, fold))

    def compressed_powers(self, k_max: int) -> list[np.ndarray]:
        """Corner blocks of u, u^2, ..., u^k_max by a recurrence on the top block row.

        The top block row R of u^k maps to R u: blocks (0, 1) become
        [R_(m-1), R_0] times the Julia block, and block j >= 2 becomes R_(j-1).
        """
        n = self.n
        blocks = [np.eye(n)] + [np.zeros((n, n))] * (self.m - 1)
        corners = []
        for _ in range(k_max):
            r = np.hstack([blocks[-1], blocks[0]]) @ self.julia
            blocks = [r[:, :n], r[:, n:]] + blocks[1:-1]
            corners.append(blocks[0])
        return corners

    def compressed_power(self, k: int) -> np.ndarray:
        """Corner block (u^k)[0:n, 0:n] for k >= 1."""
        return self.compressed_powers(k)[-1]


class NormalForm(NamedTuple):
    """Eigenvalues tau of a normal T and the certificate ||J - J~||_F of its Julia block."""

    tau: np.ndarray
    certificate: float


def normal_diagonal(julia: np.ndarray) -> NormalForm:
    """T = Q diag(tau) Q* for the T of a Julia block, with the certificate ||J - J~||_F.

    Q comes from eigh of H + psi K, H and K the Hermitian parts of T and of
    -iT; the eigenvectors of a normal T diagonalize both. J~ is the Julia
    block rebuilt from (Q, tau).
    """
    n = julia.shape[-1] // 2
    t = julia[n:, :n]
    _, q = _eig(np.linalg.eigh, hermitize(t) + _PSI * hermitize(-1j * t))
    tau = np.einsum("ij,ij->j", q.conj(), t @ q)
    d = (q * defect_values(np.abs(tau), n)) @ q.conj().T
    t_rebuilt = (q * tau) @ q.conj().T
    rebuilt = np.block([[d, -t_rebuilt.conj().T], [t_rebuilt, d]])
    return NormalForm(tau, float(np.linalg.norm(julia - rebuilt)))


def finite_schaffer_dilation(t: Contraction, m: int) -> FiniteDilation:
    """Schaffer-style cyclic dilation of a contraction on m >= 3 blocks.

    Column block 0 feeds T into block 0 and the defect D_T into block m-1;
    column block 1 feeds D_T* into block 0 and -T* into block m-1; every
    other column block j shifts identically into block j-1. The result is
    exactly unitary because the non-shift part is the Julia block J: up to a
    permutation, U*U - I is (J*J - I) on two blocks and zero on the rest, so
    validating the 2n-square J validates all of U.
    """
    if m < 3:
        raise InvalidOrder(f"need at least 3 blocks, got {m}")
    return FiniteDilation(julia=julia_block(t).m, m=m)


def dilation_pair(t0: Contraction, t1: Contraction, m: int) -> tuple[FiniteDilation, FiniteDilation]:
    """Dilate two same-dimension contractions with the identical block layout.

    The difference of the two dilations is then supported on the four Julia
    positions only (the shift part cancels), so it has rank at most 2n and
    its trace norm equals that of the Julia block difference.
    """
    if t0.n != t1.n:
        raise InvalidOrder(f"dimension mismatch: {t0.n} vs {t1.n}")
    return finite_schaffer_dilation(t0, m), finite_schaffer_dilation(t1, m)


def default_block_count(degree: int) -> int:
    """Block count for a requested polynomial degree, with one block of margin."""
    return max(int(degree), 0) + 3


def observed_trace_degree(t0: Contraction, t1: Contraction, m: int, *, tol: float = 1e-9) -> int:
    """Largest k with trace(U1^k - U0^k) = trace(T1^k - T0^k) within tol, scanned from 1.

    The certified range is k <= m - 2; this reports where the identity
    actually stops holding for the given pair, which is informative because
    the wrap-around term can vanish by accident.
    """
    t0, t1 = as_pair(Contraction, t0, t1)
    d0, d1 = dilation_pair(t0, t1, m)
    pu0 = np.eye(d0.u.m.shape[0], dtype=np.complex128)
    pu1 = pu0.copy()
    pt0 = np.eye(t0.n, dtype=np.complex128)
    pt1 = pt0.copy()
    last_good = 0
    for k in range(1, m + 3):
        pu0 = pu0 @ d0.u.m
        pu1 = pu1 @ d1.u.m
        pt0 = pt0 @ t0.m
        pt1 = pt1 @ t1.m
        lhs = np.trace(pu1) - np.trace(pu0)
        rhs = np.trace(pt1) - np.trace(pt0)
        if abs(lhs - rhs) > tol * (1.0 + abs(rhs)):
            break
        last_good = k
    return last_good
