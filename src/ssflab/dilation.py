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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidOrder
from .linalg import Contraction, Unitary, as_operator, defect_operators, phase_clusters, unitary_spectrum

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
    block is all the dilation stores.
    """

    julia: np.ndarray
    m: int
    embedding_index: int = 0

    @property
    def n(self) -> int:
        return self.julia.shape[0] // 2

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

    def shifted_inverse(self, alpha: complex) -> np.ndarray:
        """(I + alpha U)^(-1) as a dense matrix, from one 2n-square solve.

        Rows 1 .. m-2 of (I + alpha U) x = b give x_j = b_j - alpha x_(j+1),
        so every block x_j with j >= 1 is a Toeplitz sum of the b_k plus
        (-alpha)^(m-1-j) x_(m-1). Rows 0 and m-1 then leave one solve for
        x_0 and x_(m-1) with the matrix [[I + alpha T, alpha beta D_T*],
        [alpha D_T, I - alpha beta T*]], beta = (-alpha)^(m-2), whose
        determinant is det(I + alpha U).
        """
        n, m = self.n, self.m
        powers = (-complex(alpha)) ** np.arange(m - 1)
        swapped = np.roll(self.julia, n, axis=0)  # [[T, D_T*], [D_T, -T*]]
        lhs = np.eye(2 * n) + alpha * swapped * np.repeat([1.0, powers[-1]], n)
        # x_0 over x_(m-1) for b = e_0, for b = e_(m-1), and per unit of x_1's Toeplitz sum
        s = np.linalg.solve(lhs, np.hstack([np.eye(2 * n), -alpha * swapped[:, n:]]))
        edge = np.hstack([s[:, :n], np.kron(powers[:-1], s[:, 2 * n :]), s[:, n : 2 * n]])
        j, k = np.ogrid[:m, :m]
        toeplitz = np.where((1 <= j) & (j <= k) & (k < m - 1), powers[np.clip(k - j, 0, m - 2)], 0)
        x = np.kron(toeplitz, np.eye(n))
        x[:n] = edge[:n]
        rows = x[n:].reshape(m - 1, n, -1)
        rows += powers[::-1, None, None] * edge[n:]
        return x

    @cached_property
    def complex_symmetric(self) -> bool:
        """Whether the Julia block obeys J^T = S J S within _SYMMETRY_TOL, as it does for T^T = T."""
        swapped = np.roll(self.julia, (self.n, self.n), axis=(0, 1))
        return float(np.linalg.norm(self.julia.T - swapped)) <= _SYMMETRY_TOL

    def fold(self, a: np.ndarray) -> None:
        """V* a V in place on a C-contiguous a, V as in the module docstring up to column order.

        Column block j becomes (a_j + a_(m-j))/sqrt(2) and column block m - j
        i (a_j - a_(m-j))/sqrt(2), for every pair at once; then the same on
        the row blocks with -i. Blocks 0 and m/2 stay.
        """
        n, m = self.n, self.m
        pairs = (m - 1) // 2
        root_half = np.sqrt(0.5)
        for blocks, unit in ((a.reshape(m * n, m, n).transpose(1, 0, 2), 1j), (a.reshape(m, n, m * n), -1j)):
            x, y = blocks[1 : pairs + 1], blocks[m - pairs :][::-1]
            diff = x - y
            diff *= unit * root_half
            x += y
            x *= root_half
            y[...] = diff

    def eigenphases(self) -> list[tuple[float, int]]:
        """Eigenphases of u as `linalg.eigenphases` gives them.

        A complex-symmetric T hands the eigensolve its real fold. u is formed
        only when the Cayley solve goes uncertified and falls back to dense
        eigvals: a Julia block that is not normal and whose defect is near
        its 1e-10 tolerance can do that.
        """
        fold = self.fold if self.complex_symmetric else None
        return phase_clusters(unitary_spectrum(self.shifted_inverse, lambda: self.u.m, fold))

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
