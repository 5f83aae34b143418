"""Unitary dilations of contractions on finitely many blocks.

A contraction T sits inside the 2x2 unitary Julia block built from its
defect operators. Chaining that block into a cyclic shift over m blocks
gives a finite unitary whose compression to block 0 reproduces the powers
T, T^2, ..., T^(m-2). The wrap-around destroys higher powers, which is the
price of staying finite; callers pick m from the polynomial degree they
intend to ask about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder
from .linalg import Contraction, Unitary, defect_operators


def julia_block(t: Contraction) -> Unitary:
    """The 2n x 2n unitary [[D_T, -T*], [T, D_T*]] around a contraction T."""
    if not isinstance(t, Contraction):
        t = Contraction(t)
    d_t, d_t_star = defect_operators(t)
    top = np.hstack([d_t, -t.m.conj().T])
    bottom = np.hstack([t.m, d_t_star])
    return Unitary(np.vstack([top, bottom]))


@dataclass(frozen=True)
class FiniteDilation:
    """Cyclic unitary dilation of a contraction on m blocks of dimension n.

    Block 0 carries the original space; powers of u compress to powers of
    the contraction up to exponent m - 2.
    """

    u: Unitary
    m: int
    n: int
    embedding_index: int = 0

    def compressed_powers(self, k_max: int) -> list[np.ndarray]:
        """Corner blocks of u, u^2, ..., u^k_max, carrying only the top block row."""
        top, corners = np.eye(self.n, self.m * self.n), []
        for _ in range(k_max):
            top = top @ self.u.m
            corners.append(top[:, : self.n])
        return corners

    def compressed_power(self, k: int) -> np.ndarray:
        """Corner block (u^k)[0:n, 0:n] for k >= 1."""
        return self.compressed_powers(k)[-1]


def finite_schaffer_dilation(t: Contraction, m: int) -> FiniteDilation:
    """Schaffer-style cyclic dilation of a contraction on m >= 3 blocks.

    Column block 0 feeds T into block 0 and the defect D_T into block m-1;
    column block 1 feeds D_T* into block 0 and -T* into block m-1; every
    other column block j shifts identically into block j-1. The result is
    exactly unitary because the non-shift part is the Julia block.
    """
    if not isinstance(t, Contraction):
        t = Contraction(t)
    if m < 3:
        raise InvalidOrder(f"need at least 3 blocks, got {m}")
    n = t.n
    d_t, d_t_star = defect_operators(t)
    u = np.zeros((m * n, m * n), dtype=np.complex128)

    def blk(i, j):
        return (slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n))

    u[blk(0, 0)] = t.m
    u[blk(0, 1)] = d_t_star
    u[blk(m - 1, 0)] = d_t
    u[blk(m - 1, 1)] = -t.m.conj().T
    eye = np.eye(n)
    for j in range(2, m):
        u[blk(j - 1, j)] = eye
    return FiniteDilation(u=Unitary(u), m=m, n=n)


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
