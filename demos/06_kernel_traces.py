"""
Trace-class kernels from potentials on the line
===============================================

The free resolvent kernel at energy z below the spectrum, restricted by a
nonnegative potential q as sqrt(q) G sqrt(q), discretizes to an exactly
Hermitian Nystrom matrix. For z = -1 its trace is half the integral of q,
the matrix is positive semidefinite, and its trace norm therefore equals
the trace: trace class comes for free and every statement is checkable in
floating point. A monotone ladder of truncated potentials shows the S1
approximation error obeying an exact 1/n law.
"""

import numpy as np

from ssflab import (
    discrete_schrodinger_pair,
    dissipative_ssf,
    green_kernel,
    kernel_trace_report,
    make_grid,
    monotone_s1_check,
    nystrom_kernel,
    potential_values,
    resolvent_trace_residual,
)

# the free Green function at z = -1: G(x, x) = 1/2 on the diagonal and
# exponential decay off it
print("G(0, 0; -1) =", green_kernel(0.0, 0.0, -1.0))
print("G(0, 1; -1) =", green_kernel(0.0, 1.0, -1.0), " (e^-1 / 2 =", np.exp(-1) / 2, ")")
print("G(0, 0; -4) =", green_kernel(0.0, 0.0, -4.0))

# Gaussian potential on [-8, 8], 1024 Gauss nodes: trace = sqrt(pi)/2
grid = make_grid(-8.0, 8.0, 1024)
report = kernel_trace_report(lambda x: np.exp(-x * x), grid)
print(f"\nGaussian potential, 1024 nodes:")
print(f"  trace            {report.trace:.12f}")
print(f"  sqrt(pi)/2       {np.sqrt(np.pi) / 2:.12f}")
print(f"  trace norm       {report.trace_norm:.12f} (gap {report.trace_norm_gap:.2e})")
print(f"  min eigenvalue   {report.min_eigenvalue:.2e}")
print(f"  half L1 target   {report.half_l1_target:.12f}")

# the same trace read as a diagonal integral, no eigenvalues involved
print(f"  diagonal integral {report.diagonal_integral:.12f}")

# a compactly supported bump with smooth shoulders integrates exactly to
# 2 * half_width * amplitude, and the kernel trace is half that
bump = {"kind": "bump", "amplitude": 1.0, "center": 0.0, "half_width": 1.0, "taper": 0.75}
grid2 = make_grid(-4.0, 4.0, 512)
print(f"\nbump potential: trace {kernel_trace_report(bump, grid2).trace:.8f} (expect 1.0)")

# monotone S1 ladder: phi_n = q (1 - 1/n) makes K - K_n exactly K/n
ladder = monotone_s1_check(lambda x: np.exp(-x * x), make_grid(-8.0, 8.0, 256), [2, 4, 8, 16])
print("\nmonotone ladder, scale variant:")
for n, approx, resid in zip(ladder.n_values, ladder.approx_norms, ladder.residual_norms):
    print(f"  n = {n:2d}: |K_n|_S1 = {approx:.10f}, |K - K_n|_S1 = {resid:.10f} "
          f"(K/n would be {ladder.full_norm / n:.10f})")

# one Nystrom matrix by hand to see the structure
tiny = make_grid(-0.5, 0.5, 2, scheme="trapezoid")
# R is passed as its matrix R(x_i, x_j) on the nodes; the kernel is a read-only array
r = green_kernel(tiny.points[:, None], tiny.points[None, :], -1.0)
k = nystrom_kernel(potential_values({"kind": "gaussian", "amplitude": 4.0}, tiny.points), r, tiny)
print("\ntwo-point Nystrom matrix:\n", k)

# the lattice analogue: L0 = (1+i) Delta_h + iI has Im L0 >= I, and adding
# a dissipative potential keeps the whole SSF machinery applicable
x = np.linspace(-8.0, 8.0, 48)
q = potential_values({"kind": "gaussian", "amplitude": 1j}, x)
l0, l1 = discrete_schrodinger_pair(q, h=float(x[1] - x[0]))
print(f"\nlattice pair: dim {l0.n}, min eig of Im L0 = "
      f"{l0.imag_min:.6f}")
ssf = dissipative_ssf(l0, l1, 24)
res = resolvent_trace_residual(l0, l1, ssf, -2j)
print(f"resolvent trace residual at z = -2i, m = 24: {res:.3e}")
