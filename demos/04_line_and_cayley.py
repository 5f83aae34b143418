"""
Dissipative pairs: Cayley transform, line SSF, resolvent traces
===============================================================

A matrix with positive-semidefinite imaginary part maps to a contraction
under z -> (z - i)(z + i)^(-1). The circle machinery then produces a step
SSF, which pushes forward to the real line under t = -cot(theta / 2). This
script verifies the exact algebra tying defects to Im L, watches the
resolvent trace formula converge geometrically in the block count, and
shows the trace-of-perturbation obstruction to a real integrable SSF.
"""

import numpy as np

from ssflab import (
    Dissipative,
    cayley,
    cayley_identity_residuals,
    dissipative_condition_report,
    dissipative_ssf,
    inverse_cayley,
    perturbation_trace_report,
    resolvent_trace_residual,
    weighted_abs_integral,
)

rng = np.random.default_rng(11)


def random_dissipative(n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return Dissipative((g + g.conj().T) / 2 + 1j * (b @ b.conj().T) / n)


l0 = random_dissipative(4)
l1 = random_dissipative(4)

# Cayley round trip and the defect factorizations D^2 = 4 G* G
t0 = cayley(l0)
back = inverse_cayley(t0)
print("cayley round trip residual:", np.linalg.norm(back.m - l0.m))
report = cayley_identity_residuals(l0, l1)
print("defect factorization residuals:", report.defect_sq_residuals)
print("adjoint factorizations:", report.adjoint_defect_sq_residuals)
print("resolvent difference identity:", report.resolvent_difference_residual)

# the line SSF and the resolvent trace formula at z = -2i; the Cayley image
# of z sits at |zeta| = 3, so each extra block pair buys a factor of 9
print("\nresolvent trace residual at z = -2i:")
for m in (6, 12, 24):
    ssf = dissipative_ssf(l0, l1, m)
    res = resolvent_trace_residual(l0, l1, ssf, -2j)
    print(f"  m = {m:2d}: {res:.3e}")

ssf = dissipative_ssf(l0, l1, 24)
print(f"\nline SSF: {len(ssf.breakpoints)} breakpoints, "
      f"mass at infinity {ssf.mass_at_infinity}")
print(f"tails: left {ssf.values[0]:+.6f}, right {ssf.values[-1]:+.6f}")

# the weighted integral of |xi| evaluated on the line and back on the
# circle; the two closed forms must agree exactly
line_side = weighted_abs_integral(ssf, "line")
circle_side = weighted_abs_integral(ssf, "circle")
print(f"weighted |xi| integral: line {line_side:.12f}, circle {circle_side:.12f}")

# a purely imaginary rank-one perturbation has trace i, which no real
# integrable shift function can produce; a self-adjoint one is fine
base = np.diag([1.0, 2.0]).astype(complex)
bump = np.zeros((2, 2), dtype=complex)
bump[0, 0] = 1j
la, lb = Dissipative(base), Dissipative(base + bump)
flag = perturbation_trace_report(la, lb, dissipative_ssf(la, lb, 12))
print(f"\nrank-one i e1 e1*: trace {flag.perturbation_trace}, "
      f"real integrable possible: {flag.real_integrable_possible}")

lc = Dissipative(base + np.diag([0.5, 0.0]))
flag = perturbation_trace_report(la, lc, dissipative_ssf(la, lc, 12))
print(f"self-adjoint bump:   trace {flag.perturbation_trace}, "
      f"real integrable possible: {flag.real_integrable_possible}")

# the checkable hypotheses: the weighted difference of imaginary parts and
# the trace norm of the resolvent difference both need to be finite
cond = dissipative_condition_report(l0, l1)
print(f"\nweighted difference norm (S{cond.p:g}): {cond.weighted_diff_norm:.6f}")
print(f"resolvent difference trace norm: {cond.resolvent_diff_trace_norm:.6f}")
