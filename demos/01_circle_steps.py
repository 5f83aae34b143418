"""
Step spectral shift functions for a pair of unitaries
=====================================================

Two unitary matrices differ by finitely many eigenvalues on the circle.
The spectral shift function that encodes trace(f(U1) - f(U0)) for analytic
polynomials f is piecewise constant with integer jumps, and this script
builds it, evaluates it, and checks the trace formula digit by digit.
"""

import numpy as np

from ssflab import (
    Unitary,
    eigenphases,
    hardy_gauge_check,
    ssf_trace_integral,
    unitary_ssf,
)

# A hand pair: 1 and i on the unit circle. One eigenvalue moves a quarter
# turn, so the shift function has a jump of -1 at theta = pi/2 and the
# balancing +1 at the boundary point theta = 2*pi.
u0 = Unitary([[1.0]])
u1 = Unitary([[1j]])

print("eigenphases of U0:", eigenphases(u0.m))
print("eigenphases of U1:", eigenphases(u1.m))

ssf = unitary_ssf(u0, u1)
print("jumps (theta, size):", ssf.jumps)
print("gauge (mean normalization):", ssf.gauge)

# The trace formula: trace(f(U1) - f(U0)) equals minus the sum of
# jump * f(e^{i theta}) over the jumps. For f(z) = z the left side is i - 1.
coeffs = [0.0, 1.0]
lhs = np.trace(u1.m) - np.trace(u0.m)
rhs = ssf_trace_integral(ssf, coeffs)
print(f"f(z) = z: trace difference {lhs:.12f}, trace integral {rhs:.12f}")
print(f"residual {abs(lhs - rhs):.3e}")

# Same check on a random seeded pair, all monomials up to degree 8.
rng = np.random.default_rng(7)
g = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(2 * 5)
q, r = np.linalg.qr(g)
ua = Unitary(q * (np.diag(r) / np.abs(np.diag(r))))
g = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(2 * 5)
q, r = np.linalg.qr(g)
ub = Unitary(q * (np.diag(r) / np.abs(np.diag(r))))

ssf = unitary_ssf(ua, ub)
print(f"\nrandom 5x5 pair carries {len(ssf.jumps)} jumps, gauge {ssf.gauge:.6f}")
worst = 0.0
for k in range(9):
    coeffs = [0.0] * k + [1.0]
    lhs = np.trace(np.linalg.matrix_power(ub.m, k)) - np.trace(np.linalg.matrix_power(ua.m, k))
    worst = max(worst, abs(lhs - ssf_trace_integral(ssf, coeffs)))
print(f"worst monomial residual up to degree 8: {worst:.3e}")

# The family is only determined up to analytic (Hardy class) terms: adding
# zeta^k to the shift function changes no trace, because the contour
# integral of f'(zeta) zeta^k vanishes. That is the gauge freedom.
print("\nHardy term invariance, f of degree 4, k = 0..4:")
coeffs = rng.standard_normal(5)
for k in range(5):
    print(f"  k = {k}: |contour integral| = {abs(hardy_gauge_check(k, coeffs)):.3e}")
