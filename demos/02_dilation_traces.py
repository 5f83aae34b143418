"""
Trace formulas for contractions through finite unitary dilations
================================================================

A contraction T embeds as the corner of a unitary built from m copies of
its space, with the defect operators wiring block 0 to block m-1 and a
shift carrying everything else. Powers up to m-2 compress exactly, so the
unitary pair's step SSF computes polynomial trace differences for the
contraction pair, with the degree budget set by the block count.
"""

import numpy as np

from ssflab import (
    Contraction,
    analytic_poly_eval,
    contraction_ssf,
    default_block_count,
    dilation_pair,
    finite_schaffer_dilation,
    operator_norm,
    parse_scenario,
    run_scenario,
    ssf_trace_integral,
)

rng = np.random.default_rng(21)


def random_contraction(n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return Contraction(g / (np.linalg.svd(g, compute_uv=False)[0] + 0.1))


t = random_contraction(4)
m = 8
dil = finite_schaffer_dilation(t, m)
print(f"contraction on C^4, dilation on {dil.u.m.shape[0]} dimensions ({m} blocks)")

# the dilation is exactly unitary and compresses powers up to m - 2
unitarity = operator_norm(dil.u.m.conj().T @ dil.u.m - np.eye(m * 4))
print(f"unitarity residual: {unitarity:.3e}")
for k in (1, 3, 6):
    gap = operator_norm(dil.compressed_power(k) - np.linalg.matrix_power(t.m, k))
    print(f"  corner of U^{k} vs T^{k}: {gap:.3e}")
gap = operator_norm(dil.compressed_power(m - 1) - np.linalg.matrix_power(t.m, m - 1))
print(f"  corner of U^{m-1} vs T^{m-1}: {gap:.3e}  (wrap-around term, outside the budget)")

# trace formula for a degree-5 polynomial: block count from the degree
t0 = random_contraction(3)
t1 = random_contraction(3)
coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
blocks = default_block_count(5)
ssf = contraction_ssf(t0, t1, blocks)
lhs = np.trace(analytic_poly_eval(t1, coeffs)) - np.trace(analytic_poly_eval(t0, coeffs))
rhs = ssf_trace_integral(ssf, coeffs)
print(f"\ndegree-5 polynomial with {blocks} blocks:")
print(f"  trace difference  {lhs:.12f}")
print(f"  SSF trace integral {rhs:.12f}")
print(f"  residual {abs(lhs - rhs):.3e}")

# the two dilations share the shift part, so their difference sits in the
# four Julia positions and the step SSF is real and integrable by
# construction; a report on z, ..., z^(m+2) at m blocks shows where the
# identity actually stops: record trace-poly-j checks z^(j+1)
report = run_scenario(parse_scenario({
    "name": "degree-budget",
    "kind": "contraction_pair",
    "matrices": [[[[z.real, z.imag] for z in row] for row in t.m.tolist()] for t in (t0, t1)],
    "dilation_order": blocks,
    "test_polynomials": [[0] * k + [1] for k in range(1, blocks + 3)],
}))
passed = {r.check_id: r.passed for r in report.records}
degree = next((j for j in range(blocks + 2) if not passed[f"trace-poly-{j}"]), blocks + 2)
print("\nobserved exact trace degree (certified is m - 2 = %d): %d" % (blocks - 2, degree))

d0, d1 = dilation_pair(t0, t1, blocks)
diff = d1.u.m - d0.u.m
rows = sorted({int(i) // 3 for i in np.nonzero(np.abs(diff).sum(axis=1) > 1e-14)[0]})
print("block rows touched by the dilation difference:", rows)
