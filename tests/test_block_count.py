"""The line kinds' block count, sized from the dilation's exact truncation error.

`dilation.shifted_inverse_excess` gives tr (I + alpha U)^(-1) of every
candidate block count from one n-square inverse and one stacked solve, and
`ssf_line.resolvent_truncation_errors` turns it into E_j(m), the resolvent
record's residual when every phase is exact. A line file without a
`dilation_order` runs at the least m in [3, LINE_BLOCKS] whose E_j(m) sits
TRUNCATION_MARGIN times under each resolvent record's effective tolerance,
else at LINE_BLOCKS.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssflab.dilation import finite_schaffer_dilation, shifted_inverse_excess
from ssflab.linalg import Contraction, Dissipative
from ssflab.scenario import LINE_BLOCKS, TRUNCATION_MARGIN, generate_scenario, parse_scenario, run_scenario
from ssflab.schrodinger import discrete_schrodinger_pair
from ssflab.ssf_line import (
    dissipative_ssf,
    resolvent_trace_difference,
    resolvent_trace_integral,
    resolvent_truncation_errors,
)

# how far E_j(m) may sit from a record's lhs - rhs. The step SSF cancels a U0 and a U1 phase closer than
# CLUSTER_TOL = 1e-9: a dim-5 Schrodinger pair, whose potential is 8e-10 to 6e-8 at two of its nodes,
# loses up to 8e-10 that way (7.8e-11 at seed 1); elsewhere the two agree to about 1e-13
ROUNDOFF = 1e-9
LINE_KINDS = ("dissipative_pair", "schrodinger")
CANDIDATES = np.arange(3, LINE_BLOCKS + 1)


def line_pair(sc):
    """The pair (L0, L1) a line scenario's run checks."""
    if sc.kind == "dissipative_pair":
        return tuple(Dissipative(m) for m in sc.matrices)
    x = sc.grid.points
    return discrete_schrodinger_pair(sc.potential, x[1] - x[0])


def truncation_errors(sc):
    """|E_j(m)| of every z value (rows) and candidate m (columns)."""
    l0, l1 = line_pair(sc)
    lhs = [resolvent_trace_difference(l0.m, l1.m, z) for z in sc.z_values]
    return np.abs([resolvent_truncation_errors(l0, l1, z, s, CANDIDATES) for z, s in zip(sc.z_values, lhs)])


def resolvent_limits(sc, scale=1.0):
    return np.array([sc.checks[f"resolvent-z{j}"][1] * scale / TRUNCATION_MARGIN for j in range(len(sc.z_values))])


def random_contraction(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Contraction(g / (np.linalg.norm(g, 2) * rng.uniform(1.0, 1.5)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    m=st.integers(3, 30),
    x=st.floats(-5.0, 5.0),
    y=st.floats(-5.0, -0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_schur_route_trace_equals_the_trace_of_the_shifted_inverse(n, m, x, y, seed):
    z = complex(x, y)
    alpha = (1j + z) / (1j - z)
    assume(abs(alpha) <= 0.95)
    t = random_contraction(np.random.default_rng(seed), n)
    (q,) = shifted_inverse_excess(t, alpha, [m])
    dense = np.trace(finite_schaffer_dilation(t, m).shifted_inverse(alpha))
    assert abs(m * n + alpha * q - dense) <= 1e-12 * abs(dense)


@pytest.mark.parametrize("n", [4, 320])
def test_every_candidate_of_one_call_equals_its_own_call(n):
    # at n = 320 the 22 candidates take 2 stacks of 20 and 2 members
    t = random_contraction(np.random.default_rng(5), n)
    stacked = shifted_inverse_excess(t, -0.3 + 0.4j, CANDIDATES)
    single = [shifted_inverse_excess(t, -0.3 + 0.4j, [m])[0] for m in CANDIDATES]
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", LINE_KINDS)
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_the_truncation_error_is_the_resolvent_residual_up_to_roundoff(kind, seed, dim):
    sc = parse_scenario(generate_scenario(kind, seed, dim))
    l0, l1 = line_pair(sc)
    z = sc.z_values[0]
    lhs = resolvent_trace_difference(l0.m, l1.m, z)
    errors = resolvent_truncation_errors(l0, l1, z, lhs, CANDIDATES)
    for m, e in zip(CANDIDATES, errors):
        assert abs(e - (lhs - resolvent_trace_integral(dissipative_ssf(l0, l1, int(m)), z))) <= ROUNDOFF, m


@pytest.mark.parametrize("kind", LINE_KINDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_the_rule_takes_the_least_block_count_that_leaves_the_margin(kind, seed):
    for dim in range(1, 25):
        payload = generate_scenario(kind, seed, dim)
        assert "dilation_order" not in payload
        sc = parse_scenario(payload)
        assert sc.dilation_order is None
        report = run_scenario(sc)
        m, estimate = report.flags["block_count"], report.flags["truncation_estimate"]
        assert 3 <= m <= LINE_BLOCKS
        errors, limits = truncation_errors(sc), resolvent_limits(sc)
        fits = np.all(errors <= limits[:, None], axis=0)
        assert m == (CANDIDATES[np.argmax(fits)] if fits.any() else LINE_BLOCKS), dim
        assert estimate == pytest.approx(errors[:, m - 3], rel=1e-9, abs=1e-15)
        assert np.all(np.array(estimate) <= limits) or m == LINE_BLOCKS
        assert report.all_pass, (dim, [r.check_id for r in report.failed()])
        at_24 = run_scenario(parse_scenario(payload | {"dilation_order": 24}))
        assert [r.passed for r in at_24.records] == [r.passed for r in report.records], dim


@pytest.mark.parametrize("kind", LINE_KINDS)
def test_an_explicit_block_count_wins_and_gets_its_estimate(kind):
    sc = parse_scenario(generate_scenario(kind, 3, 6) | {"dilation_order": 24})
    assert sc.dilation_order == 24
    report = run_scenario(sc)
    assert report.flags["block_count"] == 24
    assert report.flags["truncation_estimate"] == pytest.approx(truncation_errors(sc)[:, -1], rel=1e-9, abs=1e-15)
    # above the rule's range too
    above = parse_scenario(generate_scenario(kind, 3, 2) | {"dilation_order": 30})
    assert run_scenario(above).flags["block_count"] == 30


@pytest.mark.parametrize("kind", LINE_KINDS)
@pytest.mark.parametrize("dim", [3, 8, 16])
def test_the_tolerance_scale_moves_the_block_count(kind, dim):
    # (a Schrodinger file of one or two nodes has q = 0 at both, so E = 0 and m = 3 at any scale)
    sc = parse_scenario(generate_scenario(kind, 4, dim))
    counts = {scale: run_scenario(sc, tolerance_scale=scale).flags["block_count"] for scale in (10.0, 1.0)}
    assert counts[10.0] <= counts[1.0]
    tiny = run_scenario(sc, tolerance_scale=1e-9)
    assert tiny.flags["block_count"] == LINE_BLOCKS
    assert "numeric_error" not in tiny.flags
    assert [r.check_id for r in tiny.records] == [c for c in sc.checks if c != "numeric-completion"]


def test_every_z_value_at_its_own_tolerance_bounds_the_block_count():
    # z = 0.2 - i (|alpha| about 0.1) under a tight override needs m = 17; z = -2i (|alpha| = 1/3) needs 21
    payload = generate_scenario("dissipative_pair", 2, 5) | {
        "z_values": [[0.0, -2.0], [0.2, -1.0]],
        "tolerances": {"resolvent-z1": 1e-12},
    }
    sc = parse_scenario(payload)
    report = run_scenario(sc)
    errors, limits = truncation_errors(sc), resolvent_limits(sc)
    fits = errors <= limits[:, None]
    m = report.flags["block_count"]
    assert fits[:, m - 3].all() and not fits[:, m - 4].all()
    assert fits[1, m - 4]
    assert report.flags["truncation_estimate"] == pytest.approx(errors[:, m - 3], rel=1e-9, abs=1e-15)
    assert report.all_pass
