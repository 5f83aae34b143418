"""Metamorphic relations: the SSF of a transformed pair against the SSF of the pair.

The zero-mean gauge fixes xi completely, so these relations hold as functions:
  xi(T1, T0) = -xi(T0, T1);
  xi(V T0 V*, V T1 V*) = xi(T0, T1) for a unitary V;
  xi(T0 + S0, T1 + S1) = xi(T0, T1) + xi(S0, S1) for direct sums, at a shared m;
  xi(T0, T2) = xi(T0, T1) + xi(T1, T2), at a shared m.
Every route builds the two SSFs of a pair from the same per-operator
eigensolves, so the swapped SSF is the negative bit for bit: the same jump
positions with negated sizes, the negated gauge and negated sampled values.
The other relations compare different eigensolves, so they hold to roundoff:
within C * N * eps * ||T|| in L1 for step SSFs and in sup for sampled ones,
N the dimension of the eigensolve. Each contraction input is built to take
one eigensolve route: a normal T, a complex-symmetric T (the real fold) or a
generic T (the complex Cayley solve).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab.dilation import finite_schaffer_dilation
from ssflab.linalg import _POLE_LIMIT, TWO_PI, Contraction, Dissipative, cayley, hermitize, unitary_factor
from ssflab.schrodinger import discrete_schrodinger_pair, potential_values
from ssflab.ssf_circle import StepSSF, contraction_ssf, determinant_ssf, unitary_ssf
from ssflab.ssf_line import dissipative_ssf

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
blocks = st.integers(3, 8)
routes = st.sampled_from(["normal", "fold", "complex"])
# the phases where a step SSF is sampled, jump positions added per SSF
GRID = TWO_PI * (np.arange(1, 2049) / 2048)
# a relation between different eigensolves holds within C * N * eps * ||T||. The Cayley route
# accepts an eigenvalue up to |tan| = _POLE_LIMIT (2e3) from its pole, which scales the roundoff
# of the other phases by up to that factor. The examples below stay under 70
C = 2 * _POLE_LIMIT
EPS = np.finfo(float).eps


def _gaussian(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _scaled(m, norm=0.9):
    return norm * m / np.linalg.norm(m, 2)


def _contraction(rng, n, route):
    """A strict contraction whose dilation eigensolve takes `route`."""
    g = _gaussian(rng, n)
    if route == "normal":
        q = unitary_factor(g)
        tau = rng.uniform(0.0, 0.9, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        return (q * tau) @ q.conj().T
    return _scaled(g + g.T if route == "fold" else g)


def assert_negated(step, swapped):
    assert swapped.jumps == tuple((theta, -size) for theta, size in step.jumps)
    assert swapped.gauge == -step.gauge
    thetas = np.concatenate([GRID, step.thetas])
    assert np.array_equal(swapped.value(thetas), -step.value(thetas))


@EXAMPLES
@given(n=st.integers(1, 6), seed=seeds, shared=st.integers(0, 6))
def test_swapping_a_unitary_pair_negates_its_ssf(n, seed, shared):
    rng = np.random.default_rng(seed)
    q = unitary_factor(_gaussian(rng, n))
    phases = rng.uniform(0.0, TWO_PI, (2, n))
    # the first `shared` eigenphases coincide, so their jumps cancel in both orders
    phases[1, :shared] = phases[0, :shared]
    u0, u1 = ((q * np.exp(1j * p)) @ q.conj().T for p in phases)
    assert_negated(unitary_ssf(u0, u1), unitary_ssf(u1, u0))


@EXAMPLES
@given(n=st.integers(2, 5), seed=seeds, m=blocks, route=routes)
def test_swapping_a_contraction_pair_negates_its_ssf_on_every_route(n, seed, m, route):
    rng = np.random.default_rng(seed)
    t0, t1 = (Contraction(_contraction(rng, n, route)) for _ in range(2))
    for t in (t0, t1):
        d = finite_schaffer_dilation(t, m)
        if route == "normal":
            assert d.normal_form is not None
        else:
            assert d.normal_form is None and d.complex_symmetric == (route == "fold")
    assert_negated(contraction_ssf(t0, t1, m), contraction_ssf(t1, t0, m))


def _lattice_pair(rng, n):
    x = np.linspace(-8.0, 8.0, n)
    amplitude = complex(rng.uniform(0.25, 1.0), rng.uniform(0.5, 1.5))
    q = potential_values({"kind": "gaussian", "amplitude": amplitude, "width": rng.uniform(0.8, 1.25)}, x)
    return discrete_schrodinger_pair(np.asarray(q, dtype=np.complex128), float(x[1] - x[0]))


def _dissipative(rng, n):
    b = _gaussian(rng, n)
    return Dissipative(hermitize(_gaussian(rng, n)) + 1j * (b @ b.conj().T) / n)


@EXAMPLES
@given(n=st.integers(2, 5), seed=seeds, m=blocks, lattice=st.booleans())
def test_swapping_a_dissipative_pair_negates_its_line_ssf(n, seed, m, lattice):
    rng = np.random.default_rng(seed)
    l0, l1 = _lattice_pair(rng, n) if lattice else (_dissipative(rng, n), _dissipative(rng, n))
    ssf, swapped = dissipative_ssf(l0, l1, m), dissipative_ssf(l1, l0, m)
    assert_negated(ssf.source, swapped.source)
    assert np.array_equal(swapped.breakpoints, ssf.breakpoints)
    assert np.array_equal(swapped.values, -ssf.values)
    assert swapped.mass_at_infinity == -ssf.mass_at_infinity


@EXAMPLES
@given(n=st.integers(1, 5), seed=seeds, radius=st.sampled_from([1.0 + 1e-8, 1.0 + 1e-4, 1.5]))
def test_swapping_a_pair_negates_its_determinant_ssf(n, seed, radius):
    rng = np.random.default_rng(seed)
    t0, t1 = (_scaled(_gaussian(rng, n)) for _ in range(2))
    sampled, swapped = determinant_ssf(t0, t1, radius, grid=256), determinant_ssf(t1, t0, radius, grid=256)
    assert np.array_equal(swapped.thetas, sampled.thetas)
    assert np.array_equal(swapped.values, -sampled.values)
    assert swapped.winding == sampled.winding == 0


# ---------------------------------------------------------------------------
# conjugation, direct sums and the chain rule


def l1_distance(ssf, *parts):
    """The L1 distance on (0, 2pi] of a step SSF from the sum of `parts`, exact from the jumps:
    every one of them is constant between consecutive jump positions of all of them."""
    cuts = np.unique(np.concatenate([[0.0, TWO_PI], *(s.thetas for s in (ssf, *parts))]))
    left = cuts[:-1]
    gap = ssf.value(left) - sum((s.value(left) for s in parts), 0.0)
    return float(np.abs(gap) @ np.diff(cuts))


def assert_within_roundoff(distance, dim, *operators):
    """distance <= C * dim * eps * ||T||, ||T|| the largest operator norm of the inputs."""
    norm = max(np.linalg.norm(getattr(t, "m", t), 2) for t in operators)
    assert distance <= C * dim * EPS * norm


def _haar(rng, n):
    return unitary_factor(_gaussian(rng, n))


def _conjugate(v, *ts):
    return tuple(v @ t @ v.conj().T for t in ts)


def _direct_sum(a, b):
    zero = np.zeros((len(a), len(b)))
    return np.block([[a, zero], [zero.T, b]])


def test_the_l1_distance_is_exact_between_jumps():
    a = StepSSF(((1.0, 1), (2.0, -1)), 0.0)
    b = StepSSF(((1.5, 1), (2.0, -1)), 0.0)
    assert l1_distance(a, b) == 0.5
    assert l1_distance(a, a, StepSSF((), 0.25)) == 0.25 * TWO_PI
    assert l1_distance(StepSSF((), 0.0), a, StepSSF(((1.0, -1), (2.0, 1)), 0.0)) == 0.0


@EXAMPLES
@given(n=st.integers(1, 6), seed=seeds)
def test_conjugating_a_unitary_pair_keeps_its_ssf(n, seed):
    rng = np.random.default_rng(seed)
    u0, u1, v = (_haar(rng, n) for _ in range(3))
    conjugated = unitary_ssf(*_conjugate(v, u0, u1))
    assert_within_roundoff(l1_distance(conjugated, unitary_ssf(u0, u1)), n, u0, u1)


@EXAMPLES
@given(n=st.integers(2, 5), seed=seeds, m=blocks, route=routes)
def test_conjugating_a_contraction_pair_keeps_its_ssf(n, seed, m, route):
    rng = np.random.default_rng(seed)
    t0, t1 = (_contraction(rng, n, route) for _ in range(2))
    c0, c1 = _conjugate(_haar(rng, n), t0, t1)
    if route == "fold":
        # the conjugated pair takes the complex route, so this compares two routes
        assert not finite_schaffer_dilation(Contraction(c0), m).complex_symmetric
    conjugated = contraction_ssf(c0, c1, m)
    assert_within_roundoff(l1_distance(conjugated, contraction_ssf(t0, t1, m)), m * n, t0, t1)


@EXAMPLES
@given(n=st.integers(2, 5), seed=seeds, m=blocks, lattice=st.booleans())
def test_conjugating_a_dissipative_pair_keeps_its_line_ssf(n, seed, m, lattice):
    rng = np.random.default_rng(seed)
    l0, l1 = _lattice_pair(rng, n) if lattice else (_dissipative(rng, n), _dissipative(rng, n))
    ssf = dissipative_ssf(l0, l1, m)
    conjugated = dissipative_ssf(*_conjugate(_haar(rng, n), l0.m, l1.m), m)
    assert conjugated.mass_at_infinity == ssf.mass_at_infinity
    assert_within_roundoff(l1_distance(conjugated.source, ssf.source), m * n, l0, l1)


@EXAMPLES
@given(n=st.integers(1, 5), seed=seeds, radius=st.sampled_from([1.0 + 1e-8, 1.0 + 1e-4, 1.5]))
def test_conjugating_a_pair_keeps_its_determinant_ssf(n, seed, radius):
    rng = np.random.default_rng(seed)
    t0, t1 = (_scaled(_gaussian(rng, n)) for _ in range(2))
    sampled = determinant_ssf(t0, t1, radius, grid=256)
    conjugated = determinant_ssf(*_conjugate(_haar(rng, n), t0, t1), radius, grid=256)
    assert np.array_equal(conjugated.thetas, sampled.thetas)
    assert_within_roundoff(np.max(np.abs(conjugated.values - sampled.values)), n, t0, t1)


@EXAMPLES
@given(n=st.integers(1, 4), k=st.integers(1, 3), seed=seeds)
def test_a_direct_sum_of_unitary_pairs_adds_their_ssfs(n, k, seed):
    rng = np.random.default_rng(seed)
    u0, u1, s0, s1 = _haar(rng, n), _haar(rng, n), _haar(rng, k), _haar(rng, k)
    summed = unitary_ssf(_direct_sum(u0, s0), _direct_sum(u1, s1))
    distance = l1_distance(summed, unitary_ssf(u0, u1), unitary_ssf(s0, s1))
    assert_within_roundoff(distance, n + k, u0, u1, s0, s1)


@EXAMPLES
@given(n=st.integers(1, 4), k=st.integers(1, 3), seed=seeds, m=blocks, route=routes, other=routes)
def test_a_direct_sum_of_contraction_pairs_adds_their_ssfs_at_a_shared_m(n, k, seed, m, route, other):
    # unlike routes sum to a pair on the complex route
    rng = np.random.default_rng(seed)
    t0, t1 = (_contraction(rng, n, route) for _ in range(2))
    s0, s1 = (_contraction(rng, k, other) for _ in range(2))
    summed = contraction_ssf(_direct_sum(t0, s0), _direct_sum(t1, s1), m)
    distance = l1_distance(summed, contraction_ssf(t0, t1, m), contraction_ssf(s0, s1, m))
    assert_within_roundoff(distance, m * (n + k), t0, t1, s0, s1)


def _line_pair(rng, n, lattice):
    return _lattice_pair(rng, n) if lattice else (_dissipative(rng, n), _dissipative(rng, n))


@EXAMPLES
@given(n=st.integers(2, 4), k=st.integers(2, 3), seed=seeds, m=blocks, lattice=st.booleans())
def test_a_direct_sum_of_dissipative_pairs_adds_their_line_ssfs_at_a_shared_m(n, k, seed, m, lattice):
    # the Cayley image of a direct sum is the direct sum of the Cayley images,
    # which are contractions: their norm 1 bounds the roundoff
    rng = np.random.default_rng(seed)
    (l0, l1), (s0, s1) = _line_pair(rng, n, lattice), _line_pair(rng, k, lattice)
    summed = dissipative_ssf(*(Dissipative(_direct_sum(a.m, b.m)) for a, b in ((l0, s0), (l1, s1))), m)
    parts = dissipative_ssf(l0, l1, m), dissipative_ssf(s0, s1, m)
    assert summed.mass_at_infinity == parts[0].mass_at_infinity + parts[1].mass_at_infinity
    distance = l1_distance(summed.source, *(part.source for part in parts))
    assert_within_roundoff(distance, m * (n + k), *(cayley(l) for l in (l0, l1, s0, s1)))


@EXAMPLES
@given(n=st.integers(1, 4), k=st.integers(1, 3), seed=seeds, radius=st.sampled_from([1.0 + 1e-4, 1.5]))
def test_a_direct_sum_multiplies_determinants_and_adds_their_ssfs(n, k, seed, radius):
    rng = np.random.default_rng(seed)
    t0, t1 = (_scaled(_gaussian(rng, n)) for _ in range(2))
    s0, s1 = (_scaled(_gaussian(rng, k)) for _ in range(2))
    summed = determinant_ssf(_direct_sum(t0, s0), _direct_sum(t1, s1), radius, grid=256)
    parts = determinant_ssf(t0, t1, radius, grid=256), determinant_ssf(s0, s1, radius, grid=256)
    gap = summed.values - parts[0].values - parts[1].values
    assert_within_roundoff(np.max(np.abs(gap)), n + k, t0, t1, s0, s1)


@EXAMPLES
@given(n=st.integers(1, 6), seed=seeds)
def test_the_chain_rule_of_unitary_ssfs(n, seed):
    rng = np.random.default_rng(seed)
    u0, u1, u2 = (_haar(rng, n) for _ in range(3))
    distance = l1_distance(unitary_ssf(u0, u2), unitary_ssf(u0, u1), unitary_ssf(u1, u2))
    assert_within_roundoff(distance, n, u0, u1, u2)


@EXAMPLES
@given(n=st.integers(2, 5), seed=seeds, m=blocks, route=routes)
def test_the_chain_rule_of_contraction_ssfs_at_a_shared_m(n, seed, m, route):
    rng = np.random.default_rng(seed)
    t0, t1, t2 = (_contraction(rng, n, route) for _ in range(3))
    distance = l1_distance(contraction_ssf(t0, t2, m), contraction_ssf(t0, t1, m), contraction_ssf(t1, t2, m))
    assert_within_roundoff(distance, m * n, t0, t1, t2)


@EXAMPLES
@given(n=st.integers(2, 5), seed=seeds, m=blocks, lattice=st.booleans())
def test_the_chain_rule_of_line_ssfs_at_a_shared_m(n, seed, m, lattice):
    rng = np.random.default_rng(seed)
    if lattice:
        # two lattice pairs on one grid share their free operator L0
        (l0, l1), (_, l2) = _lattice_pair(rng, n), _lattice_pair(rng, n)
    else:
        l0, l1, l2 = (_dissipative(rng, n) for _ in range(3))
    ssfs = (dissipative_ssf(a, b, m).source for a, b in ((l0, l2), (l0, l1), (l1, l2)))
    assert_within_roundoff(l1_distance(*ssfs), m * n, *(cayley(l) for l in (l0, l1, l2)))
