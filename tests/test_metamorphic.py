"""Metamorphic relations: swapping a pair negates its spectral shift function exactly.

Under the zero-mean gauge xi(T1, T0) = -xi(T0, T1) as functions. Every route
builds the two SSFs of a pair from the same per-operator eigensolves, so the
swapped SSF is the negative bit for bit: the same jump positions with negated
sizes, the negated gauge and negated sampled values. Each contraction input is
built to take one eigensolve route: a normal T, a complex-symmetric T (the
real fold) or a generic T (the complex Cayley solve).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab.dilation import finite_schaffer_dilation
from ssflab.linalg import TWO_PI, Contraction, Dissipative, hermitize, polar_factors
from ssflab.schrodinger import discrete_schrodinger_pair, potential_values
from ssflab.ssf_circle import contraction_ssf, determinant_ssf, unitary_ssf
from ssflab.ssf_line import dissipative_ssf

SWAP = settings(max_examples=40, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
blocks = st.integers(3, 8)
# the phases where a step SSF is sampled, jump positions added per SSF
GRID = TWO_PI * (np.arange(1, 2049) / 2048)


def _gaussian(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _scaled(m, norm=0.9):
    return norm * m / np.linalg.norm(m, 2)


def _contraction(rng, n, route):
    """A strict contraction whose dilation eigensolve takes `route`."""
    g = _gaussian(rng, n)
    if route == "normal":
        q = polar_factors(g).partial_isometry
        tau = rng.uniform(0.0, 0.9, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        return (q * tau) @ q.conj().T
    return _scaled(g + g.T if route == "fold" else g)


def assert_negated(step, swapped):
    assert swapped.jumps == tuple((theta, -size) for theta, size in step.jumps)
    assert swapped.gauge == -step.gauge
    thetas = np.concatenate([GRID, step.thetas])
    assert np.array_equal(swapped.value(thetas), -step.value(thetas))


@SWAP
@given(n=st.integers(1, 6), seed=seeds, shared=st.integers(0, 6))
def test_swapping_a_unitary_pair_negates_its_ssf(n, seed, shared):
    rng = np.random.default_rng(seed)
    q = polar_factors(_gaussian(rng, n)).partial_isometry
    phases = rng.uniform(0.0, TWO_PI, (2, n))
    # the first `shared` eigenphases coincide, so their jumps cancel in both orders
    phases[1, :shared] = phases[0, :shared]
    u0, u1 = ((q * np.exp(1j * p)) @ q.conj().T for p in phases)
    assert_negated(unitary_ssf(u0, u1), unitary_ssf(u1, u0))


@SWAP
@given(n=st.integers(2, 5), seed=seeds, m=blocks, route=st.sampled_from(["normal", "fold", "complex"]))
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


@SWAP
@given(n=st.integers(2, 5), seed=seeds, m=blocks, lattice=st.booleans())
def test_swapping_a_dissipative_pair_negates_its_line_ssf(n, seed, m, lattice):
    rng = np.random.default_rng(seed)
    l0, l1 = _lattice_pair(rng, n) if lattice else (_dissipative(rng, n), _dissipative(rng, n))
    ssf, swapped = dissipative_ssf(l0, l1, m), dissipative_ssf(l1, l0, m)
    assert_negated(ssf.source, swapped.source)
    assert np.array_equal(swapped.breakpoints, ssf.breakpoints)
    assert np.array_equal(swapped.values, -ssf.values)
    assert swapped.mass_at_infinity == -ssf.mass_at_infinity


@SWAP
@given(n=st.integers(1, 5), seed=seeds, radius=st.sampled_from([1.0 + 1e-8, 1.0 + 1e-4, 1.5]))
def test_swapping_a_pair_negates_its_determinant_ssf(n, seed, radius):
    rng = np.random.default_rng(seed)
    t0, t1 = (_scaled(_gaussian(rng, n)) for _ in range(2))
    sampled, swapped = determinant_ssf(t0, t1, radius, grid=256), determinant_ssf(t1, t0, radius, grid=256)
    assert np.array_equal(swapped.thetas, sampled.thetas)
    assert np.array_equal(swapped.values, -sampled.values)
    assert swapped.winding == sampled.winding == 0
