"""Scenario schema, generation determinism, and per-kind execution."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab.dilation import FiniteDilation
from ssflab.errors import SchemaError
from ssflab.export import dump_json, report_to_dict
from ssflab.scenario import (
    _KINDS,
    ANCHOR_REGISTRY,
    ANCHORS,
    KINDS,
    generate_scenario,
    parse_scenario,
    run_scenario,
)

TWO_PI = 2.0 * np.pi


def hand_unitary_payload(**extra):
    payload = {
        "name": "hand-pair",
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[[0.0, 1.0]]]],
    }
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# execution oracles


def test_equal_pair_gives_zero_residuals_everywhere():
    payload = {
        "name": "same",
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[1.0]]],
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    for r in report.records:
        assert r.residual == pytest.approx(0.0, abs=1e-14)
    assert len(report.tables["circle_step"].jumps) == 0


def test_hand_unitary_pair_record_values():
    report = run_scenario(parse_scenario(hand_unitary_payload()))
    assert report.all_pass
    first = report.records[0]
    assert first.check_id == "trace-poly-0"
    assert first.anchor == "circle-trace-formula"
    # f(z) = z: trace(U1) - trace(U0) = i - 1
    assert first.lhs == pytest.approx(-1.0 + 1.0j, abs=1e-12)
    assert first.rhs == pytest.approx(-1.0 + 1.0j, abs=1e-12)
    assert report.flags["gauge"] == pytest.approx(0.75, abs=1e-12)
    assert report.kind == "unitary_pair"


def test_unitary_pair_with_determinant_consistency():
    payload = hand_unitary_payload(determinant={"radius": 1.0001, "grid": 4096})
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    by_id = {r.check_id: r for r in report.records}
    assert by_id["determinant-step-consistency"].residual <= 5e-2
    crosscheck = by_id["determinant-lu-crosscheck"]
    assert crosscheck.anchor == "determinant-lu-crosscheck"
    assert crosscheck.tolerance == 1e-8 and crosscheck.passed
    assert report.flags["determinant_winding"] == 0
    assert "sampled" in report.tables


def test_unitary_pair_double_eigenphase_determinant_block():
    # U0 has the eigenphase 0.3 twice; the determinant phase swings by 2pi
    # across it, which a phase sampled modulo 2pi cannot see.
    u0 = [[[np.cos(0.3), np.sin(0.3)], 0.0], [0.0, [np.cos(0.3), np.sin(0.3)]]]
    u1 = [[[np.cos(1.0), np.sin(1.0)], 0.0], [0.0, [np.cos(1.0), np.sin(1.0)]]]
    payload = {
        "name": "double-phase",
        "kind": "unitary_pair",
        "matrices": [u0, u1],
        "determinant": {"radius": 1.0001, "grid": 4096},
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    assert report.flags["determinant_winding"] == 0
    assert "determinant_error" not in report.flags


def test_fractional_scalar_witness_example():
    payload = {
        "name": "witness",
        "kind": "fractional",
        "matrices": [[[0.25]], [[0.75]]],
        "exponents": {"sigma": 0.5, "alpha": 1.0, "beta": 0.0, "p": 1.0},
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    assert report.flags["lhs"] == pytest.approx(0.36603, abs=1e-4)
    assert report.flags["bound"] == pytest.approx(1.59155, abs=1e-4)
    assert report.flags["corollary_form"] is True


def test_dissipative_rank_one_bump_flag():
    l0 = [[1.0, 0.0], [0.0, 2.0]]
    l1 = [[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    report = run_scenario(
        parse_scenario(
            {"name": "bump", "kind": "dissipative_pair", "matrices": [l0, l1], "dilation_order": 16}
        )
    )
    assert report.flags["perturbation_trace"] == pytest.approx(1j, abs=1e-12)
    assert report.flags["real_integrable_possible"] is False
    assert all(r.passed for r in report.records)


def test_dissipative_self_adjoint_perturbation_flag():
    l0 = [[1.0, 0.0], [0.0, 2.0]]
    l1 = [[1.5, 0.0], [0.0, 2.0]]
    report = run_scenario(
        parse_scenario(
            {"name": "sa", "kind": "dissipative_pair", "matrices": [l0, l1], "dilation_order": 16}
        )
    )
    assert report.flags["real_integrable_possible"] is True
    assert report.all_pass


def test_contraction_pair_scalar():
    payload = {
        "name": "halfstep",
        "kind": "contraction_pair",
        "matrices": [[[0.0]], [[0.5]]],
        "dilation_order": 5,
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    assert report.flags["block_count"] == 5
    assert report.flags["kernel_certified"] is True
    ids = [r.check_id for r in report.records]
    assert "power-dilation" in ids and "defect-identity" in ids


def test_schrodinger_scenario_small_lattice():
    payload = {
        "name": "lattice",
        "kind": "schrodinger",
        "grid": {"lo": -8.0, "hi": 8.0, "nodes": 24},
        "potential": {"kind": "gaussian", "amplitude": [0.0, 1.0]},
        "dilation_order": 24,
        "z_values": [[0.0, -2.0], [-1.0, -1.0]],
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    ids = [r.check_id for r in report.records]
    assert ids.count("resolvent-z0") == 1 and ids.count("resolvent-z1") == 1
    assert "line_step" in report.tables
    assert report.flags["real_integrable_possible"] is False


def test_kernel_trace_scenario_with_monotone():
    payload = {
        "name": "ktr",
        "kind": "kernel_trace",
        "grid": {"nodes": 256},
        "monotone": {"n": [2, 4, 8]},
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    by_id = {r.check_id: r for r in report.records}
    assert "kernel-half-l1" in by_id
    assert by_id["monotone-ladder"].residual <= 1e-10
    assert report.flags["monotone"]["variant"] == "scale"


def test_kernel_trace_truncate_variant_and_deeper_point():
    payload = {
        "name": "ktr4",
        "kind": "kernel_trace",
        "grid": {"nodes": 128},
        "spectral_point": -4.0,
        "monotone": {"n": [2, 4, 8], "variant": "truncate", "level": 0.05},
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass
    ids = [r.check_id for r in report.records]
    assert "kernel-half-l1" not in ids  # closed form is specific to z = -1


def test_kernel_trace_trapezoid_scheme():
    payload = {
        "name": "ktr-trap",
        "kind": "kernel_trace",
        "grid": {"nodes": 129, "scheme": "trapezoid"},
    }
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass


# ---------------------------------------------------------------------------
# anchors, provenance, determinism


def test_every_record_anchor_is_registered():
    payloads = [
        hand_unitary_payload(),
        {"name": "c", "kind": "contraction_pair", "matrices": [[[0.0]], [[0.5]]]},
        {
            "name": "d",
            "kind": "dissipative_pair",
            "matrices": {"seed": 5, "dim": 3},
            "dilation_order": 12,
        },
        {"name": "f", "kind": "fractional", "matrices": [[[0.25]], [[0.75]]]},
        {"name": "k", "kind": "kernel_trace", "grid": {"nodes": 64}},
    ]
    for payload in payloads:
        report = run_scenario(parse_scenario(payload))
        for r in report.records:
            assert r.anchor in ANCHORS
    assert all(isinstance(v, str) and v for v in ANCHOR_REGISTRY.values())


def test_provenance_and_report_determinism():
    sc = parse_scenario(hand_unitary_payload())
    r1 = run_scenario(sc)
    r2 = run_scenario(sc)
    assert r1.provenance["config_hash"] == r2.provenance["config_hash"]
    assert len(r1.provenance["config_hash"]) == 64
    d1 = report_to_dict(r1, "2000-01-01T00:00:00+00:00")
    d2 = report_to_dict(r2, "2099-01-01T00:00:00+00:00")
    # identical modulo the timestamp
    d2["timestamp"] = d1["timestamp"]
    assert dump_json(d1) == dump_json(d2)


def _hash(payload) -> str:
    return parse_scenario(payload).config_hash


def _explicit_pair(cell, name="hash"):
    return {"name": name, "kind": "contraction_pair", "matrices": [[[0.5, 0.0], [0.0, cell]], [[0.5, 0.0], [0.0, 0.5]]]}


def test_config_hash_is_the_json_without_matrices_then_each_matrix():
    payload = hand_unitary_payload()
    h = hashlib.sha256(b'{"kind":"unitary_pair","name":"hand-pair"}')
    for m in (np.array([[1.0 + 0j]]), np.array([[1j]])):
        h.update(np.array([1, 1], dtype="<i8").tobytes() + m.astype("<c16").tobytes())
    assert _hash(payload) == h.hexdigest()
    assert _hash(dict(reversed(payload.items()))) == h.hexdigest()


@pytest.mark.parametrize(
    "a, b",
    [(1, 1.0), (0.3, [0.3, 0]), (0.3, [0.3, 0.0]), (0, [0.0, 0.0])],
    ids=["int-float", "real-pair", "real-float-pair", "zero-pair"],
)
def test_config_hash_covers_the_numbers_not_their_spelling(a, b):
    assert _hash(_explicit_pair(a)) == _hash(_explicit_pair(b))


def test_config_hash_is_the_same_for_a_matrix_of_reals_and_of_pairs():
    reals = _explicit_pair(0.3)
    pairs = reals | {"matrices": [[[[x, 0.0] for x in row] for row in m] for m in reals["matrices"]]}
    assert _hash(reals) == _hash(pairs)


def test_config_hash_tells_apart_a_sign_a_cell_and_a_tolerance():
    base = _hash(_explicit_pair(0.0))
    assert _hash(_explicit_pair(-0.0)) != base
    assert _hash(_explicit_pair(0.1)) != base
    tolerances = [_hash(_explicit_pair(0.0) | {"tolerances": {"defect-identity": t}}) for t in (1e-12, 1e-11)]
    assert len({base, *tolerances}) == 3
    assert _hash(_explicit_pair(0.0, name="other")) != base


def test_config_hash_of_a_random_spec_is_its_json():
    payload = {"name": "rnd", "kind": "contraction_pair", "matrices": {"seed": 11, "dim": 5}}
    assert _hash(payload) == _hash(json.loads(json.dumps(payload)))
    assert _hash(payload) != _hash(payload | {"matrices": {"seed": 12, "dim": 5}})
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert _hash(payload) == hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_scenario_keeps_its_hash_and_not_its_file():
    sc = parse_scenario(hand_unitary_payload())
    assert not hasattr(sc, "raw")
    assert sc.config_hash == vars(sc)["config_hash"]


def test_a_nan_outside_the_matrices_is_a_schema_error_before_the_hash():
    with pytest.raises(SchemaError, match=r"^determinant.radius: "):
        parse_scenario(hand_unitary_payload(determinant={"radius": float("nan")}))


def test_random_pair_is_deterministic_and_distinct():
    payload = {
        "name": "rnd",
        "kind": "unitary_pair",
        "matrices": {"seed": 11, "dim": 5, "class": "unitary"},
    }
    a = parse_scenario(payload)
    b = parse_scenario(payload)
    assert np.array_equal(a.matrices[0], b.matrices[0])
    assert np.array_equal(a.matrices[1], b.matrices[1])
    assert not np.array_equal(a.matrices[0], a.matrices[1])
    eye = np.eye(5)
    for m in a.matrices:
        assert np.linalg.norm(m.conj().T @ m - eye) <= 1e-12


def test_boundary_contraction_generator():
    payload = {
        "name": "edge",
        "kind": "contraction_pair",
        "matrices": {"seed": 2, "dim": 4, "allow_boundary": True},
    }
    sc = parse_scenario(payload)
    top = np.linalg.svd(sc.matrices[0], compute_uv=False)[0]
    assert top == pytest.approx(1.0, abs=1e-12)


def test_generate_scenario_deterministic():
    a = generate_scenario("contraction_pair", 7, 4)
    b = generate_scenario("contraction_pair", 7, 4)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    report = run_scenario(parse_scenario(a))
    assert report.all_pass


def test_generated_matrices_pass_their_validations():
    for kind in KINDS:
        for dim in (1, 3):
            report = run_scenario(parse_scenario(generate_scenario(kind, 1, dim)))
            assert report.all_pass, (kind, dim, [r.check_id for r in report.failed()])


# ---------------------------------------------------------------------------
# schema rejection


BAD_PAYLOADS = [
    "not a dict",
    {"kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]]},  # no name
    {"name": "x", "kind": "mystery"},
    # a name becomes a file name in --out-dir
    {"name": "../escaped", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]]},
    {"name": "a\\b", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]]},
    {"name": "a\0b", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]]},
    {"name": " .. ", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]]},
    {"name": "x", "kind": "unitary_pair"},  # matrices required
    {"name": "x", "kind": "unitary_pair", "matrices": [[[1.0]]]},  # one matrix
    {"name": "x", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]], "extra": 1},
    {"name": "x", "kind": "unitary_pair", "matrices": [[[1.0, 0.0]], [[1.0]]]},  # not square
    {"name": "x", "kind": "unitary_pair", "matrices": [[["a"]], [[1.0]]]},
    {"name": "x", "kind": "unitary_pair", "matrices": {"seed": -1, "dim": 2}},
    {"name": "x", "kind": "unitary_pair", "matrices": {"seed": 1, "dim": 2, "class": "weird"}},
    {"name": "x", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]], "outputs": ["pdf"]},
    {"name": "x", "kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]], "tolerances": {"t": 0.0}},
    {
        "name": "x",
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[1.0]]],
        "determinant": {"radius": 1.0},
    },
    {
        "name": "x",
        "kind": "dissipative_pair",
        "matrices": [[[[0.0, 1.0]]], [[[0.0, 2.0]]]],
        "z_values": [[0.0, 1.0]],  # upper half plane
    },
    {
        "name": "x",
        "kind": "fractional",
        "matrices": [[[0.25]], [[0.75]]],
        "exponents": {"sigma": 0.5, "alpha": 0.1, "beta": 0.1},  # sum below 1 - sigma
    },
    {
        "name": "x",
        "kind": "fractional",
        "matrices": [[[0.25]], [[0.75]]],
        "exponents": {"sigma": 1.5},
    },
    {"name": "x", "kind": "kernel_trace", "grid": {"nodes": 100}},  # not a multiple of 16
    {"name": "x", "kind": "kernel_trace", "grid": {"lo": 2.0, "hi": 1.0}},
    {"name": "x", "kind": "kernel_trace", "monotone": {"n": [4, 2]}},
    {"name": "x", "kind": "kernel_trace", "monotone": {"n": [2, 4], "variant": "other"}},
    {"name": "x", "kind": "kernel_trace", "potential": {"kind": "mesa"}},
    {"name": "x", "kind": "kernel_trace", "spectral_point": 1.0},
    {"name": "x", "kind": "schrodinger", "grid": {"nodes": 1}},
    {"name": "x", "kind": "contraction_pair", "matrices": [[[0.5]], [[0.0]]], "dilation_order": 2},
    {
        "name": "x",
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[1.0]]],
        "test_polynomials": [[]],
    },
    # json.load admits NaN, Infinity, 1e400 (as inf) and integers of any size
    {"name": "x", "kind": "kernel_trace", "tolerances": {"kernel-positivity": float("nan")}},
    {"name": "x", "kind": "kernel_trace", "tolerances": {"kernel-positivity": float("inf")}},
    {
        "name": "x",
        "kind": "dissipative_pair",
        "matrices": [[[[0.0, 1.0]]], [[[0.0, 2.0]]]],
        "z_values": [[float("nan"), -2.0]],
    },
    {
        "name": "x",
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[1.0]]],
        "determinant": {"radius": float("inf")},
    },
    {"name": "x", "kind": "fractional", "matrices": [[[0.25]], [[0.75]]], "exponents": {"p": float("inf")}},
    {"name": "x", "kind": "kernel_trace", "spectral_point": -int("9" * 400)},
    {"name": "x", "kind": "kernel_trace", "spectral_point": float("-inf")},
    {"name": "x", "kind": "kernel_trace", "potential": {"kind": "gaussian", "amplitude": [1.0, 10**400]}},
    {"name": "x", "kind": "kernel_trace", "potential": {"kind": ["gaussian"]}},
    # np.interp assumes increasing x: the descending table ran with a trace of 0.0
    {"name": "x", "kind": "kernel_trace", "potential": {"kind": "table", "x": [1, 0, -1], "q": [1, 2, 0.5]}},
    {"name": "x", "kind": "kernel_trace", "potential": {"kind": "table", "x": [-1, 0, 0], "q": [1, 2, 0.5]}},
]


@pytest.mark.parametrize("payload", BAD_PAYLOADS)
def test_schema_rejection(payload):
    with pytest.raises(SchemaError):
        parse_scenario(payload)


@pytest.mark.parametrize(
    "potential, allowed",
    [
        ({"kind": "gaussian", "taper": 1.0}, "['amplitude', 'center', 'kind', 'width']"),
        ({"kind": "bump", "width": 1.0}, "['amplitude', 'center', 'half_width', 'kind', 'taper']"),
    ],
)
def test_potential_shapes_name_their_allowed_keys(potential, allowed):
    unknown = [k for k in potential if k != "kind"]
    with pytest.raises(SchemaError, match=re.escape(f"potential: unknown keys {unknown}; allowed: {allowed}")):
        parse_scenario({"name": "x", "kind": "kernel_trace", "potential": potential})


COMMON_KEYS = {"name", "kind", "outputs", "tolerances"}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_table_rejects_the_keys_of_other_kinds(kind):
    own = _KINDS[kind].keys
    others = set().union(*(spec.keys for spec in _KINDS.values())) - own
    base = generate_scenario(kind, 0, 2)
    for key in sorted(others):
        with pytest.raises(SchemaError, match=rf"unknown keys \['{key}'\]"):
            parse_scenario({**base, key: 1})


@pytest.mark.parametrize("kind", KINDS)
def test_generated_files_hold_only_keys_their_kind_allows(kind):
    for seed, dim in ((0, 1), (5, 3), (0, 17), (5, 64)):
        assert set(generate_scenario(kind, seed, dim)) <= COMMON_KEYS | _KINDS[kind].keys


MATRIX_ERRORS = [
    ([[[True]], [[1.0]]], "matrices[0][0][0]: expected a number, got a boolean"),
    (
        [[[1.0, 0.0], [0.0, "x"]], [[1.0, 0.0], [0.0, 1.0]]],
        "matrices[0][1][1]: expected a number or an [re, im] pair",
    ),
    ([[[[1.0]]], [[1.0]]], "matrices[0][0][0]: expected a number or an [re, im] pair"),
    ([[[1.0]], [[[1.0, 0.0, 2.0]]]], "matrices[1][0][0]: expected a number or an [re, im] pair"),
    ([[[[1.0, True]]], [[1.0]]], "matrices[0][0][0]: expected a number or an [re, im] pair"),
    ([[[1.0, 0.0], [0.0]], [[1.0]]], "matrices[0]: row 1 does not make the matrix square"),
    ([[[1.0, 0.0], 5.0], [[1.0]]], "matrices[0]: row 1 does not make the matrix square"),
    # a bad cell in an earlier row is reported before a later ragged row
    ([[["a", 0.0], [0.0]], [[1.0]]], "matrices[0][0][0]: expected a number or an [re, im] pair"),
    ([[], [[1.0]]], "matrices[0]: expected a nonempty nested array"),
    ([{"re": 1.0}, [[1.0]]], "matrices[0]: expected a nonempty nested array"),
    ([[[1.0]], [[1.0, 0.0], [0.0, 1.0]]], "matrices: the two matrices must have equal dimensions"),
    ([[[10**400]], [[1.0]]], "matrices[0][0][0]: number exceeds the double-precision range"),
    ([[[1.0]], [[[0.0, -(10**400)]]]], "matrices[1][0][0]: number exceeds the double-precision range"),
    ([[[1.0, [0.0, float("nan")]], [0.0, 1.0]], [[1.0]]], "matrices[0][0][1]: expected a finite number"),
]


@pytest.mark.parametrize("matrices, message", MATRIX_ERRORS)
def test_matrix_schema_error_text(matrices, message):
    with pytest.raises(SchemaError) as info:
        parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": matrices})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ('[[[NaN]], [[1.0]]]', "matrices[0]: matrix entries must be finite"),
        ('[[[1.0]], [[[0.0, Infinity]]]]', "matrices[1]: matrix entries must be finite"),
        ('[[[1.0]], [[[-Infinity, 0.0]]]]', "matrices[1]: matrix entries must be finite"),
    ],
)
def test_nonfinite_json_matrix_entries_are_rejected(text, message):
    with pytest.raises(SchemaError) as info:
        parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": json.loads(text)})
    assert str(info.value) == message


def test_matrix_cells_may_mix_scalars_and_pairs():
    m0 = [[1.0, [0.0, 0.0]], [0, [-0.0, 1.0]]]
    m1 = [[1, 0], [0, 1]]
    sc = parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": [m0, m1]})
    a, b = sc.matrices
    assert a.dtype == b.dtype == np.complex128
    np.testing.assert_array_equal(a, [[1.0, 0.0], [0.0, 1j]])
    np.testing.assert_array_equal(b, np.eye(2))
    assert np.signbit(a[1, 1].real)


def test_pair_cells_keep_signed_zeros_and_large_integers():
    m = [[[-0.0, 2**53 + 1], [3, -0.0]], [[0.5, 0.25], [1e-300, -1e300]]]
    sc = parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": [m, m]})
    a = sc.matrices[0]
    expected = [[complex(-0.0, 2**53 + 1), complex(3, -0.0)], [complex(0.5, 0.25), complex(1e-300, -1e300)]]
    assert a.tolist() == expected
    assert np.signbit(a.real[0, 0]) and np.signbit(a.imag[0, 1])


def _per_entry_matrix(rows):
    """The cell-by-cell conversion the parser is checked against."""
    out = np.zeros((len(rows), len(rows)), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            out[i, j] = complex(*cell) if isinstance(cell, list) else complex(cell)
    return out


@st.composite
def json_matrices(draw):
    n = draw(st.integers(1, 6))
    real = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70) | st.just(-0.0)
    cell = st.lists(real, min_size=2, max_size=2) if draw(st.booleans()) else real
    return draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(m=json_matrices())
def test_matrix_parse_matches_the_per_entry_conversion(m):
    parsed = parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": [m, m]}).matrices[0]
    expected = _per_entry_matrix(m)
    assert parsed.dtype == np.complex128
    assert parsed.view(np.float64).tobytes() == expected.view(np.float64).tobytes()


def test_runtime_data_violations_become_schema_errors():
    # parses fine, but [[2]] is not unitary: the data violates the kind
    payload = {"name": "x", "kind": "unitary_pair", "matrices": [[[2.0]], [[1.0]]]}
    with pytest.raises(SchemaError):
        run_scenario(parse_scenario(payload))
    # imaginary part with a negative eigenvalue is not dissipative
    payload = {"name": "x", "kind": "dissipative_pair", "matrices": [[[[0.0, -1.0]]], [[[0.0, 1.0]]]]}
    with pytest.raises(SchemaError):
        run_scenario(parse_scenario(payload))


def test_tolerance_override_and_scale():
    payload = hand_unitary_payload(tolerances={"trace-poly-0": 1e-30})
    sc = parse_scenario(payload)
    report = run_scenario(sc)
    assert not report.all_pass
    assert [r.check_id for r in report.failed()] == ["trace-poly-0"]
    rescued = run_scenario(sc, tolerance_scale=1e20)
    assert rescued.all_pass
    with pytest.raises(SchemaError):
        run_scenario(sc, tolerance_scale=0.0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_non_finite_tolerance_scale_is_a_schema_error(scale):
    # a NaN or infinite tolerance would reach the report, which JSON cannot hold
    with pytest.raises(SchemaError, match="positive finite"):
        run_scenario(parse_scenario(hand_unitary_payload()), tolerance_scale=scale)


# ---------------------------------------------------------------------------
# numeric failures and the structured dilation


def test_numeric_exception_becomes_one_failing_record():
    # a singular operand has no inverse fractional power: KernelViolation
    payload = {
        "name": "singular",
        "kind": "fractional",
        "matrices": [[[0, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]],
    }
    report = run_scenario(parse_scenario(payload))
    assert not report.all_pass
    (failed,) = report.failed()
    assert failed.check_id == failed.anchor == "numeric-completion"
    assert failed.anchor in ANCHORS
    assert failed.residual is None
    assert report.flags["numeric_error"].startswith("KernelViolation: ")
    assert report.tables == {}
    # the report still serializes like any other
    assert report_to_dict(report, "2000-01-01T00:00:00+00:00")["all_pass"] is False


@pytest.mark.parametrize("kind", ["contraction_pair", "dissipative_pair", "schrodinger"])
def test_runs_never_build_the_dense_dilation(kind, monkeypatch):
    def dense(self):
        raise AssertionError("a run read FiniteDilation.u")

    monkeypatch.setattr(FiniteDilation, "u", property(dense))
    report = run_scenario(parse_scenario(generate_scenario(kind, 7, 4)))
    assert report.all_pass


def test_unitary_pair_written_to_eleven_digits_passes():
    # a non-normal matrix inside Unitary's 1e-10 defect tolerance, with its
    # phases nearly mirrored about the eigensolver's rotation
    phi = 0.5 * np.pi * (np.sqrt(5.0) - 1.0)
    a, b = np.exp(1j * (phi + 0.3)), np.exp(1j * (phi - 0.29))
    u0 = [[[a.real, a.imag], [5e-11, 0.0]], [[0.0, 0.0], [b.real, b.imag]]]
    payload = {"name": "eleven-digits", "kind": "unitary_pair", "matrices": [u0, [[1.0, 0.0], [0.0, 1.0]]]}
    report = run_scenario(parse_scenario(payload))
    assert report.all_pass, [r.check_id for r in report.failed()]


# the flags every kind reports, and the keys of its nested flag records; a
# renamed field of a report record must show up here
LINE_FLAGS = [
    "block_count",
    "jump_count",
    "mass_at_infinity",
    "perturbation_trace",
    "real_integrable_possible",
    "windowed",
]
DISSIPATIVE_FLAGS = sorted(LINE_FLAGS + ["condition_report", "left_tail", "right_tail"])
FLAG_KEYS = {
    "unitary_pair": (["gauge", "jump_count"], {}),
    "contraction_pair": (
        [
            "block_count",
            "defect_adjoint_diff_norm",
            "defect_diff_norm",
            "gauge",
            "jump_count",
            "kernel_certified",
            "min_defect_eig",
            "weighted_adjoint_diff_norm",
            "weighted_diff_norm",
        ],
        {},
    ),
    "dissipative_pair": (
        DISSIPATIVE_FLAGS,
        {
            "condition_report": [
                "p",
                "resolvent_diff_trace_norm",
                "resolvent_sqrt_im_norms",
                "sqrt_im_resolvent_norms",
                "weighted_diff_norm",
            ]
        },
    ),
    "fractional": (
        [
            "alpha",
            "beta",
            "bound",
            "corollary_form",
            "ill_conditioned",
            "lhs",
            "min_eig",
            "p",
            "plain_diff_norm",
            "sigma",
            "slack",
            "weighted_norm",
        ],
        {},
    ),
    "schrodinger": (sorted(LINE_FLAGS + ["nodes"]), {}),
    "kernel_trace": (
        [
            "diagonal_integral",
            "half_l1_target",
            "min_eigenvalue",
            "monotone",
            "spectral_point",
            "trace",
            "trace_norm",
        ],
        {"monotone": ["approx_norms", "full_norm", "n", "residual_norms", "variant"]},
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_flag_keys_of_every_kind_are_pinned(kind):
    report = run_scenario(parse_scenario(generate_scenario(kind, 11, 3)))
    keys, nested = FLAG_KEYS[kind]
    assert sorted(report.flags) == keys
    assert {k: sorted(v) for k, v in report.flags.items() if isinstance(v, dict)} == nested


def test_a_singular_imaginary_part_reports_the_condition_error_under_the_same_flags():
    l0 = np.diag([1.0, 2.0, 3.0]) + 1j * np.diag([1.0, 0.0, 0.5])
    l1 = l0 + 0.1 * np.ones((3, 3)) + 1j * np.diag([0.0, 0.0, 0.2])
    pair = [np.stack((m.real, m.imag), -1).tolist() for m in (l0, l1)]
    report = run_scenario(parse_scenario({"name": "x", "kind": "dissipative_pair", "matrices": pair}))
    assert sorted(report.flags) == DISSIPATIVE_FLAGS
    assert report.flags["condition_report"].startswith("KernelViolation: Im L_0 has eigenvalue")


# ---------------------------------------------------------------------------
# the determinant block: one record per check id, whichever way it ends


def _determinant_payload(u0, u1, **determinant):
    pair = [np.stack((m.real, m.imag), -1).tolist() for m in (u0, u1)]
    return {"name": "det", "kind": "unitary_pair", "matrices": pair, "determinant": determinant}


def _determinant_records(report):
    return [r for r in report.records if r.check_id.startswith("determinant-")]


def test_determinant_block_that_runs_records_both_checks_and_the_sampled_table():
    u0, u1 = np.diag(np.exp(1j * np.array([0.5, 2.0]))), np.diag(np.exp(1j * np.array([1.0, 4.0])))
    report = run_scenario(parse_scenario(_determinant_payload(u0, u1, grid=1024)))
    step, lu = _determinant_records(report)
    assert (step.check_id, step.anchor, step.tolerance) == ("determinant-step-consistency", "determinant-consistency", 5e-2)
    assert (lu.check_id, lu.anchor, lu.tolerance) == ("determinant-lu-crosscheck", "determinant-lu-crosscheck", 1e-8)
    assert step.passed and lu.passed
    assert step.residual == abs(step.lhs) and lu.residual == abs(lu.lhs)
    assert report.flags["determinant_winding"] == 0
    assert not {"determinant_error", "determinant_step_error"} & set(report.flags)
    assert len(report.tables["sampled"].thetas) == 1024


def test_determinant_block_with_no_grid_point_off_the_jumps_fails_the_step_check_only():
    # a jump every pi/100 < 2 * 2e-2 rad leaves no grid point outside the exclusion radius
    phases = TWO_PI * np.arange(100) / 100 + 0.01
    u0, u1 = np.diag(np.exp(1j * phases)), np.diag(np.exp(1j * (phases + np.pi / 100)))
    report = run_scenario(parse_scenario(_determinant_payload(u0, u1)))
    step, lu = _determinant_records(report)
    assert step.check_id == "determinant-step-consistency" and step.residual is None and not step.passed
    assert (step.lhs, step.rhs) == (0.0, 0.0)
    assert lu.check_id == "determinant-lu-crosscheck" and lu.residual is not None and lu.passed
    assert report.flags["determinant_step_error"] == "ValidationError: exclusion radius removed every grid point"
    assert report.flags["determinant_winding"] == 0
    assert "determinant_error" not in report.flags
    assert len(report.tables["sampled"].thetas) == 4096


def test_determinant_block_whose_route_raises_records_both_checks_as_not_run(monkeypatch):
    from ssflab import scenario
    from ssflab.errors import NonzeroWinding

    def refuse(*args, **kwargs):
        raise NonzeroWinding("determinant winds 1 times around 0")

    monkeypatch.setattr(scenario, "determinant_ssf", refuse)
    report = run_scenario(parse_scenario(hand_unitary_payload(determinant={})))
    records = _determinant_records(report)
    assert [(r.check_id, r.residual, r.passed, r.tolerance) for r in records] == [
        ("determinant-step-consistency", None, False, 5e-2),
        ("determinant-lu-crosscheck", None, False, 1e-8),
    ]
    assert all((r.lhs, r.rhs) == (0.0, 0.0) for r in records)
    assert report.flags["determinant_error"] == "NonzeroWinding: determinant winds 1 times around 0"
    assert not {"determinant_winding", "determinant_step_error"} & set(report.flags)
    assert "sampled" not in report.tables
    # every other check still ran
    assert [r for r in report.records if r not in records and not r.passed] == []


def test_a_validation_error_of_the_determinant_route_is_a_schema_error(monkeypatch):
    from ssflab import scenario
    from ssflab.errors import ValidationError

    def refuse(*args, **kwargs):
        raise ValidationError("sampling radius must be at least 1 + 1e-8")

    monkeypatch.setattr(scenario, "determinant_ssf", refuse)
    with pytest.raises(SchemaError, match="sampling radius"):
        run_scenario(parse_scenario(hand_unitary_payload(determinant={})))


@pytest.mark.parametrize("kind", ["dissipative_pair", "schrodinger"])
def test_line_kinds_report_the_tails_only_for_dissipative_pairs(kind):
    report = run_scenario(parse_scenario(generate_scenario(kind, 2, 3)))
    has_tails = {"left_tail", "right_tail"} <= set(report.flags)
    assert has_tails == (kind == "dissipative_pair")
    if has_tails:
        values = report.tables["line_step"].values
        assert (report.flags["left_tail"], report.flags["right_tail"]) == (values[0], values[-1])
