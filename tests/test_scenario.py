"""Scenario schema, generation determinism, and per-kind execution."""

import base64
import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab import cli, scenario, schrodinger
from ssflab.dilation import FiniteDilation
from ssflab.errors import SchemaError, ValidationError
from ssflab.export import dump_json, report_to_dict
from ssflab.linalg import Unitary
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


def count_square_solves(monkeypatch, n):
    """The names of the eigvalsh and eigh calls on an n-square matrix, in call order."""
    calls = []

    def counted(name, solver):
        def run(a, *args, **kwargs):
            if np.shape(a) == (n, n):
                calls.append(name)
            return solver(a, *args, **kwargs)

        return run

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


def test_a_schrodinger_run_reads_the_lattice_floor_off_validation(monkeypatch):
    sc = parse_scenario(
        {"name": "lattice", "kind": "schrodinger", "grid": {"nodes": 24}, "dilation_order": 8, "z_values": [[0.0, -2.0]]}
    )
    pairs = []
    build = scenario.discrete_schrodinger_pair
    monkeypatch.setattr(scenario, "discrete_schrodinger_pair", lambda q, h: pairs.append(build(q, h)) or pairs[-1])
    calls = count_square_solves(monkeypatch, 24)
    report = run_scenario(sc)
    # one eigh per operator, in its validation, then the dilation's normal form;
    # the lattice floor is read off L0's validation
    assert calls == ["eigh", "eigh", "eigh"]
    floor = next(r for r in report.records if r.check_id == "lattice-dissipativity")
    assert floor.lhs == pairs[0][0].imag_min and floor.passed


def test_a_dissipative_run_factors_each_imaginary_part_once(monkeypatch):
    sc = parse_scenario(generate_scenario("dissipative_pair", 2, 24))
    calls = count_square_solves(monkeypatch, 24)
    report = run_scenario(sc)
    assert report.all_pass
    # one eigh of Im L per operator, in its validation; the checks read it
    assert calls == ["eigh", "eigh"]


def test_a_fractional_run_validates_and_factors_each_matrix_once(monkeypatch):
    sc = parse_scenario(generate_scenario("fractional", 4, 3))
    calls = count_square_solves(monkeypatch, 3)
    report = run_scenario(sc)
    assert report.all_pass
    assert calls == ["eigh", "eigh"]


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


@pytest.mark.parametrize("spectral_point, builds", [(-1.0, [1, 8, 15]), (-2.5, [2, 9, 16])])
def test_a_kernel_file_builds_the_kernel_of_each_spectral_point_once(monkeypatch, spectral_point, builds):
    # the report runs at the file's spectral point and the 7-rung ladder at -1: at -1 they share one full kernel
    calls = []
    for name in ("_green_matrix", "nystrom_kernel", "_hermitian_spectrum"):
        f = getattr(schrodinger, name)
        monkeypatch.setattr(schrodinger, name, lambda *a, _f=f, _n=name: calls.append(_n) or _f(*a))
    payload = generate_scenario("kernel_trace", 3, 4) | {"spectral_point": spectral_point}
    assert run_scenario(parse_scenario(payload)).all_pass
    assert [calls.count(n) for n in ("_green_matrix", "nystrom_kernel", "_hermitian_spectrum")] == builds


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


UNITARY = {"kind": "unitary_pair", "matrices": [[[1.0]], [[1.0]]]}
CONTRACTION = {"kind": "contraction_pair", "matrices": [[[0.5]], [[0.0]]]}
KERNEL = {"kind": "kernel_trace"}
SUB_OBJECT_ERRORS = [
    (UNITARY, {"determinant": 1}, "determinant: expected an object"),
    (UNITARY, {"determinant": {"extra": 1}}, "determinant: unknown keys ['extra']; allowed: ['grid', 'radius']"),
    (KERNEL, {"monotone": [2, 4]}, "monotone: expected an object"),
    (
        KERNEL,
        {"monotone": {"n": [2, 4], "rungs": 3}},
        "monotone: unknown keys ['rungs']; allowed: ['level', 'n', 'variant']",
    ),
    (KERNEL, {"monotone": {"n": [2, 4], "level": 0}}, "monotone.level: must be positive"),
    (KERNEL, {"grid": [1]}, "grid: expected an object"),
    (KERNEL, {"grid": {"panels": 4}}, "grid: unknown keys ['panels']; allowed: ['hi', 'lo', 'nodes', 'scheme']"),
    (CONTRACTION, {"exponents": 1}, "exponents: expected an object"),
    (CONTRACTION, {"exponents": {"gamma": 1}}, "exponents: unknown keys ['gamma']; allowed: ['alpha', 'beta', 'p']"),
    (UNITARY, {"matrices": {"allow_boundary": 1}}, "matrices.allow_boundary: expected a boolean"),
    (
        UNITARY,
        {"matrices": {"size": 2}},
        "matrices: unknown keys ['size']; allowed: ['allow_boundary', 'class', 'dim', 'seed']",
    ),
    (KERNEL, {"potential": 1}, "potential: expected a descriptor object"),
    (
        KERNEL,
        {"potential": {"kind": "table", "x": [0.0], "q": []}},
        "potential: table needs equal-length nonempty x and q lists",
    ),
    (UNITARY, {"test_polynomials": []}, "test_polynomials: expected a nonempty list of coefficient lists"),
    (KERNEL, {"tolerances": []}, "tolerances: expected an object of check_id to tolerance"),
    (
        KERNEL,
        {"potential": {"kind": "table", "x": [0.0], "q": [1.0], "y": 1}},
        "potential: unknown keys ['y']; allowed: ['kind', 'q', 'x']",
    ),
    (
        KERNEL,
        {"potential": {"kind": "gaussian", "amplitude": "a"}},
        "potential.amplitude: expected a number or an [re, im] pair",
    ),
    (
        KERNEL,
        {"potential": {"kind": "gaussian", "width": "w", "amplitude": "a"}},
        "potential.amplitude: expected a number or an [re, im] pair",
    ),
    (KERNEL, {"potential": {"kind": "bump", "center": "c"}}, "potential.center: expected a real number"),
    (
        KERNEL,
        {"potential": {"kind": "bump", "taper": "t", "half_width": "h"}},
        "potential.half_width: expected a real number",
    ),
    (KERNEL, {"potential": {"kind": "mesa"}}, "potential: unknown potential kind 'mesa'"),
    (KERNEL, {"potential": {}}, "potential: unknown potential kind None"),
    (KERNEL, {"potential": {"kind": "gaussian", "width": 0}}, "potential: gaussian width must be positive"),
    (
        KERNEL,
        {"potential": {"kind": "bump", "half_width": 0.5, "taper": 0.75}},
        "potential: bump taper must lie in (0, half_width]",
    ),
    (
        KERNEL,
        {"potential": {"kind": "table", "x": [0.0, "a"], "q": [1.0, 2.0]}},
        "potential.x[1]: expected a real number",
    ),
    (
        KERNEL,
        {"potential": {"kind": "table", "x": [0.0, 1.0], "q": [1.0, "b"]}},
        "potential.q[1]: expected a number or an [re, im] pair",
    ),
]


@pytest.mark.parametrize("base, keys, message", SUB_OBJECT_ERRORS)
def test_sub_object_schema_error_text(base, keys, message):
    with pytest.raises(SchemaError) as info:
        parse_scenario({"name": "x", **base, **keys})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "grid, kind",
    [
        ({"lo": -1e308, "hi": 1e308, "nodes": 16}, "kernel_trace"),
        ({"lo": -1e308, "hi": 1e308, "nodes": 16, "scheme": "trapezoid"}, "kernel_trace"),
        ({"lo": -1e308, "hi": 1e308, "nodes": 5}, "schrodinger"),
    ],
)
def test_a_grid_that_overflows_is_refused_at_parse(grid, kind):
    with pytest.raises(SchemaError) as info:
        parse_scenario({"name": "x", "kind": kind, "grid": grid})
    assert str(info.value) == "grid: grid points and weights must be finite"


@pytest.mark.parametrize(
    "lo, hi, nodes, scheme",
    [(-1e308, 1e308, 16, "gauss"), (-1e308, 1e308, 5, "trapezoid"), (1e308, 1.7e308, 16, "gauss")],
)
def test_a_grid_that_overflows_is_refused_without_a_numpy_warning(lo, hi, nodes, scheme):
    # the last domain's length is finite, but its panel midpoints overflow
    grid = {"lo": lo, "hi": hi, "nodes": nodes, "scheme": scheme}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^grid points and weights must be finite$"):
            schrodinger.make_grid(lo, hi, nodes, scheme)
        with pytest.raises(SchemaError, match=r"^grid: grid points and weights must be finite$"):
            parse_scenario({"name": "x", "kind": "kernel_trace", "grid": grid})


@pytest.mark.parametrize(
    "text, message",
    [
        ('[[[NaN]], [[1.0]]]', "matrices[0][0][0]: expected a finite number"),
        ('[[[1.0]], [[[0.0, Infinity]]]]', "matrices[1][0][0]: expected a finite number"),
        ('[[[1.0]], [[[-Infinity, 0.0]]]]', "matrices[1][0][0]: expected a finite number"),
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


# byte matrices: {"shape": [n, n], "complex128": base64 of row-major little-endian complex128}

EDGE_PARTS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def complex_matrices(draw):
    n = draw(st.integers(1, 6))
    part = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_PARTS)
    parts = draw(st.lists(part, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(parts).view(np.complex128).reshape(n, n)


@settings(max_examples=150, deadline=None)
@given(m=complex_matrices())
def test_a_byte_matrix_round_trips_bit_for_bit(m):
    entry = json.loads(json.dumps(scenario._matrix_to_json(m)))
    assert entry["shape"] == list(m.shape)
    base64.b64decode(entry["complex128"], validate=True)
    decimal = np.stack((m.real, m.imag), -1).tolist()
    parsed, twin = parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": [entry, decimal]}).matrices
    # the array owns its memory: it is not a view of the decoded bytes
    assert parsed.dtype == np.complex128 and parsed.flags.owndata and parsed.flags.writeable
    assert parsed.tobytes() == twin.tobytes() == m.tobytes()


def test_a_byte_matrix_hashes_like_its_decimal_twin():
    payload = generate_scenario("contraction_pair", 7, 5)
    sc = parse_scenario(payload)
    twin = payload | {"matrices": [np.stack((m.real, m.imag), -1).tolist() for m in sc.matrices]}
    assert parse_scenario(twin).config_hash == sc.config_hash
    assert [m.tobytes() for m in parse_scenario(twin).matrices] == [m.tobytes() for m in sc.matrices]


@pytest.mark.parametrize("cells", ["real", "pairs"])
def test_a_dim64_decimal_matrix_decodes_as_its_bytes_twin(cells):
    rng = np.random.default_rng(64)
    if cells == "real":
        # integers, signed zeros and reals, every cell a scalar
        m = rng.standard_normal((64, 64))
        m[::3] = rng.integers(-(2**60), 2**60, (22, 64))
        m[1::3, ::5] = -0.0
        decimal = [[int(x) if k % 3 == 0 else float(x) for x in row] for k, row in enumerate(m)]
        m = m.astype(np.complex128)
    else:
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        m.real[1::3, ::5] = m.imag[2::3, ::7] = -0.0
        decimal = np.stack((m.real, m.imag), -1).tolist()
    entry = scenario._matrix_to_json(m)
    parsed, twin = parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": [decimal, entry]}).matrices
    assert parsed.tobytes() == twin.tobytes() == m.tobytes()


def test_a_huge_shape_is_refused_by_its_length_before_any_decoding(monkeypatch):
    monkeypatch.setattr(scenario.base64, "b64decode", lambda *a, **k: pytest.fail("decoded a huge matrix"))
    entry = {"shape": [10**6, 10**6], "complex128": "AAAA"}
    with pytest.raises(SchemaError) as info:
        parse_scenario({"name": "x", "kind": "unitary_pair", "matrices": [entry, entry]})
    assert str(info.value) == (
        "matrices[0].complex128: expected 16000000000000 bytes of complex128, 21333333333336 base64 characters"
    )


def test_runtime_data_violations_become_schema_errors(tmp_path, capsys):
    # each parses fine, but its kind refuses the data: the library's refusal leaves the run unwrapped
    cases = [
        # [[2]] is not unitary
        ({"kind": "unitary_pair", "matrices": [[[2.0]], [[1.0]]]}, "unitarity defect 3.000e+00 exceeds 1.0e-10"),
        # imaginary part with a negative eigenvalue is not dissipative
        (
            {"kind": "dissipative_pair", "matrices": [[[[0.0, -1.0]]], [[[0.0, 1.0]]]]},
            "imaginary part eigenvalue -1.000e+00 below -1.0e-10",
        ),
    ]
    for payload, message in cases:
        with pytest.raises(ValidationError) as info:
            run_scenario(parse_scenario({"name": "x", **payload}))
        assert not isinstance(info.value, SchemaError) and str(info.value) == message
        # the CLI counts it as the file's schema error
        path = tmp_path / f"{payload['kind']}.json"
        path.write_text(json.dumps({"name": "x", **payload}))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"{path}: schema error: {message}\n")


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
    "truncation_estimate",
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


@pytest.mark.parametrize("dim", [4, 32, 48, 64])
@pytest.mark.parametrize("seed", [1, 2])
def test_every_generated_unitary_determinant_file_passes_its_lu_crosscheck(dim, seed):
    # the benchmark's unitary+determinant files, whose reference lists no such record
    report = run_scenario(parse_scenario(generate_scenario("unitary_pair", seed, dim) | {"determinant": {}}))
    lu = _determinant_records(report)[1]
    assert lu.check_id == "determinant-lu-crosscheck" and lu.tolerance <= 1e-8
    assert lu.passed and lu.residual <= 1e-10


def test_a_unitary_determinant_run_reads_the_step_spectra_and_takes_no_svd(monkeypatch):
    sc = parse_scenario(generate_scenario("unitary_pair", 5, 32) | {"determinant": {}})
    calls = []
    for name in ("eigvals", "svd", "cond"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=solver, _n=name, **k: calls.append(_n) or _f(*a, **k))
    report = run_scenario(sc)
    assert report.all_pass
    # no dense eigvals, and the norm bound from U0's validated defect certifies all eight LU probes
    assert calls == []
    monkeypatch.undo()
    for lam, m in zip(report.tables["sampled"].eigenvalues, sc.matrices):
        assert lam.tobytes() == Unitary(m).spectrum.tobytes()


def test_a_contraction_determinant_run_takes_one_svd_of_t0(monkeypatch):
    sc = parse_scenario(generate_scenario("contraction_pair", 3, 8) | {"determinant": {}})
    of_t0, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        of_t0.append(np.array_equal(a, sc.matrices[0]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_scenario(sc)
    # the step check fails on contraction pairs by design (ROADMAP item 4)
    assert next(r for r in report.records if r.check_id == "determinant-lu-crosscheck").passed
    # validation's full SVD; the LU probes' guard reads the norm it kept
    assert of_t0.count(True) == 1


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


def test_a_validation_error_of_the_determinant_route_is_a_schema_error(monkeypatch, tmp_path, capsys):
    from ssflab import scenario
    from ssflab.errors import ValidationError

    def refuse(*args, **kwargs):
        raise ValidationError("sampling radius must be at least 1 + 1e-8")

    monkeypatch.setattr(scenario, "determinant_ssf", refuse)
    with pytest.raises(ValidationError) as info:
        run_scenario(parse_scenario(hand_unitary_payload(determinant={})))
    assert type(info.value) is ValidationError and str(info.value) == "sampling radius must be at least 1 + 1e-8"
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(hand_unitary_payload(determinant={})))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}: schema error: sampling radius must be at least 1 + 1e-8\n")


@pytest.mark.parametrize("kind", ["dissipative_pair", "schrodinger"])
def test_line_kinds_report_the_tails_only_for_dissipative_pairs(kind):
    report = run_scenario(parse_scenario(generate_scenario(kind, 2, 3)))
    has_tails = {"left_tail", "right_tail"} <= set(report.flags)
    assert has_tails == (kind == "dissipative_pair")
    if has_tails:
        values = report.tables["line_step"].values
        assert (report.flags["left_tail"], report.flags["right_tail"]) == (values[0], values[-1])
