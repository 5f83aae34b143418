"""The report writer against the standard library, and exact CSV round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab.errors import SchemaError
from ssflab.export import dump_json, jsonable, read_ssf_csv, render_ssf_svg, table_array, table_kind, write_ssf_csv
from ssflab.scenario import KINDS, generate_scenario, write_scenario
from ssflab.ssf_circle import SampledSSF, StepSSF
from ssflab.ssf_line import pushforward_line

TWO_PI = 2.0 * np.pi


def stdlib(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# dump_json is json.dumps(sort_keys=True, indent=2, allow_nan=False)

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 1.7976931348623157e308, 0.1, 1 / 3]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
ints = st.integers() | st.integers(2**53 - 2, 2**64) | st.integers(-(2**64), -(2**53))
texts = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "é", "日本", "\U0001f600", '"\\/\b\f\n\r\t', "inf"])
scalars = st.none() | st.booleans() | ints | floats | texts


@st.composite
def row_tables(draw):
    """Equal-width rows as the SSF tables have them, with the "inf" literals."""
    width = draw(st.integers(1, 4))
    cell = floats | ints | st.sampled_from(["inf", "-inf"])
    row = st.lists(cell, min_size=width, max_size=width)
    rows = draw(st.lists(row | row.map(tuple), min_size=1, max_size=12))
    return rows


payloads = st.recursive(
    scalars | row_tables(),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(texts, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payload=payloads)
def test_dump_json_matches_the_stdlib(payload):
    assert dump_json(payload) == stdlib(payload)


# where a non-finite float sits: in a row table, a scalar list, a dict, alone
PLACES = [
    lambda payload, bad: {"a": payload, "b": [[1.0, 2.0], [3.0, bad]]},
    lambda payload, bad: [payload, 1.0, bad, bad],
    lambda payload, bad: (payload, {"x": bad}),
    lambda payload, bad: bad,
]


@settings(max_examples=100, deadline=None)
@given(payload=payloads, bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]), place=st.sampled_from(PLACES))
def test_dump_json_rejects_out_of_range_floats_like_the_stdlib(payload, bad, place):
    wrapped = place(payload, bad)
    with pytest.raises(ValueError) as ours:
        dump_json(wrapped)
    with pytest.raises(ValueError) as theirs:
        stdlib(wrapped)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        [[]],
        [{}],
        {"a": [[], []]},
        {"z": {}, "a": ()},
        {3: "int keys", 1: "are sorted as ints"},
        {2.5: "float keys", 0.5: "too"},
        {True: "bool keys", False: "too"},
        {None: "a none key"},
        {"nested": {3: [1.0], 1: {"b": 2}}},
        [np.float64(0.1), np.float64(-0.0)],
        {"row": [np.float64(1.5), 2.0]},
        [[1.0, 2.0], [3.0]],  # ragged: not a table
        [[1.0, [2.0]], [3.0, [4.0]]],  # rows holding lists
    ],
)
def test_dump_json_edge_payloads(payload):
    assert dump_json(payload) == stdlib(payload)


@pytest.mark.parametrize("payload", [{"a": object()}, [1.0, {1j}], {(1, 2): 3}])
def test_dump_json_unserializable_raises_the_stdlib_error(payload):
    with pytest.raises(TypeError) as ours:
        dump_json(payload)
    with pytest.raises(TypeError) as theirs:
        stdlib(payload)
    assert str(ours.value) == str(theirs.value)


# ---------------------------------------------------------------------------
# scenario files, their matrices in complex128 bytes or in [re, im] floats


def generated_files():
    for kind in KINDS:
        for dim in (1, 2, 64):
            yield generate_scenario(kind, 5, dim)
    yield {**generate_scenario("unitary_pair", 6, 3), "determinant": {}}


@pytest.mark.parametrize("payload", generated_files(), ids=lambda p: p["name"] + "+determinant" * ("determinant" in p))
def test_write_scenario_writes_the_stdlib_bytes(payload, tmp_path):
    write_scenario(payload, tmp_path / "s.json")
    assert (tmp_path / "s.json").read_text() == stdlib(payload)
    assert all(set(m) == {"shape", "complex128"} for m in payload.get("matrices", []))


PAIRS = [[[1.0, 0.0], [0.5, -0.5]], [[0.25, 0.0], [-1.0, 2.0]]]
MATRIX_FALLBACKS = {
    "integer-cells": [[1, 0], [0, 1]],
    "integer-in-a-pair": [[[1, 0.0], [0.5, -0.5]], [[0.25, 0.0], [-1.0, 2.0]]],
    "mixed-scalars-and-pairs": [[0.5, [0.5, -0.5]], [[0.25, 0.0], 2.0]],
    "ragged": [PAIRS[0], [[0.25, 0.0]]],
    "not-square": [PAIRS[0]],
    "pair-of-three": [[[1.0, 0.0, 0.0]]],
    "tuple-rows": [tuple(PAIRS[0]), tuple(PAIRS[1])],
    "float-subclass": [[[np.float64(1.0), 0.0]]],
    "empty": [],
    "a-string": "\0matrix 0",
}


@pytest.mark.parametrize("matrix", MATRIX_FALLBACKS.values(), ids=MATRIX_FALLBACKS.keys())
def test_other_matrices_go_to_the_stdlib(matrix):
    payload = {"name": "x", "matrices": [PAIRS, matrix, PAIRS]}
    assert dump_json(payload) == stdlib(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"matrices": [PAIRS], 3: "a non-string key"},
        {"matrices": [PAIRS, [[[float("nan"), 0.0]]]]},
        {"matrices": [PAIRS], "tolerances": {"t": float("inf")}},
    ],
    ids=["int-key", "nan-cell", "inf-elsewhere"],
)
def test_a_scenario_the_stdlib_rejects_raises_its_error(payload):
    with pytest.raises((TypeError, ValueError)) as theirs:
        stdlib(payload)
    with pytest.raises(theirs.type) as ours:
        dump_json(payload)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "payload",
    [
        {"matrices": [PAIRS, PAIRS], "name": "\0matrix 1"},  # a placeholder text elsewhere
        {"matrices": [PAIRS], "outputs": ["\0matrix 0"]},  # and laid out where one is looked for
        {"matrices": [PAIRS], "nested": {"matrices": [PAIRS]}},
        {"matrices": [PAIRS], "grid": {2.5: "non-string keys", 0.5: "too"}},
        {"matrices": [PAIRS, PAIRS]},
    ],
)
def test_dump_json_scenario_edge_payloads(payload):
    assert dump_json(payload) == stdlib(payload)


# ---------------------------------------------------------------------------
# write_ssf_csv then read_ssf_csv returns the exact floats


@st.composite
def step_ssfs(draw):
    """StepSSF with jumps on a 256-point grid of (0, 2pi] and any finite gauge."""
    slots = draw(st.lists(st.integers(1, 256), min_size=2, max_size=24, unique=True) | st.just([]))
    n = max(len(slots) - 1, 0)
    sizes = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n, max_size=n))
    if slots and sum(sizes) == 0:
        sizes[0] += 1 if sizes[0] != -1 else -1
    sizes += [-sum(sizes)] * bool(slots)
    jumps = tuple((TWO_PI * k / 256, s) for k, s in zip(sorted(slots), sizes))
    gauge = draw(floats.filter(lambda g: abs(g) < 1e300))
    return StepSSF(jumps=jumps, gauge=gauge)


def round_trip(table, tmp_path):
    path = tmp_path / "table.csv"
    write_ssf_csv(table, path)
    rows = table_array(table).tolist()
    header = path.read_text().split("\n", 1)[0]
    per_value = "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows)
    assert path.read_text() == header + "\n" + per_value
    return read_ssf_csv(path)


@settings(max_examples=60, deadline=None)
@given(step=step_ssfs())
def test_step_csv_round_trip_is_exact(step, tmp_path_factory):
    kind, rows = round_trip(step, tmp_path_factory.mktemp("csv"))
    assert kind == "circle_step"
    assert rows == list(map(tuple, table_array(step).tolist()))


@settings(max_examples=60, deadline=None)
@given(step=step_ssfs())
def test_line_csv_round_trip_is_exact(step, tmp_path_factory):
    line = pushforward_line(step)
    kind, rows = round_trip(line, tmp_path_factory.mktemp("csv"))
    assert kind == "line_step"
    assert rows == list(map(tuple, table_array(line).tolist()))
    assert rows[0][0] == -np.inf and rows[-1][1] == np.inf


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(floats, min_size=1, max_size=64),
    radius=st.floats(1.0, 2.0, exclude_min=True),
    winding=st.integers(-3, 3),
)
def test_sampled_csv_round_trip_is_exact(values, radius, winding, tmp_path_factory):
    thetas = np.linspace(0.0, TWO_PI, len(values) + 1)[1:]
    sampled = SampledSSF(radius, thetas, np.array(values), winding)
    kind, rows = round_trip(sampled, tmp_path_factory.mktemp("csv"))
    assert kind == "sampled"
    assert rows == list(zip(thetas.tolist(), values))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generate_scenario("nope", 1, 2), f"kind must be one of {KINDS}"),
        (lambda: jsonable(object()), "cannot serialize object into a report"),
        (lambda: table_kind(object()), "not an SSF table: object"),
        (lambda: render_ssf_svg("histogram", [[0.0, 1.0]]), "unknown table kind 'histogram'"),
        (lambda: render_ssf_svg("sampled", []), "cannot plot an empty table"),
    ],
    ids=["generate-kind", "jsonable", "table-kind", "svg-kind", "svg-empty"],
)
def test_library_refusals_are_schema_errors(call, message):
    with pytest.raises(SchemaError) as info:
        call()
    assert str(info.value) == message
