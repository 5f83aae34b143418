"""A standing fuzzer of `ssf-lab run`: one mutated generated file before a good one.

Each case takes a generated file of some kind at dim 1-3, its matrices in
complex128 bytes as generated or in their decimal twin, and makes one
mutation: a leaf replaced by an edge value, a key deleted, a value given
another JSON type, an entry of a byte matrix given an edge value, or one
byte of the file's text flipped, deleted or inserted. Whatever the mutation, the batch must not raise, the good file is
written, every written report is JSON, each file that ran prints one PASS
or FAIL line, and a report that passes holds no "nan", "inf" or "-inf"
but a line table's two infinite ends.
"""

import base64
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from io import StringIO
from operator import getitem
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssflab.cli import main
from ssflab.scenario import KINDS, generate_scenario, parse_scenario

# no integer above 3: a mutation never grows a size, because no cost guard
# refuses a file that cannot finish
LEAVES = [1e308, -1e308, 1.7e308, 5e-324, -0.0, 0, -1, "x", [], {}, True, None]
# without these keys a grid falls back to its kind's default of 64 or 1,024
# nodes, larger than any generated grid
KEPT_KEYS = {"grid", "nodes"}
# the values an entry of a byte matrix may take, NaN and infinities included
CELLS = [1e308, -1e308, 1.7e308, 5e-324, -0.0, 0.0, -1.0, math.nan, math.inf, -math.inf]


def _swapped(value):
    """The value as another JSON type holding the same content."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    return list(value.values())


def _paths(value, path=()):
    """The path to every value below the top level, containers included.

    Of each decimal matrix only the first cell's values are kept: every cell
    takes a mutation the same way, and the cells would outnumber all other
    keys. A byte matrix's shape and text are all kept.
    """
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        here = (*path, key)
        if here[0] != "matrices" or here[2:4] in ((), (0,), (0, 0)) or isinstance(here[2], str):
            yield here
            yield from _paths(child, here)


def _generated(kind, seed, dim, decimal):
    """The generated file of (kind, seed, dim), or its decimal twin: the same numbers as nested [re, im] floats."""
    payload = generate_scenario(kind, seed, dim)
    if decimal and "matrices" in payload:
        matrices = parse_scenario(payload).matrices
        payload["matrices"] = [np.stack((m.real, m.imag), -1).tolist() for m in matrices]
    return payload


def _with_cell(entry, part, value):
    """A byte matrix whose first entry has value as its real (part 0) or imaginary (part 1) part."""
    floats = np.frombuffer(base64.b64decode(entry["complex128"]), "<f8").copy()
    floats[part] = value
    return entry | {"complex128": base64.b64encode(floats.tobytes()).decode("ascii")}


def _case(kind, seed, dim, how, path, leaf=None, decimal=False):
    """The generated file of (kind, seed, dim), or its decimal twin, with one mutation at path.

    A "cell" mutation takes leaf as (part, value) for the byte matrix at path.
    """
    payload = _generated(kind, seed, dim, decimal)
    *head, last = path
    parent = reduce(getitem, head, payload)
    if how == "delete":
        del parent[last]
    elif how == "swap":
        parent[last] = _swapped(parent[last])
    elif how == "cell":
        parent[last] = _with_cell(parent[last], *leaf)
    else:
        parent[last] = leaf
    return payload


@st.composite
def cases(draw):
    kind, seed, dim = draw(st.sampled_from(KINDS)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    decimal = draw(st.booleans())
    payload = _generated(kind, seed, dim, decimal)
    cells = "matrices" in payload and not decimal
    how = draw(st.sampled_from(["leaf", "delete", "swap"] + ["cell"] * cells))
    if how == "cell":
        path = ("matrices", draw(st.integers(0, 1)))
        return _case(kind, seed, dim, how, path, (draw(st.integers(0, 1)), draw(st.sampled_from(CELLS))))
    paths = list(_paths(payload))
    if how == "leaf":
        paths = [p for p in paths if not isinstance(reduce(getitem, p, payload), (dict, list))]
    elif how == "delete":
        paths = [p for p in paths if isinstance(p[-1], str) and p[-1] not in KEPT_KEYS]
    path = draw(st.sampled_from(paths))
    leaf = draw(st.sampled_from(LEAVES)) if how == "leaf" else None
    return _case(kind, seed, dim, how, path, leaf, decimal)


# the keys that size a run's buffers; no cost guard refuses a file that sets
# one too large, so no byte mutation may grow one
SIZE_KEYS = [("matrices", "dim"), ("grid", "nodes"), ("dilation_order",), ("quadrature_nodes",), ("determinant", "grid")]
# most bytes of a file are digits and JSON punctuation
BYTES = st.sampled_from(b'0123456789-+.eE",:[]{} ') | st.integers(0, 255)


def _size(doc, path):
    try:
        return reduce(getitem, path, doc)
    except (KeyError, IndexError, TypeError):
        return None


def _grows(payload, text: bytes) -> bool:
    """Whether text parses as JSON and sets a size key above, or drops one of, the generated file's."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    for path in SIZE_KEYS:
        before, after = _size(payload, path), _size(doc, path)
        if after is None:
            if before is not None:
                return True
        elif isinstance(after, (int, float)) and not isinstance(after, bool) and (before is None or after > before):
            return True
    return False


@st.composite
def byte_cases(draw):
    kind, seed, dim = draw(st.sampled_from(KINDS)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    payload = _generated(kind, seed, dim, draw(st.booleans()))
    text = json.dumps(payload).encode()
    i, how, byte = draw(st.integers(0, len(text) - 1)), draw(st.sampled_from(["flip", "delete", "insert"])), draw(BYTES)
    if how == "flip":
        assume(byte != text[i])
    mutant = text[:i] + (b"" if how == "delete" else bytes([byte])) + text[i + (how != "insert") :]
    assume(not _grows(payload, mutant))
    return mutant


GOOD = generate_scenario("unitary_pair", 1, 2) | {"name": "good"}


def _non_finite_strings(doc) -> list:
    """The strings "nan", "inf" and "-inf" in a report, but a line table's first start and last end."""
    for table in doc["tables"].values():
        if table["type"] == "line_step":
            table["rows"][0][0] = table["rows"][-1][1] = None
    stack, found = [doc], []
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack += value.values()
        elif isinstance(value, list):
            stack += value
        elif value in ("nan", "inf", "-inf"):
            found.append(value)
    return found


@settings(max_examples=400, derandomize=True, deadline=None)
@given(payload=cases())
# a kernel_trace rhs and flag overflow to inf
@example(payload=_case("kernel_trace", 1, 2, "leaf", ("potential", "amplitude"), 1e308))
# a dim-1 dissipative pair's condition-report flag overflows to NaN, in either matrix form
@example(payload=_case("dissipative_pair", 1, 1, "leaf", ("matrices", 0, 0, 0, 0), 1e308, decimal=True))
@example(payload=_case("dissipative_pair", 1, 1, "cell", ("matrices", 0), (0, 1e308)))
def test_one_mutated_file_never_takes_the_batch_down(payload):
    run_bad_then_good(json.dumps(payload).encode())


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=byte_cases())
def test_one_byte_mutated_file_never_takes_the_batch_down(text):
    run_bad_then_good(text)


def run_bad_then_good(bad: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = [tmp / "bad.json", tmp / "good.json"]
        files[0].write_bytes(bad)
        files[1].write_text(json.dumps(GOOD))
        out, stdout, stderr = tmp / "out", StringIO(), StringIO()
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("ignore")
            rc = main(["run", *map(str, files), "--out-dir", str(out)])
        assert rc in (0, 1, 2)
        ran = [f for f in files if f"{f}: " not in stderr.getvalue()]
        assert files[1] in ran
        assert len(re.findall(r"^\S.*: (PASS|FAIL) \(", stdout.getvalue(), re.M)) == len(ran)
        for name in ("good.report.json", "good.ssf.csv", "good.svg"):
            assert (out / name).exists()
        for report in out.glob("*.report.json"):
            with open(report) as fh:
                doc = json.load(fh)
            if doc["all_pass"]:
                assert _non_finite_strings(doc) == []
