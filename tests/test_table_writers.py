"""The step-table writers format each distinct number once and write the
bytes that the per-cell writers they replaced wrote.

The oracles below are copies of those per-cell writers: the table rows, the
CSV text and the report JSON (the standard library's json.dumps of the rows).
The SVG oracle formats every point of the plot's one polyline on its own: a
sample, or a step row's start and end at its value.
"""

import json
import math
from contextlib import nullcontext
from html import escape
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab import export
from ssflab.export import (
    _H,
    _MB,
    _ML,
    _MR,
    _MT,
    _W,
    _span,
    plot_ssf,
    read_ssf_csv,
    render_ssf_svg,
    report_to_dict,
    table_kind,
    write_report_json,
    write_ssf_csv,
)
from ssflab.errors import ValidationError
from ssflab.linalg import TWO_PI
from ssflab.scenario import KINDS, CheckRecord, Report, generate_scenario, parse_scenario, run_scenario
from ssflab.ssf_circle import SampledSSF, StepSSF
from ssflab.ssf_line import pushforward_line

HEADERS = {"circle_step": "theta_start,theta_end,value", "line_step": "t_start,t_end,value"}


def rows_per_cell(table) -> np.ndarray:
    if isinstance(table, StepSSF):
        bounds = np.concatenate(([0.0], table.thetas))
        if bounds[-1] < TWO_PI:
            bounds = np.append(bounds, TWO_PI)
        return np.column_stack((bounds[:-1], bounds[1:], table.value(bounds[:-1])))
    bounds = np.concatenate(([-np.inf], table.breakpoints, [np.inf]))
    return np.column_stack((bounds[:-1], bounds[1:], table.values))


def csv_per_cell(table) -> str:
    rows = rows_per_cell(table)
    return HEADERS[table_kind(table)] + "\n" + ("%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())


def json_rows_per_cell(table) -> list:
    cells = rows_per_cell(table)
    rows = cells.tolist()
    for i, j in zip(*np.nonzero(np.isinf(cells))):
        rows[i][j] = "inf" if cells[i, j] > 0 else "-inf"
    return rows


def render_per_cell(kind: str, rows, name: str = "ssf") -> str:
    """render_ssf_svg with every point of its polyline formatted on its own."""
    cells = np.asarray(rows, dtype=float)

    if kind == "sampled":
        ys = cells[:, 1]
        xlo, xhi = 0.0, TWO_PI
    else:
        ends = cells[:, :2]
        finite = ends[np.isfinite(ends)]
        ys = cells[:, 2]
        if kind == "circle_step":
            xlo, xhi = 0.0, TWO_PI
        elif finite.size:
            lo, hi = float(finite.min()), float(finite.max())
            pad = max(1.0, 0.3 * (hi - lo), float(np.spacing(max(abs(lo), abs(hi)))))
            xlo, xhi = lo - pad, hi + pad
        else:
            xlo, xhi = -5.0, 5.0
    ylo, yhi = _span(float(ys.min()), float(ys.max()))

    def px(x: float) -> float:
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="13" '
        f'fill="#24292f">{escape(name)}</text>',
    ]
    frame = (
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#d0d7de"/>'
    )
    parts.append(frame)
    for tx in np.linspace(xlo, xhi, 5):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{_H - _MB}" x2="{px(tx):.2f}" '
            f'y2="{_H - _MB + 4}" stroke="#24292f"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10" fill="#57606a">{tx:.3g}</text>'
        )
    for ty in np.linspace(ylo, yhi, 5):
        parts.append(
            f'<line x1="{_ML - 4}" y1="{py(ty):.2f}" x2="{_ML}" y2="{py(ty):.2f}" '
            f'stroke="#24292f"/>'
        )
        parts.append(
            f'<text x="{_ML - 7}" y="{py(ty) + 3:.2f}" text-anchor="end" '
            f'font-size="10" fill="#57606a">{ty:.3g}</text>'
        )
    if ylo < 0.0 < yhi:
        parts.append(
            f'<line x1="{_ML}" y1="{py(0.0):.2f}" x2="{_W - _MR}" y2="{py(0.0):.2f}" '
            f'stroke="#d0d7de" stroke-dasharray="2,3"/>'
        )

    if kind == "sampled":
        points = [f"{px(x):.2f},{py(y):.2f}" for x, y in cells.tolist()]
    else:
        # the staircase; an unbounded end runs to the frame
        points = []
        for a, b, y in cells.tolist():
            points += [f"{px(max(a, xlo)):.2f},{py(y):.2f}", f"{px(min(b, xhi)):.2f},{py(y):.2f}"]
    parts.append(f'<polyline points="{" ".join(points)}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>')
    if kind == "line_step":
        left, right = float(ys[0]), float(ys[-1])
        parts.append(
            f'<text x="{_ML + 5}" y="{py(left) - 6:.2f}" font-size="11" '
            f'fill="#24292f">xi(-inf) = {left:.4g}</text>'
        )
        parts.append(
            f'<text x="{_W - _MR - 5}" y="{py(right) - 6:.2f}" text-anchor="end" '
            f'font-size="11" fill="#24292f">xi(+inf) = {right:.4g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# tables

# repr switches to exponent form at 1e16 and below 1e-4
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-05, 9.999999999999999e-06]
EDGES += [1e-4, -1e16, -1e-05, 0.1, 1 / 3, 2.5]
numbers = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from(EDGES)


@st.composite
def circle_tables(draw, lowest=5e-324, positions=None):
    """Jumps anywhere in [lowest, 2pi] or at `positions`, at 2pi or not; levels repeat because the sizes are small."""
    if positions is None:
        positions = st.floats(lowest, TWO_PI) | st.sampled_from([lowest, 1e-05, 1e-4, 1.0, TWO_PI])
    thetas = sorted(set(draw(st.lists(positions, max_size=12))))
    if draw(st.booleans()) and thetas and thetas[-1] < TWO_PI:
        thetas.append(TWO_PI)
    if len(thetas) < 2:
        thetas = []
    sizes = draw(st.lists(st.integers(-2, 2).filter(bool), min_size=len(thetas), max_size=len(thetas)))
    if thetas and sum(sizes[:-1]) == 0:
        sizes[0] += 1 if sizes[0] != -1 else -1
    sizes[-1:] = [-sum(sizes[:-1])] * bool(thetas)
    return StepSSF(jumps=tuple(zip(thetas, sizes)), gauge=draw(numbers))


def angle_of(t: float) -> float:
    """The angle in (0, 2pi] whose breakpoint -cot(theta / 2) is t, up to rounding."""
    return 2.0 * math.atan2(1.0, -t)


@st.composite
def line_tables(draw):
    """A circle table pushed to the line, its breakpoints near numbers from -1e300 to 1e300.

    The angles are 2e-300 or more, so every breakpoint is finite.
    """
    return pushforward_line(draw(circle_tables(positions=numbers.map(angle_of))))


# breakpoints -cot(theta / 2) stay finite for theta >= 1e-9
tables = circle_tables() | circle_tables(1e-9).map(pushforward_line) | line_tables()


def polyline_points(svg: str) -> list[str]:
    return svg.split('<polyline points="')[1].split('"')[0].split(" ")


def assert_writers_match(table, tmp_path):
    kind = table_kind(table)
    csv = tmp_path / "t.csv"
    write_ssf_csv(table, csv)
    assert csv.read_text() == csv_per_cell(table)

    report = Report("t", "unitary_pair", (), {}, {kind: table}, {})
    payload = report_to_dict(report, "2000-01-01T00:00:00+00:00")
    assert payload["tables"][kind]["rows"] == json_rows_per_cell(table)
    write_report_json(report, tmp_path / "t.report.json", "2000-01-01T00:00:00+00:00")
    assert (tmp_path / "t.report.json").read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    plot_ssf(table, tmp_path / "t.svg", name="t")
    svg = (tmp_path / "t.svg").read_text()
    assert svg == render_per_cell(kind, rows_per_cell(table), name="t")
    # the ticks and the zero line are the only <line> elements
    assert svg.count("<polyline") == 1 and svg.count("<line") == 10 + ('stroke-dasharray="2,3"' in svg)
    assert len(polyline_points(svg)) == 2 * len(rows_per_cell(table))
    # the plot command renders the rows it reads back from the CSV
    assert render_ssf_svg(*read_ssf_csv(csv)) == render_per_cell(*read_ssf_csv(csv))


def level_texts(deduplicated: bool):
    """The writers as they run, or with every row's level formatted on its own (the sort kept, the dedupe
    dropped): both must write the per-cell bytes, so the dedupe's row-to-text mapping changes no byte."""
    return nullcontext() if deduplicated else patch.object(export, "_distinct", np.sort)


# "direct": every row's level formatted on its own, as the per-cell writers formatted it
@pytest.mark.parametrize("deduplicated", [True, False], ids=["every-table-deduplicated", "short-tables-direct"])
@settings(max_examples=150, deadline=None)
@given(table=tables)
def test_step_writers_write_the_per_cell_bytes(deduplicated, table, tmp_path_factory):
    with level_texts(deduplicated):
        assert_writers_match(table, tmp_path_factory.mktemp("writers"))


@pytest.mark.parametrize(
    "table",
    [
        StepSSF(jumps=(), gauge=0.0),  # one row
        StepSSF(jumps=(), gauge=-5e-324),
        StepSSF(jumps=((1.0, 1), (TWO_PI, -1)), gauge=1e16),  # a jump at 2pi
        StepSSF(jumps=((1e-05, 1), (3.0, -1)), gauge=-1e-05),  # none at 2pi
        pushforward_line(StepSSF(jumps=(), gauge=2.5)),  # one row from -inf to inf
        pushforward_line(StepSSF(jumps=((1.0, 1), (TWO_PI, -1)), gauge=0.1)),  # mass at infinity
        # breakpoints -1e16 and just above 1e-4, values 9999999999999998.0, 1e16 and 1e16
        pushforward_line(
            StepSSF(jumps=((angle_of(-1e16), 2), (angle_of(1.001e-4), -1), (TWO_PI, -1)), gauge=9999999999999998.0)
        ),
    ],
    ids=["flat-circle", "subnormal-gauge", "jump-at-2pi", "no-jump-at-2pi", "flat-line", "mass-at-infinity",
         "repr-switch"],
)
@pytest.mark.parametrize("deduplicated", [True, False], ids=["deduplicated", "direct"])
def test_step_writers_on_edge_tables(table, deduplicated, tmp_path):
    with level_texts(deduplicated):
        assert_writers_match(table, tmp_path)


def test_long_tables_take_the_deduplicating_path_and_write_the_per_cell_bytes(tmp_path):
    thetas = TWO_PI * np.arange(1, 151) / 151
    table = StepSSF(jumps=tuple(zip(thetas, [1, -1] * 75)), gauge=-0.0)
    assert_writers_match(table, tmp_path)
    assert_writers_match(pushforward_line(table), tmp_path)


def _unchecked_step(jumps, gauge) -> StepSSF:
    """A StepSSF with a gauge its constructor refuses, built past the check to reach the writers' non-finite path."""
    with pytest.raises(ValidationError, match="gauge must be finite"):
        StepSSF(jumps, gauge)
    table = object.__new__(StepSSF)
    object.__setattr__(table, "jumps", jumps)
    object.__setattr__(table, "gauge", gauge)
    return table


def _unchecked_sampled(radius, thetas, values) -> SampledSSF:
    """A SampledSSF with a radius its constructor refuses, built past the check as _unchecked_step is."""
    with pytest.raises(ValidationError, match="sampling radius must be finite"):
        SampledSSF(radius, thetas, values, 0)
    table = SampledSSF(2.0, thetas, values, 0)
    object.__setattr__(table, "radius", radius)
    return table


@pytest.mark.parametrize("gauge", [float("nan"), float("inf")])
def test_a_non_finite_circle_level_raises_the_stdlib_error(gauge, tmp_path):
    # a level is gauge plus an integer, and "gauge" sorts before "rows"
    table = _unchecked_step(((1.0, 1), (2.0, -1)), gauge)
    report = Report("t", "unitary_pair", (), {}, {"circle_step": table}, {})
    with pytest.raises(ValueError) as ours:
        write_report_json(report, tmp_path / "t.report.json", "2000-01-01T00:00:00+00:00")
    with pytest.raises(ValueError) as theirs:
        json.dumps(report_to_dict(report, "2000-01-01T00:00:00+00:00"), sort_keys=True, indent=2, allow_nan=False)
    assert str(ours.value) == str(theirs.value)


STAMP = "2000-01-01T00:00:00+00:00"


def stdlib_report(report) -> str:
    return json.dumps(report_to_dict(report, STAMP), sort_keys=True, indent=2, allow_nan=False) + "\n"


def written(report, tmp_path) -> str:
    write_report_json(report, tmp_path / "t.report.json", STAMP)
    return (tmp_path / "t.report.json").read_text()


@settings(max_examples=60, deadline=None)
@given(values=st.lists(numbers, min_size=1, max_size=40), radius=st.floats(1.0, 2.0, exclude_min=True))
def test_a_sampled_table_is_written_as_the_stdlib_writes_it(values, radius, tmp_path_factory):
    circle = StepSSF(jumps=((1.0, 1), (TWO_PI, -1)), gauge=0.5)
    tmp_path = tmp_path_factory.mktemp("sampled")
    # the first table lays its grid out, the second reuses that layout, and the
    # third, on a grid of the same length with one theta moved, must not
    for thetas, ys in sampled_grids(values):
        tables = {"circle_step": circle, "sampled": SampledSSF(radius, thetas, ys, 1)}
        report = Report("t", "unitary_pair", (), {"grid": len(values)}, tables, {})
        assert written(report, tmp_path) == stdlib_report(report)


def sampled_grids(values):
    """(thetas, values) on a grid, again on that grid with other values, and on that grid with one theta moved."""
    thetas, ys = np.linspace(0.0, TWO_PI, len(values) + 1)[1:], np.array(values)
    moved = thetas.copy()
    moved[len(moved) // 2] = np.nextafter(moved[len(moved) // 2], np.inf)
    return (thetas, ys), (thetas, ys[::-1].copy()), (moved, ys)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(numbers, min_size=1, max_size=40))
def test_a_sampled_csv_is_written_as_the_stdlib_writes_it(values, tmp_path_factory):
    csv = tmp_path_factory.mktemp("sampled") / "t.csv"
    for thetas, ys in sampled_grids(values):
        write_ssf_csv(SampledSSF(1.5, thetas, ys, 0), csv)
        rows = np.column_stack((thetas, ys))
        assert csv.read_text() == "theta,xi\n" + ("%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_a_sampled_plot_is_one_polyline_point_per_sample(values):
    thetas = np.linspace(0.0, TWO_PI, len(values) + 1)[1:]
    rows = np.column_stack((thetas, values))
    svg = render_ssf_svg("sampled", rows, name="t")
    assert svg == render_per_cell("sampled", rows, name="t")
    assert svg.count("<polyline") == 1 and len(polyline_points(svg)) == len(values)


def test_a_placeholder_text_in_the_flags_is_left_alone(tmp_path):
    table = StepSSF(jumps=((1.0, 1), (TWO_PI, -1)), gauge=0.5)
    # a flag laid out like a table's rows: only the placeholder past "tables" is filled
    report = Report("t", "unitary_pair", (), {"x": {"rows": "\0rows 0"}}, {"circle_step": table}, {})
    assert written(report, tmp_path) == stdlib_report(report)


def test_the_first_error_the_stdlib_meets_is_raised(tmp_path):
    # "circle_step" sorts before "sampled": the NaN gauge is met before the inf radius
    thetas = TWO_PI * np.arange(1, 9) / 8
    tables = {
        "circle_step": _unchecked_step(((1.0, 1), (TWO_PI, -1)), float("nan")),
        "sampled": _unchecked_sampled(float("inf"), thetas, np.cos(thetas)),
    }
    report = Report("t", "unitary_pair", (), {}, tables, {})
    with pytest.raises(ValueError) as ours:
        written(report, tmp_path)
    with pytest.raises(ValueError) as theirs:
        stdlib_report(report)
    assert str(ours.value) == str(theirs.value) == "Out of range float values are not JSON compliant: nan"


def test_a_non_finite_number_in_the_records_or_flags_is_written_as_its_name(tmp_path):
    nan, inf = float("nan"), float("inf")
    records = (
        CheckRecord("a", "hardy-gauge", complex(nan, 1.0), complex(inf, -inf), nan, 1e-10),
        CheckRecord("b", "hardy-gauge", 1.5, np.float64(-inf), inf, 1e-10),
    )
    flags = {"outer": {"inner": [np.float64(nan), 2.5, complex(1.0, -inf)]}, "half_l1_target": inf}
    doc = json.loads(written(Report("t", "kernel_trace", records, flags, {}, {}), tmp_path))
    assert [(r["lhs"], r["rhs"], r["residual"]) for r in doc["records"]] == [
        (["nan", 1.0], ["inf", "-inf"], "nan"),
        ([1.5, 0.0], ["-inf", 0.0], "inf"),
    ]
    assert doc["flags"] == {"outer": {"inner": ["nan", 2.5, [1.0, "-inf"]]}, "half_l1_target": "inf"}


def test_the_report_writer_builds_no_per_cell_rows(tmp_path):
    thetas = TWO_PI * np.arange(1, 9) / 8
    tables = {
        "circle_step": StepSSF(jumps=((1.0, 1), (TWO_PI, -1)), gauge=0.5),
        "line_step": pushforward_line(StepSSF(jumps=((1.0, 1), (2.0, -1)), gauge=0.5)),
        "sampled": SampledSSF(1.5, thetas, np.cos(thetas), 0),
    }
    report = Report("t", "unitary_pair", (), {}, tables, {})
    expected = stdlib_report(report)
    with patch.object(export, "table_to_dict", side_effect=AssertionError("table_to_dict called")):
        assert written(report, tmp_path) == expected


def flag_keys(value) -> set:
    """Every key of a nested flag dict, and "complex" where a complex number sits."""
    if isinstance(value, dict):
        return set(value).union(*map(flag_keys, value.values()))
    if isinstance(value, (list, tuple)):
        return set().union(*map(flag_keys, value))
    return {"complex"} if isinstance(value, (complex, np.complexfloating)) else set()


REAL_FILES = [generate_scenario(kind, 1, dim) for kind in KINDS for dim in (1, 2, 3, 4)]
REAL_FILES += [generate_scenario(kind, 1, dim) | {"determinant": {}} for kind in ("unitary_pair", "contraction_pair")
               for dim in (1, 2, 3, 4)]


@pytest.fixture(scope="module")
def real_reports():
    return [run_scenario(parse_scenario(payload)) for payload in REAL_FILES]


def test_real_reports_carry_nested_and_complex_flags(real_reports):
    keys = set().union(*(flag_keys(r.flags) for r in real_reports))
    assert {"condition_report", "monotone", "truncation_estimate", "windowed", "complex"} <= keys
    assert {table_kind(t) for r in real_reports for t in r.tables.values()} == {"circle_step", "line_step", "sampled"}


def test_real_reports_are_written_as_the_stdlib_writes_them(real_reports, tmp_path):
    for report in real_reports:
        assert written(report, tmp_path) == stdlib_report(report), report.scenario
