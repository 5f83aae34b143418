"""The step-table writers format each distinct number once and write the
bytes that the per-cell writers they replaced wrote.

The oracles below are copies of those per-cell writers: the table rows, the
CSV text, the report JSON (the standard library's json.dumps of the rows),
and the SVG renderer.
"""

import json
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
from ssflab.linalg import TWO_PI
from ssflab.scenario import Report
from ssflab.ssf_circle import StepSSF
from ssflab.ssf_line import LineSSF, pushforward_line

_STEP_LINE = (
    '<line class="step" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
    'stroke="#1f6feb" stroke-width="2"%s/>'
)
_DROP_LINE = (
    '<line class="drop" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
    'stroke="#8b949e" stroke-dasharray="3,3"/>'
)
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
    """render_ssf_svg as it formatted every coordinate of every line."""
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
            pad = max(1.0, 0.3 * (hi - lo))
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
        xy = np.column_stack((px(cells[:, 0]), py(ys)))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>'
        )
    else:
        a, b = cells[:, 0], cells[:, 1]
        y = py(ys).tolist()
        a_px = np.where(np.isfinite(a), px(np.maximum(a, xlo)), _ML).tolist()
        b_px = np.where(np.isfinite(b), px(np.minimum(b, xhi)), _W - _MR).tolist()
        dash = np.where(np.isfinite(a) & np.isfinite(b), "", ' stroke-dasharray="6,3"').tolist()
        drop_x = px(a[1:]).tolist()
        lines = [""] * (2 * len(y) - 1)
        lines[::2] = [_STEP_LINE % r for r in zip(a_px, y, b_px, y, dash)]
        lines[1::2] = [_DROP_LINE % r for r in zip(drop_x, y, drop_x, y[1:])]
        parts += lines
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
def circle_tables(draw, lowest=5e-324):
    """Jumps anywhere in [lowest, 2pi], at 2pi or not; levels repeat because the sizes are small."""
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


@st.composite
def line_tables(draw):
    """Finite breakpoints, a few levels repeated along the line, equal tails unless mass sits at infinity."""
    breakpoints = sorted(set(draw(st.lists(numbers, max_size=12))))
    levels = draw(st.lists(numbers, min_size=1, max_size=4))
    values = [draw(st.sampled_from(levels)) for _ in range(len(breakpoints) + 1)]
    mass = draw(st.integers(-2, 2))
    if mass == 0:
        values[-1] = values[0]
    return LineSSF(np.array(breakpoints), np.array(values), StepSSF(jumps=(), gauge=0.0), mass)


# breakpoints -cot(theta / 2) stay finite for theta >= 1e-9
tables = circle_tables() | circle_tables(1e-9).map(pushforward_line) | line_tables()


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
    assert (tmp_path / "t.svg").read_text() == render_per_cell(kind, rows_per_cell(table), name="t")
    # the plot command renders the rows it reads back from the CSV
    assert render_ssf_svg(*read_ssf_csv(csv)) == render_per_cell(*read_ssf_csv(csv))


# one breakpoint past 2**53 is wider than the plot's 1.0 padding, so both
# renderers divide 0 by 0 and write the same "nan" coordinates
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dedup_from", [0, export._FORMAT_ONCE_MIN], ids=["every-table-deduplicated", "short-tables-direct"])
@settings(max_examples=150, deadline=None)
@given(table=tables)
def test_step_writers_write_the_per_cell_bytes(dedup_from, table, tmp_path_factory):
    with patch.object(export, "_FORMAT_ONCE_MIN", dedup_from):
        assert_writers_match(table, tmp_path_factory.mktemp("writers"))


NO_SOURCE = StepSSF(jumps=(), gauge=0.0)


@pytest.mark.parametrize(
    "table",
    [
        StepSSF(jumps=(), gauge=0.0),  # one row
        StepSSF(jumps=(), gauge=-5e-324),
        StepSSF(jumps=((1.0, 1), (TWO_PI, -1)), gauge=1e16),  # a jump at 2pi
        StepSSF(jumps=((1e-05, 1), (3.0, -1)), gauge=-1e-05),  # none at 2pi
        pushforward_line(StepSSF(jumps=(), gauge=2.5)),  # one row from -inf to inf
        pushforward_line(StepSSF(jumps=((1.0, 1), (TWO_PI, -1)), gauge=0.1)),  # mass at infinity
        LineSSF(np.array([-5e-324, 0.0, 5e-324]), np.array([-0.0, 0.0, -0.0, -0.0]), NO_SOURCE),
        LineSSF(np.array([-1e16, 1e-4]), np.array([9999999999999998.0, 1e16, 1e16]), NO_SOURCE, 1),
    ],
    ids=["flat-circle", "subnormal-gauge", "jump-at-2pi", "no-jump-at-2pi", "flat-line", "mass-at-infinity",
         "signed-zeros", "repr-switch"],
)
@pytest.mark.parametrize("dedup_from", [0, export._FORMAT_ONCE_MIN], ids=["deduplicated", "direct"])
def test_step_writers_on_edge_tables(table, dedup_from, tmp_path):
    with patch.object(export, "_FORMAT_ONCE_MIN", dedup_from):
        assert_writers_match(table, tmp_path)


def test_long_tables_take_the_deduplicating_path_and_write_the_per_cell_bytes(tmp_path):
    thetas = TWO_PI * np.arange(1, 151) / 151
    table = StepSSF(jumps=tuple(zip(thetas, [1, -1] * 75)), gauge=-0.0)
    assert 2 * len(thetas) > export._FORMAT_ONCE_MIN
    assert_writers_match(table, tmp_path)
    assert_writers_match(pushforward_line(table), tmp_path)


@pytest.mark.parametrize("gauge", [float("nan"), float("inf")])
def test_a_non_finite_circle_level_raises_the_stdlib_error(gauge, tmp_path):
    # a level is gauge plus an integer, and "gauge" sorts before "rows"
    table = StepSSF(jumps=((1.0, 1), (2.0, -1)), gauge=gauge)
    report = Report("t", "unitary_pair", (), {}, {"circle_step": table}, {})
    with pytest.raises(ValueError) as ours:
        write_report_json(report, tmp_path / "t.report.json", "2000-01-01T00:00:00+00:00")
    with pytest.raises(ValueError) as theirs:
        json.dumps(report_to_dict(report, "2000-01-01T00:00:00+00:00"), sort_keys=True, indent=2, allow_nan=False)
    assert str(ours.value) == str(theirs.value)
