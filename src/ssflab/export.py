"""Serialization: SSF tables to CSV, reports to JSON, SSF plots to SVG.

CSV uses comma separators, '.' decimal points, 17 significant digits, and
the literals inf / -inf for unbounded line segments. Complex values in JSON
are [re, im] pairs. SVG is emitted directly, every graph one polyline, so
plots need no external renderer.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import lru_cache
from html import escape
from itertools import chain

import numpy as np

from .errors import IoError, SchemaError
from .linalg import TWO_PI
from .ssf_circle import SampledSSF, StepSSF
from .ssf_line import LineSSF

# a cell's format: 17 significant digits in a CSV, and in a report the repr
# that json.dumps writes for a float
_CELL = {"csv": "%.17g", "json": "%r"}
_INDENT = "  "


def _number(x):
    """A float as a report holds it: itself when finite, else the string "nan", "inf" or "-inf"."""
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def complex_pair(z) -> list:
    z = complex(z)
    return [_number(z.real), _number(z.imag)]


def jsonable(value):
    """Recursively convert report payloads to JSON-safe structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return _number(value)
    if isinstance(value, (complex, np.complexfloating)):
        return complex_pair(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    raise SchemaError(f"cannot serialize {type(value).__name__} into a report")


# ---------------------------------------------------------------------------
# SSF tables as rows


_HEADERS = {
    "circle_step": "theta_start,theta_end,value",
    "line_step": "t_start,t_end,value",
    "sampled": "theta,xi",
}


def table_kind(table) -> str:
    if isinstance(table, StepSSF):
        return "circle_step"
    if isinstance(table, LineSSF):
        return "line_step"
    if isinstance(table, SampledSSF):
        return "sampled"
    raise SchemaError(f"not an SSF table: {type(table).__name__}")


def _step_columns(table) -> tuple[np.ndarray, np.ndarray]:
    """A step table's segment bounds and values: row i is (bounds[i], bounds[i + 1], values[i])."""
    if isinstance(table, StepSSF):
        bounds = np.concatenate(([0.0], table.thetas))
        if bounds[-1] < TWO_PI:
            bounds = np.append(bounds, TWO_PI)
        return bounds, table.value(bounds[:-1])
    return np.concatenate(([-np.inf], table.breakpoints, [np.inf])), table.values


def table_array(table) -> np.ndarray:
    """One float row per segment or sample; circle segments cover (0, 2pi], a line table's outer endpoints are +-inf."""
    if table_kind(table) == "sampled":
        return np.column_stack((table.thetas, table.values)).astype(float, copy=False)
    bounds, values = _step_columns(table)
    return np.column_stack((bounds[:-1], bounds[1:], values))


def write_text(path, text: str) -> None:
    """Write text as ASCII; a character outside it (a plot title may hold any) becomes an XML character reference."""
    try:
        with open(path, "w", encoding="ascii", errors="xmlcharrefreplace") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _layout(cells: list[str], rows: int, layout: str) -> str:
    """The % template of a table body of `rows` rows with these cell formats: CSV lines (layout "csv"),
    or a report's "rows" as json.dumps(indent=2) lays them out at a table's depth (layout "json")."""
    if layout == "csv":
        return (",".join(cells) + "\n") * rows
    cell, row = "\n" + _INDENT * 5, "\n" + _INDENT * 4
    one = "[" + cell + ("," + cell).join(cells) + row + "]"
    return "[" + row + ("," + row).join([one] * rows) + "\n" + _INDENT * 3 + "]"


def _texts(x: np.ndarray, fmt: str) -> list[str]:
    """fmt % v for each v in x, in one % format."""
    return ((fmt + "\n") * len(x) % tuple(x.tolist())).split("\n")[:-1]


# The files of a batch often share a determinant grid, so a grid's sampled
# text is laid out once and each later table on it only formats its values.
# At the 65,536-point grid limit a template holds about 4.2 MB of text (report)
# or 1.6 MB (CSV), and its key 0.5 MB, so four entries stay under 20 MB.
@lru_cache(maxsize=4)
def _sampled_template(theta_bits: bytes, layout: str) -> str:
    """The _table_text template of a sampled table on the grid with these exact theta bits: the thetas
    written in, one slot per value."""
    thetas = tuple(np.frombuffer(theta_bits).tolist())
    # one % format writes each theta and turns each value's %% slot into a plain one
    return _layout([_CELL[layout], "%" + _CELL[layout]], len(thetas), layout) % thetas


def _distinct(bits: np.ndarray) -> np.ndarray:
    """The distinct values of bits, sorted; by hand, as np.unique imports numpy.ma on its first call (about 10 ms)."""
    bits = np.sort(bits)
    return bits[np.append(True, bits[1:] != bits[:-1])]


def _table_text(table, layout: str) -> str:
    """A table's CSV body (layout "csv") or its report "rows" (layout "json"), from one % template."""
    if table_kind(table) == "sampled":
        bits = np.ascontiguousarray(table.thetas, dtype=float).tobytes()
        return _sampled_template(bits, layout) % tuple(np.asarray(table.values, dtype=float).tolist())
    bounds, values = _step_columns(table)
    # an interior bound ends one row and starts the next; the bounds strictly
    # increase, so each is formatted once, and each distinct level (told apart
    # by its bits, so 0.0 and -0.0 keep their own text) is formatted once
    ends = _texts(bounds, _CELL[layout])
    if layout == "json" and isinstance(table, LineSSF):
        ends[0], ends[-1] = '"-inf"', '"inf"'
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64)
    distinct = _distinct(bits)
    levels = _texts(distinct.view(float), _CELL[layout])
    cells = chain.from_iterable(zip(ends, ends[1:], map(levels.__getitem__, np.searchsorted(distinct, bits).tolist())))
    return _layout(["%s"] * 3, len(values), layout) % tuple(cells)


def write_ssf_csv(table, path) -> None:
    write_text(path, _HEADERS[table_kind(table)] + "\n" + _table_text(table, "csv"))


def read_ssf_csv(path) -> tuple[str, list[tuple]]:
    """Read a CSV written by write_ssf_csv; the header names the table kind, errors the physical line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not ASCII text ({exc})") from exc
    if not lines:
        raise SchemaError(f"{path}: empty CSV")
    (_, header), body = lines[0], lines[1:]
    kinds = {v: k for k, v in _HEADERS.items()}
    if header not in kinds:
        raise SchemaError(f"{path}: unrecognized CSV header {header!r}")
    kind = kinds[header]
    names = header.split(",")
    # the only cells that may be infinite: a line table's outer endpoints
    ends = {(body[0][0], 0): -math.inf, (body[-1][0], 1): math.inf} if kind == "line_step" and body else {}
    rows = []
    for i, ln in body:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise SchemaError(f"{path}:{i}: expected {len(names)} columns")
        try:
            row = tuple(float(c) for c in cells)
        except ValueError as exc:
            raise SchemaError(f"{path}:{i}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            for j, x in enumerate(row):
                if not math.isfinite(x) and ends.get((i, j)) != x:
                    raise SchemaError(f"{path}:{i}: column {j + 1} ({names[j]}) is {x}, not a finite number")
        rows.append(row)
    return kind, rows


def table_to_dict(table) -> dict:
    """JSON form of an SSF table; infinite endpoints become string literals."""
    cells = table_array(table)
    rows = cells.tolist()
    for i, j in zip(*np.nonzero(np.isinf(cells))):
        rows[i][j] = _number(cells[i, j])
    return _table_doc(table, rows)


def _table_doc(table, rows) -> dict:
    kind = table_kind(table)
    out = {"type": kind, "rows": rows}
    if kind == "circle_step":
        out["gauge"] = float(table.gauge)
    elif kind == "line_step":
        out["mass_at_infinity"] = int(table.mass_at_infinity)
    else:
        out["radius"] = float(table.radius)
        out["winding"] = int(table.winding)
        out["calibration"] = float(table.kappa)
    return out


# ---------------------------------------------------------------------------
# report JSON


def report_to_dict(report, timestamp: str) -> dict:
    """JSON form of a report."""
    return {
        "scenario": report.scenario,
        "kind": report.kind,
        "timestamp": timestamp,
        "all_pass": report.all_pass,
        "provenance": dict(report.provenance),
        "records": [
            {
                "check_id": r.check_id,
                "anchor": r.anchor,
                "lhs": complex_pair(r.lhs),
                "rhs": complex_pair(r.rhs),
                "residual": None if r.residual is None else _number(r.residual),
                "tolerance": _number(r.tolerance),
                "pass": bool(r.passed),
            }
            for r in report.records
        ],
        "flags": jsonable(report.flags),
        "tables": {name: table_to_dict(t) for name, t in report.tables.items()},
    }


def dump_json(payload) -> str:
    """Every JSON file's layout: json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\\n"."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report_json(report, path, timestamp: str) -> None:
    """Write the report as dump_json(report_to_dict(report, timestamp)) writes it.

    json.dumps(indent=2) runs CPython's pure-Python encoder, so the table rows
    are laid out by _table_text instead. The report is dumped first, with a
    placeholder for each table's rows: json.dumps meets every other value,
    and raises its errors, before any row is made. The placeholders are
    filled only past the top-level "tables" key, where nothing but the
    tables can hold one.
    """
    doc = report_to_dict(replace(report, tables={}), timestamp)
    for i, (name, table) in enumerate(report.tables.items()):
        doc["tables"][name] = _table_doc(table, f"\0rows {i}")
    head, at, tables = dump_json(doc).partition('\n  "tables": ')
    for i, table in enumerate(report.tables.values()):
        tables = tables.replace('"rows": ' + json.dumps(f"\0rows {i}"), '"rows": ' + _table_text(table, "json"))
    write_text(path, head + at + tables)


# ---------------------------------------------------------------------------
# SVG plots

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 18, 34, 42


def _span(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-12:
        pad = max(0.5, abs(lo) * 0.2)
        return lo - pad, hi + pad
    pad = 0.08 * (hi - lo)
    return lo - pad, hi + pad


def render_ssf_svg(kind: str, rows, name: str = "ssf") -> str:
    """Self-contained SVG plot of one SSF table: one polyline, a staircase for step and line tables."""
    if kind not in _HEADERS:
        raise SchemaError(f"unknown table kind {kind!r}")
    cells = np.asarray(rows, dtype=float)
    if not cells.size:
        raise SchemaError("cannot plot an empty table")

    if kind == "sampled":
        xs, ys = cells[:, 0], cells[:, 1]
        xlo, xhi = 0.0, TWO_PI
    else:
        # the staircase: each row's (start, value) and (end, value), in row order
        xs, ys = cells[:, :2].ravel(), cells[:, 2].repeat(2)
        finite = xs[np.isfinite(xs)]
        if kind == "circle_step":
            xlo, xhi = 0.0, TWO_PI
        elif finite.size:
            lo, hi = float(finite.min()), float(finite.max())
            # one float spacing at the wider end keeps the padding from rounding away
            pad = max(1.0, 0.3 * (hi - lo), float(np.spacing(max(abs(lo), abs(hi)))))
            xlo, xhi = lo - pad, hi + pad
        else:
            xlo, xhi = -5.0, 5.0
        # an unbounded end runs to the frame
        xs = xs.clip(xlo, xhi)
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

    xy = np.column_stack((px(xs), py(ys)))
    pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>'
    )
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


def plot_ssf(table, path, name: str = "ssf") -> None:
    """Render an SSF table (object or (kind, rows) pair) to an SVG file."""
    if isinstance(table, tuple) and len(table) == 2 and isinstance(table[0], str):
        kind, rows = table
    else:
        kind, rows = table_kind(table), table_array(table)
    write_text(path, render_ssf_svg(kind, rows, name=name))
