"""Serialization: SSF tables to CSV, reports to JSON, step plots to SVG.

CSV uses comma separators, '.' decimal points, 17 significant digits, and
the literals inf / -inf for unbounded line segments. Complex values in JSON
are [re, im] pairs; matrices are row-major nested arrays. SVG is emitted
directly with line/text primitives so plots need no external renderer.
"""

from __future__ import annotations

import json
import math
from html import escape
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import IoError, SchemaError
from .linalg import TWO_PI
from .ssf_circle import SampledSSF, StepSSF
from .ssf_line import LineSSF

_FMT = "%.17g"
_INDENT = "  "


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def jsonable(value):
    """Recursively convert report payloads to JSON-safe structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return complex_pair(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
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


# Below this many values, finding the distinct ones costs more than it saves.
# Timed on step tables (a few distinct levels, every bound repeated; Xeon VM,
# CPython 3.11): the direct path is faster up to about 100 values, the
# deduplicating one from about 130, for "%r", "%.17g" and "%.2f" alike.
_FORMAT_ONCE_MIN = 128


def _format_once(x: np.ndarray, fmt: str) -> list[str]:
    """fmt % v for every v in x; from _FORMAT_ONCE_MIN values on, each distinct value is formatted once.

    Values are told apart by their bits, so 0.0 and -0.0 keep their own text.
    """
    if len(x) < _FORMAT_ONCE_MIN:
        return ((fmt + "\n") * len(x) % tuple(x.tolist())).split("\n")[:-1]
    bits, where = np.unique(np.ascontiguousarray(x, dtype=float).view(np.uint64), return_inverse=True)
    texts = ((fmt + "\n") * len(bits) % tuple(bits.view(float).tolist())).split("\n")
    return np.array(texts, dtype=object)[where].tolist()


def _step_texts(table, fmt: str) -> tuple[list[str], list[str], list[str]]:
    """fmt % cell down a step table's start, end and value columns.

    An interior bound ends one row and starts the next; it is formatted once.
    """
    bounds, values = _step_columns(table)
    texts = _format_once(np.concatenate((bounds, values)), fmt)
    rows = len(values)
    return texts[:rows], texts[1 : rows + 1], texts[rows + 1 :]


def _lines(template: str, *columns: list[str]) -> list[str]:
    """template % row for each row of the text columns, without parsing the template once per row."""
    consts = template.split("%s")
    pieces = [repeat(consts[0])]
    for column, const in zip(columns, consts[1:]):
        pieces += [column, repeat(const)]
    return list(map("".join, zip(*pieces)))


def write_ssf_csv(table, path) -> None:
    kind = table_kind(table)
    if kind == "sampled":
        rows = table_array(table)
        body = ((_FMT + "," + _FMT + "\n") * len(rows)) % tuple(rows.ravel().tolist())
    else:
        body = "".join(_lines("%s,%s,%s\n", *_step_texts(table, _FMT)))
    text = _HEADERS[kind] + "\n" + body
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_ssf_csv(path) -> tuple[str, list[tuple]]:
    """Read a CSV written by write_ssf_csv; the header names the table kind, errors the physical line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
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
        rows[i][j] = "inf" if cells[i, j] > 0 else "-inf"
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


def report_to_dict(report, timestamp: str, *, table_doc=table_to_dict) -> dict:
    """JSON form of a report; table_doc gives each table's."""
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
                "residual": None if r.residual is None else float(r.residual),
                "tolerance": float(r.tolerance),
                "pass": bool(r.passed),
            }
            for r in report.records
        ],
        "flags": jsonable(report.flags),
        "tables": {name: table_doc(t) for name, t in report.tables.items()},
    }


def _json_float(x: float) -> str:
    # json itself raises its ValueError for NaN and +-inf
    return float.__repr__(x) if math.isfinite(x) else _stdlib_json(x, 0)


# Exact types encoded without recursion; subclasses go to json itself.
_SCALARS = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _scalars(values: list):
    """The JSON text of each value, or None unless all are plain scalars."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds <= _SCALARS.keys():
        return [_SCALARS[type(v)](v) for v in values]
    return None


def _table(rows: list, level: int):
    """A list of equal-width scalar rows in one % format, or None for any other list."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    cells = _scalars(list(chain.from_iterable(rows)))
    if cells is None:
        return None
    return _json_rows([_json_row(widths.pop(), level)] * len(rows), level) % tuple(cells)


def _json_row(width: int, level: int) -> str:
    """The %s template of one row of `width` cells in a list at `level`, laid out as json.dumps(indent=2)."""
    inner = "\n" + _INDENT * (level + 2)
    return "[" + inner + ("," + inner).join(["%s"] * width) + "\n" + _INDENT * (level + 1) + "]"


def _json_rows(rows: list[str], level: int) -> str:
    """A list at `level` of rows already laid out."""
    outer = "\n" + _INDENT * (level + 1)
    return "[" + outer + ("," + outer).join(rows) + "\n" + _INDENT * level + "]"


class _StepRows:
    """The "rows" of a step table in a report; _encode writes them from the table's columns."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    def json(self, level: int) -> str:
        starts, ends, values = _step_texts(self.table, "%r")
        if isinstance(self.table, LineSSF):
            # the outer endpoints: the first row's start and the last row's end
            starts[0], ends[-1] = '"-inf"', '"inf"'
        return _json_rows(_lines(_json_row(3, level), starts, ends, values), level)


def _encode(value, level: int) -> str:
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            return _stdlib_json(value, level)
        keys = sorted(value)
        items = _scalars([value[k] for k in keys])
        if items is None:
            items = [_encode(value[k], level + 1) for k in keys]
        inner = "\n" + _INDENT * (level + 1)
        pairs = map("%s: %s".__mod__, zip(map(encode_basestring_ascii, keys), items))
        return "{" + inner + ("," + inner).join(pairs) + "\n" + _INDENT * level + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = _scalars(value)
        if items is None:
            table = _table(value, level)
            if table is not None:
                return table
            items = [_encode(v, level + 1) for v in value]
        inner = "\n" + _INDENT * (level + 1)
        return "[" + inner + ("," + inner).join(items) + "\n" + _INDENT * level + "]"
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is _StepRows:
        return value.json(level)
    return _stdlib_json(value, level)


def _stdlib_json(value, level: int) -> str:
    # JSON strings hold no raw newline, so re-indenting the lines is exact
    text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", "\n" + _INDENT * level)


def dump_json(payload) -> str:
    """Byte for byte json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\\n".

    That call runs CPython's pure-Python encoder (the C encoder only serves
    indent=None). Here every container of plain scalars is one join and every
    table of equal-width scalar rows one % format; values of other types
    (non-string keys, subclasses, unknown objects) go to json itself.
    """
    return _encode(payload, 0) + "\n"


def _written_table_doc(table) -> dict:
    """table_to_dict as dump_json writes it; a step table's rows are written from its columns."""
    if table_kind(table) == "sampled":
        return table_to_dict(table)
    return _table_doc(table, _StepRows(table))


def write_report_json(report, path, timestamp: str) -> None:
    """Write the report as dump_json(report_to_dict(report, timestamp)) writes it."""
    text = dump_json(report_to_dict(report, timestamp, table_doc=_written_table_doc))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG step plots

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 18, 34, 42
# a step line and the drop to the next step, with coordinates formatted "%.2f"
_STEP_LINE = '<line class="step" x1="%s" y1="%s" x2="%s" y2="%s" stroke="#1f6feb" stroke-width="2"%s/>'
_DROP_LINE = '<line class="drop" x1="%s" y1="%s" x2="%s" y2="%s" stroke="#8b949e" stroke-dasharray="3,3"/>'


def _span(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-12:
        pad = max(0.5, abs(lo) * 0.2)
        return lo - pad, hi + pad
    pad = 0.08 * (hi - lo)
    return lo - pad, hi + pad


def render_ssf_svg(kind: str, rows, name: str = "ssf") -> str:
    """Self-contained SVG step/line plot for one SSF table."""
    if kind not in _HEADERS:
        raise SchemaError(f"unknown table kind {kind!r}")
    cells = np.asarray(rows, dtype=float)
    if not cells.size:
        raise SchemaError("cannot plot an empty table")

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
        a_px = np.where(np.isfinite(a), px(np.maximum(a, xlo)), _ML)
        b_px = np.where(np.isfinite(b), px(np.minimum(b, xhi)), _W - _MR)
        dash = np.where(np.isfinite(a) & np.isfinite(b), "", ' stroke-dasharray="6,3"').tolist()
        n = len(a)
        texts = _format_once(np.concatenate((a_px, b_px, px(a[1:]), py(ys))), "%.2f")
        a_t, b_t, drop_t, y_t = texts[:n], texts[n : 2 * n], texts[2 * n : 3 * n - 1], texts[3 * n - 1 :]
        lines = [""] * (2 * n - 1)
        lines[::2] = _lines(_STEP_LINE, a_t, y_t, b_t, y_t, dash)
        lines[1::2] = _lines(_DROP_LINE, drop_t, y_t, drop_t, y_t[1:])
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


def plot_ssf(table, path, name: str = "ssf") -> None:
    """Render an SSF table (object or (kind, rows) pair) to an SVG file."""
    if isinstance(table, tuple) and len(table) == 2 and isinstance(table[0], str):
        kind, rows = table
    else:
        kind, rows = table_kind(table), table_array(table)
    svg = render_ssf_svg(kind, rows, name=name)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(svg)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
