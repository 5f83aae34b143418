"""Serialization: SSF tables to CSV, reports to JSON, step plots to SVG.

CSV uses comma separators, '.' decimal points, 17 significant digits, and
the literals inf / -inf for unbounded line segments. Complex values in JSON
are [re, im] pairs; matrices are row-major nested arrays. SVG is emitted
directly with line/text primitives so plots need no external renderer.
"""

from __future__ import annotations

import hashlib
import json
import math
from html import escape

import numpy as np

from .errors import IoError, SchemaError
from .linalg import TWO_PI
from .ssf_circle import SampledSSF, StepSSF
from .ssf_line import LineSSF

_FMT = "%.17g"


def _f(x) -> str:
    return _FMT % float(x)


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


def step_circle_rows(step: StepSSF) -> list[tuple[float, float, float]]:
    """Constant segments covering (0, 2pi]: (theta_start, theta_end, value)."""
    bounds = [0.0, *step.thetas.tolist()]
    if bounds[-1] < TWO_PI:
        bounds.append(TWO_PI)
    return list(zip(bounds, bounds[1:], step.value(bounds[:-1]).tolist()))


def line_rows(line: LineSSF) -> list[tuple[float, float, float]]:
    """Constant segments covering the real line; outer endpoints are +-inf."""
    bps = [float(t) for t in line.breakpoints]
    bounds = [-np.inf] + bps + [np.inf]
    return [(bounds[i], bounds[i + 1], float(line.values[i])) for i in range(len(bounds) - 1)]


def sampled_rows(ssf: SampledSSF) -> list[tuple[float, float]]:
    return [(float(t), float(v)) for t, v in zip(ssf.thetas, ssf.values)]


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


def table_rows(table) -> list[tuple]:
    kind = table_kind(table)
    if kind == "circle_step":
        return step_circle_rows(table)
    if kind == "line_step":
        return line_rows(table)
    return sampled_rows(table)


def write_ssf_csv(table, path) -> None:
    kind = table_kind(table)
    lines = [_HEADERS[kind]]
    lines += [",".join(_f(x) for x in row) for row in table_rows(table)]
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_ssf_csv(path) -> tuple[str, list[tuple]]:
    """Read a CSV written by write_ssf_csv; the header names the table kind."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise SchemaError(f"{path}: empty CSV")
    header = lines[0]
    kinds = {v: k for k, v in _HEADERS.items()}
    if header not in kinds:
        raise SchemaError(f"{path}: unrecognized CSV header {header!r}")
    kind = kinds[header]
    width = len(header.split(","))
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != width:
            raise SchemaError(f"{path}:{i}: expected {width} columns")
        try:
            rows.append(tuple(float(c) for c in cells))
        except ValueError as exc:
            raise SchemaError(f"{path}:{i}: {exc}") from exc
    return kind, rows


def table_to_dict(table) -> dict:
    """JSON form of an SSF table; infinite endpoints become string literals."""
    kind = table_kind(table)
    rows = [
        [("-inf" if x == -np.inf else "inf" if x == np.inf else x) for x in row]
        for row in table_rows(table)
    ]
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
        "tables": {name: table_to_dict(t) for name, t in report.tables.items()},
    }


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def canonical_hash(payload: dict) -> str:
    """sha256 over the canonical JSON form, timestamp excluded."""
    trimmed = {k: v for k, v in payload.items() if k != "timestamp"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def write_report_json(report, path, timestamp: str) -> dict:
    payload = report_to_dict(report, timestamp)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(dump_json(payload))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return payload


# ---------------------------------------------------------------------------
# SVG step plots

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 18, 34, 42


def _span(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-12:
        pad = max(0.5, abs(lo) * 0.2)
        return lo - pad, hi + pad
    pad = 0.08 * (hi - lo)
    return lo - pad, hi + pad


def render_ssf_svg(kind: str, rows: list[tuple], name: str = "ssf") -> str:
    """Self-contained SVG step/line plot for one SSF table."""
    if kind not in _HEADERS:
        raise SchemaError(f"unknown table kind {kind!r}")
    if not rows:
        raise SchemaError("cannot plot an empty table")

    if kind == "sampled":
        xs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        xlo, xhi = 0.0, TWO_PI
    else:
        finite = [x for r in rows for x in r[:2] if math.isfinite(x)]
        ys = [r[2] for r in rows]
        if kind == "circle_step":
            xlo, xhi = 0.0, TWO_PI
        elif finite:
            lo, hi = min(finite), max(finite)
            pad = max(1.0, 0.3 * (hi - lo))
            xlo, xhi = lo - pad, hi + pad
        else:
            xlo, xhi = -5.0, 5.0
    ylo, yhi = _span(min(ys), max(ys))

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
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>'
        )
    else:
        for i, (a, b, v) in enumerate(rows):
            a_px = px(max(a, xlo)) if math.isfinite(a) else _ML
            b_px = px(min(b, xhi)) if math.isfinite(b) else _W - _MR
            dash = "" if math.isfinite(a) and math.isfinite(b) else ' stroke-dasharray="6,3"'
            parts.append(
                f'<line class="step" x1="{a_px:.2f}" y1="{py(v):.2f}" x2="{b_px:.2f}" '
                f'y2="{py(v):.2f}" stroke="#1f6feb" stroke-width="2"{dash}/>'
            )
            if i + 1 < len(rows):
                parts.append(
                    f'<line class="drop" x1="{px(rows[i + 1][0]):.2f}" y1="{py(v):.2f}" '
                    f'x2="{px(rows[i + 1][0]):.2f}" y2="{py(rows[i + 1][2]):.2f}" '
                    f'stroke="#8b949e" stroke-dasharray="3,3"/>'
                )
        if kind == "line_step":
            parts.append(
                f'<text x="{_ML + 5}" y="{py(rows[0][2]) - 6:.2f}" font-size="11" '
                f'fill="#24292f">xi(-inf) = {rows[0][2]:.4g}</text>'
            )
            parts.append(
                f'<text x="{_W - _MR - 5}" y="{py(rows[-1][2]) - 6:.2f}" text-anchor="end" '
                f'font-size="11" fill="#24292f">xi(+inf) = {rows[-1][2]:.4g}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_ssf(table, path, name: str = "ssf") -> None:
    """Render an SSF table (object or (kind, rows) pair) to an SVG file."""
    if isinstance(table, tuple) and len(table) == 2 and isinstance(table[0], str):
        kind, rows = table
    else:
        kind, rows = table_kind(table), table_rows(table)
    svg = render_ssf_svg(kind, rows, name=name)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(svg)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
