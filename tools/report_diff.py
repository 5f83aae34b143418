"""Compare two output directories of `ssf-lab run`, file by file.

    python3 tools/report_diff.py <parent_out> <change_out>

Files are matched by relative path. A report JSON counts as identical when
its bytes agree once the `timestamp` field is set aside, since the timestamp
lies outside the determinism contract; every other file must agree byte for
byte. For each report that differs the script prints:

- whether every record kept its id, tolerance and pass/fail;
- the largest change of lhs, rhs and residual, each as a share of the
  record's tolerance (the residual share is the headroom shift);
- the largest breakpoint shift of its tables, and whether their row
  counts, integer jumps and masses at infinity held. Shifts are phases in
  radians: a line breakpoint t goes back to the phase theta = 2 atan2(1, -t)
  it came from, because t = -cot(theta/2) magnifies phase shifts near
  theta = 0 and 2 pi;
- the largest relative change of its float flags, nested ones included,
  and whether every other flag (keys, strings, bools, ints, None) held;
- which `provenance` keys changed, such as `config_hash`. A provenance
  change alone does not set the exit code.

Other files that differ (CSV, SVG) are listed by name. The exit code is 1
when a record's pass/fail changed, a record or file is missing on one side,
a table changed its rows, jumps or mass at infinity, or a flag other than
a float changed; otherwise 0.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

_TIMESTAMP = re.compile(rb'^  "timestamp": .*\n', re.MULTILINE)


def _is_report(path: Path) -> bool:
    return path.name.endswith(".report.json")


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    return _TIMESTAMP.sub(b"", data, count=1) if _is_report(path) else data


def _number(x) -> float:
    """A table cell or record field as a float; JSON stores infinite endpoints as strings."""
    return float(x) if x is not None else math.nan


def _max_gap(a, b, scale=1.0) -> float:
    """Largest |a_i - b_i| / scale over paired numbers; equal infinities and both-None count as no change."""
    out = 0.0
    for x, y in zip(a, b):
        x, y = _number(x), _number(y)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        out = max(out, abs(x - y) / scale)
    return out


def _flat(value) -> list:
    return value if isinstance(value, list) else [value]


def compare_records(old: list, new: list) -> dict:
    """Ids, tolerances and pass/fail kept, and the largest lhs/rhs/residual change per tolerance."""
    same_ids = [r["check_id"] for r in old] == [r["check_id"] for r in new]
    out = {"records_kept": same_ids, "pass_kept": same_ids, "lhs": 0.0, "rhs": 0.0, "residual": 0.0}
    if not same_ids:
        return out
    for r, s in zip(old, new):
        out["records_kept"] &= r["tolerance"] == s["tolerance"]
        out["pass_kept"] &= r["pass"] == s["pass"]
        for key in ("lhs", "rhs", "residual"):
            out[key] = max(out[key], _max_gap(_flat(r[key]), _flat(s[key]), r["tolerance"]))
    return out


def _jumps(rows: list) -> list:
    values = [_number(row[-1]) for row in rows]
    return [round(b - a) for a, b in zip(values, values[1:])]


def _phase(x: float, table_type: str) -> float:
    return 2.0 * math.atan2(1.0, -x) if table_type == "line_step" else x


def compare_tables(old: dict, new: dict) -> dict:
    """Row counts, integer jumps and mass at infinity kept, and the largest breakpoint shift as a phase."""
    out = {"tables_kept": sorted(old) == sorted(new), "breakpoint_shift": 0.0}
    for name in set(old) & set(new):
        a, b = old[name], new[name]
        rows_a, rows_b = a["rows"], b["rows"]
        kept = len(rows_a) == len(rows_b) and a.get("mass_at_infinity") == b.get("mass_at_infinity")
        if kept and a["type"] != "sampled":
            kept = _jumps(rows_a) == _jumps(rows_b)
        out["tables_kept"] &= kept
        if len(rows_a) != len(rows_b):
            continue
        for row_a, row_b in zip(rows_a, rows_b):
            for x, y in zip(row_a[:-1], row_b[:-1]):
                x, y = _phase(_number(x), a["type"]), _phase(_number(y), a["type"])
                out["breakpoint_shift"] = max(out["breakpoint_shift"], abs(x - y))
    return out


def _flag_gap(a, b) -> float:
    """Largest relative change between two float flags or nested lists and dicts of them; inf when anything else differs."""
    if type(a) is not type(b):
        return math.inf
    if isinstance(a, dict):
        if sorted(a) != sorted(b):
            return math.inf
        return max((_flag_gap(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            return math.inf
        return max((_flag_gap(x, y) for x, y in zip(a, b)), default=0.0)
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if isinstance(a, float) else math.inf


def compare_flags(old: dict, new: dict) -> dict:
    """Every non-float flag kept, and the largest relative change of the float ones."""
    gaps = [_flag_gap(old[k], new[k]) for k in old if k in new]
    finite = [g for g in gaps if g != math.inf]
    kept = sorted(old) == sorted(new) and len(finite) == len(gaps)
    return {"flags_kept": kept, "flags": max(finite, default=0.0)}


def compare_provenance(old: dict, new: dict) -> dict:
    """The provenance keys whose values differ or that one side lacks, sorted."""
    changed = old.keys() ^ new.keys() | {k for k in old.keys() & new.keys() if old[k] != new[k]}
    return {"provenance": sorted(changed)}


def compare_reports(old_path: Path, new_path: Path) -> dict:
    old, new = json.loads(old_path.read_text()), json.loads(new_path.read_text())
    return {
        **compare_records(old["records"], new["records"]),
        **compare_tables(old["tables"], new["tables"]),
        **compare_flags(old["flags"], new["flags"]),
        **compare_provenance(old.get("provenance", {}), new.get("provenance", {})),
    }


def diff_dirs(parent: Path, change: Path) -> tuple[list[str], dict[str, dict], list[str], list[str]]:
    """(identical files, differing reports with their comparison, other differing files, files on one side only)."""
    names_a = {p.relative_to(parent).as_posix() for p in parent.rglob("*") if p.is_file()}
    names_b = {p.relative_to(change).as_posix() for p in change.rglob("*") if p.is_file()}
    identical, reports, others = [], {}, []
    for name in sorted(names_a & names_b):
        a, b = parent / name, change / name
        if _content(a) == _content(b):
            identical.append(name)
        elif _is_report(a):
            reports[name] = compare_reports(a, b)
        else:
            others.append(name)
    return identical, reports, others, sorted(names_a ^ names_b)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/report_diff.py <parent_out> <change_out>", file=sys.stderr)
        return 2
    identical, reports, others, lonely = diff_dirs(Path(args[0]), Path(args[1]))
    for name in identical:
        print(f"identical {name}")
    for name in others:
        print(f"differs   {name}")
    for name in lonely:
        print(f"one side  {name}")
    for name, c in reports.items():
        print(
            f"report    {name}: records {'kept' if c['records_kept'] else 'CHANGED'}, "
            f"pass/fail {'kept' if c['pass_kept'] else 'CHANGED'}, "
            f"tables {'kept' if c['tables_kept'] else 'CHANGED'}, "
            f"flags {'kept' if c['flags_kept'] else 'CHANGED'}, "
            f"provenance {', '.join(c['provenance']) or 'kept'}; per tolerance: "
            f"lhs {c['lhs']:.3g}, rhs {c['rhs']:.3g}, residual {c['residual']:.3g}; "
            f"breakpoint shift {c['breakpoint_shift']:.3g}; relative: flags {c['flags']:.3g}"
        )
    keys = ("lhs", "rhs", "residual", "breakpoint_shift", "flags")
    worst = {k: max((c[k] for c in reports.values()), default=0.0) for k in keys}
    kept = ("records_kept", "pass_kept", "tables_kept", "flags_kept")
    broken = [n for n, c in reports.items() if not all(c[k] for k in kept)]
    provenance = sorted(set().union(*(c["provenance"] for c in reports.values())))
    print(
        f"{len(identical)} identical, {len(reports)} reports and {len(others)} other files differ, "
        f"{len(lonely)} on one side only; {len(broken)} reports changed a record, pass/fail, table shape or flag. "
        f"Largest per tolerance: lhs {worst['lhs']:.3g}, rhs {worst['rhs']:.3g}, "
        f"residual (headroom shift) {worst['residual']:.3g}; largest breakpoint shift {worst['breakpoint_shift']:.3g}; "
        f"largest relative float flag change {worst['flags']:.3g}; "
        f"provenance keys changed: {', '.join(provenance) or 'none'}"
    )
    return 1 if broken or lonely else 0


if __name__ == "__main__":
    sys.exit(main())
