"""Verdict guard: decides whether one `ssf-lab run` call succeeded.

A call fails when it raised, returned a non-zero exit code, dropped a check
listed in reference.json, loosened a reference tolerance, has any failing
record, or left an output named in the scenario's `outputs` missing or
unreadable. A later commit may add checks, never drop or loosen one.

`python3 perfbench/verdict.py --capture` rewrites reference.json from the
checked-out program; run it only on the commit whose checks are the floor.
"""

from __future__ import annotations

import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["checks"]


def check_call(payload: dict, reference: dict, rc, error, out_dir) -> list[str]:
    """Problems with one call; an empty list means the call succeeded.

    `payload` is the scenario as written, `reference` maps check ids to the
    loosest admissible tolerance, `rc`/`error` are what the call returned or
    raised, and `out_dir` is the directory the call wrote into.
    """
    from ssflab.export import read_ssf_csv
    from ssflab.errors import IoError, SchemaError

    problems = []
    if error is not None:
        problems.append(f"raised {error}")
    elif rc != 0:
        problems.append(f"exit code {rc}")
    out = Path(out_dir)
    name = payload["name"]
    try:
        with open(out / f"{name}.report.json", encoding="ascii") as fh:
            report = json.load(fh)
        records = {r["check_id"]: r for r in report["records"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"report does not re-read: {type(exc).__name__}: {exc}"]
    for check_id, tol in reference.items():
        rec = records.get(check_id)
        if rec is None:
            problems.append(f"check {check_id} missing")
        elif not rec["tolerance"] <= tol:
            problems.append(f"check {check_id} tolerance {rec['tolerance']!r} looser than {tol!r}")
    problems += [f"check {cid} failed" for cid, rec in records.items() if rec["pass"] is not True]

    outputs = payload.get("outputs", ["json"])
    tables = []
    if "csv" in outputs:
        tables.append(f"{name}.ssf.csv")
        if "determinant" in payload:
            tables.append(f"{name}.determinant.csv")
    for table in tables:
        try:
            read_ssf_csv(out / table)
        except (IoError, SchemaError) as exc:
            problems.append(f"{table} does not re-read: {exc}")
    if "svg" in outputs:
        try:
            if not ET.parse(out / f"{name}.svg").getroot().tag.endswith("svg"):
                problems.append(f"{name}.svg has no svg root")
        except (OSError, ET.ParseError) as exc:
            problems.append(f"{name}.svg does not re-read: {exc}")
    return problems


def _capture() -> int:
    """Record every workload file's check ids and tolerances at two seeds."""
    import contextlib
    import io
    import shutil

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from ssflab import cli
    from ssflab.scenario import generate_scenario, write_scenario

    from workloads import WORKLOADS

    work = root / ".perfbench_run" / "capture"
    checks: dict[str, dict[str, float]] = {}
    for workload in WORKLOADS.values():
        for run_seed in (1, 2):
            for spec in workload.batch(run_seed) + workload.warmups(run_seed):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                payload = scenario_payload(generate_scenario, spec)
                path = work / f"{payload['name']}.json"
                write_scenario(payload, path)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["run", str(path), "--out-dir", str(work)])
                with open(work / f"{payload['name']}.report.json", encoding="ascii") as fh:
                    report = json.load(fh)
                if rc != 0 or not report["all_pass"]:
                    raise SystemExit(f"{payload['name']}: does not pass, cannot be a reference")
                found = {r["check_id"]: r["tolerance"] for r in report["records"]}
                if checks.setdefault(spec.reference_key, found) != found:
                    raise SystemExit(f"{spec.reference_key}: checks depend on the seed")
    shutil.rmtree(work, ignore_errors=True)
    text = json.dumps({"checks": dict(sorted(checks.items()))}, indent=2, sort_keys=True)
    REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(checks)} entries to {REFERENCE_PATH}")
    return 0


def scenario_payload(generate_scenario, spec) -> dict:
    """The scenario file for one FileSpec, as `ssf-lab generate` writes it."""
    payload = generate_scenario(spec.kind, spec.seed, spec.dim)
    if spec.determinant:
        payload["determinant"] = {}
    return payload


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: python3 perfbench/verdict.py --capture  (from the repository root)")
    sys.exit(_capture())
