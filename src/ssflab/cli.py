"""ssf-lab command line: run scenario batches, generate instances, plot tables.

Exit codes for `run`: 0 when every record of every report passes, 1 when
some numeric check failed (reports are still written), 2 when a file does
not parse against the scenario schema.
"""

from __future__ import annotations

import argparse
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .errors import IoError, SchemaError
from .export import plot_ssf, read_ssf_csv, write_report_json, write_ssf_csv
from .scenario import KINDS, generate_scenario, load_scenario, run_scenario, write_scenario

# report/table writes are serialized; scenario execution itself is parallel
_write_lock = threading.Lock()


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_outputs(report, sc, out_dir) -> None:
    base = Path(out_dir) if out_dir else Path(".")
    with _write_lock:
        try:
            base.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {base}: {exc}") from exc
        write_report_json(report, base / f"{sc.name}.report.json", _timestamp())
        primary = report.tables.get("circle_step") or report.tables.get("line_step")
        if "csv" in sc.outputs and primary is not None:
            write_ssf_csv(primary, base / f"{sc.name}.ssf.csv")
        if "csv" in sc.outputs and "sampled" in report.tables:
            write_ssf_csv(report.tables["sampled"], base / f"{sc.name}.determinant.csv")
        if "svg" in sc.outputs and primary is not None:
            plot_ssf(primary, base / f"{sc.name}.svg", name=sc.name)


def _run_file(path: str, out_dir, tolerance_scale: float):
    """Returns (path, scenario_name, report, error) with error None on success."""
    try:
        sc = load_scenario(path)
        report = run_scenario(sc, tolerance_scale=tolerance_scale)
        _write_outputs(report, sc, out_dir)
        return path, sc.name, report, None
    except SchemaError as exc:
        return path, None, None, ("schema", str(exc))
    except IoError as exc:
        return path, None, None, ("io", str(exc))


def _cmd_run(args) -> int:
    workers = max(1, args.threads)
    runner = lambda p: _run_file(p, args.out_dir, args.tolerance_scale)  # noqa: E731
    if workers > 1 and len(args.files) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(runner, args.files))
    else:
        results = [runner(p) for p in args.files]

    schema_bad = other_bad = False
    for path, name, report, error in results:
        if error is not None:
            code, msg = error
            schema_bad = schema_bad or code == "schema"
            other_bad = other_bad or code != "schema"
            print(f"{path}: {code} error: {msg}", file=sys.stderr)
            continue
        failed = report.failed()
        if failed:
            other_bad = True
            print(f"{name}: FAIL ({len(failed)} of {len(report.records)} checks failed)")
            for r in failed:
                res = "n/a" if r.residual is None else f"{r.residual:.3e}"
                print(f"  {r.check_id} [{r.anchor}]: residual {res} > tolerance {r.tolerance:.3e}")
            if "numeric_error" in report.flags:
                print(f"  {report.flags['numeric_error']}")
        else:
            print(f"{name}: PASS ({len(report.records)} checks)")
    if schema_bad:
        return 2
    return 1 if other_bad else 0


def _cmd_generate(args) -> int:
    payload = generate_scenario(args.kind, args.seed, args.dim)
    out = args.output or f"{payload['name']}.json"
    write_scenario(payload, out)
    print(out)
    return 0


def _cmd_plot(args) -> int:
    kind, rows = read_ssf_csv(args.csv)
    out = args.output or str(Path(args.csv).with_suffix(".svg"))
    plot_ssf((kind, rows), out, name=Path(args.csv).stem)
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssf-lab",
        description="Spectral shift function laboratory: run scenario checks, "
        "generate instances, plot step tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute scenario files and write reports")
    run_p.add_argument("files", nargs="+", help="scenario JSON files")
    run_p.add_argument("--threads", type=int, default=1, help="parallel scenario workers")
    run_p.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply every check tolerance by this factor",
    )
    run_p.add_argument("--out-dir", default=None, help="directory for reports (default: cwd)")

    gen_p = sub.add_parser("generate", help="write a deterministic scenario file")
    gen_p.add_argument("--kind", required=True, choices=KINDS)
    gen_p.add_argument("--seed", required=True, type=int)
    gen_p.add_argument("--dim", required=True, type=int)
    gen_p.add_argument("-o", "--output", default=None)

    plot_p = sub.add_parser("plot", help="render an SSF CSV as an SVG step plot")
    plot_p.add_argument("csv")
    plot_p.add_argument("-o", "--output", default=None)
    return parser


# argparse set-up costs about a millisecond; one parser serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_plot(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
