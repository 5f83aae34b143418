"""ssf-lab command line: run scenario batches, generate instances, plot tables.

Each file that ran prints one PASS or FAIL line with its worst headroom,
the largest residual / tolerance among its records. Exit codes for `run`:
0 when every record of every report passes, 1 when some numeric check
failed (reports are still written), an output could not be written or a
file crashed, 2 when a file does not parse against the scenario schema.
A crash (any `Exception`; Ctrl-C still ends the batch) prints
`<path>: internal error: <type>: <message>` to stderr, and the batch goes
on. After the last file, one `batch:` line on stderr counts the files that
passed, failed, were refused or crashed, and gives the batch's worst
headroom. A scenario name names the output
files, so within one run a file that repeats the name of an earlier file
in argument order is a schema error too, and nothing is written for it.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from .errors import IoError, SchemaError
from .export import plot_ssf, read_ssf_csv, write_report_json, write_ssf_csv
from .scenario import KINDS, generate_scenario, load_scenario, run_scenario, write_scenario


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_outputs(report, sc, out_dir) -> None:
    base = Path(out_dir) if out_dir else Path(".")
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


def _worst_headroom(ratios: list[float]) -> str:
    """The largest residual / tolerance ratio; a NaN wins, and n/a when there is none."""
    if not ratios:
        return "n/a"
    return f"{math.nan if any(map(math.isnan, ratios)) else max(ratios):.3e}"


def _load_and_run(path: str, tolerance_scale: float):
    sc = load_scenario(path)
    return sc, run_scenario(sc, tolerance_scale=tolerance_scale)


def _cmd_run(args) -> int:
    if args.threads < 1:
        raise SchemaError(f"--threads must be at least 1, got {args.threads}")
    run = partial(_load_and_run, tolerance_scale=args.tolerance_scale)
    parallel = args.threads > 1 and len(args.files) > 1
    owners: dict[str, str] = {}
    counts = dict.fromkeys(("passed", "failed", "schema", "io", "internal"), 0)
    batch_ratios: list[float] = []
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        # each outcome runs its file now, or waits for the worker that runs it
        outcomes = [pool.submit(run, p).result if parallel else partial(run, p) for p in args.files]
        for path, outcome in zip(args.files, outcomes):
            try:
                sc, report = outcome()
                if sc.name in owners:
                    raise SchemaError(f"scenario name {sc.name!r} is already used by {owners[sc.name]}")
                owners[sc.name] = path
                _write_outputs(report, sc, args.out_dir)
            except (SchemaError, IoError) as exc:
                code = "schema" if isinstance(exc, SchemaError) else "io"
                counts[code] += 1
                print(f"{path}: {code} error: {exc}", file=sys.stderr)
                continue
            except Exception as exc:  # a crash ends its file, not the batch
                counts["internal"] += 1
                print(f"{path}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            failed = report.failed()
            ratios = [r.residual / r.tolerance for r in report.records if r.residual is not None and r.tolerance > 0]
            batch_ratios += ratios
            worst = f"worst headroom {_worst_headroom(ratios)}"
            counts["failed" if failed else "passed"] += 1
            if failed:
                print(f"{sc.name}: FAIL ({len(failed)} of {len(report.records)} checks failed), {worst}")
                for r in failed:
                    res = "n/a" if r.residual is None else f"{r.residual:.3e}"
                    print(f"  {r.check_id} [{r.anchor}]: residual {res} > tolerance {r.tolerance:.3e}")
                if "numeric_error" in report.flags:
                    print(f"  {report.flags['numeric_error']}")
            else:
                print(f"{sc.name}: PASS ({len(report.records)} checks), {worst}")
    print(
        f"batch: files {len(args.files)}, passed {counts['passed']}, failed {counts['failed']}, "
        f"schema errors {counts['schema']}, io errors {counts['io']}, internal errors {counts['internal']}, "
        f"worst headroom {_worst_headroom(batch_ratios)}",
        file=sys.stderr,
    )
    if counts["schema"]:
        return 2
    return 0 if counts["passed"] == len(args.files) else 1


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
