"""Paired perfbench runs of two checkouts: the figures a speed claim and a no-regression report need.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed K]

Pair i runs `python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
in each checkout, from that checkout's root: the parent first in even pairs, the
change first in odd ones, and a fresh seed for every pair. Each run's result is the
JSON object perfbench prints as its last line; nothing under either checkout's
perfbench/ is written to. The run length S (`run_seconds`), the end-to-end metrics,
their better direction and their bounds come from CHANGE_DIR/BENCHMARK.json, so
both sides run for the length the benchmark sets.

For every end-to-end metric the script prints both medians, the change in percent,
the parent's quartile distance (inclusive quartiles of the parent's runs), how many
pairs the change won (ties count for neither side) and a verdict:

- gain: the change won at least nine tenths of the pairs, and its median is better
  by more than the parent's quartile distance;
- not met, more calls failed: a gain by the rule above, but the change failed a
  larger share of its calls than the parent, so the gain does not count;
- regression: the change's median is worse than the parent's by more than the bound;
- unresolved: the parent's quartile distance exceeds the bound (as a share of its
  median), unless every change run is better than every parent run;
- within bound: anything else.

It also prints the failed and attempted calls of each side and, under the table,
the `environment:` line (numpy, BLAS, thread settings) of each side's first run.
The exit status is 1 when a run fails or prints no result, otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def quartile_distance(values) -> float:
    """Third minus first quartile (inclusive method); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _better(a: float, b: float, better: str) -> bool:
    """a is strictly better than b."""
    return a < b if better == "lower" else a > b


def compare(parent: list[float], change: list[float], better: str, bound: float, more_failed: bool = False) -> dict:
    """The figures and the verdict for one metric over paired runs (parent[i] with change[i]).

    more_failed: the change failed a larger share of its calls than the parent.
    """
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = quartile_distance(parent)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    if wins >= math.ceil(0.9 * len(parent)) and -worse_by > spread:
        verdict = "not met, more calls failed" if more_failed else "gain"
    elif worse_by > bound * abs(p_med):
        verdict = "regression"
    elif spread > bound * abs(p_med) and not all(_better(c, p, better) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": p_med,
        "change": c_med,
        "percent": 100.0 * (c_med - p_med) / p_med if p_med else math.nan,
        "spread": spread,
        "wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
    }


def table(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Markdown rows comparing the pairs' results, one per end-to-end metric, then the failure counts."""
    failed = [sum(pair[k]["failed"] for pair in pairs) for k in (0, 1)]
    attempted = [sum(pair[k]["attempted"] for pair in pairs) for k in (0, 1)]
    more_failed = failed[1] * attempted[0] > failed[0] * attempted[1]
    lines = [
        "| metric | parent median | change median | change | parent quartile distance | change wins | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for m in metrics:
        name = m["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        r = compare(parent, change, m["better"], m["bound"], more_failed)
        lines.append(
            f"| `{name}` | {r['parent']:.4g} | {r['change']:.4g} | {r['percent']:+.1f}% | {r['spread']:.3g} "
            f"| {r['wins']}/{r['pairs']} | {r['verdict']} |"
        )
    for side, k in (("parent", 0), ("change", 1)):
        lines.append(f"{side}: {failed[k]} of {attempted[k]} calls failed")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a checkout: its last line of output, parsed, with its `environment:` line, or None,
    under "environment"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["environment"] = next((line for line in lines if line.startswith("environment: ")), None)
    return result


def pair_count(text: str) -> int:
    """--pairs: a count of at least 1, else argparse's usage error (exit 2)."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 pair, got {count}")
    return count


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=pair_count, required=True)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = p.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]
    checkouts, pairs = (args.parent, args.change), []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            # kept by side, not by path: an A/A run names one checkout twice
            pair = [None, None]
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                pair[k] = run_once(checkouts[k], args.workload, seed, seconds)
            pairs.append(tuple(pair))
            values = ", ".join(
                f"{m['name']} {pair[0]['metrics'][m['name']]['value']:.4g}"
                f" -> {pair[1]['metrics'][m['name']]['value']:.4g}"
                for m in metrics
            )
            first = "parent" if i % 2 == 0 else "change"
            print(f"pair {i + 1} (seed {seed}, {first} first): {values}", flush=True)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"\n{args.workload}, {len(pairs)} pairs of {seconds:g} s runs:")
    print("\n".join(table(pairs, metrics)))
    # the first pair holds each side's first run
    for name, result in zip(("parent", "change"), pairs[0]):
        print(f"{name} {result['environment']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
