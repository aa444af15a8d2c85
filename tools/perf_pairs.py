"""Alternating benchmark pairs of a parent checkout and this one, summarized.

    python3 tools/perf_pairs.py --parent DIR --workload NAME [NAME ...] \\
        --seed N --seconds S [--pairs P] [--trace 0|1]

Run it from anywhere; DIR is the root of another checkout, such as the
parent commit's (``git archive`` of it, unpacked). For each workload it runs
``perfbench/run.py`` P times in each checkout, in pairs, the parent first in
even pairs and this checkout first in odd ones, with the same arguments.
Each run must end in a result line whose ``correct`` is true; any other run
stops the tool with exit code 1, since its timings count nothing, and the
error quotes the last lines of that run's stderr, where ``perfbench/run.py``
says why (a CLI parity mismatch, say).

Per metric that ``BENCHMARK.json`` lists, it then prints each side's median
and quartiles, the change of the medians in percent, and the pairs the
change won, in the direction of the metric's ``better`` (ties count for
neither side). The last column says whether the claim rule holds: the
change won at least nine pairs in ten, and its median is better than the
parent's by more than the parent's interquartile range. Quartiles are
``statistics.quantiles(values, n=4)``, the default exclusive method.

Below them it prints the same columns for the unscaled median wall seconds
that each run prints (``median wall seconds, unscaled:``): set-up, life
cycle, report and reference kernel, lower being better, so a claim shows
its raw change beside the scaled one. Their claim column reads ``-``: raw
seconds from runs minutes apart are not comparable within a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 5  # lines of a refused run's stderr that the error quotes
UNSCALED = "median wall seconds, unscaled:"  # the line's prefix in a run's stdout


class RunRefused(Exception):
    """A benchmark run whose result line does not say it was correct."""


def result_of(stdout: str, where: str) -> dict:
    """The result object on the last line of a run's stdout, if it is correct."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunRefused(f"{where}: no result line") from None
    if result.get("correct") is not True:
        raise RunRefused(f"{where}: correct is {result.get('correct')!r}, "
                         f"{result.get('failed')} of {result.get('attempted')} repeats failed")
    result["unscaled"] = unscaled(lines)
    return result


def unscaled(lines: list[str]) -> dict[str, float]:
    """phase -> unscaled median wall seconds, from the last `UNSCALED` line:
    "setup 0.0123, life cycle 0.0156, ..." gives {"setup": 0.0123, "life
    cycle": 0.0156, ...}; {} without one."""
    for text in reversed(lines):
        if text.startswith(UNSCALED):
            return {phase: float(value) for phase, value in
                    (part.strip().rsplit(" ", 1) for part in text[len(UNSCALED):].split(","))}
    return {}


def directions(benchmark: dict) -> dict[str, str]:
    """metric -> "higher" or "lower", over the end-to-end and per-layer lists."""
    return {metric["name"]: metric["better"]
            for group in ("end_to_end", "per_layer") for metric in benchmark.get(group, ())}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)  # the middle cut is the median
    return low, middle, high


def compare(name: str, unit: str, better: str, parent: list[float],
            change: list[float]) -> dict:
    """One row: each side's quartiles, the change in percent, the change's
    wins, and whether the claim rule holds."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    gain = sign * (c_mid - p_mid)
    return {
        "metric": name, "unit": unit, "better": better, "parent": (p_low, p_mid, p_high),
        "change": (c_low, c_mid, c_high),
        "percent": 100 * (c_mid - p_mid) / p_mid if p_mid else 0.0,
        "wins": wins, "pairs": len(parent),
        "claim": 10 * wins >= 9 * len(parent) and gain > p_high - p_low,
    }


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric both sides report, then one per unscaled phase both
    sides print, whose `claim` is None."""
    rows = []
    for name in pairs[0][0]["metrics"]:
        if name not in better or any(name not in change["metrics"] for _, change in pairs):
            continue
        rows.append(compare(name, pairs[0][0]["metrics"][name]["unit"], better[name],
                            [side["metrics"][name]["value"] for side, _ in pairs],
                            [side["metrics"][name]["value"] for _, side in pairs]))
    for phase in pairs[0][0]["unscaled"]:
        if any(phase not in side["unscaled"] for pair in pairs for side in pair):
            continue
        row = compare(f"unscaled {phase}", "s", "lower",
                      [side["unscaled"][phase] for side, _ in pairs],
                      [side["unscaled"][phase] for _, side in pairs])
        rows.append({**row, "claim": None})
    return rows


def table(workload: str, rows: list[dict]) -> str:
    lines = [f"{workload}: parent and change as q1 / median / q3, "
             f"wins in the direction of `better`",
             "| metric | unit | better | parent | change | change % | wins | claim holds |",
             "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        parent, change = ("{:.4g} / {:.4g} / {:.4g}".format(*row[side])
                          for side in ("parent", "change"))
        lines.append(f"| {row['metric']} | {row['unit']} | {row['better']} | {parent} "
                     f"| {change} | {row['percent']:+.1f} | {row['wins']}/{row['pairs']} "
                     f"| {'-' if row['claim'] is None else 'yes' if row['claim'] else 'no'} |")
    return "\n".join(lines)


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return result_of(done.stdout, f"{checkout} {workload} seed {seed}")
    except RunRefused as refused:
        tail = done.stderr.strip().splitlines()[-STDERR_TAIL:]
        raise RunRefused("\n  ".join([str(refused), *tail])) from None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    for workload in args.workload:
        pairs = []
        for index in range(args.pairs):
            parent_first = index % 2 == 0
            try:
                first, second = (run(checkout, workload, args.seed, args.seconds, args.trace)
                                 for checkout in ((args.parent, ROOT) if parent_first
                                                  else (ROOT, args.parent)))
            except RunRefused as refused:
                print(f"error: {refused}", file=sys.stderr)
                return 1
            pairs.append((first, second) if parent_first else (second, first))
        print(table(workload, summarize(pairs, better)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
