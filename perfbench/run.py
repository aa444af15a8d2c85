"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's scenario (see workloads.py). The run
first checks that the harness produces the CLI's bytes on every shipped
(product, scenario) pair, then repeats the workload for S seconds after
one untimed warm-up repeat, checking every repeat. A repeat that fails its
check counts in ``failed`` and is never timed.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the timed repeats. With ``--trace 1`` untraced and traced repeats
alternate: the metrics are the per-layer ones, the median over the traced
repeats, plus ``trace.overhead`` (median traced over median untraced wall
time). The spans of the last traced repeat are written to
``perfbench/out/``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "orders_per_s": "orders/s",
    "report_s": "s",
    "report_mb": "MB",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def scaled(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Times converted to reference seconds (see harness.REFERENCE_S)."""
    return {name: value * scale if layer_unit(name) in ("s", "us") else value
            for name, value in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Repeater:
    """The repeats of one run, with their outcome counts."""

    def __init__(self, harness, spans, product: str, text: str):
        self.harness, self.spans = harness, spans
        self.product, self.text = product, text
        self.attempted = self.failed = 0
        self.digests: set[str] = set()

    def repeat(self, traced: bool):
        """One checked repeat: (Repeat, Tracer or None), or None if it failed."""
        gc.collect()
        self.attempted += 1
        tracer = None
        if not traced:
            self.spans.assert_untraced()
        try:
            if traced:
                with self.spans.Tracer() as tracer:
                    result = self.harness.run_once(self.product, self.text)
            else:
                result = self.harness.run_once(self.product, self.text)
        except Exception:  # a crashing repeat is a failed repeat; report it and go on
            traceback.print_exc()
            self.failed += 1
            return None
        self.digests.add(result.digest)
        if result.failures:
            print(f"repeat {self.attempted} failed: {'; '.join(result.failures[:5])}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return result, tracer


def median(values, default=0.0):
    return statistics.median(values) if values else default


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stpsim" / "__init__.py").is_file():
        print("error: the program's source (src/stpsim) is not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import spans

    workload = WORKLOADS[args.workload]
    text = workload.scenario_text(args.seed)
    mismatches = harness.cli_parity()
    for mismatch in mismatches:
        print(f"CLI parity mismatch: {mismatch}", file=sys.stderr)

    repeater = Repeater(harness, spans, workload.product, text)
    repeater.repeat(traced=False)  # warm-up: checked, not timed
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or repeater.attempted <= MIN_REPEATS:
        outcome = repeater.repeat(traced=False)
        if outcome:
            untraced.append(outcome[0])
        if args.trace:
            outcome = repeater.repeat(traced=True)
            if outcome:
                traced.append(outcome)

    if args.trace:
        per_repeat = [scaled(spans.layer_metrics(tracer.spans), r.wall_s / sum(r.raw_s[:3]))
                      for r, tracer in traced]
        metrics = {name: median([m[name] for m in per_repeat])
                   for name in (per_repeat[0] if per_repeat else {})}
        metrics["trace.overhead"] = (median([r.wall_s for r, _ in traced])
                                     / median([r.wall_s for r in untraced], 1.0))
        if traced:
            traced[-1][1].write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": median([r.setup_s for r in untraced]),
            "orders_per_s": median([r.orders / r.life_cycle_s for r in untraced]),
            "report_s": median([r.report_s for r in untraced]),
            "report_mb": untraced[-1].report_bytes / 1e6 if untraced else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    deterministic = len(repeater.digests) <= 1
    if not deterministic:
        print(f"machine output differs between repeats: {len(repeater.digests)} digests",
              file=sys.stderr)
    correct = not mismatches and repeater.failed == 0 and deterministic
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}: {repeater.attempted} repeats, {repeater.failed} failed, "
          f"{len(untraced)} untraced and {len(traced)} traced timed")
    raw = [median([r.raw_s[i] for r in untraced]) for i in range(4)]
    print("median wall seconds, unscaled: setup {:.4g}, life cycle {:.4g}, report {:.4g}, "
          "reference kernel {:.4g}".format(*raw))
    print(json.dumps({
        "correct": correct,
        "attempted": repeater.attempted,
        "failed": repeater.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
