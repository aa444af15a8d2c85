"""Where the cyclic collector's gen-2 collections fall in benchmark repeats.

    python3 tools/gc_placement.py --workload NAME --seed N --repeats R

Run it from the root of a checkout. It repeats the workload the way
``perfbench/run.py`` does: the CLI parity gate, one warm-up repeat, then R
repeats, each a ``gc.collect()`` followed by ``harness.run_once``. It
changes nothing under ``perfbench/``: it only wraps the harness's phase
functions for the length of the run, to know which phase is running when a
``gc.callbacks`` callback sees a collection start.

For each repeat it prints every gen-2 collection as the phase it fell in
(set-up, life cycle, read-back, or reference-kernel run 0-3) and its index
among all the collections of that phase, counting from 0. It also prints
the number of GC-tracked objects (live or awaiting collection) right after
the life cycle, and their growth since just before the repeat, which
leaves out the objects the program's code itself is made of. Since each
timed phase is scaled by the kernel runs around it, a change that moves a
gen-2 collection from one phase to another moves the benchmark's numbers
without any code getting faster or slower.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PHASES = {"setup": "set-up", "life_cycle": "life cycle", "read_back": "read-back"}


class Probe:
    """Labels each collection with the phase of `harness.run_once` it fell in."""

    def __init__(self) -> None:
        self.phase = "outside"
        self.kernel_runs = 0
        # one entry per collection, in parallel lists of existing strs and
        # small ints, so recording allocates no new tracked object
        self.phases: list[str] = []
        self.generations: list[int] = []
        self.tracked_after_life_cycle = 0

    def reset(self) -> None:
        self.phase = "outside"
        self.kernel_runs = 0
        self.phases.clear()
        self.generations.clear()

    def on_gc(self, stage: str, info: dict) -> None:
        if stage == "start":
            self.phases.append(self.phase)
            self.generations.append(info["generation"])

    def wrap(self, name: str, label: str | None):
        original = getattr(harness, name)

        def labelled(*args):
            if label is None:  # a kernel run: number it within the repeat
                self.phase = f"kernel run {self.kernel_runs}"
                self.kernel_runs += 1
            else:
                self.phase = label
            try:
                result = original(*args)
            finally:
                self.phase = "outside"
            if name == "life_cycle":
                self.tracked_after_life_cycle = len(gc.get_objects())
            return result

        setattr(harness, name, labelled)
        return original

    def gen2(self) -> list[str]:
        """'<phase> #<index in phase>' for every gen-2 collection so far."""
        seen: dict[str, int] = {}
        placed = []
        for phase, generation in zip(self.phases, self.generations):
            index = seen.get(phase, 0)
            seen[phase] = index + 1
            if generation == 2:
                placed.append(f"{phase} #{index}")
        return placed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--repeats", type=int, default=10)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    text = workload.scenario_text(args.seed)
    mismatches = harness.cli_parity()
    probe = Probe()
    originals = {name: probe.wrap(name, PHASES.get(name))
                 for name in ("setup", "life_cycle", "read_back", "calibration_s")}
    gc.callbacks.append(probe.on_gc)
    failed = 0
    try:
        for repeat in range(args.repeats + 1):
            gc.collect()
            probe.reset()
            before = len(gc.get_objects())
            result = harness.run_once(workload.product, text)
            failed += bool(result.failures)
            label = "warm-up" if repeat == 0 else f"repeat {repeat}"
            print(f"{args.workload} seed {args.seed} {label}: gen-2 at "
                  f"{', '.join(probe.gen2()) or 'none'}; "
                  f"{probe.tracked_after_life_cycle} tracked objects after the life cycle "
                  f"({probe.tracked_after_life_cycle - before:+})")
    finally:
        gc.callbacks.remove(probe.on_gc)
        for name, original in originals.items():
            setattr(harness, name, original)
    for mismatch in mismatches:
        print(f"CLI parity mismatch: {mismatch}", file=sys.stderr)
    if failed:
        print(f"{failed} repeats failed their checks", file=sys.stderr)
    return 1 if mismatches or failed else 0


if __name__ == "__main__":
    sys.exit(main())
