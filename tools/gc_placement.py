"""Where the cyclic collector's gen-2 collections fall in benchmark repeats.

    python3 tools/gc_placement.py --workload NAME --seed N --repeats R

Run it from the root of a checkout. It repeats the workload the way
``perfbench/run.py`` does: the CLI parity gate, one warm-up repeat, then R
repeats, each a ``gc.collect()`` followed by ``harness.run_once``. It
changes nothing under ``perfbench/``: it only wraps the harness's phase
functions for the length of the run, to know which phase is running when a
``gc.callbacks`` callback sees a collection start.

For each repeat it prints every gen-2 collection as the phase it fell in
(set-up, life cycle, read-back, or reference-kernel run 0-3), its index
among all the collections of that phase, counting from 0, and how many
collections that phase had: ``kernel run 3 #21 of 28`` has 6 more
collections after it in its phase, which tells how far a change in the
allocations before it would have to go to move it to the next phase. It
also prints the number of GC-tracked objects (live or awaiting collection)
right after the life cycle, and their growth since just before the repeat,
which leaves out the objects the program's code itself is made of. Since each
timed phase is scaled by the kernel runs around it, a change that moves a
gen-2 collection from one phase to another moves the benchmark's numbers
without any code getting faster or slower.

A last census repeat, whose collections are not reported, runs
``gc.collect()`` right after the life cycle and prints the objects still
tracked then: the live ones only. A change that only allocates fewer
temporaries moves the uncollected count but not this one. The census line
also names the five type groups that grew most over the repeat, such as
``AuditEvent +864``, so it shows which records a change cut. The census
repeat comes after the others, so its collection moves no collection they
report.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PHASES = {"setup": "set-up", "life_cycle": "life cycle", "read_back": "read-back"}


def type_groups(objects) -> Counter:
    """How many of `objects` each type name has."""
    return Counter(type(obj).__name__ for obj in objects)


def largest_growth(before: Counter, after: Counter, count: int = 5) -> str:
    """The `count` type groups that grew most from `before` to `after`, as
    ``name +n`` joined by commas, the largest first."""
    return ", ".join(f"{name} +{grown}" for name, grown in (after - before).most_common(count))


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
        self.census = False  # collect right after the life cycle, then count
        self.groups_after_life_cycle: Counter = Counter()  # filled in the census only

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
                if self.census:
                    gc.collect()
                self.tracked_after_life_cycle = len(gc.get_objects())
                if self.census:
                    self.groups_after_life_cycle = type_groups(gc.get_objects())
            return result

        setattr(harness, name, labelled)
        return original

    def gen2(self) -> list[str]:
        """'<phase> #<index in phase> of <collections in phase>' for every
        gen-2 collection so far."""
        counts = Counter(self.phases)
        seen: dict[str, int] = {}
        placed = []
        for phase, generation in zip(self.phases, self.generations):
            index = seen.get(phase, 0)
            seen[phase] = index + 1
            if generation == 2:
                placed.append(f"{phase} #{index} of {counts[phase]}")
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
        for repeat in range(args.repeats + 2):
            gc.collect()
            probe.reset()
            probe.census = repeat > args.repeats
            # counted first, so the counter is among the objects both counts see
            groups_before = type_groups(gc.get_objects()) if probe.census else None
            before = len(gc.get_objects())
            failed += bool(harness.run_once(workload.product, text).failures)
            counted = (f"{probe.tracked_after_life_cycle} tracked objects after the life cycle"
                       f"{' and a gc.collect()' if probe.census else ''} "
                       f"({probe.tracked_after_life_cycle - before:+})")
            if probe.census:
                grown = largest_growth(groups_before, probe.groups_after_life_cycle)
                print(f"{args.workload} seed {args.seed} census: {counted}; "
                      f"most grown: {grown or 'none'}")
            else:
                label = "warm-up" if repeat == 0 else f"repeat {repeat}"
                print(f"{args.workload} seed {args.seed} {label}: gen-2 at "
                      f"{', '.join(probe.gen2()) or 'none'}; {counted}")
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
