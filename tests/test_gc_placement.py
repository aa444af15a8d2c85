"""`tools/gc_placement.py`'s census of type groups, on a toy object list."""

import importlib.util
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gc_placement.py"
_spec = importlib.util.spec_from_file_location("gc_placement", TOOL)
gc_placement = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gc_placement)


class Record:
    pass


def test_census_names_the_type_groups_that_grew_most():
    before = gc_placement.type_groups([{}, {}, Record()])
    after = gc_placement.type_groups(
        [{}, {}, *(Record() for _ in range(5)), (1,), (2,), (3,), [], [], set()])
    assert before == Counter({"dict": 2, "Record": 1})
    # dict did not grow, so it is not named
    assert gc_placement.largest_growth(before, after) == "Record +4, tuple +3, list +2, set +1"
    assert gc_placement.largest_growth(before, after, count=2) == "Record +4, tuple +3"
    assert gc_placement.largest_growth(after, before) == ""
