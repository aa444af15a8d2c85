"""Line-level mutations of a text input, drawn through Hypothesis.

Each mutation drops a line, duplicates one, swaps two, truncates one at a
field boundary or inserts one character. The fuzz tests of `.scn`, `.fm`,
`.cfg` and machine files apply one to three of them to a shipped file.
"""

from hypothesis import strategies as st

# characters an inserted typo may be: separators (the machine report's `|`
# too), signs, digits, letters
INSERTED = " \t=,:#|-_.+0159AEKZaekz"
BOUNDARIES = " =,:"


def _drop(lines, data):
    del lines[data.draw(st.integers(0, len(lines) - 1))]


def _duplicate(lines, data):
    index = data.draw(st.integers(0, len(lines) - 1))
    lines.insert(index, lines[index])


def _swap(lines, data):
    first = data.draw(st.integers(0, len(lines) - 1))
    second = data.draw(st.integers(0, len(lines) - 1))
    lines[first], lines[second] = lines[second], lines[first]


def _truncate(lines, data):
    index = data.draw(st.integers(0, len(lines) - 1))
    cuts = [at for at, char in enumerate(lines[index]) if char in BOUNDARIES]
    if cuts:
        lines[index] = lines[index][:data.draw(st.sampled_from(cuts))]


def _insert(lines, data):
    index = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(0, len(lines[index])))
    char = data.draw(st.sampled_from(INSERTED))
    lines[index] = lines[index][:at] + char + lines[index][at:]


MUTATIONS = (_drop, _duplicate, _swap, _truncate, _insert)


def mutate(lines, data):
    """`lines` with one to three mutations drawn from `data`, as text."""
    lines = list(lines)
    for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if lines:
            mutation(lines, data)
    return "\n".join(lines) + "\n"
