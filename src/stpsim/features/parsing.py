"""Text formats for feature models and configurations.

Model files (``.fm``) are line-oriented UTF-8: indentation of two spaces
per level encodes the tree, each feature line reads

    [abstract|concrete] [mandatory|optional] <Name> [group:and|or|alt]

and an optional trailing section headed ``constraints:`` holds one formula
per line. Configuration files (``.cfg``) list one selected feature name
per line. ``#`` comments and blank lines are allowed in both. A tree or a
constraint nested deeper than ``formula.MAX_NESTING`` levels is refused.
"""

from __future__ import annotations

import re

from . import formula as fm
from .model import (
    Configuration,
    CrossTreeConstraint,
    Feature,
    FeatureKind,
    FeatureModel,
    GroupKind,
    ModelSyntaxError,
    Optionality,
)

_FEATURE_LINE = re.compile(
    r"^(?P<kind>abstract|concrete)\s+"
    r"(?P<opt>mandatory|optional)\s+"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s+group:(?P<group>and|or|alt))?$"
)

_NAME_LINE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.rstrip()


_KIND = {kind.value: kind for kind in FeatureKind}
_OPTIONALITY = {optionality.value: optionality for optionality in Optionality}
# `group:and` and no group mark alike an and-group, or a leaf without children
_GROUP = {"or": GroupKind.OR, "alt": GroupKind.ALTERNATIVE}


def _close(stack: list[tuple], depth: int) -> None:
    """Freeze each open entry at `depth` or deeper into its parent's children."""
    while stack[-1][0] >= depth:
        _, name, kind, optionality, group, children = stack.pop()
        group = _GROUP.get(group) or (GroupKind.AND if children else GroupKind.LEAF)
        stack[-1][5].append(Feature(name, kind, optionality, group, tuple(children)))


def parse_feature_model(text: str) -> FeatureModel:
    # The open path to the last feature line, below the document's entry at
    # depth -1, as (depth, name, kind, optionality, group, children) entries.
    stack: list[tuple] = [(-1, None, None, None, None, [])]
    constraint_lines: list[tuple[int, str]] = []
    in_constraints = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        body = line.lstrip()
        if "\t" in line[: len(line) - len(body)]:
            raise ModelSyntaxError("tabs are not allowed in indentation", lineno)

        if in_constraints:
            constraint_lines.append((lineno, body))
            continue

        if body == "constraints:":
            if line != "constraints:":
                raise ModelSyntaxError("'constraints:' must start at column 1", lineno)
            in_constraints = True
            continue

        indent = len(line) - len(line.lstrip(" "))
        if indent % 2 != 0:
            raise ModelSyntaxError("indentation must be a multiple of 2 spaces", lineno, indent + 1)
        depth = indent // 2
        if depth > fm.MAX_NESTING:
            raise ModelSyntaxError(
                f"feature tree nested deeper than {fm.MAX_NESTING} levels", lineno, indent + 1)

        match = _FEATURE_LINE.match(body)
        if not match:
            raise ModelSyntaxError(f"malformed feature line: {body!r}", lineno, indent + 1)
        kind, optionality, name, group = match.groups()
        if depth == 0 and len(stack) > 1:   # the root closes only at the end
            raise ModelSyntaxError("more than one root feature", lineno)
        if depth > 0 and len(stack) == 1:
            raise ModelSyntaxError("first feature must be unindented", lineno, indent + 1)
        _close(stack, depth)
        if stack[-1][0] != depth - 1:
            raise ModelSyntaxError("indentation jumps more than one level", lineno, indent + 1)
        stack.append((depth, name, _KIND[kind], _OPTIONALITY[optionality], group, []))

    if len(stack) == 1:
        raise ModelSyntaxError("empty model document", 1)

    constraints: list[CrossTreeConstraint] = []
    for lineno, body in constraint_lines:
        try:
            parsed = fm.parse(body)
        except fm.FormulaSyntaxError as exc:
            raise ModelSyntaxError(f"bad constraint: {exc}", lineno, exc.position + 1) from None
        constraints.append(CrossTreeConstraint(parsed))

    _close(stack, 0)
    return FeatureModel(stack[0][5][0], tuple(constraints))


def serialize_feature_model(model: FeatureModel) -> str:
    lines: list[str] = []

    def emit(feature: Feature, depth: int) -> None:
        parts = [feature.kind.value, feature.optionality.value, feature.name]
        if feature.children:    # a model has no leaf with children nor childless or/alt
            parts.append(f"group:{feature.group.value}")
        lines.append("  " * depth + " ".join(parts))
        for child in feature.children:
            emit(child, depth + 1)

    emit(model.root, 0)
    if model.constraints:
        lines.append("constraints:")
        for constraint in model.constraints:
            lines.append(constraint.describe())
    return "\n".join(lines) + "\n"


def parse_configuration(text: str) -> Configuration:
    selected: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if not _NAME_LINE.match(line):
            raise ModelSyntaxError(f"malformed configuration line: {line!r}", lineno)
        selected.add(line)
    return Configuration(frozenset(selected))


def serialize_configuration(cfg: Configuration) -> str:
    return "\n".join(sorted(cfg.selected)) + "\n"
