"""Text formats for feature models and configurations.

Model files (``.fm``) are line-oriented UTF-8: indentation of two spaces
per level encodes the tree, each feature line reads

    [abstract|concrete] [mandatory|optional] <Name> [group:and|or|alt]

and an optional trailing section headed ``constraints:`` holds one formula
per line. Configuration files (``.cfg``) list one selected feature name
per line. ``#`` comments and blank lines are allowed in both.
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


class _Node:
    def __init__(self, kind: str, opt: str, name: str, group: str | None):
        self.kind = kind
        self.opt = opt
        self.name = name
        self.group = group
        self.children: list["_Node"] = []

    def freeze(self) -> Feature:
        if self.group == "or":
            group = GroupKind.OR
        elif self.group == "alt":
            group = GroupKind.ALTERNATIVE
        elif self.children:
            group = GroupKind.AND
        else:
            group = GroupKind.LEAF
        return Feature(
            name=self.name,
            kind=FeatureKind(self.kind),
            optionality=Optionality(self.opt),
            group=group,
            children=tuple(child.freeze() for child in self.children),
        )


def parse_feature_model(text: str) -> FeatureModel:
    root: _Node | None = None
    stack: list[tuple[int, _Node]] = []  # (depth, node) path to the current feature
    constraint_lines: list[tuple[int, str]] = []
    in_constraints = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise ModelSyntaxError("tabs are not allowed in indentation", lineno)

        if in_constraints:
            constraint_lines.append((lineno, line.strip()))
            continue

        if line.strip() == "constraints:":
            if line != "constraints:":
                raise ModelSyntaxError("'constraints:' must start at column 1", lineno)
            in_constraints = True
            continue

        indent = len(line) - len(line.lstrip(" "))
        if indent % 2 != 0:
            raise ModelSyntaxError("indentation must be a multiple of 2 spaces", lineno, indent + 1)
        depth = indent // 2

        body = line.strip()
        match = _FEATURE_LINE.match(body)
        if not match:
            raise ModelSyntaxError(f"malformed feature line: {body!r}", lineno, indent + 1)
        node = _Node(*match.group("kind", "opt", "name", "group"))

        if depth == 0:
            if root is not None:
                raise ModelSyntaxError("more than one root feature", lineno)
            root = node
            stack = [(0, node)]
            continue
        if root is None:
            raise ModelSyntaxError("first feature must be unindented", lineno, indent + 1)

        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack or stack[-1][0] != depth - 1:
            raise ModelSyntaxError("indentation jumps more than one level", lineno, indent + 1)
        parent = stack[-1][1]
        parent.children.append(node)
        stack.append((depth, node))

    if root is None:
        raise ModelSyntaxError("empty model document", 1)

    constraints: list[CrossTreeConstraint] = []
    for lineno, body in constraint_lines:
        try:
            parsed = fm.parse(body)
        except fm.FormulaSyntaxError as exc:
            raise ModelSyntaxError(f"bad constraint: {exc}", lineno, exc.position + 1) from None
        constraints.append(CrossTreeConstraint(parsed))

    return FeatureModel(root.freeze(), tuple(constraints))


def serialize_feature_model(model: FeatureModel) -> str:
    lines: list[str] = []

    def emit(feature: Feature, depth: int) -> None:
        parts = [feature.kind.value, feature.optionality.value, feature.name]
        if feature.group in (GroupKind.OR, GroupKind.ALTERNATIVE):
            parts.append(f"group:{feature.group.value}")
        elif feature.group is GroupKind.AND and feature.children:
            parts.append("group:and")
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
