"""Feature model metamodel: trees of variation points and variants.

A feature tree plus a list of cross-tree constraints describes everything a
derivable ecosystem product can vary on. Abstract features classify or mark
variation points; concrete features are the variants actually bound into a
product. A variation point is an abstract feature owning an ``or`` or
``alternative`` group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import formula as fm


class FeatureModelError(Exception):
    pass


class ModelSyntaxError(FeatureModelError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateFeatureName(FeatureModelError):
    def __init__(self, name: str):
        super().__init__(f"duplicate feature {name!r}")


class UnknownNameInConstraint(FeatureModelError):
    pass


class MalformedGroup(FeatureModelError):
    pass


class UnknownFeatureName(FeatureModelError):
    def __init__(self, *names: str):
        super().__init__(
            f"unknown feature{'s' if len(names) > 1 else ''} {', '.join(map(repr, names))}")


class ModelTooLarge(FeatureModelError):
    pass


class InvalidConfiguration(FeatureModelError):
    """Raised when derivation is attempted from an invalid configuration."""

    def __init__(self, report):
        super().__init__(report.describe())
        self.report = report


class FeatureKind(enum.Enum):
    ABSTRACT = "abstract"
    CONCRETE = "concrete"


class Optionality(enum.Enum):
    MANDATORY = "mandatory"
    OPTIONAL = "optional"


class GroupKind(enum.Enum):
    AND = "and"
    OR = "or"
    ALTERNATIVE = "alt"
    LEAF = "leaf"


# the groups that make an abstract feature a variation point
_POINT_GROUPS = (GroupKind.OR, GroupKind.ALTERNATIVE)


@dataclass(frozen=True)
class Feature:
    name: str
    kind: FeatureKind
    optionality: Optionality
    group: GroupKind
    children: tuple["Feature", ...] = ()

    @property
    def is_variation_point(self) -> bool:
        return self.group in _POINT_GROUPS and self.kind is FeatureKind.ABSTRACT


@dataclass(frozen=True)
class CrossTreeConstraint:
    formula: fm.Formula

    def describe(self) -> str:
        return fm.render(self.formula)

    def holds(self, selected: frozenset[str]) -> bool:
        return fm.evaluate(self.formula, selected)


@dataclass(frozen=True)
class Configuration:
    """A set of intended feature selections; may be invalid against a model."""

    selected: frozenset[str]

    @classmethod
    def of(cls, *names: str) -> "Configuration":
        return cls(frozenset(names))


@dataclass(frozen=True)
class ProductSpec:
    """A derived product: a valid configuration plus its variant bindings.

    `bindings` maps each selected variation point to the ordered tuple of
    its selected concrete descendants.
    """

    product_name: str
    configuration: Configuration
    bindings: dict[str, tuple[str, ...]] = field(hash=False, default_factory=dict)


class FeatureModel:
    """A rooted feature tree with cross-tree constraints; immutable after build."""

    def __init__(self, root: Feature, constraints: tuple[CrossTreeConstraint, ...] = ()):
        self.root = root
        self.constraints = tuple(constraints)
        self._by_name: dict[str, Feature] = {}
        self._parent: dict[str, str | None] = {}
        self._index(root, None)
        for constraint in self.constraints:
            unknown = fm.names(constraint.formula) - self._by_name.keys()
            if unknown:
                raise UnknownNameInConstraint(
                    f"constraint {constraint.describe()!r} references unknown "
                    f"feature(s): {', '.join(sorted(unknown))}"
                )

    def _index(self, feature: Feature, parent: str | None) -> None:
        if feature.name in self._by_name:
            raise DuplicateFeatureName(feature.name)
        if feature.group in _POINT_GROUPS and len(feature.children) < 2:
            raise MalformedGroup(
                f"{feature.name}: {feature.group.value} group needs >= 2 children, "
                f"has {len(feature.children)}"
            )
        if feature.children and feature.group is GroupKind.LEAF:
            raise MalformedGroup(f"{feature.name}: leaf feature has children")
        self._by_name[feature.name] = feature
        self._parent[feature.name] = parent
        for child in feature.children:
            self._index(child, feature.name)

    def feature(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownFeatureName(name) from None

    def parent_of(self, name: str) -> str | None:
        self.feature(name)
        return self._parent[name]

    def feature_names(self) -> tuple[str, ...]:
        """All names in depth-first document order."""
        return tuple(self._by_name)

    def variation_points(self) -> tuple[Feature, ...]:
        return tuple(f for f in self._by_name.values() if f.is_variation_point)

    def concrete_descendants(self, name: str) -> tuple[str, ...]:
        """Concrete features strictly below `name`, in document order."""
        out: list[str] = []

        def walk(feature: Feature) -> None:
            for child in feature.children:
                if child.kind is FeatureKind.CONCRETE:
                    out.append(child.name)
                walk(child)

        walk(self.feature(name))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureModel):
            return NotImplemented
        return self.root == other.root and self.constraints == other.constraints

    def __len__(self) -> int:
        return len(self._by_name)
