"""Configuration validation, exhaustive enumeration, and product derivation.

Users list the features they intend; `normalize` closes that intent upward
(ancestors) and downward (mandatory children of selected and-parents) before
the group and constraint checks run. Normalization only ever adds features,
so a selection conflict surfaces as a validation failure instead of being
silently repaired away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    Configuration,
    Feature,
    FeatureKind,
    FeatureModel,
    GroupKind,
    InvalidConfiguration,
    ModelTooLarge,
    Optionality,
    ProductSpec,
    UnknownFeatureName,
)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]
    normalized: frozenset[str]

    def describe(self) -> str:
        if self.valid:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def normalize(model: FeatureModel, selected: frozenset[str]) -> frozenset[str]:
    """Monotone closure: add every ancestor, and every mandatory child of a
    selected and-parent, until nothing is left to add. Never removes a
    selection."""
    by_name, parent = model._by_name, model._parent
    and_group, mandatory = GroupKind.AND, Optionality.MANDATORY
    closed = set(selected)
    pending = list(closed)
    try:
        while pending:
            name = pending.pop()
            feature = by_name[name]
            implied = [parent[name]]
            if feature.group is and_group:
                implied += [child.name for child in feature.children
                            if child.optionality is mandatory]
            for other in implied:
                if other is not None and other not in closed:
                    closed.add(other)
                    pending.append(other)
    except KeyError as missing:
        raise UnknownFeatureName(missing.args[0]) from None
    return frozenset(closed)


def _group_violations(model: FeatureModel, selected: frozenset[str]) -> list[Violation]:
    """Root and group checks; parents and mandatory children need none,
    because `selected` is already closed under `normalize`."""
    violations: list[Violation] = []
    root = model.root.name
    if root not in selected:
        violations.append(Violation("RootNotSelected", f"root feature {root} is not selected"))
    alternative, or_group = GroupKind.ALTERNATIVE, GroupKind.OR
    for name, feature in model._by_name.items():
        group = feature.group
        if group not in (alternative, or_group) or name not in selected:
            continue
        chosen = [child.name for child in feature.children if child.name in selected]
        if group is alternative and len(chosen) != 1:
            violations.append(Violation(
                "AlternativeCardinality",
                f"alternative group {name} selects {len(chosen)} children "
                f"({', '.join(chosen) or 'none'}), needs exactly 1",
            ))
        elif group is or_group and not chosen:
            violations.append(Violation(
                "OrCardinality", f"or group {name} selects no children, needs at least 1"))
    return violations


def validate_configuration(model: FeatureModel, cfg: Configuration) -> ValidationReport:
    unknown = sorted(cfg.selected - model._by_name.keys())
    if unknown:
        raise UnknownFeatureName(*unknown)

    normalized = normalize(model, cfg.selected)
    violations = _group_violations(model, normalized)
    for constraint in model.constraints:
        if not constraint.holds(normalized):
            violations.append(Violation(
                "ConstraintViolated", f"cross-tree constraint violated: {constraint.describe()}"))
    return ValidationReport(not violations, tuple(violations), normalized)


def enumerate_valid_configurations(model: FeatureModel, max_features: int = 20) -> list[Configuration]:
    """Every valid configuration in normal form, by exhaustive subset search.

    Selections that normalize to a different set are skipped: each valid
    configuration appears exactly once, as its own closure. Output is sorted
    lexicographically by selected-name list.
    """
    names = model.feature_names()
    if len(names) > max_features:
        raise ModelTooLarge(f"model has {len(names)} features, cap is {max_features}")

    found: list[Configuration] = []
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            subset = frozenset(combo)
            if normalize(model, subset) != subset:
                continue
            if validate_configuration(model, Configuration(subset)).valid:
                found.append(Configuration(subset))
    found.sort(key=lambda cfg: tuple(sorted(cfg.selected)))
    return found


def derive_product(model: FeatureModel, cfg: Configuration, name: str) -> ProductSpec:
    """Project a valid configuration onto its variation-point bindings."""
    report = validate_configuration(model, cfg)
    if not report.valid:
        raise InvalidConfiguration(report)

    selected = report.normalized
    concrete = FeatureKind.CONCRETE
    bindings: dict[str, list[str]] = {}

    # One pre-order walk of the selected subtree: a concrete feature joins
    # the bindings in `points`, those of every variation point above it.
    def walk(feature: Feature, points: tuple[list[str], ...]) -> None:
        if feature.kind is concrete:
            for chosen in points:
                chosen.append(feature.name)
        elif feature.is_variation_point:
            bindings[feature.name] = chosen = []
            points = (*points, chosen)
        for child in feature.children:
            if child.name in selected:
                walk(child, points)

    walk(model.root, ())
    return ProductSpec(name, Configuration(selected),
                       {point: tuple(chosen) for point, chosen in bindings.items()})
