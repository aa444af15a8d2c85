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
    closed = set(selected)
    pending = list(closed)
    while pending:
        name = pending.pop()
        feature = model.feature(name)
        implied = [model.parent_of(name)]
        if feature.group is GroupKind.AND:
            implied += [child.name for child in feature.children
                        if child.optionality is Optionality.MANDATORY]
        for other in implied:
            if other is not None and other not in closed:
                closed.add(other)
                pending.append(other)
    return frozenset(closed)


def _group_violations(model: FeatureModel, selected: frozenset[str]) -> list[Violation]:
    """Root and group checks; parents and mandatory children need none,
    because `selected` is already closed under `normalize`."""
    violations: list[Violation] = []
    root = model.root.name
    if root not in selected:
        violations.append(Violation("RootNotSelected", f"root feature {root} is not selected"))
    for name in model.feature_names():
        if name not in selected:
            continue
        feature = model.feature(name)
        chosen = [child.name for child in feature.children if child.name in selected]
        if feature.group is GroupKind.ALTERNATIVE and len(chosen) != 1:
            violations.append(Violation(
                "AlternativeCardinality",
                f"alternative group {name} selects {len(chosen)} children "
                f"({', '.join(chosen) or 'none'}), needs exactly 1",
            ))
        elif feature.group is GroupKind.OR and not chosen:
            violations.append(Violation(
                "OrCardinality", f"or group {name} selects no children, needs at least 1"))
    return violations


def validate_configuration(model: FeatureModel, cfg: Configuration) -> ValidationReport:
    unknown = sorted(name for name in cfg.selected if name not in model)
    if unknown:
        raise UnknownFeatureName(", ".join(unknown))

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
    bindings: dict[str, tuple[str, ...]] = {}
    for point in model.variation_points():
        if point.name not in selected:
            continue
        chosen = tuple(
            descendant
            for descendant in model.concrete_descendants(point.name)
            if descendant in selected
        )
        bindings[point.name] = chosen
    return ProductSpec(name, Configuration(selected), bindings)
