"""Feature modeling: parse, validate, enumerate, derive."""

from .analysis import (
    ValidationReport,
    Violation,
    derive_product,
    enumerate_valid_configurations,
    normalize,
    validate_configuration,
)
from .model import (
    Configuration,
    CrossTreeConstraint,
    DuplicateFeatureName,
    Feature,
    FeatureKind,
    FeatureModel,
    FeatureModelError,
    GroupKind,
    InvalidConfiguration,
    MalformedGroup,
    ModelSyntaxError,
    ModelTooLarge,
    Optionality,
    ProductSpec,
    UnknownFeatureName,
    UnknownNameInConstraint,
)
from .parsing import (
    parse_configuration,
    parse_feature_model,
)

__all__ = [
    "Configuration",
    "CrossTreeConstraint",
    "DuplicateFeatureName",
    "Feature",
    "FeatureKind",
    "FeatureModel",
    "FeatureModelError",
    "GroupKind",
    "InvalidConfiguration",
    "MalformedGroup",
    "ModelSyntaxError",
    "ModelTooLarge",
    "Optionality",
    "ProductSpec",
    "UnknownFeatureName",
    "UnknownNameInConstraint",
    "ValidationReport",
    "Violation",
    "derive_product",
    "enumerate_valid_configurations",
    "normalize",
    "parse_configuration",
    "parse_feature_model",
    "validate_configuration",
]
