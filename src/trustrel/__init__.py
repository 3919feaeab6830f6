"""Signed weighted-score calculus for directed nation-to-nation trust.

The package turns evidence about a pair of nations into a classified
relation: property catalogs cap what each kind of evidence may
contribute, assessments record what was observed, and the algebra folds
the per-category evidence masses into a single score on an interval
scale whose middle band separates hostile from neutral from friendly.
A relation store keeps the directed results, and a CLI plus report
layer expose validation, evaluation, matrices, and what-if sweeps.
"""

from .algebra import (
    CATEGORIES,
    DEFAULT_SIGNS,
    TOLERANCE,
    Band,
    BandTable,
    CategoryMassVector,
    RelationCategory,
    ScalarBounds,
    ScalarConfig,
    StrengthInterpretation,
    TrustEvaluation,
    WeightVector,
    classify,
    classify_extended,
    compute_bounds,
    compute_strength,
    compute_trust_mass,
    evaluate,
    interpret_strength,
)
from .catalog import (
    Assessment,
    AssessmentEntry,
    AssessmentReport,
    DateWindow,
    EvidenceLink,
    PropertyCatalog,
    PropertyDef,
    aggregate_masses,
    assessment_from_dict,
    assessment_to_dict,
    catalog_from_dict,
    catalog_to_dict,
    default_catalog,
    load_assessment,
    load_catalog,
    save_assessment,
    save_catalog,
    validate_assessment,
)
from .errors import SchemaError, TrustrelError, ValidationError
from .relations import Nation, RelationRecord, RelationStore
from .report import (
    EvaluationReport,
    SensitivitySpec,
    SweepResult,
    SweepRow,
    band_table_from_dict,
    band_table_to_dict,
    build_report,
    load_band_table,
    reweight,
    run_whatif,
)

__version__ = "0.1.0"

__all__ = [
    "Assessment",
    "AssessmentEntry",
    "AssessmentReport",
    "Band",
    "BandTable",
    "CATEGORIES",
    "CategoryMassVector",
    "DateWindow",
    "DEFAULT_SIGNS",
    "EvaluationReport",
    "EvidenceLink",
    "Nation",
    "PropertyCatalog",
    "PropertyDef",
    "RelationCategory",
    "RelationRecord",
    "RelationStore",
    "ScalarBounds",
    "ScalarConfig",
    "SchemaError",
    "SensitivitySpec",
    "StrengthInterpretation",
    "SweepResult",
    "SweepRow",
    "TOLERANCE",
    "TrustEvaluation",
    "TrustrelError",
    "ValidationError",
    "WeightVector",
    "aggregate_masses",
    "assessment_from_dict",
    "assessment_to_dict",
    "band_table_from_dict",
    "band_table_to_dict",
    "build_report",
    "catalog_from_dict",
    "catalog_to_dict",
    "classify",
    "classify_extended",
    "compute_bounds",
    "compute_strength",
    "compute_trust_mass",
    "default_catalog",
    "evaluate",
    "interpret_strength",
    "load_assessment",
    "load_band_table",
    "load_catalog",
    "reweight",
    "run_whatif",
    "save_assessment",
    "save_catalog",
    "validate_assessment",
]
