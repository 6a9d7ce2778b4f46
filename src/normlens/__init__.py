"""Normalization completeness analysis for relational schemas.

Parse a schema description, classify each relation's normal form up to BCNF,
split its functional dependencies into preventing and non-preventing sets,
score how close each relation is to the next normal form (exact rational
arithmetic throughout), and decompose step by step until every relation
reaches BCNF.
"""

from __future__ import annotations

from .classify import (
    ClassificationMode,
    FDPartition,
    classify_nf,
    partition_preventing,
)
from .completeness import (
    RelationNC,
    SchemaNC,
    fuzzy_membership,
    relation_nc,
    schema_nc,
    truncated,
)
from .dsl import (
    ParseDiagnostic,
    ParseResult,
    emit_report,
    emit_schema,
    parse_schema,
)
from .errors import (
    AlreadyBCNFError,
    CapacityError,
    DecompositionError,
    ForeignAttributeError,
    NormlensError,
    UnknownRelationError,
)
from .fd import (
    DEFAULT_KEY_CAP,
    candidate_keys,
    closure,
    is_superkey,
    project_fds,
)
from .model import (
    AttributeSpec,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    Schema,
    Severity,
    ValidationReport,
    Violation,
    normalize_fds,
    validate_schema,
)
from .transform import (
    TransformStep,
    TransformTrace,
    decompose_step,
    normalize_to_bcnf,
)

__version__ = "0.1.0"

__all__ = [
    "AlreadyBCNFError",
    "AttributeSpec",
    "CapacityError",
    "ClassificationMode",
    "DEFAULT_KEY_CAP",
    "DecompositionError",
    "FDPartition",
    "ForeignAttributeError",
    "FunctionalDependency",
    "NormalForm",
    "NormlensError",
    "ParseDiagnostic",
    "ParseResult",
    "RelationNC",
    "RelationSchema",
    "Schema",
    "SchemaNC",
    "Severity",
    "TransformStep",
    "TransformTrace",
    "UnknownRelationError",
    "ValidationReport",
    "Violation",
    "candidate_keys",
    "classify_nf",
    "closure",
    "decompose_step",
    "emit_report",
    "emit_schema",
    "fuzzy_membership",
    "is_superkey",
    "normalize_fds",
    "normalize_to_bcnf",
    "parse_schema",
    "partition_preventing",
    "project_fds",
    "relation_nc",
    "schema_nc",
    "truncated",
    "validate_schema",
    "__version__",
]
