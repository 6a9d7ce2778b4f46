"""Normalization completeness analysis for relational schemas.

Parse a schema description, classify each relation's normal form up to BCNF,
split its functional dependencies into preventing and non-preventing sets,
score how close each relation is to the next normal form (exact rational
arithmetic throughout), and decompose step by step until every relation
reaches BCNF.

``import normlens`` loads no submodule: each exported name is looked up in
its home module on first access, so a caller pays only for what it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Every exported name, under the module that defines it.
_EXPORTS = {
    "classify": ("FDPartition", "partition_preventing"),
    "completeness": ("RelationNC", "SchemaNC", "fuzzy_membership", "relation_nc", "schema_nc"),
    "dsl": (
        "CandidateKeys", "ParseDiagnostic", "ParseResult", "emit_report", "emit_schema",
        "parse_schema", "write_report",
    ),
    "errors": (
        "AlreadyBCNFError",
        "CapacityError",
        "DecompositionError",
        "ForeignAttributeError",
        "InvalidSchemaError",
        "NormlensError",
        "UnknownRelationError",
    ),
    "fd": ("DEFAULT_KEY_CAP", "candidate_keys", "closure", "is_superkey", "project_fds"),
    "model": (
        "AttributeSpec",
        "ClassificationMode",
        "FunctionalDependency",
        "NormalForm",
        "RelationSchema",
        "Schema",
        "Severity",
        "ValidationReport",
        "Violation",
        "normalize_fds",
        "truncated",
        "validate_schema",
    ),
    "transform": ("TransformStep", "TransformTrace", "decompose_step", "normalize_to_bcnf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str) -> object:
    # Read from the home module on every access and never cached here, so a
    # name rebound there (as a tracer does) is what this package returns too.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
