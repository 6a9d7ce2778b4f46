"""Exception hierarchy shared across the package."""

from __future__ import annotations

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .model import ValidationReport


class NormlensError(Exception):
    """Base class for every error raised by this package."""


class InvalidSchemaError(NormlensError, ValueError):
    """An analysis entry got a schema that ``validate_schema`` rejects; ``report`` says why."""

    def __init__(self, report: ValidationReport) -> None:
        super().__init__(report)  # the report is the one argument, so a pickled copy keeps it
        self.report = report

    def __str__(self) -> str:
        return f"invalid schema: {'; '.join(v.message for v in self.report.errors)}"


class ForeignAttributeError(NormlensError, ValueError):
    """An attribute set mentions attributes outside the relation it targets."""


class CapacityError(NormlensError):
    """Candidate-key search refused: the heading exceeds the configured cap."""


class UnknownRelationError(NormlensError, LookupError):
    """A relation name does not exist in the schema."""


class AlreadyBCNFError(NormlensError):
    """Decomposition requested on a relation that is already in BCNF."""


class DecompositionError(NormlensError):
    """A decomposition step cannot be applied or cannot make progress."""
