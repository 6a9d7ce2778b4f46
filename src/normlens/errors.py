"""Exception hierarchy shared across the package."""

from __future__ import annotations


class NormlensError(Exception):
    """Base class for every error raised by this package."""


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
