"""Exception types shared across the package."""

from __future__ import annotations


class QuorderError(Exception):
    """Base class for all package errors."""


class ValidationError(QuorderError):
    """A structure failed its construction-time axiom checks."""


class NotAGroup(ValidationError):
    """Cayley table is not a group; `reason` names the first failed axiom."""

    def __init__(self, reason: str, witness: tuple = ()):
        self.reason = reason
        self.witness = witness
        super().__init__(f"not a group: {reason}" + (f" at {witness}" if witness else ""))


class NotAPermutation(ValidationError):
    def __init__(self, mapping) -> None:
        self.mapping = tuple(mapping)
        super().__init__(f"not a permutation: {self.mapping}")


class NotAnAutomorphism(ValidationError):
    def __init__(self, reason: str, witness: tuple = ()):
        self.reason = reason
        self.witness = witness
        super().__init__(f"not an automorphism: {reason}" + (f" at {witness}" if witness else ""))


class NotInvertible(ValidationError):
    """A scaling parameter is not a unit modulo the carrier size."""

    def __init__(self, alpha: int, modulus: int):
        self.alpha = alpha
        self.modulus = modulus
        super().__init__(f"{alpha} is not invertible mod {modulus}")


class NotAQuandle(ValidationError):
    """Table violates a quandle axiom; carries the axiom name and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a quandle: {axiom} fails at {witness}")


class DegenerateTriple(QuorderError):
    """A subbasis triple must have three pairwise distinct entries."""


class DiagonalPair(QuorderError):
    """A subbasis pair must have two distinct entries."""


class ResourceLimit(QuorderError):
    """An enumeration or closure exceeded its configured cap."""

    def __init__(self, what: str, requested, cap):
        self.what = what
        self.requested = requested
        self.cap = cap
        super().__init__(f"{what}: requested {requested} exceeds cap {cap}")


class InternalInconsistency(QuorderError):
    """Two independent computations of one answer disagree: a bug, not bad input.

    `space` names the order space (RCO, LCO, ...) and `verdicts` maps each
    computation to the answer it gave.
    """

    def __init__(self, space: str, verdicts: dict[str, bool], detail: str):
        self.space = space
        self.verdicts = dict(verdicts)
        super().__init__(detail)


class ParseError(QuorderError):
    """Malformed input document or builtin spec."""
