"""Error taxonomy.

Every error carries a ``payload()`` suitable for the JSON reports emitted by
the CLI, so failures are machine readable as well.
"""

from __future__ import annotations


class HochcatError(Exception):
    """Base class for all errors raised by this package."""

    def payload(self) -> dict:
        return {"kind": type(self).__name__, "message": str(self)}


class BadFieldSpec(HochcatError):
    """Field selector could not be parsed (unknown syntax or p not prime)."""


# --- category validation -------------------------------------------------

class CategoryError(HochcatError):
    """A category description violates the axioms or is malformed."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def payload(self) -> dict:
        out = {"kind": type(self).__name__, "message": str(self)}
        out.update(self.details)
        return out


class DuplicateName(CategoryError):
    pass


class MissingIdentity(CategoryError):
    pass


class MissingComposite(CategoryError):
    pass


class IllTypedComposite(CategoryError):
    pass


class AssociativityFailure(CategoryError):
    pass


class IdentityLawViolation(CategoryError):
    pass


class InvalidCategory(CategoryError):
    """Catch-all for semantic problems outside the named kinds."""


class CategoryFormatError(CategoryError):
    """Syntax error in the line-oriented category text format."""


# --- fixtures -------------------------------------------------------------

class NotAGroup(HochcatError):
    pass


class NotAPartialOrder(HochcatError):
    pass


class UnknownFixture(HochcatError):
    pass


# --- structural hypotheses ------------------------------------------------

class HypothesisViolated(HochcatError):
    """An operation was invoked on a category failing a required predicate."""

    def __init__(self, *predicates: str):
        self.predicates = tuple(predicates)
        super().__init__("category does not satisfy: " + ", ".join(predicates))

    def payload(self) -> dict:
        return {
            "kind": "HypothesisViolated",
            "message": str(self),
            "predicates": list(self.predicates),
        }


# --- linear algebra and complexes ------------------------------------------

class DimensionCapExceeded(HochcatError):
    def __init__(self, degree: int, required: int, cap: int):
        self.degree = degree
        self.required = required
        self.cap = cap
        super().__init__(
            f"degree {degree} needs {required} basis elements, cap is {cap}"
        )

    def payload(self) -> dict:
        return {
            "kind": "DimensionCapExceeded",
            "message": str(self),
            "degree": self.degree,
            "required": self.required,
            "cap": self.cap,
        }


class NotAnIntegerMatrix(HochcatError):
    """A matrix over Q with an entry that is no int was asked for its
    reduction into GF(p), which only an integer matrix has."""


class NotASubspace(HochcatError):
    """Claimed containment of subspaces fails; signals a broken complex."""


class NotChainCompatible(HochcatError):
    """A map does not respect the given cocycle/coboundary subspaces."""


class NotASubcomplex(HochcatError):
    """A differential left the subcomplex it was restricted to."""
