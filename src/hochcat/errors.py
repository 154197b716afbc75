"""Error taxonomy.

Every error's JSON form is ``payload(exc)``: its class name, its message
and the keyword ``details`` it was raised with, so failures are machine
readable as well.
"""

from __future__ import annotations


class HochcatError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str = "", **details):
        super().__init__(message)
        self.details = details


def payload(exc: Exception) -> dict:
    """``{"kind": <class name>, "message": str(exc), **details}``, for a
    ``HochcatError`` or an ``OSError`` (which has no details)."""
    return {"kind": type(exc).__name__, "message": str(exc), **getattr(exc, "details", {})}


class BadFieldSpec(HochcatError):
    """Field selector could not be parsed (unknown syntax or p not prime)."""


# --- category validation -------------------------------------------------

class CategoryError(HochcatError):
    """A category description violates the axioms or is malformed."""


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
        super().__init__("category does not satisfy: " + ", ".join(predicates),
                         predicates=list(predicates))


# --- linear algebra and complexes ------------------------------------------

class DimensionCapExceeded(HochcatError):
    def __init__(self, degree: int, required: int, cap: int):
        super().__init__(f"degree {degree} needs {required} basis elements, cap is {cap}",
                         degree=degree, required=required, cap=cap)
        self.degree, self.required, self.cap = degree, required, cap


class NotAnIntegerMatrix(HochcatError):
    """A matrix over Q with an entry that is no int was asked for its
    reduction into GF(p), which only an integer matrix has."""


class NotASubspace(HochcatError):
    """Claimed containment of subspaces fails; signals a broken complex."""


class NotChainCompatible(HochcatError):
    """A map does not respect the given cocycle/coboundary subspaces."""


class NotASubcomplex(HochcatError):
    """A differential left the subcomplex it was restricted to."""
