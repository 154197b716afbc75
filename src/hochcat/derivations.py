"""Graded derivations of kC and characters on the adjoint category.

Theorem B is degree one of Theorem A.  kC is graded by the semigroup of
object pairs with nonempty hom sets, and the degree-1 relative cochains are
exactly the grading-preserving linear maps; the graded derivations are the
degree-1 cocycles of the relative complex, ``ker d_1``.  The characters on
F^ad, scalar functions on morphisms additive under composition, are the
degree-1 cocycles of its nerve, ``ker δ^1``.  The degree-1 comparison map
restricts to a bijection between the two kernels, and this module certifies
that bijection by explicit matrices: T and X restricted to the two kernels
(``matrix.restricted_map``) and their two products.  T¹_rel is read as its
index array (``matrix.Reading``, from ``comparison``): the derivation basis
times ``T¹_relᵀ`` is T of each derivation, and the character basis times
``T¹_rel`` is X of each character, so neither map is built as a matrix.

The characters are ``nerve.simplicial_cocycle_space`` of F^ad, which
eliminates only the skeleton's ``δ^1`` when F^ad has isomorphic objects
(the cocycle lemma in ``nerve``).  The derivations are X of the characters
once three checks hold; ``d_1`` is eliminated only when one fails.

Lemma (derivations through X): suppose

(a) ``verify_two_sided_on_relative(cat, field, 1)``: ``X_rel T_rel = I``
    and ``T_rel X_rel = I`` in degree 1;
(b) ``X²_rel T²_rel = I``: T² reads only relative columns, and a left
    inverse makes ``T²_rel`` injective;
(c) ``T²_rel d_1 = δ^1 T¹_rel`` exactly (the sign ``(−1)^2`` is +1).

Then ``ker d_1 = X¹_rel(ker δ^1)``:

* for a character z, ``T² d_1 X z = δ^1 T X z = δ^1 z = 0``, so
  ``d_1 X z = 0`` by (b);
* for a derivation w, ``δ^1 T w = T² d_1 w = 0``, and ``w = X(T w)`` by (a).

So the derivations are the row space of ``char.basis @ T¹_rel``, X applied
to each character, the very images X's restriction reads.  (b) is a set
fact about T²'s reads (``Reading.identity_difference``), and the products
of (c) move rows and columns of integer matrices, whose difference is
reduced into the field.  Both spaces are
canonical RREFs, so they equal the eliminated kernels whichever route gave
them.

As in ``comparison``, the functions take ``(cat, field)`` and an optional
``cap``; the degree is always 1.  ``character_space`` alone takes the
adjoint category itself, since its kernel lives on any category's nerve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import FiniteCategory, adjoint_category, require_predicates
from .comparison import CANCELLATIVE, DETERMINISTIC, _relative_reading, verify_two_sided_on_relative
from .fields import QQ, FieldSpec
from .hochschild import check_sizes, relative_differential_matrix, relative_sizes
from .errors import NotChainCompatible
from .matrix import Matrix, Reading, Subspace, restricted_map
from .nerve import nerve_sizes, simplicial_coboundary_matrix, simplicial_cocycle_space


def graded_derivation_space(cat: FiniteCategory, field: FieldSpec, cap: int | None = None) -> Subspace:
    """Graded derivations of kC: the degree-1 relative cocycles, ``ker d_1``.

    Coordinates are indexed by ``relative_basis(cat, 1)``; the cap is checked
    on the degree-1 and degree-2 relative sizes before either basis exists.
    """
    return relative_differential_matrix(cat, QQ, 1, cap).kernel_basis(field)


def character_space(fad: FiniteCategory, field: FieldSpec, cap: int | None = None) -> Subspace:
    """Characters on ``fad``: the degree-1 cocycles of its nerve, ``ker δ^1``.

    Coordinates are indexed by the morphisms of ``fad``; the cap is checked
    on the 1- and 2-chain counts before any chain is listed.
    """
    return simplicial_cocycle_space(fad, field, 1, cap)


def _derivations_through_x(cat: FiniteCategory, field: FieldSpec, t1: Reading,
                           x_char: Matrix, cap: int | None) -> Subspace | None:
    """``ker d_1`` as the row space of ``x_char``, X¹_rel of each character
    (``t1`` is T¹_rel), or None when one of the checks (a)-(c) of the
    module's lemma fails."""
    if not verify_two_sided_on_relative(cat, field, 1, cap):
        return None
    try:
        t2 = _relative_reading(cat, 2, cap)
    except NotChainCompatible:
        return None
    if t2.T.identity_difference(field) is not None:
        return None
    d1 = relative_differential_matrix(cat, QQ, 1, cap)
    delta = simplicial_coboundary_matrix(adjoint_category(cat), QQ, 1, cap)
    if (t2 @ d1).first_difference(delta @ t1, field) is not None:
        return None
    return Subspace.from_matrix(x_char)


@dataclass(frozen=True)
class TheoremBReport:
    dim_derivations: int
    dim_characters: int
    restricted_matrix: Matrix     # derivation coordinates -> character coordinates
    bijection: bool


def theorem_b_report(cat: FiniteCategory, field: FieldSpec, cap: int | None = None) -> TheoremBReport:
    """Certify the bijection between graded derivations and characters.

    The characters are ``character_space`` of F^ad, and the derivations X of
    them when the checks of the module's lemma hold, ``graded_derivation_space``
    otherwise.  Restricts the degree-1 comparison maps T and X to the two
    solution spaces with ``restricted_map``, from T¹_rel's reads, which
    checks that T sends derivations to characters and X characters to
    derivations, and certifies the two restricted matrices are mutually
    inverse.  T reading a column that is not relative, or a map that
    leaves its space, gives ``bijection=False``; the T matrix is reported
    whenever T's check passed, else it is zero.

    Before any basis or chain list exists, the numbers of F^ad 1- and
    2-chains (``nerve_sizes``), then the degree-1 and degree-2 relative
    sizes, are checked against the cap.
    """
    require_predicates(cat, "rr_transitive", *DETERMINISTIC, *CANCELLATIVE)
    fad = adjoint_category(cat)
    check_sizes(nerve_sizes(fad), 2, cap)
    check_sizes(relative_sizes(cat), 2, cap)
    char = character_space(fad, field, cap)
    try:
        t1 = _relative_reading(cat, 1, cap)
    except NotChainCompatible:
        der = graded_derivation_space(cat, field, cap)
        return TheoremBReport(der.dim, char.dim, Matrix.zeros(field, char.dim, der.dim), False)
    x_char = char.basis @ t1     # row i: X of character i
    der = _derivations_through_x(cat, field, t1, x_char, cap)
    if der is None:
        der = graded_derivation_space(cat, field, cap)

    m_t = Matrix.zeros(field, char.dim, der.dim)
    bijection = False
    try:
        m_t = restricted_map(der.basis @ t1.T, char)    # row j: T of derivation j
        m_x = restricted_map(x_char, der)
    except NotChainCompatible:
        pass
    else:
        bijection = (
            der.dim == char.dim
            and m_x @ m_t == Matrix.identity(field, der.dim)
            and m_t @ m_x == Matrix.identity(field, char.dim)
        )
    return TheoremBReport(
        dim_derivations=der.dim,
        dim_characters=char.dim,
        restricted_matrix=m_t,
        bijection=bijection,
    )
