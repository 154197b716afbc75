"""Graded derivations of kC and characters on the adjoint category.

Theorem B is degree one of Theorem A.  kC is graded by the semigroup of
object pairs with nonempty hom sets, and the degree-1 relative cochains are
exactly the grading-preserving linear maps; the graded derivations are the
degree-1 cocycles of the relative complex, ``ker d_1``.  The characters on
F^ad, scalar functions on morphisms additive under composition, are the
degree-1 cocycles of its nerve, ``ker δ^1``.  The degree-1 comparison map
restricts to a bijection between the two kernels, and this module certifies
that bijection by explicit matrices: T and X restricted to the two kernels
(``matrix.restricted_map``) and their two products.

As in ``comparison``, the functions take ``(cat, field)`` and an optional
``cap``; the degree is always 1.  ``character_space`` alone takes the
adjoint category itself, since its kernel lives on any category's nerve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import FiniteCategory, adjoint_category, require_predicates
from .comparison import (
    CANCELLATIVE,
    DETERMINISTIC,
    t_map_relative_matrix,
    x_map_relative_matrix,
)
from .fields import FieldSpec
from .hochschild import check_sizes, relative_differential_matrix
from .errors import NotChainCompatible
from .matrix import Matrix, Subspace, restricted_map
from .nerve import nerve_sizes, simplicial_coboundary_matrix


def graded_derivation_space(cat: FiniteCategory, field: FieldSpec, cap: int | None = None) -> Subspace:
    """Graded derivations of kC: the degree-1 relative cocycles, ``ker d_1``.

    Coordinates are indexed by ``relative_basis(cat, 1)``; the cap is checked
    on the degree-1 and degree-2 relative sizes before either basis exists.
    """
    return relative_differential_matrix(cat, field, 1, cap).kernel_basis()


def character_space(fad: FiniteCategory, field: FieldSpec, cap: int | None = None) -> Subspace:
    """Characters on ``fad``: the degree-1 cocycles of its nerve, ``ker δ^1``.

    Coordinates are indexed by the morphisms of ``fad``; the cap is checked
    on the 1- and 2-chain counts before any chain is listed.
    """
    return simplicial_coboundary_matrix(fad, field, 1, cap).kernel_basis()


@dataclass(frozen=True)
class TheoremBReport:
    dim_derivations: int
    dim_characters: int
    restricted_matrix: Matrix     # derivation coordinates -> character coordinates
    bijection: bool


def theorem_b_report(cat: FiniteCategory, field: FieldSpec, cap: int | None = None) -> TheoremBReport:
    """Certify the bijection between graded derivations and characters.

    Restricts the degree-1 comparison maps T and X to the two solution
    spaces with ``restricted_map``, which checks that T sends derivations
    to characters and X characters to derivations, and certifies the two
    restricted matrices are mutually inverse.  A map that leaves its space
    gives ``bijection=False``; the T matrix is reported whenever T's check
    passed, else it is zero.

    Before any basis or chain list exists, the numbers of F^ad 1- and
    2-chains (``nerve_sizes``, as in ``character_space``) and (in
    ``graded_derivation_space``) the degree-1 and degree-2 relative sizes
    are checked against the cap.
    """
    require_predicates(cat, "rr_transitive", *DETERMINISTIC, *CANCELLATIVE)
    fad = adjoint_category(cat)
    check_sizes(nerve_sizes(fad), 2, cap)
    der = graded_derivation_space(cat, field, cap)
    char = character_space(fad, field, cap)

    m_t = Matrix.zeros(field, char.dim, der.dim)
    bijection = False
    try:
        m_t = restricted_map(t_map_relative_matrix(cat, field, 1, cap), der, char)
        m_x = restricted_map(x_map_relative_matrix(cat, field, 1, cap), char, der)
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
