"""Graded derivations of kC and characters on the adjoint category.

kC is graded by the semigroup of object pairs with nonempty hom sets;
degree-1 relative cochains are exactly the grading-preserving linear maps,
and within them the derivations form the solution space of
``X(f∘g) = X(f)∘g + f∘X(g)``.  On the other side, characters are scalar
functions on morphisms of F^ad additive under composition.  The degree-1
comparison map restricts to a bijection between the two solution spaces,
and this module certifies that bijection by explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import FiniteCategory, require_predicates
from .comparison import (
    CANCELLATIVE,
    DETERMINISTIC,
    make_context,
    t_map_relative_matrix,
    x_map_relative_matrix,
)
from .fields import FieldSpec
from .hochschild import relative_basis
from .errors import NotChainCompatible
from .matrix import Matrix, Subspace, induced_quotient_map


def graded_derivation_space(cat: FiniteCategory, field: FieldSpec) -> Subspace:
    """Solution space of the derivation law inside relative degree-1 cochains.

    Unknowns are the endpoint-matching coefficients X^h_g; one equation is
    generated per ordered pair (f, g) of morphisms and output morphism,
    non-composable pairs included (their products are zero in kC).
    """
    basis = relative_basis(cat, 1)
    col_of = {}
    for j, ((g,), h) in enumerate(basis):
        col_of[g, h] = j
    n = cat.n_morphisms
    comp = cat.compose_table
    entries: dict = {}

    def add(f, g, w, col, val):
        key = ((f * n + g) * n + w, col)
        v = entries.get(key, 0) + val
        if v:
            entries[key] = v
        else:
            del entries[key]

    for f in range(n):
        for g in range(n):
            fg = comp[f][g]
            if fg >= 0:
                for w in cat.hom(cat.source[fg], cat.target[fg]):
                    add(f, g, w, col_of[fg, w], 1)
            for w1 in cat.hom(cat.source[f], cat.target[f]):
                w = comp[w1][g]
                if w >= 0:
                    add(f, g, w, col_of[f, w1], -1)
            for w2 in cat.hom(cat.source[g], cat.target[g]):
                w = comp[f][w2]
                if w >= 0:
                    add(f, g, w, col_of[g, w2], -1)

    system = Matrix.from_int_entries(field, n * n * n, len(basis), entries)
    return system.kernel_basis()


def character_space(fad: FiniteCategory, field: FieldSpec) -> Subspace:
    """Scalar functions on morphisms additive under composition.

    Solved as the kernel of the system T(η∘ζ) - T(η) - T(ζ) = 0 over all
    composable pairs; coordinates are indexed by the morphisms of ``fad``.
    """
    n = fad.n_morphisms
    comp = fad.compose_table
    entries: dict = {}
    for eta in range(n):
        row_base = eta * n
        for zeta in range(n):
            h = comp[eta][zeta]
            if h < 0:
                continue
            row = row_base + zeta
            for col, val in ((h, 1), (eta, -1), (zeta, -1)):
                key = (row, col)
                v = entries.get(key, 0) + val
                if v:
                    entries[key] = v
                else:
                    del entries[key]
    system = Matrix.from_int_entries(field, n * n, n, entries)
    return system.kernel_basis()


@dataclass(frozen=True)
class TheoremBReport:
    field: FieldSpec
    dim_derivations: int
    dim_characters: int
    restricted_matrix: Matrix     # derivation coordinates -> character coordinates
    bijection: bool


def theorem_b_report(cat: FiniteCategory, field: FieldSpec) -> TheoremBReport:
    """Certify the bijection between graded derivations and characters.

    Restricts the degree-1 comparison maps T and X to the two solution
    spaces with ``induced_quotient_map`` (over zero subspaces), which checks
    that T sends derivations to characters and X characters to derivations,
    and certifies the two restricted matrices are mutually inverse.  A map
    that leaves its space gives ``bijection=False``; the T matrix is
    reported whenever T's check passed, else it is zero.
    """
    require_predicates(cat, "rr_transitive", *DETERMINISTIC, *CANCELLATIVE)
    ctx = make_context(cat, field)
    der = graded_derivation_space(cat, field)
    char = character_space(ctx.fad, field)

    zero_der = Subspace.zero(field, der.ambient_dim)
    zero_char = Subspace.zero(field, char.ambient_dim)
    m_t = Matrix.zeros(field, char.dim, der.dim)
    bijection = False
    try:
        m_t, _ = induced_quotient_map(t_map_relative_matrix(ctx, 1), der, zero_der, char, zero_char)
        m_x, _ = induced_quotient_map(x_map_relative_matrix(ctx, 1), char, zero_char, der, zero_der)
    except NotChainCompatible:
        pass
    else:
        bijection = (
            der.dim == char.dim
            and m_x @ m_t == Matrix.identity(field, der.dim)
            and m_t @ m_x == Matrix.identity(field, char.dim)
        )
    return TheoremBReport(
        field=field,
        dim_derivations=der.dim,
        dim_characters=char.dim,
        restricted_matrix=m_t,
        bijection=bijection,
    )
