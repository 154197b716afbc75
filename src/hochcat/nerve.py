"""Nerve of a finite category and its simplicial cochain complex.

A degree-m chain is a composable sequence ``(g_0, .., g_{m-1})`` stored
source to target (``target(g_i) == source(g_{i+1})``); degree-0 chains are
the objects.  Degenerate chains (those containing identities) are kept: the
nerve is the full simplicial set, cohomology is unaffected, and keeping them
makes the index bijections with Hochschild data exact.

The coboundary of a scalar cochain f is
``(δf)(σ) = Σ_i (-1)^i f(face(σ, i))``.
"""

from __future__ import annotations

from collections import Counter

from .category import FiniteCategory, memo
from .fields import FieldSpec
from .hochschild import check_sizes
from .matrix import Matrix, cohomology_dims


@memo
def _chains_cached(cat: FiniteCategory, m: int) -> tuple:
    if m == 0:
        return tuple(range(cat.n_objects))
    # extend every chain by each morphism out of its end, m - 1 times: a
    # loop, so the degree is not bounded by the recursion limit
    by_source = cat.morphisms_by_source
    target = cat.target
    chains = [(g,) for g in range(cat.n_morphisms)]
    for _ in range(m - 1):
        chains = [chain + (g,) for chain in chains for g in by_source[target[chain[-1]]]]
    return tuple(chains)


def nerve_sizes(cat: FiniteCategory):
    """Yield the number of degree-m chains for m = 0, 1, .. without listing any.

    With ``A[x][y] = |Hom(x, y)|`` the count is ``1ᵀ A^m 1``.  ``ends[y]``
    counts the chains that end at y; one vector-matrix product with A
    extends them by a degree.
    """
    hom = Counter(zip(cat.source, cat.target))
    ends = [1] * cat.n_objects
    while True:
        yield sum(ends)
        nxt = [0] * cat.n_objects
        for (x, y), n in hom.items():
            nxt[y] += ends[x] * n
        ends = nxt


def nerve_chains(cat: FiniteCategory, m: int) -> list:
    """All degree-m chains in lexicographic order (objects for m = 0)."""
    return list(_chains_cached(cat, m))


@memo
def _chain_index(cat: FiniteCategory, m: int) -> dict:
    return {c: i for i, c in enumerate(_chains_cached(cat, m))}


def face(cat: FiniteCategory, chain, i: int):
    """i-th face of a degree-m chain, 0 <= i <= m.

    Drops the first morphism (i = 0), composes two consecutive steps into
    one (inner i), or drops the last (i = m).  Faces of a 1-chain are its
    endpoint objects.
    """
    m = len(chain)
    if not 0 <= i <= m:
        raise IndexError(f"face index {i} out of range for a degree-{m} chain")
    if m == 1:
        return cat.target[chain[0]] if i == 0 else cat.source[chain[0]]
    if i == 0:
        return chain[1:]
    if i == m:
        return chain[:-1]
    glued = cat.compose(chain[i], chain[i - 1])
    return chain[: i - 1] + (glued,) + chain[i + 1:]


@memo
def simplicial_coboundary_entries(cat: FiniteCategory, m: int) -> dict:
    """Integer entries of the degree-m coboundary, keyed by (row, col)."""
    rows = _chains_cached(cat, m + 1)
    col_index = _chain_index(cat, m)
    entries: dict = {}
    for r, chain in enumerate(rows):
        sign = 1
        for i in range(m + 2):
            c = col_index[face(cat, chain, i)]
            v = entries.get((r, c), 0) + sign
            if v:
                entries[r, c] = v
            else:
                del entries[r, c]
            sign = -sign
    return entries


def simplicial_coboundary_matrix(cat, field, m: int) -> Matrix:
    """Matrix of the coboundary from degree-m to degree-(m+1) cochains."""
    return Matrix.from_int_entries(
        field,
        len(_chains_cached(cat, m + 1)),
        len(_chains_cached(cat, m)),
        simplicial_coboundary_entries(cat, m),
    )


def simplicial_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of the nerve cohomology in degrees 0..max_m.

    Every degree's chain count up to ``max_m + 1`` is checked against the
    cap (``nerve_sizes``) before the first chain is listed.
    """
    check_sizes(nerve_sizes(cat), max_m + 1, cap)
    mats = (simplicial_coboundary_matrix(cat, field, m) for m in range(max_m + 1))
    return list(cohomology_dims(mats))

