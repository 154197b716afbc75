"""Nerve of a finite category and its simplicial cochain complex.

A degree-m chain is a composable sequence ``(g_0, .., g_{m-1})`` stored
source to target (``target(g_i) == source(g_{i+1})``); degree-0 chains are
the objects.  Degenerate chains (those containing identities) are kept: the
nerve is the full simplicial set, cohomology is unaffected, and keeping them
makes the index bijections with Hochschild data exact.

The coboundary of a scalar cochain f is
``(δf)(σ) = Σ_i (-1)^i f(face(σ, i))``.  Its matrix is built row by row,
one row per (m+1)-chain, straight into the row dicts of a ``Matrix``, and
memoized on the category per field and degree.
"""

from __future__ import annotations

from collections import Counter

from .category import FiniteCategory, memo
from .fields import FieldSpec
from .hochschild import check_degree, check_sizes
from .matrix import Matrix, _IntScalars, cohomology_dims


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
    check_degree(m)
    return list(_chains_cached(cat, m))


@memo
def _chain_index(cat: FiniteCategory, m: int) -> dict:
    return {c: i for i, c in enumerate(_chains_cached(cat, m))}


def face(cat: FiniteCategory, chain, i: int):
    """i-th face of a degree-m chain, 0 <= i <= m, for m >= 1.

    Drops the first morphism (i = 0), composes two consecutive steps into
    one (inner i), or drops the last (i = m).  Faces of a 1-chain are its
    endpoint objects.  A degree-0 chain (an object, or ``()``) has no face.
    """
    m = 0 if isinstance(chain, int) else len(chain)
    if not (m and 0 <= i <= m):
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
def _coboundary(cat: FiniteCategory, field: FieldSpec, m: int) -> Matrix:
    """The degree-m coboundary, built one row per (m+1)-chain.

    A row's faces (``face``, written out) are looked up in the degree-m
    chain index.  Faces of a degenerate chain can coincide; only then are
    their signs summed over Z before they are reduced into the field.
    Each composite of an inner face is computed once per build.
    """
    col_index = _chain_index(cat, m)
    chains = _chains_cached(cat, m + 1)
    scalars = _IntScalars(field)
    signs = [(-1) ** i for i in range(m + 2)]
    signed = [scalars[s] for s in signs]
    n, compose, source, target = cat.n_morphisms, cat.compose, cat.source, cat.target
    glued: dict = {}   # g·n + f -> g∘f
    rows = {}
    for r, chain in enumerate(chains):
        if m == 0:   # a 1-chain's faces are objects, which index themselves
            cols = [target[chain[0]], source[chain[0]]]
        else:
            cols = [col_index[chain[1:]]]
            for i in range(1, m + 1):
                f, g = chain[i - 1], chain[i]
                gf = glued.get(g * n + f)
                if gf is None:
                    gf = glued[g * n + f] = compose(g, f)
                cols.append(col_index[chain[: i - 1] + (gf,) + chain[i + 1:]])
            cols.append(col_index[chain[:-1]])
        row = dict(zip(cols, signed))
        if len(row) < m + 2:
            acc: dict = {}
            for c, s in zip(cols, signs):
                acc[c] = acc.get(c, 0) + s
            row = {c: v for c, s in acc.items() if (v := scalars[s]) is not None}
            if not row:
                continue
        rows[r] = row
    return Matrix(field, len(chains), len(col_index), rows)


def simplicial_coboundary_matrix(cat, field, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the coboundary from degree-m to degree-(m+1) cochains.

    Every chain count up to degree m + 1 is checked against the cap
    (``nerve_sizes``) before the memo is read.
    """
    check_degree(m)
    check_sizes(nerve_sizes(cat), m + 1, cap)
    return _coboundary(cat, field, m)


def simplicial_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of the nerve cohomology in degrees 0..max_m.

    Every degree's chain count up to ``max_m + 1`` is checked against the
    cap (``nerve_sizes``) before the first chain is listed.
    """
    check_degree(max_m)
    check_sizes(nerve_sizes(cat), max_m + 1, cap)
    mats = (simplicial_coboundary_matrix(cat, field, m, cap) for m in range(max_m + 1))
    return list(cohomology_dims(mats))

