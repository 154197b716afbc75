"""The Hochschild cochain complex of the category algebra kC.

The product of kC (``g·f = g∘f``, zero when not composable) enters only
through the differential below; no algebra element is ever built.

Cochains of degree m are multilinear maps (kC)^{⊗m} -> kC, stored by their
coefficient tensor: the basis of C^m is all pairs ``(tup, h)`` with ``tup``
an m-tuple of morphisms (composable or not; the tensor power is over k) and
``h`` an output morphism, ordered lexicographically.  Tuples are kept in
tensor-slot order: ``tup[0]`` is the first tensor factor.

The differential of the coefficient tensor of f sends the basis cochain
``(g_1..g_m, h)`` to

* ``+1`` on ``((u, g_1..g_m), u∘h)`` for every u with u∘h defined,
* ``(-1)^j`` on ``((g_1,.., v, w, .., g_m), h)`` for every factorization
  ``v∘w = g_j``,
* ``(-1)^(m+1)`` on ``((g_1..g_m, u), h∘u)`` for every u with h∘u defined.

Entries are assembled once over the integers and reduced into the requested
field.  The integer entries are memoized on the category, so every field
shares one assembly for as long as the category lives, and they are freed
with it.  The dimension tables check every degree's basis size against the
cap (``check_sizes``) before the first differential is assembled.

The relative subcomplex keeps only endpoint-matching coefficients on
composable tuples; in degree 0 it is spanned by the endomorphisms (the
centralizer of the identity span), which is exactly what the degree-0
differential preserves.
"""

from __future__ import annotations

import itertools

from .category import FiniteCategory, memo
from .errors import DimensionCapExceeded, NotASubcomplex
from .matrix import Matrix, cohomology_dims

DEFAULT_BASIS_CAP = 2_000_000


# --- bases and indexing ------------------------------------------------------

def hochschild_basis_size(cat: FiniteCategory, m: int) -> int:
    return cat.n_morphisms ** (m + 1)


def hochschild_sizes(cat: FiniteCategory):
    """Yield ``hochschild_basis_size(cat, m)`` for m = 0, 1, .. as a running product."""
    size = cat.n_morphisms
    while True:
        yield size
        size *= cat.n_morphisms


def check_cap(cat, m: int, cap: int | None) -> None:
    """Refuse degree m unless every Hochschild basis up to it fits under the cap.

    The sizes are read as running products (``check_sizes``), so no size
    above ``n_morphisms * cap`` is ever formed.
    """
    check_sizes(hochschild_sizes(cat), m, cap)


def check_sizes(sizes, top: int, cap: int | None) -> None:
    """Refuse the first degree in 1..top (0 when top is 0) whose size passes the cap.

    ``sizes`` yields the sizes of degrees 0, 1, .. and is read no further
    than that degree.  Degree 0 is never larger than degree 1, so skipping
    it names the same degree as the per-differential checks.
    """
    cap = DEFAULT_BASIS_CAP if cap is None else cap
    for m, size in zip(range(top + 1), sizes):
        if (m or not top) and size > cap:
            raise DimensionCapExceeded(m, size, cap)


def check_table_size(cells: int, cap: int | None) -> None:
    """Refuse a composition table of ``cells`` cells above the cap.

    A table on n morphisms has n^2 cells, the size of the degree-1 basis,
    so the refusal names degree 1.  Loaders call this before any table
    exists.
    """
    cap = DEFAULT_BASIS_CAP if cap is None else cap
    if cells > cap:
        raise DimensionCapExceeded(1, cells, cap)


def hochschild_basis(cat: FiniteCategory, m: int) -> list:
    """All (tuple, output) pairs of degree m in lexicographic order."""
    n = cat.n_morphisms
    return [
        (tup, h)
        for tup in itertools.product(range(n), repeat=m)
        for h in range(n)
    ]


def basis_index(cat: FiniteCategory, tup, h: int) -> int:
    n = cat.n_morphisms
    idx = 0
    for t in tup:
        idx = idx * n + t
    return idx * n + h


def _factorizations(cat: FiniteCategory) -> tuple:
    """Per morphism z, all ordered pairs (v, w) with v∘w = z."""
    out = [[] for _ in range(cat.n_morphisms)]
    comp = cat.compose_table
    for v in range(cat.n_morphisms):
        row = comp[v]
        for w in cat.morphisms_by_target[cat.source[v]]:
            out[row[w]].append((v, w))
    return tuple(tuple(ps) for ps in out)


def _column_contributions(cat: FiniteCategory, facts: tuple, tup, h: int) -> dict:
    """Image of the basis cochain (tup, h) under the differential, over Z.

    ``facts`` is ``_factorizations(cat)``, computed once per assembly.
    """
    comp = cat.compose_table
    m = len(tup)
    out: dict = {}

    def add(key, value):
        w = out.get(key, 0) + value
        if w:
            out[key] = w
        else:
            out.pop(key, None)

    for u in cat.morphisms_by_source[cat.target[h]]:
        add(((u,) + tup, comp[u][h]), 1)
    sign = -1
    for j in range(1, m + 1):
        for v, w in facts[tup[j - 1]]:
            add((tup[: j - 1] + (v, w) + tup[j:], h), sign)
        sign = -sign
    last_sign = -1 if (m + 1) % 2 else 1
    for u in cat.morphisms_by_target[cat.source[h]]:
        add((tup + (u,), comp[h][u]), last_sign)
    return out


@memo
def hochschild_differential_entries(cat: FiniteCategory, m: int) -> dict:
    """Integer entries of the degree-m differential, keyed by (row, col)."""
    n = cat.n_morphisms
    facts = _factorizations(cat)
    entries: dict = {}
    for tup in itertools.product(range(n), repeat=m):
        for h in range(n):
            col = basis_index(cat, tup, h)
            for (ntup, nh), v in _column_contributions(cat, facts, tup, h).items():
                entries[basis_index(cat, ntup, nh), col] = v
    return entries


def hochschild_differential_matrix(cat, field, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the degree-m differential in the lexicographic bases."""
    check_cap(cat, m + 1, cap)
    return Matrix.from_int_entries(
        field,
        hochschild_basis_size(cat, m + 1),
        hochschild_basis_size(cat, m),
        hochschild_differential_entries(cat, m),
    )


def hochschild_cohomology_dims(cat, field, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of HH^0..HH^max_m over the full cochain complex.

    Every degree's basis size is checked against the cap first.
    """
    check_sizes(hochschild_sizes(cat), max_m + 1, cap)
    mats = [hochschild_differential_matrix(cat, field, m, cap) for m in range(max_m + 1)]
    return list(cohomology_dims(mats))


# --- the relative subcomplex ---------------------------------------------------

@memo
def _relative_basis_cached(cat: FiniteCategory, m: int) -> tuple:
    if m == 0:
        # degree 0 is the centralizer of the identity span: the endomorphisms
        return tuple(((), h) for h in cat.all_endomorphisms)
    # tuples are in tensor order: each next factor composes on the right
    by_target = cat.morphisms_by_target
    source = cat.source
    chains = [(g,) for g in range(cat.n_morphisms)]
    for _ in range(m - 1):
        chains = [t + (g,) for t in chains for g in by_target[source[t[-1]]]]
    basis = []
    for tup in chains:
        for h in cat.hom(source[tup[-1]], cat.target[tup[0]]):
            basis.append((tup, h))
    return tuple(basis)


def relative_basis(cat: FiniteCategory, m: int) -> list:
    """Basis of the relative degree-m cochains, ordered lexicographically.

    Pairs (tup, h) with tup composable in tensor order (each factor's source
    is the next factor's target) and h running over Hom(source, target) of
    the composite; in degree 0, the endomorphisms of the category.
    """
    return list(_relative_basis_cached(cat, m))


def relative_sizes(cat: FiniteCategory):
    """Yield ``len(relative_basis(cat, m))`` for m = 0, 1, .., enumerating no basis.

    With ``A[x][y] = |Hom(x, y)|`` there are ``(A^m)[x][y]`` composable
    m-chains from x to y, each paired with every morphism of Hom(x, y), so
    the size is ``Σ_{x,y} (A^m)[x][y]·A[x][y]``; in degree 0 it is the
    number of endomorphisms.
    """
    yield len(cat.all_endomorphisms)
    objs = range(cat.n_objects)
    hom = [[len(cat.hom(x, y)) for y in objs] for x in objs]
    paths = hom
    while True:
        yield sum(paths[x][y] * hom[x][y] for x in objs for y in objs)
        paths = [[sum(row[z] * hom[z][y] for z in objs) for y in objs] for row in paths]


def _relative_differential_entries(cat: FiniteCategory, m: int) -> tuple:
    """(n_rows, n_cols, entries over Z) of the restricted differential."""
    cols = _relative_basis_cached(cat, m)
    rows = _relative_basis_cached(cat, m + 1)
    row_index = {pair: i for i, pair in enumerate(rows)}
    facts = _factorizations(cat)
    entries: dict = {}
    for c, (tup, h) in enumerate(cols):
        for pair, v in _column_contributions(cat, facts, tup, h).items():
            r = row_index.get(pair)
            if r is None:
                raise NotASubcomplex(
                    f"differential leaves the relative subcomplex at degree {m}: "
                    f"column {(tup, h)} hits {pair}"
                )
            entries[r, c] = v
    return len(rows), len(cols), entries


def relative_differential_matrix(cat, field, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the differential restricted to relative cochains.

    The cap is checked on the sizes of the two bases before either basis is
    enumerated.
    """
    cap_val = DEFAULT_BASIS_CAP if cap is None else cap
    required = max(itertools.islice(relative_sizes(cat), m, m + 2))
    if required > cap_val:
        raise DimensionCapExceeded(m + 1, required, cap_val)
    nrows, ncols, entries = _relative_differential_entries(cat, m)
    return Matrix.from_int_entries(field, nrows, ncols, entries)


def relative_cohomology_dims(cat, field, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of the relative cohomology in degrees 0..max_m.

    Every degree's basis size is checked against the cap first.
    """
    check_sizes(relative_sizes(cat), max_m + 1, cap)
    mats = [relative_differential_matrix(cat, field, m, cap) for m in range(max_m + 1)]
    return list(cohomology_dims(mats))

