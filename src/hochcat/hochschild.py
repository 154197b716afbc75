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

A basis pair is addressed by its base-n index ``τ·n + h`` (n morphisms, τ
the base-n number whose digits are the tuple), so every term's row is
computed by index arithmetic, never by building a tuple.  Each column's
terms are summed over the integers and written straight into the row dicts
of an integer ``Matrix`` (over Q, with int entries).  The matrix is
memoized on the category per degree, for every field, which enters only
when it is ranked: built once for as long as the category lives, and freed
with it.  Every cap is checked before the memo is read,
and the dimension tables check every degree's basis size
(``check_sizes``) before the first differential is assembled.

The relative subcomplex keeps only endpoint-matching coefficients on
composable tuples; in degree 0 it is spanned by the endomorphisms (the
centralizer of the identity span), which is exactly what the degree-0
differential preserves.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .category import FiniteCategory, memo, require_table
from .errors import DimensionCapExceeded, NotASubcomplex
from .fields import QQ, FieldSpec
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


def check_degree(m: int) -> None:
    """Refuse a negative degree: every cochain space starts at degree 0."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")


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
    check_degree(m)
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


def _differential_rows(cat: FiniteCategory, m: int, groups, row_of=None) -> dict:
    """Nonzero row dicts of the degree-m differential on the columns of ``groups``.

    ``groups`` yields ``(tup, τ, cols)``: an m-tuple, its base-n index τ
    and its columns as pairs ``(c, h)`` of column number and output.  The
    terms of (tup, h) land on full degree-(m+1) indices by arithmetic:

    * left ``(u, tup; u∘h)``: ``u·n^(m+1) + τ·n + u∘h``;
    * inner slot j, ``v∘w = t_j``: ``(((hi·n + v)·n + w)·n^(m−j) + lo)·n + h``
      with ``hi = τ // n^(m−j+1)`` and ``lo = τ mod n^(m−j)``;
    * right ``(tup, u; h∘u)``: ``(τ·n + u)·n + h∘u``.

    The terms of one column are summed over Z, since identity
    factorizations cancel, and a sum of 0 is no entry.  ``row_of``, when given, maps a
    full row index to the row number; a miss raises ``NotASubcomplex``.
    """
    n = cat.n_morphisms
    if not n:
        return {}   # no morphisms: kC = 0 and every cochain space is zero
    comp = require_table(cat)
    top = n ** (m + 1)
    # the outer terms' offsets from τ·n (left) and τ·n² (right), per output h
    lefts = [tuple(u * top + comp[u][h] for u in cat.morphisms_by_source[cat.target[h]])
             for h in range(n)]
    rights = [tuple(u * n + comp[h][u] for u in cat.morphisms_by_target[cat.source[h]])
              for h in range(n)]
    right_sign = -1 if (m + 1) % 2 else 1
    # v∘w = z as the two digits v·n + w
    pairs = tuple(tuple(v * n + w for v, w in ps) for ps in _factorizations(cat))
    rows: dict = {}
    for tup, tau, cols in groups:
        # inner terms do not depend on h: row = key + h
        inner: dict = {}
        sign = -1
        step = top // n
        for t in tup:
            # slot j: step = n^(m−j+1), low = n^(m−j), τ = hi·step + t·low + lo
            low = step // n
            hi, rest = divmod(tau, step)
            key0 = (hi * step * n + rest - t * low) * n
            for vw in pairs[t]:
                key = key0 + vw * step
                inner[key] = inner.get(key, 0) + sign
            sign = -sign
            step = low
        inner = [(key, s) for key, s in inner.items() if s]
        left0, right0 = tau * n, tau * n * n
        for c, h in cols:
            acc = {left0 + x: 1 for x in lefts[h]}
            for key, s in inner:
                key += h
                acc[key] = acc.get(key, 0) + s
            for x in rights[h]:
                key = right0 + x
                acc[key] = acc.get(key, 0) + right_sign
            for r, v in acc.items():
                if not v:
                    continue
                if row_of is not None:
                    i = row_of.get(r)
                    if i is None:
                        digits = [r // n ** k % n for k in range(m + 1, -1, -1)]
                        raise NotASubcomplex(
                            f"differential leaves the relative subcomplex at degree {m}: "
                            f"column {(tup, h)} hits {(tuple(digits[:-1]), digits[-1])}"
                        )
                    r = i
                row = rows.get(r)
                if row is None:
                    rows[r] = row = {}
                row[c] = v
    return rows


@memo
def _full_differential(cat: FiniteCategory, m: int) -> Matrix:
    """The degree-m differential as an integer matrix, every column in base-n order."""
    n = cat.n_morphisms
    groups = ((tup, tau, zip(range(tau * n, tau * n + n), range(n)))
              for tau, tup in enumerate(itertools.product(range(n), repeat=m)))
    return Matrix(QQ, n ** (m + 2), n ** (m + 1), _differential_rows(cat, m, groups))


def hochschild_differential_matrix(cat, field: FieldSpec, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the degree-m differential in the lexicographic bases, over
    ``field``: over Q the memoized integer matrix itself.

    Every basis up to degree m + 1 is checked against the cap first, as
    running products, so no size above ``n_morphisms * cap`` is formed.
    """
    check_degree(m)
    check_sizes(hochschild_sizes(cat), m + 1, cap)
    return _full_differential(cat, m).over(field)


def hochschild_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of HH^0..HH^max_m over the full cochain complex.

    Every degree's basis size is checked against the cap first.
    """
    check_degree(max_m)
    check_sizes(hochschild_sizes(cat), max_m + 1, cap)
    mats = [hochschild_differential_matrix(cat, QQ, m, cap) for m in range(max_m + 1)]
    return list(cohomology_dims(mats, field))


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
    check_degree(m)
    return list(_relative_basis_cached(cat, m))


def relative_sizes(cat: FiniteCategory):
    """Yield ``len(relative_basis(cat, m))`` for m = 0, 1, .., enumerating no basis.

    With ``A[x][y] = |Hom(x, y)|`` there are ``(A^m)[x][y]`` composable
    m-chains from x to y, each paired with every morphism of Hom(x, y), so
    the size is ``Σ_{x,y} (A^m)[x][y]·A[x][y]``; in degree 0 it is the
    number of endomorphisms.  A and its powers are kept by their nonzero
    entries, so a degree costs a step per pair of composable hom sets.
    """
    yield len(cat.all_endomorphisms)
    hom = Counter(zip(cat.source, cat.target))
    out = [[] for _ in range(cat.n_objects)]   # z -> (y, |Hom(z, y)|)
    for (z, y), k in hom.items():
        out[z].append((y, k))
    paths = hom
    while True:
        yield sum(n * hom[xy] for xy, n in paths.items())
        nxt = Counter()
        for (x, z), n in paths.items():
            for y, k in out[z]:
                nxt[x, y] += n * k
        paths = nxt


def relative_is_full(cat: FiniteCategory, top: int) -> bool:
    """Whether the relative complex is the full one in degrees 0..top.

    A relative basis is a subset of the full basis of its degree, both in
    lexicographic order, so equal sizes make the bases and the
    differentials between them equal.  Only the sizes are compared, and
    the first difference ends the walk: a category with one object passes,
    a disjoint union of groups fails in degree 1.
    """
    sizes = zip(relative_sizes(cat), hochschild_sizes(cat))
    return all(rel == full for rel, full in itertools.islice(sizes, top + 1))


@memo
def _relative_of_full(cat: FiniteCategory, m: int) -> dict:
    """Full Hochschild basis index -> relative basis index, in degree m,
    built once for as long as ``cat`` lives."""
    return {basis_index(cat, tup, h): i for i, (tup, h) in enumerate(_relative_basis_cached(cat, m))}


@memo
def _relative_differential(cat: FiniteCategory, m: int) -> Matrix:
    """The integer differential on the relative columns, rows numbered in the relative basis."""
    n = cat.n_morphisms
    cols = _relative_basis_cached(cat, m)
    row_of = _relative_of_full(cat, m + 1)
    groups = ((tup, basis_index(cat, tup, 0) // n, [(c, h) for c, (_tup, h) in pairs])
              for tup, pairs in itertools.groupby(enumerate(cols), key=lambda item: item[1][0]))
    return Matrix(QQ, len(row_of), len(cols), _differential_rows(cat, m, groups, row_of))


def relative_differential_matrix(cat, field: FieldSpec, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the differential restricted to relative cochains, over
    ``field`` as for ``hochschild_differential_matrix``.

    Every relative basis up to degree m + 1 is checked against the cap,
    and the first one over it refused, before any basis is enumerated.
    When the relative complex is the full one up to degree
    m + 1 (``relative_is_full``), this is the full differential itself.
    """
    check_degree(m)
    check_sizes(relative_sizes(cat), m + 1, cap)
    if relative_is_full(cat, m + 1):
        return _full_differential(cat, m).over(field)
    return _relative_differential(cat, m).over(field)


def relative_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of the relative cohomology in degrees 0..max_m.

    Every degree's basis size is checked against the cap first.
    """
    check_degree(max_m)
    check_sizes(relative_sizes(cat), max_m + 1, cap)
    mats = [relative_differential_matrix(cat, QQ, m, cap) for m in range(max_m + 1)]
    return list(cohomology_dims(mats, field))

