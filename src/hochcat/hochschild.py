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
memoized on the category per degree and takes no field, which enters only
when it is ranked: built once for as long as the category lives, and freed
with it.  Every cap is checked before the memo is read,
and the dimension tables check every degree's basis size
(``check_sizes``) before the first differential is assembled.

The relative subcomplex keeps only endpoint-matching coefficients on
composable tuples; in degree 0 it is spanned by the endomorphisms (the
centralizer of the identity span), which is exactly what the degree-0
differential preserves.

The normalization lemma.  The relative complex is the bar complex of kC
relative to ``E = ⊕ k·1_x``.  Its normalized subcomplex, the cochains that
vanish whenever a factor is an identity, computes the same cohomology:
this is the normalized bar resolution (Eilenberg–Mac Lane normalization;
May, *Simplicial Objects in Algebraic Topology*, 1967; Hochschild,
*Relative homological algebra*, Trans. AMS 82, 1956), since kC/E has the
non-identity morphisms as a basis.  In coordinates it is the slice of the
relative basis to tuples with no identity factor (degree 0 keeps every
endomorphism), and the slice is a subcomplex: on a column with no identity
factor, every term with an identity factor cancels against another one.
The left term with u = 1 meets the inner term 1∘t_1 = t_1, the inner terms
t_j∘1 and 1∘t_(j+1) meet each other, and t_m∘1 meets the right term with
u = 1, each pair with opposite signs; every other term has no identity
factor.  So ``_sliced_differential(cat, m, True)`` leaves those terms out
instead of summing them to zero, and ``relative_cohomology_dims`` ranks it
in every degree.  The two complexes share one builder: ``_slice(cat, m,
normalized)`` lists a basis with its index map and ``_sliced_differential``
assembles on it, the flag always passed positionally (``memo`` keys on the
arguments as given).  A row outside the slice still raises
``NotASubcomplex``, and the dimension tables still check ``d∘d = 0`` on
every matrix they rank.  Caps
are checked on the relative and full sizes, as for the unnormalized
complexes, so a refusal names the same degree and size.

The homotopy lemma.  The full complex C and the relative one have the
same cohomology: E is separable, so cohomology relative to it is
Hochschild cohomology (Hochschild, *Relative homological algebra*, Trans.
AMS 82, 1956).  ``_homotopy`` writes the comparison out.  With ι the
inclusion of the relative cochains and ρ the coordinate projection onto
the relative basis (so ρι = 1), it builds ``h^m: C^m → C^(m−1)`` by
inserting an identity (its docstring has the formula), and
``hochschild_cohomology_dims`` checks ``∂^(m−1) h^m + h^(m+1) ∂^m = I − ιρ``
on each C^m, m = 0..max_m, over Z, a difference reduced into the field.
Those identities and ``∂∂ = 0`` make ``ι_*: H^m(rel) → H^m(C)`` bijective:

* onto: for a cocycle z, ``z − ιρz = ∂(hz)``, and ρz is a relative
  cocycle, since ``ι∂ρz = ∂ιρz = ∂z − ∂∂hz = 0``;
* one-to-one: if ``ιw = ∂y``, the identity on C^m applied to ιw gives
  ``∂hιw = 0``, and the one on C^(m−1) applied to y then gives
  ``ιw = ∂ιρy = ι∂ρy``, so ``w = ∂ρy`` in the relative complex.

So with several objects the full dimensions are the relative ones,
ranked on the normalized complex; only ∂∂ = 0 and the identities are
computed on the full matrices, which are never ranked.  The identity
needs no hypothesis, and it holds on every category tried; where it did
not, every full differential would be ranked instead, so a failed check
costs only time.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .category import FiniteCategory, memo, require_table
from .errors import DimensionCapExceeded, NotASubcomplex
from .fields import QQ, FieldSpec
from .matrix import Matrix, check_complex, cohomology_dims

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


def _differential_rows(cat: FiniteCategory, m: int, groups, row_of=None,
                       normalized: bool = False) -> dict:
    """Nonzero row dicts of the degree-m differential on the columns of ``groups``.

    ``groups`` yields ``(tup, τ, cols)``: an m-tuple, its base-n index τ
    and its columns as pairs ``(c, h)`` of column number and output.  The
    terms of (tup, h) land on full degree-(m+1) indices by arithmetic:

    * left ``(u, tup; u∘h)``: ``u·n^(m+1) + τ·n + u∘h``;
    * inner slot j, ``v∘w = t_j``: ``(((hi·n + v)·n + w)·n^(m−j) + lo)·n + h``
      with ``hi = τ // n^(m−j+1)`` and ``lo = τ mod n^(m−j)``;
    * right ``(tup, u; h∘u)``: ``(τ·n + u)·n + h∘u``.

    The terms of one column are summed over Z, since identity
    factorizations cancel, and a sum of 0 is no entry.  ``normalized``
    leaves out every term with an identity factor (an identity u, or v or
    w an identity): on a column with no identity factor those terms cancel
    in pairs (the normalization lemma in the module docstring).
    ``row_of``, when given, maps a full row index to the row number; a miss
    raises ``NotASubcomplex``.
    """
    n = cat.n_morphisms
    if not n:
        return {}   # no morphisms: kC = 0 and every cochain space is zero
    comp = require_table(cat)
    top = n ** (m + 1)
    skip = cat._identity_set if normalized else ()
    # the outer terms' offsets from τ·n (left) and τ·n² (right), per output h
    lefts = [tuple(u * top + comp[u][h] for u in cat.morphisms_by_source[cat.target[h]]
                   if u not in skip)
             for h in range(n)]
    rights = [tuple(u * n + comp[h][u] for u in cat.morphisms_by_target[cat.source[h]]
                    if u not in skip)
              for h in range(n)]
    right_sign = -1 if (m + 1) % 2 else 1
    # v∘w = z as the two digits v·n + w
    pairs = tuple(tuple(v * n + w for v, w in ps if v not in skip and w not in skip)
                  for ps in _factorizations(cat))
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
                            f"differential leaves the {'normalized' if normalized else 'relative'}"
                            f" subcomplex at degree {m}: "
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


def hochschild_differential_matrix(cat, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the degree-m differential in the lexicographic bases: the
    memoized integer matrix itself.

    Every basis up to degree m + 1 is checked against the cap first, as
    running products, so no size above ``n_morphisms * cap`` is formed.
    """
    check_degree(m)
    check_sizes(hochschild_sizes(cat), m + 1, cap)
    return _full_differential(cat, m)


def hochschild_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of HH^0..HH^max_m over the full cochain complex.

    Every degree's full basis size is checked against the cap first.  One
    object, same complex: with at most one object the relative complex is
    the full one (``relative_is_full``), so these are
    ``relative_cohomology_dims``, ranked on the normalized complex.
    Otherwise ``d_m d_(m−1) = 0`` is checked on the full
    differentials (NotASubspace when it fails), and then the homotopy
    identity on C^0..C^max_m; when every identity holds, these are
    ``relative_cohomology_dims`` (the homotopy lemma in the module
    docstring).  When one fails, every full differential is ranked.
    """
    check_degree(max_m)
    check_sizes(hochschild_sizes(cat), max_m + 1, cap)
    if relative_is_full(cat):
        return relative_cohomology_dims(cat, field, max_m, cap)
    mats = [hochschild_differential_matrix(cat, m, cap) for m in range(max_m + 1)]
    check_complex(mats, field)
    if all(_homotopy_holds(cat, field, mats, m) for m in range(max_m + 1)):
        return relative_cohomology_dims(cat, field, max_m, cap)
    return cohomology_dims(mats, field)


@memo
def _homotopy(cat: FiniteCategory, m: int) -> Matrix:
    """The integer matrix of ``h^m: C^m → C^(m−1)`` for m >= 1, in the full bases.

    Row ``(a_1..a_(m−1); out)`` holds ``+1`` at ``((1_(target out),
    a_1..a_(m−1)); out)`` and, for each i = 1..m−1 with ``a_1..a_i``
    composable and ``target out = target a_1``, ``(−1)^i`` at
    ``((a_1..a_i, 1_(source a_i), a_(i+1)..a_(m−1)); out)``, the terms
    summed, since equal columns meet when a factor is an identity.  In
    base-n indices, with ``τ`` the row's tuple index and ``low =
    n^(m−1−i)``, the first column is ``(1_(target out)·n^(m−1) + τ)·n +
    out`` and slot i's is ``((τ // low · n + 1_(source a_i))·low + τ mod
    low)·n + out``.
    """
    n = cat.n_morphisms
    source, target, identity = cat.source, cat.target, cat.identity
    top = n ** (m - 1)
    firsts = [identity[target[out]] * top * n + out for out in range(n)]
    rows: dict = {}
    for tau, tup in enumerate(itertools.product(range(n), repeat=m - 1)):
        # slot i's column less its output, for each composable prefix a_1..a_i
        inner: dict = {}
        sign, low = -1, top
        for i, a in enumerate(tup):
            if i and source[tup[i - 1]] != target[a]:
                break
            low //= n
            hi, lo = divmod(tau, low)
            key = ((hi * n + identity[source[a]]) * low + lo) * n
            inner[key] = inner.get(key, 0) + sign
            sign = -sign
        base = tau * n
        for out in range(n):
            rows[base + out] = {firsts[out] + base: 1}
        inner = [(key, s) for key, s in inner.items() if s]
        if not inner:
            continue
        for out in cat.morphisms_by_target[target[tup[0]]]:
            row = rows[base + out]
            for key, s in inner:
                c = key + out
                if v := row.get(c, 0) + s:
                    row[c] = v
                else:
                    del row[c]
            if not row:
                del rows[base + out]
    return Matrix(QQ, top * n, top * n * n, rows)


def _homotopy_holds(cat: FiniteCategory, field: FieldSpec, mats: list, m: int) -> bool:
    """Whether ``∂^(m−1) h^m + h^(m+1) ∂^m = I − ιρ`` on C^m in ``field``.

    ``mats`` holds the full differentials from degree 0 through at least
    m.  The two sides are compared over Z and a difference is reduced
    into the field (``Matrix.first_difference``).  ``I − ιρ`` is the
    diagonal of 1s on the full indices outside the relative basis.
    """
    lhs = _homotopy(cat, m + 1) @ mats[m]
    if m:
        lhs = lhs + mats[m - 1] @ _homotopy(cat, m)
    relative = _slice(cat, m, False)[1]
    rhs = Matrix(QQ, lhs.nrows, lhs.ncols, {i: {i: 1} for i in range(lhs.nrows) if i not in relative})
    return lhs.first_difference(rhs, field) is None


# --- the relative subcomplex ---------------------------------------------------

@memo
def _slice(cat: FiniteCategory, m: int, normalized: bool) -> tuple:
    """``(basis, index)`` of the relative degree-m cochains, with no identity
    factor in any tuple when ``normalized``.

    ``basis`` holds the pairs (tup, h) in lexicographic order, tup a
    composable m-tuple and h in Hom(source, target); in degree 0, the
    endomorphisms.  ``index`` maps a full base-n index to its position.
    """
    if m == 0:
        # degree 0 is the centralizer of the identity span: the endomorphisms
        basis = tuple(((), h) for h in cat.all_endomorphisms)
    else:
        # tuples are in tensor order: each next factor composes on the right
        skip = cat._identity_set if normalized else ()
        source = cat.source
        by_target = [[g for g in arrows if g not in skip] for arrows in cat.morphisms_by_target]
        chains = [(g,) for g in range(cat.n_morphisms) if g not in skip]
        for _ in range(m - 1):
            chains = [t + (g,) for t in chains for g in by_target[source[t[-1]]]]
        # from a list, as the relative basis always was: tuple(<generator>)
        # alone moved the benchmark's peak RSS by over 10%
        basis = tuple([(tup, h) for tup in chains for h in cat.hom(source[tup[-1]], cat.target[tup[0]])])
    return basis, {basis_index(cat, tup, h): i for i, (tup, h) in enumerate(basis)}


@memo
def _sliced_differential(cat: FiniteCategory, m: int, normalized: bool) -> Matrix:
    """The integer differential on the columns ``_slice(cat, m, normalized)``,
    rows numbered in ``_slice(cat, m + 1, normalized)``.

    When ``normalized`` it is built without the terms that have an identity
    factor (the normalization lemma in the module docstring).
    """
    n = cat.n_morphisms
    cols = _slice(cat, m, normalized)[0]
    row_of = _slice(cat, m + 1, normalized)[1]
    groups = ((tup, basis_index(cat, tup, 0) // n, [(c, h) for c, (_tup, h) in pairs])
              for tup, pairs in itertools.groupby(enumerate(cols), key=lambda item: item[1][0]))
    return Matrix(QQ, len(row_of), len(cols),
                  _differential_rows(cat, m, groups, row_of, normalized))


def relative_basis(cat: FiniteCategory, m: int) -> list:
    """Basis of the relative degree-m cochains, ordered lexicographically.

    Pairs (tup, h) with tup composable in tensor order (each factor's source
    is the next factor's target) and h running over Hom(source, target) of
    the composite; in degree 0, the endomorphisms of the category.
    """
    check_degree(m)
    return list(_slice(cat, m, False)[0])


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


def relative_is_full(cat: FiniteCategory) -> bool:
    """Whether the relative complex is the full one in every degree: exactly
    when ``cat`` has at most one object.

    With one object every tuple is composable and every morphism lies in
    Hom(x, x).  With two or more, two identities lie in different hom sets,
    so degree 1 has ``Σ_{x,y} |Hom(x, y)|² < n²`` relative pairs.  The empty
    category has every cochain space zero.
    """
    return cat.n_objects <= 1


def relative_differential_matrix(cat, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the differential restricted to relative cochains: the
    memoized integer matrix itself.

    Every relative basis up to degree m + 1 is checked against the cap,
    and the first one over it refused, before any basis is enumerated.
    With one object (``relative_is_full``) this is the full differential
    itself, and no basis is listed.
    """
    check_degree(m)
    check_sizes(relative_sizes(cat), m + 1, cap)
    if relative_is_full(cat):
        return _full_differential(cat, m)
    return _sliced_differential(cat, m, False)


def relative_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of the relative cohomology in degrees 0..max_m.

    Every degree's relative basis size is checked against the cap first;
    then the normalized complex is ranked, which has the same cohomology
    (the normalization lemma in the module docstring).
    """
    check_degree(max_m)
    check_sizes(relative_sizes(cat), max_m + 1, cap)
    return cohomology_dims([_sliced_differential(cat, m, True) for m in range(max_m + 1)], field)
