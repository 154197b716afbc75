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

A skeleton S of a category D is the full subcategory on one object per
isomorphism class; here the least one, ``rep(a)``.  ``_skeleton`` picks an
isomorphism ``c_a: a → rep(a)`` for each object, the inverse of the least
isomorphism ``rep(a) → a`` (so ``c_rep`` is the identity), and the
retraction ``r(g: a → b) = c_b ∘ g ∘ c_a⁻¹`` onto S.  The nerve of S is a
simplicial subset of D's: its chains are the chains of D whose objects are
all representatives, and its coboundary is the submatrix of D's on them
(``_skeleton_coboundary``).  The natural isomorphism ``c: id ⇒ i∘r`` gives
the prism ``P^m: C^(m+1)(D) → C^m(D)``,

    (P f)(g_0..g_(m−1)) = Σ_(j=0..m) (−1)^j f(g_0..g_(j−1), c_(x_j), r g_j..r g_(m−1)),

with ``x_j`` the object after j arrows and ``(P f)(x) = f(c_x)`` in degree
0; ``comparison.verify_prism_identity`` checks ``P δ + δ P = (i∘r)^* − I``
with it.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

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


# --- the skeleton and its prism ------------------------------------------------

def _inverse(cat: FiniteCategory, f: int):
    """The inverse of f, or None: a g with g∘f and f∘g both identities."""
    x, y = cat.source[f], cat.target[f]
    for g in cat.hom(y, x):
        if cat.compose(g, f) == cat.identity[x] and cat.compose(f, g) == cat.identity[y]:
            return g
    return None


@memo
def _skeleton(cat: FiniteCategory) -> tuple:
    """``(rep, c, r)``: the skeleton on the least object of each isomorphism
    class and the retraction onto it, per object and morphism.

    ``rep[a]`` is the least object isomorphic to a, ``c[a]`` an isomorphism
    ``a → rep(a)`` (an identity when ``rep[a] == a``), and
    ``r[g] = c_b ∘ g ∘ c_a⁻¹`` for ``g: a → b``.

    Objects are visited in order, and one not yet placed is a
    representative x.  Each morphism f out of x, in index order, that has
    an inverse g places its target y if y is not yet placed: ``rep(y) = x``
    and ``c_y = g``.  A class's least object is met first, so it is the
    representative, and ``c_y`` inverts the least isomorphism ``x → y``.
    """
    n = cat.n_objects
    rep, c, c_inv = [None] * n, [None] * n, [None] * n
    for x in range(n):
        if rep[x] is not None:
            continue
        rep[x], c[x], c_inv[x] = x, cat.identity[x], cat.identity[x]
        for f in cat.morphisms_by_source[x]:
            y = cat.target[f]
            if rep[y] is None and (g := _inverse(cat, f)) is not None:
                rep[y], c[y], c_inv[y] = x, g, f
    compose, source, target = cat.compose, cat.source, cat.target
    r = tuple(compose(c[target[g]], compose(g, c_inv[source[g]])) for g in range(cat.n_morphisms))
    return tuple(rep), tuple(c), r


def _skeleton_is_whole(cat: FiniteCategory) -> bool:
    """Every isomorphism class is one object: S is the whole category and r = id."""
    return len(_skeleton_chains(cat, 0)) == cat.n_objects


@memo
def _skeleton_chains(cat: FiniteCategory, m: int) -> tuple:
    """Indices in ``_chains_cached(cat, m)``, ascending, of the chains of the skeleton.

    A chain is the skeleton's when its objects are all representatives.
    Chains of degree k + 1 are listed grouped by their degree-k prefix, so
    the extensions of chain i start where those of the chains before it
    end; those offsets place each extension without listing degree k + 1.
    """
    rep = _skeleton(cat)[0]
    if m == 0:
        return tuple(a for a, x in enumerate(rep) if a == x)
    source, target, by_source = cat.source, cat.target, cat.morphisms_by_source
    inside = [rep[source[g]] == source[g] and rep[target[g]] == target[g]
              for g in range(cat.n_morphisms)]
    picked = [g for g in range(cat.n_morphisms) if inside[g]]   # chain (g,) is number g
    for k in range(1, m):
        chains = _chains_cached(cat, k)
        starts = list(accumulate((len(by_source[target[ch[-1]]]) for ch in chains), initial=0))
        picked = [starts[i] + j for i in picked
                  for j, g in enumerate(by_source[target[chains[i][-1]]]) if inside[g]]
    return tuple(picked)


def _skeleton_coboundary(cat: FiniteCategory, field: FieldSpec, m: int) -> Matrix | None:
    """The degree-m coboundary of the skeleton: the memoized one's rows and
    columns on the skeleton's chains, renumbered in their order.

    The whole coboundary when the skeleton is the whole category.  None
    when a selected row reads a chain outside the skeleton, which a full
    subcategory never does.
    """
    delta = _coboundary(cat, field, m)
    if _skeleton_is_whole(cat):
        return delta
    col_of = {c: j for j, c in enumerate(_skeleton_chains(cat, m))}
    picked = _skeleton_chains(cat, m + 1)
    rows = {}
    for i, r in enumerate(picked):
        row = delta.rows.get(r)
        if row is None:
            continue
        if not col_of.keys() >= row.keys():
            return None
        rows[i] = {col_of[c]: v for c, v in row.items()}
    return Matrix(field, len(picked), len(col_of), rows)


def _path(cat: FiniteCategory, chain) -> list:
    """The objects ``x_0..x_m`` a chain passes through; an object is its own path."""
    if isinstance(chain, int):
        return [chain]
    return [cat.source[chain[0]], *(cat.target[g] for g in chain)]


@memo
def _prism(cat: FiniteCategory, field: FieldSpec, m: int) -> Matrix | None:
    """P^m as a matrix, one row per m-chain over the (m+1)-chains.

    Row σ sums ``(−1)^j e[(g_0..g_(j−1), c_(x_j), r g_j..r g_(m−1))]``,
    looked up in the degree-(m+1) chain index.  Terms can coincide (a
    degenerate σ over identity c's), so signs are summed over Z before
    they are reduced into the field.  None when a term is no chain, which
    happens only when c or r is not what ``_skeleton`` makes.
    """
    _rep, c, r = _skeleton(cat)
    col_index = _chain_index(cat, m + 1)
    chains = _chains_cached(cat, m)
    scalars = _IntScalars(field)
    rows = {}
    for i, chain in enumerate(chains):
        sigma = () if m == 0 else chain
        moved = tuple(r[g] for g in sigma)
        acc: dict = {}
        for j, x in enumerate(_path(cat, chain)):
            col = col_index.get(sigma[:j] + (c[x],) + moved[j:])
            if col is None:
                return None
            acc[col] = acc.get(col, 0) + (-1) ** j
        row = {col: v for col, s in acc.items() if (v := scalars[s]) is not None}
        if row:
            rows[i] = row
    return Matrix(field, len(chains), len(col_index), rows)


def _retraction_minus_identity(cat: FiniteCategory, field: FieldSpec, m: int) -> Matrix | None:
    """``(i∘r)^* − I`` on degree-m cochains: row σ is ``e[rσ] − e[σ]``.

    None when some rσ is no chain, which happens only when r is no functor.
    """
    rep, _c, r = _skeleton(cat)
    index = _chain_index(cat, m)
    one, minus = field.one, field.neg(field.one)
    rows = {}
    for i, chain in enumerate(_chains_cached(cat, m)):
        moved = rep[chain] if m == 0 else index.get(tuple(r[g] for g in chain))
        if moved is None:
            return None
        if moved != i:
            rows[i] = {moved: one, i: minus}
    return Matrix(field, len(index), len(index), rows)
