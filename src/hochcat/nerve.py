"""Nerve of a finite category and its simplicial cochain complex.

A degree-m chain is a composable sequence ``(g_0, .., g_{m-1})`` stored
source to target (``target(g_i) == source(g_{i+1})``); degree-0 chains are
the objects.  Degenerate chains (those containing identities) are kept: the
nerve is the full simplicial set, cohomology is unaffected, and keeping them
makes the index bijections with Hochschild data exact.

Chains are addressed by index arithmetic, never by tuple.  Degree-1
chains are numbered by morphism, and the degree-(m+1) chains list the
extensions of the degree-m chains in order, each by the morphisms out of
its end in ``morphisms_by_source`` order; that is the lexicographic order
``nerve_chains`` lists.  So two arrays per degree address every chain
(``_layer``): ``last[i]``, the last morphism of chain i, and ``start[i]``,
the number of its first extension, so that ``(g_0..g_k)`` is chain
``start[(g_0..g_(k−1))] + pos(g_k)`` with ``pos(g)`` the place of g among
the morphisms out of its source.  Everything built on the nerve is an
array of such numbers, climbed from the degree below: each face of a
chain, each prism term and each retracted chain is the same thing for its
prefix, extended by one morphism.  ``nerve_chains`` and ``face`` list the
tuples, for a reader and for the test oracles; no route here reads them.

The coboundary of a scalar cochain f is
``(δf)(σ) = Σ_i (-1)^i f(face(σ, i))``.  Its matrix is built from the
face arrays of the (m+1)-chains (``_faces``), one row per chain, straight
into the row dicts of an integer ``Matrix``, and memoized on the category
per degree, for every field; a field enters only at an elimination and at
the verdict of an identity.

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
0; ``verify_prism_identity`` checks ``P δ + δ P = (i∘r)^* − I`` with it.

Lemma (the skeleton; Quillen, *Higher algebraic K-theory I*, 1973, §1):
with i: S → D the inclusion, if ``verify_prism_identity`` holds in degrees
0..m, restriction to S's chains induces an isomorphism ``H^k(D) ≅ H^k(S)``
for k ≤ m:

* each ``c_a`` is a checked isomorphism (both composites with its inverse
  are identities), so r is a functor and ``r^*`` a cochain map;
* ``c_rep = id`` makes ``r∘i = id_S``, so ``i^* r^* = I``;
* the prism identity makes ``r^* i^*`` homotopic to I, so ``i^*`` and
  ``r^*`` are inverse on cohomology;
* S is a full subcategory, so the faces of its chains are its chains,
  and its coboundary ``δ_S`` is the restriction of δ to them.

So ``simplicial_cohomology_dims`` ranks ``δ_S`` once the identity holds in
every degree it reports, and D's own coboundaries when it fails or a row of
``δ_S`` leaves S.  When every isomorphism class is one object, S = D and no
prism is built.  The lemma needs nothing but D: for a group C and
D = ``F^ad(C)``, S is the disjoint union of the centralizers, one per
conjugacy class.

Lemma (the cocycles): if r is a functor onto S (``_retraction_is_functor``:
each ``c_a: a → rep(a)`` has an inverse and ``r(g) = c_b∘g∘c_a⁻¹``) and the
prism identity holds in degree m, then

    ker δ^m_D = r^*(ker δ^m_S) + im δ^(m−1)_D      (no image term for m = 0):

* if ``δ^m z = 0``, the identity applied to z gives
  ``z = r^*(i^*z) − δ^(m−1)(P^(m−1) z)``, and ``i^*z`` is a cocycle of S
  since ``δ_S`` is the restriction of δ;
* r is a functor onto S, so ``r^*`` is a cochain map and sends cocycles of
  S to cocycles of D, and ``δ^m δ^(m−1) = 0``.

So ``simplicial_cocycle_space`` is the row space of the rows ``z∘r``, one
per basis row z of ``ker δ^m_S``, and the rows of ``(δ^(m−1)_D)ᵀ``, one per
(m−1)-chain; only S's coboundary is eliminated.  For ``F^ad`` of ``s4``
that is 681 × 43 against D's 13,824 × 576 in degree 1.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, compress, count, repeat

from .category import FiniteCategory, memo
from .fields import QQ, FieldSpec
from .hochschild import check_degree, check_sizes
from .matrix import Matrix, Subspace, VerificationResult, cohomology_dims


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


# --- chains by prefix offsets ----------------------------------------------------

@memo
def _positions(cat: FiniteCategory) -> array:
    """Per morphism g, its place in ``morphisms_by_source[source g]``: the
    offset of the extension by g among the extensions of a chain."""
    pos = array("l", [0]) * cat.n_morphisms
    for outs in cat.morphisms_by_source:
        for j, g in enumerate(outs):
            pos[g] = j
    return pos


@memo
def _layer(cat: FiniteCategory, m: int) -> tuple:
    """``(last, start)`` for the degree-m chains, m >= 1: ``last[i]`` is the
    last morphism of chain i, and its extensions are the degree-(m+1)
    chains ``start[i] .. start[i+1] − 1``, in ``morphisms_by_source`` order.

    Degree 1 is numbered by morphism, and degree m + 1 lists the
    extensions of degree m's chains in order, so these arrays address
    every chain: ``(g_0..g_k)`` is ``start[(g_0..g_(k−1))] + pos(g_k)``.
    """
    outs, target = cat.morphisms_by_source, cat.target
    if m == 1:
        last = array("l", range(cat.n_morphisms))
    else:
        below = _layer(cat, m - 1)[0]
        last = array("l", chain.from_iterable(map(outs.__getitem__, map(target.__getitem__, below))))
    ends = map(outs.__getitem__, map(target.__getitem__, last))
    return last, array("l", accumulate(map(len, ends), initial=0))


def _blocks(cat: FiniteCategory, m: int):
    """Yield ``(p, first, x)`` for the degree-m chains, m >= 2, grouped by
    prefix: p is a degree-(m−1) chain ending at x, and its extensions by
    ``morphisms_by_source[x]`` are the chains from ``first`` on."""
    last, start = _layer(cat, m - 1)
    return zip(count(), start, map(cat.target.__getitem__, last))


def _faces(cat: FiniteCategory, m: int) -> list:
    """Per i in 0..m, the array of ``face(σ, i)`` over the degree-m chains σ,
    m >= 1, as indices of degree m − 1 (objects for m = 1).

    For σ the extension of p by g, a face that keeps g is the same face of
    p extended by g, so over p's extensions it runs through consecutive
    chains; the inner face that glues g to p's last arrow h is p's last
    face extended by g∘h; the last face is p.  Each degree is built from
    the one below, and only the top one is kept.
    """
    if m == 1:
        return [array("l", cat.target), array("l", cat.source)]
    compose = cat.compose
    pos = _positions(cat)
    # degree 2: σ = (h, g) has faces g, g∘h and h
    faces = [array("l"), array("l"), array("l")]
    by_source = cat.morphisms_by_source
    for h, _first, x in _blocks(cat, 2):
        outs = by_source[x]
        faces[0].extend(outs)
        faces[1].extend(compose(g, h) for g in outs)
        faces[2].extend(repeat(h, len(outs)))
    glued = array("l", map(pos.__getitem__, faces[1]))   # 2-chain -> place of its composite
    starts_1 = _layer(cat, 1)[1]
    for k in range(2, m):   # degree k -> k + 1
        below, last, starts = faces, _layer(cat, k)[0], _layer(cat, k - 1)[1]
        faces = [array("l") for _ in range(k + 2)]
        for p, _first, x in _blocks(cat, k + 1):
            size = len(by_source[x])
            for i in range(k):
                s = starts[below[i][p]]
                faces[i].extend(range(s, s + size))
            s, h = starts[below[k][p]], starts_1[last[p]]
            faces[k].extend(map(s.__add__, glued[h:h + size]))
            faces[k + 1].extend(repeat(p, size))
    return faces


def _signed_rows(terms: list) -> dict:
    """``{i: Σ_j (−1)^j e[terms[j][i]]}`` over Z, on the nonzero rows.

    Rows whose terms are distinct are built in one pass; where terms
    coincide (a degenerate chain), their signs are summed.
    """
    signs = [(-1) ** j for j in range(len(terms))]
    rows = dict(enumerate(map(dict, map(zip, zip(*terms), repeat(signs)))))
    width = len(terms)
    for i in list(compress(count(), map(width.__gt__, map(len, rows.values())))):
        acc: dict = {}
        for j, s in enumerate(signs):
            c = terms[j][i]
            acc[c] = acc.get(c, 0) + s
        if row := {c: s for c, s in acc.items() if s}:
            rows[i] = row
        else:
            del rows[i]
    return rows


def _chain_count(cat: FiniteCategory, m: int) -> int:
    return cat.n_objects if m == 0 else len(_layer(cat, m)[0])


@memo
def _coboundary(cat: FiniteCategory, m: int) -> Matrix:
    """The degree-m coboundary as an integer matrix: row σ, a degree-(m+1)
    chain, is ``Σ_i (−1)^i e[face(σ, i)]``, its faces read off ``_faces``."""
    faces = _faces(cat, m + 1)
    return Matrix(QQ, len(faces[0]), _chain_count(cat, m), _signed_rows(faces))


def simplicial_coboundary_matrix(cat, field: FieldSpec, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the coboundary from degree-m to degree-(m+1) cochains, over
    ``field``: over Q the memoized integer matrix itself.

    Every chain count up to degree m + 1 is checked against the cap
    (``nerve_sizes``) before the memo is read.
    """
    check_degree(m)
    check_sizes(nerve_sizes(cat), m + 1, cap)
    return _coboundary(cat, m).over(field)


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


@memo
def _skeleton_chains(cat: FiniteCategory, m: int) -> tuple:
    """Indices of the degree-m chains of the skeleton, ascending.

    A chain is the skeleton's when its objects are all representatives.
    The extensions of chain i start at its offset (``_layer``), so each
    extension is placed without listing degree k + 1.
    """
    rep = _skeleton(cat)[0]
    if m == 0:
        return tuple(a for a, x in enumerate(rep) if a == x)
    source, target, by_source = cat.source, cat.target, cat.morphisms_by_source
    inside = [rep[source[g]] == source[g] and rep[target[g]] == target[g]
              for g in range(cat.n_morphisms)]
    picked = [g for g in range(cat.n_morphisms) if inside[g]]   # chain (g,) is number g
    for k in range(1, m):
        last, starts = _layer(cat, k)
        picked = [starts[i] + j for i in picked
                  for j, g in enumerate(by_source[target[last[i]]]) if inside[g]]
    return tuple(picked)


def _skeleton_coboundary(cat: FiniteCategory, m: int) -> Matrix | None:
    """The degree-m integer coboundary of the skeleton: the memoized one's
    rows and columns on the skeleton's chains, renumbered in their order.

    None when a selected row reads a chain outside the skeleton, which a
    full subcategory never does.
    """
    delta = _coboundary(cat, m)
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
    return Matrix(QQ, len(picked), len(col_of), rows)


def _common_sources(cat: FiniteCategory, r) -> list:
    """Per object x, the one source of ``r g`` over the arrows g out of x, or
    None when they differ; a chain ending at y extends by every such ``r g``
    exactly when y is that source."""
    source = cat.source
    out = []
    for outs in cat.morphisms_by_source:
        found = {source[r[g]] for g in outs}
        out.append(found.pop() if len(found) == 1 else None)
    return out


def _prism_terms(cat: FiniteCategory, m: int) -> list | None:
    """Per j in 0..m, the array over the degree-m chains σ of the
    degree-(m+1) chain ``(g_0..g_(j−1), c_(x_j), r g_j..r g_(m−1))``, the
    j-th term of σ's prism row; None when a term is no chain.

    For σ the extension of p by g, term j < m is p's term j extended by
    ``r g``, and term m is σ extended by ``c_(target g)``.  A term that is
    no chain has none above it (every chain extends by an identity), so
    building degree by degree and stopping at the first finds every one.
    """
    _rep, c, r = _skeleton(cat)
    source, target = cat.source, cat.target
    if m == 0:
        return [array("l", c)]
    pos = _positions(cat)
    if any(source[c[x]] != x for x in range(cat.n_objects)):
        return None   # the last term (id_x, c_x) of the 1-chain (id_x) is no chain
    common = _common_sources(cat, r)
    r_pos = [[pos[r[g]] for g in outs] for outs in cat.morphisms_by_source]
    c_pos = [[pos[c[target[g]]] for g in outs] for outs in cat.morphisms_by_source]
    starts_1 = _layer(cat, 1)[1]
    # degree 1: σ = (g) through x_0 = source g
    if any(target[c[source[g]]] != source[r[g]] for g in range(cat.n_morphisms)):
        return None
    terms = [array("l", (starts_1[c[source[g]]] + pos[r[g]] for g in range(cat.n_morphisms))),
             array("l", (starts_1[g] + pos[c[target[g]]] for g in range(cat.n_morphisms)))]
    for k in range(2, m + 1):   # degree k − 1 -> k
        below, (last, starts) = terms, _layer(cat, k)
        terms = [array("l") for _ in range(k + 1)]
        for p, first, x in _blocks(cat, k):
            for j in range(k):
                t = below[j][p]
                if target[last[t]] != common[x]:
                    return None
                terms[j].extend(map(starts[t].__add__, r_pos[x]))
            terms[k].extend(map(int.__add__, starts[first:first + len(c_pos[x])], c_pos[x]))
    return terms


@memo
def _prism(cat: FiniteCategory, m: int) -> Matrix | None:
    """P^m as an integer matrix, one row per m-chain over the (m+1)-chains.

    Row σ sums ``(−1)^j e[term j]`` over the terms of ``_prism_terms``;
    terms can coincide (a degenerate σ over identity c's), so signs are
    summed.  None when a term is no chain, which happens only when c or r
    is not what ``_skeleton`` makes.
    """
    terms = _prism_terms(cat, m)
    if terms is None:
        return None
    return Matrix(QQ, _chain_count(cat, m), _chain_count(cat, m + 1), _signed_rows(terms))


@memo
def _retracted(cat: FiniteCategory, m: int) -> array | None:
    """Per degree-m chain σ, the index of rσ, or None when some rσ is no
    chain, which happens only when r is no functor.

    ``r(p, g)`` is ``r p`` extended by ``r g``; as for the prism terms, a
    retracted chain that is no chain has none above it.
    """
    rep, _c, r = _skeleton(cat)
    if m == 0:
        return array("l", rep)
    if m == 1:
        return array("l", r)
    below = _retracted(cat, m - 1)
    if below is None:
        return None
    last, starts = _layer(cat, m - 1)
    pos, target = _positions(cat), cat.target
    common = _common_sources(cat, r)
    r_pos = [[pos[r[g]] for g in outs] for outs in cat.morphisms_by_source]
    out = array("l")
    for p, _first, x in _blocks(cat, m):
        t = below[p]
        if target[last[t]] != common[x]:
            return None
        out.extend(map(starts[t].__add__, r_pos[x]))
    return out


def _retraction_minus_identity(cat: FiniteCategory, m: int) -> Matrix | None:
    """``(i∘r)^* − I`` on degree-m cochains as an integer matrix: row σ is
    ``e[rσ] − e[σ]``.

    None when some rσ is no chain, which happens only when r is no functor.
    """
    moved = _retracted(cat, m)
    if moved is None:
        return None
    rows = {i: {j: 1, i: -1} for i, j in enumerate(moved) if j != i}
    return Matrix(QQ, len(moved), len(moved), rows)


def verify_prism_identity(cat: FiniteCategory, field: FieldSpec, m: int,
                          cap: int | None = None) -> VerificationResult:
    """P^m δ^m + δ^(m−1) P^(m−1) = (i∘r)^* − I on degree-m cochains of ``cat``.

    P is the prism of the skeleton of ``cat``, i its inclusion and r the
    retraction onto it; there is no ``δ^(−1)`` term in degree 0.  The chain
    counts up to degree m + 1 are checked against the cap first.  A prism
    term or a retracted chain that is no chain fails the check.
    """
    delta = simplicial_coboundary_matrix(cat, QQ, m, cap)
    prisms = [_prism(cat, k) for k in range(max(m - 1, 0), m + 1)]
    rhs = _retraction_minus_identity(cat, m)
    if None in prisms or rhs is None:
        return VerificationResult("prism", m, False, (-1, -1, "no chain", None))
    lhs = prisms[-1] @ delta
    if m:
        lhs = lhs + simplicial_coboundary_matrix(cat, QQ, m - 1, cap) @ prisms[0]
    return VerificationResult.of("prism", m, lhs, rhs, field)


def _retraction_is_functor(cat: FiniteCategory) -> bool:
    """Whether r is a functor onto the skeleton: each ``c_a`` runs
    ``a → rep(a)``, a representative, and has an inverse, and
    ``r(g) = c_b ∘ g ∘ c_a⁻¹`` for every ``g: a → b``.

    Then ``r(g∘f) = c_c g c_b⁻¹ c_b f c_a⁻¹ = r(g)∘r(f)`` by associativity,
    and ``r(g)`` runs ``rep(a) → rep(b)``, inside the full subcategory S:
    one inverse per object and two composites per arrow are checked.
    """
    rep, c, r = _skeleton(cat)
    inverse = [_inverse(cat, f) for f in c]
    if None in inverse or any(cat.target[f] != x or rep[x] != x for f, x in zip(c, rep)):
        return False
    compose, source, target = cat.compose, cat.source, cat.target
    return all(r[g] == compose(c[target[g]], compose(g, inverse[source[g]]))
               for g in range(cat.n_morphisms))


def _pulled_back(cat: FiniteCategory, m: int, cochains: Matrix) -> dict:
    """The rows ``z∘r`` of the rows z of ``cochains``, degree-m cochains of the
    skeleton, in the coordinates of the degree-m chains of ``cat``, by row
    number; r must be a functor onto the skeleton (``_retraction_is_functor``)."""
    position = {d: j for j, d in enumerate(_skeleton_chains(cat, m))}
    # chain i of cat -> the position of rσ_i among the skeleton's chains
    at = list(map(position.__getitem__, _retracted(cat, m)))
    rows = {}
    for k, z in cochains.rows.items():
        if row := {i: z[j] for i, j in enumerate(at) if j in z}:
            rows[k] = row
    return rows


# --- cohomology ------------------------------------------------------------------

def simplicial_cocycle_space(cat, field: FieldSpec, m: int, cap: int | None = None) -> Subspace:
    """The degree-m cocycles of the nerve, ``ker δ^m``, in the coordinates of
    the degree-m chains.

    The chain counts up to degree m + 1 are checked against the cap first.
    When the skeleton is smaller than the category, r is a functor onto it
    and the prism identity holds in degree m, the cocycles are spanned by
    those of the skeleton pulled back along r and the coboundaries of
    degree m − 1 (the cocycle lemma); otherwise ``δ^m`` is eliminated.
    """
    delta = simplicial_coboundary_matrix(cat, QQ, m, cap)
    if (len(_skeleton_chains(cat, 0)) < cat.n_objects and _retraction_is_functor(cat)
            and verify_prism_identity(cat, field, m, cap)
            and (delta_s := _skeleton_coboundary(cat, m)) is not None):
        cocycles = delta_s.kernel_basis(field).basis
        rows, nrows = _pulled_back(cat, m, cocycles), cocycles.nrows
        if m:   # and the rows of (δ^(m−1))ᵀ below them
            bounded = simplicial_coboundary_matrix(cat, QQ, m - 1, cap).transpose(field)
            rows.update((nrows + i, row) for i, row in bounded.rows.items())
            nrows += bounded.nrows
        return Subspace.from_matrix(Matrix(field, nrows, delta.ncols, rows))
    return delta.kernel_basis(field)


def simplicial_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of the nerve cohomology in degrees 0..max_m.

    Every degree's chain count up to ``max_m + 1`` is checked against the
    cap (``nerve_sizes``) before the first chain is listed.  The skeleton
    is ranked when it is smaller than the category and the skeleton lemma
    applies; the category's own coboundaries otherwise.
    """
    check_degree(max_m)
    check_sizes(nerve_sizes(cat), max_m + 1, cap)
    rng = range(max_m + 1)
    smaller = len(_skeleton_chains(cat, 0)) < cat.n_objects
    if smaller and all(verify_prism_identity(cat, field, m, cap) for m in rng):
        deltas = [_skeleton_coboundary(cat, m) for m in rng]
        if None not in deltas:
            return list(cohomology_dims(deltas, field))
    return list(cohomology_dims((simplicial_coboundary_matrix(cat, QQ, m, cap) for m in rng), field))
