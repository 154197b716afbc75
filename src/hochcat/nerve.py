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
of the chains' arrow indices.  So two arrays per degree address every
chain (``_layer``): ``last[i]``, the last morphism of chain i, and
``start[i]``, the number of its first extension, so that ``(g_0..g_k)``
is chain ``start[(g_0..g_(k−1))] + pos(g_k)`` with ``pos(g)`` the place
of g among the morphisms out of its source.  Everything built on the
nerve is an array of such numbers, climbed from the degree below: each
face of a chain and each retracted chain is the same thing for its
prefix, extended by one morphism.

The coboundary of a scalar cochain f is
``(δf)(σ) = Σ_i (-1)^i f(face(σ, i))``, where ``face(σ, 0)`` drops the
first arrow, ``face(σ, m)`` the last, and an inner face composes two
consecutive arrows.  Its matrix is built from the face arrays of the
(m+1)-chains (``_faces``), one row per chain, straight into the row dicts
of an integer ``Matrix``, and memoized on the category per degree; it
takes no field, which enters only at an elimination.

A skeleton S of a category D is the full subcategory on one object per
isomorphism class; here the least one, ``rep(a)``.  ``_skeleton`` picks an
isomorphism ``c_a: a → rep(a)`` for each object, the inverse of the least
isomorphism ``rep(a) → a`` (so ``c_rep`` is the identity), and the
retraction ``r(g: a → b) = c_b ∘ g ∘ c_a⁻¹`` onto S.  A full subcategory
is a category of its own (``_full_subcategory``): its objects and the
arrows between them are numbered in ascending order of the parent's
indices, and it composes as the parent does.  S is the one on the
representatives (``_skeleton_category``), and its nerve, coboundaries and
classes are built as any category's.

Lemma (the skeleton): with i: S → D the inclusion, if
``_retraction_is_functor`` holds, ``i^*`` induces an isomorphism
``H^m(D) ≅ H^m(S)`` in every degree and over every field.
The check reads, exactly and in O(arrows):

* for each object a, ``source(c_a) = a`` and ``target(c_a) = rep(a)``,
  with ``rep(rep(a)) = rep(a)`` and ``c_rep(a)`` the identity;
* each ``c_a`` has an inverse (both composites are identities);
* ``r(g) = c_b ∘ g ∘ c_a⁻¹`` for every ``g: a → b``.

Then every composite read is defined, r is a functor D → S
(``r(g∘f) = c_c g c_b⁻¹ c_b f c_a⁻¹ = r(g)∘r(f)``), and
``c: id_D ⇒ i∘r`` is a natural isomorphism, since
``r(g)∘c_a = c_b∘g``.  A natural transformation between two functors
induces a homotopy between the maps they induce on nerves (Quillen,
*Higher algebraic K-theory I*, 1973, §1, Prop. 2; Segal, *Classifying
spaces and spectral sequences*, 1968), so ``r^* i^*`` is homotopic to I
on cochains.  ``c_rep = id`` makes ``r∘i = id_S``, so ``i^* r^* = I``.
Hence ``i^*`` and ``r^*`` are inverse on cohomology.  The homotopy is the
prism ``P^m: C^(m+1)(D) → C^m(D)``,

    (P f)(g_0..g_(m−1)) = Σ_(j=0..m) (−1)^j f(g_0..g_(j−1), c_(x_j), r g_j..r g_(m−1)),

with ``x_j`` the object after j arrows and ``(P f)(x) = f(c_x)`` in
degree 0, and ``P δ + δ P = (i∘r)^* − I``; the engine never builds it
(``tests/oracles.py`` evaluates the identity chain by chain).

So ``simplicial_cohomology_dims`` ranks S's own nerve when S is smaller
than D and the check holds, one decision for every degree and field, and
D's otherwise, in both cases one component per class (the component
lemma below).  When every isomorphism class is one object, S = D and
nothing is checked.  The lemma needs nothing but D: for a group C and
D = ``F^ad(C)``, S is the disjoint union of the centralizers, one per
conjugacy class.

Lemma (the components): let E be a category (here S or D) and K a full
subcategory of E, numbered as above.  Then

* K's chains, in its own order, are E's chains within K in E's order,
  and K's coboundary is E's restricted to them: chains are listed in the
  lexicographic order of their arrows' indices (the prefix order above),
  the numbering is increasing on arrows, and each face of a chain within
  K is within K, since K holds every composite of its arrows;
* when K is a connected component, δ_E is block diagonal, one block per
  component, and each block is that component's own δ: a chain's objects
  are joined by its arrows, so each chain lies in one component, that of
  its last arrow's target (of itself in degree 0), and its faces in the
  same one;
* a coboundary reads nothing but the sources, targets, identities and
  composition table, so two components whose tables are equal have equal
  coboundaries, and

    dim H^m(E) = Σ_classes (class size) · dim H^m(first component of the class).

The same argument, with K = S, makes S's coboundary D's restricted to the
chains through representatives.  ``_classes`` builds each component's
subcategory and joins it to the class with equal tables, one dict lookup,
keeping only each class's first subcategory; a category of one component
is its own class.  ``simplicial_cohomology_dims`` ranks, per class, the
coboundaries of that subcategory, and each walk checks ``d∘d = 0`` on its
own.  For ``max_m = 0`` it ranks all of E, since δ^0 reads no composite
and the cap may admit no 2-chain.  For D = ``F^ad`` of an abelian group
every component is one object carrying the group, all in one class, so
``F^ad(c8)`` is ranked on one of its eight components.

Lemma (the cocycles): if ``_retraction_is_functor`` holds, then

    ker δ^m_D = r^*(ker δ^m_S) + im δ^(m−1)_D      (no image term for m = 0):

* if ``δ^m z = 0``, the prism identity of the skeleton lemma applied to z
  gives ``z = r^*(i^*z) − δ^(m−1)(P^(m−1) z)``, and ``i^*z`` is a cocycle
  of S since i is a functor, so ``i^*`` a cochain map;
* r is a functor onto S, so ``r^*`` is a cochain map and sends cocycles of
  S to cocycles of D, and ``δ^m δ^(m−1) = 0``.

So ``simplicial_cocycle_space`` is the row space of the rows ``z∘r``, one
per basis row z of ``ker δ^m_S``, and the rows of ``(δ^(m−1)_D)ᵀ``, one per
(m−1)-chain.  ``_retracted`` numbers each rσ among S's own chains, so it
is the index array of a ``matrix.Reading`` R, row σ reading column rσ,
and the rows z∘r are those of ``Z @ R.T``, Z the cocycle basis.  Only
S's coboundary is eliminated, and D's ``δ^m`` is not built.  For ``F^ad``
of ``s4`` that is 681 × 43 against D's 13,824 × 576 in degree 1.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, compress, count, repeat

from .category import UNDEFINED, FiniteCategory, memo
from .fields import QQ, FieldSpec
from .hochschild import check_degree, check_sizes
from .matrix import Matrix, Reading, Subspace, cohomology_dims


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


def simplicial_coboundary_matrix(cat, m: int, cap: int | None = None) -> Matrix:
    """Matrix of the coboundary from degree-m to degree-(m+1) cochains: the
    memoized integer matrix itself.

    Every chain count up to degree m + 1 is checked against the cap
    (``nerve_sizes``) before the memo is read.
    """
    check_degree(m)
    check_sizes(nerve_sizes(cat), m + 1, cap)
    return _coboundary(cat, m)


# --- full subcategories, the skeleton and its retraction ---------------------

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


def _full_subcategory(cat: FiniteCategory, objects) -> FiniteCategory:
    """The full subcategory of ``cat`` on ``objects``, ascending, as a
    category of its own: its arrows are those of ``cat`` between them, both
    numbered in ascending order of ``cat``'s indices, and it composes as
    ``cat`` does, its table read with one ``composites`` call per arrow,
    over the arrows into its source."""
    at = {x: i for i, x in enumerate(objects)}
    source, target = cat.source, cat.target
    arrows = {g: i for i, g in enumerate(sorted(
        g for x in objects for g in cat.morphisms_by_source[x] if target[g] in at))}
    into = {x: [f for f in cat.morphisms_by_target[x] if source[f] in at] for x in objects}
    table = []
    for g in arrows:
        row, fs = [UNDEFINED] * len(arrows), into[source[g]]
        for f, h in zip(fs, cat.composites(g, fs)):
            row[arrows[f]] = arrows[h]
        table.append(tuple(row))
    return FiniteCategory(
        object_names=tuple(map(cat.object_names.__getitem__, objects)),
        morphism_names=tuple(map(cat.morphism_names.__getitem__, arrows)),
        source=tuple(at[source[g]] for g in arrows),
        target=tuple(at[target[g]] for g in arrows),
        identity=tuple(arrows[cat.identity[x]] for x in objects), compose_table=tuple(table))


@memo
def _skeleton_category(cat: FiniteCategory) -> FiniteCategory:
    """The skeleton as a category of its own: the full subcategory on the
    representatives."""
    return _full_subcategory(cat, sorted(set(_skeleton(cat)[0])))


@memo
def _retracted(cat: FiniteCategory, m: int) -> array:
    """Per degree-m chain σ, the index of rσ among the degree-m chains of
    the skeleton's own nerve (``_skeleton_category``); r must be a functor
    onto the skeleton (``_retraction_is_functor``).

    r is the identity on the skeleton (``c_rep = id``), so the skeleton's
    objects and arrows, ascending, are the images of rep and r, sorted.
    ``r(p, g)`` is ``r p`` extended by ``r g``: ``r p`` ends at
    ``rep(source g)``, the source of ``r g``.
    """
    rep, _c, r = _skeleton(cat)
    if m <= 1:
        image = r if m else rep
        number = {x: i for i, x in enumerate(sorted(set(image)))}
        return array("l", map(number.__getitem__, image))
    skeleton = _skeleton_category(cat)
    below, starts = _retracted(cat, m - 1), _layer(skeleton, m - 1)[1]
    pos, arrows = _positions(skeleton), _retracted(cat, 1)
    r_pos = [[pos[arrows[g]] for g in outs] for outs in cat.morphisms_by_source]
    out = array("l")
    for p, _first, x in _blocks(cat, m):
        out.extend(map(starts[below[p]].__add__, r_pos[x]))
    return out


def _retraction_is_functor(cat: FiniteCategory) -> bool:
    """Whether ``c: id ⇒ i∘r`` is a natural isomorphism onto the skeleton
    with ``c_rep = id``, the premise of the skeleton lemma.

    Each ``c_a`` must run ``a → rep(a)``, with ``rep(a)`` a representative
    whose c is its identity, and have an inverse, and
    ``r(g) = c_b ∘ g ∘ c_a⁻¹`` for every ``g: a → b``.  The sources and
    targets are checked before any composite is read, so every composite
    read is defined: one inverse per object and two composites per arrow.
    """
    rep, c, r = _skeleton(cat)
    source, target, identity = cat.source, cat.target, cat.identity
    if any(source[f] != a or target[f] != x or rep[x] != x or c[x] != identity[x]
           for a, (f, x) in enumerate(zip(c, rep))):
        return False
    inverse = [_inverse(cat, f) for f in c]
    if None in inverse:
        return False
    compose = cat.compose
    return all(r[g] == compose(c[target[g]], compose(g, inverse[source[g]]))
               for g in range(cat.n_morphisms))


# --- components and their classes ----------------------------------------------------

@memo
def _classes(cat: FiniteCategory) -> tuple:
    """Per class of equal components of ``cat``, in the order of their least
    objects, ``(sub, size)``: the full subcategory on the class's first
    component and the number of components in it; ``((cat, 1),)`` when
    ``cat`` is one component.

    Components are found by union-find over the arrows, each tree hung
    from its least object.  Each one's subcategory is built, and it joins
    the class whose sources, targets, identities and composition table are
    its own, one dict lookup; only each class's first subcategory is kept.
    """
    root = list(range(cat.n_objects))

    def find(x):
        while (up := root[x]) != x:
            root[x] = x = root[up]
        return x

    for a, b in zip(cat.source, cat.target):
        a, b = find(a), find(b)
        if a != b:
            root[max(a, b)] = min(a, b)
    members: dict = {}   # root -> objects, in root order
    for x in range(cat.n_objects):
        members.setdefault(find(x), []).append(x)
    if len(members) == 1:
        return ((cat, 1),)
    classes: dict = {}   # tables -> [first subcategory, size]
    for objects in members.values():
        sub = _full_subcategory(cat, objects)
        tables = (sub.source, sub.target, sub.identity, sub.compose_table)
        classes.setdefault(tables, [sub, 0])[1] += 1
    return tuple(map(tuple, classes.values()))


# --- cohomology ------------------------------------------------------------------

def _skeleton_applies(cat: FiniteCategory) -> bool:
    """Whether the skeleton stands for ``cat`` in every degree and field:
    it is smaller than ``cat`` and ``_retraction_is_functor`` holds (the
    skeleton lemma)."""
    return len(set(_skeleton(cat)[0])) < cat.n_objects and _retraction_is_functor(cat)


def simplicial_cocycle_space(cat, field: FieldSpec, m: int, cap: int | None = None) -> Subspace:
    """The degree-m cocycles of the nerve, ``ker δ^m``, in the coordinates of
    the degree-m chains.

    The chain counts up to degree m + 1 are checked against the cap first.
    When the skeleton lemma applies, the cocycles are spanned by those of
    the skeleton's own nerve pulled back along r and the coboundaries of
    degree m − 1 (the cocycle lemma), and ``δ^m`` of ``cat`` is never
    built; otherwise it is eliminated.  The pulled-back rows z∘r are the
    product of the skeleton's cocycle basis with the transpose of the
    ``Reading`` of ``_retracted``.
    """
    check_degree(m)
    check_sizes(nerve_sizes(cat), m + 1, cap)
    if not _skeleton_applies(cat):
        return _coboundary(cat, m).kernel_basis(field)
    cocycles = _coboundary(_skeleton_category(cat), m).kernel_basis(field).basis
    # z∘r: column j of the cocycles to every chain σ with rσ = j
    rows = (cocycles @ Reading(_retracted(cat, m), cocycles.ncols).T).rows
    nrows = cocycles.nrows
    if m:   # and the rows of (δ^(m−1))ᵀ below them
        bounded = _coboundary(cat, m - 1).transpose(field)
        rows.update((nrows + i, row) for i, row in bounded.rows.items())
        nrows += bounded.nrows
    return Subspace.from_matrix(Matrix(field, nrows, _chain_count(cat, m), rows))


def simplicial_cohomology_dims(cat, field: FieldSpec, max_m: int, cap: int | None = None) -> list[int]:
    """Dimensions of the nerve cohomology in degrees 0..max_m.

    Every degree's chain count up to ``max_m + 1`` is checked against the
    cap (``nerve_sizes``) before the first chain is listed; the skeleton's
    counts are no larger.  The skeleton's own nerve is ranked when the
    skeleton lemma applies, a decision made once for every degree and
    field, and that of ``cat`` otherwise, once per class of equal
    components, each class's dimensions counting once per component in it
    (the component lemma).  Degree 0 alone is ranked on the whole
    category, which reads no composite.
    """
    check_degree(max_m)
    check_sizes(nerve_sizes(cat), max_m + 1, cap)
    if _skeleton_applies(cat):
        cat = _skeleton_category(cat)
    dims = [0] * (max_m + 1)
    for part, size in _classes(cat) if max_m else ((cat, 1),):
        deltas = [_coboundary(part, m) for m in range(max_m + 1)]
        for m, dim in enumerate(cohomology_dims(deltas, field)):
            dims[m] += size * dim
    return dims
