"""Finite categories: validation, structural predicates, adjoint category.

A category is stored as integer tables.  Objects and morphisms are indexed
``0..n-1`` in declaration order; that order is fixed for the life of the
category and every basis enumeration downstream is lexicographic in these
indices, which makes all matrices reproducible run to run.

``compose(g, f)`` means "g after f" and is defined exactly when
``source(g) == target(f)``.  A base category holds its composition as a
dense ``compose_table``, which the hot loops downstream read directly.  The
adjoint category holds none (``compose_table is None``): its composition is
determined by its triples and the base table, so ``compose`` pastes squares
and ``composites`` pastes one morphism's square under a list of others.
Code that reads the table takes it through ``require_table``, which refuses
an adjoint category with a ``HochcatError``.

A morphism of the adjoint category is a commuting square ``g∘a = b∘g``,
stored as the triple ``(a, g, b)``, so a nerve chain of ``F^ad`` is a ladder
of squares over a chain of the base.  Under right determinism and right
cancellation each ladder is the unique completion of its bottom chain and
its first vertical ``a``; that is why the comparison map X is the transpose
of T (see ``comparison``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, wraps

from .errors import (
    AssociativityFailure,
    DuplicateName,
    HochcatError,
    HypothesisViolated,
    IdentityLawViolation,
    IllTypedComposite,
    InvalidCategory,
    MissingComposite,
    MissingIdentity,
)

UNDEFINED = -1


@dataclass(frozen=True)
class FiniteCategory:
    object_names: tuple[str, ...]
    morphism_names: tuple[str, ...]
    source: tuple[int, ...]
    target: tuple[int, ...]
    identity: tuple[int, ...]                      # object -> morphism
    compose_table: tuple[tuple[int, ...], ...] | None  # [g][f] = g∘f or UNDEFINED

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphism_names)

    def compose(self, g: int, f: int) -> int:
        """g∘f; UNDEFINED when source(g) != target(f)."""
        return self.compose_table[g][f]

    def composites(self, g: int, fs) -> list:
        """[g∘f for f in fs], UNDEFINED where not composable; one table row."""
        return list(map(self.compose_table[g].__getitem__, fs))

    def is_identity(self, m: int) -> bool:
        return m in self._identity_set

    @cached_property
    def _identity_set(self) -> frozenset:
        return frozenset(self.identity)

    @cached_property
    def morphisms_by_source(self) -> tuple:
        out = [[] for _ in range(self.n_objects)]
        for m, s in enumerate(self.source):
            out[s].append(m)
        return tuple(tuple(ms) for ms in out)

    @cached_property
    def morphisms_by_target(self) -> tuple:
        out = [[] for _ in range(self.n_objects)]
        for m, t in enumerate(self.target):
            out[t].append(m)
        return tuple(tuple(ms) for ms in out)

    @cached_property
    def endomorphisms(self) -> tuple:
        """Per object, the morphisms with equal source and target."""
        out = [[] for _ in range(self.n_objects)]
        for m in range(self.n_morphisms):
            if self.source[m] == self.target[m]:
                out[self.source[m]].append(m)
        return tuple(tuple(ms) for ms in out)

    @cached_property
    def all_endomorphisms(self) -> tuple:
        return tuple(m for m in range(self.n_morphisms) if self.source[m] == self.target[m])

    def hom(self, x: int, y: int) -> tuple:
        return self._hom_table.get((x, y), ())

    @cached_property
    def _hom_table(self) -> dict:
        table: dict = {}
        for m in range(self.n_morphisms):
            table.setdefault((self.source[m], self.target[m]), []).append(m)
        return {k: tuple(v) for k, v in table.items()}


def memo(fn):
    """Cache ``fn(cat, *args)`` on the category ``cat`` itself.

    Results go into the instance ``__dict__``, as the ``cached_property``
    tables above do, so they are shared by every later call on the same
    category and freed together with it.  ``args`` must be hashable.  A miss
    calls the wrapper's ``__wrapped__``, so a test can count the builds.
    """
    @wraps(fn)
    def cached(cat, *args):
        table = cat.__dict__.setdefault("_memo", {})
        key = (cached, args)
        if key not in table:
            table[key] = cached.__wrapped__(cat, *args)
        return table[key]

    return cached


# --- validation ----------------------------------------------------------------

@dataclass
class RawCategory:
    """Unchecked category description, as produced by the text format parser."""

    objects: list[str] = field(default_factory=list)
    morphisms: list[tuple[str, str, str, bool]] = field(default_factory=list)
    compositions: list[tuple[str, str, str]] = field(default_factory=list)


def validate_category(raw: RawCategory) -> FiniteCategory:
    """Check the category axioms and build the immutable table form.

    Composition entries for pairs involving identities may be omitted; they
    are filled in from the identity laws.  Everything else must be present
    and associative.  A name must be one token of the text form: not
    empty, with no whitespace and no ``#``.
    """
    for name in [*raw.objects, *(m[0] for m in raw.morphisms)]:
        if name.split() != [name] or "#" in name:
            raise InvalidCategory(f"name {name!r} is not one text-form token", name=name)
    obj_index: dict[str, int] = {}
    for name in raw.objects:
        if name in obj_index:
            raise DuplicateName(f"duplicate object name {name!r}", name=name)
        obj_index[name] = len(obj_index)

    mor_index: dict[str, int] = {}
    source, target, id_flags = [], [], []
    for name, src, tgt, is_id in raw.morphisms:
        if name in mor_index:
            raise DuplicateName(f"duplicate morphism name {name!r}", name=name)
        if src not in obj_index:
            raise InvalidCategory(f"morphism {name!r} has unknown source {src!r}", name=name)
        if tgt not in obj_index:
            raise InvalidCategory(f"morphism {name!r} has unknown target {tgt!r}", name=name)
        mor_index[name] = len(mor_index)
        source.append(obj_index[src])
        target.append(obj_index[tgt])
        id_flags.append(is_id)

    n_obj = len(obj_index)
    n_mor = len(mor_index)
    obj_names = tuple(raw.objects)
    mor_names = tuple(m[0] for m in raw.morphisms)

    identity = [UNDEFINED] * n_obj
    for m, is_id in enumerate(id_flags):
        if not is_id:
            continue
        if source[m] != target[m]:
            raise InvalidCategory(
                f"identity-flagged morphism {mor_names[m]!r} is not an endomorphism",
                name=mor_names[m],
            )
        x = source[m]
        if identity[x] != UNDEFINED:
            raise InvalidCategory(
                f"object {obj_names[x]!r} has more than one identity",
                object=obj_names[x],
            )
        identity[x] = m
    for x in range(n_obj):
        if identity[x] == UNDEFINED:
            raise MissingIdentity(
                f"object {obj_names[x]!r} has no identity morphism", object=obj_names[x]
            )

    table = [[UNDEFINED] * n_mor for _ in range(n_mor)]

    def put(g: int, f: int, h: int, forced: bool):
        if source[g] != target[f]:
            raise IllTypedComposite(
                f"{mor_names[g]!r} ∘ {mor_names[f]!r} is not composable",
                g=mor_names[g], f=mor_names[f], h=mor_names[h],
            )
        if source[h] != source[f] or target[h] != target[g]:
            raise IllTypedComposite(
                f"{mor_names[g]!r} ∘ {mor_names[f]!r} = {mor_names[h]!r} has wrong endpoints",
                g=mor_names[g], f=mor_names[f], h=mor_names[h],
            )
        old = table[g][f]
        if old != UNDEFINED and old != h:
            if forced:
                raise IdentityLawViolation(
                    f"identity law forces {mor_names[g]!r} ∘ {mor_names[f]!r} = "
                    f"{mor_names[h]!r}, table says {mor_names[old]!r}",
                    g=mor_names[g], f=mor_names[f],
                )
            raise InvalidCategory(
                f"conflicting entries for {mor_names[g]!r} ∘ {mor_names[f]!r}",
                g=mor_names[g], f=mor_names[f],
            )
        table[g][f] = h

    for gname, fname, hname in raw.compositions:
        for nm in (gname, fname, hname):
            if nm not in mor_index:
                raise InvalidCategory(f"unknown morphism {nm!r} in composition", name=nm)
        put(mor_index[gname], mor_index[fname], mor_index[hname], forced=False)

    # identity laws fill (and check) every pair involving an identity
    for f in range(n_mor):
        put(identity[target[f]], f, f, forced=True)
        put(f, identity[source[f]], f, forced=True)

    into = [[] for _ in range(n_obj)]   # object -> the morphisms into it
    for f in range(n_mor):
        into[target[f]].append(f)

    for g, row in enumerate(table):
        for f in into[source[g]]:
            if row[f] == UNDEFINED:
                raise MissingComposite(
                    f"missing composite {mor_names[g]!r} ∘ {mor_names[f]!r}",
                    g=mor_names[g], f=mor_names[f],
                )

    # Associativity a row at a time: for composable (h, g), the row of h∘g
    # must equal h∘(g∘f) over all f.  Each row ends in an UNDEFINED
    # sentinel, so h∘UNDEFINED (index -1) reads UNDEFINED and the f not
    # composable with g agree on both sides.  Only a failing pair is
    # scanned cell by cell, for its first f.
    for row in table:
        row.append(UNDEFINED)
    for h, hrow in enumerate(table):
        for g in into[source[h]]:
            hg_row = table[hrow[g]]
            g_row = table[g]
            if hg_row != list(map(hrow.__getitem__, g_row)):
                f = next(f for f in range(n_mor) if hg_row[f] != hrow[g_row[f]])
                raise AssociativityFailure(
                    f"({mor_names[h]!r} ∘ {mor_names[g]!r}) ∘ {mor_names[f]!r} != "
                    f"{mor_names[h]!r} ∘ ({mor_names[g]!r} ∘ {mor_names[f]!r})",
                    h=mor_names[h], g=mor_names[g], f=mor_names[f],
                )

    return FiniteCategory(
        object_names=obj_names,
        morphism_names=mor_names,
        source=tuple(source),
        target=tuple(target),
        identity=tuple(identity),
        compose_table=tuple(tuple(row[:-1]) for row in table),
    )


# --- structural predicates -------------------------------------------------------
#
# Whether a predicate holds is decided by set algebra on the table rows, in
# O(n²): a row or column that must be injective is compared with its set of
# values, and a composite that must be reachable is looked up in the set of
# composites that reach.  A witness is the lexicographically first
# counterexample in morphism-index order, the one an exhaustive search
# finds first, so failures are reproducible.

@dataclass(frozen=True)
class PredicateReport:
    name: str
    holds: bool
    witness: tuple | None = None   # ((role, morphism_name), ...) of the violated diagram

    def witness_dict(self) -> dict | None:
        return dict(self.witness) if self.witness is not None else None


def _witness(cat: FiniteCategory, **roles: int) -> tuple:
    return tuple((role, cat.morphism_names[m]) for role, m in roles.items())


def _first_repeat(keys, values) -> tuple | None:
    """The first ``(h, f)`` of distinct keys with equal values, h before f in
    ``keys`` order and f the first match of h; None when the values differ."""
    if len(set(values)) == len(values):
        return None
    counts = Counter(values)
    i = next(i for i, v in enumerate(values) if counts[v] > 1)
    return keys[i], keys[values.index(values[i], i + 1)]


def _cancellation(cat: FiniteCategory, name: str, lines, domains) -> PredicateReport:
    """Each ``lines[g]`` (a row or column of the table) is injective on ``domains[g]``."""
    for g, (line, hs) in enumerate(zip(lines, domains)):
        repeat = _first_repeat(hs, list(map(line.__getitem__, hs)))
        if repeat is not None:
            return PredicateReport(name, False, _witness(cat, g=g, h=repeat[0], f=repeat[1]))
    return PredicateReport(name, True)


def is_left_cancellative(cat: FiniteCategory) -> PredicateReport:
    """g∘h = g∘f implies h = f, for all composable instances."""
    by_target = cat.morphisms_by_target
    return _cancellation(cat, "left_cancellative", require_table(cat),
                         [by_target[x] for x in cat.source])


def is_right_cancellative(cat: FiniteCategory) -> PredicateReport:
    """h∘g = f∘g implies h = f, for all composable instances."""
    by_source = cat.morphisms_by_source
    return _cancellation(cat, "right_cancellative", tuple(zip(*require_table(cat))),
                         [by_source[y] for y in cat.target])


def _precomposites(cat: FiniteCategory) -> list:
    """Per g, the set g∘End(source g)."""
    ends, source = cat.endomorphisms, cat.source
    return [set(map(row.__getitem__, ends[source[g]])) for g, row in enumerate(require_table(cat))]


def is_left_deterministic(cat: FiniteCategory) -> PredicateReport:
    """Every (b, g) with b an endomorphism of target(g) completes to g∘a = b∘g."""
    reach = _precomposites(cat)
    comp = cat.compose_table
    for b in cat.all_endomorphisms:
        row = comp[b]
        for g in cat.morphisms_by_target[cat.source[b]]:
            if row[g] not in reach[g]:
                return PredicateReport(
                    "left_deterministic", False, _witness(cat, b=b, g=g)
                )
    return PredicateReport("left_deterministic", True)


def is_right_deterministic(cat: FiniteCategory) -> PredicateReport:
    """Every (a, g) with a an endomorphism of source(g) completes to g∘a = b∘g."""
    ends, target = cat.endomorphisms, cat.target
    # per g, the set End(target g)∘g, read off column g
    reach = [set(map(col.__getitem__, ends[target[g]]))
             for g, col in enumerate(zip(*require_table(cat)))]
    comp = cat.compose_table
    for a in cat.all_endomorphisms:
        for g in cat.morphisms_by_source[cat.source[a]]:
            if comp[g][a] not in reach[g]:
                return PredicateReport(
                    "right_deterministic", False, _witness(cat, a=a, g=g)
                )
    return PredicateReport("right_deterministic", True)


def is_rr_transitive(cat: FiniteCategory) -> PredicateReport:
    """End(x1) acts transitively on each Hom(x1, x2) by precomposition.

    That is Hom(x1, x2) ⊆ g∘End(x1) for every g in it.  Empty hom sets are
    vacuously transitive.
    """
    reach = _precomposites(cat)
    for x1 in range(cat.n_objects):
        for x2 in range(cat.n_objects):
            homs = cat.hom(x1, x2)
            # g∘End(x1) lies in Hom(x1, x2), so it covers it when the sizes agree
            if all(len(reach[g]) == len(homs) for g in homs):
                continue
            for f in homs:
                for g in homs:
                    if f not in reach[g]:
                        return PredicateReport(
                            "rr_transitive", False, _witness(cat, f=f, g=g)
                        )
    return PredicateReport("rr_transitive", True)


@memo
def predicate_reports(cat: FiniteCategory) -> dict:
    """The five predicate reports; each predicate refuses an ``F^ad`` (``require_table``)."""
    return {
        "left_cancellative": is_left_cancellative(cat),
        "right_cancellative": is_right_cancellative(cat),
        "left_deterministic": is_left_deterministic(cat),
        "right_deterministic": is_right_deterministic(cat),
        "rr_transitive": is_rr_transitive(cat),
    }


def require_table(cat: FiniteCategory) -> tuple:
    """``cat.compose_table``; an ``F^ad``, which holds none, is refused."""
    if cat.compose_table is None:
        raise HochcatError(
            "an adjoint category holds no composition table: write it out with "
            "category_to_text and parse that text back to use it as a base category"
        )
    return cat.compose_table


def require_predicates(cat: FiniteCategory, *names: str) -> None:
    reports = predicate_reports(cat)
    missing = [n for n in names if not reports[n].holds]
    if missing:
        raise HypothesisViolated(*missing)


# --- the adjoint category ---------------------------------------------------------

@dataclass(frozen=True)
class AdjointCategory(FiniteCategory):
    """Category with objects the endomorphisms of ``base``.

    A morphism a -> b is a base morphism g with g∘a = b∘g; it is stored as
    the triple (a, g, b), so a chain upstairs reads as a ladder downstairs.
    Composition pastes squares: (b, f, c)∘(a, g, b) = (a, f∘g, c).  It is
    answered from the triples and the base's dense table, so there is no
    ``n × n`` table here: ``compose_table`` is None and only ``compose`` and
    ``composites`` (one g against many f, as the text form asks) compose.
    """

    base: FiniteCategory = None  # type: ignore[assignment]
    object_endos: tuple[int, ...] = ()                 # fad object -> base endo
    triples: tuple[tuple[int, int, int], ...] = ()     # fad morphism -> (a, g, b)

    def compose(self, g: int, f: int) -> int:
        """Pasted square of the triples of f, then g; UNDEFINED unless they meet."""
        a2, g2, b2 = self.triples[g]
        a1, g1, b1 = self.triples[f]
        if a2 != b1:
            return UNDEFINED
        return self.triple_index[a1, self.base.compose(g2, g1), b2]

    def composites(self, g: int, fs) -> list:
        """[g∘f for f in fs]: the triples of fs pasted under g's, with one base row."""
        a2, g2, b2 = self.triples[g]
        row = self.base.compose_table[g2]
        index = self.triple_index
        return [index[a1, row[g1], b2] if b1 == a2 else UNDEFINED
                for a1, g1, b1 in map(self.triples.__getitem__, fs)]

    @cached_property
    def triple_index(self) -> dict:
        return {t: i for i, t in enumerate(self.triples)}


@memo
def adjoint_category(cat: FiniteCategory) -> AdjointCategory:
    """Build the adjoint category of ``cat``, its morphisms stored as triples."""
    comp = require_table(cat)
    endos = cat.all_endomorphisms
    obj_names = tuple(cat.morphism_names[e] for e in endos)
    endo_obj = {e: i for i, e in enumerate(endos)}

    triples = []
    for a in endos:
        for g in cat.morphisms_by_source[cat.source[a]]:
            ga = comp[g][a]
            for b in cat.endomorphisms[cat.target[g]]:
                if comp[b][g] == ga:
                    triples.append((a, g, b))
    triples.sort()
    trip_index = {t: i for i, t in enumerate(triples)}

    names = tuple(
        f"{cat.morphism_names[g]}[{cat.morphism_names[a]}=>{cat.morphism_names[b]}]"
        for a, g, b in triples
    )
    source = tuple(endo_obj[a] for a, _, _ in triples)
    target = tuple(endo_obj[b] for _, _, b in triples)
    identity = tuple(
        trip_index[e, cat.identity[cat.source[e]], e] for e in endos
    )

    return AdjointCategory(
        object_names=obj_names,
        morphism_names=names,
        source=source,
        target=target,
        identity=identity,
        compose_table=None,
        base=cat,
        object_endos=endos,
        triples=tuple(triples),
    )
