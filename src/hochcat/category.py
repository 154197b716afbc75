"""Finite categories: validation, structural predicates, adjoint category.

A category is stored as integer tables.  Objects and morphisms are indexed
``0..n-1`` in declaration order; that order is fixed for the life of the
category and every basis enumeration downstream is lexicographic in these
indices, which makes all matrices reproducible run to run.

``compose(g, f)`` means "g after f" and is defined exactly when
``source(g) == target(f)``.  A base category holds its composition as a
dense ``compose_table``, which the hot loops downstream read directly.  The
adjoint category holds none (``compose_table is None``): its composition is
determined by its triples and the base table, so ``compose`` pastes squares.

Commuting squares ``g∘a = b∘g`` are read from one table,
``_completion_table``, which completes a composable chain and a base
endomorphism to its unique ladder; the adjoint category decodes its nerve
chains into ladders and back (``ladder_of_chain``, ``chain_of_ladder``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps

from .errors import (
    AssociativityFailure,
    DuplicateName,
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
    and associative.
    """
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

    for g in range(n_mor):
        for f in range(n_mor):
            if source[g] == target[f] and table[g][f] == UNDEFINED:
                raise MissingComposite(
                    f"missing composite {mor_names[g]!r} ∘ {mor_names[f]!r}",
                    g=mor_names[g], f=mor_names[f],
                )

    for h in range(n_mor):
        for g in range(n_mor):
            if source[h] != target[g]:
                continue
            hg = table[h][g]
            for f in range(n_mor):
                if source[g] != target[f]:
                    continue
                if table[hg][f] != table[h][table[g][f]]:
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
        compose_table=tuple(tuple(row) for row in table),
    )


# --- structural predicates -------------------------------------------------------
#
# All checkers are exhaustive searches; witnesses are the lexicographically
# first counterexample in morphism-index order, so failures are reproducible.

@dataclass(frozen=True)
class PredicateReport:
    name: str
    holds: bool
    witness: tuple | None = None   # ((role, morphism_name), ...) of the violated diagram

    def witness_dict(self) -> dict | None:
        return dict(self.witness) if self.witness is not None else None


def _witness(cat: FiniteCategory, **roles: int) -> tuple:
    return tuple((role, cat.morphism_names[m]) for role, m in roles.items())


def is_left_cancellative(cat: FiniteCategory) -> PredicateReport:
    """g∘h = g∘f implies h = f, for all composable instances."""
    comp = cat.compose_table
    for g in range(cat.n_morphisms):
        hs = cat.morphisms_by_target[cat.source[g]]
        for h in hs:
            gh = comp[g][h]
            for f in hs:
                if h != f and gh == comp[g][f]:
                    return PredicateReport(
                        "left_cancellative", False, _witness(cat, g=g, h=h, f=f)
                    )
    return PredicateReport("left_cancellative", True)


def is_right_cancellative(cat: FiniteCategory) -> PredicateReport:
    """h∘g = f∘g implies h = f, for all composable instances."""
    comp = cat.compose_table
    for g in range(cat.n_morphisms):
        hs = cat.morphisms_by_source[cat.target[g]]
        for h in hs:
            hg = comp[h][g]
            for f in hs:
                if h != f and hg == comp[f][g]:
                    return PredicateReport(
                        "right_cancellative", False, _witness(cat, g=g, h=h, f=f)
                    )
    return PredicateReport("right_cancellative", True)


def is_left_deterministic(cat: FiniteCategory) -> PredicateReport:
    """Every (b, g) with b an endomorphism of target(g) completes to g∘a = b∘g."""
    comp = cat.compose_table
    for b in cat.all_endomorphisms:
        x2 = cat.source[b]
        for g in cat.morphisms_by_target[x2]:
            bg = comp[b][g]
            if not any(comp[g][a] == bg for a in cat.endomorphisms[cat.source[g]]):
                return PredicateReport(
                    "left_deterministic", False, _witness(cat, b=b, g=g)
                )
    return PredicateReport("left_deterministic", True)


def is_right_deterministic(cat: FiniteCategory) -> PredicateReport:
    """Every (a, g) with a an endomorphism of source(g) completes to g∘a = b∘g."""
    comp = cat.compose_table
    for a in cat.all_endomorphisms:
        x1 = cat.source[a]
        for g in cat.morphisms_by_source[x1]:
            ga = comp[g][a]
            if not any(comp[b][g] == ga for b in cat.endomorphisms[cat.target[g]]):
                return PredicateReport(
                    "right_deterministic", False, _witness(cat, a=a, g=g)
                )
    return PredicateReport("right_deterministic", True)


def is_rr_transitive(cat: FiniteCategory) -> PredicateReport:
    """End(x1) acts transitively on each Hom(x1, x2) by precomposition.

    Empty hom sets are vacuously transitive.
    """
    comp = cat.compose_table
    for x1 in range(cat.n_objects):
        ends = cat.endomorphisms[x1]
        for x2 in range(cat.n_objects):
            homs = cat.hom(x1, x2)
            for f in homs:
                for g in homs:
                    if not any(comp[g][a] == f for a in ends):
                        return PredicateReport(
                            "rr_transitive", False, _witness(cat, f=f, g=g)
                        )
    return PredicateReport("rr_transitive", True)


PREDICATE_NAMES = (
    "left_cancellative",
    "right_cancellative",
    "left_deterministic",
    "right_deterministic",
    "rr_transitive",
)


@memo
def predicate_reports(cat: FiniteCategory) -> dict:
    return {
        "left_cancellative": is_left_cancellative(cat),
        "right_cancellative": is_right_cancellative(cat),
        "left_deterministic": is_left_deterministic(cat),
        "right_deterministic": is_right_deterministic(cat),
        "rr_transitive": is_rr_transitive(cat),
    }


def require_predicates(cat: FiniteCategory, *names: str) -> None:
    reports = predicate_reports(cat)
    missing = [n for n in names if not reports[n].holds]
    if missing:
        raise HypothesisViolated(*missing)


# --- commuting squares and ladders ---------------------------------------------------

@memo
def _completion_table(cat: FiniteCategory) -> dict:
    """(g, a) -> the unique b with g∘a = b∘g, for right det/canc categories.

    For each g this is the conjugation End(source g) -> End(target g); X
    walks it along a chain to complete ladders.  Callers gate on the
    hypotheses: right determinism gives every key, right cancellation a
    unique b.
    """
    comp = cat.compose_table
    table = {}
    for g in range(cat.n_morphisms):
        dst_ends = cat.endomorphisms[cat.target[g]]
        for a in cat.endomorphisms[cat.source[g]]:
            ga = comp[g][a]
            for b in dst_ends:
                if comp[b][g] == ga:
                    table[g, a] = b
                    break
    return table


@dataclass(frozen=True)
class Ladder:
    """A commuting strip of squares: chain (g_0..g_{m-1}) with verticals (a_0..a_m).

    Each square satisfies g_i∘a_i = a_{i+1}∘g_i.  A degree-0 ladder is a bare
    endomorphism a_0.
    """

    bottom: tuple[int, ...]
    verticals: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.bottom)


# --- the adjoint category ---------------------------------------------------------

@dataclass(frozen=True)
class AdjointCategory(FiniteCategory):
    """Category with objects the endomorphisms of ``base``.

    A morphism a -> b is a base morphism g with g∘a = b∘g; it is stored as
    the triple (a, g, b) so chains upstairs can be read back as ladders
    downstairs.  Composition pastes squares: (b, f, c)∘(a, g, b) = (a, f∘g, c).
    It is answered from the triples and the base's dense table, so there is
    no ``n × n`` table here: ``compose_table`` is None and only ``compose``
    composes.
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

    @cached_property
    def triple_index(self) -> dict:
        return {t: i for i, t in enumerate(self.triples)}

    @cached_property
    def object_of_endo(self) -> dict:
        return {e: i for i, e in enumerate(self.object_endos)}

    def ladder_of_chain(self, chain, degree: int) -> Ladder:
        """Decode a nerve chain of this category into a ladder in ``base``."""
        if degree == 0:
            return Ladder((), (self.object_endos[chain],))
        triples = [self.triples[m] for m in chain]
        bottom = tuple(t[1] for t in triples)
        verticals = (triples[0][0],) + tuple(t[2] for t in triples)
        return Ladder(bottom, verticals)

    def chain_of_ladder(self, ladder: Ladder):
        """Inverse of ladder_of_chain; raises KeyError for non-commuting input."""
        if ladder.degree == 0:
            return self.object_of_endo[ladder.verticals[0]]
        idx = self.triple_index
        return tuple(
            idx[a, g, b]
            for g, a, b in zip(ladder.bottom, ladder.verticals, ladder.verticals[1:])
        )


@memo
def adjoint_category(cat: FiniteCategory) -> AdjointCategory:
    """Build the adjoint category of ``cat`` with its ladder decorations."""
    comp = cat.compose_table
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
