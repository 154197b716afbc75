import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochcat import (
    RawCategory,
    adjoint_category,
    builtin,
    category_to_text,
    hochschild_cohomology_dims,
    is_left_cancellative,
    is_left_deterministic,
    is_right_cancellative,
    is_right_deterministic,
    is_rr_transitive,
    parse_category,
    predicate_reports,
    theorem_a_report,
    validate_category,
)
from hochcat.category import UNDEFINED
from hochcat.cli import main
from hochcat.comparison import x_map_matrix
from hochcat.errors import (
    AssociativityFailure,
    DuplicateName,
    HochcatError,
    HypothesisViolated,
    InvalidCategory,
    MissingComposite,
    MissingIdentity,
    payload,
)
from hochcat.fields import GF2

from . import oracles
from .catalog import A2, C2, EX6, FIXTURES, TRIV


def z_monoid():
    """The two-element monoid {id, z} with z∘z = z, as a one-object category."""
    return validate_category(RawCategory(
        objects=["x"],
        morphisms=[("id", "x", "x", True), ("z", "x", "x", False)],
        compositions=[("z", "z", "z")],
    ))


def parallel_arrows():
    """Two parallel arrows u, v : x -> y and nothing else."""
    return validate_category(RawCategory(
        objects=["x", "y"],
        morphisms=[
            ("idx", "x", "x", True), ("idy", "y", "y", True),
            ("u", "x", "y", False), ("v", "x", "y", False),
        ],
    ))


def collapse():
    """Not right deterministic: g∘a = h cannot be matched by any b∘g."""
    return validate_category(RawCategory(
        objects=["x", "y"],
        morphisms=[
            ("idx", "x", "x", True), ("a", "x", "x", False),
            ("idy", "y", "y", True),
            ("g", "x", "y", False), ("h", "x", "y", False),
        ],
        compositions=[("a", "a", "a"), ("g", "a", "h"), ("h", "a", "h")],
    ))


# --- validation ------------------------------------------------------------

def test_validate_trivial():
    assert TRIV.n_objects == 1 and TRIV.n_morphisms == 1
    assert TRIV.compose(0, 0) == 0


def test_validate_ex6_table():
    names = EX6.morphism_names
    idx = {n: i for i, n in enumerate(names)}
    comp = EX6.compose
    assert comp(idx["a"], idx["a"]) == idx["id1"]
    assert comp(idx["b"], idx["b"]) == idx["id2"]
    assert comp(idx["phi"], idx["a"]) == idx["psi"]
    assert comp(idx["psi"], idx["a"]) == idx["phi"]
    assert comp(idx["b"], idx["phi"]) == idx["psi"]
    assert comp(idx["b"], idx["psi"]) == idx["phi"]
    assert EX6.n_objects == 2 and EX6.n_morphisms == 6


def test_validate_missing_composite():
    raw = RawCategory(
        objects=["x1", "x2"],
        morphisms=[
            ("id1", "x1", "x1", True), ("a", "x1", "x1", False),
            ("id2", "x2", "x2", True), ("b", "x2", "x2", False),
            ("phi", "x1", "x2", False), ("psi", "x1", "x2", False),
        ],
        compositions=[  # phi∘a deleted
            ("a", "a", "id1"), ("b", "b", "id2"), ("psi", "a", "phi"),
            ("b", "phi", "psi"), ("b", "psi", "phi"),
        ],
    )
    with pytest.raises(MissingComposite) as err:
        validate_category(raw)
    assert err.value.details == {"g": "phi", "f": "a"}


def test_validate_ill_typed_composite():
    from hochcat.errors import IllTypedComposite

    base = RawCategory(
        objects=["x1", "x2"],
        morphisms=[
            ("id1", "x1", "x1", True), ("id2", "x2", "x2", True),
            ("a", "x1", "x1", False), ("g", "x1", "x2", False),
        ],
    )
    wrong_endpoints = RawCategory(
        base.objects, list(base.morphisms),
        [("a", "a", "g"), ("g", "a", "g")],  # a∘a cannot be g
    )
    with pytest.raises(IllTypedComposite):
        validate_category(wrong_endpoints)
    not_composable = RawCategory(
        base.objects, list(base.morphisms),
        [("a", "g", "g")],  # source(a) != target(g)
    )
    with pytest.raises(IllTypedComposite):
        validate_category(not_composable)


def test_validate_identity_law_violation():
    from hochcat.errors import IdentityLawViolation

    raw = RawCategory(
        objects=["x"],
        morphisms=[("id", "x", "x", True), ("z", "x", "x", False)],
        compositions=[("z", "z", "z"), ("id", "z", "id")],  # must be z
    )
    with pytest.raises(IdentityLawViolation):
        validate_category(raw)


def test_witnesses_replay_against_the_definitions():
    zc = z_monoid()
    rep = is_left_cancellative(zc)
    w = dict(rep.witness)
    idx = {n: i for i, n in enumerate(zc.morphism_names)}
    g, h, f = idx[w["g"]], idx[w["h"]], idx[w["f"]]
    assert h != f and zc.compose(g, h) == zc.compose(g, f)

    par = parallel_arrows()
    w = dict(is_rr_transitive(par).witness)
    idx = {n: i for i, n in enumerate(par.morphism_names)}
    f, g = idx[w["f"]], idx[w["g"]]
    src = par.source[g]
    assert all(par.compose(g, a) != f for a in par.endomorphisms[src])

    col = collapse()
    w = dict(is_right_deterministic(col).witness)
    idx = {n: i for i, n in enumerate(col.morphism_names)}
    a, g = idx[w["a"]], idx[w["g"]]
    ga = col.compose(g, a)
    assert all(col.compose(b, g) != ga for b in col.endomorphisms[col.target[g]])


def test_validate_missing_identity():
    raw = RawCategory(objects=["x"], morphisms=[("f", "x", "x", False)],
                      compositions=[("f", "f", "f")])
    with pytest.raises(MissingIdentity):
        validate_category(raw)


def test_validate_duplicate_name():
    raw = RawCategory(objects=["x", "x"])
    with pytest.raises(DuplicateName):
        validate_category(raw)


ID_X = ("id", "x", "x", True)
Z_X = ("z", "x", "x", False)

# (objects, morphisms, compositions) -> the refusal: class, message, details
NAMED_REFUSALS = {
    "duplicate_morphism": ((["x"], [ID_X, ("id", "x", "x", False)], []),
                           DuplicateName, "duplicate morphism name 'id'", {"name": "id"}),
    "unknown_source": ((["x"], [ID_X, ("f", "w", "x", False)], []),
                       InvalidCategory, "morphism 'f' has unknown source 'w'", {"name": "f"}),
    "unknown_target": ((["x"], [ID_X, ("f", "x", "w", False)], []),
                       InvalidCategory, "morphism 'f' has unknown target 'w'", {"name": "f"}),
    "identity_not_endo": ((["x", "y"], [ID_X, ("idy", "y", "y", True), ("f", "x", "y", True)], []),
                          InvalidCategory,
                          "identity-flagged morphism 'f' is not an endomorphism", {"name": "f"}),
    "two_identities": ((["x"], [ID_X, ("e", "x", "x", True)], []),
                       InvalidCategory, "object 'x' has more than one identity", {"object": "x"}),
    "conflicting_entries": ((["x"], [ID_X, Z_X], [("z", "z", "z"), ("z", "z", "id")]),
                            InvalidCategory, "conflicting entries for 'z' ∘ 'z'",
                            {"g": "z", "f": "z"}),
    "unknown_in_compose": ((["x"], [ID_X, Z_X], [("z", "w", "z")]),
                           InvalidCategory, "unknown morphism 'w' in composition", {"name": "w"}),
}


@pytest.mark.parametrize("name", sorted(NAMED_REFUSALS))
def test_validate_refuses_a_bad_entry_by_name(name):
    (objects, morphisms, compositions), kind, message, details = NAMED_REFUSALS[name]
    raw = RawCategory(objects=list(objects), morphisms=list(morphisms),
                      compositions=list(compositions))
    with pytest.raises(kind) as refused:
        validate_category(raw)
    assert type(refused.value) is kind
    assert (str(refused.value), refused.value.details) == (message, details)


def test_validate_reports_a_refusal_as_its_payload(tmp_path, capsys):
    (_objects, _morphisms, compositions), kind, message, details = \
        NAMED_REFUSALS["conflicting_entries"]
    f = tmp_path / "conflict.cat"
    f.write_text("object x\nmorphism id : x -> x identity\nmorphism z : x -> x\n"
                 + "".join(f"compose {g} {a} = {h}\n" for g, a, h in compositions),
                 encoding="utf-8")
    assert main(["validate", str(f), "--output", "json"]) == 1
    error = {"kind": kind.__name__, "message": message, **details}
    assert json.loads(capsys.readouterr().out) == {"ok": False, "errors": [error]}
    with pytest.raises(kind) as refused:
        parse_category(f.read_text(encoding="utf-8"))
    assert payload(refused.value) == error


def test_validate_associativity_failure():
    # z∘z = id breaks (z∘z)∘z = z∘(z∘z) unless z = z∘id, so force a clash:
    # u∘u = v, u∘v = u, v∘u = u, v∘v = u is not associative
    raw = RawCategory(
        objects=["x"],
        morphisms=[("id", "x", "x", True), ("u", "x", "x", False), ("v", "x", "x", False)],
        compositions=[("u", "u", "v"), ("u", "v", "u"), ("v", "u", "u"), ("v", "v", "u")],
    )
    with pytest.raises(AssociativityFailure):
        validate_category(raw)


def test_identity_compositions_autofilled():
    assert A2.compose(2, 0) == 2  # g ∘ id1 = g
    assert A2.compose(1, 2) == 2  # id2 ∘ g = g
    assert A2.compose(2, 1) == -1  # g ∘ id2 undefined


# --- predicates --------------------------------------------------------------

def test_group_and_poset_fixtures_pass_everything():
    for name in ("c2", "cn:3", "s3", "a2", "chain:4", "diamond", "ex6"):
        reports = predicate_reports(FIXTURES[name])
        assert all(r.holds for r in reports.values()), name


def test_z_monoid_not_cancellative_with_witness():
    zc = z_monoid()
    rep = is_left_cancellative(zc)
    assert not rep.holds
    assert rep.witness_dict() == {"g": "z", "h": "id", "f": "z"}
    assert not is_right_cancellative(zc).holds


def test_z_monoid_is_deterministic():
    zc = z_monoid()
    assert is_left_deterministic(zc).holds
    assert is_right_deterministic(zc).holds


def test_parallel_arrows_not_rr_transitive():
    rep = is_rr_transitive(parallel_arrows())
    assert not rep.holds
    assert rep.witness_dict() == {"f": "u", "g": "v"}


def test_collapse_fails_right_determinism():
    rep = is_right_deterministic(collapse())
    assert not rep.holds
    assert rep.witness_dict() == {"a": "a", "g": "g"}
    assert is_left_deterministic(collapse()).holds


def test_unique_square_completion_on_cancellative_fixtures():
    # with cancellation, right determinism and rr-transitivity are together
    # equivalent to unique completion of (a, g, f) squares g∘a = b∘f; the
    # left version is read symmetrically with a ranging over End(source)
    for name in ("c2", "s3", "a2", "diamond", "ex6"):
        cat = FIXTURES[name]
        comp = cat.compose_table
        for x1 in range(cat.n_objects):
            for x2 in range(cat.n_objects):
                homs = cat.hom(x1, x2)
                for g in homs:
                    for f in homs:
                        for a in cat.endomorphisms[x1]:
                            bs = [b for b in cat.endomorphisms[x2]
                                  if comp[g][a] == comp[b][f]]
                            assert len(bs) == 1, (name, g, f, a)
                        for b in cat.endomorphisms[x2]:
                            as_ = [a for a in cat.endomorphisms[x1]
                                   if comp[g][a] == comp[b][f]]
                            assert len(as_) == 1, (name, g, f, b)


# --- conjugation and ladders: the completion table ---------------------------------------
#
# oracles.completions sends (g, a) to every b with g∘a = b∘g.  Under right
# determinism and right cancellation there is exactly one, and for each g the
# map a -> b is the conjugation End(source g) -> End(target g) along which a
# ladder completes.  Ladders of F^ad are decoded from its triples here.

def conjugation(cat, g) -> dict:
    return {a: bs[0] for (h, a), bs in oracles.completions(cat).items() if h == g}


def complete(cat, chain, a0) -> tuple:
    """The verticals of the ladder over ``chain`` with base vertical ``a0``."""
    return oracles.complete_ladder(oracles.completions(cat), chain, a0)


def ladder_of_chain(fad, chain) -> tuple:
    """``(bottom, verticals)`` of an F^ad chain of degree >= 1, read off its triples."""
    triples = [fad.triples[t] for t in chain]
    return tuple(t[1] for t in triples), (triples[0][0],) + tuple(t[2] for t in triples)


def chain_of_ladder(fad, bottom, verticals) -> tuple:
    """The F^ad chain of a ladder; KeyError unless every square is a triple."""
    return tuple(fad.triple_index[t] for t in zip(verticals, bottom, verticals[1:]))


def test_completion_table_matches_brute_force():
    # under the right hypotheses the completions are exactly F^ad's triples,
    # one b per (g, a)
    for name, cat in FIXTURES.items():
        reports = predicate_reports(cat)
        if not (reports["right_deterministic"].holds and reports["right_cancellative"].holds):
            continue
        found = oracles.completions(cat)
        assert all(len(bs) == 1 for bs in found.values()), name
        squares = sorted((a, g, bs[0]) for (g, a), bs in found.items())
        assert tuple(squares) == adjoint_category(cat).triples, name


def test_conjugation_trivial_on_abelian_group():
    t = 1
    assert conjugation(C2, t) == {0: 0, 1: 1}


def test_conjugation_ex6_swaps_generators():
    idx = {n: i for i, n in enumerate(EX6.morphism_names)}
    forward = conjugation(EX6, idx["phi"])
    assert forward[idx["a"]] == idx["b"]
    assert forward[idx["id1"]] == idx["id2"]
    assert {b: a for a, b in forward.items()}[idx["b"]] == idx["a"]


def test_conjugation_poset_singleton():
    assert conjugation(A2, 2) == {0: 1}


def test_conjugation_composes_along_chains():
    for name in ("c2", "s3", "ex6", "diamond"):
        cat = FIXTURES[name]
        comp = cat.compose_table
        for g in range(cat.n_morphisms):
            for h in cat.morphisms_by_source[cat.target[g]]:
                hg = comp[h][g]
                iso_g, iso_h, iso_hg = (conjugation(cat, m) for m in (g, h, hg))
                for a in cat.endomorphisms[cat.source[g]]:
                    assert iso_hg[a] == iso_h[iso_g[a]]


def test_conjugation_requires_hypotheses():
    # z∘z = z = id∘z: two completions of (z, z), so X refuses the category
    assert oracles.completions(z_monoid())[1, 1] == [0, 1]
    with pytest.raises(ValueError):
        complete(z_monoid(), (1,), 1)
    with pytest.raises(HypothesisViolated):
        x_map_matrix(z_monoid(), 1)


def test_conjugation_inverse_is_inverse():
    for name in ("c2", "s3", "ex6"):
        cat = FIXTURES[name]
        for g in range(cat.n_morphisms):
            forward = conjugation(cat, g)
            assert sorted(forward) == list(cat.endomorphisms[cat.source[g]])
            assert sorted(forward.values()) == list(cat.endomorphisms[cat.target[g]])


def test_ladder_c2():
    verticals = complete(C2, (1, 1), 1)
    assert verticals == (1, 1, 1)
    assert oracles.ladder_commutes(C2, (1, 1), verticals)


def test_ladder_ex6():
    idx = {n: i for i, n in enumerate(EX6.morphism_names)}
    bottom = (idx["phi"],)
    verticals = complete(EX6, bottom, idx["a"])
    assert verticals == (idx["a"], idx["b"])
    assert oracles.ladder_commutes(EX6, bottom, verticals)
    fad = adjoint_category(EX6)
    assert ladder_of_chain(fad, chain_of_ladder(fad, bottom, verticals)) == (bottom, verticals)


def test_ladder_a2():
    assert complete(A2, (2,), 0) == (0, 1)


def test_ladder_rejects_bad_chain():
    # no square completes a non-composable chain or a misplaced base vertical,
    # and F^ad has no chain for such a ladder
    fad = adjoint_category(A2)
    with pytest.raises(KeyError):
        complete(A2, (2, 2), 0)
    with pytest.raises(KeyError):
        complete(A2, (2,), 1)
    with pytest.raises(KeyError):
        chain_of_ladder(fad, (2, 2), (0, 1, 1))
    with pytest.raises(KeyError):
        chain_of_ladder(fad, (2,), (1, 1))


def test_ladder_requires_hypotheses():
    # collapse() is not right deterministic: g∘a = h has no completion b∘g
    cat = collapse()
    assert oracles.completions(cat)[3, 1] == []
    with pytest.raises(ValueError):
        complete(cat, (3,), 1)
    with pytest.raises(HypothesisViolated):
        x_map_matrix(cat, 1)


def test_ladder_equals_iterated_conjugation():
    # every degree-2 chain of F^ad is the ladder completed from its base
    for name in ("c2", "s3", "ex6"):
        cat = FIXTURES[name]
        fad = adjoint_category(cat)
        for chain in oracles.nerve_chain_list(fad, 2):
            bottom, verticals = ladder_of_chain(fad, chain)
            assert complete(cat, bottom, verticals[0]) == verticals
        assert len(oracles.nerve_chain_list(fad, 2)) == sum(
            len(cat.endomorphisms[cat.source[chain[0]]])
            for chain in oracles.nerve_chain_list(cat, 2)
        )


# --- the adjoint category ----------------------------------------------------------

def test_adjoint_of_trivial():
    fad = adjoint_category(TRIV)
    assert fad.n_objects == 1 and fad.n_morphisms == 1


def test_adjoint_of_poset_is_isomorphic():
    # id_x -> x, (id_x, g, id_y) -> g is a bijective functor
    for name in ("a2", "chain:3", "diamond"):
        cat = FIXTURES[name]
        fad = adjoint_category(cat)
        assert fad.n_objects == cat.n_objects
        assert fad.n_morphisms == cat.n_morphisms
        obj_map = {o: cat.source[e] for o, e in enumerate(fad.object_endos)}
        mor_map = {m: trip[1] for m, trip in enumerate(fad.triples)}
        assert sorted(obj_map.values()) == list(range(cat.n_objects))
        assert sorted(mor_map.values()) == list(range(cat.n_morphisms))
        for m in range(fad.n_morphisms):
            assert obj_map[fad.source[m]] == cat.source[mor_map[m]]
            assert obj_map[fad.target[m]] == cat.target[mor_map[m]]
        for x in range(fad.n_objects):
            assert mor_map[fad.identity[x]] == cat.identity[obj_map[x]]
        for g in range(fad.n_morphisms):
            for f in range(fad.n_morphisms):
                h = fad.compose(g, f)
                if h < 0:
                    assert cat.source[mor_map[g]] != cat.target[mor_map[f]]
                else:
                    assert cat.compose(mor_map[g], mor_map[f]) == mor_map[h]


def test_adjoint_of_c2_is_two_disjoint_copies():
    fad = adjoint_category(C2)
    assert fad.n_objects == 2 and fad.n_morphisms == 4
    assert fad.hom(0, 1) == () and fad.hom(1, 0) == ()
    assert len(fad.hom(0, 0)) == 2 and len(fad.hom(1, 1)) == 2
    # brute-force oracle: enumerate all commuting squares g∘a = b∘g
    squares = [
        (a, g, b)
        for a in range(2) for g in range(2) for b in range(2)
        if C2.compose(g, a) == C2.compose(b, g)
    ]
    assert tuple(sorted(squares)) == fad.triples


def test_adjoint_morphisms_commute_in_base():
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        for a, g, b in fad.triples:
            assert cat.compose(g, a) == cat.compose(b, g), name


def test_adjoint_chain_ladder_roundtrip():
    fad = adjoint_category(EX6)
    for m in (1, 2):
        for chain in oracles.nerve_chain_list(fad, m):
            bottom, verticals = ladder_of_chain(fad, chain)
            assert oracles.ladder_commutes(EX6, bottom, verticals)
            assert chain_of_ladder(fad, bottom, verticals) == chain
    # a 0-chain is an object of F^ad, that is an endomorphism of the base
    assert [fad.object_endos[o] for o in oracles.nerve_chain_list(fad, 0)] == \
        list(EX6.all_endomorphisms)


def test_adjoint_composition_pastes_squares():
    # F^ad holds no table: compose() and composites() over every f agree
    # with the all-pairs fill, and the text form passes the identity and
    # associativity checks and composes alike
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        assert fad.compose_table is None, name
        table = oracles.fad_compose_table(fad)
        n = fad.n_morphisms
        assert [[fad.compose(g, f) for f in range(n)] for g in range(n)] == table, name
        assert [fad.composites(g, range(n)) for g in range(n)] == table, name
        parsed = parse_category(category_to_text(fad))
        assert parsed.morphism_names == fad.morphism_names, name
        assert parsed.compose_table == tuple(tuple(row) for row in table), name
        assert [parsed.composites(g, range(n)) for g in range(n)] == table, name


def test_adjoint_category_allocates_no_square_table():
    # F^ad of cn:40 has 1600 morphisms and 64,000 composable pairs; a dense
    # 1600 × 1600 table of them peaked near 40 MiB
    cat = builtin("cn:40")
    tracemalloc.start()
    try:
        fad = adjoint_category(cat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fad.n_morphisms == 1600
    assert sum(len(fad.morphisms_by_target[s]) for s in fad.source) == 64_000
    assert peak < 4 * 2**20


def test_table_readers_refuse_an_adjoint_category():
    # an F^ad holds no composition table: the readers refuse it with a typed
    # error that says how to get a base category, and the text round trip works
    fad = adjoint_category(EX6)
    predicates = (is_left_cancellative, is_right_cancellative, is_left_deterministic,
                  is_right_deterministic, is_rr_transitive)
    for call in (lambda: predicate_reports(fad),
                 *(lambda p=p: p(fad) for p in predicates),
                 lambda: hochschild_cohomology_dims(fad, GF2, 1),
                 lambda: theorem_a_report(fad, GF2, 1),
                 lambda: adjoint_category(fad)):
        with pytest.raises(HochcatError, match="category_to_text") as refused:
            call()
        assert type(refused.value) is HochcatError
    rebuilt = parse_category(category_to_text(fad))
    assert len(oracles.nerve_chain_list(fad, 2)) == len(oracles.nerve_chain_list(rebuilt, 2))
    assert len(predicate_reports(rebuilt)) == 5
    assert len(hochschild_cohomology_dims(rebuilt, GF2, 1)) == 2


# --- set algebra and row checks against the exhaustive definitions ---------------

def maps_category(draw):
    """A random category of maps between small finite sets, and its table.

    ``draw(k)`` picks an int in ``range(k)``.  Objects are sets of one or two
    points (three when there is one object); the morphisms are the identities
    and a few random maps, closed under composition, so the table is
    associative.  They are declared in a drawn order.  Returns
    ``(raw, table)`` with ``table[g][f]`` = g∘f, UNDEFINED where not composable.
    """
    n_obj = 1 + draw(3)
    sizes = [1 + draw(3 if n_obj == 1 else 2) for _ in range(n_obj)]
    maps = {(x, x, tuple(range(sizes[x]))) for x in range(n_obj)}
    for _ in range(1 + draw(4)):
        x, y = draw(n_obj), draw(n_obj)
        maps.add((x, y, tuple(draw(sizes[y]) for _ in range(sizes[x]))))
    grown = True
    while grown:
        grown = False
        for x, y, g in list(maps):
            for w, x2, f in list(maps):
                if x2 == x and (gf := (w, y, tuple(g[i] for i in f))) not in maps:
                    maps.add(gf)
                    grown = True
    pool = sorted(maps)
    order = [pool.pop(draw(len(pool))) for _ in range(len(pool))]
    index = {m: i for i, m in enumerate(order)}
    n = len(order)
    table = [[UNDEFINED] * n for _ in range(n)]
    for x, y, g in order:
        for w, x2, f in order:
            if x2 == x:
                table[index[x, y, g]][index[w, x2, f]] = index[w, y, tuple(g[i] for i in f)]
    idents = {index[x, x, tuple(range(sizes[x]))] for x in range(n_obj)}
    raw = RawCategory(
        objects=[f"x{x}" for x in range(n_obj)],
        morphisms=[(f"m{i}", f"x{x}", f"x{y}", i in idents) for i, (x, y, _) in enumerate(order)],
    )
    # a drawn composite of two non-identities may be moved within its hom
    # set, which usually breaks associativity
    pairs = [(g, f) for g in range(n) for f in range(n)
             if table[g][f] != UNDEFINED and g not in idents and f not in idents]
    if pairs and draw(2):
        g, f = pairs[draw(len(pairs))]
        src, tgt = order[f][0], order[g][1]
        hom = [h for h, (x, y, _) in enumerate(order) if (x, y) == (src, tgt)]
        table[g][f] = hom[draw(len(hom))]
    raw.compositions = [(f"m{g}", f"m{f}", f"m{table[g][f]}") for g, f in pairs]
    return raw, table


def check_against_oracles(raw, table) -> tuple:
    """Validation and the five predicates agree with the exhaustive searches.

    Returns the names of what failed, the associativity check included.
    """
    n = len(table)
    source = [raw.objects.index(src) for _, src, _, _ in raw.morphisms]
    target = [raw.objects.index(tgt) for _, _, tgt, _ in raw.morphisms]
    failure = oracles.first_associativity_failure(table, source, target)
    if failure is not None:
        h, g, f = (f"m{i}" for i in failure)
        with pytest.raises(AssociativityFailure) as err:
            validate_category(raw)
        assert str(err.value) == f"({h!r} ∘ {g!r}) ∘ {f!r} != {h!r} ∘ ({g!r} ∘ {f!r})"
        assert err.value.details == {"h": h, "g": g, "f": f}
        return ("associative",)
    cat = validate_category(raw)
    assert cat.compose_table == tuple(map(tuple, table)) and cat.n_morphisms == n
    return check_predicates(cat)


def check_predicates(cat) -> tuple:
    """The reports equal the exhaustive searches; returns the failing names."""
    expected = oracles.exhaustive_predicates(cat)
    reports = predicate_reports(cat)
    assert {k: (r.holds, r.witness) for k, r in reports.items()} == expected
    return tuple(k for k, (holds, _w) in expected.items() if not holds)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_tables_agree_with_the_exhaustive_searches(data):
    check_against_oracles(*maps_category(lambda k: data.draw(st.integers(0, k - 1))))


def test_random_tables_fail_every_check_somewhere():
    # the generator reaches every branch: each check both holds and fails
    rng = random.Random(16)
    failed = Counter()
    runs = 300
    for _ in range(runs):
        failed.update(check_against_oracles(*maps_category(rng.randrange)))
    names = ("associative",) + tuple(predicate_reports(TRIV))
    assert all(0 < failed[name] < runs for name in names), failed


def test_fixtures_and_their_rebuilt_fad_agree_with_the_exhaustive_searches():
    for name, cat in FIXTURES.items():
        check_predicates(cat)
        check_predicates(parse_category(category_to_text(adjoint_category(cat))))


def test_moved_fixture_composites_fail_associativity_as_the_scan_does():
    # every composite of two non-identities of a small fixture, moved to
    # each other morphism of its hom set in turn
    for name in ("s3", "ex6", "cn:4", "diamond"):
        cat = FIXTURES[name]
        comp, names = cat.compose_table, cat.morphism_names
        raw = RawCategory(
            objects=list(cat.object_names),
            morphisms=[(names[m], cat.object_names[cat.source[m]],
                        cat.object_names[cat.target[m]], cat.is_identity(m))
                       for m in range(cat.n_morphisms)],
        )
        pairs = [(g, f) for g in range(cat.n_morphisms) for f in range(cat.n_morphisms)
                 if comp[g][f] != UNDEFINED and not cat.is_identity(g)
                 and not cat.is_identity(f)]
        for g, f in pairs:
            for h in cat.hom(cat.source[f], cat.target[g]):
                if h == comp[g][f]:
                    continue
                moved = [list(row) for row in comp]
                moved[g][f] = h
                raw.compositions = [(names[a], names[b], names[moved[a][b]]) for a, b in pairs]
                failure = oracles.first_associativity_failure(moved, cat.source, cat.target)
                with pytest.raises(AssociativityFailure) as err:
                    validate_category(raw)
                h_, g_, f_ = (names[i] for i in failure)
                assert err.value.details == {"h": h_, "g": g_, "f": f_}, name
