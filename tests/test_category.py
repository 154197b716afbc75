import tracemalloc

import pytest

from hochcat import (
    RawCategory,
    adjoint_category,
    builtin,
    category_to_text,
    is_left_cancellative,
    is_left_deterministic,
    is_right_cancellative,
    is_right_deterministic,
    is_rr_transitive,
    parse_category,
    predicate_reports,
    validate_category,
)
from hochcat.category import Ladder, _completion_table
from hochcat.comparison import make_context, x_map_matrix
from hochcat.errors import (
    AssociativityFailure,
    DuplicateName,
    HypothesisViolated,
    MissingComposite,
    MissingIdentity,
)
from hochcat.fields import GF2
from hochcat.nerve import nerve_chains

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
# _completion_table sends (g, a) to the b with g∘a = b∘g; for each g it is the
# conjugation End(source g) -> End(target g) that X walks to complete ladders.

def conjugation(cat, g) -> dict:
    return {a: b for (h, a), b in _completion_table(cat).items() if h == g}


def complete(cat, chain, a0) -> Ladder:
    """The ladder over ``chain`` with base vertical ``a0``, as X completes it."""
    verticals = [a0]
    for g in chain:
        verticals.append(_completion_table(cat)[g, verticals[-1]])
    return Ladder(tuple(chain), tuple(verticals))


def test_completion_table_matches_brute_force():
    for name, cat in FIXTURES.items():
        reports = predicate_reports(cat)
        if not (reports["right_deterministic"].holds and reports["right_cancellative"].holds):
            continue
        table = _completion_table(cat)
        found = oracles.completions(cat)
        assert set(table) == set(found), name
        for key, bs in found.items():
            assert bs == [table[key]], (name, key)


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
    # z∘z = z = id∘z: two completions of (z, z), so X, the table's only
    # consumer, refuses the category
    assert oracles.completions(z_monoid())[1, 1] == [0, 1]
    with pytest.raises(HypothesisViolated):
        x_map_matrix(make_context(z_monoid(), GF2), 1)


def test_conjugation_inverse_is_inverse():
    for name in ("c2", "s3", "ex6"):
        cat = FIXTURES[name]
        for g in range(cat.n_morphisms):
            forward = conjugation(cat, g)
            assert sorted(forward) == list(cat.endomorphisms[cat.source[g]])
            assert sorted(forward.values()) == list(cat.endomorphisms[cat.target[g]])


def test_ladder_c2():
    ladder = complete(C2, (1, 1), 1)
    assert ladder.verticals == (1, 1, 1)
    assert oracles.ladder_commutes(C2, ladder)


def test_ladder_ex6():
    idx = {n: i for i, n in enumerate(EX6.morphism_names)}
    ladder = complete(EX6, (idx["phi"],), idx["a"])
    assert ladder.verticals == (idx["a"], idx["b"])
    assert oracles.ladder_commutes(EX6, ladder)
    fad = adjoint_category(EX6)
    assert fad.ladder_of_chain(fad.chain_of_ladder(ladder), 1) == ladder


def test_ladder_a2():
    ladder = complete(A2, (2,), 0)
    assert ladder.verticals == (0, 1)


def test_ladder_rejects_bad_chain():
    # no square completes a non-composable chain or a misplaced base vertical,
    # and F^ad has no chain for such a ladder
    fad = adjoint_category(A2)
    with pytest.raises(KeyError):
        complete(A2, (2, 2), 0)
    with pytest.raises(KeyError):
        complete(A2, (2,), 1)
    with pytest.raises(KeyError):
        fad.chain_of_ladder(Ladder((2, 2), (0, 1, 1)))
    with pytest.raises(KeyError):
        fad.chain_of_ladder(Ladder((2,), (1, 1)))


def test_ladder_requires_hypotheses():
    # collapse() is not right deterministic: g∘a = h has no completion b∘g
    cat = collapse()
    assert oracles.completions(cat)[3, 1] == []
    assert (3, 1) not in _completion_table(cat)
    with pytest.raises(HypothesisViolated):
        x_map_matrix(make_context(cat, GF2), 1)


def test_ladder_equals_iterated_conjugation():
    # every degree-2 chain of F^ad is the ladder the table completes from its base
    for name in ("c2", "s3", "ex6"):
        cat = FIXTURES[name]
        fad = adjoint_category(cat)
        for chain in nerve_chains(fad, 2):
            ladder = fad.ladder_of_chain(chain, 2)
            assert complete(cat, ladder.bottom, ladder.verticals[0]) == ladder
        assert len(nerve_chains(fad, 2)) == sum(
            len(cat.endomorphisms[cat.source[chain[0]]]) for chain in nerve_chains(cat, 2)
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
    for m in (0, 1, 2):
        for chain in nerve_chains(fad, m):
            ladder = fad.ladder_of_chain(chain, m)
            if m:
                assert oracles.ladder_commutes(EX6, ladder)
            assert fad.chain_of_ladder(ladder) == chain


def test_adjoint_composition_pastes_squares():
    # F^ad holds no table: compose() agrees with the all-pairs fill, and the
    # text form passes the identity and associativity checks and composes alike
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        assert fad.compose_table is None, name
        table = oracles.fad_compose_table(fad)
        n = fad.n_morphisms
        assert [[fad.compose(g, f) for f in range(n)] for g in range(n)] == table, name
        parsed = parse_category(category_to_text(fad))
        assert parsed.morphism_names == fad.morphism_names, name
        assert parsed.compose_table == tuple(tuple(row) for row in table), name


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
