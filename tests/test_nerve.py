import dataclasses
import gc
import itertools
import random
import sys
import weakref

import pytest

from hochcat import (
    adjoint_category,
    builtin,
    character_space,
    simplicial_coboundary_matrix,
    simplicial_cocycle_space,
    simplicial_cohomology_dims,
)
from hochcat import nerve
from hochcat.category import AdjointCategory
from hochcat.errors import DimensionCapExceeded
from hochcat.matrix import Matrix, Reading, cohomology_dims
from hochcat.nerve import (
    _classes, _coboundary, _layer, _retracted, _skeleton, _skeleton_category, nerve_sizes,
)

from . import oracles
from .catalog import (
    A2, C2, C4, D4, DIAMOND, EX6, FIELDS, FIXTURES, GF2, GF3, QQ, S3_PLUS_C2, TRIV, V4,
    coproduct, sum_of_groups,
)
from .test_category import z_monoid
from .test_comparison import (
    BREAKAGES, class_slices, component_block, fresh, refuse_eliminating, spy_nerve_eliminations,
)
from .test_hochschild import count_builds


# --- chains -----------------------------------------------------------------

def test_chain_counts_a2():
    assert oracles.nerve_chain_list(A2, 0) == [0, 1]
    # source-to-target order: (id1,id1), (id1,g), (g,id2), (id2,id2)
    assert oracles.nerve_chain_list(A2, 2) == [(0, 0), (0, 2), (1, 1), (2, 1)]


def test_chain_counts_one_object():
    assert len(oracles.nerve_chain_list(C2, 3)) == 8
    for name in ("c2", "s3", "cn:5"):
        cat = FIXTURES[name]
        for m in range(4):
            assert len(oracles.nerve_chain_list(cat, m)) == (
                cat.n_objects if m == 0 else cat.n_morphisms ** m
            )


def test_chain_degree_is_not_bounded_by_the_recursion_limit():
    # the trivial category has one chain, of identities, in every degree
    m = sys.getrecursionlimit() + 50
    assert next(itertools.islice(nerve_sizes(builtin("triv")), m, None)) == 1


def test_nerve_sizes_count_the_chains():
    for name, cat in FIXTURES.items():
        for c in (cat, adjoint_category(cat)):
            sizes = nerve_sizes(c)
            assert [next(sizes) for _ in range(4)] == \
                [len(oracles.nerve_chain_list(c, m)) for m in range(4)], name


def test_chains_are_composable():
    for name, cat in FIXTURES.items():
        for chain in oracles.nerve_chain_list(cat, 3):
            for g, h in zip(chain, chain[1:]):
                assert cat.target[g] == cat.source[h], name


# --- faces ------------------------------------------------------------------
#
# the faces of the tuple oracles, which the coboundary tests below read

def test_face_absorbs_identities():
    assert oracles._face(A2, (0, 2), 1) == (2,)  # g ∘ id1 = g


def test_face_composes_group_elements():
    assert oracles._face(C2, (1, 1), 1) == (0,)  # t ∘ t = e
    assert oracles._face(C2, (1, 1), 0) == (1,)
    assert oracles._face(C2, (1, 1), 2) == (1,)


def test_face_degree_one_gives_objects():
    assert oracles._face(A2, (2,), 0) == 1  # target
    assert oracles._face(A2, (2,), 1) == 0  # source


def test_face_out_of_range():
    with pytest.raises(IndexError):
        oracles._face(A2, (2,), 2)


@pytest.mark.parametrize("chain", [0, 1, ()], ids=repr)
def test_a_degree_zero_chain_has_no_face(chain):
    # an object (or the empty chain) is a degree-0 chain: every face index
    # is out of range, as past the end of a longer chain
    with pytest.raises(IndexError, match="degree-0 chain"):
        oracles._face(A2, chain, 0)


def test_simplicial_identities():
    # d_i ∘ d_j = d_{j-1} ∘ d_i for i < j, on all chains up to degree 4
    face = oracles._face
    for name in ("a2", "c2", "ex6", "diamond"):
        cat = FIXTURES[name]
        for m in (2, 3, 4):
            for chain in oracles.nerve_chain_list(cat, m):
                for j in range(1, m + 1):
                    for i in range(j):
                        left = face(cat, face(cat, chain, j), i)
                        right = face(cat, face(cat, chain, i), j - 1)
                        assert left == right, (name, chain, i, j)


# --- coboundaries --------------------------------------------------------------

def test_coboundary_triv_degree_zero():
    d0 = simplicial_coboundary_matrix(TRIV, 0)
    assert (d0.nrows, d0.ncols) == (1, 1) and d0.is_zero()


def test_coboundary_c2_degree_zero_is_zero():
    d0 = simplicial_coboundary_matrix(C2, 0)
    assert (d0.nrows, d0.ncols) == (2, 1) and d0.is_zero()


def test_coboundary_a2_degree_zero():
    d0 = simplicial_coboundary_matrix(A2, 0)
    assert (d0.nrows, d0.ncols) == (3, 2)
    assert d0.rank() == 1


def test_coboundary_squares_to_zero():
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        for target in (cat, fad):   # over Z, so in every field
            mats = [simplicial_coboundary_matrix(target, m) for m in range(3)]
            assert (mats[1] @ mats[0]).is_zero()
            assert (mats[2] @ mats[1]).is_zero()


def test_coboundary_matches_oracle():
    for cat in (A2, C2, EX6):
        for p, field in ((None, QQ), (2, GF2)):
            for m in range(3):
                pkg = oracles.reduced(simplicial_coboundary_matrix(cat, m), field)
                cells = {(r, c): v for r, c, v in pkg.entries()}
                naive = oracles.simplicial_coboundary_rows(cat, p, m)
                nnz = 0
                for i, row in enumerate(naive):
                    for j, v in enumerate(row):
                        if v != 0:
                            nnz += 1
                            assert cells.get((i, j)) == v
                assert nnz == pkg.nnz


def test_coboundary_matches_face_assembly():
    # every fixture and its F^ad over GF(2), GF(3) and Q, degrees 0..3 (at
    # most 7776 chains of degree 4); the oracle sums faces chain by chain
    for name, cat in FIXTURES.items():
        for target in (cat, adjoint_category(cat)):
            assert list(itertools.islice(nerve_sizes(target), 5))[4] <= 7776
            for m in range(4):
                for field in (GF2, GF3, QQ):
                    want = oracles.face_coboundary(target, field, m)
                    got = oracles.reduced(simplicial_coboundary_matrix(target, m), field)
                    assert got == want, (name, field, m)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_offset_addressing_matches_the_tuple_oracles(name):
    # the skeleton's own chains, the retracted chains in their numbering
    # and the pullback along r, addressed by prefix offsets, against tuple
    # chains (nerve_chain_list) and a skeleton found by trying every pair
    # for inverses: every fixture and its F^ad over GF(2), GF(3) and Q,
    # degrees 0..3 (at most 7776 chains of degree 4)
    rng = random.Random(name)
    cat = FIXTURES[name]
    for target in (cat, adjoint_category(cat)):
        found = oracles.skeleton_by_search(target)
        assert found == _skeleton(target)
        assert nerve._retraction_is_functor(target)
        counts = list(itertools.islice(nerve_sizes(target), 5))
        assert counts[4] <= 7776
        sizes = nerve_sizes(_skeleton_category(target))
        for m in range(4):
            chains = oracles.nerve_chain_list(target, m)
            inside = [i for i, ch in enumerate(chains)
                      if all(found[0][x] == x for x in oracles._path_objects(target, ch))]
            assert next(sizes) == len(inside)
            place = {j: k for k, j in enumerate(inside)}   # chain of target -> of S
            assert dict.fromkeys(enumerate(_retracted(target, m)), 1) == \
                {(i, place[j]): 1 for i, j in oracles.retraction_entries(target, found, m)}
            for field in (GF2, GF3, QQ):
                z = Matrix.from_rows(field, [[rng.randrange(-2, 3) for _ in inside]
                                             for _ in range(3)], len(inside))
                pulled = z @ Reading(_retracted(target, m), len(inside)).T
                assert pulled == Matrix.from_entries(
                    field, 3, counts[m], oracles.pulled_back_entries(target, found, m, z))


def test_a_retraction_that_moves_a_target_leaves_the_chains_in_degree_two(monkeypatch):
    # one r g keeps its source but not its target: every prism term and
    # retracted chain of degree 1 is a chain, and from degree 2 on some are
    # not, as the tuple chains show; the functor check refuses such an r,
    # and the dims are those of F^ad's own nerve
    expected = simplicial_cohomology_dims(adjoint_category(fresh("s3")), GF2, 2)
    fad = adjoint_category(fresh("s3"))
    rep, c, r = _skeleton(fad)
    source, target = fad.source, fad.target
    g, h = next((g, h) for g in range(fad.n_morphisms) for h in fad.morphisms_by_source[source[r[g]]]
                if target[h] != target[r[g]])
    broken = (rep, c, r[:g] + (h,) + r[g + 1:])
    monkeypatch.setattr(nerve, "_skeleton", lambda cat: broken)

    def is_chain(ch):
        return isinstance(ch, int) or all(target[a] == source[b] for a, b in zip(ch, ch[1:]))

    for m, whole in ((1, True), (2, False)):
        chains = oracles.nerve_chain_list(fad, m)
        terms = [t for ch in chains for _sign, t in oracles.prism_terms(fad, broken, ch)]
        assert all(map(is_chain, terms)) == all(is_chain(oracles.retracted(broken, ch))
                                                for ch in chains) == whole
    assert not nerve._retraction_is_functor(fad)
    assert simplicial_cohomology_dims(fad, GF2, 2) == expected


# --- cohomology ------------------------------------------------------------------

def test_simplicial_dims_of_adjoint_categories():
    assert simplicial_cohomology_dims(adjoint_category(A2), QQ, 3) == [1, 0, 0, 0]
    assert simplicial_cohomology_dims(adjoint_category(C2), GF2, 3) == [2, 2, 2, 2]
    assert simplicial_cohomology_dims(adjoint_category(C2), GF3, 3) == [2, 0, 0, 0]


def test_simplicial_dims_match_rank_oracle():
    for name in ("a2", "c2", "ex6", "diamond"):
        cat = FIXTURES[name]
        fad = adjoint_category(cat)
        for p, field in ((None, QQ), (2, GF2), (3, GF3)):
            assert simplicial_cohomology_dims(fad, field, 2) == \
                oracles.naive_simplicial_dims(fad, p, 2), (name, p)


def test_degree_zero_counts_components():
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        for target in (cat, fad):
            dims = simplicial_cohomology_dims(target, QQ, 0)
            assert dims[0] == oracles.component_count_bfs(target)


def test_adjoint_of_c2_has_two_components():
    assert oracles.component_count_bfs(adjoint_category(C2)) == 2
    assert oracles.component_count_bfs(adjoint_category(EX6)) == 2
    assert simplicial_cohomology_dims(adjoint_category(EX6), QQ, 0) == [2]


def test_simplicial_dims_cap_refuses_before_any_chain(monkeypatch):
    # the F^ad of {e, z} with z∘z = z has 2·3^m chains in degree m: degree
    # 4 is the first past 100, long before the 8-chains of degree 7
    fad = adjoint_category(z_monoid())
    builds = count_builds(monkeypatch, _layer)
    with pytest.raises(DimensionCapExceeded) as refused:
        simplicial_cohomology_dims(fad, GF2, 7, cap=100)
    assert (refused.value.degree, refused.value.required) == (4, 162)
    assert not builds
    assert simplicial_cohomology_dims(fad, GF2, 2, cap=100) == \
        oracles.naive_simplicial_dims(fad, 2, 2)
    assert builds


def test_coboundary_cap_refuses_before_any_chain(monkeypatch):
    # 2·3^m chains in degree m: degree 6 is the first past 1000
    fad = adjoint_category(z_monoid())
    builds = count_builds(monkeypatch, _layer)
    with pytest.raises(DimensionCapExceeded) as refused:
        simplicial_coboundary_matrix(fad, 7, cap=1000)
    assert (refused.value.degree, refused.value.required) == (6, 1458)
    assert not builds


# --- the skeleton route ------------------------------------------------------------

@pytest.mark.parametrize("name", ("s3", "s3+c2", "d4"))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_dims_rank_the_skeleton_once_the_prism_holds(monkeypatch, name, field):
    # F^ad with isomorphism classes of several objects, whose retraction
    # passes the functor check, so the prism identity holds (the skeleton
    # lemma): the dims are the ranks of the whole nerve, and no coboundary
    # of F^ad is eliminated, in every field
    fad = adjoint_category({"s3+c2": S3_PLUS_C2, "d4": D4}.get(name) or FIXTURES[name])
    assert len(set(_skeleton(fad)[0])) < fad.n_objects
    assert nerve._retraction_is_functor(fad)
    own = [simplicial_coboundary_matrix(fad, m) for m in range(3)]
    expected = list(cohomology_dims(own, field))
    refuse_eliminating(monkeypatch, own)
    ranked = spy_nerve_eliminations(monkeypatch)
    assert simplicial_cohomology_dims(fad, field, 2) == expected
    # the skeleton's complex, one component per class of equal components:
    # fewer chains than F^ad in every degree
    reps = {a for a, x in enumerate(_skeleton(fad)[0]) if a == x}
    assert ranked == class_slices(fad, own, reps)
    assert all(d.nrows < whole.nrows and d.ncols < whole.ncols
               for deltas in ranked for d, whole in zip(deltas, own, strict=True))


def spy_functor_checks(monkeypatch) -> list:
    """The categories whose retraction is checked, one entry per check."""
    calls = []
    honest = nerve._retraction_is_functor

    def spied(cat):
        calls.append(cat)
        return honest(cat)

    monkeypatch.setattr(nerve, "_retraction_is_functor", spied)
    return calls


def test_the_skeleton_is_decided_once_for_every_degree_and_field(monkeypatch):
    # the skeleton lemma gives every degree over every field at once: one
    # functor check per call, whatever the field and the degrees
    fad = adjoint_category(fresh("s3"))
    checks = spy_functor_checks(monkeypatch)
    for field in (GF2, GF3, QQ):
        for max_m in (0, 2):
            assert simplicial_cohomology_dims(fad, field, max_m) == whole_dims(fad, field, max_m)
    assert checks == [fad] * 6


@pytest.mark.parametrize("name", ("chain:3", "diamond", "ex6", "cn:4"))
def test_a_whole_skeleton_builds_no_prism(monkeypatch, name):
    # every isomorphism class is one object, so S is F^ad: its own
    # coboundaries are ranked, on one component per class, and the
    # retraction is not even checked (a fresh category, so no memo answers
    # for it)
    fad = adjoint_category(builtin(name))
    checks = spy_functor_checks(monkeypatch)
    ranked = spy_nerve_eliminations(monkeypatch)
    assert simplicial_cohomology_dims(fad, GF3, 2) == oracles.naive_simplicial_dims(fad, 3, 2)
    assert ranked == class_slices(fad, [_coboundary(fad, m) for m in range(3)])
    assert not checks


# --- the skeleton as a category of its own ------------------------------------------

SKELETONS = {**FIXTURES, "d4": D4, "s3+c2": S3_PLUS_C2, "c4+v4+c4": sum_of_groups(C4, V4, C4)}


@pytest.mark.parametrize("name", sorted(SKELETONS))
def test_the_skeletons_coboundaries_restrict_those_of_fad(name):
    # S's own δ, from its own chains, is F^ad's δ on the chains whose
    # objects are all representatives (tuple chains, oracles.chains_within),
    # renumbered in order: S's arrows are numbered in F^ad's order, so its
    # chain order is F^ad's restricted.  Where S is F^ad, the two agree.
    fad = adjoint_category(SKELETONS[name])
    reps = set(_skeleton(fad)[0])
    skeleton = _skeleton_category(fad)
    assert skeleton.object_names == tuple(fad.object_names[x] for x in sorted(reps))
    assert skeleton.n_morphisms == len(oracles.chains_within(fad, reps, 1))
    for m in range(3 if name == "d4" else 4):
        delta = simplicial_coboundary_matrix(fad, m)
        assert _coboundary(skeleton, m) == component_block(fad, delta, m, reps), m


@pytest.mark.parametrize("name", ("s3", "d4", "s3+c2", "c4+v4+c4"))
def test_pulling_back_the_unit_cochains_reads_the_retraction(name):
    # z∘r for the unit cochain z = e_k of S's k-th chain is 1 exactly on
    # the chains σ of F^ad with rσ that chain: row σ of (i∘r)^*, as the
    # tuple oracle reads it
    fad = adjoint_category(SKELETONS[name])
    found = oracles.skeleton_by_search(fad)
    for m in range(3):
        inside = [i for i, ch in enumerate(oracles.nerve_chain_list(fad, m))
                  if all(found[0][x] == x for x in oracles._path_objects(fad, ch))]
        units = Matrix.identity(QQ, len(inside))
        pulled = units @ Reading(_retracted(fad, m), len(inside)).T
        assert {(i, inside[k]): v for k, row in pulled.rows.items() for i, v in row.items()} == \
            oracles.retraction_entries(fad, found, m), m


def test_dims_build_no_coboundary_of_fad_through_the_skeleton(monkeypatch):
    # a fresh D4, so no memo answers: only δ^0..δ^2 of the full
    # subcategories on the first components of the skeleton's three
    # classes, neither F^ad's nor the whole skeleton's
    builds = count_builds(monkeypatch, _coboundary)
    fad = adjoint_category(fresh("d4"))
    dims = simplicial_cohomology_dims(fad, GF2, 2)
    firsts = [sub for sub, _size in _classes(_skeleton_category(fad))]
    assert len(firsts) == 3
    assert builds == {(id(sub), (m,)): 1 for sub in firsts for m in range(3)}
    assert dims == whole_dims(fad, GF2, 2)


def test_characters_build_fads_delta_zero_and_the_skeletons_delta_one(monkeypatch):
    # the cocycle route eliminates S's δ^1 and bounds by F^ad's δ^0; F^ad's
    # δ^1 is never built
    builds = count_builds(monkeypatch, _coboundary)
    fad = adjoint_category(fresh("s3"))
    characters = character_space(fad, QQ)
    assert builds == {(id(fad), (0,)): 1, (id(_skeleton_category(fad)), (1,)): 1}
    assert characters == simplicial_coboundary_matrix(fad, 1).kernel_basis(QQ)


@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
def test_a_broken_skeleton_ranks_the_classes_of_fad(monkeypatch, breakage):
    # the functor check refuses: no skeleton category is built, and the
    # coboundaries of the full subcategories on the first components of
    # F^ad's classes are built and ranked: F^ad's own, one component per class
    honest = nerve._skeleton
    monkeypatch.setattr(nerve, "_skeleton", lambda fad: BREAKAGES[breakage](fad, honest(fad)))
    builds = count_builds(monkeypatch, _coboundary)
    skeletons = count_builds(monkeypatch, _skeleton_category)
    fad = adjoint_category(fresh("d4"))
    ranked = spy_nerve_eliminations(monkeypatch)
    dims = simplicial_cohomology_dims(fad, GF2, 2)
    assert builds == {(id(sub), (m,)): 1 for sub, _size in _classes(fad) for m in range(3)}
    assert not skeletons
    own = [_coboundary(fad, m) for m in range(3)]
    assert ranked == class_slices(fad, own)
    assert dims == list(cohomology_dims(own, GF2))


# --- one rank per class of equal components -------------------------------------------

REPEATED = {
    "c4+v4+c4": sum_of_groups(C4, V4, C4),
    "ex6+ex6": coproduct(EX6, EX6),
    "diamond+diamond": coproduct(DIAMOND, DIAMOND),
    "s3+c2": S3_PLUS_C2,
    "d4": D4,
}


def whole_dims(cat, field, max_m) -> list:
    """The dims from the ranks of the whole δ, one complex and no classes;
    where the skeleton is smaller, those of its own whole δ must agree."""
    whole = list(cohomology_dims([simplicial_coboundary_matrix(cat, m) for m in range(max_m + 1)],
                                 field))
    if len(set(_skeleton(cat)[0])) < cat.n_objects:
        skeleton = _skeleton_category(cat)
        assert list(cohomology_dims([_coboundary(skeleton, m) for m in range(max_m + 1)],
                                    field)) == whole
    return whole


def named_classes(cat) -> list:
    """``_classes(cat)`` as ``(object names of the first component, size)``."""
    return [(sub.object_names, size) for sub, size in _classes(cat)]


def oracle_classes(cat, keep=None) -> list:
    """``oracles.component_classes(cat, keep)`` in the form of ``named_classes``."""
    return [(tuple(map(cat.object_names.__getitem__, objects)), size)
            for objects, size in oracles.component_classes(cat, keep)]


def ranked_degrees(cat, limit=5000) -> int:
    """The highest max_m ≤ 2 whose (max_m + 1)-chains number at most ``limit``."""
    counts = list(itertools.islice(nerve_sizes(cat), 4))
    return max(m for m in range(3) if counts[m + 1] <= limit)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_class_route_matches_the_whole_complex(name, field):
    for cat in (FIXTURES[name], adjoint_category(FIXTURES[name])):
        max_m = ranked_degrees(cat)
        assert simplicial_cohomology_dims(cat, field, max_m) == whole_dims(cat, field, max_m)


@pytest.mark.parametrize("name", sorted(REPEATED))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_class_route_matches_on_repeated_components(name, field):
    # categories whose components repeat, themselves and their F^ad, with
    # the route's classes, of the category and of its skeleton, those of
    # the oracle's search, which matches components by an order-preserving
    # isomorphism, not by their tables (named, so the skeleton's objects
    # read as the category's)
    for cat in (REPEATED[name], adjoint_category(REPEATED[name])):
        max_m = ranked_degrees(cat)
        assert simplicial_cohomology_dims(cat, field, max_m) == whole_dims(cat, field, max_m)
        reps = sorted(set(_skeleton(cat)[0]))
        for keep, target in ((None, cat), (reps, _skeleton_category(cat))):
            assert named_classes(target) == oracle_classes(cat, keep), keep


def test_the_central_components_of_d4_form_one_class():
    # the skeleton of F^ad(D4) has one object per conjugacy class: e (0)
    # and r² (2) carry all of D4, r (1) carries C4, s (4) and sr (5) a V4;
    # they are the skeleton's objects 0..4, each its own component
    fad = adjoint_category(D4)
    assert sorted(set(_skeleton(fad)[0])) == [0, 1, 2, 4, 5]
    names = fad.object_names
    assert named_classes(_skeleton_category(fad)) == \
        [((names[0],), 2), ((names[1],), 1), ((names[4],), 2)]


def test_equal_counts_with_other_composites_are_two_classes():
    # F^ad of C4 ⊔ V4: eight one-object components of four arrows each,
    # C4's on objects 0..3 and V4's on 4..7; only their composition tables
    # tell them apart.  Degree 0 ranks the whole F^ad and builds no class
    fad = adjoint_category(sum_of_groups(C4, V4))
    assert simplicial_cohomology_dims(fad, GF2, 0) == [8]
    assert _classes not in {fn for fn, _args in fad.__dict__["_memo"]}
    names = fad.object_names
    assert named_classes(fad) == [((names[0],), 4), ((names[4],), 4)]
    (c4, _), (v4, _) = _classes(fad)
    assert (c4.source, c4.target, c4.identity) == (v4.source, v4.target, v4.identity)
    assert c4.compose_table != v4.compose_table
    for field in (GF2, GF3, QQ):
        assert simplicial_cohomology_dims(fad, field, 2) == whole_dims(fad, field, 2)


def spy_subcategories(monkeypatch) -> list:
    """A weak reference to every full subcategory built from now on."""
    built = []
    honest = nerve._full_subcategory

    def spied(cat, objects):
        sub = honest(cat, objects)
        built.append(weakref.ref(sub))
        return sub

    monkeypatch.setattr(nerve, "_full_subcategory", spied)
    return built


def test_only_each_class_first_subcategory_stays_alive(monkeypatch):
    # F^ad of C4 ⊔ V4: every one of the eight components is built as a
    # subcategory and compared, and only the two classes' first ones are
    # kept, with their own coboundaries
    built = spy_subcategories(monkeypatch)
    fad = adjoint_category(sum_of_groups(C4, V4))
    assert simplicial_cohomology_dims(fad, GF2, 2) == whole_dims(fad, GF2, 2)
    gc.collect()
    alive = [ref() for ref in built if ref() is not None]
    assert len(built) == 8
    assert alive == [sub for sub, _size in _classes(fad)]
    assert all(_coboundary in {fn for fn, _args in sub.__dict__["_memo"]} for sub in alive)


@pytest.mark.parametrize("name", ("c2", "cn:5", "ex6", "diamond", "chain:3"))
def test_one_component_builds_no_subcategory(monkeypatch, name):
    # a connected category is its own class: it is ranked itself (a copy,
    # so no memo answers for it)
    built = spy_subcategories(monkeypatch)
    cat = dataclasses.replace(builtin(name))
    assert simplicial_cohomology_dims(cat, GF3, 2) == whole_dims(cat, GF3, 2)
    assert _classes(cat) == ((cat, 1),)
    assert not built


@pytest.mark.parametrize(("name", "skeleton", "first", "other"), (
    ("cn:4", False, {0}, {3}),
    ("c4+v4+c4", False, {0}, {9}),
    ("d4", True, {0}, {2}),   # objects of the skeleton: F^ad's 0 and 2
    ("d4", True, {3}, {4}),   # F^ad's 4 and 5
))
def test_same_class_components_slice_to_equal_matrices(name, skeleton, first, other):
    # ``first`` is the first component of a class of several, ``other``
    # another component: the class's subcategory's own δ is the block of
    # the whole δ on either one's chains (the component lemma)
    cat = REPEATED.get(name) or FIXTURES[name]
    fad = adjoint_category(cat)
    target = _skeleton_category(fad) if skeleton else fad
    names = tuple(target.object_names[x] for x in sorted(first))
    ((sub, size),) = [(sub, size) for sub, size in _classes(target) if sub.object_names == names]
    assert size > 1
    assert not {target.object_names[x] for x in other} & set(names)
    for m in range(3):
        delta = simplicial_coboundary_matrix(target, m)
        assert _coboundary(sub, m) == component_block(target, delta, m, first) == \
            component_block(target, delta, m, other), m


@pytest.mark.parametrize("name", ("cn:6", "c4+v4+c4", "d4", "s3+c2", "diamond"))
def test_one_walk_per_class(monkeypatch, name):
    cat = REPEATED.get(name) or FIXTURES[name]
    fad = adjoint_category(cat)
    target = _skeleton_category(fad) if nerve._skeleton_applies(fad) else fad
    ranked = spy_nerve_eliminations(monkeypatch)
    assert simplicial_cohomology_dims(fad, GF3, 2) == whole_dims(fad, GF3, 2)
    classes = _classes(target)
    assert len(ranked) == len(classes)
    # each class's subcategory's memoized matrices themselves
    for deltas, (sub, _size) in zip(ranked, classes):
        assert all(d is _coboundary(sub, m) for m, d in enumerate(deltas))
    if len(classes) == 1 and classes[0][1] == 1:
        # one component: the category itself, no subcategory
        assert classes[0][0] is target


@pytest.mark.parametrize("k", (3, 5))
@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_degree_zero_reads_no_composite_within_a_cap_below_the_two_chains(monkeypatch, k, field):
    # F^ad(cn:k) has k objects, k² arrows and k³ 2-chains: a cap of k² admits
    # degree 1 only.  The skeleton's retraction composes once or twice per
    # arrow, within the cap; it is built first, and the classes compare
    # sources and targets alone
    fad = adjoint_category(builtin(f"cn:{k}"))
    _skeleton(fad)
    reads = []
    for attr in ("compose", "composites"):
        def counted(self, *args, honest=getattr(AdjointCategory, attr), attr=attr):
            reads.append(attr)
            return honest(self, *args)
        monkeypatch.setattr(AdjointCategory, attr, counted)
    assert simplicial_cohomology_dims(fad, field, 0, cap=k * k) == [k]
    assert not reads
    with pytest.raises(DimensionCapExceeded):
        simplicial_cohomology_dims(fad, field, 1, cap=k * k)
    # past the cap's degree the classes compare composites, and are counted
    assert simplicial_cohomology_dims(fad, field, 1) == [k, 0 if field == QQ or k % 2 else k]
    assert reads


# --- cocycles through the skeleton --------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURES) + ["d4", "s3+c2"])
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_cocycles_are_the_kernel_of_delta(name, field):
    # degrees 0..2 of every fixture's F^ad while the (m+1)-chains number at
    # most 5000: the same canonical RREF as the eliminated kernel
    cat = {"d4": D4, "s3+c2": S3_PLUS_C2}.get(name) or FIXTURES[name]
    fad = adjoint_category(cat)
    counts = list(itertools.islice(nerve_sizes(fad), 4))
    for m in range(3):
        if counts[m + 1] > 5000:
            break
        want = simplicial_coboundary_matrix(fad, m).kernel_basis(field)
        assert simplicial_cocycle_space(fad, field, m) == want, m


@pytest.mark.parametrize("name", ("s3", "d4", "s3+c2"))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_cocycles_eliminate_only_the_skeleton(monkeypatch, name, field):
    # isomorphism classes of several objects: F^ad's own δ^m is never
    # eliminated (memoized, so the route reads these very matrices)
    cat = {"s3": FIXTURES["s3"], "d4": D4, "s3+c2": S3_PLUS_C2}[name]
    fad = adjoint_category(cat)
    own = [simplicial_coboundary_matrix(fad, m) for m in range(2)]
    expected = [delta.kernel_basis(field) for delta in own]
    refuse_eliminating(monkeypatch, own)
    assert [simplicial_cocycle_space(fad, field, m) for m in range(2)] == expected


@pytest.mark.parametrize("name", ("chain:3", "diamond", "ex6", "cn:4"))
def test_whole_skeleton_cocycles_build_no_prism(monkeypatch, name):
    fad = adjoint_category(builtin(name))
    checks = spy_functor_checks(monkeypatch)
    assert simplicial_cocycle_space(fad, GF3, 1) == \
        simplicial_coboundary_matrix(fad, 1).kernel_basis(GF3)
    assert not checks


@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
def test_a_retraction_that_is_no_functor_falls_back_past_a_passing_prism(monkeypatch, breakage):
    # the functor check alone stands between a broken skeleton and the
    # pulled-back cocycles; it refuses every breakage, also one whose prism
    # identity holds, evaluated by the tuple oracle (c_rep an automorphism,
    # with r recomputed: c is still a natural isomorphism, but r∘i ≠ id_S)
    expected = simplicial_cocycle_space(adjoint_category(fresh("d4")), GF3, 1)
    honest = nerve._skeleton
    monkeypatch.setattr(nerve, "_skeleton", lambda fad: BREAKAGES[breakage](fad, honest(fad)))
    fad = adjoint_category(fresh("d4"))
    if breakage == "c_rep_automorphism":
        assert oracles.prism_identity_defect(fad, nerve._skeleton(fad), 3, 1) == {}
    assert not nerve._retraction_is_functor(fad)
    assert simplicial_cocycle_space(fad, GF3, 1) == expected

