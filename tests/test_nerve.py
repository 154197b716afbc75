import itertools
import random
import sys

import pytest

from hochcat import (
    adjoint_category,
    builtin,
    face,
    nerve_chains,
    simplicial_coboundary_matrix,
    simplicial_cocycle_space,
    simplicial_cohomology_dims,
    verify_prism_identity,
)
from hochcat import nerve
from hochcat.errors import DimensionCapExceeded
from hochcat.matrix import Matrix, VerificationResult, cohomology_dims
from hochcat.nerve import (
    _coboundary, _layer, _prism, _retraction_minus_identity, _skeleton, _skeleton_chains,
    nerve_sizes,
)

from . import oracles
from .catalog import A2, C2, D4, EX6, FIXTURES, GF2, GF3, QQ, S3_PLUS_C2, TRIV
from .test_category import z_monoid
from .test_comparison import BREAKAGES, fresh, refuse_eliminating, spy_nerve_eliminations
from .test_hochschild import count_builds


# --- chains -----------------------------------------------------------------

def test_chain_counts_a2():
    assert nerve_chains(A2, 0) == [0, 1]
    # source-to-target order: (id1,id1), (id1,g), (g,id2), (id2,id2)
    assert nerve_chains(A2, 2) == [(0, 0), (0, 2), (1, 1), (2, 1)]


def test_chain_counts_one_object():
    assert len(nerve_chains(C2, 3)) == 8
    for name in ("c2", "s3", "cn:5"):
        cat = FIXTURES[name]
        for m in range(4):
            assert len(nerve_chains(cat, m)) == (
                cat.n_objects if m == 0 else cat.n_morphisms ** m
            )


def test_chain_degree_is_not_bounded_by_the_recursion_limit():
    # the trivial category has one chain, of identities, in every degree
    m = sys.getrecursionlimit() + 50
    assert nerve_chains(builtin("triv"), m) == [(0,) * m]


def test_nerve_sizes_count_the_chains():
    for name, cat in FIXTURES.items():
        for c in (cat, adjoint_category(cat)):
            sizes = nerve_sizes(c)
            assert [next(sizes) for _ in range(4)] == \
                [len(nerve_chains(c, m)) for m in range(4)], name


def test_chains_are_composable():
    for name, cat in FIXTURES.items():
        for chain in nerve_chains(cat, 3):
            for g, h in zip(chain, chain[1:]):
                assert cat.target[g] == cat.source[h], name


# --- faces ------------------------------------------------------------------

def test_face_absorbs_identities():
    assert face(A2, (0, 2), 1) == (2,)  # g ∘ id1 = g


def test_face_composes_group_elements():
    assert face(C2, (1, 1), 1) == (0,)  # t ∘ t = e
    assert face(C2, (1, 1), 0) == (1,)
    assert face(C2, (1, 1), 2) == (1,)


def test_face_degree_one_gives_objects():
    assert face(A2, (2,), 0) == 1  # target
    assert face(A2, (2,), 1) == 0  # source


def test_face_out_of_range():
    with pytest.raises(IndexError):
        face(A2, (2,), 2)


@pytest.mark.parametrize("chain", [0, 1, ()], ids=repr)
def test_a_degree_zero_chain_has_no_face(chain):
    # an object (or the empty chain) is a degree-0 chain: every face index
    # is out of range, as past the end of a longer chain
    with pytest.raises(IndexError, match="degree-0 chain"):
        face(A2, chain, 0)


def test_simplicial_identities():
    # d_i ∘ d_j = d_{j-1} ∘ d_i for i < j, on all chains up to degree 4
    for name in ("a2", "c2", "ex6", "diamond"):
        cat = FIXTURES[name]
        for m in (2, 3, 4):
            for chain in nerve_chains(cat, m):
                for j in range(1, m + 1):
                    for i in range(j):
                        left = face(cat, face(cat, chain, j), i)
                        right = face(cat, face(cat, chain, i), j - 1)
                        assert left == right, (name, chain, i, j)


# --- coboundaries --------------------------------------------------------------

def test_coboundary_triv_degree_zero():
    d0 = simplicial_coboundary_matrix(TRIV, QQ, 0)
    assert (d0.nrows, d0.ncols) == (1, 1) and d0.is_zero()


def test_coboundary_c2_degree_zero_is_zero():
    d0 = simplicial_coboundary_matrix(C2, GF2, 0)
    assert (d0.nrows, d0.ncols) == (2, 1) and d0.is_zero()


def test_coboundary_a2_degree_zero():
    d0 = simplicial_coboundary_matrix(A2, QQ, 0)
    assert (d0.nrows, d0.ncols) == (3, 2)
    assert d0.rank() == 1


def test_coboundary_squares_to_zero():
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        for target in (cat, fad):
            for field in (GF2, QQ):
                mats = [simplicial_coboundary_matrix(target, field, m) for m in range(3)]
                assert (mats[1] @ mats[0]).is_zero()
                assert (mats[2] @ mats[1]).is_zero()


def test_coboundary_matches_oracle():
    for cat in (A2, C2, EX6):
        for p, field in ((None, QQ), (2, GF2)):
            for m in range(3):
                pkg = simplicial_coboundary_matrix(cat, field, m)
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
                    assert simplicial_coboundary_matrix(target, field, m) == want, (name, field, m)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_offset_addressing_matches_the_tuple_oracles(name):
    # the skeleton's chains, the prism, (i∘r)^* − I and the pullback along
    # r, addressed by prefix offsets, against tuple chains
    # (nerve_chain_list) and a skeleton found by trying every pair for
    # inverses: every fixture and its F^ad over GF(2), GF(3) and Q, degrees
    # 0..3 (at most 7776 chains of degree 4)
    rng = random.Random(name)
    cat = FIXTURES[name]
    for target in (cat, adjoint_category(cat)):
        found = oracles.skeleton_by_search(target)
        assert found == _skeleton(target)
        counts = list(itertools.islice(nerve_sizes(target), 5))
        assert counts[4] <= 7776
        for m in range(4):
            chains = oracles.nerve_chain_list(target, m)
            inside = [i for i, ch in enumerate(chains)
                      if all(found[0][x] == x for x in oracles._path_objects(target, ch))]
            assert list(_skeleton_chains(target, m)) == inside
            for field in (GF2, GF3, QQ):
                n, n_up = counts[m], counts[m + 1]
                assert _prism(target, m).over(field) == Matrix.from_entries(
                    field, n, n_up, oracles.prism_entries(target, found, m)), (name, field, m)
                minus_one = Matrix.from_entries(field, n, n, {(i, i): -1 for i in range(n)})
                assert _retraction_minus_identity(target, m).over(field) == Matrix.from_entries(
                    field, n, n, oracles.retraction_entries(target, found, m)) + minus_one
                z = Matrix.from_rows(field, [[rng.randrange(-2, 3) for _ in inside]
                                             for _ in range(3)], len(inside))
                assert nerve._pulled_back(target, m, z) == Matrix.from_entries(
                    field, 3, n, oracles.pulled_back_entries(target, found, m, z)).rows


def test_a_retraction_that_moves_a_target_leaves_the_chains_in_degree_two(monkeypatch):
    # one r g keeps its source but not its target: every prism term and
    # retracted chain of degree 1 is a chain, and from degree 2 on some are
    # not, as the tuple chains show; the offsets find them and refuse
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
        assert (_prism(fad, m) is not None) == whole
        assert (_retraction_minus_identity(fad, m) is not None) == whole
    assert verify_prism_identity(fad, GF2, 2) == \
        VerificationResult("prism", 2, False, (-1, -1, "no chain", None))


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
        simplicial_coboundary_matrix(fad, GF2, 7, cap=1000)
    assert (refused.value.degree, refused.value.required) == (6, 1458)
    assert not builds


# --- the skeleton route ------------------------------------------------------------

@pytest.mark.parametrize("name", ("s3", "s3+c2"))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_dims_rank_the_skeleton_once_the_prism_holds(monkeypatch, name, field):
    # F^ad with isomorphism classes of several objects: the dims are the
    # ranks of the whole nerve, and no coboundary of F^ad is eliminated
    fad = adjoint_category(S3_PLUS_C2 if name == "s3+c2" else FIXTURES[name])
    assert len(set(_skeleton(fad)[0])) < fad.n_objects
    own = [simplicial_coboundary_matrix(fad, QQ, m) for m in range(3)]
    expected = list(cohomology_dims(own, field))
    refuse_eliminating(monkeypatch, own)
    ranked = spy_nerve_eliminations(monkeypatch)
    assert simplicial_cohomology_dims(fad, field, 2) == expected
    # one complex, the skeleton's: fewer chains than F^ad in every degree
    (deltas,) = ranked
    assert all(d.nrows < whole.nrows and d.ncols < whole.ncols
               for d, whole in zip(deltas, own, strict=True))


@pytest.mark.parametrize("name", ("chain:3", "diamond", "ex6", "cn:4"))
def test_a_whole_skeleton_builds_no_prism(monkeypatch, name):
    # every isomorphism class is one object, so S is F^ad: its own
    # coboundaries are ranked and no prism is built (a fresh category, so
    # no memo answers for it)
    fad = adjoint_category(builtin(name))
    builds = count_builds(monkeypatch, _prism)
    ranked = spy_nerve_eliminations(monkeypatch)
    assert simplicial_cohomology_dims(fad, GF3, 2) == oracles.naive_simplicial_dims(fad, 3, 2)
    assert ranked == [[_coboundary(fad, m) for m in range(3)]]
    assert not builds


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
        want = simplicial_coboundary_matrix(fad, field, m).kernel_basis()
        assert simplicial_cocycle_space(fad, field, m) == want, m


@pytest.mark.parametrize("name", ("s3", "d4", "s3+c2"))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_cocycles_eliminate_only_the_skeleton(monkeypatch, name, field):
    # isomorphism classes of several objects: F^ad's own δ^m is never
    # eliminated (memoized, so the route reads these very matrices)
    cat = {"s3": FIXTURES["s3"], "d4": D4, "s3+c2": S3_PLUS_C2}[name]
    fad = adjoint_category(cat)
    own = [simplicial_coboundary_matrix(fad, QQ, m) for m in range(2)]
    expected = [delta.kernel_basis(field) for delta in own]
    refuse_eliminating(monkeypatch, own)
    assert [simplicial_cocycle_space(fad, field, m) for m in range(2)] == expected


@pytest.mark.parametrize("name", ("chain:3", "diamond", "ex6", "cn:4"))
def test_whole_skeleton_cocycles_build_no_prism(monkeypatch, name):
    fad = adjoint_category(builtin(name))
    builds = count_builds(monkeypatch, _prism)
    assert simplicial_cocycle_space(fad, GF3, 1) == \
        simplicial_coboundary_matrix(fad, GF3, 1).kernel_basis()
    assert not builds


@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
def test_a_retraction_that_is_no_functor_falls_back_past_a_passing_prism(monkeypatch, breakage):
    # the prism check is made to pass, so only the functor check stands
    # between a broken skeleton and the pulled-back cocycles
    expected = simplicial_cocycle_space(adjoint_category(fresh("d4")), GF3, 1)
    honest = nerve._skeleton
    monkeypatch.setattr(nerve, "_skeleton", lambda fad: BREAKAGES[breakage](fad, honest(fad)))
    monkeypatch.setattr(nerve, "verify_prism_identity",
                        lambda fad, field, m, cap=None: VerificationResult("prism", m, True))
    fad = adjoint_category(fresh("d4"))
    assert not nerve._retraction_is_functor(fad)
    assert simplicial_cocycle_space(fad, GF3, 1) == expected
