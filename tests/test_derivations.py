import itertools
from array import array

import pytest

from hochcat import (
    adjoint_category,
    builtin,
    comparison,
    derivations,
    character_space,
    graded_derivation_space,
    group_from_table,
    hochschild,
    hochschild_differential_matrix,
    nerve,
    poset_from_relation,
    simplicial_coboundary_matrix,
    theorem_b_report,
)
from hochcat.errors import DimensionCapExceeded, HypothesisViolated, NotChainCompatible
from hochcat.hochschild import (
    _slice,
    basis_index,
    relative_basis,
    relative_differential_matrix,
    relative_sizes,
)
from hochcat.matrix import Matrix, Reading, Subspace, VerificationResult
from hochcat.nerve import _layer, nerve_sizes

from . import oracles
from .catalog import (
    A2, C2, D4, EX6, FIELDS, FIXTURES, GF2, GF3, QQ, S3_PLUS_C2, symmetric_group_table,
)
from .test_category import collapse, z_monoid
from .test_comparison import BREAKAGES, fresh, misread, refuse_eliminating
from .test_hochschild import count_builds


# --- derivations ------------------------------------------------------------------

def test_derivation_dims_frozen():
    assert graded_derivation_space(A2, QQ).dim == 1
    assert graded_derivation_space(C2, GF2).dim == 2
    assert graded_derivation_space(C2, QQ).dim == 0


def test_derivation_dims_match_oracle():
    for name in ("a2", "c2", "ex6", "diamond"):
        cat = FIXTURES[name]
        for p, field in ((None, QQ), (2, GF2), (3, GF3)):
            assert graded_derivation_space(cat, field).dim == \
                oracles.naive_graded_derivation_dim(cat, p), (name, p)


def test_derivation_space_is_the_kernel_of_the_derivation_law():
    # ker d_1 of the relative complex against the hand-built n^3-row system:
    # identical canonical RREF bases, not just equal dimensions
    for name, cat in FIXTURES.items():
        system = oracles.derivation_system(cat)
        for field in (GF2, GF3, QQ):
            law = Matrix.from_entries(field, *system).kernel_basis()
            assert graded_derivation_space(cat, field) == law, (name, str(field))


def test_derivation_a2_shape():
    # the single graded derivation scales g and kills the identities
    space = graded_derivation_space(A2, QQ)
    basis = relative_basis(A2, 1)
    (vec,) = space.basis.dense_rows()
    nonzero = {basis[i] for i, v in enumerate(vec) if v != 0}
    assert nonzero == {((2,), 2)}


def test_derivations_are_cocycles_in_relative_coordinates():
    # the derivation space equals ker(d^1) intersected with the relative
    # coordinate subspace, computed through the full complex
    for name in ("a2", "c2", "ex6"):
        cat = FIXTURES[name]
        for field in (GF2, QQ):
            rel = relative_basis(cat, 1)
            rel_full = [basis_index(cat, tup, h) for tup, h in rel]
            rel_set = set(rel_full)
            n_full = cat.n_morphisms ** 2
            ker = hochschild_differential_matrix(cat, 1).kernel_basis(field)
            non_rel = [j for j in range(n_full) if j not in rel_set]
            # combinations of kernel vectors vanishing outside relative slots
            K = ker.basis
            restr = Matrix.from_rows(
                field, [[v[j] for j in non_rel] for v in K.dense_rows()], ncols=len(non_rel)
            )
            combos = restr.transpose().kernel_basis()
            vectors = (combos.basis @ K).dense_rows()
            graded_cocycles = Subspace.from_matrix(Matrix.from_rows(
                field, [[vec[j] for j in rel_full] for vec in vectors], ncols=len(rel)
            ))
            assert graded_cocycles == graded_derivation_space(cat, field), (name, field)


# --- characters --------------------------------------------------------------------

def test_character_dims_frozen():
    assert character_space(adjoint_category(A2), QQ).dim == 1
    assert character_space(adjoint_category(C2), GF2).dim == 2
    assert character_space(adjoint_category(C2), QQ).dim == 0


def test_character_dims_match_oracle():
    for name in ("a2", "c2", "ex6", "diamond"):
        fad = adjoint_category(FIXTURES[name])
        for p, field in ((None, QQ), (2, GF2), (3, GF3)):
            assert character_space(fad, field).dim == \
                oracles.naive_character_dim(fad, p), (name, p)


def test_characters_equal_degree_one_cocycles():
    # ker δ^1 of the F^ad nerve against the hand-built additivity system:
    # identical canonical RREF bases, not just equal dimensions
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        system = oracles.character_system(fad)
        for field in (GF2, GF3, QQ):
            additive = Matrix.from_entries(field, *system).kernel_basis()
            assert character_space(fad, field) == additive, (name, str(field))


def test_characters_vanish_on_identities():
    for name, cat in FIXTURES.items():
        fad = adjoint_category(cat)
        ids = set(fad.identity)
        for field in FIELDS:
            for vec in character_space(fad, field).basis.dense_rows():
                assert all(vec[i] == 0 for i in ids), name


# --- Theorem B ---------------------------------------------------------------------

def test_theorem_b_c2():
    rep = theorem_b_report(C2, GF2)
    assert (rep.dim_derivations, rep.dim_characters) == (2, 2)
    assert rep.bijection
    rep = theorem_b_report(C2, QQ)
    assert (rep.dim_derivations, rep.dim_characters) == (0, 0)
    assert rep.bijection  # empty bijection


def test_theorem_b_a2():
    rep = theorem_b_report(A2, QQ)
    assert (rep.dim_derivations, rep.dim_characters) == (1, 1)
    assert rep.bijection
    assert rep.restricted_matrix.rank() == 1


def test_theorem_b_ex6():
    for field in (GF2, GF3):
        rep = theorem_b_report(EX6, field)
        assert rep.dim_derivations == rep.dim_characters
        assert rep.bijection


def test_theorem_b_all_hypothesis_fixtures():
    for name in ("triv", "a2", "c2", "s3", "diamond", "ex6", "cn:4", "chain:3"):
        for field in FIELDS:
            rep = theorem_b_report(FIXTURES[name], field)
            assert rep.dim_derivations == rep.dim_characters, (name, str(field))
            assert rep.bijection, (name, str(field))


def test_character_space_honours_the_cap():
    # the F^ad of {e, z} has 6 morphisms and 18 2-chains
    fad = adjoint_category(z_monoid())
    with pytest.raises(DimensionCapExceeded) as refused:
        character_space(fad, GF2, cap=10)
    assert (refused.value.degree, refused.value.required) == (2, 18)
    assert character_space(fad, GF2, cap=18).ambient_dim == 6


def test_theorem_b_refuses_the_first_fad_degree_over_the_cap():
    # the F^ad of C4 has 16 morphisms: the 1-chains already pass 15, and
    # the report names degree 1 as character_space does
    cat = FIXTURES["cn:4"]
    refusals = []
    for call in (lambda: theorem_b_report(cat, GF2, cap=15),
                 lambda: character_space(adjoint_category(cat), GF2, cap=15)):
        with pytest.raises(DimensionCapExceeded) as refused:
            call()
        refusals.append((refused.value.degree, refused.value.required))
    assert refusals == [(1, 16)] * 2


def test_theorem_b_requires_hypotheses():
    with pytest.raises(HypothesisViolated):
        theorem_b_report(collapse(), GF2)


def _perturb_x(monkeypatch, perturb):
    """Perturb the images of X that ``theorem_b_report`` restricts to the
    derivations, its second ``restricted_map`` call (T's comes first); row i
    is X of character i, so the derivations found from them are untouched."""
    honest, calls = derivations.restricted_map, []

    def restricted(images, dst):
        calls.append(dst)
        return honest(perturb(images) if len(calls) == 2 else images, dst)

    monkeypatch.setattr(derivations, "restricted_map", restricted)


def test_theorem_b_rejects_a_perturbed_x_that_stays_in_the_derivations(monkeypatch):
    # 2X still sends characters to derivations, but is not T's inverse
    honest = theorem_b_report(A2, QQ)
    _perturb_x(monkeypatch, lambda images: oracles.times(2, images))
    rep = theorem_b_report(A2, QQ)
    assert rep.bijection is False
    assert rep.restricted_matrix == honest.restricted_matrix


def test_theorem_b_rejects_a_perturbed_x_that_leaves_the_derivations(monkeypatch):
    # adding the identity slot e_(id, id) to X's image of the first character
    # basis vector leaves the derivations, which vanish on identities
    def leave(images):
        ident = C2.identity[0]
        col = relative_basis(C2, 1).index(((ident,), ident))
        cells = {(r, c): v for r, c, v in images.entries()}
        cells[0, col] = GF2.add(cells.get((0, col), GF2.zero), GF2.one)
        return Matrix.from_entries(GF2, images.nrows, images.ncols, cells)

    honest = theorem_b_report(C2, GF2)
    _perturb_x(monkeypatch, leave)
    rep = theorem_b_report(C2, GF2)
    assert rep.bijection is False
    assert rep.restricted_matrix == honest.restricted_matrix


# --- the routes: characters through the skeleton, derivations as X of them ----------

ROUTED = {**FIXTURES, "d4": D4, "s3+c2": S3_PLUS_C2}
SKELETAL = ("s3", "d4", "s3+c2")   # F^ad has isomorphism classes of several objects


def spy_eliminations(monkeypatch) -> list:
    """The matrices ``Matrix.rref`` is called on (kernels go through it), in order."""
    calls = []
    honest = Matrix.rref

    def spied(self, *args, **kwargs):
        calls.append(self)
        return honest(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "rref", spied)
    return calls


def eliminated(calls, matrix) -> bool:
    """Whether ``matrix`` itself was eliminated: the routes eliminate the
    memoized integer matrices (over Q) in every field."""
    return any(m is matrix for m in calls)


@pytest.mark.parametrize("name", sorted(ROUTED))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_characters_are_the_kernel_of_delta_one(name, field):
    fad = adjoint_category(ROUTED[name])
    assert character_space(fad, field) == \
        simplicial_coboundary_matrix(fad, 1).kernel_basis(field)


@pytest.mark.parametrize("name", sorted(ROUTED))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_derivations_through_x_are_the_kernel_of_d_one(name, field):
    # every fixture passes the three checks, and X of the characters is
    # the eliminated ker d_1, basis for basis
    cat = ROUTED[name]
    char = character_space(adjoint_category(cat), field)
    t1 = derivations._relative_reading(cat, 1, None)
    der = derivations._derivations_through_x(cat, field, t1, char.basis @ t1, None)
    assert der == graded_derivation_space(cat, field)
    rep = theorem_b_report(cat, field)
    assert (rep.dim_derivations, rep.dim_characters, rep.bijection) == (der.dim, char.dim, True)


@pytest.mark.parametrize("name", SKELETAL)
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_theorem_b_eliminates_no_degree_two_system(monkeypatch, name, field):
    # the characters come from the skeleton's δ^1 and the derivations from
    # X, so neither d_1 nor F^ad's δ^1 is eliminated (memoized: the report
    # reads these very matrices)
    cat = ROUTED[name]
    fad = adjoint_category(cat)
    expected = oracles.naive_graded_derivation_dim(cat, field.p)
    refuse_eliminating(monkeypatch, [relative_differential_matrix(cat, 1),
                                     simplicial_coboundary_matrix(fad, 1)])
    rep = theorem_b_report(cat, field)
    assert (rep.dim_derivations, rep.dim_characters, rep.bijection) == (expected, expected, True)


@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
@pytest.mark.parametrize("name", ("s3", "d4"))
@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_a_broken_skeleton_eliminates_the_characters(monkeypatch, breakage, name, field):
    # fresh groups, so no broken prism outlives the test in a memo
    expected = character_space(adjoint_category(fresh(name)), field)
    honest = nerve._skeleton
    monkeypatch.setattr(nerve, "_skeleton", lambda fad: BREAKAGES[breakage](fad, honest(fad)))
    fad = adjoint_category(fresh(name))
    calls = spy_eliminations(monkeypatch)
    assert character_space(fad, field) == expected
    assert eliminated(calls, simplicial_coboundary_matrix(fad, 1))


def moved_read(t, _d1):
    """T with the read of its first row moved to the next column."""
    cols = array("l", t.cols)
    cols[0] = (cols[0] + 1) % t.ncols
    return Reading(cols, t.ncols)


def swapped_reads(t, d1):
    """T with the reads of row 0 and of the first row whose column's row of
    ``d1`` differs swapped: every column is still read once."""
    cols = array("l", t.cols)
    other = next(r for r, c in enumerate(cols) if d1.rows.get(c) != d1.rows.get(cols[0]))
    cols[0], cols[other] = cols[other], cols[0]
    return Reading(cols, t.ncols)


def refused_check(*_args):
    return VerificationResult("two_sided_relative", 1, False, (0, 0, "perturbed", None))


@pytest.mark.parametrize("name", ("a2", "s3", "s3+c2"))
@pytest.mark.parametrize("perturbation", ("moved", "swapped", "two_sided"))
def test_a_failed_x_check_eliminates_the_derivations(monkeypatch, name, perturbation):
    # moving a read of T² leaves a column unread, so X² T² is not I (check
    # b), swapping two breaks T²d_1 = δ^1T¹ (check c), and a failed
    # two-sided check is (a): each falls back to ker d_1, and the report is
    # the same
    cat = ROUTED[name]
    honest = theorem_b_report(cat, GF3)
    if perturbation == "two_sided":
        monkeypatch.setattr(derivations, "verify_two_sided_on_relative", refused_check)
    else:
        perturb = moved_read if perturbation == "moved" else swapped_reads
        t_rel = derivations._relative_reading

        def perturbed(cat, m, cap=None):
            t = t_rel(cat, m, cap)
            d1 = oracles.reduced(relative_differential_matrix(cat, 1), GF3)
            return perturb(t, d1) if m == 2 else t

        monkeypatch.setattr(derivations, "_relative_reading", perturbed)
    char = character_space(adjoint_category(cat), GF3)
    t1 = derivations._relative_reading(cat, 1, None)
    assert derivations._derivations_through_x(cat, GF3, t1, char.basis @ t1, None) is None
    calls = spy_eliminations(monkeypatch)
    assert theorem_b_report(cat, GF3) == honest
    assert eliminated(calls, relative_differential_matrix(cat, 1))


misread_t2_outside = misread(2, lambda cat, read, ncols: next(
    c for c in range(ncols) if c not in _slice(cat, 2, False)[1]))


@pytest.mark.parametrize("name", ("ex6", "diamond"))
@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_t2_reading_a_non_relative_column_eliminates_the_derivations(monkeypatch, name, field):
    # with several objects T² can read a column outside the relative
    # complex: its relative reading refuses, so the derivations are ker d_1,
    # and the report is the one X gives unperturbed.  Fresh categories, so
    # no perturbed T outlives the test in a memo
    cat = builtin(name)
    calls = spy_eliminations(monkeypatch)
    honest = theorem_b_report(cat, field)
    assert not eliminated(calls, relative_differential_matrix(cat, 1))
    monkeypatch.setattr(comparison, "_read", misread_t2_outside(comparison._read))
    cat = builtin(name)
    with pytest.raises(NotChainCompatible):
        derivations._relative_reading(cat, 2, None)
    assert theorem_b_report(cat, field) == honest
    assert eliminated(calls, relative_differential_matrix(cat, 1))


def fresh_fixture(name):
    """A catalog fixture built anew, so no memo has listed its chains or bases."""
    return group_from_table(symmetric_group_table(3)) if name == "s3" else builtin(name)


def refusal(call):
    with pytest.raises(DimensionCapExceeded) as refused:
        call()
    return refused.value.degree, refused.value.required


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_theorem_b_refuses_in_the_order_of_the_eliminating_report(monkeypatch, name):
    # the eliminating report checked F^ad's 1- and 2-chain counts, then
    # d_1's degree-1 and degree-2 relative sizes: at one below each of them
    # the refusal names the first size over the cap, and nothing is listed
    cat = fresh_fixture(name)
    order = [*zip((1, 2), itertools.islice(nerve_sizes(adjoint_category(cat)), 1, 3)),
             *zip((1, 2), itertools.islice(relative_sizes(cat), 1, 3))]
    chains = count_builds(monkeypatch, _layer)
    bases = count_builds(monkeypatch, _slice)
    for cap in sorted({size - 1 for _m, size in order}):
        first = next((m, size) for m, size in order if size > cap)
        assert refusal(lambda: theorem_b_report(cat, GF2, cap)) == first, cap
    assert not chains and not bases


def boolean_lattice(k):
    """The subsets of a k-set ordered by inclusion: 2^k objects and 3^k arrows."""
    return poset_from_relation([[a & b == a for b in range(2 ** k)] for a in range(2 ** k)])


def test_theorem_b_builds_each_relative_table_once_per_degree(monkeypatch):
    # on the 16 subsets of a 4-set the relative basis is not the full one;
    # the two-sided check, the route's T¹ and T², d_1 and the restricted
    # maps all read the relative index and T's relative reads, and each is
    # built once per degree
    cat = boolean_lattice(4)
    slices = count_builds(monkeypatch, hochschild._slice)
    reads = count_builds(monkeypatch, comparison._read_relative)
    rep = theorem_b_report(cat, QQ)
    assert (rep.dim_derivations, rep.dim_characters, rep.bijection) == (15, 15, True)
    assert slices == {(id(cat), (1, False)): 1, (id(cat), (2, False)): 1}
    assert reads == {(id(cat), (1,)): 1, (id(cat), (2,)): 1}
