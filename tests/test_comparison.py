import dataclasses
import gc
from fractions import Fraction
import itertools
from collections import Counter
from array import array
import random
import weakref

import pytest

from hochcat import (
    adjoint_category,
    builtin,
    hochschild_cohomology_dims,
    hochschild_differential_matrix,
    relative_cohomology_dims,
    simplicial_coboundary_matrix,
    simplicial_cohomology_dims,
    t_map_matrix,
    theorem_a_report,
    theorem_b_report,
    verify_section,
    verify_t_chain_identity,
    verify_two_sided_on_relative,
    verify_x_chain_identity,
    x_map_matrix,
)
from hochcat import (
    RawCategory, comparison, group_from_table, hochschild, nerve, predicate_reports,
    validate_category,
)
from hochcat.comparison import _read_relative, _relative_reading
from hochcat.errors import DimensionCapExceeded, HypothesisViolated, NotChainCompatible
from hochcat.hochschild import (
    _full_differential,
    _slice,
    basis_index,
    hochschild_basis,
    hochschild_basis_size,
    relative_basis,
    relative_differential_matrix,
    relative_is_full,
)
from hochcat.matrix import Matrix, VerificationResult
from hochcat.nerve import _coboundary, _layer, _skeleton, nerve_sizes

from . import oracles
from .catalog import (
    A2, C2, C4, D4, DIAMOND, EX6, FIELDS, FIXTURES, GF2, GF3, GF5, QQ, S3_PLUS_C2, TRIV, V4,
    dihedral_group_table, sum_of_groups, symmetric_group_table,
)
from .test_category import collapse, z_monoid
from .test_hochschild import count_builds

HYPOTHESIS_FIXTURES = ("triv", "a2", "c2", "cn:3", "s3", "chain:3", "diamond", "ex6")


def column(matrix: Matrix, c: int) -> dict:
    return {r: v for r, cc, v in matrix.entries() if cc == c}


def as_column(field, vec) -> Matrix:
    return Matrix.from_rows(field, [[v] for v in vec], ncols=1)


def count_map_builds(monkeypatch, name) -> Counter:
    """Count the calls of ``comparison.<name>`` (``t_map_matrix`` or
    ``x_map_matrix``), each of which builds its matrix, keyed as
    ``count_builds`` keys a memo's misses: ``(id(cat), (m,))``."""
    calls: Counter = Counter()
    build = getattr(comparison, name)

    def counting(cat, m, cap=None):
        calls[id(cat), (m,)] += 1
        return build(cat, m, cap)

    monkeypatch.setattr(comparison, name, counting)
    return calls


# --- structure of T ---------------------------------------------------------

def test_t_has_one_unit_entry_per_row():
    for name in HYPOTHESIS_FIXTURES:
        cat = FIXTURES[name]
        for m in range(3):
            t = t_map_matrix(cat, m)
            assert t.nrows == len(oracles.nerve_chain_list(adjoint_category(cat), m))
            per_row = {}
            for r, c, v in t.entries():
                assert type(v) is int and v == 1
                per_row[r] = per_row.get(r, 0) + 1
            assert all(per_row.get(r) == 1 for r in range(t.nrows)), name


def test_t_degree_zero_reads_base_endomorphism():
    assert t_map_matrix(TRIV, 0) == Matrix.identity(QQ, 1)


def test_t_degree_one_c2_reads_composite():
    # the chain over bottom t with base vertical t reads coefficient (t,), e
    fad = adjoint_category(C2)
    t = t_map_matrix(C2, 1)
    row = oracles.nerve_chain_list(fad, 1).index((fad.triple_index[1, 1, 1],))
    assert column(t, basis_index(C2, (1,), 0))[row] == 1


def test_t_degree_one_a2_identity_verticals():
    fad = adjoint_category(A2)
    t = t_map_matrix(A2, 1)
    row = oracles.nerve_chain_list(fad, 1).index((fad.triple_index[0, 2, 1],))
    assert column(t, basis_index(A2, (2,), 2))[row] == 1


# --- structure of X ----------------------------------------------------------

def test_x_indicator_a2():
    # indicator of the unique chain over g maps to the cochain g -> g
    fad = adjoint_category(A2)
    x = x_map_matrix(A2, 1)
    col = oracles.nerve_chain_list(fad, 1).index((fad.triple_index[0, 2, 1],))
    assert column(x, col) == {basis_index(A2, (2,), 2): 1}


def test_x_indicator_c2_expands_base_sum():
    # indicator of the chain (bottom t, base e): value t -> t·e = t, e -> 0
    fad = adjoint_category(C2)
    x = x_map_matrix(C2, 1)
    col = oracles.nerve_chain_list(fad, 1).index((fad.triple_index[0, 1, 0],))
    assert column(x, col) == {basis_index(C2, (1,), 1): 1}


def test_x_zero_cochain_maps_to_zero():
    x = x_map_matrix(EX6, 2)
    zero = as_column(QQ, [0] * x.ncols)
    assert (x @ zero).is_zero()


def test_x_vanishes_on_non_composable_tuples():
    x = x_map_matrix(EX6, 2)
    rel_rows = {
        basis_index(EX6, tup, h) for tup, h in relative_basis(EX6, 2)
    }
    for r, _c, _v in x.entries():
        assert r in rel_rows


def test_x_requires_right_determinism():
    # collapse() is not right deterministic, z_monoid() not right cancellative;
    # X and Theorem B, which restricts it, refuse both, though T exists for each
    for cat in (collapse(), z_monoid()):
        for m in range(2):
            chains = oracles.nerve_chain_list(adjoint_category(cat), m)
            assert t_map_matrix(cat, m).nrows == len(chains)
            with pytest.raises(HypothesisViolated):
                x_map_matrix(cat, m)
        with pytest.raises(HypothesisViolated):
            theorem_b_report(cat, GF2)


def right_only():
    """Objects x, y; s∘s = id_x; g: x -> y with g∘s = g.

    Right deterministic and right cancellative, but not left cancellative:
    the F^ad chains (id_x, g, id_y) and (s, g, id_y) read the same cochain
    g -> g, so two columns of X share a row.
    """
    return validate_category(RawCategory(
        objects=["x", "y"],
        morphisms=[("idx", "x", "x", True), ("s", "x", "x", False),
                   ("idy", "y", "y", True), ("g", "x", "y", False)],
        compositions=[("s", "s", "idx"), ("g", "s", "g")],
    ))


X_REFERENCE_CATEGORIES = {**FIXTURES, "right_only": right_only()}


@pytest.mark.parametrize("name", sorted(X_REFERENCE_CATEGORIES))
def test_x_is_the_ladder_completion_reference(name):
    # X = Tᵀ, in full and relative rows, is the sum over completed ladders
    cat = X_REFERENCE_CATEGORIES[name]
    reports = predicate_reports(cat)
    assert reports["right_deterministic"].holds and reports["right_cancellative"].holds
    fad = adjoint_category(cat)
    for m in range(3):
        full = oracles.ladder_completion_x(cat, fad, m, hochschild_basis(cat, m))
        rel_rows = relative_basis(cat, m)
        rel = oracles.ladder_completion_x(cat, fad, m, rel_rows)
        ncols = len(oracles.nerve_chain_list(fad, m))
        for field in FIELDS:
            assert oracles.reduced(x_map_matrix(cat, m), field) == Matrix.from_entries(
                field, hochschild_basis_size(cat, m), ncols, full), (name, m, field)
            t_rel, _outside = _read_relative(cat, m)
            assert oracles.reduced(t_rel.T.matrix(), field) == Matrix.from_entries(
                field, len(rel_rows), ncols, rel), (name, m, field)


def test_right_only_x_has_two_columns_on_one_row():
    cat = right_only()
    assert not predicate_reports(cat)["left_cancellative"].holds
    x = x_map_matrix(cat, 1)
    rows = [r for r, _c, _v in x.entries()]
    assert len(rows) == x.ncols and len(set(rows)) < len(rows)


# --- the chain identities ------------------------------------------------------

@pytest.mark.parametrize("name", HYPOTHESIS_FIXTURES)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_chain_identities(name, field):
    cat = FIXTURES[name]
    for m in range(3):
        assert verify_t_chain_identity(cat, field, m).ok, (name, m)
        assert verify_x_chain_identity(cat, field, m).ok, (name, m)
        assert verify_section(cat, field, m).ok, (name, m)
        assert verify_two_sided_on_relative(cat, field, m).ok, (name, m)


def test_identity_checks_report_hypothesis_violations():
    cat, field = collapse(), GF2
    with pytest.raises(HypothesisViolated):
        verify_t_chain_identity(cat, field, 0)
    with pytest.raises(HypothesisViolated):
        verify_two_sided_on_relative(cat, field, 0)


def test_random_cochain_spot_check():
    # matrix identities imply the pointwise ones; spot-check the assembly
    # by pushing random cochains through both sides
    rng = random.Random(11)
    for name in ("c2", "ex6", "a2"):
        cat = FIXTURES[name]
        for m in range(2):
            d = oracles.reduced(hochschild_differential_matrix(cat, m), GF5)
            t_low = oracles.reduced(t_map_matrix(cat, m), GF5)
            t_high = oracles.reduced(t_map_matrix(cat, m + 1), GF5)
            delta = oracles.reduced(simplicial_coboundary_matrix(adjoint_category(cat), m), GF5)
            for _ in range(5):
                values = [rng.randrange(5) for _ in range(hochschild_basis_size(cat, m))]
                lhs = t_high @ (d @ as_column(GF5, values))
                # (-1)^(m+1) δ T v, the sign carried by v
                rhs = delta @ (t_low @ as_column(GF5, [(-1) ** (m + 1) * v for v in values]))
                assert lhs == rhs


def test_signed_coboundary_preserves_kernel_and_image():
    for name in ("c2", "ex6"):
        cat = FIXTURES[name]
        for m in range(3):
            delta = simplicial_coboundary_matrix(adjoint_category(cat), m)
            alpha = oracles.times((-1) ** (m + 1), delta)
            assert alpha.kernel_basis(GF3) == delta.kernel_basis(GF3)
            assert alpha.image_basis(GF3) == delta.image_basis(GF3)


def test_relative_t_is_square_under_full_hypotheses():
    for name in HYPOTHESIS_FIXTURES:
        cat, field = FIXTURES[name], GF2
        for m in range(4):
            t_rel = _relative_reading(cat, m, None)
            chains = oracles.nerve_chain_list(adjoint_category(cat), m)
            assert t_rel.nrows == t_rel.ncols == len(chains)
            assert t_rel.matrix().rank(field) == t_rel.nrows, (name, m)


# --- Theorem A reports ------------------------------------------------------------

def test_theorem_a_c2_gf2():
    rep = theorem_a_report(C2, GF2, 3)
    assert rep.tier == "isomorphism" and rep.verdict == "isomorphism"
    for rec in rep.degrees:
        assert rec.dim_hochschild == rec.dim_relative == rec.dim_simplicial == 2
        assert rec.induced_invertible and rec.induced_surjective


def test_theorem_a_a2_rationals():
    rep = theorem_a_report(A2, QQ, 3)
    dims = [rec.dim_hochschild for rec in rep.degrees]
    assert dims == [1, 0, 0, 0]
    assert all(rec.induced_invertible for rec in rep.degrees)
    assert rep.verdict == "isomorphism"


@pytest.mark.parametrize("field", (GF2, GF3), ids=str)
def test_theorem_a_ex6_agreement(field):
    rep = theorem_a_report(EX6, field, 2)
    for rec in rep.degrees:
        assert rec.dim_hochschild == rec.dim_relative == rec.dim_simplicial
        assert rec.induced_invertible
    assert rep.verdict == "isomorphism"


def test_theorem_a_eliminates_a_one_object_relative_complex_once(monkeypatch):
    # a certified report takes the relative dimensions from the nerve (the
    # relative lemma), so no relative differential is assembled, with one
    # object or more
    built = []
    relative = hochschild.relative_differential_matrix
    cats = (C2, FIXTURES["s3"], EX6)
    expected = {(cat, field): relative_cohomology_dims(cat, field, 1)
                for cat in cats for field in (GF2, QQ)}

    def counted(cat, field, m, cap=None):
        built.append((cat.n_objects, m))
        return relative(cat, field, m, cap)

    monkeypatch.setattr(hochschild, "relative_differential_matrix", counted)
    for cat in cats:
        for field in (GF2, QQ):
            rep = theorem_a_report(cat, field, 1)
            assert [rec.dim_relative for rec in rep.degrees] == \
                expected[cat, field], (cat.n_objects, str(field))
            assert rep.verdict == "isomorphism"
    assert built == []


def test_certificates_never_write_a_basis_out_densely(monkeypatch):
    # cocycle, coboundary, derivation and character bases stay sparse RREF
    # matrices from elimination to the induced maps
    def refuse(self):
        raise AssertionError(f"dense rows of a {self.nrows}x{self.ncols} matrix")

    monkeypatch.setattr(Matrix, "dense_rows", refuse)
    for cat in (DIAMOND, EX6):
        for field in (GF2, QQ):
            assert theorem_a_report(cat, field, 2).verdict == "isomorphism"
            assert theorem_b_report(cat, field).bijection


def test_derived_tables_die_with_their_category():
    # renamed objects: no equal category was built earlier in the process
    base = builtin("ex6")
    cat = dataclasses.replace(base, object_names=tuple(f"{x}'" for x in base.object_names))
    ref = weakref.ref(cat)
    hochschild_cohomology_dims(cat, GF2, 2)
    relative_cohomology_dims(cat, GF2, 2)
    assert theorem_a_report(cat, GF2, 2).verdict == "isomorphism"
    del cat
    gc.collect()
    assert ref() is None
    # a group's report memoizes the skeleton on F^ad, and the skeleton as a
    # category, whose own memos hold its classes' first subcategories
    group = group_from_table(symmetric_group_table(3), object_name="x'")
    skeleton = nerve._skeleton_category(adjoint_category(group))
    assert theorem_a_report(group, GF2, 2).verdict == "isomorphism"
    memos = {fn for fn, _args in adjoint_category(group).__dict__["_memo"]}
    assert {nerve._skeleton, nerve._skeleton_category} <= memos
    assert nerve._classes in {fn for fn, _args in skeleton.__dict__["_memo"]}
    refs = [weakref.ref(c) for c in (group, adjoint_category(group), skeleton,
                                     *(sub for sub, _size in nerve._classes(skeleton)))]
    assert len(refs) == 6
    del group, memos, skeleton
    gc.collect()
    assert [r() for r in refs] == [None] * 6


def test_theorem_a_checks_the_cap_before_assembly(monkeypatch):
    # degrees 0..7 of c2 fit under 256, so only a check of every degree up
    # front keeps their differentials unbuilt
    cat = builtin("c2")
    builds = [count_builds(monkeypatch, fn)
              for fn in (_full_differential, _coboundary)]
    with pytest.raises(DimensionCapExceeded) as refused:
        theorem_a_report(cat, GF2, 10, cap=256)
    assert (refused.value.degree, refused.value.required) == (8, 512)
    assert not any(builds)


def test_theorem_a_caps_the_fad_nerve(monkeypatch):
    # {e, z} with z∘z = z: degree m has 2^(m+1) Hochschild cochains but
    # 2·3^m F^ad chains, so only the nerve count passes 100, in degree 4
    cat, field = z_monoid(), GF2
    builds = [count_builds(monkeypatch, fn) for fn in
              (_full_differential, _coboundary, _layer)]
    with pytest.raises(DimensionCapExceeded) as refused:
        theorem_a_report(cat, field, 4, cap=100)
    assert (refused.value.degree, refused.value.required) == (4, 162)
    assert not any(builds)


def test_prism_identity_caps_the_fad_nerve(monkeypatch):
    # {e, z}: the nerve's dims to degree 3 read the 4-chains of F^ad
    # (2·3^4 = 162 > 100); the cap refuses before the skeleton, its check
    # or any coboundary is built
    builds = [count_builds(monkeypatch, fn) for fn in
              (_coboundary, _layer, _skeleton, nerve._skeleton_category, nerve._classes)]
    checks = []
    monkeypatch.setattr(nerve, "_retraction_is_functor", checks.append)
    with pytest.raises(DimensionCapExceeded) as refused:
        simplicial_cohomology_dims(adjoint_category(z_monoid()), GF2, 3, cap=100)
    assert (refused.value.degree, refused.value.required) == (4, 162)
    assert not any(builds) and not checks


def test_t_map_caps_the_fad_nerve(monkeypatch):
    # {e, z}: 2^8 = 256 Hochschild cochains in degree 7 fit under 1000, but
    # the F^ad chains that index T's rows pass it in degree 6 (2·3^6 = 1458)
    cat = z_monoid()
    builds = count_builds(monkeypatch, _layer)
    with pytest.raises(DimensionCapExceeded) as refused:
        t_map_matrix(cat, 7, cap=1000)
    assert (refused.value.degree, refused.value.required) == (6, 1458)
    assert not builds


def test_relative_maps_cap_the_bases_before_listing(monkeypatch):
    # {e, z}: 2^5 = 32 relative cochains in degree 4 fit under 100, but the
    # F^ad chains pass it there (2·3^4 = 162); c2 passes at 2^7 in degree 6
    builds = [count_builds(monkeypatch, fn) for fn in (_layer, _slice)]
    with pytest.raises(DimensionCapExceeded) as refused:
        _relative_reading(z_monoid(), 4, 100)
    assert (refused.value.degree, refused.value.required) == (4, 162)
    with pytest.raises(HypothesisViolated):   # the hypotheses come first
        verify_two_sided_on_relative(z_monoid(), GF2, 4, cap=100)
    cat = builtin("c2")
    for refuse in (lambda: _relative_reading(cat, 6, 100),
                   lambda: verify_two_sided_on_relative(cat, GF2, 6, cap=100)):
        with pytest.raises(DimensionCapExceeded) as refused:
            refuse()
        assert (refused.value.degree, refused.value.required) == (6, 128)
    assert not any(builds)
    assert verify_two_sided_on_relative(cat, GF2, 5, cap=100).ok


def test_theorem_a_report_holds_the_identity_checks():
    rep = theorem_a_report(EX6, GF3, 2)
    for rec in rep.degrees:
        assert [c.name for c in rec.checks] == \
            ["t_chain", "x_chain", "section", "two_sided_relative"]
        assert all(c.degree == rec.degree and c.ok for c in rec.checks)


def test_theorem_a_downgrades_without_hypotheses(monkeypatch):
    # no induced map in this tier, so no cocycle basis either: dims are ranks
    expected = [(rec.dim_hochschild, rec.dim_relative, rec.dim_simplicial)
                for rec in theorem_a_report(collapse(), GF2, 1).degrees]
    monkeypatch.setattr(Matrix, "kernel_basis", refuse_basis)
    cat = collapse()
    rep = theorem_a_report(cat, GF2, 1)
    assert rep.tier == "unverified" and rep.verdict == "unverified"
    assert all(rec.checks == () and not rec.induced_surjective for rec in rep.degrees)
    assert [(rec.dim_hochschild, rec.dim_relative, rec.dim_simplicial) for rec in rep.degrees] == \
        expected == list(zip(hochschild_cohomology_dims(cat, GF2, 1),
                             relative_cohomology_dims(cat, GF2, 1),
                             simplicial_cohomology_dims(adjoint_category(cat), GF2, 1)))


@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_unverified_one_object_report_is_the_public_ranks(monkeypatch, field):
    # {e, z} is not cancellative: the rank route, with the relative complex
    # the full one, so its dims are the Hochschild ones and the full complex
    # is not ranked a second time
    cat = z_monoid()
    expected = list(zip(hochschild_cohomology_dims(cat, field, 3),
                        relative_cohomology_dims(cat, field, 3),
                        simplicial_cohomology_dims(adjoint_category(cat), field, 3)))
    monkeypatch.setattr(Matrix, "kernel_basis", refuse_basis)
    monkeypatch.setattr(comparison, "hochschild_cohomology_dims",
                        lambda *args: pytest.fail("the full complex was ranked again"))
    rep = theorem_a_report(cat, field, 3)
    assert rep.tier == "unverified" and rep.verdict == "unverified"
    assert [(rec.dim_hochschild, rec.dim_relative, rec.dim_simplicial)
            for rec in rep.degrees] == expected
    assert all(rec.dim_relative == rec.dim_hochschild for rec in rep.degrees)
    assert all(rec.checks == () and not rec.induced_surjective for rec in rep.degrees)


def test_theorem_a_surjection_tier_parallel_arrows():
    # deterministic and cancellative but not rr-transitive: the comparison
    # map surjects in every degree yet fails to be injective in degree 1
    from .test_category import parallel_arrows

    cat = parallel_arrows()
    for field in (QQ, GF2):
        rep = theorem_a_report(cat, field, 2)
        assert rep.tier == "surjection" and rep.verdict == "surjection"
        assert all(rec.induced_surjective for rec in rep.degrees)
        deg1 = rep.degrees[1]
        assert deg1.dim_hochschild == 3 and deg1.dim_simplicial == 1
        assert not deg1.induced_invertible
        assert all([c.name for c in rec.checks] == ["t_chain", "x_chain", "section"]
                   and all(rec.checks) for rec in rep.degrees)
        for m in range(2):
            assert verify_t_chain_identity(cat, field, m).ok
            assert verify_x_chain_identity(cat, field, m).ok
            assert verify_section(cat, field, m).ok


# --- the rank route of a group ------------------------------------------------------

def refuse_basis(*_args, **_kwargs):
    raise AssertionError("a cocycle or coboundary basis was built")


def rows_of(degrees):
    return [((rec.dim_hochschild, rec.dim_relative, rec.dim_simplicial),
             rec.induced_surjective, rec.induced_invertible,
             [(c.name, c.ok) for c in rec.checks]) for rec in degrees]


def basis_route(cat, field, max_m):
    """(dims, surjective, invertible, checks) per degree and the verdict, as the
    reference computes them: flags from the map T induces on Z/B."""
    _tier, degrees, verdict = oracles.basis_route_report(cat, field, max_m)
    return rows_of(degrees), verdict


def summary(rep):
    return rows_of(rep.degrees), rep.verdict


ONE_OBJECT = sorted(name for name, cat in FIXTURES.items() if cat.n_objects == 1)
MULTI_OBJECT = sorted(name for name, cat in FIXTURES.items() if cat.n_objects > 1)


@pytest.mark.parametrize("name", MULTI_OBJECT)
def test_structural_products_over_q_hold_ints(name):
    # X^(m+1) δ^m, the x_chain product of a category with several objects,
    # multiplies integer matrices, so it is taken over Z: no Fraction is
    # made on the way
    cat = FIXTURES[name]
    fad = adjoint_category(cat)
    for m in range(3):
        x_delta = x_map_matrix(cat, m + 1) @ simplicial_coboundary_matrix(fad, m)
        assert all(type(v) is int for _r, _c, v in x_delta.entries()), (name, m)


def degree_bound(cat) -> int:
    # degree 3 reads T^4 on n^5 cochains; keep that under 4000
    return 3 if cat.n_morphisms ** 5 <= 4000 else 2


@pytest.mark.parametrize("name", ONE_OBJECT)
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_group_rank_route_matches_the_basis_route(name, field):
    cat = FIXTURES[name]
    max_m = degree_bound(cat)
    assert relative_is_full(cat)
    rep = theorem_a_report(cat, field, max_m)
    assert rep.tier == "isomorphism"
    assert summary(rep) == basis_route(cat, field, max_m)


def spy_nerve_ranks(monkeypatch) -> list:
    """The F^ad of every nerve ``theorem_a_report`` ranks, in call order."""
    ranked = []
    honest = comparison.simplicial_cohomology_dims

    def spied(fad, field, max_m, cap=None):
        ranked.append(fad)
        return honest(fad, field, max_m, cap)

    monkeypatch.setattr(comparison, "simplicial_cohomology_dims", spied)
    return ranked


def refuse_eliminating(monkeypatch, matrices):
    """``Matrix.rank``, ``rref`` and ``image_basis`` refuse each of
    ``matrices``, told apart by identity; kernels go through ``rref``, and a
    rank may eliminate a transpose, so it is guarded on its own.  The routes
    eliminate the memoized integer matrices in every field, so those (the
    matrices over Q) are the ones to guard."""
    ids = {id(m) for m in matrices}
    for attr in ("rank", "rref", "image_basis"):
        def guarded(self, *args, honest=getattr(Matrix, attr), **kwargs):
            if id(self) in ids:
                raise AssertionError(f"a guarded {self.nrows}x{self.ncols} matrix was eliminated")
            return honest(self, *args, **kwargs)
        monkeypatch.setattr(Matrix, attr, guarded)


@pytest.mark.parametrize("name", MULTI_OBJECT + ["parallel_arrows"])
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_flags_from_the_checks_match_the_induced_map(monkeypatch, name, field):
    # every FIXTURES entry with more than one object (the groups are above),
    # and the surjection tier, where degree 1 is onto but not invertible.
    # Every tier ranks the nerve once; the isomorphism tier reads H(rel) off
    # it (the relative lemma), so it never eliminates a relative differential
    # (memoized: the report reads these very matrices).
    from .test_category import parallel_arrows

    cat = parallel_arrows() if name == "parallel_arrows" else FIXTURES[name]
    max_m = degree_bound(cat)
    tier, _degrees, _verdict = oracles.basis_route_report(cat, field, max_m)
    expected = basis_route(cat, field, max_m)
    fad = adjoint_category(cat)
    ranked = spy_nerve_ranks(monkeypatch)
    if tier == "isomorphism":
        refuse_eliminating(monkeypatch, [relative_differential_matrix(cat, m)
                                         for m in range(max_m + 1)])
    rep = theorem_a_report(cat, field, max_m)
    assert rep.tier == rep.verdict == tier != "unverified"
    assert ranked == [fad]
    assert summary(rep) == expected


def test_group_rank_route_builds_no_basis(monkeypatch):
    monkeypatch.setattr(Matrix, "kernel_basis", refuse_basis)
    monkeypatch.setattr(comparison, "cohomology", refuse_basis)
    for field, max_m, dims in ((GF2, 3, [3, 2, 2, 2]), (QQ, 2, [3, 0, 0])):
        # a fresh S3, so no memo of an earlier test answers for it
        rep = theorem_a_report(group_from_table(symmetric_group_table(3)), field, max_m)
        assert rep.verdict == "isomorphism"
        assert [rec.dim_simplicial for rec in rep.degrees] == dims


def misread(degree, column):
    """A perturbation of ``comparison._read``: row 0 of T^degree reads
    ``column(cat, read, ncols)`` instead.  ``_read`` climbs the degrees
    below on its own, so every other degree's reads stay honest."""
    def perturb(honest):
        def misread(cat, m):
            read = honest(cat, m)
            if m == degree:
                read = array("l", read)
                read[0] = column(cat, read, hochschild_basis_size(cat, m))
            return read
        return misread
    return perturb


misread_t1 = misread(1, lambda cat, read, ncols: (read[0] + 1) % ncols)


def test_group_with_a_misread_chain_ranks_the_nerve(monkeypatch):
    # one chain of T^1 reads the wrong column: the checks fail, the verdict
    # is failed, and the group still takes its dims from ranks, the nerve's
    # included; they and the flags are the reference's
    monkeypatch.setattr(comparison, "_read", misread_t1(comparison._read))
    expected = basis_route(builtin("cn:3"), GF3, 2)
    monkeypatch.setattr(Matrix, "kernel_basis", refuse_basis)
    rep = theorem_a_report(builtin("cn:3"), GF3, 2)
    assert rep.verdict == "failed"
    assert summary(rep) == expected


misread_t1_outside = misread(1, lambda cat, read, ncols: next(
    c for c in range(ncols) if c not in _slice(cat, 1, False)[1]))


@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_t_reading_a_non_relative_column_is_no_relative_map(monkeypatch, field):
    # a fresh ex6, so the perturbed T dies with it: two_sided_relative names
    # the column, the relative reading refuses, and Theorem B finds no
    # bijection and reports a zero T
    monkeypatch.setattr(comparison, "_read", misread_t1_outside(comparison._read))
    cat = builtin("ex6")
    outside = next(c for c in range(hochschild_basis_size(cat, 1))
                   if c not in _slice(cat, 1, False)[1])
    check = verify_two_sided_on_relative(cat, field, 1)
    assert (check.ok, check.first_difference) == (False, (outside, -1, "image not relative", None))
    with pytest.raises(NotChainCompatible):
        _relative_reading(cat, 1, None)
    rep = theorem_b_report(cat, field)
    assert not rep.bijection and rep.restricted_matrix.is_zero()


def toggled_t0(cell):
    """Row 0 of T^0 reads column ``cell`` (-1 for the last), or the one after
    it when it reads that column already: either way cell (0, cell) flips."""
    def column(cat, read, ncols):
        c = cell % ncols
        return c if read[0] != c else (c + 1) % ncols
    return misread(0, column)


PERTURBATIONS = {
    "t0_cell_0_0": toggled_t0(0),
    "t0_cell_0_last": toggled_t0(-1),
    "t1_misread": misread_t1,
}


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("name", ("c2", "cn:3", "ex6", "diamond"))
@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_flags_match_the_induced_map_under_a_perturbed_t(monkeypatch, perturbation, name, field):
    # a perturbed T breaks the checks of its degree (and of the one below),
    # never the flags of a degree whose checks hold; fresh categories, so
    # no perturbed T outlives the test in a memo; a failed check sends the
    # report to the nerve's own ranks
    monkeypatch.setattr(comparison, "_read", PERTURBATIONS[perturbation](comparison._read))
    ranked = spy_nerve_ranks(monkeypatch)
    cat = builtin(name)
    rep = theorem_a_report(cat, field, 2)
    assert rep.verdict == "failed"
    assert ranked == [adjoint_category(cat)]
    assert summary(rep) == basis_route(builtin(name), field, 2)


# --- a group's H(F^ad) from the skeleton ---------------------------------------------

SKELETON_CASES = {**FIXTURES, "d4": D4, "s3+c2": S3_PLUS_C2, "c4+v4+c4": sum_of_groups(C4, V4, C4)}


def test_d4_has_five_classes_with_the_centralizers_of_d4():
    fad = adjoint_category(D4)
    reps = sorted(set(_skeleton(fad)[0]))
    assert sorted(len(fad.hom(x, x)) for x in reps) == [4, 4, 4, 8, 8]


@pytest.mark.parametrize("name", sorted(SKELETON_CASES))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_prism_and_skeleton_match_the_tuple_oracles(name, field):
    # the oracles list chains as tuples (nerve_chain_list) and find inverses
    # by trying every pair, never reading the engine's index tables.  On
    # the category and its F^ad the skeleton passes the functor check, and
    # the prism identity, the skeleton lemma's conclusion, holds chain by
    # chain; the skeleton's dims are F^ad's and HH's
    cat = SKELETON_CASES[name]
    fad = adjoint_category(cat)
    max_m = 3 if name == "s3" else 2
    for target in (cat, fad):
        found = oracles.skeleton_by_search(target)
        assert found == _skeleton(target)
        assert nerve._retraction_is_functor(target)
        for m in range(max_m + 1):
            assert oracles.prism_identity_defect(target, found, field.p, m) == {}, m
    dims = oracles.skeleton_dims(fad, _skeleton(fad), field.p, max_m)
    assert dims == simplicial_cohomology_dims(fad, field, max_m) == \
        hochschild_cohomology_dims(cat, field, max_m)


S3_PLUS_C2_DIMS = {GF2: [5, 4, 4], GF3: [5, 1, 1], QQ: [5, 0, 0]}


@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_two_objects_with_a_skeleton_rank_only_the_skeleton(monkeypatch, field):
    # S3 ⊔ C2: F^ad has classes of more than one object, so its skeleton is
    # not F^ad; a certified report ranks the skeleton, and neither F^ad's own
    # coboundaries nor a relative differential
    cat = S3_PLUS_C2
    expected = basis_route(cat, field, 2)
    fad = adjoint_category(cat)
    assert (fad.n_objects, fad.n_morphisms) == (8, 40)
    assert len(set(_skeleton(fad)[0])) < fad.n_objects
    refuse_eliminating(monkeypatch, own_coboundaries(cat, field, 2)
                       + [relative_differential_matrix(cat, m) for m in range(3)])
    rep = theorem_a_report(cat, field, 2)
    assert rep.tier == rep.verdict == "isomorphism"
    assert summary(rep) == expected
    assert [rec.dim_simplicial for rec in rep.degrees] == S3_PLUS_C2_DIMS[field]


FRESH_TABLES = {"s3": lambda: symmetric_group_table(3), "d4": lambda: dihedral_group_table(4)}


def fresh(name):
    """A group equal to a catalog one but built anew, so no memo answers for
    it; ``KeyError`` for a name with no table here."""
    return group_from_table(FRESH_TABLES[name]())


def test_fresh_builds_the_group_it_names():
    assert (fresh("s3").n_morphisms, fresh("d4").n_morphisms) == (6, 8)
    assert fresh("s3") is not fresh("s3")
    with pytest.raises(KeyError):
        fresh("cn:3")


@pytest.mark.parametrize("name", ("s3", "d4", "cn:3"))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_certified_group_ranks_no_hochschild_differential(monkeypatch, name, field):
    cat = builtin(name) if name.startswith("cn:") else fresh(name)
    max_m = 3 if name == "s3" else 2
    expected = hochschild_cohomology_dims(cat, field, max_m)
    monkeypatch.setattr(comparison, "hochschild_cohomology_dims",
                        lambda *args: pytest.fail("the Hochschild complex was ranked"))
    refuse_eliminating(monkeypatch, [hochschild_differential_matrix(cat, m)
                                     for m in range(max_m + 1)])
    rep = theorem_a_report(cat, field, max_m)
    assert rep.verdict == "isomorphism"
    assert all(rec.dim_hochschild == rec.dim_relative == rec.dim_simplicial == dim
               for rec, dim in zip(rep.degrees, expected))


def other_arrow(fad, g):
    """An arrow with the source and target of g other than g."""
    return next(h for h in fad.hom(fad.source[g], fad.target[g]) if h != g)


def c_is_an_identity(fad, skeleton):
    # the first object that is not its class's representative keeps its
    # identity for c_a, which is no isomorphism a -> rep(a)
    rep, c, r = skeleton
    a = next(a for a, x in enumerate(rep) if a != x)
    return rep, c[:a] + (fad.identity[a],) + c[a + 1:], r


def c_is_another_iso(fad, skeleton):
    rep, c, r = skeleton
    a = next(a for a, x in enumerate(rep) if a != x)
    return rep, c[:a] + (other_arrow(fad, c[a]),) + c[a + 1:], r


def r_misreads_an_arrow(fad, skeleton):
    rep, c, r = skeleton
    g = next(g for g in range(fad.n_morphisms) if len(fad.hom(fad.source[g], fad.target[g])) > 1)
    return rep, c, r[:g] + (other_arrow(fad, r[g]),) + r[g + 1:]


def recomputed(fad, rep, c) -> tuple:
    """``(rep, c, r)`` with ``r[g] = c_b∘g∘c_a⁻¹`` recomputed from c by the
    skeleton's own formula, whatever its composites give."""
    source, target = fad.source, fad.target
    inverse = [next(h for h in fad.hom(target[f], source[f])
                    if fad.compose(h, f) == fad.identity[source[f]]) for f in c]
    return rep, c, tuple(fad.compose(c[target[g]], fad.compose(g, inverse[source[g]]))
                         for g in range(fad.n_morphisms))


def c_has_another_source(fad, skeleton):
    # c_a is c_b for another object b of a's class, a non-representative
    # when there is one (s3) and the representative otherwise (d4): it has
    # the right target rep(a) but runs from b, so every g∘c_a⁻¹ with g out
    # of a is UNDEFINED, and r is recomputed from those composites
    rep, c, _r = skeleton
    a = next(a for a, x in enumerate(rep) if a != x)
    b = max(b for b, x in enumerate(rep) if x == rep[a] and b != a)
    return recomputed(fad, rep, c[:a] + (c[b],) + c[a + 1:])


def c_rep_is_an_automorphism(fad, skeleton):
    # c_rep is an automorphism of rep other than its identity, and r is
    # recomputed: c is still a natural isomorphism, but r∘i is no longer
    # the identity of the skeleton
    rep, c, _r = skeleton
    x = next(x for x, y in enumerate(rep) if x == y and len(fad.hom(x, x)) > 1)
    return recomputed(fad, rep, c[:x] + (other_arrow(fad, c[x]),) + c[x + 1:])


BREAKAGES = {"c_identity": c_is_an_identity, "c_other_iso": c_is_another_iso,
             "r_misread": r_misreads_an_arrow, "c_wrong_source": c_has_another_source,
             "c_rep_automorphism": c_rep_is_an_automorphism}


def spy_nerve_eliminations(monkeypatch) -> list:
    """The coboundaries of every complex the nerve ranks, a list per complex."""
    calls = []
    honest = nerve.cohomology_dims

    def spied(deltas, field):
        deltas = list(deltas)
        calls.append(deltas)
        return honest(deltas, field)

    monkeypatch.setattr(nerve, "cohomology_dims", spied)
    return calls


def own_coboundaries(cat, field, max_m) -> list:
    """The integer coboundaries of F^ad itself, not of its skeleton, in
    degrees 0..max_m, which the nerve ranks in any field."""
    fad = adjoint_category(cat)
    return [_coboundary(fad, m) for m in range(max_m + 1)]


def component_block(cat, delta, m, objects) -> Matrix:
    """``delta``, a degree-m coboundary of ``cat`` on all its chains, on the
    chains whose objects all lie in ``objects``, renumbered in order."""
    rows, cols = (oracles.chains_within(cat, objects, k) for k in (m + 1, m))
    col_of = {c: j for j, c in enumerate(cols)}
    entries = {(i, col_of[c]): v for i, r in enumerate(rows) for c, v in delta.rows.get(r, {}).items()}
    return Matrix.from_entries(QQ, len(rows), len(cols), entries)


def class_slices(cat, deltas, keep=None) -> list:
    """Per class of equal components of the full subcategory on ``keep``
    (``oracles.component_classes``), ``deltas`` restricted to the chains of
    the class's first component: the complexes the nerve ranks, one list
    per class."""
    return [[component_block(cat, delta, m, set(objects)) for m, delta in enumerate(deltas)]
            for objects, _size in oracles.component_classes(cat, keep)]


@pytest.mark.parametrize("breakage", sorted(BREAKAGES))
@pytest.mark.parametrize("name", ("s3", "d4"))
@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_a_broken_skeleton_fails_the_prism_and_falls_back(monkeypatch, breakage, name, field):
    # fresh groups, so no broken skeleton outlives the test in a memo; the
    # functor check refuses it, and the report is the reference's, through
    # the ranks of F^ad's own nerve: its coboundaries on one component per
    # class of equal components
    expected = basis_route(fresh(name), field, 2)
    honest = nerve._skeleton
    monkeypatch.setattr(nerve, "_skeleton", lambda fad: BREAKAGES[breakage](fad, honest(fad)))
    cat = fresh(name)
    assert not nerve._retraction_is_functor(adjoint_category(cat))
    ranked = spy_nerve_eliminations(monkeypatch)
    rep = theorem_a_report(cat, field, 2)
    assert ranked == class_slices(adjoint_category(cat), own_coboundaries(cat, field, 2))
    assert summary(rep) == expected


@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_a_perturbed_t_still_fails_a_group_with_a_skeleton(monkeypatch, field):
    monkeypatch.setattr(comparison, "_read", misread_t1(comparison._read))
    expected = basis_route(fresh("d4"), field, 2)
    rep = theorem_a_report(fresh("d4"), field, 2)
    assert rep.verdict == "failed"
    assert summary(rep) == expected


# --- T as an index array: the set facts and the x_chain lemma -------------------------

GROUPS = {**{name: cat for name, cat in FIXTURES.items() if cat.n_objects == 1}, "d4": D4}


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_reads_match_the_tuple_oracle(name, field):
    # T's column per F^ad chain, climbed by prefix, against the column read
    # off the chain's triples as tuples; degrees 0..3 while T's rows number
    # at most 5000
    cat = FIXTURES[name]
    counts = list(itertools.islice(nerve_sizes(adjoint_category(cat)), 4))
    for m, count in enumerate(counts):
        if count > 5000:
            break
        want = oracles.read_columns(cat, m)
        assert list(comparison._read(cat, m)) == want, (name, m)
        entries = {(i, c): 1 for i, c in enumerate(want)}
        assert oracles.reduced(t_map_matrix(cat, m), field) == Matrix.from_entries(
            field, count, hochschild_basis_size(cat, m), entries)
        assert x_map_matrix(cat, m) == t_map_matrix(cat, m).transpose()


def product_section(cat, field, m):
    """``section`` as the product T X against the identity, on the matrices."""
    prod = oracles.reduced(t_map_matrix(cat, m), field) @ oracles.reduced(x_map_matrix(cat, m), field)
    return VerificationResult.of("section", m, prod, Matrix.identity(field, prod.nrows))


def product_two_sided(cat, field, m):
    """``two_sided_relative`` by products: T renumbered in the relative basis
    (listed as tuples), the first column read outside it, then both
    composites with the transpose."""
    name = "two_sided_relative"
    rel = {basis_index(cat, *pair): i for i, pair in enumerate(relative_basis(cat, m))}
    t = oracles.reduced(t_map_matrix(cat, m), field)
    rows = {}
    for r, row in sorted(t.rows.items()):
        for c, v in row.items():
            if c not in rel:
                return VerificationResult(name, m, False, (c, -1, "image not relative", None))
            rows.setdefault(r, {})[rel[c]] = v
    t_rel = Matrix(field, t.nrows, len(rel), rows)
    x_rel = t_rel.transpose()
    left = VerificationResult.of(name, m, x_rel @ t_rel, Matrix.identity(field, x_rel.nrows))
    if not left:
        return left
    return VerificationResult.of(name, m, t_rel @ x_rel, Matrix.identity(field, t_rel.nrows))


def product_x_chain(cat, field, m):
    """``x_chain`` as the two products on the X matrices, reduced into ``field``."""
    def over(matrix):
        return oracles.reduced(matrix, field)

    delta = over(simplicial_coboundary_matrix(adjoint_category(cat), m))
    lhs = over(x_map_matrix(cat, m + 1)) @ delta
    rhs = over(hochschild_differential_matrix(cat, m)) @ over(x_map_matrix(cat, m))
    return VerificationResult.of("x_chain", m, lhs, oracles.times((-1) ** (m + 1), rhs))


def assert_checks_are_the_products(cat, field, rep):
    for rec in rep.degrees:
        m = rec.degree
        t_chain, x_chain, section, two_sided = rec.checks
        assert x_chain == product_x_chain(cat, field, m), m
        assert section == product_section(cat, field, m), m
        assert two_sided == product_two_sided(cat, field, m), m


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_lemma_and_set_facts_give_the_products(monkeypatch, name, field):
    # on one object the x_chain lemma stands in for the product and the set
    # facts for T X = I and the relative composites; each gives the result,
    # witness included, that the products give.  No X is built for it.
    cat = fresh(name) if name in ("s3", "d4") else builtin(name)
    max_m = degree_bound(cat)
    xs = count_map_builds(monkeypatch, "x_map_matrix")
    monkeypatch.setattr(comparison, "verify_x_chain_identity",
                        lambda *args: pytest.fail("x_chain took the product route"))
    rep = theorem_a_report(cat, field, max_m)
    assert rep.verdict == "isomorphism"
    assert not xs
    assert_checks_are_the_products(cat, field, rep)


def shared(cat, read, ncols):
    """Row 0 reads the column of row 1, so that column is read twice and
    row 0's own column by no row."""
    return read[1]


def moved(cat, read, ncols):
    """Row 0 reads the next column."""
    return (read[0] + 1) % ncols


def outside(cat, read, ncols):
    """Row 0 reads the first column that is not relative (no row reads it)."""
    return next(c for c in range(ncols) if c not in _slice(cat, 1, False)[1])


MISREADS = {"shared": shared, "moved": moved, "outside": outside}


# on one object every column is relative, so no read can leave them
MISREAD_CASES = [(misread_name, name) for misread_name in sorted(MISREADS)
                 for name in ("c2", "cn:3", "s3", "ex6", "diamond")
                 if misread_name != "outside" or FIXTURES[name].n_objects > 1]


@pytest.mark.parametrize(("misread_name", "name"), MISREAD_CASES)
@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_perturbed_reads_flip_the_set_facts_as_the_products_do(monkeypatch, misread_name,
                                                               name, field):
    # two rows on one column, a column no row reads, a read outside the
    # relative columns: section, two_sided_relative and x_chain are the
    # products' results, witnesses included, and so is the report
    cat = fresh(name) if name == "s3" else builtin(name)
    monkeypatch.setattr(comparison, "_read", misread(1, MISREADS[misread_name])(comparison._read))
    rep = theorem_a_report(cat, field, 2)
    assert rep.verdict == "failed"
    assert_checks_are_the_products(cat, field, rep)
    section, two_sided = rep.degrees[1].checks[2:]
    assert not two_sided.ok
    if misread_name == "shared":
        assert not section.ok
    if misread_name == "outside":   # the reads stay distinct
        assert section.ok and two_sided.first_difference[2] == "image not relative"
    fresh_cat = fresh(name) if name == "s3" else builtin(name)
    assert summary(rep) == basis_route(fresh_cat, field, 2)


RESHAPES = {
    # row 0 reads row 1's column: two chains on one column, row 0's unread
    "two_on_one": lambda read: array("l", [read[1], *read[1:]]),
    # the last chain dropped: a relative column no chain reads, reads distinct
    "unread": lambda read: read[:-1],
    # two more chains read row 0's column: three chains on it, none unread
    "thrice": lambda read: read + array("l", (read[0], read[0])),
}


@pytest.mark.parametrize("reshape", sorted(RESHAPES))
@pytest.mark.parametrize("name", ("c2", "cn:3", "ex6", "diamond"))
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_set_fact_witnesses_are_the_products_of_the_reads(monkeypatch, reshape, name, field):
    # section and two_sided_relative read their verdict and first difference
    # off T's reads; the products T Tᵀ and Tᵀ T of the matrices built from
    # the same reads give both.  Over GF(2) three chains on one column pass
    # Tᵀ T = I and fail T Tᵀ = I; over GF(3) the count 3 is absent, so zero
    # T^1's reads become RESHAPES[reshape](read), which may add or drop
    # chains; the set facts read nothing else, so they are called alone
    honest = comparison._read
    monkeypatch.setattr(comparison, "_read", lambda cat, m: (
        RESHAPES[reshape](array("l", honest(cat, m))) if m == 1 else honest(cat, m)))
    cat = builtin(name)
    section = verify_section(cat, field, 1)
    two_sided = verify_two_sided_on_relative(cat, field, 1)
    assert section == product_section(cat, field, 1)
    assert two_sided == product_two_sided(cat, field, 1)
    assert not two_sided.ok
    n = len(honest(cat, 1))
    if reshape == "two_on_one":
        assert section.first_difference == (0, 1, field.one, field.zero)
    elif reshape == "unread":
        assert section.ok
        assert two_sided.first_difference[2:] == (field.zero, field.one)
    elif field == GF2:
        assert section.first_difference == (0, n, field.one, field.zero)
        assert two_sided.first_difference == section.first_difference
    else:
        assert two_sided.first_difference[2:] == (field.scalar(3), field.one)


# --- integer matrices: built once for every field, verdicts in the field --------

def test_the_memos_serve_every_field_from_one_build(monkeypatch):
    # one s3 object certified over GF(2), GF(3) and Q: ∂ and δ are integer
    # matrices, each built once per degree, F^ad's skeleton is found and
    # built as a category once, and F^ad's δ (in the chain identities) and
    # those of the first subcategories of the skeleton's classes (ranked)
    # are each built once per degree; the whole skeleton's δ is not built
    cat = fresh("s3")
    fad = adjoint_category(cat)
    builds = {fn: count_builds(monkeypatch, fn) for fn in (_full_differential, _coboundary)}
    skeletons = [count_builds(monkeypatch, fn) for fn in (_skeleton, nerve._skeleton_category)]
    for field in (GF2, GF3, QQ):
        assert theorem_a_report(cat, field, 2).verdict == "isomorphism", field
    firsts = [sub for sub, _size in nerve._classes(nerve._skeleton_category(fad))]
    assert len(firsts) == 3
    memos = {_full_differential: (cat,), _coboundary: (fad, *firsts)}
    for fn, on in memos.items():
        assert builds[fn] == {(id(c), (m,)): 1 for c in on for m in range(3)}, fn.__name__
    assert skeletons == [{(id(fad), ()): 1}] * 2


def flip_one_entry(monkeypatch, degree):
    """δ^degree of every category built from now on has the sign of its
    first entry (least row, least column) flipped; returns that cell."""
    honest, cells = nerve._coboundary.__wrapped__, []

    def flipped(cat, m):
        delta = honest(cat, m)
        if m != degree:
            return delta
        r = min(delta.rows)
        c = min(delta.rows[r])
        cells.append((r, c))
        rows = {**delta.rows, r: {**delta.rows[r], c: -delta.rows[r][c]}}
        return Matrix(delta.field, delta.nrows, delta.ncols, rows)

    monkeypatch.setattr(nerve._coboundary, "__wrapped__", flipped)
    return cells


def test_a_sign_flip_is_a_verdict_of_the_field(monkeypatch, tmp_path, capsys):
    # GF(2) cannot see a sign: t_chain holds there and compare's JSON is
    # unchanged; GF(3) and Q see it, and the witness is that of the
    # product on the matrices reduced into the field, in the field's scalars
    from hochcat.catformat import category_to_text
    from hochcat.cli import main

    path = tmp_path / "s3.cat"
    path.write_text(category_to_text(FIXTURES["s3"]), encoding="utf-8")
    argv = ["compare", str(path), "--field", "gf:2", "--max-degree", "2", "--output", "json"]
    assert main(argv) == 0
    honest = capsys.readouterr().out
    cells = flip_one_entry(monkeypatch, 1)
    assert main(argv) == 0 and capsys.readouterr().out == honest
    assert cells   # the CLI's own category read the flipped δ^1
    cat = fresh("s3")
    assert verify_t_chain_identity(cat, GF2, 1).ok
    delta = simplicial_coboundary_matrix(adjoint_category(cat), 1)
    for field, kind in ((GF3, int), (QQ, Fraction)):
        def over(matrix):
            return oracles.reduced(matrix, field)

        result = verify_t_chain_identity(cat, field, 1)
        lhs = over(t_map_matrix(cat, 2)) @ over(hochschild_differential_matrix(cat, 1))
        rhs = over(delta) @ over(t_map_matrix(cat, 1))   # the sign (−1)^2 is 1
        assert not result.ok and result.first_difference == lhs.first_difference(rhs)
        assert all(type(v) is kind for v in result.first_difference[2:])
        if field == GF3:
            assert all(0 <= v < 3 for v in result.first_difference[2:])
