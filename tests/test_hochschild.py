import dataclasses
import itertools
import sys
from collections import Counter

import pytest

from hochcat import (
    adjoint_category,
    builtin,
    group_from_table,
    parse_category,
    hochschild_cohomology_dims,
    hochschild_differential_matrix,
    relative_basis,
    relative_cohomology_dims,
    verify_two_sided_on_relative,
)
from hochcat import hochschild
from hochcat.errors import DimensionCapExceeded, NotASubcomplex, NotASubspace
from hochcat.hochschild import (
    _full_differential,
    _homotopy,
    _homotopy_holds,
    _slice,
    _sliced_differential,
    basis_index,
    check_sizes,
    hochschild_basis,
    hochschild_sizes,
    relative_differential_matrix,
    relative_is_full,
    relative_sizes,
)
from hochcat.matrix import Matrix, cohomology_dims
from hochcat.nerve import _coboundary, simplicial_coboundary_matrix

from . import oracles
from .catalog import (
    A2, C2, EX6, FIELDS, FIXTURES, GF2, GF3, GF5, QQ, S3, S3_PLUS_C2, TRIV, symmetric_group_table,
)


def count_builds(monkeypatch, memoized) -> Counter:
    """Count the misses of a per-category memo, keyed by (id(cat), args)."""
    calls: Counter = Counter()
    build = memoized.__wrapped__

    def counting(cat, *args):
        calls[id(cat), args] += 1
        return build(cat, *args)

    monkeypatch.setattr(memoized, "__wrapped__", counting)
    return calls


# --- the algebra, through the degree-0 differential -----------------------------------
#
# kC is never built by the package: its product enters only through the
# differential, (d f)(u) = u·f - f·u for a degree-0 cochain f.  These tests
# pin the oracle product used below, then read the package's product back
# out of d_0.

def test_multiply_group_law():
    assert oracles.alg_mul(C2, {1: 1}, {1: 1}, 2) == {0: 1}  # t·t = e


def test_multiply_non_composable_is_zero():
    assert oracles.alg_mul(A2, {2: 1}, {2: 1}, None) == {}  # target(g) != source(g)


def test_multiply_ex6():
    idx = {n: i for i, n in enumerate(EX6.morphism_names)}
    assert oracles.alg_mul(EX6, {idx["b"]: 1}, {idx["phi"]: 1}, 3) == {idx["psi"]: 1}


def test_multiply_bilinear_and_unital():
    u = {0: QQ.scalar(2), 2: QQ.scalar(-1)}
    one = {i: QQ.one for i in A2.identity}
    assert oracles.alg_mul(A2, one, u, None) == u
    assert oracles.alg_mul(A2, u, one, None) == u


def _commutator_of_d0(cat, field, p, g: int, u: int) -> tuple:
    """(d_0 e_g)(u) from the package, and u·g - g·u from the oracle product."""
    d0 = oracles.reduced(hochschild_differential_matrix(cat, 0), field)
    f = Matrix.from_entries(field, cat.n_morphisms, 1, {(g, 0): field.one})
    output_of_row = {basis_index(cat, (u,), h): h for h in range(cat.n_morphisms)}
    got = {output_of_row[r]: v for r, _c, v in (d0 @ f).entries() if r in output_of_row}
    left = oracles.alg_mul(cat, {u: 1}, {g: 1}, p)
    right = oracles.alg_mul(cat, {g: 1}, {u: 1}, p)
    diff = {h: oracles._scal(p, left.get(h, 0) - right.get(h, 0)) for h in {**left, **right}}
    return got, {h: v for h, v in diff.items() if v != 0}


def test_multiply_matches_oracle():
    for cat in (C2, A2, EX6):
        for p, field in ((None, QQ), (3, GF3)):
            for g in range(cat.n_morphisms):
                for u in range(cat.n_morphisms):
                    got, expected = _commutator_of_d0(cat, field, p, g, u)
                    assert got == expected, (g, u)


# --- differentials -------------------------------------------------------------

def test_differential_triv_degree_zero():
    d0 = hochschild_differential_matrix(TRIV, 0)
    assert (d0.nrows, d0.ncols) == (1, 1) and d0.is_zero()


def test_differential_c2_degree_zero_is_zero():
    d0 = hochschild_differential_matrix(C2, 0)
    assert (d0.nrows, d0.ncols) == (4, 2)
    assert d0.rank(GF2) == 0  # the group algebra of an abelian group is commutative


def test_differential_a2_degree_zero_rank_two():
    d0 = hochschild_differential_matrix(A2, 0)
    assert (d0.nrows, d0.ncols) == (9, 3)
    assert d0.rank() == 2
    assert d0.kernel_basis().dim == 1  # the center is one dimensional


def test_differential_squares_to_zero():
    # over Z, so in every field
    for name in ("a2", "c2", "ex6"):
        cat = FIXTURES[name]
        d0, d1, d2 = (hochschild_differential_matrix(cat, m) for m in range(3))
        assert (d1 @ d0).is_zero() and (d2 @ d1).is_zero()


def test_differential_matches_functional_oracle():
    for cat in (A2, C2):
        for p, field in ((None, QQ), (2, GF2), (3, GF3)):
            for m in range(3):
                pkg = oracles.reduced(hochschild_differential_matrix(cat, m), field)
                cells = {(r, c): v for r, c, v in pkg.entries()}
                naive = oracles.hochschild_differential_rows(cat, p, m)
                nnz = 0
                for i, row in enumerate(naive):
                    for j, v in enumerate(row):
                        if v != 0:
                            nnz += 1
                            assert cells.get((i, j)) == v
                assert nnz == pkg.nnz


# The assembly computes each term's row by base-n index arithmetic; the oracle
# builds the same terms as tuples, column by column, and looks them up.
ASSEMBLY_FIELDS = (GF2, GF3, QQ)
ASSEMBLY_ROWS = 10_000   # largest full differential checked, in rows


def assembly_degrees(cat):
    """Degrees 0..3 whose full differential has at most ``ASSEMBLY_ROWS`` rows."""
    return [m for m in range(4) if cat.n_morphisms ** (m + 2) <= ASSEMBLY_ROWS]


def test_differential_matches_column_wise_assembly():
    for name, cat in FIXTURES.items():
        for m in assembly_degrees(cat):
            cols, rows = hochschild_basis(cat, m), hochschild_basis(cat, m + 1)
            for field in ASSEMBLY_FIELDS:
                want = oracles.column_wise_differential(cat, field, cols, rows)
                got = oracles.reduced(hochschild_differential_matrix(cat, m), field)
                assert got == want, (name, field, m)


def restricted(full: Matrix, rows: list, cols: list) -> Matrix:
    """``full`` on the given row and column indices, renumbered in that order.

    Asserts that the kept columns have no entry outside the kept rows.
    """
    row_of = {r: i for i, r in enumerate(rows)}
    col_of = {c: j for j, c in enumerate(cols)}
    out: dict = {}
    for r, row in full.rows.items():
        for c, v in row.items():
            j = col_of.get(c)
            if j is not None:
                assert r in row_of, (r, c)
                out.setdefault(row_of[r], {})[j] = v
    return Matrix(full.field, len(rows), len(cols), out)


def test_relative_differential_is_the_restricted_full_one():
    for name, cat in FIXTURES.items():
        for m in assembly_degrees(cat):
            cols, rows = relative_basis(cat, m), relative_basis(cat, m + 1)
            for field in ASSEMBLY_FIELDS:
                rel = oracles.reduced(relative_differential_matrix(cat, m), field)
                full = oracles.reduced(hochschild_differential_matrix(cat, m), field)
                assert rel == restricted(full, [basis_index(cat, *pair) for pair in rows],
                                         [basis_index(cat, *pair) for pair in cols]), (name, field, m)
                assert rel == oracles.column_wise_differential(cat, field, cols, rows), (name, field, m)


def test_relative_differential_refuses_a_term_outside_the_subcomplex(monkeypatch):
    # drop one row from the degree-2 relative basis map: the first column
    # with a term there must name itself and the dropped pair
    cat = dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))
    col = relative_basis(cat, 1)[0]
    hit = next(iter(oracles.column_contributions(cat, *col)))
    honest = hochschild._slice

    def dropping(cat, m, normalized):
        basis, rows = honest(cat, m, normalized)
        rows = dict(rows)   # a copy: the memoized index stays whole
        if m == 2:
            del rows[basis_index(cat, *hit)]
        return basis, rows

    monkeypatch.setattr(hochschild, "_slice", dropping)
    with pytest.raises(NotASubcomplex) as refused:
        relative_differential_matrix(cat, 1)
    assert str(refused.value) == \
        f"differential leaves the relative subcomplex at degree 1: column {col} hits {hit}"


def test_each_differential_is_built_once_for_every_field(monkeypatch):
    # a fresh copy of ex6, so that no other test has filled its memos; the
    # memo is the integer matrix, handed out as it is and reduced into
    # GF(p) only inside an elimination
    cat = dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))
    fad = adjoint_category(cat)
    builders = (
        (_full_differential, cat, hochschild_differential_matrix, (1,)),
        (_sliced_differential, cat, relative_differential_matrix, (1, False)),
        (_sliced_differential, cat, lambda cat, m: _sliced_differential(cat, m, True), (1, True)),
        (_coboundary, fad, simplicial_coboundary_matrix, (1,)),
    )
    for memoized, on, matrix, key in builders:
        builds = count_builds(monkeypatch, memoized)
        integer = matrix(on, 1)
        assert matrix(on, 1) is integer
        assert integer.field == QQ and all(type(v) is int for _r, _c, v in integer.entries())
        for field in (GF2, GF3):
            assert integer.rank(field) == oracles.reduced(integer, field).rank()
        assert builds == {(id(on), key): 1}, memoized


# --- cohomology dimensions ----------------------------------------------------

def test_hochschild_dims_a2_rationals():
    assert hochschild_cohomology_dims(A2, QQ, 3) == [1, 0, 0, 0]


def test_hochschild_dims_c2():
    assert hochschild_cohomology_dims(C2, GF2, 3) == [2, 2, 2, 2]
    assert hochschild_cohomology_dims(C2, GF3, 3) == [2, 0, 0, 0]
    assert hochschild_cohomology_dims(C2, QQ, 3) == [2, 0, 0, 0]


def test_hochschild_dims_match_rank_oracle():
    for name, cat in FIXTURES.items():
        max_m = 2 if cat.n_morphisms <= 4 else 1
        for p, field in ((2, GF2), (3, GF3), (None, QQ)):
            assert hochschild_cohomology_dims(cat, field, max_m) == \
                oracles.naive_hochschild_dims(cat, p, max_m), (name, p)


def test_degree_zero_is_the_center():
    for name in ("a2", "c2", "ex6", "diamond"):
        cat = FIXTURES[name]
        for p, field in ((None, QQ), (2, GF2)):
            dims = hochschild_cohomology_dims(cat, field, 0)
            assert dims[0] == oracles.naive_center_dim(cat, p), name


def test_degree_one_basis_and_differential_shape():
    basis = hochschild_basis(C2, 1)
    assert basis == [((g,), h) for g in range(2) for h in range(2)]
    d = hochschild_differential_matrix(C2, 1)
    assert d.ncols == 4 and d.nrows == 8


def test_cap_refuses_large_degrees():
    with pytest.raises(DimensionCapExceeded) as refused:
        hochschild_differential_matrix(EX6, 3, cap=1000)
    assert (refused.value.degree, refused.value.required) == (3, 1296)
    with pytest.raises(DimensionCapExceeded) as refused:
        hochschild_cohomology_dims(EX6, GF2, 3, cap=1000)
    assert (refused.value.degree, refused.value.required) == (3, 1296)


def test_caps_read_the_unnormalized_sizes():
    # s3 has one object: the dims rank the normalized complex, whose degree 3
    # has 750 elements, but both tables refuse on the 1296 of today's degree 3
    for dims in (hochschild_cohomology_dims, relative_cohomology_dims):
        with pytest.raises(DimensionCapExceeded) as refused:
            dims(S3, GF2, 2, cap=1000)
        assert (refused.value.degree, refused.value.required) == (3, 1296), dims


def test_check_cap_reads_running_products():
    # 6^100001 is never formed: the first degree over the cap is refused
    with pytest.raises(DimensionCapExceeded) as refused:
        check_sizes(hochschild_sizes(EX6), 10**5, 1000)
    assert (refused.value.degree, refused.value.required) == (3, 1296)
    check_sizes(hochschild_sizes(EX6), 2, 216)
    with pytest.raises(DimensionCapExceeded):
        check_sizes(hochschild_sizes(EX6), 0, 5)


def test_every_route_builds_each_slice_once_per_degree_and_flag(monkeypatch):
    # a fresh copy of ex6 (two objects, so the relative complex is not the
    # full one) through every public reader of the slices: each basis and
    # each sliced differential is built once per (m, normalized), and every
    # memo key carries the flag, so no slice is built twice under two keys
    cat = dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))
    slices = count_builds(monkeypatch, _slice)
    sliced = count_builds(monkeypatch, _sliced_differential)
    for _ in range(2):
        assert len(relative_basis(cat, 1)) == len(_slice(cat, 1, False)[1])
        relative_differential_matrix(cat, 1)
        assert relative_cohomology_dims(cat, GF2, 2) == hochschild_cohomology_dims(cat, GF2, 2)
        assert verify_two_sided_on_relative(cat, GF2, 1).ok
    assert slices == {(id(cat), (m, normalized)): 1
                      for m, normalized in [(0, False), (1, False), (2, False),
                                            (0, True), (1, True), (2, True), (3, True)]}
    assert sliced == {(id(cat), (1, False)): 1,
                      (id(cat), (0, True)): 1, (id(cat), (1, True)): 1, (id(cat), (2, True)): 1}


def test_relative_basis_at_a_degree_deeper_than_the_recursion_limit():
    # triv has one composable chain per degree; enumerating it must not recurse
    deep = sys.getrecursionlimit() + 50
    assert relative_basis(TRIV, deep) == [((0,) * deep, 0)]


def test_relative_cap_is_checked_before_assembly(monkeypatch):
    cat = builtin("chain:4")
    builds = count_builds(monkeypatch, _slice)
    with pytest.raises(DimensionCapExceeded) as refused:
        relative_differential_matrix(cat, 7, cap=5)
    # the first relative basis over the cap is degree 1's, as for the full
    # and nerve differentials; no basis is enumerated
    assert (refused.value.degree, refused.value.required) == (1, 10)
    assert not builds
    # the dimension tables check every degree before assembling the first:
    # degrees 0..7 fit under 200, so only that up-front check keeps them unbuilt
    with pytest.raises(DimensionCapExceeded) as refused:
        relative_cohomology_dims(cat, GF2, 7, cap=200)
    assert (refused.value.degree, refused.value.required) == (8, 220)
    assert not builds
    c2 = builtin("c2")
    full = count_builds(monkeypatch, _full_differential)
    with pytest.raises(DimensionCapExceeded) as refused:
        hochschild_cohomology_dims(c2, GF2, 10, cap=256)
    assert (refused.value.degree, refused.value.required) == (8, 512)
    assert not full
    # the counter is live: an allowed degree enumerates both its bases once
    relative_differential_matrix(cat, 1)
    assert builds == {(id(cat), (1, False)): 1, (id(cat), (2, False)): 1}


# --- relative subcomplex ---------------------------------------------------------

def test_relative_basis_sizes():
    assert len(relative_basis(A2, 2)) == 4
    assert len(relative_basis(C2, 1)) == 4
    assert len(relative_basis(TRIV, 5)) == 1
    for name in ("a2", "c2", "ex6", "diamond", "chain:3", "s3+c2"):
        cat = S3_PLUS_C2 if name == "s3+c2" else FIXTURES[name]
        sizes = relative_sizes(cat)
        assert [next(sizes) for _ in range(4)] == \
            [len(relative_basis(cat, m)) for m in range(4)], name


C2_PLUS_C3_TEXT = """
object x
object y
morphism ex : x -> x identity
morphism g : x -> x
morphism ey : y -> y identity
morphism h : y -> y
morphism h2 : y -> y
compose g g = ex
compose h h = h2
compose h h2 = ey
compose h2 h = ey
compose h2 h2 = h
"""


def test_relative_is_full_exactly_for_one_object():
    for name, cat in FIXTURES.items():
        assert relative_is_full(cat) == (cat.n_objects == 1), name
    # C2 + C3: every morphism is an endomorphism, so degree 0 agrees, but
    # 25 pairs in degree 1 against 2^2 + 3^2 composable ones
    cat = parse_category(C2_PLUS_C3_TEXT)
    assert list(itertools.islice(relative_sizes(cat), 2)) == [5, 13]
    assert not relative_is_full(cat)
    assert relative_differential_matrix(cat, 0).nrows == 13
    # the empty category has every cochain space zero; two bare objects
    # have 2 relative pairs in degree 1 against 4 full ones
    empty = parse_category("")
    assert relative_is_full(empty)
    assert list(itertools.islice(relative_sizes(empty), 3)) == [0, 0, 0]
    assert list(itertools.islice(hochschild_sizes(empty), 3)) == [0, 0, 0]
    discrete = parse_category(
        "object x\nobject y\nmorphism ex : x -> x identity\nmorphism ey : y -> y identity\n")
    assert not relative_is_full(discrete)
    assert list(itertools.islice(relative_sizes(discrete), 2)) == [2, 2]


def test_one_object_relative_complex_is_the_full_one():
    # the shortcut of ``cohomology --theory both`` and ``theorem_a_report``
    for name, cat in FIXTURES.items():
        if cat.n_objects != 1:
            continue
        max_m = 2 if cat.n_morphisms <= 4 else 1
        assert relative_is_full(cat), name
        for field in FIELDS:
            assert hochschild_cohomology_dims(cat, field, max_m) == \
                relative_cohomology_dims(cat, field, max_m), (name, str(field))


def test_relative_basis_a2_degree_two_contents():
    # tuples are in tensor order: (g1, g2) with source(g1) = target(g2)
    assert relative_basis(A2, 2) == [
        ((0, 0), 0),   # (id1, id1) -> id1
        ((1, 1), 1),   # (id2, id2) -> id2
        ((1, 2), 2),   # (id2, g)   -> g
        ((2, 0), 2),   # (g, id1)   -> g
    ]


def test_relative_degree_zero_is_the_endomorphism_span():
    assert relative_basis(A2, 0) == [((), 0), ((), 1)]
    assert relative_basis(C2, 0) == [((), 0), ((), 1)]
    assert len(relative_basis(EX6, 0)) == 4


def test_relative_counts_match_ladder_count():
    # on rr-transitive deterministic cancellative fixtures the relative basis
    # of degree m is in bijection with the degree-m nerve chains of F^ad
    for name in ("triv", "a2", "c2", "s3", "diamond", "ex6", "cn:4"):
        cat = FIXTURES[name]
        fad = adjoint_category(cat)
        for m in range(4):
            n_rel = len(relative_basis(cat, m))
            assert n_rel == len(oracles.nerve_chain_list(fad, m)), (name, m)
            if m == 0:
                expected = sum(len(cat.endomorphisms[x]) for x in range(cat.n_objects))
            else:
                expected = sum(
                    len(cat.endomorphisms[cat.source[chain[0]]])
                    for chain in oracles.nerve_chain_list(cat, m)
                )
            assert n_rel == expected, (name, m)


def test_relative_differential_is_closed_and_squares_to_zero():
    for name in ("a2", "c2", "ex6", "diamond", "s3"):
        cat = FIXTURES[name]
        r0, r1, r2 = (relative_differential_matrix(cat, m) for m in range(3))
        assert (r1 @ r0).is_zero() and (r2 @ r1).is_zero()


def test_relative_dims_equal_full_dims():
    cases = [
        (A2, QQ, 3, [1, 0, 0, 0]),
        (C2, GF2, 3, [2, 2, 2, 2]),
        (C2, GF3, 3, [2, 0, 0, 0]),
        (TRIV, GF5, 3, [1, 0, 0, 0]),
    ]
    for cat, field, max_m, expected in cases:
        assert relative_cohomology_dims(cat, field, max_m) == expected
        assert hochschild_cohomology_dims(cat, field, max_m) == expected


def test_relative_dims_equal_full_dims_ex6():
    for field, expected in ((GF2, [2, 2, 2]), (GF3, [2, 0, 0])):
        assert hochschild_cohomology_dims(EX6, field, 2) == expected
        assert relative_cohomology_dims(EX6, field, 2) == expected


def test_relative_dims_equal_full_dims_remaining_fixtures():
    # degreewise agreement of the two complexes on the wider fixture set
    for name in ("diamond", "chain:3", "s3", "cn:4"):
        cat = FIXTURES[name]
        for field in (GF2, GF3):
            assert relative_cohomology_dims(cat, field, 2) == \
                hochschild_cohomology_dims(cat, field, 2), (name, str(field))


def test_relative_dims_equal_full_dims_beyond_comparison_hypotheses():
    # the identity span is separable in any finite category, so the relative
    # complex computes the full cohomology even where the comparison map is
    # not available
    from .test_category import collapse, parallel_arrows, z_monoid

    for cat in (parallel_arrows(), z_monoid(), collapse()):
        for field in (GF2, QQ):
            assert relative_cohomology_dims(cat, field, 2) == \
                hochschild_cohomology_dims(cat, field, 2)


# --- the normalized subcomplex ---------------------------------------------------
#
# The dimension tables rank the normalized complex: the relative
# differential on the tuples with no identity factor.  Groups and ex6
# (a∘a = id1) have non-identities whose composite is an identity, so their
# dropped identity terms cancel in pairs on the long route.

def identity_free(cat, pairs) -> list:
    return [(tup, h) for tup, h in pairs if not any(map(cat.is_identity, tup))]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_normalized_differential_is_the_identity_free_slice(name):
    cat = FIXTURES[name]
    mats = [_sliced_differential(cat, m, True) for m in range(4)]
    for m, d in enumerate(mats):
        assert list(_slice(cat, m, True)[0]) == identity_free(cat, relative_basis(cat, m))
        assert d == oracles.normalized_relative_differential(cat, m), (name, m)
        assert all(type(v) is int for _r, _c, v in d.entries())
    for d, prev in zip(mats[1:], mats):
        assert (d @ prev).is_zero(), name   # over Z, so in every field


def test_normalized_differential_refuses_a_term_outside_the_slice(monkeypatch):
    # drop one row from the degree-2 normalized basis map: the first column
    # with a term there must name itself and the dropped pair
    cat = dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))
    col = _slice(cat, 1, True)[0][0]
    hit = identity_free(cat, oracles.column_contributions(cat, *col))[0]
    honest = hochschild._slice

    def dropping(cat, m, normalized):
        basis, rows = honest(cat, m, normalized)
        rows = dict(rows)   # a copy: the memoized index stays whole
        if m == 2:
            del rows[basis_index(cat, *hit)]
        return basis, rows

    monkeypatch.setattr(hochschild, "_slice", dropping)
    with pytest.raises(NotASubcomplex) as refused:
        _sliced_differential(cat, 1, True)
    assert str(refused.value) == \
        f"differential leaves the normalized subcomplex at degree 1: column {col} hits {hit}"


def unnormalized_dims(builder, cat, field, max_m) -> list:
    """The dims of the unnormalized complex of ``builder``, ranked as it is."""
    return list(cohomology_dims([builder(cat, m) for m in range(max_m + 1)], field))


LONG_ROUTE = (
    [(name, 3, True) for name in sorted(FIXTURES)]
    + [("diamond", 7, False), ("chain:3", 7, False), ("s3+c2", 3, True)]
)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name, max_m, full", LONG_ROUTE)
def test_normalized_dims_equal_the_long_route(name, max_m, full, field):
    cat = S3_PLUS_C2 if name == "s3+c2" else FIXTURES[name]
    expected = unnormalized_dims(relative_differential_matrix, cat, field, max_m)
    assert relative_cohomology_dims(cat, field, max_m) == expected
    if full:
        assert unnormalized_dims(hochschild_differential_matrix, cat, field, max_m) == expected
        assert hochschild_cohomology_dims(cat, field, max_m) == expected


def test_dims_check_d_squared_on_the_normalized_complex(monkeypatch):
    honest = hochschild._sliced_differential

    def broken(cat, m, normalized):
        d = honest(cat, m, normalized)
        if m != 1 or not normalized:
            return d
        # row 0 of d_1 reads the nonzero row r of d_0, so d_1 d_0 ≠ 0
        r, _c, _v = next(honest(cat, 0, normalized).entries())
        return Matrix(QQ, d.nrows, d.ncols, {0: {r: 1}})

    monkeypatch.setattr(hochschild, "_sliced_differential", broken)
    for dims, cat in ((hochschild_cohomology_dims, S3), (relative_cohomology_dims, S3),
                      (relative_cohomology_dims, EX6)):
        with pytest.raises(NotASubspace):
            dims(cat, GF2, 1)


def test_one_object_dims_build_no_full_differential(monkeypatch):
    cat = group_from_table(symmetric_group_table(3))   # new, so no memo answers for it
    full = count_builds(monkeypatch, _full_differential)
    normalized = count_builds(monkeypatch, _sliced_differential)
    assert hochschild_cohomology_dims(cat, GF2, 3) == [3, 2, 2, 2]
    assert not full
    assert normalized == {(id(cat), (m, True)): 1 for m in range(4)}
    # the counters are live: with two objects the full complex is ranked
    two = dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))
    assert hochschild_cohomology_dims(two, GF2, 1) == [2, 2]
    assert full == {(id(two), (0,)): 1, (id(two), (1,)): 1}


# --- the homotopy lemma ----------------------------------------------------------
#
# With several objects the full dims are the relative ones once
# ∂^(m−1) h^m + h^(m+1) ∂^m = I − ιρ holds on C^0..C^max_m and ∂∂ = 0.

def several_objects() -> list:
    return sorted(name for name, cat in FIXTURES.items() if cat.n_objects > 1)


def fresh_ex6():
    """A copy of ex6 that no memo has seen."""
    return dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_homotopy_is_the_tuple_oracle(name):
    cat = FIXTURES[name]
    for m in range(1, 5):
        h = _homotopy(cat, m)
        assert h == oracles.hochschild_homotopy(cat, m), (name, m)
        assert all(type(v) is int for _r, _c, v in h.entries())


def summed_entries(*mats) -> dict:
    """The entries of a sum of integer matrices, as a dict (r, c) -> nonzero int."""
    out: dict = {}
    for mat in mats:
        for r, c, v in mat.entries():
            out[r, c] = out.get((r, c), 0) + v
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["parallel_arrows", "right_only"])
def test_homotopy_identity_holds_over_the_integers(name):
    # built from the tuple oracle and the package's differentials: no field,
    # so the identity holds in every field
    from .test_category import parallel_arrows
    from .test_comparison import right_only

    others = {"parallel_arrows": parallel_arrows, "right_only": right_only}
    cat = others[name]() if name in others else FIXTURES[name]
    top = 2 if name == "chain:4" else 3
    d = [hochschild_differential_matrix(cat, m) for m in range(top + 1)]
    h = {m: oracles.hochschild_homotopy(cat, m) for m in range(1, top + 2)}
    for m in range(top + 1):
        terms = [h[m + 1] @ d[m]] + ([d[m - 1] @ h[m]] if m else [])
        expected = {(r, c): v for r, c, v in oracles.off_relative_diagonal(cat, m).entries()}
        assert summed_entries(*terms) == expected, (name, m)
        assert _homotopy_holds(cat, GF2, d, m)


def counting_ranks(monkeypatch) -> list:
    """Record every matrix ``Matrix.rank`` is called on."""
    ranked = []
    rank = Matrix.rank

    def counted(self, field=None):
        ranked.append(self)
        return rank(self, field)

    monkeypatch.setattr(Matrix, "rank", counted)
    return ranked


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", several_objects())
def test_several_object_dims_equal_the_full_ranks(monkeypatch, name, field):
    cat = FIXTURES[name]
    full = [hochschild_differential_matrix(cat, m) for m in range(4)]
    ranked = counting_ranks(monkeypatch)
    dims = hochschild_cohomology_dims(cat, field, 3)
    assert not any(d is f for d in ranked for f in full)   # the relative ranks answered
    monkeypatch.undo()
    assert dims == cohomology_dims(full, field)


@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_a_failed_homotopy_identity_falls_back_to_the_full_ranks(monkeypatch, field):
    # drop h^1's entry on row (; g) for a g that is no endomorphism: then
    # (h^1 ∂^0)[g, g] reads 0 where I − ιρ has 1, in every field
    cat = fresh_ex6()
    g = next(g for g in range(cat.n_morphisms) if cat.source[g] != cat.target[g])
    honest = hochschild._homotopy

    def perturbed(cat, m):
        h = honest(cat, m)
        if m != 1:
            return h
        rows = dict(h.rows)   # a copy: the memoized matrix stays whole
        del rows[g]
        return Matrix(QQ, h.nrows, h.ncols, rows)

    monkeypatch.setattr(hochschild, "_homotopy", perturbed)
    full = [hochschild_differential_matrix(cat, m) for m in range(3)]
    ranked = counting_ranks(monkeypatch)
    dims = hochschild_cohomology_dims(cat, field, 2)
    assert [id(d) for d in ranked] == [id(d) for d in full]
    assert dims == relative_cohomology_dims(EX6, field, 2)


def test_several_object_dims_check_d_squared_on_the_full_complex(monkeypatch):
    honest = hochschild._full_differential

    def broken(cat, m):
        d = honest(cat, m)
        if m != 1:
            return d
        # row 0 of d_1 reads the nonzero row r of d_0, so d_1 d_0 ≠ 0
        r, _c, _v = next(honest(cat, 0).entries())
        return Matrix(QQ, d.nrows, d.ncols, {0: {r: 1}})

    monkeypatch.setattr(hochschild, "_full_differential", broken)
    builds = count_builds(monkeypatch, _homotopy)
    for field in (GF2, QQ):
        with pytest.raises(NotASubspace):
            hochschild_cohomology_dims(fresh_ex6(), field, 1)
    assert not builds   # the check comes before h


def test_one_object_full_dims_build_no_homotopy(monkeypatch):
    cat = group_from_table(symmetric_group_table(3))   # new, so no memo answers for it
    builds = count_builds(monkeypatch, _homotopy)
    assert hochschild_cohomology_dims(cat, GF2, 3) == [3, 2, 2, 2]
    assert not builds
    # the counter is live: with two objects h^1..h^(max_m + 1) are built once
    two = fresh_ex6()
    assert hochschild_cohomology_dims(two, GF2, 1) == [2, 2]
    assert hochschild_cohomology_dims(two, GF3, 1) == [2, 0]
    assert builds == {(id(two), (1,)): 1, (id(two), (2,)): 1}


# --- cochains as coefficient tensors ----------------------------------------------

def test_cochain_vector_roundtrip():
    # coordinates are the lexicographic (tuple, output) basis
    for m in range(3):
        for i, (tup, h) in enumerate(hochschild_basis(A2, m)):
            assert basis_index(A2, tup, h) == i
    # (d f)(u) = u·f - f·u for the cochain f = g, checked through the algebra product
    g = 2
    for u in range(A2.n_morphisms):
        got, expected = _commutator_of_d0(A2, QQ, None, g, u)
        assert got == expected


# --- separability -------------------------------------------------------------

def test_separability_on_fixtures():
    for name in ("triv", "a2", "c2", "ex6", "diamond", "s3"):
        assert oracles.separability_check(FIXTURES[name])
    assert oracles.separability_check(EX6, 2)
