import dataclasses
import itertools
import sys
from collections import Counter

import pytest

from hochcat import (
    adjoint_category,
    builtin,
    parse_category,
    hochschild_cohomology_dims,
    hochschild_differential_matrix,
    relative_basis,
    relative_cohomology_dims,
)
from hochcat import hochschild
from hochcat.errors import DimensionCapExceeded, NotASubcomplex
from hochcat.hochschild import (
    _full_differential,
    _relative_basis_cached,
    _relative_differential,
    basis_index,
    check_sizes,
    hochschild_basis,
    hochschild_sizes,
    relative_differential_matrix,
    relative_is_full,
    relative_sizes,
)
from hochcat.fields import FieldSpec
from hochcat.matrix import Matrix
from hochcat.nerve import _coboundary, nerve_chains, simplicial_coboundary_matrix

from . import oracles
from .catalog import A2, C2, EX6, FIELDS, FIXTURES, GF2, GF3, GF5, QQ, S3_PLUS_C2, TRIV


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
    d0 = hochschild_differential_matrix(cat, field, 0)
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
    d0 = hochschild_differential_matrix(TRIV, QQ, 0)
    assert (d0.nrows, d0.ncols) == (1, 1) and d0.is_zero()


def test_differential_c2_degree_zero_is_zero():
    d0 = hochschild_differential_matrix(C2, GF2, 0)
    assert (d0.nrows, d0.ncols) == (4, 2)
    assert d0.rank() == 0  # the group algebra of an abelian group is commutative


def test_differential_a2_degree_zero_rank_two():
    d0 = hochschild_differential_matrix(A2, QQ, 0)
    assert (d0.nrows, d0.ncols) == (9, 3)
    assert d0.rank() == 2
    assert d0.kernel_basis().dim == 1  # the center is one dimensional


def test_differential_squares_to_zero():
    for name in ("a2", "c2", "ex6"):
        cat = FIXTURES[name]
        for field in (GF2, QQ):
            d0 = hochschild_differential_matrix(cat, field, 0)
            d1 = hochschild_differential_matrix(cat, field, 1)
            d2 = hochschild_differential_matrix(cat, field, 2)
            assert (d1 @ d0).is_zero() and (d2 @ d1).is_zero()


def test_differential_matches_functional_oracle():
    for cat in (A2, C2):
        for p, field in ((None, QQ), (2, GF2), (3, GF3)):
            for m in range(3):
                pkg = hochschild_differential_matrix(cat, field, m)
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
                assert hochschild_differential_matrix(cat, field, m) == want, (name, field, m)


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
                rel = relative_differential_matrix(cat, field, m)
                full = hochschild_differential_matrix(cat, field, m)
                assert rel == restricted(full, [basis_index(cat, *pair) for pair in rows],
                                         [basis_index(cat, *pair) for pair in cols]), (name, field, m)
                assert rel == oracles.column_wise_differential(cat, field, cols, rows), (name, field, m)


def test_relative_differential_refuses_a_term_outside_the_subcomplex(monkeypatch):
    # drop one row from the degree-2 relative basis map: the first column
    # with a term there must name itself and the dropped pair
    cat = dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))
    col = relative_basis(cat, 1)[0]
    hit = next(iter(oracles.column_contributions(cat, *col)))
    index_of = hochschild._relative_of_full

    def dropping(cat, m):
        rows = dict(index_of(cat, m))   # a copy: the memoized index stays whole
        if m == 2:
            del rows[basis_index(cat, *hit)]
        return rows

    monkeypatch.setattr(hochschild, "_relative_of_full", dropping)
    with pytest.raises(NotASubcomplex) as refused:
        relative_differential_matrix(cat, GF2, 1)
    assert str(refused.value) == \
        f"differential leaves the relative subcomplex at degree 1: column {col} hits {hit}"


def test_each_differential_is_built_once_for_every_field(monkeypatch):
    # a fresh copy of ex6, so that no other test has filled its memos; the
    # memo is the integer matrix, handed out as it is over Q and reduced
    # into GF(p) on each call
    cat = dataclasses.replace(EX6, object_names=tuple(f"{x}'" for x in EX6.object_names))
    fad = adjoint_category(cat)
    builders = (
        (_full_differential, cat, hochschild_differential_matrix),
        (_relative_differential, cat, relative_differential_matrix),
        (_coboundary, fad, simplicial_coboundary_matrix),
    )
    for memoized, on, matrix in builders:
        builds = count_builds(monkeypatch, memoized)
        integer = matrix(on, QQ, 1)
        assert matrix(on, FieldSpec(None), 1) is integer
        assert integer.field == QQ and all(type(v) is int for _r, _c, v in integer.entries())
        for field in (GF2, GF3):
            reduced = matrix(on, field, 1)
            assert reduced.field == field and reduced == Matrix.from_entries(
                field, integer.nrows, integer.ncols, {(r, c): v for r, c, v in integer.entries()})
        assert builds == {(id(on), (1,)): 1}, memoized


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
    d = hochschild_differential_matrix(C2, GF2, 1)
    assert d.ncols == 4 and d.nrows == 8


def test_cap_refuses_large_degrees():
    with pytest.raises(DimensionCapExceeded):
        hochschild_differential_matrix(EX6, GF2, 3, cap=1000)
    with pytest.raises(DimensionCapExceeded):
        hochschild_cohomology_dims(EX6, GF2, 3, cap=1000)


def test_check_cap_reads_running_products():
    # 6^100001 is never formed: the first degree over the cap is refused
    with pytest.raises(DimensionCapExceeded) as refused:
        check_sizes(hochschild_sizes(EX6), 10**5, 1000)
    assert (refused.value.degree, refused.value.required) == (3, 1296)
    check_sizes(hochschild_sizes(EX6), 2, 216)
    with pytest.raises(DimensionCapExceeded):
        check_sizes(hochschild_sizes(EX6), 0, 5)


def test_relative_basis_at_a_degree_deeper_than_the_recursion_limit():
    # triv has one composable chain per degree; enumerating it must not recurse
    deep = sys.getrecursionlimit() + 50
    assert relative_basis(TRIV, deep) == [((0,) * deep, 0)]


def test_relative_cap_is_checked_before_assembly(monkeypatch):
    cat = builtin("chain:4")
    builds = count_builds(monkeypatch, _relative_basis_cached)
    with pytest.raises(DimensionCapExceeded) as refused:
        relative_differential_matrix(cat, GF2, 7, cap=5)
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
    relative_differential_matrix(cat, GF2, 1)
    assert builds == {(id(cat), (1,)): 1, (id(cat), (2,)): 1}


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
        assert relative_is_full(cat, 3) == (cat.n_objects == 1), name
    # C2 + C3: every morphism is an endomorphism, so degree 0 agrees, but
    # 25 pairs in degree 1 against 2^2 + 3^2 composable ones
    cat = parse_category(C2_PLUS_C3_TEXT)
    assert list(itertools.islice(relative_sizes(cat), 2)) == [5, 13]
    assert relative_is_full(cat, 0) and not relative_is_full(cat, 1)
    assert relative_differential_matrix(cat, GF2, 0).nrows == 13


def test_one_object_relative_complex_is_the_full_one():
    # the shortcut of ``cohomology --theory both`` and ``theorem_a_report``
    for name, cat in FIXTURES.items():
        if cat.n_objects != 1:
            continue
        max_m = 2 if cat.n_morphisms <= 4 else 1
        assert relative_is_full(cat, max_m + 1), name
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
            assert n_rel == len(nerve_chains(fad, m)), (name, m)
            if m == 0:
                expected = sum(len(cat.endomorphisms[x]) for x in range(cat.n_objects))
            else:
                expected = sum(
                    len(cat.endomorphisms[cat.source[chain[0]]])
                    for chain in nerve_chains(cat, m)
                )
            assert n_rel == expected, (name, m)


def test_relative_differential_is_closed_and_squares_to_zero():
    for name in ("a2", "c2", "ex6", "diamond", "s3"):
        cat = FIXTURES[name]
        for field in (GF2, QQ):
            r0 = relative_differential_matrix(cat, field, 0)
            r1 = relative_differential_matrix(cat, field, 1)
            r2 = relative_differential_matrix(cat, field, 2)
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
