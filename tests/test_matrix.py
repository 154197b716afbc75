import dataclasses
import math
import random
from array import array
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochcat import (
    adjoint_category,
    builtin,
    hochschild_cohomology_dims,
    hochschild_differential_matrix,
    relative_cohomology_dims,
    simplicial_coboundary_matrix,
    simplicial_cohomology_dims,
    theorem_a_report,
    theorem_b_report,
)
from hochcat import matrix
from hochcat.errors import (
    HypothesisViolated, NotAnIntegerMatrix, NotASubspace, NotChainCompatible,
)
from hochcat.fields import is_prime
from hochcat.hochschild import relative_differential_matrix
from hochcat.matrix import (
    Matrix,
    Reading,
    Subspace,
    VerificationResult,
    cohomology,
    cohomology_dims,
    quotient_dim,
    restricted_map,
)

from .catalog import C2, FIELDS, FIXTURES, GF2, GF3, GF5, QQ
from .oracles import (
    dense_product, fraction_kernel, fraction_rref, induced_quotient_map, naive_rank, naive_rref,
    reduced,
)


def mk(field, rows):
    return Matrix.from_rows(field, rows)


# --- rank -----------------------------------------------------------------

def test_rank_empty_matrix():
    assert Matrix.zeros(QQ, 0, 0).rank() == 0


def test_rank_identity_gf5():
    assert Matrix.identity(GF5, 3).rank() == 3


def test_rank_equal_rows_gf2():
    assert mk(GF2, [[1, 1], [1, 1]]).rank() == 1


def test_gf_p_scalars_are_reduced_on_entry():
    # 2 = 0 in GF(2): the bitset tail reads every stored cell as a 1, so an
    # unreduced scalar would also make it disagree with the dict loop
    m = Matrix.from_rows(GF2, [[2, 0], [0, 1]])
    assert m.rank() == 1
    assert m == mk(GF2, [[0, 0], [0, 1]])
    assert Matrix.from_entries(GF2, 2, 2, {(0, 0): 2, (1, 1): 3}) == m
    assert Matrix.from_rows(GF5, [[-1, 7, 5]]) == \
        Matrix.from_entries(GF5, 1, 3, {(0, 0): 4, (0, 1): 2})


@pytest.mark.parametrize("field, value", [
    (field, value) for field in (GF2, GF3, QQ) for value in (0.5, "1", Fraction(1, 2))
    if field != QQ or not isinstance(value, Fraction)], ids=repr)
def test_constructors_refuse_an_inexact_scalar(field, value):
    # a scalar of GF(p) is an int and one of Q an int or a Fraction; any
    # other value is refused where it enters, naming its cell
    with pytest.raises(TypeError, match=r"entry \(0, 1\) is"):
        Matrix.from_entries(field, 1, 2, {(0, 0): 1, (0, 1): value})
    with pytest.raises(TypeError, match=r"entry \(1, 0\) is"):
        Matrix.from_rows(field, [[1, 0], [value, 1]])


def test_rank_rationals_with_fractions():
    m = mk(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]])
    assert m.rank() == 2


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_rank_never_back_substitutes_over_gf_p(field, monkeypatch):
    # row 0 meets the pivots of rows 1 and 2, so its RREF row differs from
    # its echelon row; the wide matrix is eliminated as is, the tall one
    # through its transpose over GF(2) and row by row over GF(3)
    wide = mk(field, [[1, 1, 1, 0, 1], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1]])
    assert wide.rref(reduced=False)[1] != wide.rref()[1]

    def no_sweep(*args):
        raise AssertionError("back-substitution ran")

    monkeypatch.setattr(matrix, "_back_substitute", no_sweep)
    for m in (wide, wide.transpose()):
        pivots, _reduced = naive_rref(m.dense_rows(), field.p)
        assert m.rank() == len(pivots) == 3
    with pytest.raises(AssertionError, match="back-substitution ran"):
        wide.kernel_basis()


# --- assembly and identity checks ---------------------------------------------

def test_an_integer_matrix_is_reduced_into_each_field():
    # an integer matrix is a matrix over Q with int entries; each field
    # enters inside an elimination's own copy or transpose
    entries = {(0, 0): 3, (1, 2): 3, (0, 1): -2, (1, 0): -2, (1, 1): 0, (0, 2): 7, (2, 1): 6}
    m = Matrix.from_entries(QQ, 3, 3, entries)
    assert {(r, c): v for r, c, v in m.entries()} == {k: n for k, n in entries.items() if n}
    assert all(type(v) is int for _r, _c, v in m.entries())
    g = Matrix.from_entries(GF3, 3, 3, entries)
    assert {(r, c): v for r, c, v in g.entries()} == {
        k: GF3.scalar(n) for k, n in entries.items() if n % 3}
    assert 2 not in g.rows   # a row that vanishes mod 3 is no row
    for field in (GF2, GF3, GF5, QQ):
        reduced = Matrix.from_entries(field, 3, 3, entries)
        assert m.transpose(field) == reduced.transpose()
        assert m.rref(field) == reduced.rref()
        assert m.rref(field, reduced=False) == reduced.rref(reduced=False)
        assert m.rank(field) == reduced.rank()
        assert m.kernel_basis(field) == reduced.kernel_basis()
        assert m.image_basis(field) == reduced.image_basis()
    with pytest.raises(ValueError, match="field mismatch"):   # GF(p) has no other field
        g.rank(GF5)


@pytest.mark.parametrize("field", (GF2, GF3, GF5), ids=str)
def test_a_matrix_over_q_with_a_fraction_has_no_reduction(field):
    # only an integer matrix reaches GF(p): a half is refused by the pass
    # that reduces the entries, whatever the shape routes the rank through
    square = Matrix.from_rows(QQ, [[Fraction(1, 2), 1], [1, 2]])
    tall = Matrix.from_rows(QQ, [[1, 0], [0, 1], [Fraction(1, 2), 1]])
    for m in (square, tall):
        for reduce in (m.rank, m.rref, m.transpose, m.kernel_basis, m.image_basis,
                       lambda f, m=m: m.rref(f, reduced=False)):
            with pytest.raises(NotAnIntegerMatrix, match=str(field)):
                reduce(field)
    assert (square.rank(), tall.rank(), square.rank(QQ)) == (1, 2, 1)
    assert Matrix.from_rows(QQ, [[2, 1], [1, 2]]).rank(GF3) == 1   # det 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_first_difference(field):
    one, zero = field.one, field.zero
    a = mk(field, [[one, 0, one], [0, one, 0]])
    assert a.first_difference(mk(field, [[one, 0, one], [0, one, 0]])) is None
    # (1, 1) and (0, 1) differ; the first in (row, column) order is reported
    assert a.first_difference(mk(field, [[one, one, one], [0, 0, 0]])) == (0, 1, zero, one)
    assert a.first_difference(mk(field, [[one, 0, one], [one, 0, 0]])) == (1, 0, zero, one)
    assert a.first_difference(Matrix.zeros(field, 3, 2)) == (-1, -1, (2, 3), (3, 2))


def test_first_difference_reduces_the_integer_difference_into_the_field():
    # a = -b over Z but for 2 at (1, 1), which GF(2) does not see; c adds a
    # 3 at (1, 0), which GF(3) does not see
    a = Matrix.from_entries(QQ, 2, 2, {(0, 0): 1, (0, 1): -1, (1, 1): 2})
    b = Matrix.from_entries(QQ, 2, 2, {(0, 0): -1, (0, 1): 1, (1, 1): -4})
    c = Matrix.from_entries(QQ, 2, 2, {(0, 0): 1, (0, 1): -1, (1, 0): 3, (1, 1): 2})
    assert a.first_difference(b, QQ, -1) == (1, 1, Fraction(2), Fraction(4))
    assert a.first_difference(b, GF2, -1) is None
    assert a.first_difference(b, GF3, -1) == (1, 1, 2, 1)
    assert a.first_difference(b, GF2) is None   # a sign is invisible mod 2
    assert a.first_difference(b, GF3) == (0, 0, 1, 2)
    assert a.first_difference(c, GF3) is None
    assert a.first_difference(c, GF2) == (1, 0, 0, 1)
    # the witness holds the field's scalars: Fractions over Q
    diff = a.first_difference(c)
    assert diff == (1, 0, 0, 3) and all(type(v) is Fraction for v in diff[2:])
    assert VerificationResult.of("x", 0, a, b, GF2, -1).ok
    assert VerificationResult.of("x", 0, a, b, GF5, -1).first_difference == (1, 1, 2, 4)


# --- kernel and image -------------------------------------------------------

def test_kernel_of_ones_row_gf2():
    ker = mk(GF2, [[1, 1]]).kernel_basis()
    assert ker.dim == 1
    assert ker.basis.dense_rows() == [[1, 1]]


def test_image_of_zero_matrix():
    assert Matrix.zeros(QQ, 4, 2).image_basis().dim == 0


def test_kernel_of_zero_columns():
    ker = Matrix.zeros(GF3, 3, 2).kernel_basis()
    assert ker.dim == 2
    assert ker.basis.dense_rows() == [[1, 0], [0, 1]]


def test_rank_nullity():
    m = mk(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() + m.kernel_basis().dim == m.ncols


# --- quotients ------------------------------------------------------------

def test_quotient_equal_spaces_is_zero():
    Z = Subspace.from_matrix(mk(QQ, [[1, 0], [0, 1]]))
    assert quotient_dim(Z, Z) == 0


def test_quotient_full_mod_zero():
    Z = Subspace.from_matrix(mk(GF3, [[1, 0], [0, 1]]))
    B = Subspace.zero(GF3, 2)
    assert quotient_dim(Z, B) == 2


def test_quotient_rejects_non_subspace():
    Z = Subspace.from_matrix(mk(QQ, [[1, 0]]))
    B = Subspace.from_matrix(mk(QQ, [[0, 1]]))
    with pytest.raises(NotASubspace):
        quotient_dim(Z, B)


def test_quotient_c2_fad_nerve_degree_one():
    # cocycles mod coboundaries in degree 1 for the adjoint category of the
    # order-two group: two components, each contributing one dimension
    from hochcat import adjoint_category, simplicial_coboundary_matrix

    from .catalog import C2

    fad = adjoint_category(C2)
    d1 = simplicial_coboundary_matrix(fad, 1)
    d0 = simplicial_coboundary_matrix(fad, 0)
    assert quotient_dim(d1.kernel_basis(GF2), d0.image_basis(GF2)) == 2


# --- the shared cohomology walk ----------------------------------------------

def test_cohomology_never_builds_the_last_image(monkeypatch):
    calls = []
    image_basis = Matrix.image_basis
    kernel_basis = Matrix.kernel_basis

    def counted(self, *args):
        calls.append((self.nrows, self.ncols))
        return image_basis(self, *args)

    def counted_kernel(self, *args):
        calls.append("kernel")
        return kernel_basis(self, *args)

    monkeypatch.setattr(Matrix, "image_basis", counted)
    max_m = 2
    mats = [hochschild_differential_matrix(C2, m) for m in range(max_m + 1)]
    dims = [dim for _Z, _B, dim in cohomology(mats, GF2)]
    assert dims == [2, 2, 2]
    assert calls == [(m.nrows, m.ncols) for m in mats[:-1]]
    # the dims-only functions count ranks and build no basis at all
    monkeypatch.setattr(Matrix, "kernel_basis", counted_kernel)
    calls.clear()
    assert hochschild_cohomology_dims(C2, GF2, max_m) == dims
    assert relative_cohomology_dims(C2, GF2, max_m) == dims
    assert simplicial_cohomology_dims(adjoint_category(C2), GF2, max_m) == dims
    assert calls == []


def test_cohomology_rejects_a_differential_that_does_not_square_to_zero():
    d0 = mk(QQ, [[1], [0]])
    d1 = mk(QQ, [[1, 0]])
    with pytest.raises(NotASubspace):
        list(cohomology([d0, d1]))


def test_cohomology_dims_rejects_a_differential_that_does_not_square_to_zero():
    d0 = mk(QQ, [[1], [0]])
    d1 = mk(QQ, [[1, 0]])
    with pytest.raises(NotASubspace):
        list(cohomology_dims([d0, d1]))


def _complexes(cat, field, max_m):
    """The Hochschild, relative and F^ad nerve differentials in degrees 0..max_m, over ``field``."""
    fad = adjoint_category(cat)
    rng = range(max_m + 1)
    return {
        "hochschild": [reduced(hochschild_differential_matrix(cat, m), field) for m in rng],
        "relative": [reduced(relative_differential_matrix(cat, m), field) for m in rng],
        "nerve": [reduced(simplicial_coboundary_matrix(fad, m), field) for m in rng],
    }


def test_rank_path_matches_subspace_path():
    for name, cat in FIXTURES.items():
        max_m = 2 if cat.n_morphisms <= 4 else 1
        for field in (GF2, GF3, QQ):
            for complex_name, mats in _complexes(cat, field, max_m).items():
                assert list(cohomology_dims(mats)) == [dim for _Z, _B, dim in cohomology(mats)], \
                    (name, str(field), complex_name)


# --- induced maps on quotients (the reference in tests/oracles.py) ----------------

def test_induced_identity_map():
    Z = Subspace.from_matrix(mk(QQ, [[1, 0, 0], [0, 1, 0]]))
    B = Subspace.from_matrix(mk(QQ, [[0, 1, 0]]))
    Q, invertible = induced_quotient_map(Matrix.identity(QQ, 3), Z, B, Z, B)
    assert invertible
    assert Q == Matrix.identity(QQ, 1)


def test_induced_zero_map_not_invertible():
    Z = Subspace.from_matrix(mk(GF2, [[1, 0], [0, 1]]))
    B = Subspace.zero(GF2, 2)
    Q, invertible = induced_quotient_map(Matrix.zeros(GF2, 2, 2), Z, B, Z, B)
    assert Q.is_zero() and not invertible


def test_induced_rejects_incompatible_map():
    swap = mk(QQ, [[0, 1], [1, 0]])
    e0 = Subspace.from_matrix(mk(QQ, [[1, 0]]))
    everything = Subspace.from_matrix(mk(QQ, [[1, 0], [0, 1]]))
    # cocycles <e0> leave, as a restriction to <e0>; then all of k^2 is
    # kept but coboundaries <e0> leave
    with pytest.raises(NotChainCompatible):
        restricted_map(e0.basis @ swap.transpose(), e0)
    with pytest.raises(NotChainCompatible):
        induced_quotient_map(swap, everything, e0, everything, e0)


def test_induced_map_rejects_b_not_in_z():
    # the identity maps cocycles to cocycles and coboundaries to coboundaries,
    # so only the containment check can refuse B = <e1> against Z = <e0>
    Z = Subspace.from_matrix(mk(QQ, [[1, 0]]))
    B = Subspace.from_matrix(mk(QQ, [[0, 1]]))
    with pytest.raises(NotASubspace):
        induced_quotient_map(Matrix.identity(QQ, 2), Z, B, Z, B)


def test_induced_comparison_degree_one_c2_gf2():
    # the degree-1 comparison map induces an invertible 2x2 matrix on
    # cohomology for the order-two group over GF(2)
    from hochcat import (
        adjoint_category,
        hochschild_differential_matrix,
        simplicial_coboundary_matrix,
        t_map_matrix,
    )

    from .catalog import C2

    fad = adjoint_category(C2)
    d1 = hochschild_differential_matrix(C2, 1)
    d0 = hochschild_differential_matrix(C2, 0)
    e1 = simplicial_coboundary_matrix(fad, 1)
    e0 = simplicial_coboundary_matrix(fad, 0)
    Q, invertible = induced_quotient_map(
        reduced(t_map_matrix(C2, 1), GF2),
        d1.kernel_basis(GF2), d0.image_basis(GF2),
        e1.kernel_basis(GF2), e0.image_basis(GF2),
    )
    assert (Q.nrows, Q.ncols) == (2, 2) and invertible


# --- restriction to subspaces --------------------------------------------------

def test_restricted_identity_and_zero_maps():
    # the images of the source basis rows: Z's own rows, then one zero row
    Z = Subspace.from_matrix(mk(QQ, [[1, 2, 0], [0, 1, 1]]))
    assert restricted_map(Z.basis, Z) == Matrix.identity(QQ, 2)
    zero = restricted_map(Matrix.zeros(GF2, 1, 2), Subspace.zero(GF2, 2))
    assert (zero.nrows, zero.ncols) == (0, 1) and zero.is_zero()


def test_restricted_map_reads_coordinates_in_the_target_basis():
    # T(x, y) = (x + y, y, x) on <e0> and <e1> lands in <(1,0,1), (1,1,0)>,
    # whose canonical basis is (1,0,1), (0,1,-1)
    T = mk(QQ, [[1, 1], [0, 1], [1, 0]])
    images = Subspace.from_matrix(Matrix.identity(QQ, 2)).basis @ T.transpose()
    dst = Subspace.from_matrix(mk(QQ, [[1, 0, 1], [1, 1, 0]]))
    assert restricted_map(images, dst) == mk(QQ, [[1, 1], [0, 1]])
    with pytest.raises(NotChainCompatible):
        restricted_map(images, Subspace.from_matrix(mk(QQ, [[1, 0, 1]])))


@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_restricted_map_is_the_quotient_map_over_zero_subspaces(field):
    # Theorem B's restriction: T^1 from derivations to characters, and X^1
    # back, from the images T's relative reads give, as the reference's
    # induced map of the matrices over zero coboundaries
    from hochcat import character_space, graded_derivation_space
    from hochcat.comparison import _relative_reading

    for name, cat in FIXTURES.items():
        der = graded_derivation_space(cat, field)
        char = character_space(adjoint_category(cat), field)
        t1 = _relative_reading(cat, 1, None)
        for T, src, dst, images in ((reduced(t1.matrix(), field), der, char, der.basis @ t1.T),
                                    (reduced(t1.T.matrix(), field), char, der, char.basis @ t1)):
            zero_src = Subspace.zero(field, src.ambient_dim)
            zero_dst = Subspace.zero(field, dst.ambient_dim)
            expected, _ = induced_quotient_map(T, src, zero_src, dst, zero_dst)
            assert restricted_map(images, dst) == expected, name


# --- elimination against the textbook oracle -----------------------------------

def oracle_kernel(field, rows, ncols):
    """Kernel basis read off the oracle's RREF, then put in RREF itself."""
    pivots, reduced = naive_rref(rows, field.p)
    vectors = []
    for j in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[j] = field.one
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(row[j])
        vectors.append(v)
    return naive_rref(vectors, field.p)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_matches_oracle_on_fixed_matrix(field):
    rows = [
        [field.scalar(v) for v in row]
        for row in [[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 2, 1], [2, 2, 2, 2]]
    ]
    m = mk(field, rows)
    pivots, reduced = naive_rref(rows, field.p)
    R_pivots, R = m.rref()
    assert R_pivots == tuple(pivots)
    assert R.dense_rows() == reduced
    assert m.rank() == len(pivots)
    ker = m.kernel_basis()
    assert (list(ker.pivots), ker.basis.dense_rows()) == oracle_kernel(field, rows, 4)
    img = m.image_basis()
    columns = [list(col) for col in zip(*rows)]
    assert (list(img.pivots), img.basis.dense_rows()) == naive_rref(columns, field.p)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([GF2, GF3, GF5, QQ]),
    st.data(),
)
def test_rref_matches_oracle_property(nrows, ncols, field, data):
    cells = {}
    for r in range(nrows):
        for c in range(ncols):
            v = data.draw(st.integers(min_value=-3, max_value=3))
            if v:
                cells[r, c] = field.scalar(v)
    m = Matrix.from_entries(field, nrows, ncols, cells)
    rows = m.dense_rows()
    pivots, reduced = naive_rref(rows, field.p)
    R_pivots, R = m.rref()
    assert R_pivots == tuple(pivots)
    assert R.dense_rows() == reduced
    E_pivots, E = m.rref(reduced=False)
    if field.is_prime_field:
        # an echelon form: the RREF pivots, each row starting at its unit
        # pivot, spanning the same row space
        assert E_pivots == tuple(pivots)
        for i, row in E.rows.items():
            assert min(row) == E_pivots[i] and row[E_pivots[i]] == 1
        assert Subspace.from_matrix(E) == Subspace(R_pivots, R)
    else:
        assert (E_pivots, E) == (R_pivots, R)
    ker = m.kernel_basis()
    assert (list(ker.pivots), ker.basis.dense_rows()) == oracle_kernel(field, rows, ncols)
    img = m.image_basis()
    columns = [[row[c] for row in rows] for c in range(ncols)]
    assert (list(img.pivots), img.basis.dense_rows()) == naive_rref(columns, field.p)
    assert (img.ambient_dim, ker.ambient_dim) == (nrows, ncols)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([GF2, GF3, GF5, QQ]),
    st.data(),
)
def test_rank_equals_transpose_rank(nrows, ncols, field, data):
    cells = {}
    for r in range(nrows):
        for c in range(ncols):
            v = data.draw(st.integers(min_value=-2, max_value=2))
            if v:
                cells[r, c] = field.scalar(v)
    m = Matrix.from_entries(field, nrows, ncols, cells)
    assert m.rank() == m.transpose().rank()
    assert m.kernel_basis().dim + m.rank() == m.ncols


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.sampled_from([GF2, GF5, QQ]),
    st.data(),
)
def test_rank_is_taken_on_either_side(short, extra, tall, field, data):
    # strictly tall or strictly wide: over GF(p) rank() eliminates the
    # transpose on one of the two orientations and the matrix itself on the
    # other; over Q it eliminates the matrix itself, a tall one row by row
    nrows, ncols = (short + extra, short) if tall else (short, short + extra)
    cells = {}
    for r in range(nrows):
        for c in range(ncols):
            v = field.scalar(data.draw(st.integers(min_value=-2, max_value=2)))
            if v != 0:
                cells[r, c] = v
    m = Matrix.from_entries(field, nrows, ncols, cells)
    pivots, _reduced = naive_rref(m.dense_rows(), field.p)
    assert m.rank() == m.transpose().rank() == len(pivots)


def _well_formed(m):
    """``m.rows`` holds nonzero rows of nonzero scalars, every index in range."""
    for r, row in m.rows.items():
        assert row and 0 <= r < m.nrows
        assert all(0 <= c < m.ncols and v != 0 for c, v in row.items())
    return True


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([GF2, GF3, QQ]),
    st.data(),
)
def test_every_operation_keeps_the_row_format(nrows, ncols, width, field, data):
    def ints(r, c):
        return [[data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(c)]
                for _ in range(r)]

    dense = ints(nrows, ncols)
    scalars = [[field.scalar(v) for v in row] for row in dense]
    cells = {(r, c): v for r, row in enumerate(scalars) for c, v in enumerate(row)}
    a = Matrix.from_rows(field, scalars, ncols)
    # zero entries are offered to every constructor, and each drops them
    integer = Matrix.from_entries(QQ, nrows, ncols,
                                  {(r, c): n for r, row in enumerate(dense) for c, n in enumerate(row)})
    made = [
        a,
        Matrix.from_entries(field, nrows, ncols, cells),
        Matrix.from_entries(field, nrows, ncols,
                                {(r, c): n for r, row in enumerate(dense) for c, n in enumerate(row)}),
    ]
    assert made[1] == made[2] == a
    b = Matrix.from_rows(field, [[field.scalar(v) for v in row] for row in ints(ncols, width)], width)
    ker = a.kernel_basis()
    results = made + [
        Matrix.zeros(field, nrows, ncols), Matrix.identity(field, ncols), integer,
        a.transpose(), integer.transpose(field), a @ b, a.rref()[1], a.rref(reduced=False)[1],
        integer.rref(field)[1],
        ker.basis, a.image_basis().basis, ker.residues(a),
    ]
    assert all(_well_formed(m) for m in results)
    # a product that cancels to zero holds no row at all
    assert a @ ker.basis.transpose() == Matrix.zeros(field, nrows, ker.dim)
    assert (a @ ker.basis.transpose()).rows == {}


FIELD_OF_PRIME = {2: GF2, 3: GF3, 5: GF5}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([2, 3, 5]),
    st.data(),
)
def test_rank_over_rationals_reduces_mod_p(nrows, ncols, p, data):
    # computing the rank over the rationals and reducing the pivots mod p
    # agrees with the mod-p rank whenever every pivot reduces to a nonzero
    # residue (denominator and numerator both coprime to p); small matrices only
    ints = [
        [data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    rows = [[Fraction(v) for v in row] for row in ints]
    pivot_values = []
    rank_q = 0
    for col in range(ncols):
        piv = next((i for i in range(rank_q, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank_q], rows[piv] = rows[piv], rows[rank_q]
        pivot_values.append(rows[rank_q][col])
        for i in range(rank_q + 1, nrows):
            if rows[i][col]:
                f = rows[i][col] / rows[rank_q][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank_q])]
        rank_q += 1
    clean = all(
        v.denominator % p != 0 and v.numerator % p != 0 for v in pivot_values
    )
    m_p = Matrix.from_entries(
        FIELD_OF_PRIME[p], nrows, ncols,
        {(r, c): v for r, row in enumerate(ints) for c, v in enumerate(row)},
    )
    if clean:
        assert m_p.rank() == rank_q
    else:
        assert m_p.rank() <= rank_q


def test_matmul_and_apply():
    a = mk(GF3, [[1, 2], [0, 1]])
    b = mk(GF3, [[1, 1], [1, 0]])
    assert (a @ b) == mk(GF3, [[0, 1], [1, 0]])
    assert a @ mk(GF3, [[1], [1]]) == mk(GF3, [[0], [1]])


def test_sum_drops_cancelled_entries_and_rows():
    a = mk(GF3, [[1, 2], [0, 1]])
    b = mk(GF3, [[2, 2], [0, 2]])
    assert a + b == mk(GF3, [[0, 1], [0, 0]])
    assert (a + b).rows == {0: {1: 1}}
    assert a.rows == {0: {0: 1, 1: 2}, 1: {1: 1}}   # the summands are untouched
    ints = mk(QQ, [[1, -1], [2, 0]])
    assert (ints + mk(QQ, [[-1, 1], [0, Fraction(1, 2)]])).rows == {1: {0: 2, 1: Fraction(1, 2)}}


MISMATCHES = {
    "entry_below_range": (lambda: Matrix.from_entries(QQ, 2, 2, {(0, -1): 1}), IndexError,
                          "entry (0, -1) outside 2x2"),
    "entry_past_range": (lambda: Matrix.from_entries(GF3, 2, 2, {(2, 0): 1}), IndexError,
                         "entry (2, 0) outside 2x2"),
    "ragged_rows": (lambda: Matrix.from_rows(QQ, [[1, 2], [3]]), ValueError, "ragged rows"),
    "product_fields": (lambda: mk(GF3, [[1]]) @ mk(GF5, [[1]]), ValueError, "field mismatch"),
    "product_shapes": (lambda: mk(GF3, [[1, 2]]) @ mk(GF3, [[1, 2]]), ValueError,
                       "cannot multiply 1x2 by 1x2"),
    "sum_fields": (lambda: mk(GF3, [[1]]) + mk(GF5, [[1]]), ValueError, "field mismatch"),
    "sum_shapes": (lambda: mk(GF3, [[1, 2]]) + mk(GF3, [[1], [2]]), ValueError,
                   "cannot add 1x2 and 2x1"),
    "reading_rows": (lambda: Reading([0, 1], 2) @ mk(QQ, [[1, 2, 3]]), ValueError,
                     "cannot multiply 2x2 by 1x3"),
    "reading_columns": (lambda: mk(QQ, [[1, 2, 3]]) @ Reading([0, 1], 2), ValueError,
                        "cannot multiply 1x3 by 2x2"),
    "residue_length": (lambda: Subspace.from_matrix(mk(QQ, [[1, 0]])).residues(mk(QQ, [[1, 0, 0]])),
                       ValueError, "vector length mismatch"),
    "quotient_ambient_dims": (lambda: quotient_dim(Subspace.zero(QQ, 2), Subspace.zero(QQ, 3)),
                              NotASubspace, "ambient space mismatch"),
    "quotient_ambient_fields": (lambda: quotient_dim(Subspace.zero(QQ, 2), Subspace.zero(GF3, 2)),
                                NotASubspace, "ambient space mismatch"),
}


@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_mismatched_operands_are_refused_with_their_reason(name):
    call, kind, message = MISMATCHES[name]
    with pytest.raises(kind) as refused:
        call()
    assert str(refused.value) == message


def test_serialization_triplets():
    m = mk(QQ, [[0, Fraction(1, 2)], [3, 0]])
    assert m.to_json_dict() == {
        "rows": 2,
        "cols": 2,
        "triplets": [[0, 1, "1/2"], [1, 0, "3"]],
    }



# --- Q: modular elimination against the Fraction engine ------------------------

def _q_complexes():
    for name, cat in FIXTURES.items():
        max_m = 2 if cat.n_morphisms <= 4 else 1
        for complex_name, mats in _complexes(cat, QQ, max_m).items():
            for m, d in enumerate(mats):
                yield (name, complex_name, m), d


def _with_denominators(m):
    """``m`` with cell (r, c) divided by 1 + (r + c) % 3: mixed denominators in a row."""
    return Matrix.from_entries(QQ, m.nrows, m.ncols,
                               {(r, c): Fraction(v, 1 + (r + c) % 3) for r, c, v in m.entries()})


def _q_spaces(m):
    """(rref, rank, kernel, image) as pivots and dense rows, from ``Matrix``."""
    pivots, R = m.rref()
    ker, img = m.kernel_basis(), m.image_basis()
    return ((pivots, R.dense_rows()), m.rank(),
            (ker.pivots, ker.basis.dense_rows()), (img.pivots, img.basis.dense_rows()))


def _fraction_spaces(m):
    """The same four, from the Fraction engine."""
    pivots, R = fraction_rref(m)
    ker_pivots, ker = fraction_kernel(m)
    img_pivots, img = fraction_rref(m.transpose())
    return ((pivots, R.dense_rows()), len(pivots),
            (ker_pivots, ker.dense_rows()), (img_pivots, img.dense_rows()))


def test_q_elimination_matches_the_fraction_engine_on_every_fixture():
    for label, d in _q_complexes():
        for m in (d, _with_denominators(d)):
            assert _q_spaces(m) == _fraction_spaces(m), label
        # the rows kernel_basis hands to Subspace.from_matrix, with denominators
        _pivots, K = fraction_kernel(d)
        for k in (K, _with_denominators(K)):
            pivots, R = k.rref()
            assert (pivots, R) == fraction_rref(k), label


@contextmanager
def _routes():
    """Record each ``_rref_sparse`` call, "modular" with a modulus and
    "fraction" without, and each verdict of a lift."""
    eliminations, verdicts = [], []
    eliminate, verify = matrix._rref_sparse, matrix._verified

    def counted_elimination(rows, ncols, p, *options):
        eliminations.append("modular" if p else "fraction")
        return eliminate(rows, ncols, p, *options)

    def counted_verification(*args):
        verdicts.append(verify(*args))
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "_rref_sparse", counted_elimination)
        patch.setattr(matrix, "_verified", counted_verification)
        yield eliminations, verdicts


def test_catalog_q_eliminations_verify_on_the_first_lift():
    # the traffic that justifies one prime: every Q elimination of the
    # catalog's dimensions and Theorem A and B certificates lifts modulo
    # _PRIME and passes the exact check, so none reaches the Fraction engine
    for name, cat in FIXTURES.items():
        max_m = 2 if cat.n_morphisms <= 4 else 1
        with _routes() as (eliminations, verdicts):
            hochschild_cohomology_dims(cat, QQ, max_m)
            theorem_a_report(cat, QQ, max_m)
            theorem_b_report(cat, QQ)
        assert eliminations and set(eliminations) == {"modular"}, name
        assert verdicts == [True] * len(eliminations), name


def _block_diagonal(rows, extra):
    """Integer rows of ``rows`` and of the one row ``extra`` on disjoint columns."""
    width = len(rows[0]) if rows else 0
    padded = [list(r) + [0] * len(extra) for r in rows]
    return padded + [[0] * width + list(extra)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.data(),
)
def test_q_elimination_lift_and_fallback_branches(nrows, ncols, fallback, data):
    # beside a block of height 2^4, whose RREF entries are ratios of minors
    # below 2^15 (Hadamard), a row (a, ±(ka + 1)) reduces to (1, ±(k + 1/a));
    # a's size picks the branch: up to 2^7 the prime lifts every entry, above
    # 2^15 it cannot lift 1/a and the Fraction engine answers
    bound = 2 ** 4
    rows = [[data.draw(st.integers(min_value=-bound, max_value=bound)) for _ in range(ncols)]
            for _ in range(nrows)]
    lo, hi = (2 ** 16, 2 ** 29) if fallback else (1, 2 ** 7)
    a = data.draw(st.integers(min_value=lo, max_value=hi))
    k = data.draw(st.integers(min_value=0, max_value=2 ** 20 if fallback else 2 ** 7))
    sign = data.draw(st.sampled_from([1, -1]))
    rows = _block_diagonal(rows, (a, sign * (k * a + 1)))
    m = Matrix.from_entries(QQ, len(rows), len(rows[0]), {
        (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)})
    with _routes() as (eliminations, verdicts):
        pivots, R = m.rref()
    expected = naive_rref([[Fraction(v) for v in row] for row in rows], None)
    assert (list(pivots), R.dense_rows()) == expected
    if fallback:
        # the lift fails, or finds a small fraction that the check refuses
        assert eliminations == ["modular", "fraction"]
        assert verdicts in ([], [False])
    else:
        assert eliminations == ["modular"] and verdicts == [True]


def test_q_elimination_rejects_a_prime_that_divides_a_pivot():
    p = matrix._PRIME
    m = mk(QQ, [[p, 0], [0, 1]])
    with _routes() as (eliminations, verdicts):
        pivots, R = m.rref()
    # mod p the first row vanishes: rank 1 with pivot column 1, which the
    # exact check refuses because (p, 0) is not a multiple of (0, 1); the
    # Fraction engine answers
    assert eliminations == ["modular", "fraction"]
    assert verdicts == [False]
    assert (pivots, R) == ((0, 1), Matrix.identity(QQ, 2)) == fraction_rref(m)
    assert m.rank() == 2 and m.kernel_basis().dim == 0


def test_q_elimination_clears_denominators_once(monkeypatch):
    # the prime, the exact check of its lift and the Fraction engine read
    # the same integer rows, built once per elimination
    calls = []
    cleared = Matrix._cleared_rows
    monkeypatch.setattr(Matrix, "_cleared_rows", lambda self: calls.append(self) or cleared(self))
    m = mk(QQ, [[2, Fraction(1, 3)], [0, Fraction(1, 2)]])
    with _routes() as (eliminations, verdicts):
        assert m.rref() == ((0, 1), Matrix.identity(QQ, 2))
    assert eliminations == ["modular"] and verdicts == [True]
    p = matrix._PRIME
    refused = mk(QQ, [[p, 0], [0, Fraction(1, 2)]])
    with _routes() as (eliminations, verdicts):
        assert refused.rref() == ((0, 1), Matrix.identity(QQ, 2))
    assert eliminations == ["modular", "fraction"] and verdicts == [False]
    unlifted = mk(QQ, [[65537, 1], [131074, 2]])
    with _routes() as (eliminations, verdicts):
        assert unlifted.rref() == ((0,), mk(QQ, [[1, Fraction(1, 65537)]]))
    assert eliminations == ["modular", "fraction"] and verdicts == []
    assert calls == [m, refused, unlifted]


def test_q_elimination_falls_back_when_no_prime_verifies():
    # 1/65537 has no lift with numerator and denominator below 2^15, and
    # 1/100003 lifts to -21474/19225, which the exact check refuses: either
    # way the Fraction engine answers
    for a, expected_verdicts in ((65537, []), (100003, [False])):
        m = mk(QQ, [[a, 1], [2 * a, 2]])
        with _routes() as (eliminations, verdicts):
            pivots, R = m.rref()
        assert eliminations == ["modular", "fraction"]
        assert verdicts == expected_verdicts
        assert (pivots, R) == fraction_rref(m) == ((0,), mk(QQ, [[1, Fraction(1, a)]]))


def test_the_prime_is_the_largest_below_2_to_the_31():
    assert matrix._PRIME == 2 ** 31 - 1 and is_prime(matrix._PRIME)
    # so a lift reaches numerators and denominators below 2^15
    assert math.isqrt(matrix._PRIME // 2) == 2 ** 15 - 1


_fractions = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                       st.integers(min_value=1, max_value=6))
_small_ints = st.integers(min_value=-9, max_value=9)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=5), st.data())
def test_q_rref_with_denominators_matches_oracle(nrows, ncols, data):
    rows = [[data.draw(_fractions) for _ in range(ncols)] for _ in range(nrows)]
    pivots, R = Matrix.from_rows(QQ, rows, ncols).rref()
    assert (list(pivots), R.dense_rows()) == naive_rref(rows, None)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_q_product_matches_the_fraction_product(n, k, m, data):
    # Fraction x Fraction, int x Fraction and int x int: each scalar is
    # multiplied as it stands, and a product of integer matrices holds ints
    a = [[data.draw(_fractions) for _ in range(k)] for _ in range(n)]
    b = [[data.draw(_fractions) for _ in range(m)] for _ in range(k)]
    int_a = [[data.draw(_small_ints) for _ in range(k)] for _ in range(n)]
    int_b = [[data.draw(_small_ints) for _ in range(m)] for _ in range(k)]
    for left, right in ((a, b), (int_a, b), (int_a, int_b)):
        product = Matrix.from_rows(QQ, left, k) @ Matrix.from_rows(QQ, right, m)
        assert product == Matrix.from_rows(QQ, dense_product(left, right, m), m)
        kind = int if right is int_b else Fraction
        assert all(type(v) is kind for _r, _c, v in product.entries())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4), st.data())
def test_q_products_never_change_their_factors(n, k, data):
    # a factor reused on either side of several products, as a memoized
    # differential is: no product writes into its integer rows or into
    # the matrix
    a = [[data.draw(_fractions) for _ in range(k)] for _ in range(n)]
    b = [[data.draw(_fractions) for _ in range(n)] for _ in range(k)]
    A, B = Matrix.from_rows(QQ, a, k), Matrix.from_rows(QQ, b, n)
    first = A @ B
    before = {r: dict(row) for r, row in A.rows.items()}
    assert B @ A == Matrix.from_rows(QQ, dense_product(b, a, k), k)
    assert A @ B == first == Matrix.from_rows(QQ, dense_product(a, b, n), n)
    assert A.rows == before


def _reading(rng, nrows, ncols) -> Reading:
    """Row i reads a column drawn with repeats, so columns may be read twice or never."""
    return Reading(array("l", (rng.randrange(ncols) for _ in range(nrows))), ncols)


def _dense_field_product(a: Matrix, b: Matrix) -> Matrix:
    """The textbook product over a's field, entry by entry."""
    f, da, db = a.field, a.dense_rows(), b.dense_rows()
    out = [[f.zero] * b.ncols for _ in range(a.nrows)]
    for i in range(a.nrows):
        for j in range(b.ncols):
            for k in range(a.ncols):
                out[i][j] = f.add(out[i][j], f.mul(da[i][k], db[k][j]))
    return Matrix.from_rows(f, out, b.ncols)


def _random_matrix(field, rng, nrows, ncols) -> Matrix:
    return Matrix.from_rows(field, [[rng.randrange(-2, 3) for _ in range(ncols)]
                                    for _ in range(nrows)], ncols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_products_with_a_reading_matrix_match_the_textbook_product(field):
    # a Reading (one 1 per row, as T is) moves rows or columns, and its
    # transpose copies columns; repeated columns make entries add, which
    # can cancel
    rng = random.Random(7)
    for _ in range(40):
        n, k, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        t = _reading(rng, n, k)
        dense_t, dense_x = reduced(t.matrix(), field), reduced(t.T.matrix(), field)
        assert dense_x == dense_t.transpose()
        a, b = _random_matrix(field, rng, k, m), _random_matrix(field, rng, m, n)
        ta, bt = t @ a, b @ t
        assert ta == _dense_field_product(dense_t, a) and bt == _dense_field_product(b, dense_t)
        assert all(row is a.rows[t.cols[i]] for i, row in ta.rows.items())
        assert all(row for row in bt.rows.values())
        d = _random_matrix(field, rng, m, k)
        assert d @ t.T == _dense_field_product(d, dense_x)
        # R Rᵀ and Rᵀ R against I, witness included, as the textbook products give them
        assert t.identity_difference(field) == \
            _dense_field_product(dense_t, dense_x).first_difference(Matrix.identity(field, n))
        assert t.T.identity_difference(field) == \
            _dense_field_product(dense_x, dense_t).first_difference(Matrix.identity(field, k))
        with pytest.raises(ValueError):
            _random_matrix(field, rng, m, n + 1) @ t


def test_column_move_drops_cancelled_entries():
    # columns 0 and 1 both go to column 0, and 1 + 1 = 0 over GF(2)
    t = Reading([0, 0], 1)
    a = Matrix(GF2, 2, 2, {0: {0: 1, 1: 1}, 1: {1: 1}})
    assert (a @ t).rows == {1: {0: 1}}


# --- GF(2): the bitset tail against the dict loop ---------------------------------

@contextmanager
def _tail_threshold(density, min_cells=0):
    """Force the density at which GF(2) elimination moves to bitsets; records each switch."""
    switches = []
    tail = matrix._gf2_tail

    def counted(rows, chosen, ncols):
        switches.append(len(chosen))
        return tail(rows, chosen, ncols)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "_GF2_TAIL_DENSITY", density)
        patch.setattr(matrix, "_GF2_TAIL_MIN_CELLS", min_cells)
        patch.setattr(matrix, "_gf2_tail", counted)
        yield switches


def _gf2_answers(m):
    """Everything elimination reports: the RREF, the echelon pivots, the rank and the kernel."""
    pivots, R = m.rref()
    E_pivots, E = m.rref(reduced=False)
    for i, row in E.rows.items():
        assert min(row) == E_pivots[i] and row[E_pivots[i]] == 1
    assert Subspace.from_matrix(E) == Subspace(pivots, R)
    return (pivots, R), E_pivots, m.rank(), m.kernel_basis()


def _gf2_matrix(nrows, ncols, masks):
    """The GF(2) matrix whose row r has a 1 at column c exactly when bit c of masks[r] is set."""
    return Matrix.from_entries(
        GF2, nrows, ncols,
        {(r, c): 1 for r, x in enumerate(masks) for c in range(ncols) if x >> c & 1})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=1, max_value=24),
    st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    st.data(),
)
def test_gf2_tail_matches_the_dict_loop(nrows, ncols, density, data):
    # 0 moves to bitsets after the first pivot, the others part way or never
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=2 ** ncols - 1),
                               min_size=nrows, max_size=nrows))
    m = _gf2_matrix(nrows, ncols, masks)
    with _tail_threshold(math.inf):
        sparse = _gf2_answers(m)
    with _tail_threshold(density):
        assert _gf2_answers(m) == sparse
    pivots, reduced = naive_rref(m.dense_rows(), 2)
    assert sparse[0][0] == tuple(pivots) and sparse[0][1].dense_rows() == reduced


def test_gf2_tail_runs_on_every_catalog_differential():
    for name, cat in FIXTURES.items():
        max_m = 2 if cat.n_morphisms <= 4 else 1
        for complex_name, mats in _complexes(cat, GF2, max_m).items():
            for m, d in enumerate(mats):
                for side in (d, d.transpose()):
                    with _tail_threshold(math.inf) as switches:
                        sparse = _gf2_answers(side)
                    assert not switches
                    with _tail_threshold(0.0) as switches:
                        assert _gf2_answers(side) == sparse, (name, complex_name, m)
                    assert switches or sparse[2] <= 1, (name, complex_name, m)


def test_gf2_tail_waits_for_fill_on_a_large_block():
    # at the module's own constants: a dense 8 x 8 block is too small; a
    # 300 x 3000 matrix with one 1 per row is too sparse while its block is
    # large; J + I of size 300 (its own inverse over GF(2)) switches after
    # its first pivot
    def all_but_diagonal(n):
        return _gf2_matrix(n, n, [(1 << n) - 1 - (1 << r) for r in range(n)])

    spread = Matrix.from_entries(GF2, 300, 3000, {(r, 10 * r): 1 for r in range(300)})
    cases = [(all_but_diagonal(8), []), (spread, []), (all_but_diagonal(300), [1])]
    for m, expected in cases:
        with _tail_threshold(matrix._GF2_TAIL_DENSITY, matrix._GF2_TAIL_MIN_CELLS) as switches:
            pivots, _R = m.rref(reduced=False)
        assert switches == expected and len(pivots) == m.nrows


def test_gf2_fill_count_switches_at_fixed_pivots_on_cn6():
    # the fill count decides where the sweep moves to bitsets, and no answer
    # depends on it, so only the switch points show a drift in the count:
    # the relative complex of cn:6 over GF(2) switches after 1, 1 and 526
    # pivots at the module's own constants
    with _tail_threshold(matrix._GF2_TAIL_DENSITY, matrix._GF2_TAIL_MIN_CELLS) as switches:
        dims = relative_cohomology_dims(dataclasses.replace(builtin("cn:6")), GF2, 4)
    assert dims == [6] * 5
    assert switches == [1, 1, 526]


def test_only_gf2_enters_the_tail(monkeypatch):
    monkeypatch.setattr(matrix, "_GF2_TAIL_DENSITY", 0.0)
    monkeypatch.setattr(matrix, "_GF2_TAIL_MIN_CELLS", 0)
    tail = matrix._gf2_tail

    def no_tail(*args):
        raise AssertionError("bitset tail entered")

    monkeypatch.setattr(matrix, "_gf2_tail", no_tail)
    rows = [[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 2, 1], [2, 2, 2, 2]]
    for field in (GF3, GF5, QQ):
        m = mk(field, rows)
        assert (m.rank(), m.kernel_basis().dim) == (m.rref()[1].nrows, 4 - m.rank())
    # Theorem B over GF(3) and over Q, as in the benchmark's structure ops
    d = relative_differential_matrix(FIXTURES["s3"], 1)
    assert d.kernel_basis(GF3).dim == d.ncols - d.rank(GF3)
    # the modular pass over Q
    assert d.rref() == fraction_rref(d)
    with pytest.raises(AssertionError, match="bitset tail entered"):
        mk(GF2, rows).rref()
    # the engine's field is its modulus, so a modular pass over Q modulo 2
    # is GF(2) elimination, tail included; then the lift and the Fraction
    # fallback
    monkeypatch.setattr(matrix, "_gf2_tail", tail)
    monkeypatch.setattr(matrix, "_PRIME", 2)
    with _tail_threshold(0.0) as switches:
        assert d.rref() == fraction_rref(d)
    assert switches
    with _routes() as (eliminations, verdicts):
        assert mk(QQ, [[7, 1], [14, 2]]).rref() == ((0,), mk(QQ, [[1, Fraction(1, 7)]]))
    assert eliminations == ["modular", "fraction"] and verdicts == [False]


# --- tall matrices: reduced one row at a time ---------------------------------------

def _tall_cases(p, rng):
    """Tall integer matrices as ``(ncols, rows)``, mod p or, when p is None,
    of small signed ints: random ones and the edge cases."""
    def entry():
        return rng.randrange(1, p) if p else rng.choice([-3, -2, -1, 1, 2, 3])

    for _ in range(12):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(ncols + 1, 3 * ncols + 4)
        density = rng.choice([0.1, 0.3, 0.7])
        rows = [[entry() if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        # a zero row, a duplicate and a multiple of an earlier row
        rows.insert(rng.randrange(nrows), [0] * ncols)
        rows.append(list(rows[rng.randrange(nrows)]))
        k = rng.randrange(2, p) if p else rng.choice([-2, 2, 3])
        rows.append([k * v % p if p else k * v for v in rows[rng.randrange(nrows)]])
        yield ncols, rows
    yield 3, [[0, 0, 0]] * 5                                   # rank 0
    yield 1, [[0], [entry()], [0], [1]]                        # one column
    yield 3, [[1, 2, 0], [0, 1, 1], [1, 1, 1], [2, 1, 1], [0, 0, 1]]  # full rank
    yield 2, [[1, 1], [2, 2], [-1 % p if p else -1] * 2, [0, 0]]  # proportional rows only


def _as_dicts(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _dense(ncols, rows):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


@pytest.mark.parametrize("p", [3, 5, matrix._PRIME, None])
@pytest.mark.parametrize("seed", range(3))
def test_row_by_row_rref_matches_the_sweep_and_the_oracle(p, seed):
    # p None is the exact engine over Q, on ints and Fractions
    for ncols, rows in _tall_cases(p, random.Random(seed)):
        assert len(rows) > ncols
        by_rows = matrix._rref_by_rows(_as_dicts(rows), p)
        swept = matrix._back_substitute(
            sweep_rows := _as_dicts(rows), matrix._echelon(sweep_rows, ncols, p), p)
        assert by_rows == swept, (ncols, rows)
        pivots, reduced = naive_rref(rows, p)
        assert (by_rows[0], _dense(ncols, by_rows[1])) == (pivots, reduced), (ncols, rows)
        assert all(0 not in row.values() for row in by_rows[1])


@contextmanager
def _sweeps():
    """Record ``(rows, cols)`` of each matrix that reaches the column sweep ``_echelon``."""
    shapes = []
    echelon = matrix._echelon

    def recorded(rows, ncols, *args, **kwargs):
        shapes.append((len(rows), ncols))
        return echelon(rows, ncols, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "_echelon", recorded)
        yield shapes


def test_only_tall_matrices_over_odd_p_and_q_skip_the_sweep():
    # rank 2 over GF(3) and over Q, so the kernel is one row
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1], [2, 4, 0], [1, 1, -1], [0, 2, 2]]
    for field in (GF3, QQ):
        m = mk(field, rows)
        with _sweeps() as shapes:
            pivots, R = m.rref()
            ker = m.kernel_basis()
        # only the kernel's own basis, 1 x 3, is swept
        assert shapes == [(1, 3)], field
        assert (list(pivots), R.dense_rows()) == naive_rref(m.dense_rows(), field.p)
        assert (list(ker.pivots), ker.basis.dense_rows()) == oracle_kernel(field, m.dense_rows(), 3)
    # a rank over odd p and over Q reduces the tall side as it stands, and
    # over GF(2) sweeps the narrow side forward
    with _sweeps() as shapes:
        assert mk(GF3, rows).rank() == mk(QQ, rows).rank() == 2
    assert shapes == []
    with _sweeps() as shapes:
        assert mk(GF2, rows).rank() == 2
    assert shapes == [(3, 6)]
    # GF(2) keeps the sweep and its bitset tail; so does a wide matrix
    with _sweeps() as shapes:
        mk(GF2, rows).rref()
        mk(GF3, rows).transpose().rref()
    assert shapes == [(4, 3), (3, 6)]  # two of the six rows vanish mod 2


@contextmanager
def _rank_routes():
    """Record the shape of each ``Matrix.transpose`` and the route of each
    engine run: "rows" (``_rref_by_rows``) or "sweep" (``_echelon``), with
    " on fractions" when its rows hold a Fraction."""
    transposes, routes = [], []
    transpose = Matrix.transpose

    def transposed(self, *args, **kwargs):
        transposes.append((self.nrows, self.ncols))
        return transpose(self, *args, **kwargs)

    def recorded(route, engine):
        def run(rows, *args, **kwargs):
            exact = any(isinstance(v, Fraction) for row in rows for v in row.values())
            routes.append(route + " on fractions" * exact)
            return engine(rows, *args, **kwargs)
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "transpose", transposed)
        patch.setattr(matrix, "_rref_by_rows", recorded("rows", matrix._rref_by_rows))
        patch.setattr(matrix, "_echelon", recorded("sweep", matrix._echelon))
        yield transposes, routes


def test_rank_route_table():
    # whether rank transposes, and the route the engine takes, per shape and
    # field; the rank itself is the naive one
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1], [2, 4, 0], [1, 1, -1], [0, 2, 2]]
    poset = relative_differential_matrix(FIXTURES["chain:3"], 2)
    assert poset.nrows > poset.ncols >= len(poset.rows)
    wide = mk(GF3, rows).transpose()
    cases = [
        # odd p, more nonzero rows than columns: reduced row by row as it stands
        (mk(GF3, rows), GF3, [], ["rows"]),
        # odd p, tall but no more nonzero rows than columns (a poset
        # differential): its transpose swept
        (poset, GF3, [(15, 10)], ["sweep"]),
        # GF(2), tall: its transpose swept, for the bitset tail
        (mk(GF2, rows), GF2, [(6, 3)], ["sweep"]),
        # wide: swept as it stands
        (wide, GF3, [], ["sweep"]),
        # Q, tall: never transposed; modulo one prime, row by row, no Fraction
        (mk(QQ, rows), QQ, [], ["rows"]),
    ]
    for m, field, expected_transposes, expected_routes in cases:
        with _rank_routes() as (transposes, routes):
            rank = m.rank(field)
        assert (transposes, routes) == (expected_transposes, expected_routes), (m, field)
        assert rank == naive_rank(reduced(m, field).dense_rows(), field.p), (m, field)


@pytest.mark.parametrize("field", [GF3, GF5], ids=str)
def test_tall_rank_over_odd_p_matches_the_naive_rank(field):
    # the tall differentials of the catalog, ranked row by row with no sweep
    tall = [d for cat in FIXTURES.values() for m in (0, 1)
            for d in (reduced(hochschild_differential_matrix(cat, m), field),
                      reduced(relative_differential_matrix(cat, m), field))
            if len(d.rows) > d.ncols and d.nrows * d.ncols <= 30_000]
    assert len(tall) >= 20
    for d in tall:
        with _sweeps() as shapes:
            rank = d.rank()
        assert shapes == []
        assert rank == naive_rank(d.dense_rows(), field.p), d


def test_tall_q_matrix_whose_rank_drops_mod_the_first_prime():
    # modulo 2^31 - 1 all three rows are multiples of (1, 1): rank 1, which
    # the exact check refuses; the Fraction engine reduces the tall rows
    p = matrix._PRIME
    m = mk(QQ, [[1, 1], [1, 1 + p], [2, 2]])
    with _routes() as (eliminations, verdicts):
        pivots, R = m.rref()
    assert eliminations == ["modular", "fraction"] and verdicts == [False]
    assert (pivots, R) == ((0, 1), Matrix.identity(QQ, 2))
    assert (list(pivots), R.dense_rows()) == naive_rref(m.dense_rows(), None)
    assert (pivots, R) == fraction_rref(m)
    ker = m.kernel_basis()
    assert (ker.pivots, ker.basis) == fraction_kernel(m) == ((), Matrix.zeros(QQ, 0, 2))
    assert m.rank() == 2


# --- ints are Q scalars ---------------------------------------------------------------

def test_the_fraction_engine_on_int_rows_returns_ints_and_fractions():
    # the pivots 2 and 4 are not units over Z: their inverses must be
    # Fractions, never floats, on both routes (tall: row by row; wide: the sweep)
    rows = [{0: 2, 1: 3, 2: -1}, {0: 4, 1: 1}, {1: 5, 2: 7}, {0: 1, 2: 3}]
    tall = Matrix.from_entries(QQ, 4, 3, {(r, c): v for r, row in enumerate(rows) for c, v in row.items()})
    for m in (tall, tall.transpose()):
        engine_rows = [dict(m.rows[r]) for r in sorted(m.rows)]
        pivots, reduced = matrix._rref_sparse(engine_rows, m.ncols, None)
        assert {type(v) for row in reduced for v in row.values()} <= {int, Fraction}
        assert (tuple(pivots), Matrix(QQ, len(pivots), m.ncols, dict(enumerate(reduced)))) \
            == fraction_rref(m)


def test_no_q_report_on_the_catalog_holds_a_float(monkeypatch):
    # every matrix built while compare, derivations and cohomology run over Q
    built = []
    init = Matrix.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Matrix, "__init__", recording)
    for name, cat in FIXTURES.items():
        checks = [c for rec in theorem_a_report(cat, QQ, 2).degrees for c in rec.checks]
        assert not any(isinstance(v, float) for c in checks for v in c.first_difference or ())
        try:
            built.append(theorem_b_report(cat, QQ).restricted_matrix)
        except HypothesisViolated:
            pass
        hochschild_cohomology_dims(cat, QQ, 2)
        relative_cohomology_dims(cat, QQ, 2)
    assert built
    for m in built:
        assert all(type(v) in (int, Fraction) for _r, _c, v in m.entries()), m
