"""Exact matrices over GF(p) or Q with deterministic elimination.

A matrix is its nonzero rows: ``Matrix.rows`` maps a row index to a dict
column -> nonzero scalar, and holds no empty row (the differentials of a
poset are mostly zero rows).  Elimination, products, subspace residues and
the modular lift all work on these row dicts, so no operation
converts between formats.  The engine takes a field as one int, its
modulus: p for GF(p), where each row update is reduced mod p, or None for
exact arithmetic on ints and Fractions over Q.  ``_rref_sparse`` picks
its route by shape and modulus: the column sweep (``_echelon``, with
column-indexed bookkeeping and Markowitz-style row selection, then
``_back_substitute``) for wide and square matrices and for p = 2, and a
row-by-row reduction against a reduced basis (``_rref_by_rows``) for
tall matrices otherwise.

Where a field enters.  The engine's structural matrices (differentials,
coboundaries, the maps T and X) are integer matrices: matrices
over Q whose entries are ints, built once and shared by every field,
since each reaches a field by the base change Z -> k.  Their builders
take no field.  A field enters in two places only:

* an elimination (``rref``, ``rank``, ``kernel_basis``, ``image_basis``
  given a ``field``) reduces the entries mod p inside the row copy or the
  transpose it makes anyway, so no reduced copy of an integer matrix is
  ever held; the same pass refuses a matrix over Q with an entry that is
  no int (``NotAnIntegerMatrix``), which has no base change;
* an identity's verdict: ``first_difference`` (``VerificationResult.of``)
  compares two integer matrices, one of them times a sign, over Z, and
  reduces a difference into the field.  Z -> k is a ring map, so this one
  test decides equality in k, with the reduced matrices' witness.

Over Q, ``Matrix.rref`` eliminates modulo one prime, lifts and certifies.
It clears each row's denominators, runs the engine modulo ``2^31 - 1``,
lifts every entry of the reduced form by rational reconstruction and
verifies the lift exactly over Z: every integer row must leave no residue
against it.  Since ``rank_p <= rank_Q`` for an integer matrix, a lift that
passes spans the row space and is the canonical RREF.  When the lift fails
(an entry past about 2^15) or the check refuses it (the prime divides a
pivot), the engine runs on Fractions instead.  A product adds up the
products of its factors' own scalars, reduced mod p over GF(p): over Q
the product of integer matrices is taken over Z and holds ints.

The sweep processes columns left to right, so the pivot columns are the
RREF pivots, and the result is the canonical reduced row echelon form (RREF
is unique for a given row space).  Ranks, kernels and reported bases are
therefore determined by the matrix alone.  Pivot choice is deterministic:
the sparsest usable row, ties broken by row index.

Over GF(2) the engine switches from sparse to dense once fill sets in, as
in Dumas and Villard, *Computing the rank of large sparse matrices over
finite fields* (CASC 2002).  When the rows not yet chosen fill enough of
the block right of the current pivot, they are all zero left of it; they
are packed into Python ints and finished by XOR, one machine word per 64
columns instead of one dict operation per nonzero (``_gf2_tail``).  The
pivots are the RREF pivots either way, so ranks, the canonical RREF and
kernels do not depend on where the switch happens.  GF(p) for odd p and
Q never switch.

A rank is the number of pivots of any echelon form, so over GF(p)
``Matrix.rank`` skips back-substitution, which on a large differential
triples the nonzeros of the pivot rows; only the consumers of the
canonical RREF (kernels, images, ``Subspace``) back-substitute.

Cohomology dimensions come from ranks: ``cohomology_dims`` takes one
rank per differential after ``check_complex`` has checked
``d_m d_{m-1} = 0`` with a sparse product, building no basis.
``cohomology`` yields each degree's cocycle and coboundary bases with
the dimension; its one caller is
Theorem A's count of the full Hochschild complex of a category with more
than one object, which reads only the dimension (the ``comparison``
docstring says why that walk stays).  ``restricted_map`` writes a map
between two subspaces in their bases, from the images of the source's
basis rows, for Theorem B.

A ``Reading`` is a matrix with a single 1 in each row, such as the
comparison map T, held as the index array of the columns its rows read.
Its products with a ``Matrix``, and those of its transpose, move rows or
columns instead of multiplying; ``Matrix.__matmul__`` never looks for
that shape in a matrix of row dicts.  Whether ``R Rᵀ`` or ``Rᵀ R`` is the
identity, and where it first is not, is read off the index array.

A ``Subspace`` is its canonical RREF and nothing else: the pivot columns
and the dim x n sparse matrix ``Matrix.rref`` returns.  Membership,
containment and coordinates all come from one sparse step, clearing a
vector's pivot columns with the basis rows (``_residue``, through
``Subspace.residues``), so no basis vector is ever written out densely.
The same step checks a modular lift, reduces each row of a tall matrix
and back-substitutes the sweep's pivot rows.  ``restricted_map`` reads
the coordinates of vectors in a subspace as a ``Reading`` of its pivots.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress
from math import isqrt, lcm
from operator import index, lt, mul

from .errors import NotAnIntegerMatrix, NotASubspace, NotChainCompatible
from .fields import QQ, FieldSpec


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of an exact matrix identity check."""

    name: str
    degree: int
    ok: bool
    first_difference: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def of(cls, name: str, degree: int, lhs: "Matrix", rhs: "Matrix",
           field: FieldSpec | None = None, sign: int = 1) -> "VerificationResult":
        """Whether ``lhs == sign * rhs`` in ``field``, with their first
        differing cell when not (``Matrix.first_difference``)."""
        diff = lhs.first_difference(rhs, field, sign)
        return cls(name, degree, diff is None, diff)


class Matrix:
    """Immutable exact matrix.  Build via the ``from_*`` constructors."""

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows: dict):
        """Take ownership of ``rows``, a map row -> {col: scalar} of the nonzero rows.

        The map is kept as given, not copied: every caller drops zero
        scalars and empty rows itself, and either would break equality and
        ``nnz``.  Rows are never mutated once they are a matrix's, so
        matrices may share them.
        """
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_entries(cls, field, nrows, ncols, entries) -> "Matrix":
        """``entries``: mapping or iterable of ((r, c), value) in field scalars.

        Over GF(p) each value is an int, reduced mod p; over Q an int or a
        Fraction.  Any other value raises TypeError naming its cell.
        Entries that are zero in the field are dropped.
        """
        p = field.p
        exact = int if p is not None else (int, Fraction)
        items = entries.items() if hasattr(entries, "items") else entries
        rows = {}
        for (r, c), v in items:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"entry ({r}, {c}) outside {nrows}x{ncols}")
            if not isinstance(v, exact):
                raise TypeError(f"entry ({r}, {c}) is {v!r}, not a scalar of {field}")
            if p is not None:
                v %= p
            if v != 0:
                rows.setdefault(r, {})[c] = v
        return cls(field, nrows, ncols, rows)

    @classmethod
    def from_rows(cls, field, rows, ncols=None) -> "Matrix":
        """Dense rows of field scalars, checked and reduced as by ``from_entries``."""
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls.from_entries(field, len(rows), ncols, (
            ((i, j), v) for i, row in enumerate(rows) for j, v in enumerate(row)))

    @classmethod
    def zeros(cls, field, nrows, ncols) -> "Matrix":
        return cls(field, nrows, ncols, {})

    @classmethod
    def identity(cls, field, n) -> "Matrix":
        one = field.one
        return cls(field, n, n, {i: {i: one} for i in range(n)})

    # --- access ---------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return sum(map(len, self.rows.values()))

    def entries(self):
        """Iterate ``(r, c, value)`` sorted by (r, c)."""
        for r, row in sorted(self.rows.items()):
            for c in sorted(row):
                yield r, c, row[c]

    def dense_rows(self) -> list[list]:
        zero = self.field.zero
        dense = [[zero] * self.ncols for _ in range(self.nrows)]
        for r, row in self.rows.items():
            for c, v in row.items():
                dense[r][c] = v
        return dense

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, tuple(self.entries())))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, nnz={self.nnz})"

    def first_difference(self, other: "Matrix", field: FieldSpec | None = None, sign: int = 1):
        """First ``(r, c, a, b)`` where ``self`` and ``sign * other`` differ in
        ``field`` (by default their own), or None.  A row that differs over Z
        is compared with its difference reduced into the field, so integer
        matrices get the verdict and witness of their reduced copies.
        """
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return (-1, -1, (self.nrows, self.ncols), (other.nrows, other.ncols))
        mine, theirs, signed = self.rows, other.rows, partial(_times, sign)
        # equal over Z, so in every field: one signed row at a time is held
        if mine.keys() == theirs.keys() and all(a == signed(theirs[r]) for r, a in mine.items()):
            return None
        scalar = (field or self.field).scalar
        for r in sorted(mine.keys() | theirs.keys()):
            a, b = mine.get(r, {}), signed(theirs.get(r, {}))
            if a != b and (cols := [c for c in a.keys() | b.keys()
                                    if scalar(a.get(c, 0) - b.get(c, 0))]):
                c = min(cols)
                return (r, c, scalar(a.get(c, 0)), scalar(b.get(c, 0)))
        return None

    # --- algebra -----------------------------------------------------------

    def transpose(self, field: FieldSpec | None = None) -> "Matrix":
        """The transpose, over ``field`` when given: an integer matrix's
        entries are reduced into it as they are moved."""
        field = self._in_field(field)
        p = None if field == self.field else field.p
        cols = {}
        with _integers_only(field):
            for r, row in self.rows.items():
                for c, v in row.items():
                    if p is None or (v := index(v) % p):
                        cols.setdefault(c, {})[r] = v
        return Matrix(field, self.ncols, self.nrows, cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented   # a Reading on the right moves columns
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        p, rows_b = self.field.p, other.rows
        out = {}
        for i, ra in self.rows.items():
            acc = {}
            for k, v in ra.items():
                rb = rows_b.get(k)
                if rb is None:
                    continue
                for j, w in rb.items():
                    acc[j] = acc.get(j, 0) + v * w
            if p is not None:
                row = {j: r for j, v in acc.items() if (r := v % p)}
            else:
                row = {j: v for j, v in acc.items() if v}
            if row:
                out[i] = row
        return Matrix(self.field, self.nrows, other.ncols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"cannot add {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}")
        p, out = self.field.p, dict(self.rows)
        for i, rb in other.rows.items():
            acc = dict(out.get(i, ()))
            for j, w in rb.items():
                acc[j] = acc.get(j, 0) + w
            if p is not None:
                row = {j: r for j, v in acc.items() if (r := v % p)}
            else:
                row = {j: v for j, v in acc.items() if v}
            if row:
                out[i] = row
            else:
                out.pop(i, None)
        return Matrix(self.field, self.nrows, self.ncols, out)

    def _cleared_rows(self) -> list[dict]:
        """The nonzero rows over Q by row index, each times the LCM of its denominators.

        Scaling a row keeps the row space, and the rows become integers.
        """
        out = []
        for _, row in sorted(self.rows.items()):
            nums, den = {}, 1
            for c, v in row.items():
                nums[c], d = v.as_integer_ratio()
                if d != 1:
                    den = lcm(den, d)
            if den != 1:
                nums = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
            out.append(nums)
        return out

    # --- elimination ------------------------------------------------------------

    def rref(self, field: FieldSpec | None = None, reduced: bool = True) -> tuple[tuple, "Matrix"]:
        """Reduced row echelon form in ``field`` (an integer matrix is reduced
        into GF(p) in the engine's row copy), or over GF(p) a row echelon form.

        Returns ``(pivot_cols, R)`` where R holds only the nonzero rows, in
        pivot order.  By default R is the canonical RREF of the row space.
        With ``reduced=False`` over GF(p), R is a row echelon form with the
        RREF pivots, unit pivots and zeros left of each pivot: the column
        sweep's forward elimination alone, its rows not cleared above later
        pivots, or the RREF where a tall matrix over odd p is reduced row
        by row (``_rref_sparse``).  Over Q, R is always the RREF:
        eliminated modulo one prime, lifted by rational reconstruction and
        checked exactly, or computed on Fractions when the lift fails or
        the check refuses it (``_rref_modular``), which ``reduced=False``
        does not change.
        """
        field = self._in_field(field)
        if field.is_prime_field:
            # copies, in ascending row index: the engine works in place,
            # and its ties are broken by position
            p = field.p
            if field == self.field:
                rows = [dict(self.rows[r]) for r in sorted(self.rows)]
            else:   # an integer matrix, reduced mod p as it is copied
                rows = []
                with _integers_only(field):
                    for r in sorted(self.rows):
                        row = {}
                        for c, v in self.rows[r].items():
                            if v := index(v) % p:
                                row[c] = v
                        if row:
                            rows.append(row)
            pivots, rows = _rref_sparse(rows, self.ncols, p, reduced)
        else:
            pivots, rows = _rref_modular(self)
        return tuple(pivots), Matrix(field, len(pivots), self.ncols, dict(enumerate(rows)))

    def _in_field(self, field: FieldSpec | None) -> FieldSpec:
        """``field``, by default the matrix's own: only a matrix over Q changes
        field, and its reduction into GF(p) (``_integers_only``) refuses an
        entry that is no int."""
        if field not in (None, self.field) and self.field.is_prime_field:
            raise ValueError("field mismatch")
        return field or self.field

    def rank(self, field: FieldSpec | None = None) -> int:
        """Row rank in ``field`` (as for ``rref``), through ``rref`` so that
        one entry point sees every elimination.

        Any echelon form has one pivot per unit of rank, so the rank is
        read off ``rref(field, reduced=False)``; the one decision here is
        whether to take it of the transpose.  Over GF(p) a matrix with
        fewer columns than rows is transposed (its entries reduced as they
        move) when the column sweep will eliminate it: over GF(2), whose
        bitset tail beats the row route, and over odd p when its nonzero
        rows number at most its columns.  A matrix over odd p with more
        nonzero rows than columns is left tall for ``_rref_sparse`` to
        reduce row by row, faster than sweeping its wide transpose.  Over
        Q nothing is transposed: ``rref`` certifies the full RREF whatever
        the shape.
        """
        field = self._in_field(field)
        p = field.p
        if p and self.ncols < self.nrows and (p == 2 or len(self.rows) <= self.ncols):
            return len(self.transpose(field).rref(field, reduced=False)[0])
        return len(self.rref(field, reduced=False)[0])

    def kernel_basis(self, field: FieldSpec | None = None) -> "Subspace":
        """Canonical basis of the right kernel (solutions of Mx = 0) in
        ``field``, as for ``rref``."""
        pivots, R = self.rref(field)
        f = R.field
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        # one vector per free column j: 1 at j, -R[i][j] at pivots[i]
        row_of = {j: k for k, j in enumerate(free)}
        rows = {k: {j: f.one} for k, j in enumerate(free)}
        for i, row in R.rows.items():
            for j, v in row.items():
                k = row_of.get(j)
                if k is not None:
                    rows[k][pivots[i]] = f.neg(v)
        return Subspace.from_matrix(Matrix(f, len(free), self.ncols, rows))

    def image_basis(self, field: FieldSpec | None = None) -> "Subspace":
        """Canonical basis of the column space in ``field``, as for ``rref``."""
        return Subspace.from_matrix(self.transpose(field))

    # --- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        fmt = self.field.format_scalar
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "triplets": [[r, c, fmt(v)] for r, c, v in self.entries()],
        }


@contextmanager
def _integers_only(field: FieldSpec):
    """Around a reduction of a matrix over Q into ``field`` that reads each
    entry through ``operator.index``: the TypeError of an entry that is no
    int becomes ``NotAnIntegerMatrix``, and the pass makes no second scan."""
    try:
        yield
    except TypeError:
        raise NotAnIntegerMatrix(f"a matrix over Q with an entry that is no int "
                                 f"has no reduction into {field}") from None


# --- elimination ----------------------------------------------------------------
#
# The engine's one field parameter is the modulus p: GF(p) works on ints
# mod p, and None means Q, on ints and Fractions (``Subspace.residues``,
# the exact check of a lift and the fallback of ``_rref_modular`` when its
# one-prime lift fails or its check refuses it).  A row update is written
# out where it runs, ``a - f*b`` reduced mod p when p is set.

def _times(s: int, row: dict) -> dict:
    """The row dict ``s * row``; ``row`` itself when s is 1."""
    return row if s == 1 else dict(zip(row, map(partial(mul, s), row.values())))


def _reciprocal(a, p):
    """``1/a`` mod p, or over Q (p None) as a Fraction, never a float."""
    return pow(a, p - 2, p) if p else Fraction(1) / a


def _rref_sparse(rows, ncols, p, reduced=True):
    """Canonical RREF on row dicts modulo ``p`` (over Q when None): ``(pivots, rows)``.

    The route follows the shape and the modulus: a tall matrix (more
    nonzero rows than columns) is reduced one row at a time against a
    reduced basis (``_rref_by_rows``) unless p is 2; a wide or square
    one, and every matrix over GF(2), goes to the column sweep
    ``_echelon``, followed by ``_back_substitute``.  Both return the
    canonical RREF, so the choice changes the time and nothing else: the
    row route is 3-4x faster on tall matrices and 2-3x slower on wide
    ones, and over GF(2) the sweep's bitset tail is faster still.  With
    ``reduced`` false the sweep's pivot rows are returned as the forward
    elimination leaves them, an echelon form with the same pivots.
    """
    if p != 2 and len(rows) > ncols:
        return _rref_by_rows(rows, p)
    piv_list = _echelon(rows, ncols, p)
    if reduced:
        return _back_substitute(rows, piv_list, p)
    return _in_pivot_order(rows, piv_list)


def _rref_by_rows(rows, p):
    """Canonical RREF of the row dicts ``rows``, one row at a time: ``(pivots, rows)``.

    The basis kept so far is reduced: every basis row has a unit pivot and
    is zero at every other pivot column.  Sparsest first (ties by row
    index), each row is cleared at the basis's pivot columns
    (``_residue``).  A nonzero residue is normalized to a unit at its leftmost
    column, which becomes a pivot; that column is cleared from the basis
    rows that hold it, found through a column -> basis-rows index, and the
    residue joins the basis.  The leading columns of an echelon basis are
    the RREF pivots of its row space, and a reduced basis with those pivots
    is the canonical RREF, so the result is the sweep's.

    A dependent row costs one clearing, where the sweep updates it once
    per pivot column it meets; on a wide matrix the basis-row index costs
    more than that saves (see ``_rref_sparse``).  The rows are consumed:
    basis rows may be the input dicts, updated in place.
    """
    basis = {}    # pivot column -> basis row
    holders = {}  # non-pivot column -> pivot columns of the basis rows that hold it
    for v in sorted(rows, key=len):
        v = _residue(v, basis, p)
        if not v:
            continue
        pc = min(v)
        factor = _reciprocal(v[pc], p)
        if factor != 1:
            v = {c: factor * x % p for c, x in v.items()} if p else \
                {c: factor * x for c, x in v.items()}
        rest = [(c, x) for c, x in v.items() if c != pc]
        for c, _x in rest:
            holders.setdefault(c, set()).add(pc)
        for q in holders.pop(pc, ()):
            row = basis[q]
            f = row.pop(pc)
            for c, x in rest:
                w = row.get(c, 0) - f * x
                if p:
                    w %= p
                if w:
                    if c not in row:
                        holders[c].add(q)
                    row[c] = w
                else:
                    del row[c]
                    holders[c].discard(q)
        basis[pc] = v
    pivots = sorted(basis)
    return pivots, [basis[c] for c in pivots]


def _residue(v, pivot_rows, p, den=1):
    """``den * v`` minus ``v[c]`` times ``pivot_rows[c]`` for each pivot column c that ``v`` meets.

    ``pivot_rows`` maps each pivot column to a basis row that holds ``den``
    there and zero at every other pivot column, so the residue is zero at
    every pivot column, whatever the order of the steps; it is reduced mod
    ``p`` when p is set.  This one step serves membership
    (``Subspace.residues``), the exact check of a lift (``_verified``), the
    reduction of each row in ``_rref_by_rows`` and the back-substitution
    of the sweep (``_back_substitute``).
    With ``den`` 1, a ``v`` that meets no pivot is its own residue and is
    returned as it is, not copied.
    """
    hits = [(c, a) for c, a in v.items() if c in pivot_rows]
    if den != 1:
        v = {c: den * a for c, a in v.items()}
    elif hits:
        v = dict(v)
    else:
        return v
    for c, a in hits:
        for j, w in pivot_rows[c].items():
            x = v.get(j, 0) - a * w
            if p:
                x %= p
            if x:
                v[j] = x
            else:
                del v[j]
    return v


def _echelon(rows, ncols, p):
    """Forward elimination in place on row dicts; returns ``[(col, row)]`` of the pivots.

    Columns are processed left to right so the pivot columns are the
    canonical RREF pivots; within a column the sparsest available row is
    chosen (Markowitz-style row selection), ties broken by row index.
    Each pivot row is normalized to a unit pivot and is zero left of it.
    Forward elimination only touches rows not yet chosen, so each pivot row
    is contaminated only at later pivot columns; the back-substitution
    sweep removes exactly that.  The column index dies on return, before
    back-substitution fills the pivot rows, so the two never peak together.

    One row update serves every field: modulo 2 it flips the support,
    since every scalar is 1.  The sweep keeps a count of the nonzeros of
    the active rows (the nonzero rows not yet chosen), O(1) per row
    update.  When p is 2, wherever that modulus comes from, the
    elimination is sparse, then dense: once the count passes
    ``_GF2_TAIL_DENSITY`` of the block left (active rows x columns right of
    the pivot), on a block of at least ``_GF2_TAIL_MIN_CELLS`` cells, the
    column index is dropped and ``_gf2_tail`` finishes on int bitsets.
    For any other modulus the count is never read.
    """
    col_rows: dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    live, active = sum(map(len, rows)), sum(1 for row in rows if row)
    piv_list = []  # (col, row) in selection order == ascending column order
    for pc in range(ncols):
        cand = col_rows.get(pc)
        if not cand:
            continue
        pr = min(cand, key=lambda i: (len(rows[i]), i))
        prow = rows[pr]
        for c in prow:
            col_rows[c].discard(pr)
        factor = _reciprocal(prow[pc], p)
        if factor != 1:
            rows[pr] = prow = {c: factor * v % p for c, v in prow.items()} if p else \
                {c: factor * v for c, v in prow.items()}
        piv_list.append((pc, pr))
        live -= len(prow)
        active -= 1
        for i in list(col_rows.get(pc, ())):
            row = rows[i]
            live -= len(row)
            f = row[pc]
            for c, v in prow.items():
                w = row.get(c, 0) - f * v
                if p:
                    w %= p
                if w:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(i)
                    row[c] = w
                else:
                    if c in row:
                        del row[c]
                        col_rows[c].discard(i)
            live += len(row)
            if not row:
                active -= 1
        cells = active * (ncols - 1 - pc)
        if p == 2 and cells >= _GF2_TAIL_MIN_CELLS and live > _GF2_TAIL_DENSITY * cells:
            del col_rows
            chosen = {r for _, r in piv_list}
            return piv_list + _gf2_tail(rows, chosen, ncols)
    return piv_list


# Over GF(2), ``_echelon`` hands the active rows to ``_gf2_tail`` once their
# nonzeros fill this share of the cells left; from about 1/500 on, a row's
# bitset is smaller than its dict.  Blocks under the cell floor stay on
# dicts, where packing would cost more than it saves.
_GF2_TAIL_DENSITY = 0.003
_GF2_TAIL_MIN_CELLS = 1 << 16


def _gf2_tail(rows, chosen, ncols):
    """Finish a GF(2) forward elimination on int bitsets; returns the new ``[(col, row)]``.

    Every row not in ``chosen`` is zero left of the columns still to
    process.  Each is packed into an int with column c at bit
    ``ncols - 1 - c``, so its leftmost column is its leading bit, read in
    O(1) as ``bit_length()``, and a row operation is one XOR (the word
    operations of M4RI, Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
    Sparsest first, each row is reduced against the pivots kept so far
    until its leading bit is new, and then kept as the pivot of that
    column.  A row that reaches a pivot with fewer nonzeros than the pivot
    takes its place, and the sum of the two reduces on: the row space is
    the same, and the pivot rows stay as sparse as the dict loop keeps
    them.  The leading columns of an echelon basis are the RREF pivots of
    its row space, so the pivots are the dict loop's.  Pivot rows are
    written back as dicts and the others emptied; the pivots come back in
    ascending column order, as ``_back_substitute`` needs.
    """
    top, size = ncols - 1, (ncols + 7) >> 3
    packed = []
    for i, row in enumerate(rows):
        if row and i not in chosen:
            # bits set in a byte buffer: OR-ing shifted ints would copy the
            # whole row once per nonzero
            buf = bytearray(size)
            for c in row:
                b = top - c
                buf[b >> 3] |= 1 << (b & 7)
            packed.append((len(row), i, int.from_bytes(buf, "little")))
            rows[i] = {}
    packed.sort()
    lead = {}  # leading bit -> (row, packed, nonzeros)
    for n, i, x in packed:
        while x:
            b = x.bit_length()
            p = lead.get(b)
            if p is None:
                lead[b] = (i, x, n)
                break
            j, y, m = p
            if n < m:
                lead[b] = (i, x, n)
                i = j
            x ^= y
            n = x.bit_count()
    del packed
    out = []
    for b in sorted(lead, reverse=True):
        i, x, _n = lead.pop(b)
        bits = format(x, "b")
        first, k = ncols - len(bits), 0
        row = rows[i]
        while k >= 0:
            row[first + k] = 1
            k = bits.find("1", k + 1)
        out.append((ncols - b, i))
    return out


def _back_substitute(rows, piv_list, p):
    """Clear each pivot row at the later pivot columns and emit RREF order.

    Forward elimination only updates rows not yet chosen as pivots, so a
    pivot row is nonzero at no pivot column but its own and those selected
    after it.  In reverse selection order each pivot row becomes its
    ``_residue`` against the later pivot rows, which are already reduced:
    unit pivots, zero at each other's pivots and left of their own.
    """
    done = {}   # pivot column -> reduced pivot row, for the later pivots
    for pc, pr in reversed(piv_list):
        done[pc] = rows[pr] = _residue(rows[pr], done, p)
    return _in_pivot_order(rows, piv_list)


def _in_pivot_order(rows, piv_list):
    """``(pivots, pivot_rows)`` in ascending pivot column."""
    ordered = sorted(piv_list)
    return [c for c, _ in ordered], [rows[r] for _, r in ordered]


# --- Q: modular elimination with an exact check -------------------------------
#
# W. Stein, Modular Forms: A Computational Approach (AMS GSM 79, 2007), ch. 7;
# rational reconstruction after P. S. Wang, M. J. T. Guy and J. H. Davenport,
# SIGSAM Bull. 16 (1982).

# The largest prime below 2^31.  A lift modulo it reaches numerators and
# denominators up to about 2^15; a reduced form with larger entries goes to
# the Fraction engine.
_PRIME = 2 ** 31 - 1


def _rref_modular(m: Matrix):
    """Canonical RREF of a matrix over Q: ``(pivots, rows)``, rows of Fractions in pivot order.

    ``m._cleared_rows()`` is eliminated modulo ``_PRIME``, the reduced form
    is lifted by rational reconstruction, and the lift is verified exactly
    against the integer rows (``_verified``).  When the lift fails or does
    not verify (the prime divides a pivot, or an entry passes the lift's
    bound), the Fraction engine reduces the integer rows instead.
    """
    cleared = m._cleared_rows()
    rows = [{c: r for c, v in row.items() if (r := v % _PRIME)} for row in cleared]
    pivots, rows = _rref_sparse(rows, m.ncols, _PRIME)
    lifted = _lift(rows, _PRIME)
    del rows  # the lift holds the same entries; free these before the Fractions exist
    if lifted is None or not _verified(cleared, pivots, *lifted):
        rows = [{c: Fraction(v) for c, v in row.items()} for row in cleared]
        return _rref_sparse(rows, m.ncols, None)
    num, den = lifted
    fractions = {}  # RREF entries repeat: one Fraction per distinct value
    for row in num:
        for c, v in row.items():
            f = fractions.get(v)
            if f is None:
                f = fractions[v] = Fraction(v, den)
            row[c] = f
    return pivots, num


def _lift(rows, modulus):
    """``(num, den)`` with ``rows = num / den`` lifted from residues, or None.

    Every residue is read as the unique ``n/d`` with ``|n|, d <= sqrt(modulus/2)``;
    ``den`` is the LCM of the ``d`` and ``num`` holds ``den * n/d``.  None when
    some residue has no such fraction.
    """
    bound = isqrt(modulus // 2)
    num, den = [], 1
    for row in rows:
        out = {}
        for c, x in row.items():
            if x <= bound:
                out[c] = x
            elif modulus - x <= bound:
                out[c] = x - modulus
            else:
                frac = _reconstruct(x, modulus, bound)
                if frac is None:
                    return None
                out[c] = frac
                den = lcm(den, frac.denominator)
        num.append(out)
    if den > 1:
        for row in num:
            for c, v in row.items():
                row[c] = int(v * den)
    return num, den


def _reconstruct(x, modulus, bound):
    """The Fraction ``n/d = x mod modulus`` with ``|n|, d <= bound``, or None."""
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound:
        return None
    frac = Fraction(r1, t1)
    return frac if frac.denominator == abs(t1) else None


def _verified(rows, pivots, num, den):
    """Whether every integer row lies in the row space of ``num / den``.

    ``num`` has the RREF shape with pivot entries ``den``; the check is
    ``_residue`` times ``den``, so it stays on integers.
    """
    pivot_rows = dict(zip(pivots, num))
    return not any(_residue(v, pivot_rows, None, den) for v in rows)


# --- readings ------------------------------------------------------------------

class Reading:
    """A matrix whose row i is a single 1, in column ``cols[i]``, held as
    that index array (an ``array('l')`` or any sequence of ints), or the
    transpose of one (``R.T``).  Its products with a ``Matrix`` A move
    entries instead of multiplying:

    * ``R @ A`` puts row ``cols[i]`` of A in row i, sharing it;
    * ``A @ R`` renames column k of A to ``cols[k]``, adding the entries
      of a row that land on one column;
    * ``A @ R.T`` copies column j of A to each column k with ``cols[k] = j``.

    ``R @ R.T`` is decided against the identity from ``cols`` alone,
    witness included (``identity_difference``), for R and for R.T.
    """

    __slots__ = ("cols", "width", "transposed")

    def __init__(self, cols, width: int, transposed: bool = False):
        self.cols = cols          # row i of the untransposed matrix reads column cols[i]
        self.width = width        # the number of columns of the untransposed matrix
        self.transposed = transposed

    @property
    def nrows(self) -> int:
        return self.width if self.transposed else len(self.cols)

    @property
    def ncols(self) -> int:
        return len(self.cols) if self.transposed else self.width

    @property
    def T(self) -> "Reading":
        return Reading(self.cols, self.width, not self.transposed)

    def identity_difference(self, field: FieldSpec):
        """``first_difference`` of ``self @ self.T`` against the identity,
        or None, in O(rows) and without the product.

        Untransposed, entry (σ, τ) of ``R @ R.T`` is 1 when rows σ and τ read
        one column: the first difference is ``(σ, τ, 1, 0)`` for the least
        row σ whose column another row reads and the least such τ.
        Transposed, ``R.T @ R`` is diagonal and entry (j, j) counts the rows
        that read column j: the first difference is ``(j, j, count, 1)`` at
        the least j whose count is not 1 in the field (a count of 0 there
        is no entry, so it reads as zero).
        """
        cols = self.cols
        distinct = len(set(cols)) == len(cols)
        if not self.transposed:
            if distinct:
                return None
            first, second = {}, {}
            for i, j in enumerate(cols):
                if j not in first:
                    first[j] = i
                elif j not in second:
                    second[j] = i
            j = min(second, key=first.__getitem__)
            return first[j], second[j], field.one, field.zero
        if distinct and len(cols) == self.width:
            return None
        counts, one = Counter(cols), field.one
        for j in range(self.width):
            if (count := field.scalar(counts[j])) != one:
                return j, j, count, one
        return None

    def matrix(self) -> Matrix:
        """The matrix itself as an integer matrix, one 1 per row (per column
        when transposed)."""
        if self.transposed:
            rows: dict = {}
            for k, j in enumerate(self.cols):
                rows.setdefault(j, {})[k] = 1
        else:
            rows = {i: {j: 1} for i, j in enumerate(self.cols)}
        return Matrix(QQ, self.nrows, self.ncols, rows)

    def __matmul__(self, a: Matrix) -> Matrix:
        if self.transposed or not isinstance(a, Matrix):
            return NotImplemented
        if self.ncols != a.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {a.nrows}x{a.ncols}")
        picked = list(map(a.rows.get, self.cols))
        return Matrix(a.field, self.nrows, a.ncols, dict(compress(enumerate(picked), picked)))

    def __rmatmul__(self, a: Matrix) -> Matrix:
        if not isinstance(a, Matrix):
            return NotImplemented
        if a.ncols != self.nrows:
            raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {self.nrows}x{self.ncols}")
        cols, rows = self.cols, a.rows
        if self.transposed:       # column j of A -> the columns k with cols[k] = j
            readers: dict = {}
            for k, j in enumerate(cols):
                readers.setdefault(j, []).append(k)
            read_cols = readers.keys()
            out = {i: {k: v for j, v in row.items() for k in readers.get(j, ())}
                   for i, row in rows.items() if not read_cols.isdisjoint(row)}
            return Matrix(a.field, a.nrows, self.ncols, out)
        read = partial(map, cols.__getitem__)
        out = dict(zip(rows, map(dict, map(zip, map(read, rows.values()),
                                           map(dict.values, rows.values())))))
        # a row that read one column twice: add its entries there
        add = a.field.add
        for i in list(compress(rows, map(lt, map(len, out.values()), map(len, rows.values())))):
            acc: dict = {}
            for k, v in rows[i].items():
                j = cols[k]
                acc[j] = add(acc[j], v) if j in acc else v
            if row := {j: v for j, v in acc.items() if v}:
                out[i] = row
            else:
                del out[i]
        return Matrix(a.field, a.nrows, self.ncols, out)


# --- subspaces ---------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of k^n held as its canonical RREF basis.

    ``basis`` is the dim x n sparse matrix ``Matrix.rref`` returns for any
    spanning set: rows with strictly increasing pivot columns ``pivots``,
    pivot entries 1 and zeros above and below each pivot.  The form is
    unique for the subspace, so equal subspaces compare equal.
    """

    pivots: tuple
    basis: Matrix

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @staticmethod
    def zero(field, ambient_dim) -> "Subspace":
        return Subspace((), Matrix.zeros(field, 0, ambient_dim))

    @staticmethod
    def from_matrix(m: Matrix) -> "Subspace":
        """The row space of ``m``."""
        return Subspace(*m.rref())

    def residues(self, vectors: Matrix) -> Matrix:
        """Each row ``v`` of ``vectors`` minus ``v[pivots[i]]`` times basis row i, for all i.

        Basis rows vanish at each other's pivots, so the residue is zero at
        every pivot column; ``v`` lies in the subspace exactly when its
        residue row is zero, and then ``v[pivots[i]]`` are its coordinates.
        A row with no entry at a pivot is its own residue and is shared,
        not copied.
        """
        if vectors.ncols != self.ambient_dim:
            raise ValueError("vector length mismatch")
        basis, p = self.basis.rows, self.field.p
        pivot_rows = {c: basis[i] for i, c in enumerate(self.pivots)}
        out = {}
        for r, v in vectors.rows.items():
            if v := _residue(v, pivot_rows, p):
                out[r] = v
        return Matrix(self.field, vectors.nrows, vectors.ncols, out)


def quotient_dim(Z: Subspace, B: Subspace) -> int:
    """dim(Z/B), verifying B is contained in Z.

    Raises NotASubspace when containment fails; for (co)chain complexes that
    means the differential does not square to zero.
    """
    if Z.ambient_dim != B.ambient_dim or Z.field != B.field:
        raise NotASubspace("ambient space mismatch")
    if not Z.residues(B.basis).is_zero():
        raise NotASubspace("claimed subspace is not contained in the ambient one")
    return Z.dim - B.dim


def cohomology(differentials, field: FieldSpec | None = None):
    """Walk a cochain complex ``d_0, d_1, ..`` degree by degree, in ``field``.

    Yields ``(Z_m, B_m, dim H^m)`` for each differential, where
    ``Z_m = ker d_m`` and ``B_m = im d_{m-1}`` (zero in degree 0).  The
    dimension comes from ``quotient_dim``, so ``B_m <= Z_m`` is verified
    and a complex with ``d_m d_{m-1} != 0`` raises NotASubspace.  The image
    of the last differential bounds no listed degree and is never built.
    """
    prev = None
    for d in differentials:
        Z = d.kernel_basis(field)
        B = prev.image_basis(field) if prev is not None else Subspace.zero(Z.field, d.ncols)
        yield Z, B, quotient_dim(Z, B)
        prev = d


def check_complex(differentials, field: FieldSpec | None = None) -> None:
    """Check ``d_m d_{m-1} = 0`` in ``field`` for each consecutive pair of
    ``differentials`` (a sequence), with a sparse product; raise
    NotASubspace, as ``cohomology`` does, at the first pair that fails."""
    for prev, d in zip(differentials, differentials[1:]):
        if (d @ prev).first_difference(Matrix.zeros(d.field, d.nrows, prev.ncols), field):
            raise NotASubspace("differential does not square to zero")


def cohomology_dims(differentials, field: FieldSpec | None = None) -> list[int]:
    """The ``dim H^m`` of a cochain complex ``d_0, d_1, ..``, as ``cohomology`` counts them.

    ``check_complex`` runs first, then ``dim H^m = n_m - rank d_m - rank
    d_{m-1}``, one rank per differential; no kernel, image or Subspace is
    built.
    """
    differentials = list(differentials)
    check_complex(differentials, field)
    dims, prev_rank = [], 0
    for d in differentials:
        rank = d.rank(field)
        dims.append(d.ncols - rank - prev_rank)
        prev_rank = rank
    return dims


def restricted_map(images: Matrix, dst: Subspace) -> Matrix:
    """Matrix of a map restricted to ``src -> dst``, in their canonical bases.

    Row j of ``images`` is the map applied to basis row j of ``src``.
    Column j of the result holds its ``dst`` coordinates;
    NotChainCompatible when an image leaves ``dst``.  An image in ``dst``
    is the combination of ``dst``'s rows given by its entries at the pivot
    columns, so the coordinates are those entries: ``images`` times the
    transpose of the ``Reading`` of the pivots, transposed.
    """
    if not dst.residues(images).is_zero():
        raise NotChainCompatible("map leaves the target subspace")
    return (images @ Reading(dst.pivots, dst.ambient_dim).T).transpose()
