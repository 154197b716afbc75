"""Independent brute-force oracles used to derive expected test values.

Everything here recomputes results through a different construction path
than the package: differentials are evaluated functionally from their
defining formulas on generic cochains, ranks come from a plain textbook
forward elimination (no reduced form, no sparse bookkeeping), and dimension
counts avoid the package's subspace machinery entirely.  Oracles read only
the category's source/target tables and its composition: the dense
``compose_table`` of a base category, ``compose`` wherever the category may
be an adjoint category, which holds no table.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# --- scalars: p prime -> ints mod p, p None -> Fraction -----------------------

def _scal(p, n):
    return n % p if p is not None else Fraction(n)


def naive_rank(rows, p) -> int:
    """Forward elimination without normalization; counts pivot rows."""
    rows = [list(r) for r in rows if any(v != 0 for v in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] == 0:
                continue
            if p is not None:
                factor = rows[i][col] * pow(prow[col], p - 2, p) % p
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], prow)]
            else:
                factor = Fraction(rows[i][col]) / prow[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def naive_rref(rows, p) -> tuple[list, list]:
    """Textbook Gauss-Jordan on dense rows: (pivot columns, nonzero reduced rows).

    Pivots are the lowest usable row per column, scanned left to right; each
    pivot row is normalized and its column cleared above and below.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p is not None:
            inv = pow(rows[r][col], p - 2, p)
            rows[r] = [a * inv % p for a in rows[r]]
        else:
            lead = Fraction(rows[r][col])
            rows[r] = [a / lead for a in rows[r]]
        for i in range(len(rows)):
            if i == r or rows[i][col] == 0:
                continue
            factor = rows[i][col]
            if p is not None:
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
            else:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots, rows[:r]


# --- the Fraction engine: the reference for elimination over Q ----------------------
#
# Over Q ``Matrix.rref`` eliminates modulo primes and certifies a lift, and
# reduces a tall matrix row by row.  The reference is the package's column
# sweep run on Fractions throughout, whatever the shape: the route the
# modular one replaces, and not the route a tall matrix takes.

def fraction_rref(m):
    """``(pivots, R)`` of a Q matrix from ``_echelon`` and ``_back_substitute`` on Fraction rows.

    The engine's own sweep on Fractions, so it shares the engine's
    residue back-substitution; ``naive_rref`` is the oracle that shares no
    step with the engine.
    """
    from hochcat.fields import QQ
    from hochcat.matrix import Matrix, _back_substitute, _echelon, _scalar_hooks

    rows = [{c: Fraction(v) for c, v in m.rows[r].items()} for r in sorted(m.rows)]
    hooks = _scalar_hooks(QQ)
    pivots, rows = _back_substitute(rows, _echelon(rows, m.ncols, *hooks), hooks[2])
    cells = {(i, c): v for i, row in enumerate(rows) for c, v in row.items()}
    return tuple(pivots), Matrix.from_entries(QQ, len(pivots), m.ncols, cells)


def fraction_kernel(m):
    """``(pivots, basis)`` of the right kernel, read off ``fraction_rref`` as
    ``Matrix.kernel_basis`` does and put in RREF by it again."""
    from hochcat.matrix import Matrix

    pivots, R = fraction_rref(m)
    free = [c for c in range(m.ncols) if c not in set(pivots)]
    row_of = {j: k for k, j in enumerate(free)}
    cells = {(k, j): Fraction(1) for k, j in enumerate(free)}
    for i, j, v in R.entries():
        if j in row_of:
            cells[row_of[j], pivots[i]] = -v
    return fraction_rref(Matrix.from_entries(m.field, len(free), m.ncols, cells))


def dense_product(a_rows, b_rows, ncols):
    """The textbook product of dense matrices, ``b_rows`` of width ``ncols``, on Fractions."""
    inner = len(b_rows)
    return [[sum((Fraction(a[k]) * b_rows[k][j] for k in range(inner)), Fraction(0))
             for j in range(ncols)] for a in a_rows]


# --- the category algebra, independently -------------------------------------------

def alg_mul(cat, u: dict, v: dict, p) -> dict:
    """Product in kC of two sparse elements, zero on non-composable pairs."""
    out: dict = {}
    for g, x in u.items():
        for f, y in v.items():
            h = cat.compose_table[g][f]
            if h >= 0:
                out[h] = out.get(h, _scal(p, 0)) + x * y
    return {h: (v % p if p is not None else v) for h, v in out.items()
            if (v % p if p is not None else v) != 0}


def _basis_elt(cat, p, m) -> dict:
    return {m: _scal(p, 1)}


def hochschild_differential_rows(cat, p, m):
    """Matrix of the degree-m differential, built by functional evaluation.

    For each basis cochain f (indicator of one input tuple and one output),
    evaluates the alternating-sum formula on every (m+1)-tuple of morphisms
    and scatters the resulting algebra elements.  Returns dense rows indexed
    by (input tuple, output), columns likewise for degree m.
    """
    n = cat.n_morphisms
    cols = [(tup, h) for tup in itertools.product(range(n), repeat=m) for h in range(n)]
    rows_idx = {key: i for i, key in enumerate(
        (tup, h) for tup in itertools.product(range(n), repeat=m + 1) for h in range(n)
    )}
    mat = [[_scal(p, 0)] * len(cols) for _ in range(len(rows_idx))]

    for jcol, (tup0, h0) in enumerate(cols):
        def f(args):
            return _basis_elt(cat, p, h0) if args == tup0 else {}

        for args in itertools.product(range(n), repeat=m + 1):
            total: dict = {}

            def acc(elt, sign):
                for h, v in elt.items():
                    total[h] = total.get(h, _scal(p, 0)) + sign * v

            acc(alg_mul(cat, _basis_elt(cat, p, args[0]), f(args[1:]), p), 1)
            sign = -1
            for j in range(1, m + 1):
                glued = cat.compose_table[args[j - 1]][args[j]]
                if glued >= 0:
                    acc(f(args[: j - 1] + (glued,) + args[j + 1:]), sign)
                sign = -sign
            acc(alg_mul(cat, f(args[:m]), _basis_elt(cat, p, args[m]), p), sign)

            for h, v in total.items():
                v = v % p if p is not None else v
                if v != 0:
                    mat[rows_idx[args, h]][jcol] = v
    return mat


def _face(cat, chain, i):
    """The i-th face of a degree-m chain, 0 <= i <= m, m >= 1: drop the
    first arrow (i = 0) or the last (i = m), or compose arrows i − 1 and i;
    the endpoint objects of a 1-chain.  A degree-0 chain (an object, or
    ``()``) has no face."""
    m = 0 if isinstance(chain, int) else len(chain)
    if not (m and 0 <= i <= m):
        raise IndexError(f"face index {i} out of range for a degree-{m} chain")
    if m == 1:
        return cat.target[chain[0]] if i == 0 else cat.source[chain[0]]
    if i == 0:
        return chain[1:]
    if i == m:
        return chain[:-1]
    return chain[: i - 1] + (cat.compose(chain[i], chain[i - 1]),) + chain[i + 1:]


def nerve_chain_list(cat, m):
    """Every degree-m chain as a tuple, in lexicographic order of its arrow
    indices; the objects for m = 0."""
    if m == 0:
        return list(range(cat.n_objects))
    chains = [()]
    for _ in range(m):
        chains = [
            c + (g,)
            for c in chains
            for g in range(cat.n_morphisms)
            if not c or cat.source[g] == cat.target[c[-1]]
        ]
    return chains


def simplicial_coboundary_rows(cat, p, m):
    """Coboundary matrix built by evaluating faces of every (m+1)-chain."""
    cols = {c: j for j, c in enumerate(nerve_chain_list(cat, m))}
    rows = nerve_chain_list(cat, m + 1)
    mat = [[_scal(p, 0)] * len(cols) for _ in rows]
    for i, chain in enumerate(rows):
        for face_i in range(m + 2):
            j = cols[_face(cat, chain, face_i)]
            mat[i][j] += _scal(p, (-1) ** face_i)
            if p is not None:
                mat[i][j] %= p
    return mat


# --- the assemblies the package used to run, kept as references ---------------------

def column_contributions(cat, tup, h) -> dict:
    """Image of the basis cochain (tup, h) under the differential over Z, by tuples.

    Keyed by ``(tuple, output)`` pairs of degree m + 1: the left, inner and
    right terms of the module docstring of ``hochcat.hochschild``, summed
    so that cancelling terms drop out.
    """
    comp = cat.compose_table
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for u in cat.morphisms_by_source[cat.target[h]]:
        add(((u,) + tup, comp[u][h]), 1)
    sign = -1
    for j in range(1, len(tup) + 1):
        for v in range(cat.n_morphisms):
            for w in range(cat.n_morphisms):
                if comp[v][w] == tup[j - 1]:
                    add((tup[: j - 1] + (v, w) + tup[j:], h), sign)
        sign = -sign
    for u in cat.morphisms_by_target[cat.source[h]]:
        add((tup + (u,), comp[h][u]), sign)
    return {key: v for key, v in out.items() if v}


def times(s: int, m):
    """The matrix ``s * m``, entry by entry, in the field of ``m``."""
    from hochcat.matrix import Matrix

    return Matrix.from_entries(m.field, m.nrows, m.ncols,
                               {(r, c): s * v for r, c, v in m.entries()})


def reduced(m, field):
    """The integer matrix ``m`` over ``field``, entry by entry (base change Z -> field)."""
    from hochcat.matrix import Matrix

    return Matrix.from_entries(field, m.nrows, m.ncols, {(r, c): v for r, c, v in m.entries()})


def column_wise_differential(cat, field, cols, rows):
    """The differential from the pairs ``cols`` to the pairs ``rows``, one column at a time.

    Every term of a column must be a pair of ``rows``; integer entries
    are reduced into the field by ``Matrix.from_entries``.
    """
    from hochcat.matrix import Matrix

    row_index = {pair: i for i, pair in enumerate(rows)}
    entries = {}
    for c, (tup, h) in enumerate(cols):
        for pair, v in column_contributions(cat, tup, h).items():
            entries[row_index[pair], c] = v
    return Matrix.from_entries(field, len(rows), len(cols), entries)


def normalized_relative_differential(cat, m):
    """The relative differential of degree m on the pairs whose tuple has no
    identity factor, found by tuple lookup in ``relative_basis``.

    The kept columns and rows are renumbered in basis order, and a kept
    column with an entry on a dropped row fails the assertion: the slice
    must be a subcomplex.
    """
    from hochcat.hochschild import relative_basis, relative_differential_matrix
    from hochcat.matrix import Matrix

    def kept(degree):
        return {i: j for j, i in enumerate(
            i for i, (tup, _h) in enumerate(relative_basis(cat, degree))
            if not any(map(cat.is_identity, tup)))}

    d = relative_differential_matrix(cat, m)
    col_of, row_of = kept(m), kept(m + 1)
    entries = {}
    for r, c, v in d.entries():
        if c in col_of:
            assert r in row_of, (m, r, c)
            entries[row_of[r], col_of[c]] = v
    return Matrix.from_entries(d.field, len(row_of), len(col_of), entries)


def hochschild_homotopy(cat, m):
    """The integer matrix of ``h^m: C^m -> C^(m-1)`` (m >= 1), from tuples.

    Row ``(a; out)`` of the full degree-(m-1) basis gets +1 at
    ``((1_(target out),) + a, out)`` and, for each i = 1..m-1 with
    ``a_1..a_i`` composable and ``target out = target a_1``, ``(-1)^i`` at
    ``(a[:i] + (1_(source a_i),) + a[i:], out)``; columns are found by
    lookup in the full degree-m basis, and equal columns are summed.
    """
    from hochcat.fields import QQ
    from hochcat.hochschild import hochschild_basis
    from hochcat.matrix import Matrix

    col_of = {pair: j for j, pair in enumerate(hochschild_basis(cat, m))}
    rows = hochschild_basis(cat, m - 1)
    entries: dict = {}
    for r, (a, out) in enumerate(rows):
        terms = [((cat.identity[cat.target[out]],) + a, 1)]
        for i in range(1, m):
            composable = all(cat.source[a[j]] == cat.target[a[j + 1]] for j in range(i - 1))
            if composable and cat.target[out] == cat.target[a[0]]:
                terms.append((a[:i] + (cat.identity[cat.source[a[i - 1]]],) + a[i:], (-1) ** i))
        for tup, sign in terms:
            key = r, col_of[tup, out]
            entries[key] = entries.get(key, 0) + sign
    return Matrix.from_entries(QQ, len(rows), len(col_of), entries)


def off_relative_diagonal(cat, m):
    """``I - ιρ`` on the full degree-m cochains: 1 on each diagonal cell whose
    basis pair is not in ``relative_basis``, found by tuple lookup."""
    from hochcat.fields import QQ
    from hochcat.hochschild import hochschild_basis, relative_basis
    from hochcat.matrix import Matrix

    relative = set(relative_basis(cat, m))
    full = hochschild_basis(cat, m)
    return Matrix.from_entries(QQ, len(full), len(full),
                               {(i, i): 1 for i, pair in enumerate(full) if pair not in relative})


def face_coboundary(cat, field, m):
    """The degree-m nerve coboundary, summed over ``_face`` chain by chain."""
    from hochcat.matrix import Matrix

    cols = {c: j for j, c in enumerate(nerve_chain_list(cat, m))}
    rows = nerve_chain_list(cat, m + 1)
    entries: dict = {}
    for r, chain in enumerate(rows):
        for i in range(m + 2):
            key = r, cols[_face(cat, chain, i)]
            entries[key] = entries.get(key, 0) + (-1) ** i
    return Matrix.from_entries(field, len(rows), len(cols), entries)


def cohomology_dims_by_rank(matrices, p, ambient_dims):
    """dim H^m = (ambient - rank d_m) - rank d_{m-1}, ranks by naive elimination."""
    dims = []
    prev_rank = 0
    for d, amb in zip(matrices, ambient_dims):
        r = naive_rank(d, p)
        dims.append(amb - r - prev_rank)
        prev_rank = r
    return dims


def naive_hochschild_dims(cat, p, max_m):
    n = cat.n_morphisms
    mats = [hochschild_differential_rows(cat, p, m) for m in range(max_m + 1)]
    return cohomology_dims_by_rank(mats, p, [n ** (m + 1) for m in range(max_m + 1)])


def naive_simplicial_dims(cat, p, max_m):
    mats = [simplicial_coboundary_rows(cat, p, m) for m in range(max_m + 1)]
    ambients = [len(nerve_chain_list(cat, m)) for m in range(max_m + 1)]
    return cohomology_dims_by_rank(mats, p, ambients)


def integer_rank(rows) -> int:
    """Rank over Q of integer rows by fraction-free forward elimination.

    A row is cleared as ``a·row − b·pivot_row`` (a the pivot, b the row's
    entry), which keeps the row space over Q, and divided by the gcd of its
    entries; no Fraction is made.
    """
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        a = prow[col]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if b:
                row = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(rows):
            break
    return rank


# --- invariant factors over Z ------------------------------------------------------

def _combined(x, u: dict, y, v: dict) -> dict:
    """``x·u + y·v`` for sparse integer rows, without its zero entries."""
    out = {k: x * w for k, w in u.items()} if x else {}
    for k, w in v.items():
        out[k] = out.get(k, 0) + y * w
    return {k: w for k, w in out.items() if w}


def _gcd_echelon(rows) -> list:
    """An echelon form over Z of sparse integer rows (``{col: int}``) with
    the same row lattice: per column, ascending, the rows that start there
    are folded into the one with the least leading entry a.  A row whose
    leading entry b is a multiple of a loses ``(b/a)·u``; otherwise the
    unimodular gcd step ``(u, v) → (x·u + y·v, (a/g)·v − (b/g)·u)``, with
    ``g = x·a + y·b`` the gcd, makes g the lead.  The second row starts
    later."""
    starting: dict = {}
    for row in rows:
        if row:
            starting.setdefault(min(row), []).append(dict(row))
    block = []
    while starting:
        col = min(starting)
        lead, *rest = sorted(starting.pop(col), key=lambda row: abs(row[col]))
        for row in rest:
            a, b = lead[col], row[col]
            if b % a == 0:
                row = _combined(-(b // a), lead, 1, row)
            else:
                g, x, y = _extended_gcd(a, b)
                lead, row = _combined(x, lead, y, row), _combined(-(b // g), lead, a // g, row)
            if row:
                starting.setdefault(min(row), []).append(row)
        block.append(lead)
    return block


def _extended_gcd(a: int, b: int) -> tuple:
    """``(g, x, y)`` with ``g = x·a + y·b = gcd(a, b) > 0``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def invariant_factors(rows) -> list:
    """The invariant factors of an integer matrix given by its sparse rows
    (``{col: int}``): the nonzero diagonal of its Smith normal form,
    ascending, each dividing the next.

    The rows are brought to an echelon form with gcd steps
    (``_gcd_echelon``); that block is echeloned again, transposed, until
    every row has one entry, which gives a diagonal form by unimodular row
    and column steps.  Its entries are then made a divisor chain by
    replacing pairs with their gcd and lcm, which keeps their product at
    every prime.
    """
    block = _gcd_echelon(rows)
    while any(len(row) > 1 for row in block):
        columns: dict = {}
        for i, row in enumerate(block):
            for j, v in row.items():
                columns.setdefault(j, {})[i] = v
        block = _gcd_echelon(columns.values())
    diagonal = sorted(abs(v) for row in block for v in row.values())
    big = [d for d in diagonal if d > 1]
    for i in range(len(big)):
        for j in range(i + 1, len(big)):
            g = math.gcd(big[i], big[j])
            big[i], big[j] = g, big[i] * big[j] // g
    return diagonal[:len(diagonal) - len(big)] + big


# --- the skeleton of a category and its prism, by tuples ---------------------------

def _path_objects(cat, chain) -> list:
    if isinstance(chain, int):
        return [chain]
    return [cat.source[chain[0]]] + [cat.target[g] for g in chain]


def skeleton_by_search(cat) -> tuple:
    """``(rep, c, r)`` found by trying every pair of morphisms for inverses.

    ``rep[a]`` is the least object with an isomorphism to a; ``c[a]: a →
    rep(a)`` is the identity when ``rep[a] == a`` and otherwise the inverse
    of the least isomorphism ``rep(a) → a``; ``r[g] = c_b∘g∘c_a⁻¹``.
    """
    n, src, tgt, ident = cat.n_morphisms, cat.source, cat.target, cat.identity
    inverse = {f: g for f in range(n) for g in range(n)
               if src[g] == tgt[f] and tgt[g] == src[f]
               and cat.compose(g, f) == ident[src[f]] and cat.compose(f, g) == ident[tgt[f]]}
    rep, c, c_inv = [], [], []
    for a in range(cat.n_objects):
        b = min(src[f] for f in inverse if tgt[f] == a)
        f = ident[a] if b == a else min(f for f in inverse if src[f] == b and tgt[f] == a)
        rep.append(b)
        c.append(inverse[f])
        c_inv.append(f)
    r = [cat.compose(c[tgt[g]], cat.compose(g, c_inv[src[g]])) for g in range(n)]
    return tuple(rep), tuple(c), tuple(r)


def retracted(skeleton, chain):
    """r applied to a chain: its objects' representatives in degree 0."""
    rep, _c, r = skeleton
    return rep[chain] if isinstance(chain, int) else tuple(r[g] for g in chain)


def prism_terms(cat, skeleton, chain) -> list:
    """``[(sign, (m+1)-chain)]`` of the prism row of an m-chain (an object in
    degree 0): ``(−1)^j (g_0..g_(j−1), c_(x_j), r g_j..r g_(m−1))``."""
    _rep, c, r = skeleton
    sigma = () if isinstance(chain, int) else chain
    return [((-1) ** j, sigma[:j] + (c[x],) + tuple(r[g] for g in sigma[j:]))
            for j, x in enumerate(_path_objects(cat, chain))]


def retraction_entries(cat, skeleton, m) -> dict:
    """``(i∘r)^*`` in degree m as ``{(row, col): 1}``: row σ reads rσ."""
    chains = nerve_chain_list(cat, m)
    index = {ch: j for j, ch in enumerate(chains)}
    return {(i, index[retracted(skeleton, ch)]): 1 for i, ch in enumerate(chains)}


def pulled_back_entries(cat, skeleton, m, cochains) -> dict:
    """The rows ``z∘r`` of ``cochains`` (a Matrix over the skeleton's degree-m
    chains, listed as tuples whose objects are all representatives) in the
    coordinates of ``nerve_chain_list(cat, m)``, as ``{(row, col): value}``."""
    rep = skeleton[0]
    chains = nerve_chain_list(cat, m)
    inside = [ch for ch in chains if all(rep[x] == x for x in _path_objects(cat, ch))]
    position = {ch: j for j, ch in enumerate(inside)}
    at = [position[retracted(skeleton, ch)] for ch in chains]
    return {(k, i): z[j] for k, z in cochains.rows.items() for i, j in enumerate(at) if j in z}


def prism_identity_defect(cat, skeleton, p, m) -> dict:
    """``P δ + δ P − (i∘r)^* + I`` on degree-m cochains, evaluated chain by
    chain from the face and prism formulas: ``{(σ, τ): coefficient}`` of its
    entries that are nonzero in the field, empty when the identity holds."""
    defect = {}
    for sigma in nerve_chain_list(cat, m):
        acc: dict = {}
        for sign, tau in prism_terms(cat, skeleton, sigma):       # (P δ f)(σ)
            for i in range(m + 2):
                _bump(acc, _face(cat, tau, i), sign * (-1) ** i)
        for i in range(m + 1 if m else 0):                          # (δ P f)(σ)
            for sign, tau in prism_terms(cat, skeleton, _face(cat, sigma, i)):
                _bump(acc, tau, sign * (-1) ** i)
        _bump(acc, retracted(skeleton, sigma), -1)
        _bump(acc, sigma, 1)
        for tau, v in acc.items():
            if _scal(p, v) != 0:
                defect[sigma, tau] = v
    return defect


def skeleton_dims(cat, skeleton, p, max_m) -> list:
    """Cohomology of the skeleton's nerve in degrees 0..max_m: its chains are
    the nerve chains whose objects are all representatives, its coboundary
    the face formula on them, ranked by ``naive_rank`` (``integer_rank``
    over Q)."""
    rep = skeleton[0]
    chains = [[ch for ch in nerve_chain_list(cat, m)
               if all(rep[x] == x for x in _path_objects(cat, ch))] for m in range(max_m + 2)]
    mats = []
    for m in range(max_m + 1):
        cols = {ch: j for j, ch in enumerate(chains[m])}
        mat = []
        for ch in chains[m + 1]:
            row = [0] * len(cols)
            for i in range(m + 2):
                row[cols[_face(cat, ch, i)]] += (-1) ** i
            mat.append([_scal(p, v) if p is not None else v for v in row])
        mats.append(mat)
    dims, prev = [], 0
    for m, mat in enumerate(mats):
        rank = naive_rank(mat, p) if p is not None else integer_rank(mat)
        dims.append(len(chains[m]) - rank - prev)
        prev = rank
    return dims


# --- components and their classes, by search ----------------------------------------

def component_classes(cat, keep=None) -> list:
    """``[(objects, size)]``: per class of equal components of the full
    subcategory on ``keep`` (every object by default), the objects of its
    first component and the number of components in the class.

    Components come by breadth-first search, in the order of their least
    objects.  One joins the first class whose first component it matches
    under the map that sends the i-th object and the j-th arrow of that
    component, ascending, to its own i-th and j-th: sources, targets and
    the composite of every composable pair agree.
    """
    src, tgt = cat.source, cat.target
    keep = set(range(cat.n_objects) if keep is None else keep)
    arrows = [g for g in range(cat.n_morphisms) if src[g] in keep and tgt[g] in keep]
    adj = {x: set() for x in keep}
    for g in arrows:
        adj[src[g]].add(tgt[g])
        adj[tgt[g]].add(src[g])
    seen, classes = set(), []   # [objects, arrows, size]
    for start in sorted(keep):
        if start in seen:
            continue
        objs, frontier = {start}, [start]
        while frontier:
            frontier = [y for x in frontier for y in adj[x] if y not in objs]
            objs.update(frontier)
        seen |= objs
        mine = [g for g in arrows if src[g] in objs]
        for cls in classes:
            first, theirs = cls[0], cls[1]
            if (len(first), len(theirs)) != (len(objs), len(mine)):
                continue
            at = dict(zip(first, sorted(objs)))
            to = dict(zip(theirs, mine))
            if any(at[src[g]] != src[to[g]] or at[tgt[g]] != tgt[to[g]] for g in theirs):
                continue
            if any(to[cat.compose(g, f)] != cat.compose(to[g], to[f])
                   for g in theirs for f in theirs if src[g] == tgt[f]):
                continue
            cls[2] += 1
            break
        else:
            classes.append([sorted(objs), mine, 1])
    return [(objs, size) for objs, _mine, size in classes]


def chains_within(cat, objects, m) -> list:
    """Positions in ``nerve_chain_list(cat, m)`` of the chains whose objects
    all lie in ``objects``."""
    return [i for i, ch in enumerate(nerve_chain_list(cat, m))
            if all(x in objects for x in _path_objects(cat, ch))]


def naive_center_dim(cat, p) -> int:
    """Dimension of the centralizer of all of kC: solve cg = gc per basis g."""
    n = cat.n_morphisms
    rows = []
    for g in range(n):
        diff: dict = {}
        for m in range(n):
            for h, v in alg_mul(cat, _basis_elt(cat, p, m), _basis_elt(cat, p, g), p).items():
                diff[m, h] = diff.get((m, h), _scal(p, 0)) + v
            for h, v in alg_mul(cat, _basis_elt(cat, p, g), _basis_elt(cat, p, m), p).items():
                diff[m, h] = diff.get((m, h), _scal(p, 0)) - v
        for h in range(n):
            rows.append([diff.get((m, h), _scal(p, 0)) for m in range(n)])
    if p is not None:
        rows = [[v % p for v in row] for row in rows]
    return n - naive_rank(rows, p)


def naive_graded_derivation_dim(cat, p) -> int:
    """Derivation law over all n^2 unknowns plus explicit grading constraints."""
    n = cat.n_morphisms
    unknowns = [(g, h) for g in range(n) for h in range(n)]
    col = {u: j for j, u in enumerate(unknowns)}
    rows = []
    for g, h in unknowns:  # grading: mismatched endpoints are forced to zero
        if cat.source[g] != cat.source[h] or cat.target[g] != cat.target[h]:
            row = [_scal(p, 0)] * len(unknowns)
            row[col[g, h]] = _scal(p, 1)
            rows.append(row)
    for f in range(n):
        for g in range(n):
            coeff: dict = {}

            def bump(u, w, s):
                coeff[u, w] = coeff.get((u, w), _scal(p, 0)) + s

            fg = cat.compose_table[f][g]
            if fg >= 0:
                for w in range(n):
                    bump((fg, w), w, _scal(p, 1))
            for w1 in range(n):
                prod = cat.compose_table[w1][g]
                if prod >= 0:
                    bump((f, w1), prod, _scal(p, -1))
            for w2 in range(n):
                prod = cat.compose_table[f][w2]
                if prod >= 0:
                    bump((g, w2), prod, _scal(p, -1))
            by_output: dict = {}
            for (u, w), s in coeff.items():
                by_output.setdefault(w, {})[u] = s
            for w, entries in sorted(by_output.items()):
                row = [_scal(p, 0)] * len(unknowns)
                for u, s in entries.items():
                    row[col[u]] = (row[col[u]] + s) % p if p is not None else row[col[u]] + s
                rows.append(row)
    return len(unknowns) - naive_rank(rows, p)


def naive_character_dim(fad, p) -> int:
    n = fad.n_morphisms
    rows = []
    for eta in range(n):
        for zeta in range(n):
            h = fad.compose(eta, zeta)
            if h < 0:
                continue
            row = [_scal(p, 0)] * n
            for idx, s in ((h, 1), (eta, -1), (zeta, -1)):
                row[idx] = (row[idx] + s) % p if p is not None else row[idx] + s
            rows.append(row)
    return n - naive_rank(rows, p)


# --- the Theorem B systems, assembled by hand -----------------------------------
#
# Both return (nrows, ncols, entries over Z keyed by (row, col)); the engine
# reads the same two spaces off ker d_1 of the relative complex and ker δ^1 of
# the F^ad nerve.

def _bump(entries: dict, key, val) -> None:
    v = entries.get(key, 0) + val
    if v:
        entries[key] = v
    else:
        del entries[key]


def derivation_system(cat) -> tuple:
    """The law X(f∘g) = X(f)∘g + f∘X(g), one row per (f, g, output w).

    Unknowns are the endpoint-matching coefficients X^h_g, in the order of
    the degree-1 relative basis; non-composable pairs give rows too (their
    products are zero in kC), almost all of them empty.
    """
    n = cat.n_morphisms
    src, tgt, comp = cat.source, cat.target, cat.compose_table

    def parallel(g):
        return [h for h in range(n) if src[h] == src[g] and tgt[h] == tgt[g]]

    col_of = {}
    for g in range(n):
        for h in parallel(g):
            col_of[g, h] = len(col_of)
    entries: dict = {}
    for f in range(n):
        for g in range(n):
            row = (f * n + g) * n
            fg = comp[f][g]
            if fg >= 0:
                for w in parallel(fg):
                    _bump(entries, (row + w, col_of[fg, w]), 1)
            for w1 in parallel(f):
                w = comp[w1][g]
                if w >= 0:
                    _bump(entries, (row + w, col_of[f, w1]), -1)
            for w2 in parallel(g):
                w = comp[f][w2]
                if w >= 0:
                    _bump(entries, (row + w, col_of[g, w2]), -1)
    return n * n * n, len(col_of), entries


def character_system(fad) -> tuple:
    """T(η∘ζ) - T(η) - T(ζ) = 0, one row per ordered pair (η, ζ) of morphisms."""
    n = fad.n_morphisms
    entries: dict = {}
    for eta in range(n):
        for zeta in range(n):
            h = fad.compose(eta, zeta)
            if h >= 0:
                for col, val in ((h, 1), (eta, -1), (zeta, -1)):
                    _bump(entries, (eta * n + zeta, col), val)
    return n * n, n, entries


# --- the predicates and associativity, by exhaustive search ---------------------------
#
# The package decides each predicate by set algebra and checks associativity
# a row at a time.  These are the definitions searched cell by cell, in the
# order that makes the first counterexample the lexicographically first.

def _endos(cat):
    return [m for m in range(cat.n_morphisms) if cat.source[m] == cat.target[m]]


def _first_left_cancellation_failure(cat):
    comp, src, tgt, n = cat.compose_table, cat.source, cat.target, cat.n_morphisms
    for g in range(n):
        hs = [h for h in range(n) if tgt[h] == src[g]]
        for h in hs:
            for f in hs:
                if h != f and comp[g][h] == comp[g][f]:
                    return {"g": g, "h": h, "f": f}
    return None


def _first_right_cancellation_failure(cat):
    comp, src, tgt, n = cat.compose_table, cat.source, cat.target, cat.n_morphisms
    for g in range(n):
        hs = [h for h in range(n) if src[h] == tgt[g]]
        for h in hs:
            for f in hs:
                if h != f and comp[h][g] == comp[f][g]:
                    return {"g": g, "h": h, "f": f}
    return None


def _first_left_determinism_failure(cat):
    comp, src, tgt, n = cat.compose_table, cat.source, cat.target, cat.n_morphisms
    for b in _endos(cat):
        for g in range(n):
            if tgt[g] != src[b]:
                continue
            if not any(comp[g][a] == comp[b][g] for a in _endos(cat) if src[a] == src[g]):
                return {"b": b, "g": g}
    return None


def _first_right_determinism_failure(cat):
    comp, src, tgt, n = cat.compose_table, cat.source, cat.target, cat.n_morphisms
    for a in _endos(cat):
        for g in range(n):
            if src[g] != src[a]:
                continue
            if not any(comp[b][g] == comp[g][a] for b in _endos(cat) if src[b] == tgt[g]):
                return {"a": a, "g": g}
    return None


def _first_rr_transitivity_failure(cat):
    comp, src, tgt, n = cat.compose_table, cat.source, cat.target, cat.n_morphisms
    for x1 in range(cat.n_objects):
        ends = [a for a in _endos(cat) if src[a] == x1]
        for x2 in range(cat.n_objects):
            homs = [m for m in range(n) if src[m] == x1 and tgt[m] == x2]
            for f in homs:
                for g in homs:
                    if not any(comp[g][a] == f for a in ends):
                        return {"f": f, "g": g}
    return None


def exhaustive_predicates(cat) -> dict:
    """name -> (holds, witness) of the five predicates, witness as in ``PredicateReport``."""
    searches = {
        "left_cancellative": _first_left_cancellation_failure,
        "right_cancellative": _first_right_cancellation_failure,
        "left_deterministic": _first_left_determinism_failure,
        "right_deterministic": _first_right_determinism_failure,
        "rr_transitive": _first_rr_transitivity_failure,
    }
    out = {}
    for name, search in searches.items():
        roles = search(cat)
        witness = None if roles is None else tuple(
            (role, cat.morphism_names[m]) for role, m in roles.items())
        out[name] = (roles is None, witness)
    return out


def first_associativity_failure(table, source, target):
    """The first ``(h, g, f)`` with ``(h∘g)∘f != h∘(g∘f)``, scanning every cell; or None.

    ``table[g][f]`` is g∘f on every composable pair, UNDEFINED elsewhere.
    """
    n = len(table)
    for h in range(n):
        for g in range(n):
            if source[h] != target[g]:
                continue
            for f in range(n):
                if source[g] == target[f] and table[table[h][g]][f] != table[h][table[g][f]]:
                    return h, g, f
    return None


# --- the adjoint category and the text form, over all pairs ----------------------------

def fad_compose_table(fad) -> list:
    """Dense ``[η][ζ]`` table of F^ad, filled by pasting every pair of triples.

    (a2, g2, b2)∘(a1, g1, b1) is defined when the squares meet (a2 = b1) and
    is then the triple (a1, g2∘g1, b2) of the base.
    """
    base = fad.base
    index = {t: i for i, t in enumerate(fad.triples)}
    n = fad.n_morphisms
    table = [[-1] * n for _ in range(n)]
    for j, (a1, g1, b1) in enumerate(fad.triples):        # zeta, applied first
        for i, (a2, g2, b2) in enumerate(fad.triples):    # eta, applied second
            if a2 == b1 and base.source[g2] == base.target[g1]:
                table[i][j] = index[a1, base.compose_table[g2][g1], b2]
    return table


def category_text_all_pairs(cat) -> str:
    """The text form with its compose lines found by scanning every pair."""
    lines = [f"object {name}" for name in cat.object_names]
    for m, name in enumerate(cat.morphism_names):
        src = cat.object_names[cat.source[m]]
        tgt = cat.object_names[cat.target[m]]
        suffix = " identity" if cat.is_identity(m) else ""
        lines.append(f"morphism {name} : {src} -> {tgt}{suffix}")
    for g in range(cat.n_morphisms):
        if cat.is_identity(g):
            continue
        for f in range(cat.n_morphisms):
            if cat.is_identity(f):
                continue
            h = cat.compose(g, f)
            if h >= 0:
                lines.append(
                    f"compose {cat.morphism_names[g]} {cat.morphism_names[f]}"
                    f" = {cat.morphism_names[h]}"
                )
    return "\n".join(lines) + "\n"


def component_count_bfs(cat) -> int:
    """Connected components of the underlying graph, by breadth-first search."""
    adj = {x: set() for x in range(cat.n_objects)}
    for m in range(cat.n_morphisms):
        adj[cat.source[m]].add(cat.target[m])
        adj[cat.target[m]].add(cat.source[m])
    seen: set = set()
    count = 0
    for start in range(cat.n_objects):
        if start in seen:
            continue
        count += 1
        frontier = [start]
        seen.add(start)
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return count


# --- commuting squares and the identity span, by expansion --------------------------

def completions(cat) -> dict:
    """(g, a) -> every b with g∘a = b∘g, for each endomorphism a at source(g)."""
    comp = cat.compose_table
    return {
        (g, a): [b for b in range(cat.n_morphisms)
                 if cat.source[b] == cat.target[b] == cat.target[g] and comp[b][g] == comp[g][a]]
        for g in range(cat.n_morphisms)
        for a in range(cat.n_morphisms) if cat.source[a] == cat.target[a] == cat.source[g]
    }


def read_columns(cat, m) -> list:
    """Per chain of ``nerve_chain_list(adjoint_category(cat), m)``, the Hochschild
    column T reads, from the tuples: ``basis_index`` of the reversed
    bottoms and the composite ``g_(m−1)∘..∘g_0∘a_0`` (the endomorphism
    itself for an object)."""
    from hochcat import adjoint_category
    from hochcat.hochschild import basis_index

    fad = adjoint_category(cat)
    if m == 0:
        return [basis_index(cat, (), fad.object_endos[o]) for o in nerve_chain_list(fad, 0)]
    out = []
    for chain in nerve_chain_list(fad, m):
        c = fad.triples[chain[0]][0]
        bottoms = [fad.triples[t][1] for t in chain]
        for g in bottoms:
            c = cat.compose(g, c)
        out.append(basis_index(cat, tuple(reversed(bottoms)), c))
    return out


def ladder_commutes(cat, bottom, verticals) -> bool:
    """Each square g_i∘a_i = a_{i+1}∘g_i of the ladder commutes."""
    comp = cat.compose_table
    return all(comp[g][a] == comp[b][g] for g, a, b in zip(bottom, verticals, verticals[1:]))


def complete_ladder(found, chain, a0) -> tuple:
    """Verticals (a_0..a_m) of the ladder over ``chain`` from base vertical
    ``a0``, each square completed by its one b in ``found``, the
    ``completions`` of the category; raises KeyError when a square has no
    key, ValueError when it has no or several completions."""
    verticals = [a0]
    for g in chain:
        (b,) = found[g, verticals[-1]]
        verticals.append(b)
    return tuple(verticals)


def ladder_completion_x(cat, fad, m, rows) -> dict:
    """X in degree m by ladder completion: ``{(row, col): count}``.

    The section built the long way: per chain (g_0..g_{m-1}) of ``cat`` and base
    vertical a_0, complete the ladder (``complete_ladder``) and add 1 at the
    row of the cochain (g_{m-1}..g_0) -> g_{m-1}∘..∘g_0∘a_0 in ``rows`` (a
    list of ``(tuple, output)`` basis pairs) and the column of the F^ad chain
    of its triples.  Assumes right determinism and right cancellation.
    """
    comp = cat.compose_table
    found = completions(cat)
    row_of = {pair: i for i, pair in enumerate(rows)}
    col_of = {c: j for j, c in enumerate(nerve_chain_list(fad, m))}
    triple_of = {t: i for i, t in enumerate(fad.triples)}
    object_of = {e: o for o, e in enumerate(fad.object_endos)}
    entries: dict = {}
    for chain in nerve_chain_list(cat, m):
        x = cat.source[chain[0]] if m else chain
        for a0 in range(cat.n_morphisms):
            if not cat.source[a0] == cat.target[a0] == x:
                continue
            if m == 0:
                key = (row_of[(), a0], col_of[object_of[a0]])
            else:
                verticals = complete_ladder(found, chain, a0)
                fad_chain = tuple(triple_of[t] for t in zip(verticals, chain, verticals[1:]))
                c = a0
                for g in chain:
                    c = comp[g][c]
                key = (row_of[tuple(reversed(chain)), c], col_of[fad_chain])
            entries[key] = entries.get(key, 0) + 1
    return entries


def _env_mul(cat, p, u: dict, v: dict) -> dict:
    """Product in kC ⊗ kC^op of sparse elements: (a⊗b)(c⊗d) = (a∘c) ⊗ (d∘b)."""
    comp = cat.compose_table
    out: dict = {}
    for (a, b), x in u.items():
        for (c, d), y in v.items():
            ac, db = comp[a][c], comp[d][b]
            if ac >= 0 and db >= 0:
                out[ac, db] = out.get((ac, db), _scal(p, 0)) + x * y
    if p is not None:
        out = {k: w % p for k, w in out.items()}
    return {k: w for k, w in out.items() if w != 0}


def separability_check(cat, p=None) -> bool:
    """Verify the separability idempotent of the identity span by expansion.

    Checks that e = Σ_x 1_x ⊗ 1_x is idempotent, multiplies out to the unit
    of kC, and commutes with every generator 1_x in the enveloping algebra.
    """
    one = _scal(p, 1)
    e = {(i, i): one for i in cat.identity}
    if _env_mul(cat, p, e, e) != e:
        return False
    unit: dict = {}
    for a, b in e:
        h = cat.compose_table[a][b]
        if h < 0:
            return False
        unit[h] = unit.get(h, _scal(p, 0)) + one
    if {h: v for h, v in unit.items() if v != 0} != {i: one for i in cat.identity}:
        return False
    return all(
        _env_mul(cat, p, {(r, y): one for y in cat.identity}, e)
        == _env_mul(cat, p, {(y, r): one for y in cat.identity}, e)
        for r in cat.identity
    )


# --- Theorem A through the map induced on Z/B --------------------------------------

def _quotient_pivot_index(Z, B) -> list[int]:
    """Indices of Z-basis rows whose pivots are not pivots of B.

    Because both bases are in RREF and B is contained in Z, these rows
    represent a complement of B in Z.
    """
    bpiv = set(B.pivots)
    return [i for i, p in enumerate(Z.pivots) if p not in bpiv]


def induced_quotient_map(T, Z_src, B_src, Z_dst, B_dst) -> tuple:
    """Matrix of the map Z_src/B_src -> Z_dst/B_dst induced by T.

    Verifies B <= Z on both sides with ``quotient_dim`` (NotASubspace
    otherwise) and that T maps Z_src into Z_dst and B_src into B_dst
    (NotChainCompatible otherwise).  Returns (matrix, invertible) where the
    matrix is written in the canonical quotient bases and ``invertible``
    reports whether it is square of full rank.
    """
    from hochcat.errors import NotChainCompatible
    from hochcat.matrix import Matrix, quotient_dim

    q_src, q_dst = quotient_dim(Z_src, B_src), quotient_dim(Z_dst, B_dst)
    f = T.field
    images = Z_src.basis @ T.transpose()   # row i: T applied to basis row i of Z_src
    if not Z_dst.residues(images).is_zero():
        raise NotChainCompatible("map does not preserve cocycles")
    # a row b of B_src is the combination b[pivot] of the Z_src rows, so
    # T(b) is the same combination of their images (B <= Z, so no row of
    # B_src has all-zero coordinates)
    row_of = {p: i for i, p in enumerate(Z_src.pivots)}
    coords = Matrix(f, B_src.dim, Z_src.dim,
                    {r: {row_of[c]: v for c, v in row.items() if c in row_of}
                     for r, row in B_src.basis.rows.items()})
    if not B_dst.residues(coords @ images).is_zero():
        raise NotChainCompatible("map does not preserve coboundaries")
    # coordinates of image + B_dst in the canonical complement basis of B_dst
    reps = B_dst.residues(images).rows
    r_of = {Z_dst.pivots[i]: r for r, i in enumerate(_quotient_pivot_index(Z_dst, B_dst))}
    rows = {}
    for j, i in enumerate(_quotient_pivot_index(Z_src, B_src)):
        for c, v in reps.get(i, {}).items():
            r = r_of.get(c)
            if r is not None:
                rows.setdefault(r, {})[j] = v
    Q = Matrix(f, q_dst, q_src, rows)
    invertible = q_src == q_dst and Q.rank() == q_src
    return Q, invertible


def basis_route(cat, field, max_m: int, cap, checks: list) -> list:
    """Per degree, the three dimensions and whether the map T induces on ``Z/B``
    is surjective or invertible, given that degree's identity ``checks``.

    T is read through ``comparison.t_map_matrix``, so a test that patches
    it patches this route too.
    """
    from hochcat import comparison
    from hochcat.comparison import DegreeComparison
    from hochcat.errors import NotChainCompatible
    from hochcat.hochschild import (
        hochschild_differential_matrix,
        relative_differential_matrix,
        relative_is_full,
    )
    from hochcat.matrix import cohomology, cohomology_dims
    from hochcat.nerve import simplicial_coboundary_matrix

    fad = comparison.adjoint_category(cat)
    rng = range(max_m + 1)
    full = (hochschild_differential_matrix(cat, m, cap) for m in rng)
    nerve = (simplicial_coboundary_matrix(fad, m, cap) for m in rng)
    relative = None
    if not relative_is_full(cat):
        relative = iter(cohomology_dims((relative_differential_matrix(cat, m, cap) for m in rng), field))
    out = []
    for m, (Z_h, B_h, dim_h), (Z_s, B_s, dim_s), ch in zip(rng, cohomology(full, field),
                                                            cohomology(nerve, field), checks):
        dim_r = dim_h if relative is None else next(relative)
        invertible, surjective = False, False
        try:
            induced, invertible = induced_quotient_map(
                reduced(comparison.t_map_matrix(cat, m, cap), field), Z_h, B_h, Z_s, B_s
            )
            surjective = induced.rank() == dim_s
        except NotChainCompatible:
            pass   # T is not a chain map here; the identity checks show where
        ok = all(ch)
        out.append(DegreeComparison(m, dim_h, dim_r, dim_s, surjective and ok,
                                    invertible and ok, ch))
    return out


def basis_route_report(cat, field, max_m: int):
    """``(tier, degrees, verdict)`` of Theorem A with every certified degree's
    flags read off the map T induces on ``Z/B`` (``basis_route``).

    The unverified tier certifies nothing, so its flags are false.
    """
    from dataclasses import replace

    from hochcat import comparison, predicate_reports

    tier = comparison.hypothesis_tier({n: r.holds for n, r in predicate_reports(cat).items()})
    checks = [comparison._checks(cat, field, m, None, tier) for m in range(max_m + 1)]
    degrees = basis_route(cat, field, max_m, None, checks)
    if tier == "unverified":
        degrees = [replace(rec, induced_surjective=False, induced_invertible=False)
                   for rec in degrees]
    certified = all(rec.induced_invertible if tier == "isomorphism" else rec.induced_surjective
                    for rec in degrees)
    verdict = tier if (tier == "unverified" or certified) else "failed"
    return tier, degrees, verdict
