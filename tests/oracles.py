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
# Over Q ``Matrix.rref`` eliminates modulo primes and certifies a lift.  The
# reference is the package's sparse engine run on Fractions throughout, the
# route that route replaces and still falls back to.

def fraction_rref(m):
    """``(pivots, R)`` of a Q matrix from ``_rref_sparse`` on Fraction rows."""
    from hochcat.fields import QQ
    from hochcat.matrix import Matrix, _rref_sparse, _scalar_hooks

    rows = [{c: Fraction(v) for c, v in r.items()} for r in m.row_dicts() if r]
    pivots, rows = _rref_sparse(rows, m.ncols, *_scalar_hooks(QQ))
    cells = {(i, c): v for i, row in enumerate(rows) for c, v in row.items()}
    return tuple(pivots), Matrix(QQ, len(pivots), m.ncols, cells)


def fraction_kernel(m):
    """``(pivots, basis)`` of the right kernel, read off ``fraction_rref`` as
    ``Matrix.kernel_basis`` does and put in RREF by it again."""
    from hochcat.matrix import Matrix

    pivots, R = fraction_rref(m)
    free = [c for c in range(m.ncols) if c not in set(pivots)]
    row_of = {j: k for k, j in enumerate(free)}
    cells = {(k, j): Fraction(1) for k, j in enumerate(free)}
    for (i, j), v in R._cells.items():
        if j in row_of:
            cells[row_of[j], pivots[i]] = -v
    return fraction_rref(Matrix(m.field, len(free), m.ncols, cells))


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
    m = len(chain)
    if m == 1:
        return cat.target[chain[0]] if i == 0 else cat.source[chain[0]]
    if i == 0:
        return chain[1:]
    if i == m:
        return chain[:-1]
    return chain[: i - 1] + (cat.compose(chain[i], chain[i - 1]),) + chain[i + 1:]


def nerve_chain_list(cat, m):
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


def ladder_commutes(cat, ladder) -> bool:
    comp = cat.compose_table
    return all(comp[g][a] == comp[b][g]
               for g, a, b in zip(ladder.bottom, ladder.verticals, ladder.verticals[1:]))


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
