"""Graded comparison maps between Hochschild and simplicial cochains.

``T`` reads one coefficient of a Hochschild cochain per nerve chain of the
adjoint category: a chain of triples ``(a_0,g_0,a_1)..(a_{m-1},g_{m-1},a_m)``
reads the coefficient at input tuple ``(g_{m-1}, .., g_0)`` (chains are
stored source to target, tensor slots run the other way) and output
``g_{m-1}∘..∘g_0∘a_0``.  ``X`` goes back by summing over all base verticals
``a_0`` of the ladders completed from a chain of the base.

Lemma: under right determinism and right cancellation, each ``F^ad`` chain
is the unique completion of its bottom ``(g_0..g_{m-1})`` and its base
vertical ``a_0`` (right determinism completes each square
``g_i∘a_i = a_{i+1}∘g_i``, right cancellation makes ``a_{i+1}`` unique), so
the ladders X sums are the F^ad chains, each once, and X's matrix is Tᵀ.
X is built as that transpose, behind the same gate.

T is pure index data: ``_read(cat, m)`` holds, per F^ad chain, the column
it reads, as a stdlib ``array('l')``, climbed from the chain's prefix in
the nerve's own order (the ``nerve`` docstring).  It is kept on the
category as the integer differentials are, once for every field.  Every
reader takes it as a ``matrix.Reading``: T on the left selects rows, T on the
right renames columns, and X = Tᵀ copies columns, in the checks here and
in Theorem B's restricted maps (``derivations``).  T and X are built as
matrices only by the public ``t_map_matrix`` and ``x_map_matrix``, and X
only for X^(m+1) in the x_chain product.

The set facts: entry (σ, τ) of ``T Tᵀ`` is 1 when σ and τ read the same
column and 0 otherwise, and entry (j, j) of ``Tᵀ T`` counts the chains
that read j.  So ``section(m)`` (``T X = I``) holds exactly when T's reads
are distinct, and ``two_sided_relative(m)`` (``X_rel T_rel = I``, then
``T_rel X_rel = I``) when T reads only relative columns and each of them
once (over GF(p), a count of p + 1 passes the first and fails the second).
Both are decided on the reads in O(rows), with the first difference the
products would give (``Reading.identity_difference``); no product is taken.

Lemma (x_chain on one object): if the relative complex is the full one up
to degree m + 1, ``t_chain(m)``, ``section(m)`` and ``X^(m+1) T^(m+1) = I``
(the set fact: each column is read by a number of chains that is 1 in the
field) give ``x_chain(m)``.  With
``s = (−1)^(m+1)``, so that ``t_chain(m)`` reads ``δ^m T^m = s T^(m+1) ∂^m``:

    X^(m+1) δ^m = X^(m+1) δ^m T^m X^m           (section: T^m X^m = I)
                = s X^(m+1) T^(m+1) ∂^m X^m     (t_chain(m))
                = s ∂^m X^m                      (X^(m+1) T^(m+1) = I).

So a group's report takes x_chain from its premises and multiplies only
when one fails.  With several objects T^(m+1) misses the columns outside
the relative complex, so the premise fails and the product runs.

``theorem_a_report`` is the whole certificate: for each degree it holds the
three dimensions, the results of the exact chain identities, and whether T
induces a surjection or an isomorphism on cohomology, and its verdict
accounts for all of them.  The CLI only formats it.

Lemma (the flags): if ``t_chain(m−1)``, ``t_chain(m)``, ``x_chain(m)`` and
``section(m)`` hold, T induces a surjection ``HH^m → H^m(F^ad)``:

* ``t_chain(m)`` gives ``T·ker ∂^m ⊆ ker δ^m`` and ``t_chain(m−1)`` gives
  ``T·im ∂^(m−1) ⊆ im δ^(m−1)``, so T induces a map ``T_*``;
* ``x_chain(m)`` sends a cocycle z to a cocycle ``Xz``, and ``section(m)``
  makes ``T(Xz) = z``, so ``T_* X_* = id`` and ``T_*`` is onto.

It is an isomorphism exactly when ``dim HH^m = dim H^m(F^ad)``.  So a
degree is ``induced_surjective`` when all of its checks hold (never in the
unverified tier, which has none), and ``induced_invertible`` when the two
dimensions also agree.  A degree's flags read its own checks only, but the
verdict requires every degree's, so on every report whose checks all hold
the flags are the induced map's answer, and that map is never built.

Lemma (the relative complex): in the isomorphism tier, if every check of
degrees m − 1 and m holds, ``T_*`` and ``X_*`` are inverse maps between
``H^m(rel)`` and ``H^m(F^ad)``, whatever the number of objects:

* the relative complex is a subcomplex (``_relative_differential`` raises
  ``NotASubcomplex`` otherwise), and ``t_chain`` and ``x_chain`` in degrees
  m − 1 and m make T and X commute with the differentials around degree m;
* ``two_sided_relative(m)``: T reads only relative columns (so X = Tᵀ
  lands in them, and by degree m − 1's check one degree down too),
  ``X_rel T_rel = I`` and ``T_rel X_rel = I``;
* so ``X_* T_*`` and ``T_* X_*`` are induced by identities.

So every report ranks the nerve of ``F^ad`` once:
``simplicial_cohomology_dims`` ranks the skeleton of ``F^ad`` when its
prism identity holds (the skeleton lemma in ``nerve``), and ``F^ad`` itself
otherwise.  The relative complex takes the nerve's dimensions when the
isomorphism tier's checks all hold, and is ranked only in the surjection
and unverified tiers and after a failed check.  For one object the
relative complex is the full one, so a certified group's three dimensions
are the nerve's and no Hochschild differential is ranked.  Only the full
complex with more than one object in a certified tier is still counted on
the bases of ``matrix.cohomology``: the benchmark harness requires a
``matrix.subspace`` call on ``compare`` (``perfbench/test_harness.py``,
``USED["certify"]``).

The maps, the identity checks and the report take ``(cat, field, m)``, and
a ``cap`` where they build bases, like the complexes they compare.  The
checks read ∂, δ and X as integer matrices, evaluate both sides over Z with
``(−1)^(m+1)`` as an int, and reduce their difference into the field.
``F^ad`` is ``adjoint_category(cat)``, memoized on ``cat``, and a map or
check that needs a hypothesis tests it with ``require_predicates(cat, ...)``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import add

from .category import (
    FiniteCategory,
    adjoint_category,
    memo,
    predicate_reports,
    require_predicates,
)
from .errors import NotChainCompatible
from .fields import QQ, FieldSpec
from .hochschild import (
    check_degree,
    check_sizes,
    hochschild_basis_size,
    hochschild_cohomology_dims,
    hochschild_differential_matrix,
    hochschild_sizes,
    relative_cohomology_dims,
    relative_is_full,
    relative_sizes,
    _relative_of_full,
)
from .matrix import Matrix, Reading, VerificationResult, cohomology
from .nerve import _blocks, nerve_sizes, simplicial_coboundary_matrix, simplicial_cohomology_dims

CANCELLATIVE = ("left_cancellative", "right_cancellative")
DETERMINISTIC = ("left_deterministic", "right_deterministic")


# --- the reading map T and its transpose X -------------------------------------

@memo
def _read(cat: FiniteCategory, m: int) -> array:
    """Per chain σ of F^ad's degree-m nerve, the Hochschild column T^m reads.

    σ reads its triples: bottom g_i and base vertical a_0.  The column is
    ``basis_index`` of ``((g_(m−1), .., g_0), c)`` with c the composite
    ``g_(m−1)∘..∘g_0∘a_0``, which is ``Σ_i g_i·n^(i+1) + c``.  For σ the
    extension of p by a triple with bottom g, that is p's column ``col``
    with ``c = col mod n`` replaced: ``col − c + g·n^k + g∘c`` in degree k.
    The degrees below m are climbed here, not read from this memo, so
    each degree's reads are its own.
    """
    fad = adjoint_category(cat)
    n = cat.n_morphisms
    if m == 0:
        return array("l", fad.object_endos)
    comp = cat.compose_table
    read = array("l", (g * n + comp[g][a] for a, g, _b in fad.triples))
    # per F^ad object: the bottoms of the arrows out of it
    bottoms = [tuple(fad.triples[t][1] for t in outs) for outs in fad.morphisms_by_source]
    after = [tuple(row[c] for row in comp) for c in range(n)]   # after[c][g] = g∘c
    for k in range(2, m + 1):
        climbs = [tuple(g * n ** k for g in gs) for gs in bottoms]
        below, read = read, array("l")
        for p, _first, x in _blocks(fad, k):
            col = below[p]
            c = col % n
            read.extend(map((col - c).__add__,
                            map(add, climbs[x], map(after[c].__getitem__, bottoms[x]))))
    return read


@memo
def _read_relative(cat: FiniteCategory, m: int) -> tuple:
    """``(T_rel, None)``, T^m as a ``Reading`` of the relative columns (of
    the full ones when the relative basis is the full one), or
    ``(None, c)`` for the first column c that T reads outside it."""
    read = _read(cat, m)
    if relative_is_full(cat, m):
        return Reading(read, hochschild_basis_size(cat, m)), None
    rel_of_full = _relative_of_full(cat, m)
    renumbered = array("l", map(rel_of_full.get, read, repeat(-1)))
    if -1 in renumbered:
        return None, read[renumbered.index(-1)]
    return Reading(renumbered, len(rel_of_full)), None


def _check_map_cap(cat: FiniteCategory, m: int, cap: int | None, sizes=None) -> None:
    """Refuse degree m unless the cochain bases (Hochschild, or ``sizes``) and
    the F^ad chain counts up to it fit under the cap; both are sizes, so
    nothing is listed.  A negative degree is refused first."""
    check_degree(m)
    check_sizes(hochschild_sizes(cat) if sizes is None else sizes, m, cap)
    check_sizes(nerve_sizes(adjoint_category(cat)), m, cap)


def _reading(cat: FiniteCategory, m: int, cap: int | None) -> Reading:
    """T^m as a ``Reading``, once the cap admits degree m."""
    _check_map_cap(cat, m, cap)
    return Reading(_read(cat, m), hochschild_basis_size(cat, m))


def _relative_reading(cat: FiniteCategory, m: int, cap: int | None) -> Reading:
    """T^m as a ``Reading`` of the relative columns, once the cap admits the
    relative sizes; ``NotChainCompatible`` when T reads a column that is
    not relative."""
    _check_map_cap(cat, m, cap, relative_sizes(cat))
    t_rel, outside = _read_relative(cat, m)
    if t_rel is None:
        raise NotChainCompatible(f"T^{m} reads column {outside}, which is not relative")
    return t_rel


def t_map_matrix(cat: FiniteCategory, field: FieldSpec, m: int, cap: int | None = None) -> Matrix:
    """Matrix of T from degree-m Hochschild cochains to nerve cochains of F^ad."""
    return _reading(cat, m, cap).matrix(field)


def x_map_matrix(cat: FiniteCategory, field: FieldSpec, m: int, cap: int | None = None) -> Matrix:
    """Matrix of X from nerve cochains of F^ad to degree-m Hochschild cochains.

    X sums, over the base verticals a_0, the ladders completed from a chain
    of ``cat``.  Under right determinism and right cancellation each F^ad
    chain is the one completion of its bottom and a_0, so X is Tᵀ.
    """
    require_predicates(cat, "right_deterministic", "right_cancellative")
    return _reading(cat, m, cap).T.matrix(field)


# --- chain-map identities ---------------------------------------------------------

def verify_t_chain_identity(cat: FiniteCategory, field: FieldSpec, m: int,
                            cap: int | None = None) -> VerificationResult:
    """T^(m+1) ∘ ∂^m = (-1)^(m+1) δ^m ∘ T^m, as exact matrices.

    T selects rows of ∂ on the left and renames the columns of δ on the
    right, so neither product multiplies.
    """
    require_predicates(cat, *CANCELLATIVE)
    lhs = _reading(cat, m + 1, cap) @ hochschild_differential_matrix(cat, QQ, m, cap)
    delta = simplicial_coboundary_matrix(adjoint_category(cat), QQ, m, cap)
    rhs = delta @ _reading(cat, m, cap)
    return VerificationResult.of("t_chain", m, lhs, rhs, field, (-1) ** (m + 1))


def verify_x_chain_identity(cat: FiniteCategory, field: FieldSpec, m: int,
                            cap: int | None = None) -> VerificationResult:
    """X^(m+1) ∘ δ^m = (-1)^(m+1) ∂^m ∘ X^m, as exact matrices.

    X^(m+1) = Tᵀ has one entry per (m+1)-chain, so its product with δ adds
    up that many rows of δ; on the right, X^m copies the columns of the
    much larger ∂ by T's reads (a ``Reading``), and no X^m is built.
    """
    require_predicates(cat, *DETERMINISTIC, *CANCELLATIVE)
    delta = simplicial_coboundary_matrix(adjoint_category(cat), QQ, m, cap)
    lhs = x_map_matrix(cat, QQ, m + 1, cap) @ delta
    rhs = hochschild_differential_matrix(cat, QQ, m, cap) @ _reading(cat, m, cap).T
    return VerificationResult.of("x_chain", m, lhs, rhs, field, (-1) ** (m + 1))


def verify_section(cat: FiniteCategory, field: FieldSpec, m: int,
                   cap: int | None = None) -> VerificationResult:
    """T^m ∘ X^m is the identity on degree-m nerve cochains of F^ad.

    Entry (σ, τ) of ``T Tᵀ`` is 1 when σ and τ read one column, so the
    identity holds exactly when T's reads are distinct; its verdict and
    first difference are read off them.
    """
    require_predicates(cat, "right_deterministic", *CANCELLATIVE)
    diff = _reading(cat, m, cap).identity_difference(field)
    return VerificationResult("section", m, diff is None, diff)


def verify_two_sided_on_relative(cat: FiniteCategory, field: FieldSpec, m: int,
                                 cap: int | None = None) -> VerificationResult:
    """On relative cochains T and X are mutually inverse bijections.

    Checks (i) every Hochschild column T reads is relative, so the image of
    X = Tᵀ lies in the relative span, and (ii) ``X_rel T_rel = I``, then
    ``T_rel X_rel = I``.  The relative sizes and F^ad chain counts up to
    degree m are checked against the cap first.  (ii) is read off T_rel's
    reads, first difference included.
    """
    require_predicates(cat, "rr_transitive", *DETERMINISTIC, *CANCELLATIVE)
    _check_map_cap(cat, m, cap, relative_sizes(cat))
    name = "two_sided_relative"
    t_rel, outside = _read_relative(cat, m)
    if t_rel is None:
        return VerificationResult(name, m, False, (outside, -1, "image not relative", None))
    diff = t_rel.T.identity_difference(field) or t_rel.identity_difference(field)
    return VerificationResult(name, m, diff is None, diff)


# --- Theorem A, degree by degree ------------------------------------------------

@dataclass(frozen=True)
class DegreeComparison:
    """One degree of the Theorem A certificate.

    ``checks`` holds the ``t_chain``, ``x_chain``, ``section`` and (isomorphism
    tier) ``two_sided_relative`` results, none in the unverified tier.
    ``induced_surjective`` is that there are checks and all hold, and
    ``induced_invertible`` adds ``dim_hochschild == dim_simplicial``.
    """

    degree: int
    dim_hochschild: int
    dim_relative: int
    dim_simplicial: int
    induced_surjective: bool
    induced_invertible: bool
    checks: tuple = ()              # VerificationResult per identity


@dataclass(frozen=True)
class TheoremAReport:
    tier: str          # "isomorphism" | "surjection" | "unverified"
    degrees: tuple
    verdict: str       # tier name when certified, "failed" when a check broke


def hypothesis_tier(flags: dict) -> str:
    base = all(flags[n] for n in CANCELLATIVE + DETERMINISTIC)
    if base and flags["rr_transitive"]:
        return "isomorphism"
    if base:
        return "surjection"
    return "unverified"


def _checks(cat: FiniteCategory, field: FieldSpec, m: int, cap: int | None, tier: str) -> tuple:
    """The identity checks of degree m that the tier calls for."""
    if tier == "unverified":
        return ()
    t_chain = verify_t_chain_identity(cat, field, m, cap)
    section = verify_section(cat, field, m, cap)
    if (relative_is_full(cat, m + 1) and t_chain and section
            and _reading(cat, m + 1, cap).T.identity_difference(field) is None):
        x_chain = VerificationResult("x_chain", m, True)   # the x_chain lemma
    else:
        x_chain = verify_x_chain_identity(cat, field, m, cap)
    checks = (t_chain, x_chain, section)
    if tier == "isomorphism":
        checks += (verify_two_sided_on_relative(cat, field, m, cap),)
    return checks


def theorem_a_report(cat: FiniteCategory, field: FieldSpec, max_m: int,
                     cap: int | None = None) -> TheoremAReport:
    """Compute both cohomologies and certify the comparison degree by degree.

    Every degree's Hochschild basis size, then its ``F^ad`` chain count, is
    checked against the cap before anything is assembled (relative bases
    are subsets of the full ones).  The map T always exists, so the report
    is computed for any category; the verdict claims only what the
    hypothesis tier supports, and a failed identity makes it ``failed``.
    Each degree's flags come from its checks (the flags lemma); which
    complex is ranked is the module docstring's "So every report ranks".
    """
    check_degree(max_m)
    check_sizes(hochschild_sizes(cat), max_m + 1, cap)
    fad = adjoint_category(cat)
    check_sizes(nerve_sizes(fad), max_m + 1, cap)
    tier = hypothesis_tier({name: rep.holds for name, rep in predicate_reports(cat).items()})
    rng = range(max_m + 1)
    checks = [_checks(cat, field, m, cap, tier) for m in rng]
    dims_s = simplicial_cohomology_dims(fad, field, max_m, cap)
    if tier == "isomorphism" and all(map(all, checks)):
        dims_r = dims_s
    else:
        dims_r = relative_cohomology_dims(cat, field, max_m, cap)
    if relative_is_full(cat, max_m + 1):
        dims_h = dims_r
    elif tier == "unverified":
        dims_h = hochschild_cohomology_dims(cat, field, max_m, cap)
    else:
        # bases, not ranks: the harness reason in the module docstring
        walk = cohomology((hochschild_differential_matrix(cat, QQ, m, cap) for m in rng), field)
        dims_h = [dim for _Z, _B, dim in walk]
    degrees = []
    for m, h, r, s, ch in zip(rng, dims_h, dims_r, dims_s, checks):
        surjective = bool(ch) and all(ch)
        degrees.append(DegreeComparison(m, h, r, s, surjective, surjective and h == s, ch))
    certified = all(rec.induced_invertible if tier == "isomorphism" else rec.induced_surjective
                    for rec in degrees)
    verdict = tier if (tier == "unverified" or certified) else "failed"
    return TheoremAReport(tier=tier, degrees=tuple(degrees), verdict=verdict)
