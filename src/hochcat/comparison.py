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

Together with the sign-twisted coboundary these are cochain maps; on the
relative subcomplex they are mutually inverse, which is what certifies the
dimension tables degree by degree.

``theorem_a_report`` is the whole certificate: for each degree it holds the
three dimensions, the results of the exact chain identities, and the map T
induces on cohomology, and its verdict accounts for all of them.  The CLI
only formats it.

The maps, the identity checks and the report take ``(cat, field, m)``, and
a ``cap`` where they build full bases, like the complexes they compare.
``F^ad`` is ``adjoint_category(cat)``, memoized on ``cat``, and a map or
check that needs a hypothesis tests it with ``require_predicates(cat, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .category import (
    FiniteCategory,
    adjoint_category,
    memo,
    predicate_reports,
    require_predicates,
)
from .errors import NotChainCompatible
from .fields import FieldSpec
from .hochschild import (
    basis_index,
    check_cap,
    check_sizes,
    hochschild_basis_size,
    hochschild_differential_matrix,
    hochschild_sizes,
    relative_differential_matrix,
    relative_is_full,
    _relative_of_full,
)
from .matrix import Matrix, cohomology, cohomology_dims, induced_quotient_map
from .nerve import _chains_cached, nerve_sizes, simplicial_coboundary_matrix

CANCELLATIVE = ("left_cancellative", "right_cancellative")
DETERMINISTIC = ("left_deterministic", "right_deterministic")


# --- the reading map T and its transpose X -------------------------------------

@memo
def _t_entries(cat: FiniteCategory, m: int) -> tuple:
    """(nrows, ncols, ((row, col), ...)) of T in degree m; all entries are 1.

    Chain σ of F^ad reads its triples: bottom g_i = triples[σ_i][1] and base
    vertical a_0 = triples[σ_0][0].
    """
    fad = adjoint_category(cat)
    ncols = hochschild_basis_size(cat, m)
    if m == 0:
        entries = tuple((o, e) for o, e in enumerate(fad.object_endos))
        return fad.n_objects, ncols, entries
    comp = cat.compose_table
    triples = fad.triples
    chains = _chains_cached(fad, m)
    entries = []
    for i, sigma in enumerate(chains):
        bottom = [triples[t][1] for t in sigma]
        c = triples[sigma[0]][0]
        for g in bottom:
            c = comp[g][c]
        entries.append((i, basis_index(cat, tuple(reversed(bottom)), c)))
    return len(chains), ncols, tuple(entries)


def _check_map_cap(cat: FiniteCategory, m: int, cap: int | None) -> None:
    """Refuse degree m unless the Hochschild bases and the F^ad chain counts
    up to it fit under the cap; both are sizes, so nothing is listed."""
    check_cap(cat, m, cap)
    check_sizes(nerve_sizes(adjoint_category(cat)), m, cap)


def t_map_matrix(cat: FiniteCategory, field: FieldSpec, m: int, cap: int | None = None) -> Matrix:
    """Matrix of T from degree-m Hochschild cochains to nerve cochains of F^ad."""
    _check_map_cap(cat, m, cap)
    nrows, ncols, entries = _t_entries(cat, m)
    one = field.one
    return Matrix.from_entries(field, nrows, ncols, {rc: one for rc in entries})


def t_map_relative_matrix(cat: FiniteCategory, field: FieldSpec, m: int) -> Matrix:
    """T restricted to the relative subcomplex (square under the full hypotheses)."""
    rel_of_full = _relative_of_full(cat, m)
    nrows, _ncols, entries = _t_entries(cat, m)
    one = field.one
    cells = {(r, rel_of_full[c]): one for r, c in entries}
    return Matrix.from_entries(field, nrows, len(rel_of_full), cells)


def x_map_matrix(cat: FiniteCategory, field: FieldSpec, m: int, cap: int | None = None) -> Matrix:
    """Matrix of X from nerve cochains of F^ad to degree-m Hochschild cochains.

    X sums, over the base verticals a_0, the ladders completed from a chain
    of ``cat``.  Under right determinism and right cancellation each F^ad
    chain is the one completion of its bottom and a_0, so X is Tᵀ.
    """
    require_predicates(cat, "right_deterministic", "right_cancellative")
    return t_map_matrix(cat, field, m, cap).transpose()


def x_map_relative_matrix(cat: FiniteCategory, field: FieldSpec, m: int) -> Matrix:
    """X written in relative row coordinates: the transpose of T's relative matrix."""
    require_predicates(cat, "right_deterministic", "right_cancellative")
    return t_map_relative_matrix(cat, field, m).transpose()


# --- chain-map identities ---------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """Outcome of an exact matrix identity check."""

    name: str
    degree: int
    ok: bool
    first_difference: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _sign_for(field: FieldSpec, m: int):
    """(-1)^(m+1) as a field scalar."""
    return field.neg(field.one) if (m + 1) % 2 else field.one


def _verified(name: str, m: int, lhs: Matrix, rhs: Matrix) -> VerificationResult:
    diff = lhs.first_difference(rhs)
    return VerificationResult(name, m, diff is None, diff)


def verify_t_chain_identity(cat: FiniteCategory, field: FieldSpec, m: int,
                            cap: int | None = None) -> VerificationResult:
    """T^(m+1) ∘ ∂^m = (-1)^(m+1) δ^m ∘ T^m, as exact matrices."""
    require_predicates(cat, *CANCELLATIVE)
    lhs = t_map_matrix(cat, field, m + 1, cap) @ hochschild_differential_matrix(cat, field, m, cap)
    delta = simplicial_coboundary_matrix(adjoint_category(cat), field, m, cap)
    rhs = (delta @ t_map_matrix(cat, field, m, cap)).scaled(_sign_for(field, m))
    return _verified("t_chain", m, lhs, rhs)


def verify_x_chain_identity(cat: FiniteCategory, field: FieldSpec, m: int,
                            cap: int | None = None) -> VerificationResult:
    """X^(m+1) ∘ δ^m = (-1)^(m+1) ∂^m ∘ X^m, as exact matrices."""
    require_predicates(cat, *DETERMINISTIC, *CANCELLATIVE)
    delta = simplicial_coboundary_matrix(adjoint_category(cat), field, m, cap)
    lhs = x_map_matrix(cat, field, m + 1, cap) @ delta
    rhs = (hochschild_differential_matrix(cat, field, m, cap) @ x_map_matrix(cat, field, m, cap))
    rhs = rhs.scaled(_sign_for(field, m))
    return _verified("x_chain", m, lhs, rhs)


def verify_section(cat: FiniteCategory, field: FieldSpec, m: int,
                   cap: int | None = None) -> VerificationResult:
    """T^m ∘ X^m is the identity on degree-m nerve cochains of F^ad."""
    require_predicates(cat, "right_deterministic", *CANCELLATIVE)
    prod = t_map_matrix(cat, field, m, cap) @ x_map_matrix(cat, field, m, cap)
    eye = Matrix.identity(field, prod.nrows)
    return _verified("section", m, prod, eye)


def verify_two_sided_on_relative(cat: FiniteCategory, field: FieldSpec, m: int) -> VerificationResult:
    """On relative cochains T and X are mutually inverse bijections.

    Checks (i) every Hochschild column T reads is relative, so the image of
    X = Tᵀ lies in the relative span, and (ii) both composites of the
    restricted maps are identity matrices.
    """
    require_predicates(cat, "rr_transitive", *DETERMINISTIC, *CANCELLATIVE)
    rel_full = _relative_of_full(cat, m)
    _, _, entries = _t_entries(cat, m)
    for _r, c in entries:
        if c not in rel_full:
            return VerificationResult("two_sided_relative", m, False, (c, -1, "image not relative", None))
    t_rel = t_map_relative_matrix(cat, field, m)
    x_rel = t_rel.transpose()
    left = _verified("two_sided_relative", m, x_rel @ t_rel, Matrix.identity(field, x_rel.nrows))
    if not left.ok:
        return left
    return _verified("two_sided_relative", m, t_rel @ x_rel, Matrix.identity(field, t_rel.nrows))


# --- Theorem A, degree by degree ------------------------------------------------

@dataclass(frozen=True)
class DegreeComparison:
    """One degree of the Theorem A certificate.

    ``checks`` holds the ``t_chain``, ``x_chain``, ``section`` and (isomorphism
    tier) ``two_sided_relative`` results, none in the unverified tier; the
    induced map counts as surjective or invertible only if all of them hold.
    """

    degree: int
    dim_hochschild: int
    dim_relative: int
    dim_simplicial: int
    induced_matrix: Matrix | None   # None without a hypothesis tier, or when T broke a subspace
    induced_surjective: bool
    induced_invertible: bool
    checks: tuple = ()              # VerificationResult per identity


@dataclass(frozen=True)
class TheoremAReport:
    field: FieldSpec
    max_degree: int
    flags: dict
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


def _induced_maps(cat: FiniteCategory, field: FieldSpec, max_m: int, cap: int | None,
                  tier: str) -> list:
    """Per degree, the three dimensions and the map T induces on cohomology.

    The cocycle and coboundary bases die with this call, so none is alive
    while the identity checks take products of T and X.  When the relative
    complex is the full one (``relative_is_full``), its dimensions are the
    full ones and it is not eliminated again.
    """
    fad = adjoint_category(cat)
    rng = range(max_m + 1)
    full = cohomology(hochschild_differential_matrix(cat, field, m, cap) for m in rng)
    nerve = cohomology(simplicial_coboundary_matrix(fad, field, m, cap) for m in rng)
    relative = None
    if not relative_is_full(cat, max_m + 1):
        relative = cohomology_dims(relative_differential_matrix(cat, field, m, cap) for m in rng)
    out = []
    for m, (Z_h, B_h, dim_h), (Z_s, B_s, dim_s) in zip(rng, full, nerve):
        dim_r = dim_h if relative is None else next(relative)
        induced, invertible, surjective = None, False, False
        # without the cancellation hypotheses T need not be a chain map,
        # so there is no induced map to certify
        if tier != "unverified":
            try:
                induced, invertible = induced_quotient_map(
                    t_map_matrix(cat, field, m, cap), Z_h, B_h, Z_s, B_s
                )
                surjective = induced.rank() == dim_s
            except NotChainCompatible:
                pass   # T is not a chain map here; the identity checks show where
        out.append(DegreeComparison(m, dim_h, dim_r, dim_s, induced, surjective, invertible))
    return out


def theorem_a_report(cat: FiniteCategory, field: FieldSpec, max_m: int,
                     cap: int | None = None) -> TheoremAReport:
    """Compute both cohomologies and certify the comparison degree by degree.

    The report is the whole certificate: per degree the three dimensions,
    the exact chain identities of T and X, and the map T induces on
    cohomology.  Every degree's Hochschild basis size and ``F^ad`` chain
    count is checked against the cap before anything is built (relative
    bases are subsets of the full ones).
    The map T always exists, so the report is computed for any category;
    the verdict claims only what the hypothesis tier supports, and a failed
    identity or a T that breaks a subspace makes it ``failed``.
    """
    check_sizes(hochschild_sizes(cat), max_m + 1, cap)
    check_sizes(nerve_sizes(adjoint_category(cat)), max_m + 1, cap)
    flags = {name: rep.holds for name, rep in predicate_reports(cat).items()}
    tier = hypothesis_tier(flags)
    degrees = []
    for rec in _induced_maps(cat, field, max_m, cap, tier):
        m, checks = rec.degree, ()
        if tier != "unverified":
            checks = (verify_t_chain_identity(cat, field, m, cap),
                      verify_x_chain_identity(cat, field, m, cap),
                      verify_section(cat, field, m, cap))
            if tier == "isomorphism":
                checks += (verify_two_sided_on_relative(cat, field, m),)
        ok = all(checks)
        degrees.append(replace(rec, checks=checks, induced_surjective=rec.induced_surjective and ok,
                               induced_invertible=rec.induced_invertible and ok))
    certified = all(rec.induced_invertible if tier == "isomorphism" else rec.induced_surjective
                    for rec in degrees)
    verdict = tier if (tier == "unverified" or certified) else "failed"
    return TheoremAReport(
        field=field,
        max_degree=max_m,
        flags=flags,
        tier=tier,
        degrees=tuple(degrees),
        verdict=verdict,
    )
