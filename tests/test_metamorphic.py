"""Metamorphic relations: reports of constructed categories against those
of their parts, with no reference data.

* ``HH(kC^op) ≅ HH(kC)``, since ``kC^op`` is the opposite algebra of kC,
  and the relative complex is its opposite too: the full and relative
  dimensions of C^op are those of C.
* Over a coproduct C ⊔ D, kC ⊔ D is the product algebra kC × kD and F^ad
  is the coproduct of the two F^ads, so the relative dimensions, the
  graded derivations and the characters add, and the comparison stays an
  isomorphism.  The relative complex of C ⊔ D is never the full one, so
  Theorem B restricts T and X on a proper relative complex.
* For a group G, F^ad(G) has one component per conjugacy class, and its
  skeleton one object per class carrying the centralizer (Mishchenko), so
  ``H*(F^ad(G)) ≅ ⊕_[g] H*(C_G(g))``.  Each centralizer is a group of its
  own, one component, so its nerve is ranked with no class or skeleton.
* The universal coefficient theorem: for a complex of free Z-modules with
  integer differentials ``d^m``,
  ``dim_Fp H^m = dim_Q H^m + e_p(d^m) + e_p(d^(m−1))``, with ``e_p(d)`` the
  number of invariant factors of d that p divides
  (``oracles.invariant_factors``).  So for p ∤ |G| a group's GF(p) dims
  are its Q dims (Maschke).
"""

import pytest

from hochcat import (
    adjoint_category,
    group_from_table,
    hochschild_cohomology_dims,
    relative_cohomology_dims,
    simplicial_cohomology_dims,
    theorem_a_report,
    theorem_b_report,
)

from hochcat import nerve
from hochcat.hochschild import relative_differential_matrix, relative_is_full

from . import oracles
from .catalog import D4, FIXTURES, GF2, GF3, GF5, QQ, coproduct, opposite
from .test_comparison import spy_nerve_eliminations

MAX_M = 2


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("field", (GF2, QQ), ids=str)
def test_the_opposite_category_has_the_same_cohomology(name, field):
    cat = FIXTURES[name]
    op = opposite(cat)
    assert opposite(op).compose_table == cat.compose_table
    for dims in (hochschild_cohomology_dims, relative_cohomology_dims):
        assert dims(op, field, MAX_M) == dims(cat, field, MAX_M), dims.__name__


COPRODUCTS = (("c2", "diamond"), ("s3", "ex6"), ("a2", "cn:3"))


@pytest.mark.parametrize(("left", "right"), COPRODUCTS, ids=["+".join(pair) for pair in COPRODUCTS])
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_a_coproduct_adds_its_parts(left, right, field):
    c, d = FIXTURES[left], FIXTURES[right]
    both = coproduct(c, d)
    assert both.n_objects == c.n_objects + d.n_objects and not relative_is_full(both)
    rel = [relative_cohomology_dims(cat, field, MAX_M) for cat in (both, c, d)]
    assert rel[0] == [x + y for x, y in zip(rel[1], rel[2])]
    assert theorem_a_report(both, field, MAX_M).verdict == "isomorphism"
    reports = [theorem_b_report(cat, field) for cat in (both, c, d)]
    assert reports[0].bijection
    for dim in ("dim_derivations", "dim_characters"):
        values = [getattr(rep, dim) for rep in reports]
        assert values[0] == values[1] + values[2], dim


def centralizer_tables(group) -> list:
    """Per conjugacy class of a one-object category, the Cayley table of the
    centralizer of its least element, read off ``compose``."""
    n, compose = group.n_morphisms, group.compose
    e = group.identity[0]
    inverse = [next(h for h in range(n) if compose(g, h) == e) for g in range(n)]
    seen, tables = set(), []
    for x in range(n):
        if x in seen:
            continue
        seen |= {compose(compose(g, x), inverse[g]) for g in range(n)}
        cent = [g for g in range(n) if compose(g, x) == compose(x, g)]
        at = {g: i for i, g in enumerate(cent)}
        tables.append([[at[compose(g, h)] for h in cent] for g in cent])
    return tables


GROUPS = ["c2", "cn:3", "cn:4", "cn:5", "cn:6", "s3", "d4"]


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_the_nerve_of_fad_is_the_sum_over_centralizers(name, field):
    group = D4 if name == "d4" else FIXTURES[name]
    parts = [simplicial_cohomology_dims(group_from_table(table), field, MAX_M)
             for table in centralizer_tables(group)]
    assert simplicial_cohomology_dims(adjoint_category(group), field, MAX_M) == \
        [sum(dims) for dims in zip(*parts)]


# --- one integer complex explains every field -------------------------------------------

PRIMES = (GF2, GF3, GF5)


def torsion_counts(complexes, p) -> list:
    """Per degree m ≤ MAX_M, ``e_p(d^m) + e_p(d^(m−1))`` summed over the
    complexes ``(size, factors)``, each counted ``size`` times, with
    ``factors[m]`` the invariant factors of its ``d^m``."""
    def e(factors, m):
        return sum(f % p == 0 for f in factors[m]) if m >= 0 else 0

    return [sum(size * (e(factors, m) + e(factors, m - 1)) for size, factors in complexes)
            for m in range(MAX_M + 1)]


def factors_of(deltas) -> list:
    return [oracles.invariant_factors(delta.rows.values()) for delta in deltas]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_universal_coefficients_on_the_relative_complex(name):
    cat = FIXTURES[name]
    factors = factors_of(relative_differential_matrix(cat, m) for m in range(MAX_M + 1))
    over_q = relative_cohomology_dims(cat, QQ, MAX_M)
    for field in PRIMES:
        extra = torsion_counts([(1, factors)], field.p)
        assert relative_cohomology_dims(cat, field, MAX_M) == \
            [q + t for q, t in zip(over_q, extra)], field


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_universal_coefficients_on_the_nerve_of_fad(monkeypatch, name):
    # through simplicial_cohomology_dims, so through the skeleton where it
    # applies, with the factors of the complexes it ranks, one per class:
    # the coboundaries of the class's first subcategory
    fad = adjoint_category(FIXTURES[name])
    ranked = spy_nerve_eliminations(monkeypatch)
    over_q = simplicial_cohomology_dims(fad, QQ, MAX_M)
    target = nerve._skeleton_category(fad) if nerve._skeleton_applies(fad) else fad
    complexes = [(size, [nerve._coboundary(sub, m) for m in range(MAX_M + 1)])
                 for sub, size in nerve._classes(target)]
    assert ranked == [deltas for _size, deltas in complexes]
    factored = [(size, factors_of(deltas)) for size, deltas in complexes]
    for field in PRIMES:
        extra = torsion_counts(factored, field.p)
        assert simplicial_cohomology_dims(fad, field, MAX_M) == \
            [q + t for q, t in zip(over_q, extra)], field


TORSION_OF_D1 = {"c2": [2, 2], "cn:4": [4] * 4, "cn:6": [6] * 6, "s3": [2, 6], "ex6": [2, 2],
                 "diamond": [], "a2": []}


@pytest.mark.parametrize("name", sorted(TORSION_OF_D1))
def test_the_torsion_of_the_relative_d1(name):
    # the invariant factors above 1 of d^1, the torsion of H^2(−; Z): Z/n
    # once per class for the cyclic groups, Z/2 ⊕ Z/2 ⊕ Z/3 for S3
    factors = oracles.invariant_factors(relative_differential_matrix(FIXTURES[name], 1).rows.values())
    assert [f for f in factors if f > 1] == TORSION_OF_D1[name]


def fad_dims(cat, field, max_m) -> list:
    return simplicial_cohomology_dims(adjoint_category(cat), field, max_m)


@pytest.mark.parametrize("name", [name for name, cat in FIXTURES.items() if cat.n_objects == 1])
def test_maschke_fields_prime_to_the_order_see_the_rational_dims(name):
    group = FIXTURES[name]
    for dims in (relative_cohomology_dims, fad_dims):
        over_q = dims(group, QQ, MAX_M)
        for field in PRIMES:
            if group.n_morphisms % field.p:
                assert dims(group, field, MAX_M) == over_q, field
