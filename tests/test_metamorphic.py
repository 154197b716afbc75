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

from hochcat.hochschild import relative_is_full

from .catalog import D4, FIXTURES, GF2, GF3, QQ, coproduct, opposite

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
    assert both.n_objects == c.n_objects + d.n_objects and not relative_is_full(both, 1)
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
