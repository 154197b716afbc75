"""Shared fixture catalog for the test suite."""

from __future__ import annotations

import itertools
import os

import hochcat
from hochcat import RawCategory, builtin, group_from_table, validate_category
from hochcat.fields import FieldSpec

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
QQ = FieldSpec(None)

FIELDS = (GF2, GF3, GF5, QQ)


def symmetric_group_table(n: int):
    """Cayley table of the symmetric group on n letters, permutations in lex order."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # (p∘q)(x) = p[q[x]]: q acts first, matching compose(g, f) = g after f
    return [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]


def dihedral_group_table(n: int):
    """Cayley table of the dihedral group of order 2n: index i + n·j is r^i s^j.

    ``s r s = r⁻¹``, so (r^a s^b)(r^c s^d) = r^(a + (−1)^b c) s^(b + d).
    """
    def index(i, j):
        return i % n + n * (j % 2)
    elements = [(i, j) for j in range(2) for i in range(n)]
    return [[index(a + (-1) ** b * c, b + d) for c, d in elements] for a, b in elements]


def sum_of_groups(*tables):
    """The disjoint union of groups: object ``x<k>`` carries the group of
    ``tables[k]`` (a Cayley table as for ``group_from_table``), element i
    as the morphism ``g<k>_<i>``."""
    raw = RawCategory(objects=[f"x{k}" for k in range(len(tables))])
    for k, table in enumerate(tables):
        n = len(table)
        e = next(i for i in range(n) if table[i] == list(range(n)))
        names = [f"g{k}_{i}" for i in range(n)]
        raw.morphisms += [(names[i], f"x{k}", f"x{k}", i == e) for i in range(n)]
        raw.compositions += [(names[i], names[j], names[table[i][j]])
                             for i in range(n) for j in range(n) if e not in (i, j)]
    return validate_category(raw)


def _composites(cat):
    """``(g, f, g∘f)`` for every composable pair of non-identities of ``cat``."""
    ids = set(cat.identity)
    return [(g, f, h) for g in range(cat.n_morphisms) if g not in ids
            for f in cat.morphisms_by_target[cat.source[g]] if f not in ids
            for h in (cat.compose(g, f),)]


def opposite(cat):
    """C^op: the objects and morphisms of ``cat``, each arrow reversed, and
    f∘g in C^op the composite g∘f of C."""
    names, objects = cat.morphism_names, cat.object_names
    return validate_category(RawCategory(
        objects=list(objects),
        morphisms=[(names[m], objects[cat.target[m]], objects[cat.source[m]], cat.is_identity(m))
                   for m in range(cat.n_morphisms)],
        compositions=[(names[f], names[g], names[h]) for g, f, h in _composites(cat)],
    ))


def coproduct(c, d):
    """C ⊔ D: the objects and morphisms of both, those of ``c`` prefixed
    ``l`` and those of ``d`` prefixed ``r``, composing within each."""
    raw = RawCategory()
    for prefix, cat in (("l", c), ("r", d)):
        names = [prefix + name for name in cat.morphism_names]
        objects = [prefix + name for name in cat.object_names]
        raw.objects += objects
        raw.morphisms += [(names[m], objects[cat.source[m]], objects[cat.target[m]],
                           cat.is_identity(m)) for m in range(cat.n_morphisms)]
        raw.compositions += [(names[g], names[f], names[h]) for g, f, h in _composites(cat)]
    return validate_category(raw)


TRIV = builtin("triv")
A2 = builtin("a2")
C2 = builtin("c2")
EX6 = builtin("ex6")
DIAMOND = builtin("diamond")
S3 = group_from_table(symmetric_group_table(3))
# outside FIXTURES: five conjugacy classes, centralizers of orders 8, 8, 4, 4, 4
D4 = group_from_table(dihedral_group_table(4))
# outside FIXTURES: two objects, and F^ad (8 objects, 40 arrows) has
# isomorphism classes of more than one object, so its skeleton is not F^ad
S3_PLUS_C2 = sum_of_groups(symmetric_group_table(3), [[0, 1], [1, 0]])
# the group tables of C4 and V4, for sums whose components repeat
C4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
V4 = [[i ^ j for j in range(4)] for i in range(4)]


def all_fixtures() -> dict:
    """Every acceptance fixture: groups C2..C6 and S3, posets, and ex6."""
    cats = {
        "triv": TRIV,
        "a2": A2,
        "c2": C2,
        "s3": S3,
        "diamond": DIAMOND,
        "ex6": EX6,
    }
    for k in range(3, 7):
        cats[f"cn:{k}"] = builtin(f"cn:{k}")
    for k in range(2, 5):
        cats[f"chain:{k}"] = builtin(f"chain:{k}")
    return cats


FIXTURES = all_fixtures()


def child_env() -> dict:
    """This environment, with the hochcat the suite imported first on PYTHONPATH,
    so ``python -m hochcat`` in a child runs the same checkout without an install."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hochcat.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
