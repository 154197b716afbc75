"""Shared fixture catalog for the test suite."""

from __future__ import annotations

import itertools
import os

import hochcat
from hochcat import builtin, group_from_table
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


TRIV = builtin("triv")
A2 = builtin("a2")
C2 = builtin("c2")
EX6 = builtin("ex6")
DIAMOND = builtin("diamond")
S3 = group_from_table(symmetric_group_table(3))
# outside FIXTURES: five conjugacy classes, centralizers of orders 8, 8, 4, 4, 4
D4 = group_from_table(dihedral_group_table(4))


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
