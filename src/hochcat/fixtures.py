"""Fixture constructors: groups and posets as categories, plus named builtins.

Groups become one-object categories and posets become categories with one
morphism x -> y per relation x <= y; both families satisfy every structural
predicate used by the comparison theorems.
"""

from __future__ import annotations

from .category import FiniteCategory, RawCategory, validate_category
from .errors import AssociativityFailure, NotAGroup, NotAPartialOrder, UnknownFixture
from .hochschild import check_table_size


def group_from_table(table, names=None, object_name: str = "x") -> FiniteCategory:
    """One-object category from a Cayley table: table[i][j] = index of g_i∘g_j.

    Raises ``NotAGroup`` for a table that is not closed, lacks an identity
    or inverses, or that ``validate_category`` finds not associative.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise NotAGroup("table is not a closed n x n index table")
    e = None
    for i in range(n):
        if all(table[i][j] == j for j in range(n)) and all(table[j][i] == j for j in range(n)):
            e = i
            break
    if e is None:
        raise NotAGroup("no identity element")
    for i in range(n):
        if not any(table[i][j] == e and table[j][i] == e for j in range(n)):
            raise NotAGroup(f"element {i} has no inverse")

    if names is None:
        names = tuple(f"g{i}" for i in range(n))
    if len(set(names)) != n:
        raise NotAGroup("element names are not distinct")
    raw = RawCategory(objects=[object_name])
    for i in range(n):
        raw.morphisms.append((names[i], object_name, object_name, i == e))
    for i in range(n):
        for j in range(n):
            if i != e and j != e:
                raw.compositions.append((names[i], names[j], names[table[i][j]]))
    try:
        return validate_category(raw)
    except AssociativityFailure as exc:
        raise NotAGroup(f"not associative: {exc}") from exc


def poset_from_relation(leq, names=None) -> FiniteCategory:
    """Category of a finite poset: one morphism x -> y exactly when x <= y.

    ``leq`` is a square boolean matrix; it must be reflexive, antisymmetric
    and transitive.
    """
    n = len(leq)
    for row in leq:
        if len(row) != n:
            raise NotAPartialOrder("relation matrix is not square")
    for i in range(n):
        if not leq[i][i]:
            raise NotAPartialOrder(f"relation is not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(f"relation is not antisymmetric at ({i}, {j})")
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise NotAPartialOrder(f"relation is not transitive at ({i}, {j}, {k})")

    if names is None:
        names = tuple(f"x{i + 1}" for i in range(n))
    raw = RawCategory(objects=list(names))
    mor_name = {}
    for i in range(n):
        nm = f"id{i + 1}"
        mor_name[i, i] = nm
        raw.morphisms.append((nm, names[i], names[i], True))
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                nm = f"g{i + 1}_{j + 1}"
                mor_name[i, j] = nm
                raw.morphisms.append((nm, names[i], names[j], False))
    # composition is forced: the composite of x<=y<=z is the unique arrow x->z
    for (i, j), f in mor_name.items():
        for (jj, k), g in mor_name.items():
            if jj == j and not (i == j or j == k):
                raw.compositions.append((g, f, mor_name[i, k]))
    return validate_category(raw)


def cyclic_group_table(k: int):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def chain_poset_matrix(k: int):
    return [[i <= j for j in range(k)] for i in range(k)]


def _triv() -> FiniteCategory:
    raw = RawCategory(objects=["x"], morphisms=[("id", "x", "x", True)])
    return validate_category(raw)


def _a2() -> FiniteCategory:
    raw = RawCategory(
        objects=["x1", "x2"],
        morphisms=[
            ("id1", "x1", "x1", True),
            ("id2", "x2", "x2", True),
            ("g", "x1", "x2", False),
        ],
    )
    return validate_category(raw)


def _c2() -> FiniteCategory:
    return group_from_table(cyclic_group_table(2), names=("e", "t"))


def _ex6() -> FiniteCategory:
    """Two-object category with endomorphism groups of order two on each side
    and two parallel arrows between them; deterministic, cancellative and
    rr-transitive without being a groupoid or a poset."""
    raw = RawCategory(
        objects=["x1", "x2"],
        morphisms=[
            ("id1", "x1", "x1", True),
            ("a", "x1", "x1", False),
            ("id2", "x2", "x2", True),
            ("b", "x2", "x2", False),
            ("phi", "x1", "x2", False),
            ("psi", "x1", "x2", False),
        ],
        compositions=[
            ("a", "a", "id1"),
            ("b", "b", "id2"),
            ("phi", "a", "psi"),
            ("psi", "a", "phi"),
            ("b", "phi", "psi"),
            ("b", "psi", "phi"),
        ],
    )
    return validate_category(raw)


def _diamond() -> FiniteCategory:
    # bottom x1, middles x2 x3, top x4
    leq = [
        [True, True, True, True],
        [False, True, False, True],
        [False, False, True, True],
        [False, False, False, True],
    ]
    return poset_from_relation(leq)


def builtin(name: str, cap: int | None = None) -> FiniteCategory:
    """Named fixtures: triv, a2, c2, cn:<k>, chain:<k>, diamond, ex6.

    The sized families are refused with DimensionCapExceeded before any
    table exists when their composition table has more cells than ``cap``
    (default ``DEFAULT_BASIS_CAP``): k^2 for ``cn:<k>`` and (k(k+1)/2)^2 for
    ``chain:<k>``, which is also the size of the degree-1 Hochschild basis.
    """
    if name == "triv":
        return _triv()
    if name == "a2":
        return _a2()
    if name == "c2":
        return _c2()
    if name == "diamond":
        return _diamond()
    if name == "ex6":
        return _ex6()
    if name.startswith("cn:"):
        k = _parse_size(name, 3)
        check_table_size(k * k, cap)
        names = ("e",) + tuple(f"r{i}" for i in range(1, k))
        return group_from_table(cyclic_group_table(k), names=names)
    if name.startswith("chain:"):
        k = _parse_size(name, 6)
        check_table_size((k * (k + 1) // 2) ** 2, cap)
        return poset_from_relation(chain_poset_matrix(k))
    raise UnknownFixture(f"unknown fixture {name!r}")


def _parse_size(name: str, prefix_len: int) -> int:
    try:
        k = int(name[prefix_len:])
    except ValueError:
        k = 0
    if k < 1:
        raise UnknownFixture(f"fixture size must be a positive integer in {name!r}")
    return k
