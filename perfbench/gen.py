"""Seeded generator of the benchmark's category files.

The generator writes the category text format itself and never imports
``hochcat``, so a change to the program cannot change the benchmark's
inputs.  Every category is built from first principles (permutation groups,
subset lattices, explicit tables).  Only the order of the lines changes,
which relabels the category without changing any invariant the correctness
gate checks:

* the order of the object and morphism lines, which sets the basis order
  and with it the fill-in of sparse elimination, is relabeling
  ``relabel % LABELINGS``, the same for every seed;
* the order of the compose lines is shuffled by ``seed`` and ``relabel``.

The fill-in of ``cohomology s3 --max-degree 3`` differs by up to 1.9x
between labelings, and its time by up to 1.3x.  Drawing the labelings from
the seed made that a difference between runs; a fixed cycle of them gives
every run of three passes or more the same mix.
"""

from __future__ import annotations

import itertools
import os
import random

# --- groups ------------------------------------------------------------------


def _compose_perm(p, q):
    """p after q: (p∘q)(x) = p[q[x]]."""
    return tuple(p[x] for x in q)


def _closure(gens):
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _compose_perm(g, a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


def _is_even(p):
    inversions = sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])
    return inversions % 2 == 0


def group_elements(name: str) -> list:
    """Elements of a named group as permutation tuples in canonical order."""
    if name == "s3":
        return sorted(itertools.permutations(range(3)))
    if name == "s4":
        return sorted(itertools.permutations(range(4)))
    if name == "a5":
        return [p for p in sorted(itertools.permutations(range(5))) if _is_even(p)]
    if name == "d4":
        # symmetries of a square acting on its vertices 0..3
        return _closure([(1, 2, 3, 0), (0, 3, 2, 1)])
    if name == "c8":
        return _closure([(1, 2, 3, 4, 5, 6, 7, 0)])
    raise KeyError(name)


def group_table(name: str):
    """(elements, table) with table[i][j] the index of elements[i]∘elements[j]."""
    elems = group_elements(name)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[_compose_perm(p, q)] for q in elems] for p in elems]
    return elems, table


def _group_lines(name: str):
    elems, table = group_table(name)
    ident = elems.index(tuple(range(len(elems[0]))))
    names = ["e" if i == ident else f"g{i}" for i in range(len(elems))]
    objects = ["x"]
    morphisms = [
        f"morphism {names[i]} : x -> x" + (" identity" if i == ident else "")
        for i in range(len(elems))
    ]
    composes = [
        f"compose {names[i]} {names[j]} = {names[table[i][j]]}"
        for i in range(len(elems))
        for j in range(len(elems))
        if i != ident and j != ident
    ]
    return objects, morphisms, composes


# --- posets ------------------------------------------------------------------


def poset_relation(name: str):
    """(element names, leq) for a named poset; leq[i][j] means i <= j."""
    if name == "b4":
        names = [f"s{mask:04b}" for mask in range(16)]
        leq = [[a & b == a for b in range(16)] for a in range(16)]
        return names, leq
    if name == "diamond":
        names = ["bot", "left", "right", "top"]
        below = {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
        leq = [[i == j or (i, j) in below for j in range(4)] for i in range(4)]
        return names, leq
    if name == "chain3":
        names = ["c0", "c1", "c2"]
        leq = [[i <= j for j in range(3)] for i in range(3)]
        return names, leq
    raise KeyError(name)


def _poset_lines(name: str):
    names, leq = poset_relation(name)
    n = len(names)
    arrow = {}
    morphisms = []
    for i in range(n):
        arrow[i, i] = f"id_{names[i]}"
        morphisms.append(f"morphism id_{names[i]} : {names[i]} -> {names[i]} identity")
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                arrow[i, j] = f"r_{names[i]}_{names[j]}"
                morphisms.append(f"morphism r_{names[i]}_{names[j]} : {names[i]} -> {names[j]}")
    composes = [
        f"compose {arrow[j, k]} {arrow[i, j]} = {arrow[i, k]}"
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if i != j and j != k and leq[i][j] and leq[j][k]
    ]
    return list(names), morphisms, composes


# --- the two-object example ------------------------------------------------------


def _ex6_lines():
    """Endomorphism groups of order two at both objects and two parallel
    arrows swapped by either group: deterministic, cancellative and
    rr-transitive without being a group, groupoid or poset."""
    objects = ["x1", "x2"]
    morphisms = [
        "morphism id1 : x1 -> x1 identity",
        "morphism a : x1 -> x1",
        "morphism id2 : x2 -> x2 identity",
        "morphism b : x2 -> x2",
        "morphism phi : x1 -> x2",
        "morphism psi : x1 -> x2",
    ]
    composes = [
        "compose a a = id1",
        "compose b b = id2",
        "compose phi a = psi",
        "compose psi a = phi",
        "compose b phi = psi",
        "compose b psi = phi",
    ]
    return objects, morphisms, composes


GROUPS = ("s3", "s4", "a5", "d4", "c8")
POSETS = ("b4", "diamond", "chain3")
CATEGORIES = GROUPS + POSETS + ("ex6",)


LABELINGS = 3


def category_text(name: str, seed: int, relabel: int = 0) -> str:
    """Category file text for ``name`` in labeling ``relabel % LABELINGS``,
    its compose lines shuffled by ``seed`` and ``relabel``."""
    if name in GROUPS:
        objects, morphisms, composes = _group_lines(name)
    elif name in POSETS:
        objects, morphisms, composes = _poset_lines(name)
    elif name == "ex6":
        objects, morphisms, composes = _ex6_lines()
    else:
        raise KeyError(name)
    labeling = random.Random(f"labeling {relabel % LABELINGS}:{name}")
    labeling.shuffle(objects)
    labeling.shuffle(morphisms)
    random.Random(f"{seed}:{relabel}:{name}").shuffle(composes)
    lines = [f"# {name}, seed {seed}, relabeling {relabel}"]
    lines += [f"object {o}" for o in objects]
    lines += morphisms + composes
    return "\n".join(lines) + "\n"


def write_inputs(directory: str, seed: int, relabel: int = 0, names=CATEGORIES) -> dict:
    """Write ``<name>.cat`` for each name; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        path = os.path.join(directory, f"{name}.cat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(category_text(name, seed, relabel))
        paths[name] = path
    return paths
