"""The benchmark's workloads: fixed op lists, why each op is there, and the
answer each op must give.

Every op is one ``hochcat`` command line over a generated category file
(see ``gen.py``).  The expected values below are invariants of the category
up to relabelling, so they hold for every seed.  ``test_harness.py`` checks
each of them once against a route that does not go through the engine's
Hochschild code: the centralizer decomposition for groups, contractibility
for posets with a least element, and ``compare``'s own three-way agreement
for ``ex6``.

Left out until cohomology dimensions come from ranks instead of dense bases:

* ``cohomology diamond --max-degree 3`` takes about 11 s and peaks at
  5.4 GiB RSS on an 8 GiB box, because every kernel basis of the
  59049 x 6561 differential is held as dense vectors.  A run of several
  repeats would not fit the run length, and one shared box could not hold
  it next to other work.
* ``cohomology b3 --max-degree 2`` takes over 100 s, more than a run may
  last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    verb: str
    category: str              # generated file name, see gen.CATEGORIES
    options: tuple = ()
    why: str = ""
    expect: dict = field(default_factory=dict)

    def argv(self, paths: dict) -> list:
        return [self.verb, paths[self.category], *self.options, "--output", "json"]

    @property
    def label(self) -> str:
        return " ".join((self.verb, self.category, *self.options))


def _coh(cat, fld, degree, dims, why):
    return Op("cohomology", cat, ("--field", fld, "--max-degree", str(degree), "--theory", "both"),
              why, {"dims": dims})


def _cmp(cat, fld, degree, dims, why):
    return Op("compare", cat, ("--field", fld, "--max-degree", str(degree)), why, {"dims": dims})


def _der(cat, fld, dim, why):
    return Op("derivations", cat, ("--field", fld), why, {"dim": dim})


WORKLOADS = {
    # Dimensions only, no certificate.  Poset and ex6 ops spend their time
    # in Subspace/image work on dense kernel bases; the group ops in sparse
    # GF(p) elimination with fill-in.  Rank-first cohomology and block
    # decomposition of the differentials act here.
    "hh-dims": (
        _coh("s3", "gf:2", 3, (3, 2, 2, 2),
             "group: sparse GF(2) elimination with fill-in dominates; biggest op of the pass"),
        _coh("d4", "gf:2", 2, (5, 9, 13),
             "second group, nonabelian of order 8: five conjugacy-class blocks of different sizes"),
        _coh("ex6", "gf:3", 3, (2, 0, 0, 0),
             "neither group nor poset; odd characteristic, so GF(p) beyond p = 2"),
        _coh("chain3", "gf:2", 3, (1, 0, 0, 0),
             "poset: mostly zero cohomology, time in dense kernel bases and containment checks"),
        _coh("diamond", "gf:2", 2, (1, 0, 0),
             "poset with the widest differentials that fit; degree 3 is left out (see above)"),
    ),
    # The full Theorem A certificate.  Same elimination and subspace layers,
    # plus explicit cocycle/coboundary bases for the induced map, the T/X
    # maps, the chain-identity products and the F^ad nerve; the Q ops put
    # Fraction arithmetic on the critical path.  A dims-only shortcut cannot
    # help here and must not slow it.
    "certify": (
        _cmp("diamond", "gf:2", 3, (1, 0, 0, 0),
             "poset up to degree 3: largest T/X maps and chain-identity products"),
        _cmp("s3", "gf:2", 3, (3, 2, 2, 2),
             "group: induced map on nonzero cohomology in every degree"),
        _cmp("d4", "gf:2", 2, (5, 9, 13),
             "group with the largest cohomology: widest induced quotient maps"),
        _cmp("ex6", "q", 3, (2, 0, 0, 0),
             "rational arithmetic on a category that is neither group nor poset"),
        _cmp("c8", "q", 2, (8, 0, 0),
             "abelian group over Q: Fraction elimination, F^ad with 8 objects and 64 arrows"),
    ),
    # Never assembles a Hochschild differential or a nerve coboundary: category
    # tables, predicates, F^ad construction, text serialization, JSON emission
    # and Theorem B's n^3-row systems.  Cohomology changes bypass it, so the
    # prediction for them is no change.
    "structure": (
        Op("validate", "a5", (), "60-morphism composition table: parsing and associativity check",
           {"objects": 1, "morphisms": 60}),
        Op("props", "a5", (), "the five structural predicates on a 60-element group",
           {"objects": 1, "morphisms": 60}),
        Op("fad", "a5", (), "F^ad with 3600 morphisms: construction, text form, 10.9 MB of JSON",
           {"objects": 60, "morphisms": 3600, "text_lines": 212520}),
        Op("fad", "b4", (), "F^ad of a 16-object poset: many objects, small hom sets",
           {"objects": 16, "morphisms": 81, "text_lines": 207}),
        _der("b4", "q", 15, "Theorem B over Q on a poset: 531441-row system, mostly empty rows"),
        _der("s4", "q", 19, "Theorem B over Q on a group: Fraction elimination and coordinates"),
        _der("s4", "gf:3", 20, "Theorem B in characteristic 3, where H^1 of a centralizer is nonzero"),
    ),
}


# Verbs whose JSON names morphisms.  Their repeats in a run all read the
# run's first relabeling, so that repeats can be byte-identical; every other
# op reads the next relabeling each pass, which averages the effect of the
# basis order on elimination work over the labelings of gen.LABELINGS.
LABELLED = ("fad", "derivations")


def check_output(op: Op, text: str) -> str | None:
    """None when ``text`` is the right answer for ``op``, else the reason."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        return _CHECKS[op.verb](op, doc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks {exc!r}"


def _check_cohomology(op, doc):
    want = list(op.expect["dims"])
    theories = doc["theories"]
    for name in ("full", "relative"):
        if theories.get(name) != want:
            return f"{name} dims {theories.get(name)} != {want}"
    if doc["notices"]:
        return f"unexpected notices {doc['notices']}"
    return None


def _check_compare(op, doc):
    want = list(op.expect["dims"])
    degrees = doc["degrees"]
    for key in ("dim_hh", "dim_rel", "dim_simplicial_fad"):
        got = [d[key] for d in degrees]
        if got != want:
            return f"{key} {got} != {want}"
    for d in degrees:
        if not (d["t_chain_ok"] and d["x_chain_ok"] and d["section_ok"] and d["iso"]):
            return f"degree {d['m']} certificate failed: {d}"
    if doc["verdict"] != "isomorphism":
        return f"verdict {doc['verdict']!r} != 'isomorphism'"
    if not doc["predicates"]["all_hypotheses"]["holds"]:
        return "all_hypotheses does not hold"
    return None


def _check_sizes(op, summary):
    for key in ("objects", "morphisms"):
        if summary[key] != op.expect[key]:
            return f"{key} {summary[key]} != {op.expect[key]}"
    return None


def _check_validate(op, doc):
    if doc["ok"] is not True:
        return f"validation failed: {doc.get('errors')}"
    return _check_sizes(op, doc["category"])


def _check_props(op, doc):
    failing = [k for k, v in doc["predicates"].items() if not v["holds"]]
    if failing:
        return f"predicates fail: {failing}"
    return _check_sizes(op, doc["category"])


def _check_fad(op, doc):
    fad = doc["fad"]
    bad = _check_sizes(op, fad)
    if bad:
        return bad
    lines = len(fad["text"].splitlines())
    if lines != op.expect["text_lines"]:
        return f"F^ad text has {lines} lines, expected {op.expect['text_lines']}"
    return None


def _check_derivations(op, doc):
    want = op.expect["dim"]
    for key in ("dim_graded_derivations", "dim_characters"):
        if doc[key] != want:
            return f"{key} {doc[key]} != {want}"
    if doc["bijection"] is not True or doc["verdict"] != "bijection":
        return f"verdict {doc['verdict']!r} != 'bijection'"
    shape = (doc["matrix"]["rows"], doc["matrix"]["cols"])
    if shape != (want, want):
        return f"bijection matrix is {shape[0]} x {shape[1]}, expected {want} x {want}"
    return None


_CHECKS = {
    "cohomology": _check_cohomology,
    "compare": _check_compare,
    "validate": _check_validate,
    "props": _check_props,
    "fad": _check_fad,
    "derivations": _check_derivations,
}


# Layers (span groups, see spans.py) each workload must reach; a traced run
# that records no call in one of them fails, because a wrapper did not attach
# or the op list no longer measures what it was chosen for.  Layers that an
# optimisation may rightly stop calling (the subspace layer under rank-first
# cohomology) are not listed for the workloads where that can happen.
USED = {
    "hh-dims": ("catformat.load", "category.validate", "hochschild.assemble",
                "matrix.rref", "cli.emit"),
    "certify": ("catformat.load", "category.validate", "category.predicates", "category.fad",
                "hochschild.assemble", "nerve.assemble", "matrix.rref", "matrix.subspace",
                "matrix.product", "comparison.maps", "comparison.verify",
                "comparison.report", "cli.emit"),
    "structure": ("catformat.load", "catformat.to_text", "category.validate",
                  "category.predicates", "category.fad", "matrix.rref",
                  "derivations.systems", "derivations.report", "cli.emit"),
}

# Layers the workload design expects to stay idle.  The traced run reports
# whether they did; it does not fail on them, since a later design may route
# work differently (a sparse d∘d = 0 check would use products on hh-dims).
IDLE = {
    "hh-dims": ("comparison.maps", "comparison.verify", "comparison.report", "matrix.product"),
    "certify": (),
    "structure": ("hochschild.assemble", "nerve.assemble", "comparison.verify"),
}
