"""Acceptance suite: one test per criterion, each printing a PASS line.

All assertions are exact (integer dimensions, exact matrix identities); the
only tolerances are the per-criterion wall-clock budgets, which are asserted
as stated.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import subprocess
import sys
import time

from hochcat import (
    adjoint_category,
    hochschild_cohomology_dims,
    hochschild_differential_matrix,
    predicate_reports,
    relative_basis,
    relative_cohomology_dims,
    simplicial_cohomology_dims,
    simplicial_coboundary_matrix,
    theorem_a_report,
    theorem_b_report,
    verify_section,
    verify_t_chain_identity,
    verify_two_sided_on_relative,
    verify_x_chain_identity,
)
from hochcat.derivations import character_space
from hochcat.nerve import nerve_sizes

from .catalog import A2, C2, EX6, FIELDS, FIXTURES, GF2, GF3, QQ, child_env

GROUPS = ("c2", "cn:3", "cn:4", "cn:5", "cn:6", "s3")
POSETS = ("chain:2", "chain:3", "chain:4", "diamond")


class _Clock:
    def __init__(self, criterion: str, limit: float):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit}s"
            )
        return False


def test_criterion_1_predicate_conformance():
    with _Clock("1 predicate conformance", 1.0):
        for name in GROUPS + POSETS + ("ex6",):
            reports = predicate_reports(FIXTURES[name])
            assert all(rep.holds for rep in reports.values()), name


def test_criterion_2_complex_well_formedness():
    with _Clock("2 complex well-formedness", 30.0):
        for name, cat in FIXTURES.items():
            fad = adjoint_category(cat)
            # integer matrices: d∘d = 0 over Z holds in every field
            hh = [hochschild_differential_matrix(cat, m) for m in range(4)]
            for low, high in zip(hh, hh[1:]):
                assert (high @ low).is_zero(), name
            for target in (cat, fad):
                ss = [simplicial_coboundary_matrix(target, m) for m in range(4)]
                for low, high in zip(ss, ss[1:]):
                    assert (high @ low).is_zero(), name


def test_criterion_3_chain_identities():
    with _Clock("3 chain identities", 60.0):
        for name, cat in FIXTURES.items():
            for field in FIELDS:
                for m in range(3):
                    assert verify_t_chain_identity(cat, field, m).ok, (name, str(field), m)
                    assert verify_x_chain_identity(cat, field, m).ok, (name, str(field), m)
                    assert verify_section(cat, field, m).ok, (name, str(field), m)
                    assert verify_two_sided_on_relative(cat, field, m).ok, (name, str(field), m)


def test_criterion_4_theorem_a_dimension_tables():
    with _Clock("4 theorem A dimension tables", 120.0):
        expected = [
            (A2, QQ, 3, [1, 0, 0, 0]),
            (C2, GF2, 3, [2, 2, 2, 2]),
            (C2, GF3, 3, [2, 0, 0, 0]),
            (C2, QQ, 3, [2, 0, 0, 0]),
        ]
        for cat, field, max_m, dims in expected:
            assert hochschild_cohomology_dims(cat, field, max_m) == dims
            assert relative_cohomology_dims(cat, field, max_m) == dims
            assert simplicial_cohomology_dims(adjoint_category(cat), field, max_m) == dims
            rep = theorem_a_report(cat, field, max_m)
            assert rep.verdict == "isomorphism"
            assert all(rec.induced_invertible for rec in rep.degrees)
        for field in (GF2, GF3):
            rep = theorem_a_report(EX6, field, 2)
            for rec in rep.degrees:
                assert rec.dim_hochschild == rec.dim_relative == rec.dim_simplicial
                assert rec.induced_invertible
            assert rep.verdict == "isomorphism"


def test_criterion_5_theorem_b():
    with _Clock("5 theorem B", 10.0):
        expected = [
            (C2, GF2, 2),
            (C2, QQ, 0),
            (A2, QQ, 1),
        ]
        for cat, field, dim in expected:
            rep = theorem_b_report(cat, field)
            assert rep.dim_derivations == rep.dim_characters == dim
            assert rep.bijection
        for field in (GF2, GF3):
            rep = theorem_b_report(EX6, field)
            assert rep.dim_derivations == rep.dim_characters
            assert rep.bijection


def _assert_adjoint_isomorphic_to_poset(cat):
    fad = adjoint_category(cat)
    assert fad.n_objects == cat.n_objects
    assert fad.n_morphisms == cat.n_morphisms
    obj_map = {o: cat.source[e] for o, e in enumerate(fad.object_endos)}
    mor_map = {m: trip[1] for m, trip in enumerate(fad.triples)}
    assert sorted(obj_map.values()) == list(range(cat.n_objects))
    assert sorted(mor_map.values()) == list(range(cat.n_morphisms))
    for m in range(fad.n_morphisms):
        assert obj_map[fad.source[m]] == cat.source[mor_map[m]]
        assert obj_map[fad.target[m]] == cat.target[mor_map[m]]
    for g in range(fad.n_morphisms):
        for f in range(fad.n_morphisms):
            h = fad.compose(g, f)
            if h < 0:
                assert cat.source[mor_map[g]] != cat.target[mor_map[f]]
            else:
                assert cat.compose(mor_map[g], mor_map[f]) == mor_map[h]


def test_criterion_6_structural_invariants():
    with _Clock("6 structural invariants", 10.0):
        for name in POSETS:
            _assert_adjoint_isomorphic_to_poset(FIXTURES[name])
        for name, cat in FIXTURES.items():
            fad = adjoint_category(cat)
            sizes = nerve_sizes(fad)
            for m in range(4):
                assert len(relative_basis(cat, m)) == next(sizes), (name, m)
            ids = set(fad.identity)
            for field in FIELDS:
                for vec in character_space(fad, field).basis.dense_rows():
                    assert all(vec[i] == 0 for i in ids), name


def test_criterion_7_byte_identical_json():
    with _Clock("7 determinism", 60.0):
        args = [sys.executable, "-m", "hochcat", "compare", "ex6",
                "--field", "gf:2", "--max-degree", "2", "--output", "json"]
        first = subprocess.run(args, capture_output=True, env=child_env())
        second = subprocess.run(args, capture_output=True, env=child_env())
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 0
