"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  They check that the
generator is deterministic and its files are valid categories of the
expected sizes, that the expected answers in ``workloads.py`` agree with
routes independent of the engine's Hochschild code, that the correctness
gate rejects a wrong expected table, that the reported times do not move
with the machine's speed, that self-time arithmetic is right on a synthetic
span tree, and that the span wrappers attach in a real child.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from hochcat import cli  # noqa: E402
from hochcat.catformat import parse_category  # noqa: E402

SIZES = {  # name -> (objects, morphisms)
    "s3": (1, 6), "s4": (1, 24), "a5": (1, 60), "d4": (1, 8), "c8": (1, 8),
    "b4": (16, 81), "diamond": (4, 9), "chain3": (3, 6), "ex6": (2, 6),
}
ALL_OPS = [op for ops in workloads.WORKLOADS.values() for op in ops]


def _field(op):
    value = op.options[op.options.index("--field") + 1]
    return None if value == "q" else int(value.split(":")[1])


def _run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


# --- generator -------------------------------------------------------------------


@pytest.mark.parametrize("name", gen.CATEGORIES)
def test_generator_is_deterministic_and_valid(name):
    text = gen.category_text(name, 7)
    assert text == gen.category_text(name, 7)
    for relabel in (0, 1):
        cat = parse_category(gen.category_text(name, 7, relabel))
        assert (cat.n_objects, cat.n_morphisms) == SIZES[name]
    assert gen.category_text(name, 8) != text
    assert gen.category_text(name, 7, 1) != text

    def declarations(text):
        return [line for line in text.splitlines() if line.startswith(("object", "morphism"))]

    # the basis order, which sets the elimination work, does not follow the seed
    assert declarations(gen.category_text(name, 8)) == declarations(text)
    assert declarations(gen.category_text(name, 8, gen.LABELINGS)) == declarations(text)


def test_write_inputs_writes_every_category(tmp_path):
    paths = gen.write_inputs(str(tmp_path), 3, 2)
    assert sorted(paths) == sorted(gen.CATEGORIES)
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == gen.category_text(name, 3, 2)


# --- expected answers against independent routes --------------------------------------


def _subgroup(table, elems):
    """Closure of ``elems`` under the group law."""
    out = set(elems)
    frontier = list(out)
    while frontier:
        new = [table[a][b] for a in frontier for b in list(out)]
        new += [table[b][a] for a in frontier for b in list(out)]
        frontier = [x for x in set(new) if x not in out]
        out.update(frontier)
    return out


def _centralizers(name):
    """(table, identity, order, [centralizer of one element per conjugacy class])."""
    elems, table = gen.group_table(name)
    n = len(elems)
    ident = elems.index(tuple(range(len(elems[0]))))
    inverse = [next(j for j in range(n) if table[i][j] == ident) for i in range(n)]
    seen, cents = set(), []
    for g in range(n):
        if g in seen:
            continue
        seen |= {table[table[x][g]][inverse[x]] for x in range(n)}
        cents.append([x for x in range(n) if table[x][g] == table[g][x]])
    return table, ident, n, cents


def _element_order(table, ident, g):
    k, x = 1, g
    while x != ident:
        x, k = table[x][g], k + 1
    return k


def _h1(table, ident, cent, p):
    """dim Hom(C, GF(p)) = log_p of the index of commutators and p-th powers."""
    if p is None:
        return 0
    gens = {ident}
    for a in cent:
        x = a
        for _ in range(p - 1):
            x = table[x][a]
        gens.add(x)
        for b in cent:
            ab, ba = table[a][b], table[b][a]
            gens.add(next(c for c in cent if table[ba][c] == ab))   # c with ba·c = ab
    index = len(cent) // len(_subgroup(table, gens))
    return round(math.log(index, p))


def _hn(table, ident, cent, p, degree):
    """dim H^degree(C; k) for the centralizers that occur here.

    Textbook values: over Q or with p not dividing |C| only H^0 survives; a
    cyclic group of order divisible by p has dimension 1 in every degree;
    over GF(2), V4 and D8 have Poincaré series 1/(1-t)^2 and S3 has the
    cohomology of its Sylow subgroup C2.
    """
    order = len(cent)
    if degree == 0:
        return 1
    if p is None or order % p:
        return 0
    orders = [_element_order(table, ident, g) for g in cent]
    if max(orders) == order:
        return 1
    involutions = orders.count(2)
    abelian = all(table[a][b] == table[b][a] for a in cent for b in cent)
    if p == 2 and ((order == 4 and abelian) or (order == 8 and involutions == 5)):
        return degree + 1
    if p == 2 and order == 6 and not abelian:
        return 1
    raise AssertionError(f"no tabulated cohomology for a centralizer of order {order}")


def _poset_least(name):
    names, leq = gen.poset_relation(name)
    n = len(names)
    least = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    relations = sum(leq[i][j] for i in range(n) for j in range(n))
    strict_chains = sum(
        1 for i in range(n) for j in range(n) for k in range(n)
        if i != j and j != k and leq[i][j] and leq[j][k]
    )
    return n, bool(least), relations, strict_chains


@pytest.mark.parametrize("op", [op for op in ALL_OPS if op.category in gen.GROUPS],
                         ids=lambda op: op.label)
def test_group_constants_match_centralizer_decomposition(op):
    table, ident, n, cents = _centralizers(op.category)
    if "dims" in op.expect:
        p = _field(op)
        dims = tuple(sum(_hn(table, ident, c, p, m) for c in cents)
                     for m in range(len(op.expect["dims"])))
        assert dims == op.expect["dims"]
    elif "dim" in op.expect:
        # characters of F^ad = H^1 of the nerve plus the coboundaries of its
        # |G| objects over as many components as conjugacy classes
        p = _field(op)
        assert op.expect["dim"] == sum(_h1(table, ident, c, p) for c in cents) + n - len(cents)
    elif "text_lines" in op.expect:
        # F^ad is the conjugation action groupoid: n objects, n^2 arrows,
        # and every non-identity arrow composes with n - 1 non-identity arrows
        assert (op.expect["objects"], op.expect["morphisms"]) == (n, n * n)
        assert op.expect["text_lines"] == n + n * n + (n * n - n) * (n - 1)
    else:
        assert (op.expect["objects"], op.expect["morphisms"]) == (1, n)


@pytest.mark.parametrize("op", [op for op in ALL_OPS if op.category in gen.POSETS],
                         ids=lambda op: op.label)
def test_poset_constants_match_contractibility(op):
    n, has_least, relations, strict_chains = _poset_least(op.category)
    assert has_least       # a least element makes the nerve contractible
    if "dims" in op.expect:
        assert op.expect["dims"] == (1,) + (0,) * (len(op.expect["dims"]) - 1)
    elif "dim" in op.expect:
        assert op.expect["dim"] == n - 1     # all characters are coboundaries
    else:
        assert (op.expect["objects"], op.expect["morphisms"]) == (n, relations)
        assert op.expect["text_lines"] == n + relations + strict_chains


def test_ex6_constants_match_compare_agreement(tmp_path):
    path = gen.write_inputs(str(tmp_path), 0, names=("ex6",))["ex6"]
    ex6_ops = [op for op in ALL_OPS if op.category == "ex6"]
    assert ex6_ops
    for op in ex6_ops:
        degree = len(op.expect["dims"]) - 1
        field = op.options[op.options.index("--field") + 1]
        doc = _run_cli(["compare", path, "--field", field, "--max-degree", str(degree),
                        "--output", "json"])
        for key in ("dim_hh", "dim_rel", "dim_simplicial_fad"):
            assert tuple(d[key] for d in doc["degrees"]) == op.expect["dims"]


# --- correctness gate ----------------------------------------------------------------------


def test_gate_flags_a_wrong_expected_table(tmp_path):
    op = next(op for op in workloads.WORKLOADS["hh-dims"] if op.category == "diamond")
    path = gen.write_inputs(str(tmp_path), 5, names=("diamond",))["diamond"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op.argv({"diamond": path})) == 0
    assert workloads.check_output(op, out.getvalue()) is None
    wrong = dataclasses.replace(op, expect={"dims": (1, 1, 0)})
    assert "dims" in workloads.check_output(wrong, out.getvalue())
    assert workloads.check_output(op, "not json") is not None


# --- calibration ---------------------------------------------------------------------


def test_reference_work_is_fixed():
    assert calib.reference() == calib.reference() == (120, 168391, (90, 175643), 1051783, 40)


def test_end_to_end_times_cancel_the_machine_speed(capsys):
    ops = workloads.WORKLOADS["hh-dims"][:2]

    def records(slowdown):
        # op 0 takes 2 s and op 1 takes 1 s on a machine where the reference
        # takes 0.1 s; the second pass ran 1.5 times slower than the first
        return [(i, {"op_s": (2.0 - i) * a * slowdown, "import_s": 0.03 * slowdown,
                     "ref_s": [0.1 * a * slowdown, 0.1 * b * slowdown],
                     "maxrss_kib": 1024, "sha256": "-"})
                for a, b in ((1.0, 1.0), (1.5, 1.5)) for i in range(len(ops))]

    class Counts:
        failures: list = []
        attempted = 4

    fast = run.end_to_end(Counts(), ops, records(1.0))
    slow = run.end_to_end(Counts(), ops, records(1.7))
    for name in run.END_TO_END:
        assert slow[name]["value"] == pytest.approx(fast[name]["value"]), name
    # the import took 0.03 s in both passes, against a 0.1 s and a 0.15 s reference
    assert fast["setup_s"]["value"] == pytest.approx(0.025 * run.REFERENCE_S / 0.1)
    assert fast["ops_per_s"]["value"] == pytest.approx(2 / (3 * run.REFERENCE_S / 0.1))
    assert "machine speed" in capsys.readouterr().out


# --- spans --------------------------------------------------------------------------------


def test_self_times_on_a_nested_tree():
    #  root [0, 10]
    #    a [1, 4]      b [3, 6] (overlaps a)      c [8, 9]
    #      a1 [2, 3]
    tree = [
        ["root", "g.root", -1, 0.0, 10.0, None, 0],
        ["a", "g.x", 0, 1.0, 4.0, None, 0],
        ["a1", "g.y", 1, 2.0, 3.0, None, 0],
        ["b", "g.x", 0, 3.0, 6.0, None, 0],
        ["c", "g.y", 0, 8.0, 9.0, {"matrix.rank_sum": 2}, 0],
    ]
    assert spans.self_times(tree) == [10 - 5 - 1, 2.0, 1.0, 3.0, 1.0]
    summary = spans.op_summary(tree, 10.0)
    assert summary["seconds"] == {"g.root": 4.0, "g.x": 5.0, "g.y": 2.0}
    assert summary["calls"] == {"g.root": 1, "g.x": 2, "g.y": 2}
    assert summary["counts"] == {"matrix.rank_sum": 2}
    assert summary["unattributed"] == pytest.approx(-0.1)


def test_traced_child_attaches_every_wrapper(tmp_path, monkeypatch):
    monkeypatch.setenv("HOCHCAT_CAP", "1")      # must not reach the child
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    runner = run.Runner(str(tmp_path))
    assert "HOCHCAT_CAP" not in runner.env
    paths = gen.write_inputs(str(tmp_path / "inputs"), 1, names=("ex6",))
    op = workloads.Op("compare", "ex6", ("--field", "gf:2", "--max-degree", "1"), "",
                      {"dims": (2, 2)})
    record = runner.run_op(0, op, op.argv(paths), "trace")
    plain = runner.run_op(0, op, op.argv(paths))
    assert runner.failures == [], runner.failures
    assert "ref_s" not in record and len(plain["ref_s"]) == 2 and min(plain["ref_s"]) > 0
    # every binding of a target, in its own module and in each module that
    # imported it by name (cli binds the dims, report and verify functions)
    modules = [m for name, m in sys.modules.items() if name.startswith("hochcat")]
    for modname, attr, _group, _counter in spans.TARGETS:
        owner_name, _, name = attr.rpartition(".")
        owner = sys.modules[f"hochcat.{modname}"]
        if owner_name:
            want = int(name in vars(getattr(owner, owner_name, object)))
        else:
            fn = vars(owner).get(name)
            want = sum(v is fn for m in modules for v in vars(m).values()) if fn else 0
        assert record["patched"][f"{modname}.{attr}"] == want, (modname, attr)
    assert record["patched"]["comparison.theorem_a_report"] >= 2
    calls = record["trace"]["calls"]
    for group in ("cli.main", "comparison.report", "comparison.verify", "comparison.maps",
                  "hochschild.assemble", "nerve.assemble", "matrix.rref", "matrix.subspace"):
        assert calls.get(group, 0) > 0, group


def test_benchmark_json_lists_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
