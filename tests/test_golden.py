"""Golden digests of the JSON reports: any byte change in them fails here.

Every catalog fixture is written to ``<name>.cat`` and run through the CLI
as ``compare`` (``--max-degree 2``) and ``derivations`` over GF(2), GF(3)
and Q, as ``cohomology`` (``--theory both --max-degree 2``) over the
same three fields, and as ``fad``; the surjection-tier
``parallel_arrows``, the dihedral group ``d4`` and the two-object
``s3+c2`` (outside ``FIXTURES``) run as ``compare`` over the same three
fields, and the last two as ``derivations`` too.  ``a2``, ``diamond``,
``ex6`` and ``chain:3`` also run as ``cohomology --theory full
--max-degree 3`` over GF(2), GF(5) and Q: the full dimensions of a
category with several objects, to one degree past the others.

Every op of the benchmark (``perfbench/workloads.py``) runs too, on the
category files ``perfbench/gen.py`` writes for seed 1 in each of its
labelings 0..2.  Both modules are loaded from their files and only read.
A change to the benchmark that alters its inputs or its op list
regenerates these entries with the rest.

The sha256 of stdout and the exit code of each run are pinned in
``golden_digests.json``.  After a change that is meant to
alter a report, rewrite the file with

    PYTHONPATH=src python -m tests.test_golden

and say in the change which reports moved and why.
"""

import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from hochcat.catformat import category_to_text
from hochcat.cli import main

from .catalog import D4, FIXTURES, S3_PLUS_C2
from .test_category import parallel_arrows

CATEGORIES = {**FIXTURES, "parallel_arrows": parallel_arrows(), "d4": D4, "s3+c2": S3_PLUS_C2}
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
FULL3 = "cohomology --theory full --max-degree 3"
RUNS = (tuple((verb, name, field)
              for verb in ("compare", "derivations", "cohomology")
              for name in FIXTURES
              for field in ("gf:2", "q"))
        + tuple((verb, name, "gf:3") for verb in ("compare", "cohomology") for name in FIXTURES)
        + tuple(("compare", name, field)
                for name in ("parallel_arrows", "d4", "s3+c2") for field in ("gf:2", "gf:3", "q"))
        + tuple(("derivations", name, "gf:3") for name in FIXTURES)
        + tuple(("derivations", name, field)
                for name in ("d4", "s3+c2") for field in ("gf:2", "gf:3", "q"))
        + tuple(("fad", name, None) for name in FIXTURES)
        + tuple((FULL3, name, field)
                for name in ("a2", "diamond", "ex6", "chain:3") for field in ("gf:2", "gf:5", "q")))


def load_perfbench(name: str):
    """Module ``perfbench/<name>.py``, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"golden_perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


gen, workloads = load_perfbench("gen"), load_perfbench("workloads")
BENCH_SEED = 1
BENCH_RUNS = tuple((relabel, op) for relabel in range(gen.LABELINGS)
                   for ops in workloads.WORKLOADS.values() for op in ops)


def digest(argv: list) -> list:
    """``[exit code, sha256 of stdout]`` of ``main(argv)``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def run_digest(directory: str, verb: str, name: str, field: str | None) -> list:
    """``[exit code, sha256 of stdout]`` of one JSON run on category ``name``.

    ``verb`` may carry its own options after the verb; they replace the
    default ``--max-degree`` and ``--theory``.
    """
    verb, *options = verb.split()
    path = os.path.join(directory, f"{name}.cat")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(category_to_text(CATEGORIES[name]))
    if not options and verb in ("compare", "cohomology"):
        options = ["--max-degree", "2"] + (["--theory", "both"] if verb == "cohomology" else [])
    return digest([verb, path, "--output", "json"] + (["--field", field] if field else []) + options)


def bench_digest(directory: str, relabel: int, op) -> list:
    """The digest of benchmark op ``op`` on the inputs of labeling ``relabel``."""
    return digest(op.argv(gen.write_inputs(directory, BENCH_SEED, relabel, (op.category,))))


def key(verb: str, name: str, field: str | None) -> str:
    return f"{verb} {name} {field}" if field else f"{verb} {name}"


def bench_key(relabel: int, op) -> str:
    return f"bench seed {BENCH_SEED} relabel {relabel}: {op.label}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted([key(*run) for run in RUNS]
                                    + [bench_key(*run) for run in BENCH_RUNS])


@pytest.mark.parametrize("verb,name,field", RUNS)
def test_json_report_is_byte_identical(tmp_path, golden, verb, name, field):
    assert run_digest(str(tmp_path), verb, name, field) == golden[key(verb, name, field)]


@pytest.mark.parametrize("relabel,op", BENCH_RUNS, ids=[bench_key(*run) for run in BENCH_RUNS])
def test_benchmark_op_json_is_byte_identical(tmp_path, golden, relabel, op):
    assert bench_digest(str(tmp_path), relabel, op) == golden[bench_key(relabel, op)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {key(*run): run_digest(tmp, *run) for run in RUNS}
        table.update({bench_key(*run): bench_digest(tmp, *run) for run in BENCH_RUNS})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} digests to {GOLDEN}\n")
