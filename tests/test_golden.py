"""Golden digests of the JSON reports: any byte change in them fails here.

Every catalog fixture is written to ``<name>.cat`` and run through the CLI
as ``compare`` (``--max-degree 2``) and ``derivations`` over GF(2), GF(3)
and Q, as ``cohomology`` (``--theory both --max-degree 2``) over the
same three fields, and as ``fad``; the surjection-tier
``parallel_arrows``, the dihedral group ``d4`` and the two-object
``s3+c2`` (outside ``FIXTURES``) run as ``compare`` over the same three
fields, and the last two as ``derivations`` too.  The sha256 of stdout and the exit code of each run
are pinned in ``golden_digests.json``.  After a change that is meant to
alter a report, rewrite the file with

    PYTHONPATH=src python -m tests.test_golden

and say in the change which reports moved and why.
"""

import hashlib
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
        + tuple(("fad", name, None) for name in FIXTURES))


def run_digest(directory: str, verb: str, name: str, field: str | None) -> list:
    """``[exit code, sha256 of stdout]`` of one JSON run on category ``name``."""
    path = os.path.join(directory, f"{name}.cat")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(category_to_text(CATEGORIES[name]))
    argv = [verb, path, "--output", "json"] + (["--field", field] if field else [])
    if verb in ("compare", "cohomology"):
        argv += ["--max-degree", "2"]
    if verb == "cohomology":
        argv += ["--theory", "both"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def key(verb: str, name: str, field: str | None) -> str:
    return f"{verb} {name} {field}" if field else f"{verb} {name}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(key(*run) for run in RUNS)


@pytest.mark.parametrize("verb,name,field", RUNS)
def test_json_report_is_byte_identical(tmp_path, golden, verb, name, field):
    assert run_digest(str(tmp_path), verb, name, field) == golden[key(verb, name, field)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {key(*run): run_digest(tmp, *run) for run in RUNS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} digests to {GOLDEN}\n")
