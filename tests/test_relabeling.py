"""Relabeling invariance of the reports.

The order of a category's object and morphism lines sets its basis order,
the order of ``morphisms_by_source`` and with it the prefix offsets that
address the nerve of ``F^ad``.  None of that may show in a report: every
catalog fixture in the isomorphism tier, read back from its text form with
the object and morphism lines in three seeded orders, gives byte for byte
the JSON of ``compare`` and ``cohomology --theory both`` it gives as it is.
``derivations`` keeps its dimensions, verdict and matrix shape; its matrix
entries are coordinates in bases that follow the labeling, so its JSON is
not expected to be byte-identical.
"""

import json
import random

import pytest

from hochcat import category_to_text, predicate_reports
from hochcat.cli import main
from hochcat.comparison import hypothesis_tier

from .catalog import FIXTURES

ISOMORPHISM_TIER = sorted(
    name for name, cat in FIXTURES.items()
    if hypothesis_tier({n: rep.holds for n, rep in predicate_reports(cat).items()}) == "isomorphism")


def relabeled(text: str, seed: int) -> str:
    """``text`` with its object lines and its morphism lines each in a seeded order."""
    lines = text.splitlines(keepends=True)
    objects = [line for line in lines if line.startswith("object ")]
    morphisms = [line for line in lines if line.startswith("morphism ")]
    rest = [line for line in lines if not line.startswith(("object ", "morphism "))]
    rng = random.Random(seed)
    rng.shuffle(objects)
    rng.shuffle(morphisms)
    return "".join(objects + morphisms + rest)


def reports(path, capsys) -> list:
    out = []
    for field in ("gf:2", "q"):
        for argv in (["compare", path, "--max-degree", "2"],
                     ["cohomology", path, "--max-degree", "2", "--theory", "both"]):
            code = main([*argv, "--field", field, "--output", "json"])
            out.append((code, capsys.readouterr().out))
    return out


def test_every_catalog_fixture_is_in_the_isomorphism_tier():
    assert ISOMORPHISM_TIER == sorted(FIXTURES)


@pytest.mark.parametrize("name", ISOMORPHISM_TIER)
def test_reports_do_not_depend_on_the_labeling(tmp_path, capsys, name):
    text = category_to_text(FIXTURES[name])
    texts = [text] + [relabeled(text, seed) for seed in (1, 2, 3)]
    if FIXTURES[name].n_morphisms > 2:
        assert len(set(texts)) > 1, "no seed moved a line"
    runs = []
    for k, labeled in enumerate(texts):
        path = tmp_path / str(k) / f"{name.replace(':', '_')}.cat"   # one file name: JSON holds it
        path.parent.mkdir()
        path.write_text(labeled, encoding="utf-8")
        runs.append(reports(str(path), capsys))
    assert all(code == 0 for code, _out in runs[0])
    assert runs[1:] == [runs[0]] * 3


def derivations_summary(path, capsys) -> list:
    """Per field: exit code, the two dimensions, the verdict and the shape of
    the restricted matrix, which is all of the JSON that does not name a
    basis coordinate (the triplets do, and move with the labeling)."""
    out = []
    for field in ("gf:2", "gf:3", "q"):
        code = main(["derivations", path, "--field", field, "--output", "json"])
        doc = json.loads(capsys.readouterr().out)
        out.append((code, doc["dim_graded_derivations"], doc["dim_characters"],
                    doc["bijection"], doc["verdict"],
                    doc["matrix"]["rows"], doc["matrix"]["cols"]))
    return out


@pytest.mark.parametrize("name", ISOMORPHISM_TIER)
def test_derivations_do_not_depend_on_the_labeling(tmp_path, capsys, name):
    text = category_to_text(FIXTURES[name])
    runs = []
    for k, labeled in enumerate([text] + [relabeled(text, seed) for seed in (1, 2, 3)]):
        path = tmp_path / f"{k}.cat"
        path.write_text(labeled, encoding="utf-8")
        runs.append(derivations_summary(str(path), capsys))
    assert all(code == 0 for code, *_rest in runs[0])
    assert runs[1:] == [runs[0]] * 3
