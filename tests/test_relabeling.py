"""Relabeling invariance of the reports.

The order of a category's object and morphism lines sets its basis order,
the order of ``morphisms_by_source`` and with it the prefix offsets that
address the nerve of ``F^ad``.  None of that may show in a report: every
catalog fixture in the isomorphism tier, read back from its text form with
the object and morphism lines in three seeded orders, gives byte for byte
the JSON of ``compare`` and ``cohomology --theory both`` it gives as it is.
"""

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
