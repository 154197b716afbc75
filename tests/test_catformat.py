import pytest

from hochcat import (
    RawCategory,
    adjoint_category,
    builtin,
    category_to_text,
    group_from_table,
    parse_category,
    parse_category_text,
    poset_from_relation,
    validate_category,
)
from hochcat.category import AdjointCategory, FiniteCategory
from hochcat.errors import (
    AssociativityFailure,
    CategoryFormatError,
    InvalidCategory,
    MissingComposite,
    NotAGroup,
    NotAPartialOrder,
    UnknownFixture,
)
from hochcat.fixtures import chain_poset_matrix, cyclic_group_table

from . import oracles
from .catalog import A2, C2, EX6, FIXTURES, symmetric_group_table

EX6_TEXT = """\
# the two-object category with order-two endomorphism monoids
object x1
object x2
morphism id1 : x1 -> x1 identity
morphism a : x1 -> x1
morphism id2 : x2 -> x2 identity
morphism b : x2 -> x2
morphism phi : x1 -> x2
morphism psi : x1 -> x2
compose a a = id1
compose b b = id2
compose phi a = psi
compose psi a = phi
compose b phi = psi
compose b psi = phi
"""


def test_parse_ex6_matches_builtin():
    assert parse_category(EX6_TEXT) == EX6


def test_parse_tolerates_comments_and_blank_lines():
    text = "object x\n\n# comment\nmorphism id : x -> x identity  # trailing\n"
    cat = parse_category(text)
    assert cat.n_objects == 1 and cat.n_morphisms == 1


def test_parse_missing_composite_is_validation_error():
    broken = EX6_TEXT.replace("compose phi a = psi\n", "")
    with pytest.raises(MissingComposite) as err:
        parse_category(broken)
    assert err.value.details == {"g": "phi", "f": "a"}


@pytest.mark.parametrize("line", [
    "object",
    "morphism f x -> y",
    "morphism f : x => y",
    "compose a b c",
    "widget w",
])
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(CategoryFormatError):
        parse_category_text(line)


def test_roundtrip_through_text():
    for cat in (EX6, C2, A2, builtin("diamond")):
        assert parse_category(category_to_text(cat)) == cat


def table(cat) -> dict:
    """Names, endpoints, identities and every composite, the adjoint's included."""
    n = cat.n_morphisms
    return {"objects": cat.object_names, "morphisms": cat.morphism_names,
            "source": cat.source, "target": cat.target, "identity": cat.identity,
            "compose": [[cat.compose(g, f) for f in range(n)] for g in range(n)]}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_fixture_and_its_fad_round_trip_through_text(name):
    for cat in (FIXTURES[name], adjoint_category(FIXTURES[name])):
        assert table(parse_category(category_to_text(cat))) == table(cat)


@pytest.mark.parametrize("bad", ["a b", "t#1", "", "x\ty", "#"])
def test_a_name_the_text_form_cannot_hold_is_refused(bad):
    # every constructor goes through validate_category, which refuses the
    # name before category_to_text could write a line its parser rejects
    builds = (
        lambda: validate_category(RawCategory(objects=[bad], morphisms=[("id", bad, bad, True)])),
        lambda: validate_category(RawCategory(objects=["x"], morphisms=[(bad, "x", "x", True)])),
        lambda: group_from_table(cyclic_group_table(2), names=("e", bad)),
        lambda: group_from_table(cyclic_group_table(2), object_name=bad),
        lambda: poset_from_relation(chain_poset_matrix(2), names=("x", bad)),
    )
    for build in builds:
        with pytest.raises(InvalidCategory) as refused:
            build()
        assert refused.value.details == {"name": bad}


def test_text_form_visits_only_composable_pairs(monkeypatch):
    # byte-equal to the all-pairs scan, on every fixture and its F^ad, with
    # one composed pair per compose line, each pair composable
    calls = []
    for cls in (FiniteCategory, AdjointCategory):
        def recorded(self, g, fs, composites=cls.composites):
            calls.extend((self, g, f) for f in fs)
            return composites(self, g, fs)
        monkeypatch.setattr(cls, "composites", recorded)
    for name, base in FIXTURES.items():
        for cat in (base, adjoint_category(base)):
            expected = oracles.category_text_all_pairs(cat)
            calls.clear()
            text = category_to_text(cat)
            assert text == expected, name
            own = [(g, f) for who, g, f in calls if who is cat]
            assert len(own) == text.count("\ncompose "), name
            assert all(cat.source[g] == cat.target[f] for g, f in own), name


def test_serialization_omits_identity_compositions():
    text = category_to_text(A2)
    assert "compose" not in text  # only identity-involving pairs exist


# --- fixture constructors ----------------------------------------------------

def test_group_from_table_c2():
    assert group_from_table(cyclic_group_table(2), names=("e", "t")) == C2


def test_group_from_table_rejects_non_groups():
    with pytest.raises(NotAGroup):
        group_from_table([[0, 0], [0, 0]])  # no identity row/col pair
    with pytest.raises(NotAGroup):
        group_from_table([[0, 1], [1, 1]])  # 1 has no inverse
    z_monoid = [[0, 1], [1, 1]]
    with pytest.raises(NotAGroup):
        group_from_table(z_monoid)


def test_group_from_table_rejects_a_non_associative_loop():
    # e, a, b with a∘a = b∘b = e and a∘b = b∘a = a: identity and inverses
    # exist, but (b∘a)∘a = e while b∘(a∘a) = b; validation finds it
    table = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(NotAGroup, match="not associative") as exc:
        group_from_table(table, names=("e", "a", "b"))
    assert isinstance(exc.value.__cause__, AssociativityFailure)


def test_symmetric_group_table_is_a_group():
    cat = group_from_table(symmetric_group_table(3))
    assert cat.n_morphisms == 6
    assert all(r.holds for r in __import__("hochcat").predicate_reports(cat).values())


def test_poset_from_relation_two_chain_matches_a2():
    cat = poset_from_relation(chain_poset_matrix(2))
    assert cat.n_objects == A2.n_objects
    assert cat.n_morphisms == A2.n_morphisms
    assert cat.source == A2.source and cat.target == A2.target
    assert cat.compose_table == A2.compose_table


def test_poset_from_relation_rejects_bad_relations():
    with pytest.raises(NotAPartialOrder):
        poset_from_relation([[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(NotAPartialOrder):
        poset_from_relation([[False]])  # not reflexive
    not_transitive = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    with pytest.raises(NotAPartialOrder):
        poset_from_relation(not_transitive)


def test_builtin_names():
    assert builtin("cn:4").n_morphisms == 4
    assert builtin("chain:3").n_objects == 3
    assert builtin("diamond").n_morphisms == 9
    with pytest.raises(UnknownFixture):
        builtin("nope")
    with pytest.raises(UnknownFixture):
        builtin("cn:zero")
